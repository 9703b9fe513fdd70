// Seeded raw-mutex violations: a raw std synchronization primitive
// instead of the annotated wrappers in util/mutex.h (the member, the
// lock_guard, and its template argument).

class FixtureRawMutex {
 public:
  void Touch() {
    std::lock_guard<std::mutex> lock(mu_);  // violation (lock_guard)
    ++count_;
  }

 private:
  std::mutex mu_;  // violation (mutex)
  int count_ = 0;
};
