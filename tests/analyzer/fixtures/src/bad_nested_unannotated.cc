// Seeded lock-order violation: a nested acquisition that runs against
// the declared order (outer_mu_ is declared before inner_mu_, but
// Backwards() takes inner first). The conforming Forward() nesting must
// not fire. The locks are unranked, so lock-order-global stays quiet.

class FixtureNested {
 public:
  void Forward() {
    MutexLock outer(&outer_mu_);
    MutexLock inner(&inner_mu_);  // declared order: fine
  }

  void Backwards() {
    MutexLock inner(&inner_mu_);
    MutexLock outer(&outer_mu_);  // violation: inner -> outer undeclared
  }

 private:
  Mutex outer_mu_ ACQUIRED_BEFORE(inner_mu_);
  Mutex inner_mu_;
};
