// A nesting against the declared order, waived with a rationale.

class FixtureWaivedNesting {
 public:
  void Backwards() {
    MutexLock second(&second_mu_);
    // ANALYZER_WAIVE(lock-order): fixture-only reversed pair kept to
    // prove the waiver grammar for this rule.
    MutexLock first(&first_mu_);
  }

 private:
  Mutex first_mu_ ACQUIRED_BEFORE(second_mu_);
  Mutex second_mu_;
};
