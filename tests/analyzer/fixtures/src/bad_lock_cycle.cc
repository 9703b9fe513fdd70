// Seeded lock-order violation: the ACQUIRED_BEFORE annotations declare a
// cyclic order (alpha before beta, beta before alpha) — a declared
// deadlock, reported at the edge that closes the cycle.

class FixtureLockCycle {
 private:
  Mutex alpha_mu_ ACQUIRED_BEFORE(beta_mu_);
  Mutex beta_mu_ ACQUIRED_BEFORE(alpha_mu_);
};
