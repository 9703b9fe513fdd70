// A raw std primitive, waived with a rationale.

class FixtureWaivedRawMutex {
 private:
  // ANALYZER_WAIVE(raw-mutex): fixture-only raw primitive kept to prove
  // the waiver grammar for this rule.
  std::condition_variable cv_;
};
