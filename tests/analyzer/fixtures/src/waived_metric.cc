// An instrument with no metric table row, waived with a rationale.

void FixtureWaivedMetric(obs::MetricsRegistry* metrics) {
  // ANALYZER_WAIVE(metric-names): fixture-only counter kept out of the
  // table to prove the waiver grammar for this rule.
  metrics->GetCounter("fixture.unlisted")->Add();
}
