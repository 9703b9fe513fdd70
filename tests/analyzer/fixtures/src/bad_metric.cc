// Seeded metric-names violation: creates an instrument whose name has
// no row in the corpus DESIGN.md metric names table.

void FixtureBadMetric(obs::MetricsRegistry* metrics) {
  metrics->GetCounter("fixture.pages")->Add();    // documented: clean
  metrics->GetCounter("fixture.mystery")->Add();  // violation
  metrics->GetCounter(DynamicName());             // no literal: skipped
}
