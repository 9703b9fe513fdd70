// Seeded metric-names violation: opens a SpanTimer on a stage missing
// from the corpus DESIGN.md span-stage list.

void FixtureBadSpanStage(obs::MetricsRegistry* m, obs::TraceCollector* t) {
  obs::SpanTimer ok(m, t, "fixture.task");              // documented: clean
  obs::SpanTimer bad(m, t, "fixture.secret_stage");     // violation
}
