// Lint fixture: creates an instrument whose name has no row in the
// DESIGN.md section 6 metric names table. Expected: exactly one
// `metric-names` violation. Not compiled.

#include "obs/metrics.h"

namespace diffindex {

void FixtureBadMetric(obs::MetricsRegistry* metrics) {
  metrics->GetCounter("query.pages")->Add();      // documented: clean
  metrics->GetCounter("index.mystery")->Add();    // violation
  metrics->GetCounter(DynamicName());             // no literal: skipped
}

}  // namespace diffindex
