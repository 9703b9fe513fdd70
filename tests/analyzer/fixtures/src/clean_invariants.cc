// The blessed form of every construct the catalog and textual rules
// inspect. Must stay clean.

#include "core/observers.h"
#include "util/mutex.h"

class FixtureClean {
 public:
  Status Run(IndexManager* mgr, const IndexTask& task,
             const std::string& new_row, const std::string& old_row,
             obs::MetricsRegistry* metrics, obs::TraceCollector* traces,
             bool fg) {
    DIFFINDEX_FAILPOINT("fixture.name.documented");
    obs::SpanTimer span(metrics, traces, "fixture.task");
    metrics->GetCounter("fixture.pages")->Add();
    // A dynamic suffix on a documented wildcard row is fine.
    metrics->GetCounter("fixture.injected." + task.index.index_table)->Add();
    MutexLock lock(mu_);
    auto owned = std::make_unique<int>(7);
    (void)owned;
    std::vector<PutRequest> ops;
    DIFFINDEX_RETURN_NOT_OK(mgr->StagePutIndexEntry(
        task.index.index_table, new_row, task.ts, fg, &ops));
    return mgr->StageDeleteIndexEntry(task.index.index_table, old_row,
                                      task.ts - kDelta, fg, &ops);
  }

 private:
  Mutex mu_;
};
