// Lint fixture: exercises the blessed form of every construct the linter
// inspects. Expected: zero violations under every rule. Not compiled.

#include "core/observers.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/mutex.h"

namespace diffindex {

class FixtureClean {
 public:
  Status Run(IndexManager* mgr, const IndexTask& task,
             const std::string& new_row, const std::string& old_row,
             obs::MetricsRegistry* metrics, obs::TraceCollector* traces,
             bool fg) {
    DIFFINDEX_FAILPOINT("index.put");
    obs::SpanTimer span(metrics, traces, "aps.task");
    metrics->GetCounter("query.pages")->Add();
    // A dynamic suffix on a documented wildcard row is fine.
    metrics->GetCounter("fault.injected." + task.index.index_table)->Add();
    MutexLock lock(mu_);
    auto owned =
        std::unique_ptr<int>(new int(7));  // NOLINT(diffindex-naked-new)
    (void)owned;
    DIFFINDEX_RETURN_NOT_OK(
        mgr->PutIndexEntry(task.index.index_table, new_row, task.ts, fg));
    return mgr->DeleteIndexEntry(task.index.index_table, old_row,
                                 task.ts - kDelta, fg);
  }

 private:
  Mutex mu_;
};

}  // namespace diffindex
