// Checks SelfTimes on hand-built traces: nesting by span id, shared span
// ids (rpc.* > rs.put > rs.index_sync), spans outside the op's interval,
// APS work off the op's path, and the residual. Exits non-zero if any
// check fails.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "trace_layers.h"

namespace diffindex::perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) return;
  fprintf(stderr, "FAILED: %s\n", what.c_str());
  failures++;
}

obs::SpanRecord Span(uint64_t id, uint64_t parent, const char* name,
                     uint64_t start, uint64_t duration) {
  obs::SpanRecord span;
  span.trace_id = 1;
  span.span_id = id;
  span.parent_span_id = parent;
  span.name = name;
  span.start_micros = start;
  span.duration_micros = duration;
  return span;
}

uint64_t Self(const LayerTimes& t, Layer layer) {
  return t.self_us[static_cast<int>(layer)];
}

// A sync-full put: the client span, the server handler sharing the rpc
// span's id, index maintenance, and one index RPC below it.
void SyncPut() {
  const std::vector<obs::SpanRecord> spans = {
      Span(2, 1, "client.put", 1010, 180),     // parent: root (id 1)
      Span(3, 2, "rpc.put", 1020, 160),        // server side of the hop
      Span(3, 2, "rs.put", 1025, 150),         // same id, inside rpc.put
      Span(3, 2, "rs.index_sync", 1060, 100),  // same id, inside rs.put
      Span(4, 3, "rpc.put", 1070, 50),         // PI, child of the handler
      Span(4, 3, "rs.put", 1072, 40),
      Span(9, 3, "aps.task", 5000, 30),        // after the op: ignored
  };
  const LayerTimes t = SelfTimes(spans, /*root_span_id=*/1,
                                 /*root_start_micros=*/1000,
                                 /*latency_us=*/200);
  Expect(t.spans == 6, "sync put: spans outside the op are dropped");
  // client.put 180 - rpc.put 160 = 20; rs.index_sync 100 - 50 = 50.
  Expect(Self(t, Layer::kCore) == 70, "sync put: core self time");
  // rpc.put 160-150 = 10, index rpc.put 50-40 = 10.
  Expect(Self(t, Layer::kNet) == 20, "sync put: net self time");
  // rs.put 150-100 = 50, index rs.put 40.
  Expect(Self(t, Layer::kCluster) == 90, "sync put: cluster self time");
  Expect(t.residual_us == 20, "sync put: residual is the uncovered root");
}

// An async put whose APS task runs on an AUQ worker while the put is still
// returning: the task and its index RPC are off the put's path.
void AsyncPut() {
  const std::vector<obs::SpanRecord> spans = {
      Span(2, 1, "client.put", 10, 100),
      Span(3, 2, "rpc.put", 20, 80),
      Span(3, 2, "rs.put", 25, 70),
      Span(8, 3, "aps.task", 60, 50),  // overlaps the put
      Span(9, 8, "rpc.put", 65, 20),   // PI from the APS
  };
  const LayerTimes t = SelfTimes(spans, 1, 0, 120);
  Expect(t.spans == 3, "async put: APS spans are off the path");
  Expect(Self(t, Layer::kCore) == 20, "async put: core self time");
  Expect(Self(t, Layer::kNet) == 10, "async put: net self time");
  Expect(Self(t, Layer::kCluster) == 70, "async put: cluster self time");
  Expect(t.residual_us == 20, "async put: residual");
}

// Ids that repeat (a child that got its parent's id, itself as parent):
// attribution still forms a tree and terminates.
void RepeatedIds() {
  const std::vector<obs::SpanRecord> spans = {
      Span(5, 1, "client.get_by_index", 10, 80),
      Span(5, 5, "index.scan", 20, 50),
      Span(5, 5, "rpc.scan_rows", 25, 40),
  };
  const LayerTimes t = SelfTimes(spans, 1, 0, 100);
  Expect(t.spans == 3, "repeated ids: every span attributed");
  Expect(Self(t, Layer::kCore) == 30 + 10, "repeated ids: core self time");
  Expect(Self(t, Layer::kNet) == 40, "repeated ids: net self time");
  Expect(t.residual_us == 20, "repeated ids: residual");
}

// A scan: two sequential pages sharing one span id, base-row fetches
// under each page, and a lost span whose time stays in the residual.
void Scan() {
  const std::vector<obs::SpanRecord> spans = {
      Span(2, 1, "query.page", 100, 300),
      Span(5, 2, "rpc.get_row", 150, 40),
      Span(5, 2, "rs.get_row", 155, 30),
      Span(2, 1, "query.page", 420, 60),
      Span(6, 2, "rpc.get_row", 430, 20),
      Span(7, 99, "client.get", 500, 10),  // parent not kept: root child
  };
  const LayerTimes t = SelfTimes(spans, 1, 90, 430);
  Expect(Self(t, Layer::kQuery) == 300 - 40 + 60 - 20, "scan: query self");
  Expect(Self(t, Layer::kNet) == 10 + 20, "scan: net self");
  Expect(Self(t, Layer::kCluster) == 30, "scan: cluster self");
  Expect(Self(t, Layer::kCore) == 10, "scan: orphan span attributed");
  Expect(t.residual_us == 430 - 300 - 60 - 10, "scan: residual");
}

}  // namespace
}  // namespace diffindex::perfbench

int main() {
  diffindex::perfbench::SyncPut();
  diffindex::perfbench::AsyncPut();
  diffindex::perfbench::RepeatedIds();
  diffindex::perfbench::Scan();
  if (diffindex::perfbench::failures > 0) return 1;
  printf("trace_layers_test: ok\n");
  return 0;
}
