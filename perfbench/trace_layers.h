// Per-layer self time of one traced operation, computed from the spans
// the program already records into its TraceCollector.
//
// A span's self time is its duration minus the part of its interval that
// its child spans cover. Layers are the repository's modules: `core`
// (DiffIndexClient, index reads, index maintenance), `net` (fabric RPC
// framing and dispatch), `cluster` (RegionServer put path, flush) and
// `query` (ReadEngine pages and repair). The LSM has no spans of its own,
// so its time shows inside the `cluster` self time.

#ifndef DIFFINDEX_PERFBENCH_TRACE_LAYERS_H_
#define DIFFINDEX_PERFBENCH_TRACE_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace diffindex::perfbench {

enum class Layer { kCore = 0, kNet, kCluster, kQuery };
constexpr int kNumLayers = 4;

const char* LayerName(Layer layer);
// Module that emits the span named `span_name` (a SpanTimer name such as
// "rpc.put" or "rs.index_sync").
Layer LayerOf(const std::string& span_name);

struct LayerTimes {
  uint64_t self_us[kNumLayers] = {};
  // Bench-timed latency minus the sum of all layer self times: time no
  // span covers (client code between spans, thread hand-offs, spans lost
  // from the collector's ring).
  int64_t residual_us = 0;
  size_t spans = 0;  // spans attributed to the op's path
};

// Attributes the spans of one operation's trace. The operation ran under
// a root context with span id `root_span_id`, started at wall-clock
// `root_start_micros` and took `latency_us` as the bench timed it. Spans
// outside that interval, and APS work the op spawned (aps.* spans and
// their descendants, which run in parallel), are not on the operation's
// path and are ignored.
LayerTimes SelfTimes(const std::vector<obs::SpanRecord>& spans,
                     uint64_t root_span_id, uint64_t root_start_micros,
                     uint64_t latency_us);

}  // namespace diffindex::perfbench

#endif  // DIFFINDEX_PERFBENCH_TRACE_LAYERS_H_
