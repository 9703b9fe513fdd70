#include "trace_layers.h"

#include <algorithm>
#include <utility>

namespace diffindex::perfbench {

namespace {

// Span start times are wall-clock micros taken at construction and
// durations come from the steady clock, so nesting is only exact to a
// few microseconds.
constexpr uint64_t kSlackMicros = 5;

struct Node {
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  uint64_t start = 0;
  uint64_t end = 0;
  int rank = 0;
  Layer layer = Layer::kCore;
  // APS work the op spawned (aps.* spans and their descendants): it runs
  // on AUQ workers in parallel with the op, not on the op's path.
  bool async = false;
  int parent = -1;

  uint64_t duration() const { return end - start; }
};

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Spans that share one span id nest in this order: the fabric opens
// rpc.<type> under the decoded wire context, and the handler's rs.put and
// the sync observer's rs.index_sync run under that same context.
int NestRank(const std::string& name) {
  if (StartsWith(name, "rpc.")) return 0;
  if (name == "rs.index_sync") return 2;
  return 1;
}

bool Contains(const Node& outer, const Node& inner) {
  return outer.start <= inner.start + kSlackMicros &&
         inner.end <= outer.end + kSlackMicros;
}

// Strict order of spans that may enclose one another: longer first, then
// by NestRank. Parents are always chosen up this order, so the parent
// links form a tree even when span ids repeat (TraceContext ids are not
// unique: consecutive ids can coincide).
bool Outranks(const Node& a, const Node& b) {
  if (a.duration() != b.duration()) return a.duration() > b.duration();
  return a.rank < b.rank;
}

// Length of the union of `intervals` clipped to [lo, hi).
uint64_t CoveredLength(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                       uint64_t lo, uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return covered;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kCore:
      return "core";
    case Layer::kNet:
      return "net";
    case Layer::kCluster:
      return "cluster";
    case Layer::kQuery:
      return "query";
  }
  return "?";
}

Layer LayerOf(const std::string& span_name) {
  if (StartsWith(span_name, "rpc.")) return Layer::kNet;
  if (StartsWith(span_name, "query.")) return Layer::kQuery;
  if (span_name == "rs.index_sync") return Layer::kCore;
  if (StartsWith(span_name, "rs.")) return Layer::kCluster;
  // client.*, index.*, aps.*: DiffIndexClient, IndexReader, AUQ/APS.
  return Layer::kCore;
}

LayerTimes SelfTimes(const std::vector<obs::SpanRecord>& spans,
                     uint64_t root_span_id, uint64_t root_start_micros,
                     uint64_t latency_us) {
  std::vector<Node> nodes;
  nodes.reserve(spans.size() + 1);
  Node root;
  root.span_id = root_span_id;
  root.start = root_start_micros;
  root.end = root_start_micros + latency_us;
  root.rank = -1;
  nodes.push_back(root);
  for (const obs::SpanRecord& span : spans) {
    Node node;
    node.span_id = span.span_id;
    node.parent_span_id = span.parent_span_id;
    node.start = span.start_micros;
    node.end = span.start_micros + span.duration_micros;
    node.rank = NestRank(span.name);
    node.layer = LayerOf(span.name);
    node.async = StartsWith(span.name, "aps.");
    if (!Contains(root, node)) continue;
    nodes.push_back(node);
  }

  // Parent of each span: the shortest outranking span that contains it
  // and is either its recorded parent or shares its id. Without such a
  // span (the parent's record was not kept), attach to the root.
  for (size_t j = 1; j < nodes.size(); j++) {
    int best = -1;
    for (size_t i = 1; i < nodes.size(); i++) {
      const bool candidate = nodes[i].span_id == nodes[j].parent_span_id ||
                             nodes[i].span_id == nodes[j].span_id;
      if (i == j || !candidate || !Outranks(nodes[i], nodes[j]) ||
          !Contains(nodes[i], nodes[j])) {
        continue;
      }
      if (best < 0 || nodes[i].duration() < nodes[best].duration()) {
        best = static_cast<int>(i);
      }
    }
    nodes[j].parent = best < 0 ? 0 : best;
  }
  for (size_t j = 1; j < nodes.size(); j++) {
    for (int a = nodes[j].parent; a > 0 && !nodes[j].async;
         a = nodes[a].parent) {
      nodes[j].async = nodes[a].async;
    }
  }

  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      nodes.size());
  for (size_t j = 1; j < nodes.size(); j++) {
    if (nodes[j].async) continue;
    children[nodes[j].parent].emplace_back(nodes[j].start, nodes[j].end);
  }

  LayerTimes out;
  uint64_t total_self = 0;
  for (size_t j = 1; j < nodes.size(); j++) {
    const Node& node = nodes[j];
    if (node.async) continue;
    out.spans++;
    const uint64_t covered =
        CoveredLength(std::move(children[j]), node.start, node.end);
    const uint64_t self = node.duration() - std::min(covered, node.duration());
    out.self_us[static_cast<int>(node.layer)] += self;
    total_self += self;
  }
  out.residual_us =
      static_cast<int64_t>(latency_us) - static_cast<int64_t>(total_self);
  return out;
}

}  // namespace diffindex::perfbench
