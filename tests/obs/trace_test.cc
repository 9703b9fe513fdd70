// Request tracing tests: context identity and encode/decode, the ambient
// thread-local scope, SpanTimer recording, the TraceCollector ring — and
// the property the subsystem exists for: a context installed on the client
// side survives the Fabric's wire framing, so spans opened inside an RPC
// handler (and further down, in the APS worker) chain to the caller's
// trace. The final tests follow one DiffIndexClient::Put end-to-end
// through a live cluster.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "cluster/cluster.h"
#include "net/fabric.h"

namespace diffindex {
namespace obs {
namespace {

TEST(TraceContextTest, RootAndChildIdentity) {
  TraceContext root = TraceContext::NewRoot("put", "sync-full");
  EXPECT_TRUE(root.active());
  EXPECT_NE(root.trace_id, 0u);
  EXPECT_NE(root.span_id, 0u);
  EXPECT_EQ(root.parent_span_id, 0u);

  TraceContext child = root.Child();
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_EQ(child.parent_span_id, root.span_id);
  EXPECT_NE(child.span_id, root.span_id);
  EXPECT_EQ(child.op, "put");
  EXPECT_EQ(child.scheme, "sync-full");

  TraceContext other = TraceContext::NewRoot("get", "");
  EXPECT_NE(other.trace_id, root.trace_id);

  TraceContext inactive;
  EXPECT_FALSE(inactive.active());
}

TEST(TraceContextTest, SuccessiveIdsArePairwiseDistinct) {
  std::set<uint64_t> ids;
  for (int i = 0; i < 1000; i++) {
    TraceContext root = TraceContext::NewRoot("put", "");
    TraceContext child = root.Child();
    for (uint64_t id : {root.trace_id, root.span_id, child.span_id}) {
      EXPECT_NE(id, 0u);
      ids.insert(id);
    }
  }
  EXPECT_EQ(ids.size(), 3000u);
}

TEST(TraceContextTest, EncodeDecodeRoundTrip) {
  TraceContext ctx = TraceContext::NewRoot("get_by_index", "async-simple");
  ctx.parent_span_id = 99;
  std::string wire;
  ctx.EncodeTo(&wire);

  Slice in(wire);
  TraceContext decoded;
  ASSERT_TRUE(TraceContext::DecodeFrom(&in, &decoded));
  EXPECT_TRUE(in.empty());  // consumed exactly its own bytes
  EXPECT_EQ(decoded.trace_id, ctx.trace_id);
  EXPECT_EQ(decoded.span_id, ctx.span_id);
  EXPECT_EQ(decoded.parent_span_id, 99u);
  EXPECT_EQ(decoded.op, "get_by_index");
  EXPECT_EQ(decoded.scheme, "async-simple");

  // Inactive contexts round-trip too (the not-traced wire frame).
  std::string empty_wire;
  TraceContext().EncodeTo(&empty_wire);
  Slice empty_in(empty_wire);
  TraceContext empty_decoded;
  ASSERT_TRUE(TraceContext::DecodeFrom(&empty_in, &empty_decoded));
  EXPECT_FALSE(empty_decoded.active());

  // A context prefix followed by a message body: decode stops at the
  // boundary and leaves the body untouched.
  std::string framed;
  ctx.EncodeTo(&framed);
  framed += "message-body";
  Slice framed_in(framed);
  TraceContext framed_decoded;
  ASSERT_TRUE(TraceContext::DecodeFrom(&framed_in, &framed_decoded));
  EXPECT_EQ(framed_in.ToString(), "message-body");
}

TEST(TraceContextTest, DecodeRejectsTruncatedInput) {
  TraceContext ctx = TraceContext::NewRoot("put", "sync-insert");
  std::string wire;
  ctx.EncodeTo(&wire);
  for (size_t cut = 0; cut < wire.size(); cut++) {
    std::string truncated = wire.substr(0, cut);
    Slice in(truncated);
    TraceContext decoded;
    EXPECT_FALSE(TraceContext::DecodeFrom(&in, &decoded))
        << "decoded from " << cut << "/" << wire.size() << " bytes";
  }
}

TEST(TraceContextTest, ScopedContextInstallsAndRestores) {
  EXPECT_FALSE(CurrentTraceContext().active());
  TraceContext root = TraceContext::NewRoot("put", "");
  {
    ScopedTraceContext outer(root);
    EXPECT_EQ(CurrentTraceContext().trace_id, root.trace_id);
    {
      ScopedTraceContext inner(root.Child());
      EXPECT_EQ(CurrentTraceContext().trace_id, root.trace_id);
      EXPECT_EQ(CurrentTraceContext().parent_span_id, root.span_id);
    }
    EXPECT_EQ(CurrentTraceContext().span_id, root.span_id);  // restored
  }
  EXPECT_FALSE(CurrentTraceContext().active());

  // The ambient context is per-thread, not global.
  ScopedTraceContext here(TraceContext::NewRoot("put", ""));
  std::thread other(
      [] { EXPECT_FALSE(CurrentTraceContext().active()); });
  other.join();
}

TEST(SpanTimerTest, RecordsHistogramAndCollectorSpan) {
  MetricsRegistry metrics;
  TraceCollector collector;
  TraceContext root = TraceContext::NewRoot("put", "async-simple");
  {
    ScopedTraceContext scope(root);
    SpanTimer span(&metrics, &collector, "client.put");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_GE(span.ElapsedMicros(), 1000u);
  }
  // Scheme-tagged histogram, one sample of the measured duration.
  Histogram* h = metrics.GetHistogram("span.client.put.async-simple");
  EXPECT_EQ(h->Count(), 1u);
  EXPECT_GE(h->Min(), 1000u);

  ASSERT_EQ(collector.size(), 1u);
  const SpanRecord span = collector.AllSpans()[0];
  EXPECT_EQ(span.trace_id, root.trace_id);
  EXPECT_EQ(span.span_id, root.span_id);
  EXPECT_EQ(span.name, "client.put");
  EXPECT_EQ(span.scheme, "async-simple");
  EXPECT_GE(span.duration_micros, 1000u);
}

TEST(SpanTimerTest, NoAmbientContextStillFeedsMetricsButNotCollector) {
  MetricsRegistry metrics;
  TraceCollector collector;
  { SpanTimer span(&metrics, &collector, "rs.put"); }
  EXPECT_EQ(metrics.GetHistogram("span.rs.put")->Count(), 1u);
  EXPECT_EQ(collector.size(), 0u);  // untraced work leaves no span
  // Null sinks are tolerated everywhere (the "observability off" mode).
  { SpanTimer span(nullptr, nullptr, "rs.put"); }
}

TEST(TraceCollectorTest, BoundedRingKeepsNewestAndFiltersByTrace) {
  TraceCollector collector(/*capacity=*/4);
  TraceContext a = TraceContext::NewRoot("put", "");
  TraceContext b = TraceContext::NewRoot("get", "");
  for (uint64_t i = 0; i < 6; i++) {
    SpanRecord span;
    span.trace_id = i < 3 ? a.trace_id : b.trace_id;
    span.span_id = 100 + i;
    span.start_micros = 1000 + i;
    span.name = "s" + std::to_string(i);
    collector.Record(span);
  }
  EXPECT_EQ(collector.size(), 4u);  // two oldest evicted
  EXPECT_EQ(collector.Trace(a.trace_id).size(), 1u);  // only span 2 left
  const auto b_spans = collector.Trace(b.trace_id);
  ASSERT_EQ(b_spans.size(), 3u);
  EXPECT_LT(b_spans[0].start_micros, b_spans[2].start_micros);  // ordered
  collector.Clear();
  EXPECT_EQ(collector.size(), 0u);
}

// The wire-framing property, in isolation: a handler on the far side of a
// Fabric::Call sees the caller's trace (as a child context decoded from
// the frame bytes), and the RPC itself is measured.
TEST(FabricTraceTest, ContextSurvivesWireFraming) {
  Fabric fabric(/*latency=*/nullptr);
  MetricsRegistry metrics;
  TraceCollector collector;
  fabric.SetObservers(&metrics, &collector);

  TraceContext seen;
  std::string seen_body;
  fabric.RegisterNode(1, [&](MsgType, Slice body, std::string* response) {
    seen = CurrentTraceContext();
    seen_body = body.ToString();
    *response = "pong";
    return Status::OK();
  });

  TraceContext root = TraceContext::NewRoot("put", "sync-full");
  std::string response;
  {
    ScopedTraceContext scope(root);
    ASSERT_TRUE(
        fabric.Call(kClientNodeBase, 1, MsgType::kPut, "ping", &response)
            .ok());
  }
  EXPECT_EQ(response, "pong");
  EXPECT_EQ(seen_body, "ping");  // framing added nothing to the body
  // The handler ran under a child of the caller's context.
  EXPECT_EQ(seen.trace_id, root.trace_id);
  EXPECT_EQ(seen.parent_span_id, root.span_id);
  EXPECT_NE(seen.span_id, root.span_id);
  EXPECT_EQ(seen.op, "put");
  EXPECT_EQ(seen.scheme, "sync-full");

  EXPECT_EQ(metrics.GetCounter("rpc.put.calls")->value(), 1u);
  EXPECT_EQ(metrics.GetHistogram("span.rpc.put.sync-full")->Count(), 1u);
  const auto spans = collector.Trace(root.trace_id);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "rpc.put");

  // Untraced calls stay untraced: no ambient context, no span record.
  ASSERT_TRUE(
      fabric.Call(kClientNodeBase, 1, MsgType::kPut, "ping", &response)
          .ok());
  EXPECT_FALSE(seen.active());
  EXPECT_EQ(collector.size(), 1u);
}

// End-to-end: one client Put through a real cluster produces a single
// trace whose spans cover the client API call, the RPC hop and the
// region-server execution — and under an async scheme, the APS task.
class ClusterTraceTest : public ::testing::Test {
 protected:
  void MakeCluster(IndexScheme scheme) {
    ClusterOptions options;
    options.num_servers = 2;
    options.regions_per_table = 2;
    ASSERT_TRUE(Cluster::Create(options, &cluster_).ok());
    IndexDescriptor index;
    index.name = "by_color";
    index.column = "color";
    index.scheme = scheme;
    ASSERT_TRUE(cluster_->master()->CreateTable("t").ok());
    ASSERT_TRUE(cluster_->master()->CreateIndex("t", index).ok());
    client_ = cluster_->NewDiffIndexClient();
  }

  void WaitQueuesDrained() {
    for (int i = 0; i < 5000; i++) {
      bool idle = true;
      for (NodeId id : cluster_->server_ids()) {
        if (cluster_->index_manager(id)->QueueDepth() > 0) idle = false;
      }
      if (idle) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "APS queues never drained";
  }

  // The trace id of the only client.put span in the collector.
  uint64_t PutTraceId() {
    uint64_t trace_id = 0;
    for (const SpanRecord& span : cluster_->traces()->AllSpans()) {
      if (span.name == "client.put") {
        EXPECT_EQ(trace_id, 0u) << "more than one client.put span";
        trace_id = span.trace_id;
      }
    }
    EXPECT_NE(trace_id, 0u) << "no client.put span collected";
    return trace_id;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<DiffIndexClient> client_;
};

TEST_F(ClusterTraceTest, PutSpansShareOneTraceSyncFull) {
  MakeCluster(IndexScheme::kSyncFull);
  cluster_->traces()->Clear();  // drop table/index-creation noise
  ASSERT_TRUE(
      client_->Put("t", "row1", {Cell{"color", "blue", false}}).ok());

  const uint64_t trace_id = PutTraceId();
  std::set<std::string> names;
  for (const SpanRecord& span : cluster_->traces()->Trace(trace_id)) {
    names.insert(span.name);
    EXPECT_EQ(span.scheme, "sync-full") << span.name;
  }
  // One trace covers the whole write path: client API -> RPC hop ->
  // region-server execution -> synchronous index maintenance.
  for (const char* expected :
       {"client.put", "rpc.put", "rs.put", "rs.index_sync"}) {
    EXPECT_TRUE(names.count(expected)) << expected << " not in trace";
  }
  // Nothing else in the collector borrowed this trace's ids.
  for (const SpanRecord& span : cluster_->traces()->AllSpans()) {
    if (span.trace_id != trace_id) {
      EXPECT_NE(span.name, "client.put");
    }
  }
}

TEST_F(ClusterTraceTest, AsyncPutTraceExtendsIntoApsWorker) {
  MakeCluster(IndexScheme::kAsyncSimple);
  cluster_->traces()->Clear();
  ASSERT_TRUE(
      client_->Put("t", "row1", {Cell{"color", "blue", false}}).ok());
  WaitQueuesDrained();

  const uint64_t trace_id = PutTraceId();
  std::set<std::string> names;
  for (const SpanRecord& span : cluster_->traces()->Trace(trace_id)) {
    names.insert(span.name);
  }
  // The handoff through the AUQ preserved the trace: the background APS
  // task is part of the same trace as the foreground put.
  for (const char* expected : {"client.put", "rpc.put", "rs.put", "aps.task"}) {
    EXPECT_TRUE(names.count(expected)) << expected << " not in trace";
  }
  EXPECT_FALSE(names.count("rs.index_sync"));  // async: no foreground fixup
  EXPECT_NE(cluster_->traces()->Dump(trace_id).find("aps.task"),
            std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace diffindex
