#include "obs/trace.h"

#include <algorithm>
#include <sstream>

#include "util/coding.h"
#include "util/timestamp_oracle.h"

namespace diffindex {
namespace obs {

namespace {

thread_local TraceContext t_current;

uint64_t NextId() {
  // Process-unique, monotone, never 0. Seeded from the wall clock so ids
  // from successive processes over the same data don't collide. The
  // counter steps by 2 so forcing the low bit (never 0) keeps
  // consecutive ids distinct.
  static std::atomic<uint64_t> counter{TimestampOracle::NowMicros() << 16};
  return counter.fetch_add(2, std::memory_order_relaxed) | 1;
}

}  // namespace

TraceContext TraceContext::NewRoot(std::string op, std::string scheme) {
  TraceContext ctx;
  ctx.trace_id = NextId();
  ctx.span_id = NextId();
  ctx.op = std::move(op);
  ctx.scheme = std::move(scheme);
  return ctx;
}

TraceContext TraceContext::Child() const {
  TraceContext child = *this;
  child.parent_span_id = span_id;
  child.span_id = NextId();
  return child;
}

void TraceContext::EncodeTo(std::string* out) const {
  PutVarint64(out, trace_id);
  PutVarint64(out, span_id);
  PutVarint64(out, parent_span_id);
  PutLengthPrefixedSlice(out, op);
  PutLengthPrefixedSlice(out, scheme);
}

bool TraceContext::DecodeFrom(Slice* in, TraceContext* ctx) {
  return GetVarint64(in, &ctx->trace_id) && GetVarint64(in, &ctx->span_id) &&
         GetVarint64(in, &ctx->parent_span_id) &&
         GetLengthPrefixedString(in, &ctx->op) &&
         GetLengthPrefixedString(in, &ctx->scheme);
}

const TraceContext& CurrentTraceContext() { return t_current; }

ScopedTraceContext::ScopedTraceContext(TraceContext ctx)
    : saved_(std::move(t_current)) {
  t_current = std::move(ctx);
}

ScopedTraceContext::~ScopedTraceContext() { t_current = std::move(saved_); }

void TraceCollector::Record(SpanRecord span) {
  MutexLock lock(mu_);
  spans_.push_back(std::move(span));
  while (spans_.size() > capacity_) spans_.pop_front();
}

std::vector<SpanRecord> TraceCollector::Trace(uint64_t trace_id) const {
  std::vector<SpanRecord> result;
  {
    MutexLock lock(mu_);
    for (const SpanRecord& span : spans_) {
      if (span.trace_id == trace_id) result.push_back(span);
    }
  }
  std::sort(result.begin(), result.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_micros < b.start_micros;
            });
  return result;
}

std::vector<SpanRecord> TraceCollector::AllSpans() const {
  MutexLock lock(mu_);
  return std::vector<SpanRecord>(spans_.begin(), spans_.end());
}

size_t TraceCollector::size() const {
  MutexLock lock(mu_);
  return spans_.size();
}

void TraceCollector::Clear() {
  MutexLock lock(mu_);
  spans_.clear();
}

std::string TraceCollector::Dump(uint64_t trace_id) const {
  const std::vector<SpanRecord> spans = Trace(trace_id);
  std::ostringstream oss;
  oss << "trace " << trace_id << " (" << spans.size() << " spans)\n";
  for (const SpanRecord& span : spans) {
    // Indent children one level under their parent (flat heuristic: a
    // span with a parent in this trace indents once per ancestor found).
    int depth = 0;
    uint64_t parent = span.parent_span_id;
    while (parent != 0) {
      depth++;
      uint64_t next = 0;
      for (const SpanRecord& candidate : spans) {
        if (candidate.span_id == parent) {
          next = candidate.parent_span_id;
          break;
        }
      }
      if (next == parent) break;
      parent = next;
      if (depth > 16) break;  // defensive: malformed parent chain
    }
    for (int i = 0; i < depth; i++) oss << "  ";
    oss << span.name;
    if (!span.scheme.empty()) oss << " [" << span.scheme << "]";
    oss << " " << span.duration_micros << "us (span " << span.span_id
        << ")\n";
  }
  return oss.str();
}

SpanTimer::SpanTimer(MetricsRegistry* metrics, TraceCollector* collector,
                     std::string name)
    : metrics_(metrics),
      collector_(collector),
      name_(std::move(name)),
      ctx_(CurrentTraceContext()),
      start_(std::chrono::steady_clock::now()),
      start_wall_micros_(TimestampOracle::NowMicros()) {}

uint64_t SpanTimer::ElapsedMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

SpanTimer::~SpanTimer() {
  const uint64_t elapsed = ElapsedMicros();
  if (metrics_ != nullptr) {
    std::string metric = "span." + name_;
    if (!ctx_.scheme.empty()) metric += "." + ctx_.scheme;
    metrics_->GetHistogram(metric)->Add(elapsed);
  }
  if (collector_ != nullptr && ctx_.active()) {
    SpanRecord record;
    record.trace_id = ctx_.trace_id;
    record.span_id = ctx_.span_id;
    record.parent_span_id = ctx_.parent_span_id;
    record.name = name_;
    record.scheme = ctx_.scheme;
    record.start_micros = start_wall_micros_;
    record.duration_micros = elapsed;
    collector_->Record(std::move(record));
  }
}

}  // namespace obs
}  // namespace diffindex
