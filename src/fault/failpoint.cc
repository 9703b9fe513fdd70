#include "fault/failpoint.h"

#include "obs/metrics.h"
#include "util/logging.h"

namespace diffindex {
namespace fault {

FailpointPolicy FailpointPolicy::ErrorOnce(Status error) {
  FailpointPolicy p;
  p.mode = Mode::kErrorOnce;
  p.error = std::move(error);
  return p;
}

FailpointPolicy FailpointPolicy::ErrorEveryNth(uint64_t nth, Status error) {
  FailpointPolicy p;
  p.mode = Mode::kErrorEveryNth;
  p.nth = nth == 0 ? 1 : nth;
  p.error = std::move(error);
  return p;
}

FailpointPolicy FailpointPolicy::WithProbability(double prob, uint64_t seed,
                                                 Status error) {
  FailpointPolicy p;
  p.mode = Mode::kProbability;
  p.probability = prob;
  p.seed = seed;
  p.error = std::move(error);
  return p;
}

FailpointPolicy FailpointPolicy::Crash(double prob, uint64_t seed) {
  FailpointPolicy p;
  p.mode = Mode::kCrash;
  p.probability = prob;
  p.seed = seed;
  p.error = Status::Unavailable("injected crash");
  return p;
}

FailpointRegistry* FailpointRegistry::Global() {
  // ANALYZER_WAIVE(naked-new): leaked singleton, never destroyed
  static FailpointRegistry* registry = new FailpointRegistry();
  return registry;
}

void FailpointRegistry::Arm(const std::string& name, FailpointPolicy policy) {
  MutexLock lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) {
    if (policy.mode == FailpointPolicy::Mode::kOff) return;
    Point point;
    point.rng = Random(policy.seed);
    point.policy = std::move(policy);
    points_.emplace(name, std::move(point));
    armed_count_.fetch_add(1, std::memory_order_release);
    return;
  }
  if (policy.mode == FailpointPolicy::Mode::kOff) {
    points_.erase(it);
    armed_count_.fetch_sub(1, std::memory_order_release);
    return;
  }
  it->second.rng = Random(policy.seed);
  it->second.policy = std::move(policy);
  it->second.hits = 0;
  it->second.fires = 0;
}

void FailpointRegistry::Disarm(const std::string& name) {
  MutexLock lock(mu_);
  if (points_.erase(name) > 0) {
    armed_count_.fetch_sub(1, std::memory_order_release);
  }
}

void FailpointRegistry::DisarmAll() {
  MutexLock lock(mu_);
  armed_count_.fetch_sub(static_cast<int>(points_.size()),
                         std::memory_order_release);
  points_.clear();
}

bool FailpointRegistry::IsArmed(const std::string& name) const {
  MutexLock lock(mu_);
  return points_.find(name) != points_.end();
}

Status FailpointRegistry::MaybeFail(const std::string& name) {
  if (armed_count_.load(std::memory_order_acquire) == 0) return Status::OK();
  Status error;
  bool crash = false;
  CrashHandler handler;
  obs::Counter* counter = nullptr;
  {
    MutexLock lock(mu_);
    auto it = points_.find(name);
    if (it == points_.end()) return Status::OK();
    Point& point = it->second;
    point.hits++;
    bool fires = false;
    switch (point.policy.mode) {
      case FailpointPolicy::Mode::kOff:
        break;
      case FailpointPolicy::Mode::kErrorOnce:
        fires = point.fires == 0;
        break;
      case FailpointPolicy::Mode::kErrorEveryNth:
        fires = point.hits % point.policy.nth == 0;
        break;
      case FailpointPolicy::Mode::kProbability:
      case FailpointPolicy::Mode::kCrash:
        fires = point.rng.NextDouble() < point.policy.probability;
        break;
    }
    if (!fires) return Status::OK();
    point.fires++;
    error = point.policy.error;
    crash = point.policy.mode == FailpointPolicy::Mode::kCrash;
    if (crash) handler = crash_handler_;
    if (metrics_ != nullptr) {
      counter = metrics_->GetCounter("fault.injected." + name);
    }
  }
  // Run side effects outside mu_ so a crash handler (or metrics hook) can
  // consult the registry without self-deadlocking.
  if (counter != nullptr) counter->Add(1);
  if (crash && handler) handler(name);
  return error;
}

bool FailpointRegistry::Fires(const std::string& name) {
  return !MaybeFail(name).ok();
}

uint64_t FailpointRegistry::hits(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.hits;
}

uint64_t FailpointRegistry::fires(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.fires;
}

void FailpointRegistry::SetMetrics(obs::MetricsRegistry* metrics) {
  MutexLock lock(mu_);
  metrics_ = metrics;
}

obs::MetricsRegistry* FailpointRegistry::metrics() const {
  MutexLock lock(mu_);
  return metrics_;
}

void FailpointRegistry::SetCrashHandler(CrashHandler handler) {
  MutexLock lock(mu_);
  crash_handler_ = std::move(handler);
}

ScopedFailpointCleanup::~ScopedFailpointCleanup() {
  FailpointRegistry* registry = FailpointRegistry::Global();
  registry->DisarmAll();
  registry->SetMetrics(nullptr);
  registry->SetCrashHandler(nullptr);
}

}  // namespace fault
}  // namespace diffindex
