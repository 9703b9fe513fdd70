#include "fault/fault_env.h"

#include <atomic>

#include "obs/metrics.h"

namespace diffindex {
namespace fault {

namespace {

bool Matches(const FaultEnv::Rule& rule, const std::string& path) {
  return rule.path_substring.empty() ||
         path.find(rule.path_substring) != std::string::npos;
}

}  // namespace

class FaultWritableFile final : public WritableFile {
 public:
  FaultWritableFile(FaultEnv* env, std::string path,
                    std::unique_ptr<WritableFile> base)
      : env_(env), path_(std::move(path)), base_(std::move(base)) {}

  Status Append(const Slice& data) override {
    FaultEnv::WriteDecision d = env_->DecideWrite(path_, written_, data.size());
    if (!d.fail) {
      Status s = base_->Append(data);
      if (s.ok()) written_ += data.size();
      return s;
    }
    if (d.allowed > 0) {
      // Torn write: the prefix reaches the file, the rest never does.
      Status s = base_->Append(Slice(data.data(), d.allowed));
      if (s.ok()) written_ += d.allowed;
      // Best-effort: this append is already being failed by the injected
      // fault; a flush error here adds nothing the caller can act on.
      base_->Flush().IgnoreError();
    }
    return d.error;
  }

  Status Flush() override { return base_->Flush(); }

  Status Sync() override {
    Status s = env_->DecideSync(path_);
    if (!s.ok()) return s;
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  FaultEnv* const env_;
  const std::string path_;
  std::unique_ptr<WritableFile> base_;
  uint64_t written_ = 0;
};

class FaultRandomAccessFile final : public RandomAccessFile {
 public:
  FaultRandomAccessFile(FaultEnv* env, std::string path,
                        std::unique_ptr<RandomAccessFile> base)
      : env_(env), path_(std::move(path)), base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = env_->DecideRead(path_);
    if (!s.ok()) return s;
    return base_->Read(offset, n, result, scratch);
  }

  uint64_t Size() const override { return base_->Size(); }

 private:
  FaultEnv* const env_;
  const std::string path_;
  std::unique_ptr<RandomAccessFile> base_;
};

class FaultSequentialFile final : public SequentialFile {
 public:
  FaultSequentialFile(FaultEnv* env, std::string path,
                      std::unique_ptr<SequentialFile> base)
      : env_(env), path_(std::move(path)), base_(std::move(base)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status s = env_->DecideRead(path_);
    if (!s.ok()) return s;
    return base_->Read(n, result, scratch);
  }

  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  FaultEnv* const env_;
  const std::string path_;
  std::unique_ptr<SequentialFile> base_;
};

FaultEnv::FaultEnv(Env* base) : base_(base) {}

void FaultEnv::AddRule(const Rule& rule) {
  MutexLock lock(mu_);
  rules_.push_back(rule);
}

void FaultEnv::ClearRules() {
  MutexLock lock(mu_);
  rules_.clear();
}

void FaultEnv::SetSeed(uint64_t seed) {
  MutexLock lock(mu_);
  rng_ = Random(seed);
}

void FaultEnv::SetMetrics(obs::MetricsRegistry* metrics) {
  MutexLock lock(mu_);
  metrics_ = metrics;
}

uint64_t FaultEnv::injected() const {
  return injected_.load(std::memory_order_relaxed);
}

void FaultEnv::Count(const char* kind) {
  injected_.fetch_add(1, std::memory_order_relaxed);
  obs::Counter* counter = nullptr;
  {
    MutexLock lock(mu_);
    if (metrics_ != nullptr) {
      counter = metrics_->GetCounter(std::string("fault.env.") + kind);
    }
  }
  if (counter != nullptr) counter->Add(1);
}

FaultEnv::WriteDecision FaultEnv::DecideWrite(const std::string& path,
                                              uint64_t written,
                                              uint64_t size) {
  WriteDecision d;
  const char* kind = nullptr;
  {
    MutexLock lock(mu_);
    for (const Rule& rule : rules_) {
      if (!Matches(rule, path)) continue;
      switch (rule.kind) {
        case Rule::Kind::kAppendError:
          if (rng_.NextDouble() < rule.probability) {
            d.fail = true;
            d.error = Status::IOError("injected append error: " + path);
            kind = "append_error";
          }
          break;
        case Rule::Kind::kShortWrite:
          if (written + size > rule.byte_budget) {
            d.fail = true;
            d.allowed =
                written >= rule.byte_budget ? 0 : rule.byte_budget - written;
            d.error = Status::IOError("injected short write: " + path);
            kind = "short_write";
          }
          break;
        case Rule::Kind::kDiskFull:
          if (written + size > rule.byte_budget) {
            d.fail = true;
            d.error = Status::IOError("injected disk full: " + path);
            kind = "disk_full";
          }
          break;
        case Rule::Kind::kSyncError:
        case Rule::Kind::kReadError:
          break;
      }
      if (d.fail) break;
    }
  }
  if (d.fail) Count(kind);
  return d;
}

Status FaultEnv::DecideSync(const std::string& path) {
  bool fail = false;
  {
    MutexLock lock(mu_);
    for (const Rule& rule : rules_) {
      if (rule.kind != Rule::Kind::kSyncError || !Matches(rule, path)) continue;
      if (rng_.NextDouble() < rule.probability) {
        fail = true;
        break;
      }
    }
  }
  if (!fail) return Status::OK();
  Count("sync_error");
  return Status::IOError("injected sync error: " + path);
}

Status FaultEnv::DecideRead(const std::string& path) {
  bool fail = false;
  {
    MutexLock lock(mu_);
    for (const Rule& rule : rules_) {
      if (rule.kind != Rule::Kind::kReadError || !Matches(rule, path)) continue;
      if (rng_.NextDouble() < rule.probability) {
        fail = true;
        break;
      }
    }
  }
  if (!fail) return Status::OK();
  Count("read_error");
  return Status::IOError("injected read error: " + path);
}

Status FaultEnv::NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) {
  std::unique_ptr<WritableFile> base;
  Status s = base_->NewWritableFile(fname, &base);
  if (!s.ok()) return s;
  // ANALYZER_WAIVE(naked-new): private ctor, owned by a smart pointer
  result->reset(new FaultWritableFile(this, fname, std::move(base)));
  return Status::OK();
}

Status FaultEnv::NewRandomAccessFile(const std::string& fname,
                                     std::unique_ptr<RandomAccessFile>* result) {
  std::unique_ptr<RandomAccessFile> base;
  Status s = base_->NewRandomAccessFile(fname, &base);
  if (!s.ok()) return s;
  // ANALYZER_WAIVE(naked-new): private ctor, owned by a smart pointer
  result->reset(new FaultRandomAccessFile(this, fname, std::move(base)));
  return Status::OK();
}

Status FaultEnv::NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) {
  std::unique_ptr<SequentialFile> base;
  Status s = base_->NewSequentialFile(fname, &base);
  if (!s.ok()) return s;
  // ANALYZER_WAIVE(naked-new): private ctor, owned by a smart pointer
  result->reset(new FaultSequentialFile(this, fname, std::move(base)));
  return Status::OK();
}

bool FaultEnv::FileExists(const std::string& fname) {
  return base_->FileExists(fname);
}

Status FaultEnv::GetChildren(const std::string& dir,
                             std::vector<std::string>* result) {
  return base_->GetChildren(dir, result);
}

Status FaultEnv::RemoveFile(const std::string& fname) {
  return base_->RemoveFile(fname);
}

Status FaultEnv::CreateDirIfMissing(const std::string& dirname) {
  return base_->CreateDirIfMissing(dirname);
}

Status FaultEnv::RemoveDirRecursively(const std::string& dirname) {
  return base_->RemoveDirRecursively(dirname);
}

Status FaultEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  return base_->GetFileSize(fname, size);
}

Status FaultEnv::RenameFile(const std::string& src, const std::string& target) {
  return base_->RenameFile(src, target);
}

}  // namespace fault
}  // namespace diffindex
