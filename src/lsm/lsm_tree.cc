#include "lsm/lsm_tree.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "fault/failpoint.h"
#include "lsm/merging_iterator.h"
#include "util/logging.h"

namespace diffindex {

namespace {

constexpr char kManifestName[] = "TABLES";
constexpr char kManifestTmpName[] = "TABLES.tmp";

bool HasSstSuffix(const std::string& name) {
  constexpr std::string_view kSuffix = ".sst";
  return name.size() > kSuffix.size() &&
         name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                      kSuffix) == 0;
}

}  // namespace

LsmTree::LsmTree(const LsmOptions& options, std::string dir)
    : options_(options), dir_(std::move(dir)) {}

std::string LsmTree::SstPath(uint64_t file_number) const {
  char buf[32];
  snprintf(buf, sizeof(buf), "%08llu.sst",
           static_cast<unsigned long long>(file_number));
  return dir_ + "/" + buf;
}

Status LsmTree::Open(const LsmOptions& options, const std::string& dir,
                     std::unique_ptr<LsmTree>* tree) {
  DIFFINDEX_RETURN_NOT_OK(options.env->CreateDirIfMissing(dir));
  // ANALYZER_WAIVE(naked-new): private ctor, owned by a smart pointer
  std::unique_ptr<LsmTree> t(new LsmTree(options, dir));
  t->mem_ = std::make_shared<MemTable>();
  DIFFINDEX_RETURN_NOT_OK(t->RecoverManifest());
  *tree = std::move(t);
  return Status::OK();
}

Status LsmTree::RecoverManifest() {
  Env* env = options_.env;
  const std::string manifest_path = dir_ + "/" + kManifestName;

  std::vector<uint64_t> live_files;
  if (env->FileExists(manifest_path)) {
    std::unique_ptr<SequentialFile> file;
    DIFFINDEX_RETURN_NOT_OK(env->NewSequentialFile(manifest_path, &file));
    std::string content;
    char buf[4096];
    for (;;) {
      Slice chunk;
      DIFFINDEX_RETURN_NOT_OK(file->Read(sizeof(buf), &chunk, buf));
      if (chunk.empty()) break;
      content.append(chunk.data(), chunk.size());
    }
    std::istringstream in(content);
    std::string token;
    while (in >> token) {
      if (token == "flushed_ts") {
        Timestamp ts;
        if (!(in >> ts)) return Status::Corruption("manifest: flushed_ts");
        flushed_ts_.store(ts, std::memory_order_release);
      } else if (token == "applied_seq") {
        uint64_t seq;
        if (!(in >> seq)) return Status::Corruption("manifest: applied_seq");
        durable_seq_.store(seq, std::memory_order_release);
        applied_seq_.store(seq, std::memory_order_release);
      } else if (token == "next_file") {
        if (!(in >> next_file_number_)) {
          return Status::Corruption("manifest: next_file");
        }
      } else if (token == "file") {
        uint64_t num;
        if (!(in >> num)) return Status::Corruption("manifest: file");
        live_files.push_back(num);
      } else {
        return Status::Corruption("manifest: unknown token " + token);
      }
    }
  }

  // Newest first (higher file numbers are younger: flushes and compaction
  // outputs always take fresh numbers).
  std::sort(live_files.rbegin(), live_files.rend());
  for (uint64_t num : live_files) {
    std::shared_ptr<SstReader> reader;
    DIFFINDEX_RETURN_NOT_OK(
        SstReader::Open(options_, SstPath(num), num, &reader));
    // Recovery runs before any reader thread exists, but tables_ is
    // GUARDED_BY(state_mu_) and the guard contract stays uniform.
    MutexLock lock(state_mu_);
    tables_.push_back(std::move(reader));
    next_file_number_ = std::max(next_file_number_, num + 1);
  }

  // Remove orphaned .sst files (e.g. a compaction output that was written
  // but never committed to the manifest before a crash).
  std::vector<std::string> children;
  DIFFINDEX_RETURN_NOT_OK(env->GetChildren(dir_, &children));
  for (const auto& name : children) {
    if (!HasSstSuffix(name)) continue;
    const uint64_t num = strtoull(name.c_str(), nullptr, 10);
    if (std::find(live_files.begin(), live_files.end(), num) ==
        live_files.end()) {
      DIFFINDEX_LOG_INFO << "lsm: removing orphan " << dir_ << "/" << name;
      // Best-effort: an orphan that survives is retried on the next open.
      env->RemoveFile(dir_ + "/" + name).IgnoreError();
    }
  }
  return Status::OK();
}

Status LsmTree::WriteManifest() {
  std::ostringstream out;
  out << "flushed_ts " << flushed_ts_.load(std::memory_order_acquire) << "\n";
  out << "applied_seq " << durable_seq_.load(std::memory_order_acquire)
      << "\n";
  out << "next_file " << next_file_number_ << "\n";
  {
    MutexLock lock(state_mu_);
    for (const auto& table : tables_) {
      out << "file " << table->meta().file_number << "\n";
    }
  }
  const std::string tmp_path = dir_ + "/" + kManifestTmpName;
  std::unique_ptr<WritableFile> file;
  DIFFINDEX_RETURN_NOT_OK(options_.env->NewWritableFile(tmp_path, &file));
  DIFFINDEX_RETURN_NOT_OK(file->Append(out.str()));
  // ANALYZER_WAIVE(blocking-under-lock): flush/split hold the gate
  // exclusively to serialize exactly this durable manifest write — that
  // is the gate's job, not an accidental blocking call.
  DIFFINDEX_RETURN_NOT_OK(file->Sync());
  DIFFINDEX_RETURN_NOT_OK(file->Close());
  return options_.env->RenameFile(tmp_path, dir_ + "/" + kManifestName);
}

LsmTree::State LsmTree::CopyState() const {
  MutexLock lock(state_mu_);
  return State{mem_, imm_, tables_};
}

Status LsmTree::Put(const Slice& key, const Slice& value, Timestamp ts) {
  num_puts_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<MemTable> mem;
  {
    MutexLock lock(state_mu_);
    mem = mem_;
  }
  // ANALYZER_WAIVE(log-before-apply): LsmTree is WAL-agnostic by
  // contract — logging is the caller's job (LogAndApply appends before
  // calling Put), and the replay / local-index callers apply edits
  // that are intentionally not re-logged.
  mem->Add(key, ts, ValueType::kPut, value);
  return Status::OK();
}

Status LsmTree::Delete(const Slice& key, Timestamp ts) {
  num_puts_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<MemTable> mem;
  {
    MutexLock lock(state_mu_);
    mem = mem_;
  }
  // ANALYZER_WAIVE(log-before-apply): same caller-logs contract as Put.
  mem->Add(key, ts, ValueType::kTombstone, Slice());
  return Status::OK();
}

bool LsmTree::NeedsFlush() const {
  MutexLock lock(state_mu_);
  return mem_->DataBytes() >= options_.memtable_flush_bytes;
}

Status LsmTree::Flush() {
  const auto flush_start = std::chrono::steady_clock::now();
  std::shared_ptr<MemTable> imm;
  uint64_t seq_at_swap;
  {
    MutexLock lock(state_mu_);
    // The caller serializes Flush against Put/Delete, so every edit up to
    // applied_seq_ is in the memtable being swapped out.
    seq_at_swap = applied_seq_.load(std::memory_order_acquire);
    if (mem_->NumEntries() == 0) return Status::OK();
    imm_ = mem_;
    mem_ = std::make_shared<MemTable>();
    imm = imm_;
  }

  const uint64_t file_number = next_file_number_++;
  SstMeta meta;
  auto iter = imm->NewIterator();
  Status build_status =
      fault::FailpointRegistry::Global()->MaybeFail("lsm.flush");
  if (build_status.ok()) {
    build_status = BuildSstFromIterator(options_, SstPath(file_number),
                                        file_number, iter.get(), &meta);
  }
  if (!build_status.ok()) {
    // Put the memtable back so no data is lost; the caller may retry. The
    // caller serializes Flush against Put/Delete, so mem_ is still the empty
    // table installed at swap time and imm can slot straight back in. If a
    // write did race in, keep imm_ readable instead of merging.
    // Best-effort: the half-built store is not in the manifest, so a
    // failed delete just leaves an orphan for the next open to collect.
    options_.env->RemoveFile(SstPath(file_number)).IgnoreError();
    MutexLock lock(state_mu_);
    if (mem_->NumEntries() == 0) {
      mem_ = imm_;
      imm_.reset();
    }
    return build_status;
  }
  meta.file_number = file_number;

  std::shared_ptr<SstReader> reader;
  DIFFINDEX_RETURN_NOT_OK(
      SstReader::Open(options_, SstPath(file_number), file_number, &reader));

  Timestamp flushed = imm->MaxTimestamp();
  {
    MutexLock lock(state_mu_);
    tables_.insert(tables_.begin(), std::move(reader));
    imm_.reset();
  }
  Timestamp prev = flushed_ts_.load(std::memory_order_acquire);
  while (flushed > prev && !flushed_ts_.compare_exchange_weak(
                               prev, flushed, std::memory_order_acq_rel)) {
  }
  durable_seq_.store(seq_at_swap, std::memory_order_release);
  DIFFINDEX_RETURN_NOT_OK(WriteManifest());

  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("lsm.flush")->Add();
    const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - flush_start)
                            .count();
    options_.metrics->GetHistogram("lsm.flush_micros")
        ->Add(static_cast<uint64_t>(micros));
  }

  int num_tables;
  {
    MutexLock lock(state_mu_);
    num_tables = static_cast<int>(tables_.size());
  }
  if (num_tables >= options_.compaction_trigger) {
    return CompactAll();
  }
  return Status::OK();
}

Status LsmTree::CompactAll() {
  const auto compact_start = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<SstReader>> inputs;
  {
    MutexLock lock(state_mu_);
    inputs = tables_;
  }
  if (inputs.size() <= 1) return Status::OK();

  const uint64_t file_number = next_file_number_++;
  SstMeta meta;
  CompactionStats stats;
  // All disk stores participate and the memtable only holds newer
  // timestamps, so tombstones can be dropped (major compaction).
  DIFFINDEX_RETURN_NOT_OK(CompactTables(options_, inputs,
                                        SstPath(file_number), file_number,
                                        /*drop_tombstones=*/true, &meta,
                                        &stats));

  std::shared_ptr<SstReader> reader;
  DIFFINDEX_RETURN_NOT_OK(
      SstReader::Open(options_, SstPath(file_number), file_number, &reader));

  std::vector<std::shared_ptr<SstReader>> obsolete;
  {
    MutexLock lock(state_mu_);
    // Tables flushed while we compacted stay in front.
    std::vector<std::shared_ptr<SstReader>> remaining;
    for (const auto& t : tables_) {
      if (std::find(inputs.begin(), inputs.end(), t) == inputs.end()) {
        remaining.push_back(t);
      } else {
        obsolete.push_back(t);
      }
    }
    remaining.push_back(std::move(reader));
    tables_ = std::move(remaining);
  }
  DIFFINDEX_RETURN_NOT_OK(WriteManifest());
  for (const auto& t : obsolete) {
    // Best-effort: inputs already left the manifest; a failed delete
    // leaves an orphan for the next open to collect.
    options_.env->RemoveFile(SstPath(t->meta().file_number)).IgnoreError();
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("lsm.compaction")->Add();
    options_.metrics->GetCounter("lsm.compaction.input_records")
        ->Add(stats.input_records);
    options_.metrics->GetCounter("lsm.compaction.output_records")
        ->Add(stats.output_records);
    options_.metrics->GetCounter("lsm.compaction.dropped_masked")
        ->Add(stats.dropped_masked);
    options_.metrics->GetCounter("lsm.compaction.dropped_versions")
        ->Add(stats.dropped_versions);
    options_.metrics->GetCounter("lsm.compaction.dropped_tombstones")
        ->Add(stats.dropped_tombstones);
    const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - compact_start)
                            .count();
    options_.metrics->GetHistogram("lsm.compaction_micros")
        ->Add(static_cast<uint64_t>(micros));
  }
  DIFFINDEX_LOG_DEBUG << "lsm: compacted " << inputs.size() << " stores, "
                      << stats.input_records << " -> "
                      << stats.output_records << " records in " << dir_;
  return Status::OK();
}

Status LsmTree::Get(const Slice& key, Timestamp read_ts, std::string* value,
                    Timestamp* version_ts) {
  num_gets_.fetch_add(1, std::memory_order_relaxed);
  const State state = CopyState();

  LookupResult best;

  auto consider = [&best](const LookupResult& candidate) {
    if (candidate.state == LookupState::kNotPresent) return;
    if (best.state == LookupState::kNotPresent || candidate.ts > best.ts) {
      best = candidate;
    }
  };

  // The memtable (and then imm) hold strictly newer timestamps than disk
  // stores, so for latest-reads a hit there is final; historical reads
  // must merge across every source because compaction mixes ages.
  consider(state.mem->Get(key, read_ts));
  const bool mem_decides =
      read_ts == kMaxTimestamp && best.state != LookupState::kNotPresent;
  if (!mem_decides) {
    bool imm_decides = false;
    if (state.imm != nullptr) {
      consider(state.imm->Get(key, read_ts));
      imm_decides =
          read_ts == kMaxTimestamp && best.state != LookupState::kNotPresent;
    }
    if (!imm_decides) {
      for (const auto& table : state.tables) {
        consider(table->Get(key, read_ts));
      }
    }
  }

  if (best.state != LookupState::kFound) {
    return Status::NotFound();
  }
  *value = std::move(best.value);
  if (version_ts != nullptr) *version_ts = best.ts;
  return Status::OK();
}

std::unique_ptr<RecordIterator> LsmTree::NewInternalIterator(
    const State& state) {
  std::vector<std::unique_ptr<RecordIterator>> children;
  children.push_back(state.mem->NewIterator());
  if (state.imm != nullptr) children.push_back(state.imm->NewIterator());
  for (const auto& table : state.tables) {
    children.push_back(table->NewIterator());
  }
  return NewMergingIterator(std::move(children));
}

Status LsmTree::Scan(const Slice& start, const Slice& end, Timestamp read_ts,
                     size_t limit, std::vector<ScanEntry>* out) {
  out->clear();
  const State state = CopyState();
  auto iter = NewInternalIterator(state);

  const std::string seek_target =
      MakeInternalKey(start, kMaxTimestamp, ValueType::kTombstone);
  iter->Seek(seek_target);

  std::string current_key;
  bool have_current = false;
  bool decided_current = false;

  for (; iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(iter->key(), &parsed)) {
      return Status::Corruption("scan: malformed internal key");
    }
    if (!end.empty() && parsed.user_key.compare(end) >= 0) break;

    if (!have_current || parsed.user_key != Slice(current_key)) {
      current_key = parsed.user_key.ToString();
      have_current = true;
      decided_current = false;
    }
    if (decided_current) continue;           // older version of same key
    if (parsed.ts > read_ts) continue;       // not visible yet

    decided_current = true;  // newest visible version decides the key
    if (parsed.type == ValueType::kPut) {
      out->push_back(ScanEntry{current_key, iter->value().ToString(),
                               parsed.ts});
      if (limit != 0 && out->size() >= limit) break;
    }
    // Tombstone: key absent at read_ts; skip the rest of its versions.
  }
  return iter->status();
}

Status LsmTree::ExportRecords(const Slice& start, const Slice& end,
                              LsmTree* target) {
  const State state = CopyState();
  auto iter = NewInternalIterator(state);
  iter->Seek(MakeInternalKey(start, kMaxTimestamp, ValueType::kTombstone));
  Timestamp last_ts = 0;
  bool last_tombstone = false;
  std::string last_key;
  for (; iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(iter->key(), &parsed)) {
      return Status::Corruption("export: malformed internal key");
    }
    if (!end.empty() && parsed.user_key.compare(end) >= 0) break;
    const bool tomb = parsed.type == ValueType::kTombstone;
    // Collapse idempotent duplicates across sources.
    if (parsed.user_key == Slice(last_key) && parsed.ts == last_ts &&
        tomb == last_tombstone) {
      continue;
    }
    last_key = parsed.user_key.ToString();
    last_ts = parsed.ts;
    last_tombstone = tomb;
    if (tomb) {
      DIFFINDEX_RETURN_NOT_OK(target->Delete(parsed.user_key, parsed.ts));
    } else {
      DIFFINDEX_RETURN_NOT_OK(
          target->Put(parsed.user_key, iter->value(), parsed.ts));
    }
    if (target->NeedsFlush()) {
      DIFFINDEX_RETURN_NOT_OK(target->Flush());
    }
  }
  return iter->status();
}

Status LsmTree::GetVersions(const Slice& key, std::vector<Version>* out) {
  out->clear();
  const State state = CopyState();
  auto iter = NewInternalIterator(state);
  iter->Seek(MakeInternalKey(key, kMaxTimestamp, ValueType::kTombstone));
  Timestamp last_ts = 0;
  bool last_tombstone = false;
  bool first = true;
  for (; iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(iter->key(), &parsed)) {
      return Status::Corruption("versions: malformed internal key");
    }
    if (parsed.user_key != key) break;
    const bool tomb = parsed.type == ValueType::kTombstone;
    // Collapse idempotent duplicates across sources.
    if (!first && parsed.ts == last_ts && tomb == last_tombstone) continue;
    first = false;
    last_ts = parsed.ts;
    last_tombstone = tomb;
    out->push_back(Version{parsed.ts, tomb, iter->value().ToString()});
  }
  return iter->status();
}

size_t LsmTree::MemtableBytes() const {
  MutexLock lock(state_mu_);
  return mem_->ApproximateMemoryUsage();
}

uint64_t LsmTree::MemtableEntries() const {
  MutexLock lock(state_mu_);
  return mem_->NumEntries();
}

int LsmTree::NumDiskStores() const {
  MutexLock lock(state_mu_);
  return static_cast<int>(tables_.size());
}

}  // namespace diffindex
