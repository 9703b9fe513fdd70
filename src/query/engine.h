// Read-side query engine: paged, resumable index range scans that fan
// out across the index regions covering the key range (scatter-gather),
// with covered-index projections (query/covered.h) and batched
// read-repair for sync-insert (query/read_repair.h).
//
// This is the library's one index read path: DiffIndexClient's
// GetByIndex, RangeByIndex and their session variants run on the
// client's engine too (hits only, legs inline), and local indexes are
// the one exception (core/diff_index_client.cc). A page issues one
// kIndexScan leg per overlapping region, merges the legs in region order
// (regions partition the keyspace, so the merge is a concatenation), and
// exposes the result a page at a time behind a resumable cursor.
//
// Per-page retry: a leg that lands on a moved region fails fast with
// WrongRegion (legs are addressed by region id); the page runs under the
// client's one retry policy (Client::Retry, ClientOptions), which
// refreshes the layout and retries the whole page — reads are
// idempotent, so the page-granular retry is safe.
//
// Observability: counters query.pages / query.legs / query.covered /
// query.base_reads, one Table-2 index read (io.index_read) per page,
// span stages query.page and query.repair, and the fault seam
// DIFFINDEX_FAILPOINT("query.merge") between leg gather and merge.

#ifndef DIFFINDEX_QUERY_ENGINE_H_
#define DIFFINDEX_QUERY_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/diff_index_client.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace diffindex {

struct ScanSpec {
  std::string table;       // base table
  std::string index_name;  // global index over `table`
  // Encoded-value range [lo, hi); empty = open on that side (use the
  // index_codec Encode*IndexValue helpers for typed columns).
  std::string value_lo_encoded;
  std::string value_hi_encoded;
  // Result columns; empty = all columns of the base row. When covered by
  // the index (query/covered.h) and the scan allows it, rows materialize
  // from the index entries alone — zero base reads.
  std::vector<std::string> projection;
  // Total index entries scanned across all pages; 0 = unlimited. Counted
  // before read-repair drops stale entries.
  uint32_t limit = 0;
};

struct ScanOptions {
  uint32_t page_entries = 256;  // max index entries per page (min 1)
  // >1: legs of a page run on the engine's thread pool (whose size,
  // ReadEngineOptions::max_parallel_legs, is the actual cap). <=1: legs
  // run inline on the calling thread — required under the model checker,
  // whose scheduler cannot control pool threads.
  int max_parallel = 4;
  bool allow_covered = true;
  // Non-zero: merge this session's private entries into each page
  // (session consistency, Section 5.2). The merge can add entries beyond
  // page_entries/limit — a server-side limit would make the private-entry
  // merge ambiguous, so limits count scanned entries only.
  SessionId session = 0;
};

struct ScanPage {
  // Verified hits in index order (encoded value, then base row).
  std::vector<IndexHit> hits;
  // Materialized result rows. One per hit for covered pages; base rows
  // that vanished between index scan and fetch are skipped otherwise, so
  // rows.size() <= hits.size().
  std::vector<ScannedRow> rows;
  bool covered = false;  // rows came from the index alone
};

// Keeps only the cells whose column is in `projection`, preserving cell
// order; an empty projection keeps every cell. The one projection filter
// of the read side (ReadEngine rows and QueryEngine results).
void ProjectCells(const std::vector<std::string>& projection,
                  ScannedRow* row);

struct ReadEngineOptions {
  int max_parallel_legs = 4;  // scatter-gather thread-pool size
};

class ReadEngine;

// One logical cursor over one index range. Not thread-safe. Resumable:
// persist cursor() after any page and hand it to a fresh scanner's
// SeekTo — the scan continues exactly after the last returned entry,
// across scanner instances and layout changes.
class IndexScanner {
 public:
  // Next page of results; an empty page with exhausted()==true means the
  // range is done. Retries the page under Client::Retry; errors that
  // policy does not retry (including armed query.merge failpoints and
  // Corruption for an undecodable index row) and exhausted retries
  // surface to the caller, leaving the cursor at the failed page's start
  // so the same page can be retried.
  Status NextPage(ScanPage* page);

  // NextPage without row materialisation: the page's verified hits only
  // (gather, decode, sync-insert repair, session merge).
  Status NextHits(std::vector<IndexHit>* hits);

  bool exhausted() const { return exhausted_; }

  // Opaque resume token: the index-row key the next page starts from.
  const std::string& cursor() const { return cursor_; }
  // Restarts this scanner at `cursor` (a token from cursor()). Resets
  // exhaustion and the limit accounting.
  void SeekTo(const std::string& cursor);

 private:
  friend class ReadEngine;
  IndexScanner(ReadEngine* engine, const ScanSpec& spec,
               const ScanOptions& options, const IndexDescriptor& index);

  // The hits step shared by NextPage and NextHits, outside their
  // query.page span.
  Status CollectHits(std::vector<IndexHit>* hits);

  // One scatter-gather round: fans a leg out per index region overlapping
  // [cursor_, end_key_), merges in region order into `out` (at most
  // `budget` entries). truncated=false means the whole remaining range
  // was consumed.
  Status GatherOnce(uint32_t budget, std::vector<RawEntry>* out,
                    bool* truncated);

  ReadEngine* const engine_;
  const ScanSpec spec_;
  const ScanOptions options_;
  const IndexDescriptor index_;
  std::string cursor_;   // next index-row key (inclusive)
  std::string end_key_;  // exclusive; empty = unbounded
  bool exhausted_ = false;
  uint64_t returned_ = 0;  // scanned entries counted against spec_.limit
};

class ReadEngine {
 public:
  explicit ReadEngine(DiffIndexClient* client,
                      const ReadEngineOptions& options = ReadEngineOptions());
  ~ReadEngine();

  ReadEngine(const ReadEngine&) = delete;
  ReadEngine& operator=(const ReadEngine&) = delete;

  // Looks `index_name` on `table` up in the client's cached catalog.
  Status FindIndex(const std::string& table, const std::string& index_name,
                   IndexDescriptor* index);

  // Resolves the index and returns a scanner positioned at the range
  // start. Fails if the index does not exist or is local (local indexes
  // keep their broadcast path — their entries live inside base regions,
  // so region-addressed legs do not apply).
  Status NewScan(const ScanSpec& spec, const ScanOptions& options,
                 std::unique_ptr<IndexScanner>* scanner);

  // Convenience: drives a scan to completion, concatenating every page.
  // hits may be null.
  Status ScanByIndex(const ScanSpec& spec, const ScanOptions& options,
                     std::vector<ScannedRow>* rows,
                     std::vector<IndexHit>* hits = nullptr);

  // The base-row fetch behind every uncovered read: one GetRow per hit,
  // rows that vanished since the index read skipped, each row cut to
  // `projection` (empty = all columns). Appends to *rows.
  Status FetchRows(const std::string& table,
                   const std::vector<IndexHit>& hits,
                   const std::vector<std::string>& projection,
                   std::vector<ScannedRow>* rows);

 private:
  friend class IndexScanner;

  // Lazily created scatter-gather pool: scans with max_parallel <= 1
  // never spawn threads (model-checker determinism).
  ThreadPool* pool() EXCLUDES(pool_mu_);

  DiffIndexClient* const client_;
  const ReadEngineOptions options_;

  Mutex pool_mu_;
  std::unique_ptr<ThreadPool> pool_ GUARDED_BY(pool_mu_);
};

}  // namespace diffindex

#endif  // DIFFINDEX_QUERY_ENGINE_H_
