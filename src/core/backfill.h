// Index lifecycle utilities (the "index creation, maintenance and
// cleanse" client utility of Section 7):
//
//   * Backfill — CREATE INDEX on a table that already holds data: scan
//     the base table and write one index entry per existing row, each
//     carrying its base cell's timestamp (the timestamp rule holds for
//     backfilled entries too).
//   * Cleanse — full-index sweep removing stale entries (the batch
//     version of sync-insert's lazy read-repair).

#ifndef DIFFINDEX_CORE_BACKFILL_H_
#define DIFFINDEX_CORE_BACKFILL_H_

#include <memory>
#include <string>

#include "cluster/client.h"
#include "core/op_stats.h"

namespace diffindex {

struct BackfillReport {
  uint64_t rows_scanned = 0;
  uint64_t entries_written = 0;
  uint64_t rows_skipped = 0;  // missing indexed column(s)
};

struct CleanseReport {
  uint64_t entries_scanned = 0;
  uint64_t stale_removed = 0;
};

// Read-only consistency audit of a global index against its base table.
struct VerifyReport {
  uint64_t entries_scanned = 0;   // index entries examined
  uint64_t stale_entries = 0;     // entry's value no longer matches base
  uint64_t rows_scanned = 0;      // base rows examined
  uint64_t missing_entries = 0;   // base row lacks its index entry

  bool consistent() const {
    return stale_entries == 0 && missing_entries == 0;
  }
};

class IndexBackfill {
 public:
  explicit IndexBackfill(std::shared_ptr<Client> client,
                         OpStats* stats = nullptr)
      : client_(std::move(client)), stats_(stats) {}

  Status Run(const std::string& base_table, const std::string& index_name,
             BackfillReport* report);

  Status Cleanse(const std::string& base_table, const std::string& index_name,
                 CleanseReport* report);

  // Dry-run audit: checks both directions (no stale entries, no missing
  // entries) without mutating anything. Meaningful on a quiescent system
  // — concurrent writers produce transient mismatches by design.
  Status Verify(const std::string& base_table, const std::string& index_name,
                VerifyReport* report);

 private:
  static constexpr uint32_t kScanBatch = 512;

  std::shared_ptr<Client> client_;
  OpStats* const stats_;
};

}  // namespace diffindex

#endif  // DIFFINDEX_CORE_BACKFILL_H_
