// A miniature query layer standing in for the paper's Big SQL
// integration (Section 7): "Query Engine uses index metadata in query
// planning, and accesses indexes via the aforementioned getByIndex API in
// query execution."
//
// Queries are conjunctions of column predicates. The planner consults the
// catalog: an equality predicate on an indexed column plans as an index
// exact-match; range predicates on an indexed column plan as an index
// range scan; otherwise the query falls back to a full table scan.
// Predicates the chosen access path cannot answer are applied as residual
// filters on the fetched rows.

#ifndef DIFFINDEX_CORE_QUERY_H_
#define DIFFINDEX_CORE_QUERY_H_

#include <string>
#include <vector>

#include "core/diff_index_client.h"

namespace diffindex {

enum class PredicateOp { kEq, kLt, kLe, kGt, kGe };

// Values compare in encoded byte order — use the index_codec
// Encode*IndexValue helpers for typed columns, exactly as with the index
// APIs.
struct Predicate {
  std::string column;
  PredicateOp op = PredicateOp::kEq;
  std::string value_encoded;
};

struct Query {
  std::string table;
  std::vector<Predicate> predicates;  // conjunction
  // Columns to return; empty = all.
  std::vector<std::string> projection;
  uint32_t limit = 0;  // 0 = unlimited
};

enum class PlanKind { kIndexExact, kIndexRange, kFullScan };

struct QueryPlan {
  PlanKind kind = PlanKind::kFullScan;
  std::string index_name;       // for the index plans
  std::string exact_value;      // kIndexExact
  std::string range_start;      // kIndexRange, encoded values; "" = open
  std::string range_end;        // exclusive; "" = open
  std::vector<Predicate> residual;  // applied after the fetch
  std::string explanation;      // EXPLAIN-style one-liner
};

class QueryEngine {
 public:
  explicit QueryEngine(DiffIndexClient* client) : client_(client) {}

  // Chooses the access path from the catalog; pure planning, no I/O
  // beyond the cached layout.
  Status Plan(const Query& query, QueryPlan* plan);

  // Plan + execute + residual filter + projection.
  Status Execute(const Query& query, std::vector<ScannedRow>* rows);

  Status Explain(const Query& query, std::string* text);

 private:
  static bool RowMatches(const ScannedRow& row,
                         const std::vector<Predicate>& predicates);

  DiffIndexClient* const client_;
};

}  // namespace diffindex

#endif  // DIFFINDEX_CORE_QUERY_H_
