// A shifted index-entry timestamp, waived with a rationale.

Status FixtureWaivedIndexTs(IndexManager* mgr, const IndexTask& task,
                            const std::string& new_row, bool fg,
                            std::vector<PutRequest>* ops) {
  // ANALYZER_WAIVE(index-ts): fixture-only shifted put kept to prove the
  // waiver grammar for this rule.
  return mgr->StagePutIndexEntry(task.index.index_table, new_row,
                                 task.ts + 1, fg, ops);
}
