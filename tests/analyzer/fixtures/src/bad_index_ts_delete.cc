// Seeded index-ts violation: StageDeleteIndexEntry called with the bare
// edit timestamp. Section 4.3 puts old-entry deletes at `ts - kDelta` so
// a delete never shadows the entry of a concurrent re-insert at that ts.

Status FixtureBadIndexTsDelete(IndexManager* mgr, const IndexTask& task,
                               const std::string& old_row, bool fg,
                               std::vector<PutRequest>* ops) {
  DIFFINDEX_RETURN_NOT_OK(mgr->StageDeleteIndexEntry(
      task.index.index_table, old_row, task.ts - kDelta, fg, ops));
  return mgr->StageDeleteIndexEntry(task.index.index_table, old_row,
                                    task.ts, fg, ops);  // violation
}
