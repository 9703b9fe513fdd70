// Seeded index-ts violation: StagePutIndexEntry called with a shifted
// timestamp, breaking the section 4.3 ordering rule (index entries live
// at the base edit's ts; only old-entry deletes shift down by kDelta).

Status FixtureBadIndexTsPut(IndexManager* mgr, const IndexTask& task,
                            const std::string& new_row, bool fg,
                            std::vector<PutRequest>* ops) {
  DIFFINDEX_RETURN_NOT_OK(mgr->StagePutIndexEntry(
      task.index.index_table, new_row, task.ts, fg, ops));
  return mgr->StagePutIndexEntry(task.index.index_table, new_row,
                                 task.ts - kDelta, fg, ops);  // violation
}
