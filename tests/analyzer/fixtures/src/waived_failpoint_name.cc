// An undocumented failpoint, waived with a rationale.

class ScratchPoints {
 public:
  Status Apply() {
    // ANALYZER_WAIVE(failpoint-names): fixture-only point kept out of
    // the catalog to prove the waiver grammar for this rule.
    DIFFINDEX_FAILPOINT("fixture.name.waived");
    return Status::OK();
  }
};
