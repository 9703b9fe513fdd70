// Seeded failpoint-names violation: the first consult is documented in
// the corpus DESIGN.md failpoint catalog, the second is not. Both are
// armed in tests/armed_fixture_test.cc, so failpoint-reachability stays
// quiet and only the missing catalog row fires.

class NamedPoints {
 public:
  Status Apply() {
    DIFFINDEX_FAILPOINT("fixture.name.documented");
    DIFFINDEX_FAILPOINT("fixture.name.undocumented");  // violation
    return Status::OK();
  }
};
