// Seeded naked-new violation. Placement new (how an arena constructs
// nodes) is clean.

struct Widget {
  int x = 0;
};

Widget* FixtureNakedNew(char* mem) {
  Widget* placed = new (mem) Widget();  // placement new: clean
  (void)placed;
  return new Widget();  // violation
}
