// A naked new, waived with a rationale (the private-constructor factory
// shape the tree uses).

class Sealed {
 public:
  static std::unique_ptr<Sealed> Make() {
    // ANALYZER_WAIVE(naked-new): private ctor, owned by a smart pointer
    return std::unique_ptr<Sealed>(new Sealed());
  }

 private:
  Sealed() = default;
};
