// The waiver form on an .IgnoreError(). A waiver comment directly above
// the statement is itself the adjacent rationale ignore-error asks for,
// so this file reports nothing and adds no waived finding.

Status Flush();

void FixtureWaivedIgnoreError() {
  // ANALYZER_WAIVE(ignore-error): a failed flush is retried by the next
  // sweep, so dropping this Status loses nothing.
  Flush().IgnoreError();
}
