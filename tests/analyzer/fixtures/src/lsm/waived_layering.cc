// An upward include from lsm/, waived with a rationale.

// ANALYZER_WAIVE(lsm-layering): fixture-only upward include kept to
// prove the waiver grammar for this rule.
#include "core/observers.h"

void FixtureWaivedLayering() {}
