// The fixture corpus's "test tree": arming a failpoint by literal name
// here is what makes it reachable for failpoint-reachability. Every
// consult is covered except "fixture.apply.never_armed" —
// bad_failpoint.cc's second consult must still fire.

void ArmFixtureFailpoints() {
  FailpointRegistry::Global()->Arm("fixture.apply.armed",
                                   FailpointPolicy::ErrorOnce());
  FailpointRegistry::Global()->Arm("fixture.crash_window.cut",
                                   FailpointPolicy::ErrorOnce());
  for (const char* name : {"fixture.name.documented",
                           "fixture.name.undocumented",
                           "fixture.name.waived"}) {
    FailpointRegistry::Global()->Arm(name, FailpointPolicy::ErrorOnce());
  }
}
