#!/usr/bin/env python3
"""Proves every tools/analyzer rule still fires — and every waiver
still suppresses.

The fixture corpus under tests/analyzer/fixtures/ is a miniature repo
(its own src/, tests/, rank ladder, and DESIGN.md catalogs). For each
rule it holds seeded violations (bad_*.cc) and one waived twin
(waived_*.cc); the analyzer is run ONCE over the whole corpus with
--root pointed at it, so the whole-program rules (yield-coverage,
failpoint-reachability, the catalog rules) see the same src/-vs-tests/
split they see in the real tree. catalog-sync reports on DESIGN.md
rows; its bad and waived rows live there. Registered as the
`analyzer_fixtures` ctest.
"""

import argparse
import os
import re
import subprocess
import sys

# fixture file (relative to the corpus root) -> the rules it must trip.
# Waived twins and clean.cc must trip nothing; their suppressed findings
# are counted through the report's "waived" tally instead.
EXPECTATIONS = {
    os.path.join("src", "bad_lock_order.cc"): {"lock-order-global"},
    os.path.join("src", "bad_blocking.cc"): {"blocking-under-lock"},
    os.path.join("src", "bad_guarded_access.cc"): {"guarded-access"},
    os.path.join("src", "bad_yield_coverage.cc"): {"yield-coverage"},
    os.path.join("src", "bad_status_flow.cc"): {"status-flow"},
    os.path.join("src", "bad_failpoint.cc"): {"failpoint-reachability"},
    # A rationale-less waiver is itself reported AND suppresses nothing,
    # so the underlying status-flow finding must surface alongside it.
    os.path.join("src", "bad_waiver_rationale.cc"):
        {"waiver-rationale", "status-flow"},
    os.path.join("src", "bad_ack_order.cc"): {"ack-after-durable"},
    os.path.join("src", "bad_apply_order.cc"): {"log-before-apply"},
    os.path.join("src", "bad_rename_sync.cc"): {"rename-after-sync"},
    os.path.join("src", "bad_checkpoint_order.cc"): {"checkpoint-after-data"},
    os.path.join("src", "bad_crash_window.cc"): {"crash-window-failpoint"},
    os.path.join("src", "waived_lock_order.cc"): set(),
    os.path.join("src", "waived_blocking.cc"): set(),
    os.path.join("src", "waived_guarded_access.cc"): set(),
    os.path.join("src", "waived_yield_coverage.cc"): set(),
    os.path.join("src", "waived_status_flow.cc"): set(),
    os.path.join("src", "waived_failpoint.cc"): set(),
    os.path.join("src", "waived_ack_order.cc"): set(),
    os.path.join("src", "waived_apply_order.cc"): set(),
    os.path.join("src", "waived_rename_sync.cc"): set(),
    os.path.join("src", "waived_checkpoint_order.cc"): set(),
    os.path.join("src", "waived_crash_window.cc"): set(),
    os.path.join("src", "bad_failpoint_name.cc"): {"failpoint-names"},
    os.path.join("src", "bad_metric.cc"): {"metric-names"},
    os.path.join("src", "bad_span_stage.cc"): {"metric-names"},
    os.path.join("src", "bad_raw_mutex.cc"): {"raw-mutex"},
    os.path.join("src", "bad_naked_new.cc"): {"naked-new"},
    os.path.join("src", "bad_index_ts_put.cc"): {"index-ts"},
    os.path.join("src", "bad_index_ts_delete.cc"): {"index-ts"},
    os.path.join("src", "bad_ignore_error.cc"): {"ignore-error"},
    os.path.join("src", "bad_lock_cycle.cc"): {"lock-order"},
    os.path.join("src", "bad_nested_unannotated.cc"): {"lock-order"},
    os.path.join("src", "lsm", "bad_layering.cc"): {"lsm-layering"},
    "DESIGN.md": {"catalog-sync"},
    os.path.join("src", "waived_failpoint_name.cc"): set(),
    os.path.join("src", "waived_metric.cc"): set(),
    os.path.join("src", "waived_raw_mutex.cc"): set(),
    os.path.join("src", "waived_naked_new.cc"): set(),
    os.path.join("src", "waived_index_ts.cc"): set(),
    os.path.join("src", "waived_lock_nesting.cc"): set(),
    # A waiver comment above an .IgnoreError() is itself the rationale
    # the rule asks for: no finding, so nothing to count as waived.
    os.path.join("src", "waived_ignore_error.cc"): set(),
    os.path.join("src", "lsm", "waived_layering.cc"): set(),
    os.path.join("src", "clean.cc"): set(),
    os.path.join("src", "clean_invariants.cc"): set(),
    os.path.join("src", "util", "lock_order.h"): set(),
    os.path.join("tests", "armed_fixture_test.cc"): set(),
}

# One suppressed finding per waived twin: the waived_*.cc fixtures
# except waived_ignore_error.cc, plus DESIGN.md's waived catalog row.
EXPECTED_WAIVED = 19

FINDING_RE = re.compile(r"^(\S+?):(\d+): \[([a-z-]+)\]")
SUMMARY_RE = re.compile(
    r"^diffindex_analyzer: (\d+) finding\(s\), (\d+) waived")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True, help="repo root")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    corpus = os.path.join(root, "tests", "analyzer", "fixtures")
    analyzer = os.path.join(root, "tools", "analyzer")

    paths = []
    for dirpath, _, filenames in os.walk(corpus):
        for name in sorted(filenames):
            if name.endswith((".cc", ".h")):
                paths.append(os.path.join(dirpath, name))

    proc = subprocess.run(
        [sys.executable, analyzer, "--root", corpus] + paths,
        capture_output=True,
        text=True,
    )

    failures = []
    if proc.returncode != 1:
        failures.append(
            "expected exit 1 (seeded violations present), got %d:\n%s%s"
            % (proc.returncode, proc.stdout, proc.stderr))

    by_file = {}  # corpus-relative path -> set of rules reported
    waived = None
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            rel = os.path.normpath(m.group(1))
            by_file.setdefault(rel, set()).add(m.group(3))
        m = SUMMARY_RE.match(line)
        if m:
            waived = int(m.group(2))

    for rel, expected in sorted(EXPECTATIONS.items()):
        if not os.path.exists(os.path.join(corpus, rel)):
            failures.append("%s: fixture missing" % rel)
            continue
        got = by_file.pop(rel, set())
        if got != expected:
            failures.append(
                "%s: expected rules %s, got %s\n%s"
                % (rel, sorted(expected) or "none", sorted(got) or "none",
                   proc.stdout))
    for rel, got in sorted(by_file.items()):
        failures.append("%s: unexpected findings %s (no expectation entry)"
                        % (rel, sorted(got)))

    if waived is None:
        failures.append("no summary line in analyzer output:\n%s"
                        % proc.stdout)
    elif waived != EXPECTED_WAIVED:
        failures.append(
            "expected %d waived finding(s) (one per waived twin), got %d:"
            "\n%s" % (EXPECTED_WAIVED, waived, proc.stdout))

    # A fixture on disk without an expectation entry would rot silently.
    for p in paths:
        rel = os.path.relpath(p, corpus)
        if rel not in EXPECTATIONS:
            failures.append("%s: fixture has no expectation entry" % rel)

    if failures:
        for f in failures:
            print("FAIL:", f)
        return 1
    print("ok: %d fixtures checked, %d waived findings suppressed"
          % (len(EXPECTATIONS), waived))
    return 0


if __name__ == "__main__":
    sys.exit(main())
