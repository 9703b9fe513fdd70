"""The analyzer's rules (DESIGN.md section 15).

  lock-order-global       no acquisition path, through any call chain,
                          may take a ranked lock while holding one of
                          equal or higher rank (the static twin of the
                          runtime validator in util/lock_order.h; the
                          same-rank shared+shared flush-gate edge is
                          permitted, mirroring the validator's waiver).
  blocking-under-lock     the blocking-operation catalog (CondVar waits,
                          thread joins, fsync, fabric RPC — and anything
                          that reaches one, e.g. drain/flush barriers)
                          must be unreachable while a ranked lock is
                          held, unless waived where the design argues
                          progress (makes the PR 7 failover-deadlock
                          class a compile-time error).
  guarded-access          a GUARDED_BY field may only be written while
                          its guard is held (statically: locally, via a
                          REQUIRES contract, or via a caller on every
                          propagated chain) — the PR 5 ts-inversion
                          shape, where the guarded write ran before the
                          lock, is this rule's seed fixture.
  yield-coverage          in model-checked modules (files carrying
                          CHECK_YIELD seams) every function that writes
                          a GUARDED_BY field must contain a CHECK_YIELD
                          or call a function that does, so new code
                          cannot escape the model checker's schedules.
  status-flow             interprocedural [[nodiscard]]: a Status
                          captured into a local that no later statement
                          reads, or a Status-returning call used as a
                          bare statement inside a void wrapper, is a
                          dropped error the compiler cannot see.
  failpoint-reachability  every failpoint name consulted in src/ must be
                          armed (by literal name) somewhere in tests/ —
                          an unreachable failpoint is dead chaos
                          coverage.

Crash-ordering rules (DESIGN.md section 15) run over the durable-effect
summaries from effects.py — each function's text-linear effect sequence
with callee summaries inlined at call sites:

  log-before-apply        no memtable apply may be reachable before the
                          covering WAL append on a path that logs — a
                          crash in between loses an unlogged edit.
  ack-after-durable       on a handler path that appends to the WAL, the
                          success status may not be returned before an
                          fsync covering the last append (the group-
                          commit leader protocol is the waived case).
  rename-after-sync       a durable file built in a tmp path must be
                          fsynced before the rename publishes it, or a
                          crash can publish a torn file (the PR 7
                          checkpoint discipline, enforced everywhere).
  checkpoint-after-data   the recovery checkpoint frame may only be
                          written after the manifest commit that makes
                          the flushed SSTables durable — a reordering
                          widens replay onto data that may not exist.
  crash-window-failpoint  every intentional ack-before-durable window
                          (a dead-letter record) must have a named
                          failpoint in the same innermost scope before
                          it, so the chaos harness can cut the window.

Declared lock order, over the ACQUIRED_BEFORE/ACQUIRED_AFTER edges in
the model's lock registry and the held sets dataflow.py records:

  lock-order              the declared edges form no cycle, and every
                          nested acquisition of two annotated locks
                          follows a declared path (the shared+shared
                          self-nesting of two flush gates excepted, as
                          in lock-order-global).

Catalog rules, against the DESIGN.md tables (catalog.py):

  failpoint-names         every failpoint consulted in src/ has a row in
                          the failpoint catalog.
  metric-names            every instrument src/ creates matches a metric
                          table row, and every SpanTimer stage is in the
                          span-stage list.
  catalog-sync            the reverse: every failpoint row is consulted
                          and every metric row matches an instrument the
                          code creates (SpanTimer stages as span.<stage>).

plus the per-file textual rules of textual.py (raw-mutex, naked-new,
index-ts, lsm-layering, ignore-error).
"""

import re
from collections import namedtuple

import catalog
import effects as fx
import textual
from dataflow import (ACQUIRE, BLOCKING, GUARDED_WRITE, STATUS_DROP,
                      FAILPOINT, EFFECT)
from source import line_of, balanced_args

Finding = namedtuple(
    "Finding",
    ["rule", "rel", "line", "message", "chain", "waiver"])

DURABILITY_RULES = (
    "log-before-apply",
    "ack-after-durable",
    "rename-after-sync",
    "checkpoint-after-data",
    "crash-window-failpoint",
)

CATALOG_RULES = ("failpoint-names", "metric-names", "catalog-sync")

ALL_RULES = (
    "lock-order-global",
    "blocking-under-lock",
    "guarded-access",
    "yield-coverage",
    "status-flow",
    "failpoint-reachability",
) + DURABILITY_RULES + ("lock-order",) + CATALOG_RULES + tuple(textual.RULES)

# Path scopes, in one place. The model checker's scheduler and the
# annotated-primitive layer block by design; the lock-order unit test
# violates ordering on purpose but carries inline waivers instead of a
# path exclusion, so its intent is written next to the code. A textual
# or catalog rule skips the files that define what it polices: the
# scheduler is built from raw primitives because the annotated wrappers
# call back into it.
EXEMPT_FILES = {
    "raw-mutex": ("src/check/scheduler.h", "src/check/scheduler.cc"),
    "ignore-error": ("src/util/status.h",),
    "metric-names": ("src/obs/metrics.h",),
}


def _excluded(sf, rule):
    rel = sf.rel.replace("\\", "/")
    if rel.endswith("util/mutex.h") or rel in EXEMPT_FILES.get(rule, ()):
        return True
    if rel.startswith("src/check/") and rule in (
            "blocking-under-lock", "lock-order-global", "guarded-access",
            "yield-coverage"):
        return True
    if rel.startswith("tests/") and rule == "yield-coverage":
        return True
    return False


def _in_src(sf):
    return sf.rel.replace("\\", "/").startswith("src/")


def _reach(edges):
    """Transitive closure of the declared order: {lock: reachable locks}."""
    reach = {}

    def visit(node):
        if node not in reach:
            reach[node] = set()  # cycle guard
            for nxt in edges.get(node, ()):
                reach[node] |= {nxt} | visit(nxt)
        return reach[node]

    for node in list(edges):
        visit(node)
    return reach


def _cycle(edges):
    """One cycle of the declared order as a node list, or None."""
    done, path = set(), []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for nxt in sorted(edges.get(node, ())):
            found = visit(nxt)
            if found:
                return found
        path.pop()
        done.add(node)
        return None

    for node in sorted(edges):
        found = visit(node)
        if found:
            return found
    return None


class RuleEngine:
    def __init__(self, program, contexts, notes, design=None):
        self.program = program
        self.contexts = contexts
        self.notes = notes
        self.design = design  # catalog.Design; needed by CATALOG_RULES
        self.findings = []
        self.files_by_rel = {sf.rel: sf for sf in program.files}
        if design is not None:
            self.files_by_rel[design.sf.rel] = design.sf
        edges = program.declared_edges
        self.ordered_locks = set(edges).union(*edges.values())
        self.declared_reach = _reach(edges)

    def _emit_at(self, rule, rel, line, message, chain=()):
        """Records a finding at rel:line. A waiver suppresses it at that
        line or at any call site on its chain (so a by-design edge is
        waived once, where the decision lives)."""
        waiver = None
        for wrel, wline in ((rel, line),) + tuple(
                (crel, cline) for _, crel, cline in chain):
            sf = self.files_by_rel.get(wrel)
            waiver = sf.waiver_for(rule, wline) if sf is not None else None
            if waiver is not None:
                break
        self.findings.append(Finding(rule, rel, line, message,
                                     tuple(chain), waiver))

    def _emit(self, rule, fn, line, message, chain=()):
        self._emit_at(rule, fn.sf.rel, line, message, chain)

    # -- per-(function, context) checks -----------------------------------

    def run(self, rules):
        rules = set(rules)
        seen = set()
        for fn, ctxs in self.contexts.items():
            for ctx in ctxs:
                self._check_context(fn, ctx, rules, seen)
        if "yield-coverage" in rules:
            self._check_yield_coverage()
        if "failpoint-reachability" in rules:
            self._check_failpoint_reachability()
        if "status-flow" in rules:
            self._check_status_wrappers()
        ordering = rules & set(DURABILITY_RULES) - {"crash-window-failpoint"}
        if ordering:
            self._check_effect_orderings(ordering)
        if "crash-window-failpoint" in rules:
            self._check_crash_windows()
        if "lock-order" in rules:
            self._check_declared_cycle()
        self._check_textual(rules)
        self._check_catalogs(rules)
        self._check_waiver_rationales()
        return self.findings

    def _check_context(self, fn, ctx, rules, seen):
        inherited = ctx.held
        for ev in fn.events:
            if ev.kind == ACQUIRE and "lock-order" in rules \
                    and not _excluded(fn.sf, "lock-order") and not inherited:
                self._check_declared_nesting(fn, ev, seen)
            if ev.kind == ACQUIRE and "lock-order-global" in rules \
                    and not _excluded(fn.sf, "lock-order-global"):
                lock = ev.data["lock"]
                if lock.rank <= 0:
                    continue
                full = set(ev.held) | inherited
                for held in full:
                    if held.rank <= 0:
                        continue
                    bad = held.rank > lock.rank or (
                        held.rank == lock.rank and
                        not (held.shared and lock.shared))
                    if not bad:
                        continue
                    key = ("lock-order-global", fn.sf.rel, ev.line,
                           held.name, lock.name)
                    if key in seen:
                        continue
                    seen.add(key)
                    msg = ("acquires %s%s (rank %d) while holding %s%s "
                           "(rank %d); the declared ladder requires "
                           "strictly increasing ranks" %
                           (lock.name, " [shared]" if lock.shared else "",
                            lock.rank, held.name,
                            " [shared]" if held.shared else "", held.rank))
                    self._emit("lock-order-global", fn, ev.line, msg,
                               self._chain_for(ctx, fn, held))
            elif ev.kind == BLOCKING and "blocking-under-lock" in rules \
                    and not _excluded(fn.sf, "blocking-under-lock"):
                full = set(ev.held) | inherited
                ranked = sorted((h for h in full if h.rank > 0),
                                key=lambda h: h.rank)
                if not ranked:
                    continue
                names = ", ".join("%s (rank %d)" % (h.name, h.rank)
                                  for h in ranked)
                key = ("blocking-under-lock", fn.sf.rel, ev.line,
                       tuple(h.name for h in ranked))
                if key in seen:
                    continue
                seen.add(key)
                msg = ("%s [%s] is reachable while holding ranked lock(s) "
                       "%s; a blocked holder stalls or deadlocks every "
                       "waiter of those locks" %
                       (ev.data["detail"], ev.data["op"], names))
                self._emit("blocking-under-lock", fn, ev.line, msg,
                           self._chain_for(ctx, fn, ranked[0]))
            elif ev.kind == GUARDED_WRITE and "guarded-access" in rules \
                    and not _excluded(fn.sf, "guarded-access") \
                    and not inherited:
                # Checked in the base context only: the guard contract is
                # the function's own (REQUIRES or a local acquisition),
                # not something a lucky caller provides.
                guard = ev.data["guard"]
                if any(h.name == guard for h in ev.held):
                    continue
                key = ("guarded-access", fn.sf.rel, ev.line,
                       ev.data["field"])
                if key in seen:
                    continue
                seen.add(key)
                msg = ("writes '%s_' (GUARDED_BY %s) but %s is not held "
                       "here: not acquired in scope and not demanded via "
                       "REQUIRES — the PR 5 ts-inversion shape" %
                       (ev.data["field"].rstrip("_"), guard, guard))
                self._emit("guarded-access", fn, ev.line, msg)
            elif ev.kind == STATUS_DROP and "status-flow" in rules \
                    and not inherited:
                key = ("status-flow", fn.sf.rel, ev.line, ev.data["var"])
                if key in seen:
                    continue
                seen.add(key)
                msg = ("Status '%s' is assigned but never examined on any "
                       "later statement of %s; the error it may carry is "
                       "silently dropped" % (ev.data["var"], fn.qualname))
                self._emit("status-flow", fn, ev.line, msg)

    def _check_declared_nesting(self, fn, ev, seen):
        """Local nestings only: ACQUIRED_* annotations name locks by
        member name, which is unambiguous within one body but not across
        a call chain (every class's `mu_` is `mu`); the ranks carry the
        interprocedural order (lock-order-global)."""
        lock = ev.data["lock"]
        if lock.name not in self.ordered_locks:
            return
        for held in ev.held:
            if held.name not in self.ordered_locks \
                    or lock.name in self.declared_reach.get(held.name, ()) \
                    or (held.name == lock.name and held.shared
                        and lock.shared):
                continue
            key = ("lock-order", fn.sf.rel, ev.line, held.name, lock.name)
            if key in seen:
                continue
            seen.add(key)
            msg = ("nested acquisition %s -> %s does not follow the declared "
                   "ACQUIRED_BEFORE order; annotate the edge or waive it" %
                   (held.name, lock.name))
            self._emit("lock-order", fn, ev.line, msg)

    def _check_declared_cycle(self):
        edges = self.program.declared_edges
        cycle = _cycle(edges)
        if cycle:
            rel, line = edges[cycle[-2]][cycle[-1]]
            self._emit_at("lock-order", rel, line,
                          "declared lock-order cycle: %s" % " -> ".join(cycle))

    def _check_textual(self, rules):
        for sf in self.program.files:
            rel = sf.rel.replace("\\", "/")
            for rule, check in textual.RULES.items():
                if rule in rules and rel.startswith(textual.SCOPE[rule]) \
                        and not _excluded(sf, rule):
                    for line, msg in check(sf):
                        self._emit_at(rule, sf.rel, line, msg)

    def _check_catalogs(self, rules):
        """failpoint-names / metric-names check code against the DESIGN.md
        catalogs; catalog-sync checks the catalogs against the code.
        Failpoint consults are the dataflow FAILPOINT events."""
        rules = rules & set(CATALOG_RULES)
        if not rules:
            return
        design = self.design
        consulted = set()
        for fn in self.program.functions:
            if not _in_src(fn.sf):
                continue
            for ev in fn.events:
                if ev.kind != FAILPOINT:
                    continue
                name = ev.data["name"]
                consulted.add(name)
                if "failpoint-names" in rules \
                        and name not in design.failpoints:
                    self._emit("failpoint-names", fn, ev.line,
                               "failpoint '%s' is not documented in the "
                               "DESIGN.md failpoint catalog" % name)
        created = set()
        for sf in self.program.files:
            if not _in_src(sf):
                continue
            check = "metric-names" in rules \
                and not _excluded(sf, "metric-names")
            for kind, name, line in catalog.instruments(sf):
                created.add(name if kind == "metric" else "span." + name)
                if not check:
                    continue
                if kind == "metric" and not design.metric_documented(name):
                    msg = ("metric '%s' has no row in the DESIGN.md metric "
                           "names table" % catalog.shown(name))
                elif kind == "stage" and not design.stage_documented(name):
                    msg = ("span stage '%s' is not in the DESIGN.md "
                           "span-stage list" % catalog.shown(name))
                else:
                    continue
                self._emit_at("metric-names", sf.rel, line, msg)
        if "catalog-sync" not in rules:
            return
        for name, line in sorted(design.failpoints.items()):
            if name not in consulted:
                self._emit_at("catalog-sync", design.sf.rel, line,
                              "failpoint catalog row '%s' is consulted "
                              "nowhere in src/; retire the row or restore "
                              "the consult" % name)
        for row in design.dead_metric_rows(created):
            self._emit_at("catalog-sync", design.sf.rel,
                          design.metric_rows[row],
                          "metric table row '%s' matches no instrument "
                          "created in src/; retire the row or restore the "
                          "instrument" % row)

    def _chain_for(self, ctx, fn, held):
        """The recorded caller chain, when the offending lock came from a
        caller; empty for purely local violations."""
        if any(h == held for h in ctx.held):
            return ctx.chain
        return ctx.chain if ctx.chain else ()

    # -- whole-program checks ---------------------------------------------

    def _check_yield_coverage(self):
        program = self.program
        yield_files = {fn.sf.rel for fn in program.functions if fn.has_yield
                       and _in_src(fn.sf)}
        for fn in program.functions:
            if fn.sf.rel not in yield_files or _excluded(fn.sf, "yield-coverage"):
                continue
            writes = [ev for ev in fn.events if ev.kind == GUARDED_WRITE]
            if not writes or fn.has_yield:
                continue
            # Covered by a direct callee's seam?
            covered = False
            for callee in fn.direct_callees:
                for cand in program.defs_by_name.get(callee, ()):
                    if cand.has_yield:
                        covered = True
                        break
                if covered:
                    break
            if covered:
                continue
            ev = writes[0]
            msg = ("%s mutates guarded state ('%s_') in a model-checked "
                   "module but neither it nor a direct callee has a "
                   "CHECK_YIELD seam; the model checker cannot schedule "
                   "around this mutation" %
                   (fn.qualname, ev.data["field"].rstrip("_")))
            self._emit("yield-coverage", fn, ev.line, msg)

    def _check_failpoint_reachability(self):
        program = self.program
        consults = {}  # name -> (fn, line)
        armed = set()
        for sf in program.files:
            rel = sf.rel.replace("\\", "/")
            if rel.startswith("tests/"):
                # Any literal mention in a test (Arm call, chaos table,
                # scenario string) makes the point reachable.
                for m in re.finditer(r"\"([a-z_.]+)\"", sf.clean_str):
                    armed.add(m.group(1))
        for fn in program.functions:
            if not _in_src(fn.sf):
                continue
            for ev in fn.events:
                if ev.kind == FAILPOINT:
                    consults.setdefault(ev.data["name"], (fn, ev.line))
        for name in sorted(consults):
            if name in armed:
                continue
            fn, line = consults[name]
            msg = ("failpoint '%s' is consulted here but never armed by "
                   "name in any test or chaos scenario; its failure mode "
                   "is untested" % name)
            self._emit("failpoint-reachability", fn, line, msg)

    def _check_status_wrappers(self):
        """The interprocedural half of status-flow: a bare-statement call
        to a Status-returning function inside a void-returning wrapper
        (no assignment, no RETURN_NOT_OK, no IgnoreError)."""
        program = self.program
        for fn in program.functions:
            if fn.return_type != "void":
                continue
            body = fn.body
            for m in re.finditer(r"(?:^|[;{}])\s*([A-Za-z_]\w*)\s*\(", body):
                callee = m.group(1)
                if callee == "Status":
                    continue
                # Resolve like a bare call from this function; flag only
                # when every candidate definition returns Status (a
                # mixed or unresolved overload set is not evidence).
                targets = program.resolve_call(callee, None, fn)
                if not targets or \
                        any(t.return_type != "Status" for t in targets):
                    continue
                args = balanced_args(body, m.end() - 1)
                if args is None:
                    continue
                close = m.end() - 1 + len(args) + 1  # the ')'
                tail = body[close + 1:].split(";", 1)[0]
                if tail.strip():
                    continue  # chained (.IgnoreError(), .ok(), ...)
                line = line_of(fn.sf.clean, fn.body_start + m.start(1))
                msg = ("void %s drops the Status returned by %s(); "
                       "propagate it or call .IgnoreError() with a "
                       "written rationale" % (fn.qualname, callee))
                self._emit("status-flow", fn, line, msg)

    # -- crash-ordering checks over effect summaries ----------------------

    def _check_effect_orderings(self, rules):
        """Scans every src/ function's flattened effect trace. The same
        site surfaces in every caller's trace too; candidates dedup by
        (rule, site) keeping the shortest chain, so a violation reports
        once, where the ordering decision lives."""
        summaries = fx.build_summaries(self.program, self.notes)
        cands = []  # (rule, rel, line, message, chain)
        for fn in self.program.functions:
            if not _in_src(fn.sf):
                continue
            trace = summaries.get(fn) or []
            if "log-before-apply" in rules:
                self._scan_log_before_apply(fn, trace, cands)
            if "ack-after-durable" in rules:
                self._scan_ack_after_durable(fn, trace, cands)
            if "rename-after-sync" in rules:
                self._scan_rename_after_sync(fn, trace, cands)
            if "checkpoint-after-data" in rules:
                self._scan_checkpoint_after_data(fn, trace, cands)
        best = {}
        order = []
        for rule, rel, line, msg, chain in cands:
            key = (rule, rel, line)
            cur = best.get(key)
            if cur is None:
                order.append(key)
                best[key] = (rule, rel, line, msg, chain)
            elif len(chain) < len(cur[4]):
                best[key] = (rule, rel, line, msg, chain)
        for key in order:
            self._emit_at(*best[key])

    def _scan_log_before_apply(self, fn, trace, cands):
        first_wal = next((i for i, e in enumerate(trace)
                          if e.kind == "wal-append"), None)
        if first_wal is None:
            return
        for e in trace[:first_wal]:
            if e.kind != "memtable-apply":
                continue
            msg = ("memtable apply is reachable before the covering WAL "
                   "append on %s's path; a crash between them loses an "
                   "edit the log never saw" % fn.qualname)
            cands.append(("log-before-apply", e.rel, e.line, msg, e.chain))

    def _scan_ack_after_durable(self, fn, trace, cands):
        for i, e in enumerate(trace):
            if e.kind != "rpc-ack":
                continue
            appends = [j for j in range(i) if trace[j].kind == "wal-append"]
            if not appends:
                continue  # read path or early-out before any write
            last = appends[-1]
            if any(t.kind == "fsync" for t in trace[last + 1:i]):
                continue
            msg = ("%s returns success before any fsync covering the WAL "
                   "append on this path; a crash after the ack loses an "
                   "acknowledged write" % fn.qualname)
            cands.append(("ack-after-durable", e.rel, e.line, msg, e.chain))

    def _scan_rename_after_sync(self, fn, trace, cands):
        for i, e in enumerate(trace):
            if e.kind != "rename":
                continue
            tmps = [j for j in range(i) if trace[j].kind == "tmp-write"]
            if not tmps:
                continue  # rename of something this path didn't build
            if any(t.kind == "fsync" for t in trace[tmps[-1] + 1:i]):
                continue
            msg = ("rename publishes a tmp-built file on %s's path without "
                   "an fsync after the tmp write; a crash can publish a "
                   "torn file (tmp+Sync+rename discipline)" % fn.qualname)
            cands.append(("rename-after-sync", e.rel, e.line, msg, e.chain))

    def _scan_checkpoint_after_data(self, fn, trace, cands):
        for i, e in enumerate(trace):
            if e.kind != "checkpoint-write":
                continue
            if any(t.kind == "manifest-write" for t in trace[:i]):
                continue
            if not any(t.kind == "manifest-write" for t in trace[i + 1:]):
                continue  # no manifest on this path at all: order unprovable
            msg = ("checkpoint frame is written before the manifest commit "
                   "on %s's path; a crash leaves a checkpoint pointing past "
                   "data that was never made durable" % fn.qualname)
            cands.append(("checkpoint-after-data", e.rel, e.line, msg,
                          e.chain))

    def _check_crash_windows(self):
        """A dead-letter record is an intentional ack-before-durable
        window; a named failpoint must sit in the same innermost scope,
        before the record, so the chaos harness can crash inside it.
        Own-body events only — the window and its seam belong together."""
        for fn in self.program.functions:
            if not _in_src(fn.sf):
                continue
            fp_scopes = {}
            for ev in fn.events:
                if ev.kind == FAILPOINT:
                    fp_scopes.setdefault(ev.data.get("scope"),
                                         []).append(ev.pos)
            for ev in fn.events:
                if ev.kind != EFFECT \
                        or ev.data["effect"] != "dead-letter-record":
                    continue
                scope = ev.data.get("scope")
                if any(p < ev.pos for p in fp_scopes.get(scope, ())):
                    continue
                msg = ("dead-letter record in %s has no named failpoint in "
                       "its innermost scope before it; the chaos harness "
                       "cannot crash inside this acked-but-not-durable "
                       "window" % fn.qualname)
                self._emit("crash-window-failpoint", fn, ev.line, msg)

    def _check_waiver_rationales(self):
        for sf in self.program.files:
            for w in sf.invalid_waivers():
                self.findings.append(Finding(
                    "waiver-rationale", sf.rel, w.line,
                    "ANALYZER_WAIVE(%s) has no written rationale; a waiver "
                    "must argue why the exception is safe" % w.rule,
                    (), None))
