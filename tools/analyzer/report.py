"""Report emitters: human-readable text, SARIF-style JSON, and the
deterministic lock-graph dump consumed by the golden snapshot test."""

import json

RULE_DESCRIPTIONS = {
    "lock-order-global":
        "interprocedural acquisition order must follow the rank ladder",
    "blocking-under-lock":
        "blocking operations unreachable while a ranked lock is held",
    "guarded-access":
        "GUARDED_BY fields written only with their guard held",
    "yield-coverage":
        "guarded mutations in model-checked modules carry CHECK_YIELD seams",
    "status-flow":
        "no Status silently dropped through locals or void wrappers",
    "failpoint-reachability":
        "every consulted failpoint is armed by some test",
    "log-before-apply":
        "no memtable apply reachable before the covering WAL append",
    "ack-after-durable":
        "no success return before the fsync covering the last WAL append",
    "rename-after-sync":
        "tmp-built durable files are fsynced before the publishing rename",
    "checkpoint-after-data":
        "checkpoint frame written only after the manifest commit",
    "crash-window-failpoint":
        "every dead-letter crash window carries a named failpoint",
    "lock-order":
        "declared ACQUIRED_BEFORE order is acyclic and nestings follow it",
    "failpoint-names":
        "every consulted failpoint has a DESIGN.md catalog row",
    "metric-names":
        "every created instrument and span stage is in the DESIGN.md tables",
    "catalog-sync":
        "every DESIGN.md catalog row is still used by the code",
    "raw-mutex":
        "no raw std synchronization primitives outside util/mutex.h",
    "naked-new":
        "no naked new",
    "index-ts":
        "index entries at the base edit's ts, retractions at ts - delta",
    "lsm-layering":
        "src/lsm/ includes no cluster/ or core/ header",
    "ignore-error":
        "every .IgnoreError() carries an adjacent rationale comment",
    "waiver-rationale":
        "every ANALYZER_WAIVE carries a written rationale",
}


def text_report(findings, notes, files_scanned):
    lines = []
    active = [f for f in findings if f.waiver is None]
    waived = [f for f in findings if f.waiver is not None]
    for f in sorted(active, key=lambda f: (f.rule, f.rel, f.line)):
        lines.append("%s:%d: [%s] %s" % (f.rel, f.line, f.rule, f.message))
        for q, rel, line in f.chain:
            lines.append("    via %s at %s:%d" % (q, rel, line))
    for note in notes:
        lines.append("note: %s" % note)
    lines.append(
        "diffindex_analyzer: %d finding(s), %d waived, %d file(s) scanned"
        % (len(active), len(waived), files_scanned))
    return "\n".join(lines)


def sarif_report(findings, files_scanned):
    rules_seen = sorted({f.rule for f in findings} | set(RULE_DESCRIPTIONS))
    results = []
    for f in sorted(findings, key=lambda f: (f.rule, f.rel, f.line)):
        result = {
            "ruleId": f.rule,
            "level": "warning" if f.waiver is not None else "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.rel.replace("\\", "/")},
                    "region": {"startLine": f.line},
                }
            }],
        }
        if f.chain:
            result["codeFlows"] = [{
                "threadFlows": [{
                    "locations": [{
                        "location": {
                            "physicalLocation": {
                                "artifactLocation": {
                                    "uri": rel.replace("\\", "/")},
                                "region": {"startLine": line},
                            },
                            "message": {"text": q},
                        }
                    } for q, rel, line in f.chain]
                }]
            }]
        if f.waiver is not None:
            result["suppressions"] = [{
                "kind": "inSource",
                "justification": f.waiver.rationale.strip(),
            }]
        results.append(result)
    return {
        "$schema": "https://schemastore.azurewebsites.net/schemas/json/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "diffindex-analyzer",
                    "informationUri": "tools/analyzer/",
                    "rules": [{
                        "id": rid,
                        "shortDescription": {
                            "text": RULE_DESCRIPTIONS.get(rid, rid)},
                    } for rid in rules_seen],
                }
            },
            "properties": {"filesScanned": files_scanned},
            "results": results,
        }],
    }


def lock_graph_dump(program, contexts):
    """Deterministic snapshot of the lock architecture: the rank ladder,
    the declared ACQUIRED_BEFORE edges, and every distinct held->acquired
    nesting the interprocedural walk observed. Any refactor that changes
    acquisition structure changes this text (golden snapshot test)."""
    from dataflow import ACQUIRE

    out = ["# diffindex-analyzer lock graph (golden snapshot)",
           "# regenerate: python3 tools/analyzer --dump-lock-graph", ""]
    out.append("[ladder]")
    seen = set()
    for decl in sorted(program.lock_decls,
                       key=lambda d: (d.rank, d.cls, d.name)):
        key = (decl.cls, decl.name, decl.rank)
        if key in seen:
            continue
        seen.add(key)
        out.append("rank %-3d %s%s (%s)" %
                   (decl.rank, (decl.cls + "::") if decl.cls else "",
                    decl.name, "shared" if decl.is_shared else "exclusive"))
    out.append("")
    out.append("[declared-edges]")
    for before in sorted(program.declared_edges):
        for after in sorted(program.declared_edges[before]):
            out.append("%s -> %s" % (before, after))
    out.append("")
    out.append("[observed-nestings]")
    pairs = {}
    for fn, ctxs in contexts.items():
        for ctx in ctxs:
            for ev in fn.events:
                if ev.kind != ACQUIRE:
                    continue
                lock = ev.data["lock"]
                if lock.rank <= 0:
                    continue
                for held in set(ev.held) | ctx.held:
                    if held.rank <= 0 or held.name == lock.name:
                        continue
                    key = (held.name, held.shared, lock.name, lock.shared)
                    site = "%s:%d" % (fn.sf.rel.replace("\\", "/"), ev.line)
                    if key not in pairs or site < pairs[key]:
                        pairs[key] = site
    for (hname, hshared, aname, ashared) in sorted(pairs):
        out.append("%s%s -> %s%s" %
                   (hname, "[s]" if hshared else "",
                    aname, "[s]" if ashared else ""))
    out.append("")
    return "\n".join(out)


def effect_graph_dump(program, summaries):
    """Deterministic snapshot of the durable-effect structure: every
    classified effect site in src/, then each src/ function's collapsed
    interprocedural effect ordering. Any change to a crash-ordering
    protocol — a new effect site, a reordering, a new path — changes
    this text (golden snapshot test beside the lock graph)."""
    import effects as fx
    from dataflow import EFFECT

    out = ["# diffindex-analyzer effect graph (golden snapshot)",
           "# regenerate: python3 tools/analyzer --dump-effect-graph", ""]
    out.append("[effect-sites]")
    sites = set()
    for fn in program.functions:
        rel = fn.sf.rel.replace("\\", "/")
        if not rel.startswith("src/"):
            continue
        for ev in fn.events:
            if ev.kind == EFFECT:
                sites.add((rel, ev.line, ev.data["effect"], fn.qualname))
    for rel, line, eff, qual in sorted(sites):
        out.append("%s:%d %s (%s)" % (rel, line, eff, qual))
    out.append("")
    out.append("[effect-orderings]")
    rows = []
    for fn in program.functions:
        rel = fn.sf.rel.replace("\\", "/")
        if not rel.startswith("src/"):
            continue
        trace = summaries.get(fn) or []
        if not trace:
            continue
        rows.append("%s: %s" % (fn.qualname,
                                " -> ".join(fx.collapsed_trace(trace))))
    for row in sorted(rows):
        out.append(row)
    out.append("")
    return "\n".join(out)
