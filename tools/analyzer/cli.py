"""Command-line driver for the Diff-Index whole-program analyzer.

Usage:
  python3 tools/analyzer [--root DIR] [--rules r1,r2,...]
                         [--json OUT.sarif] [--dump-lock-graph]
                         [--compile-commands PATH] [files...]

With explicit `files` only those are analyzed, and the whole-program
rules see only them (the fixture test passes its whole corpus this
way). Otherwise the file set is every source under <root>/src and
<root>/tests (the fixture corpus excluded), cross-checked against
compile_commands.json when present so a TU the build knows about is
never silently skipped. The catalog rules read <root>/DESIGN.md.

Exit status: 0 clean, 1 unwaived findings, 2 usage/config error.
"""

import argparse
import json
import os
import sys

import catalog
import dataflow
import model
import report
import rules as rules_mod
import source


def default_root():
    return os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))


def build_program(root, paths, notes, cache_dir=None):
    files = [source.SourceFile(p, root) for p in paths]
    if cache_dir is None:
        program = model.Program(root, files)
        for fn in program.functions:
            dataflow.build_events(program, fn)
    else:
        program = _build_cached(root, files, cache_dir)
    contexts = dataflow.propagate(program, notes)
    return program, contexts


def _build_cached(root, files, cache_dir):
    import cache

    keys = [cache.content_key(sf) for sf in files]
    blobs = [cache.load(cache_dir, k) for k in keys]
    stats = {"model_hits": 0, "event_hits": 0, "stored": 0}
    fms = []
    for sf, blob in zip(files, blobs):
        if blob is not None:
            stats["model_hits"] += 1
            fms.append(blob["model"])
        else:
            fms.append(model.extract_file_model(sf))
    program = model.Program(root, files, fms)
    digest = program.registry_digest()
    for sf, blob, key, fm in zip(files, blobs, keys, fms):
        fns = program.functions_by_file[sf.rel]
        cached = None if blob is None else blob.get("events", {}).get(digest)
        if cached is not None and len(cached) == len(fns):
            stats["event_hits"] += 1
            for fn, row in zip(fns, cached):
                cache.restore_events(fn, row)
        else:
            for fn in fns:
                dataflow.build_events(program, fn)
            stats["stored"] += 1
            cache.store(cache_dir, key, {
                "schema": cache.SCHEMA_VERSION,
                "model": fm,
                # Only the current digest's events are kept: stale
                # registries never come back, so hoarding them just
                # grows the blob.
                "events": {digest: [cache.capture_events(fn)
                                    for fn in fns]},
            })
    # stderr only: a warm run's report must be byte-identical to cold.
    print("diffindex_analyzer: cache %d/%d model hits, %d/%d event hits, "
          "%d stored" % (stats["model_hits"], len(files),
                         stats["event_hits"], len(files), stats["stored"]),
          file=sys.stderr)
    return program


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None)
    parser.add_argument("--compile-commands", default=None)
    parser.add_argument("--rules", default=",".join(rules_mod.ALL_RULES))
    parser.add_argument("--json", default=None,
                        help="write a SARIF-style JSON report here")
    parser.add_argument("--dump-lock-graph", action="store_true",
                        help="print the lock-graph snapshot and exit")
    parser.add_argument("--dump-effect-graph", action="store_true",
                        help="print the durable-effect snapshot and exit")
    parser.add_argument("--cache-dir", default=None,
                        help="incremental cache directory; warm runs "
                             "re-analyze only changed files")
    parser.add_argument("files", nargs="*")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root or default_root())
    selected = [r.strip() for r in args.rules.split(",") if r.strip()]
    for r in selected:
        if r not in rules_mod.ALL_RULES:
            print("diffindex_analyzer: unknown rule '%s'" % r)
            return 2

    if args.files:
        paths = [os.path.abspath(f) for f in args.files]
    else:
        paths = source.gather_files(root)
        cc = args.compile_commands or os.path.join(
            root, "build", "compile_commands.json")
        if os.path.exists(cc):
            known = set(paths)
            with open(cc) as f:
                for entry in json.load(f):
                    p = os.path.normpath(os.path.join(
                        entry.get("directory", ""), entry["file"]))
                    if p.endswith(source.SOURCE_EXTS) and p not in known \
                            and os.path.exists(p) \
                            and not any(part in p for part in
                                        source.EXCLUDED_DIR_PARTS):
                        paths.append(p)
    if not paths:
        print("diffindex_analyzer: no source files found")
        return 2
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print("diffindex_analyzer: missing input: %s" % missing[0])
        return 2

    notes = []
    program, contexts = build_program(root, paths, notes,
                                      cache_dir=args.cache_dir)

    if args.dump_lock_graph:
        sys.stdout.write(report.lock_graph_dump(program, contexts))
        return 0
    if args.dump_effect_graph:
        import effects
        summaries = effects.build_summaries(program, [])
        sys.stdout.write(report.effect_graph_dump(program, summaries))
        return 0

    design = None
    if set(selected) & set(rules_mod.CATALOG_RULES):
        design = catalog.Design.load(root)
        if design is None:
            print("diffindex_analyzer: no failpoint catalog or metric names "
                  "table in %s" % os.path.join(root, "DESIGN.md"))
            return 2
    engine = rules_mod.RuleEngine(program, contexts, notes, design)
    findings = engine.run(selected)

    if args.json:
        with open(args.json, "w") as f:
            json.dump(report.sarif_report(findings, len(paths)), f, indent=2)
            f.write("\n")
    print(report.text_report(findings, notes, len(paths)))
    return 1 if any(f.waiver is None for f in findings) else 0
