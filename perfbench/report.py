#!/usr/bin/env python3
"""Renders perfbench results as layer tables and compares two sets of them.

    python3 perfbench/report.py RESULT.json [--untraced RESULT.json]
    python3 perfbench/report.py --base A1.json A2.json ... --new B1.json ...

RESULT files are the full results perfbench/run.py writes to
.bench_build/perfbench-results/. The first form prints one run as tables:
end-to-end metrics, per-layer metrics with the end-to-end metric each one
should move (perfbench/rationale.json), and, for a traced run, the mean
self time per layer of each operation class with the residual. Given the
untraced run of the same workload and seed, it also prints the tracing
overhead as traced minus untraced end-to-end numbers.

The second form groups runs by workload and compares the medians of every
end-to-end metric against the bounds in BENCHMARK.json. It exits 1 if any
metric got worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
LAYERS = ("core", "net", "cluster", "query")
CLASSES = ("put", "get_by_index", "scan")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def value(result, name):
    metric = result["metrics"].get(name)
    return None if metric is None else metric["value"]


def fmt(v):
    if v is None:
        return "-"
    if abs(v) >= 100 or v == int(v):
        return f"{v:,.0f}"
    return f"{v:.3f}"


def table(headers, rows):
    widths = [max(len(str(x)) for x in col) for col in zip(headers, *rows)]
    line = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [line.format(*headers), line.format(*("-" * w for w in widths))]
    out += [line.format(*map(str, row)) for row in rows]
    return "\n".join(out)


def render(result, spec, rationale, untraced=None):
    info = result.get("info", {})
    out = [f"workload {info.get('workload')} ({info.get('scheme')}), "
           f"seed {info.get('seed')}, {info.get('seconds')} s at "
           f"{info.get('rate_ops_s')} ops/s: correct={result['correct']} "
           f"attempted={result['attempted']} failed={result['failed']}",
           f"ladder: {info.get('ladder')}"]
    if info.get("driver_fell_behind"):
        out.append("WARNING: the generator fell behind its schedule; "
                   "latencies include driver stalls")

    out += ["", "End to end"]
    out.append(table(("metric", "value", "unit"), [
        (m["name"], fmt(value(result, m["name"])), m["unit"])
        for m in spec["end_to_end"]]))

    out += ["", "Per layer (measured-phase deltas)"]
    rows = []
    for p in rationale["predictions"]:
        for name in p["metrics"]:
            if name not in result["metrics"]:
                continue  # a name pattern (trace.<op>...): see below
            rows.append((p["layer"], name, fmt(value(result, name)),
                         ", ".join(p["moves"]), ", ".join(p["on"])))
    out.append(table(("layer", "metric", "value", "should move", "on"), rows))

    if value(result, "trace.put.samples"):
        out += ["", "Self time per layer, mean us per traced op "
                "(bench-timed latency = layer self times + residual)"]
        rows = []
        for cls in CLASSES:
            p = f"trace.{cls}."
            latency = value(result, p + "latency_us") or 0
            residual = value(result, p + "residual_us") or 0
            share = f"{100 * residual / latency:.1f}%" if latency else "-"
            rows.append((cls, fmt(value(result, p + "samples")), fmt(latency),
                         *(fmt(value(result, f"{p}{layer}_self_us"))
                           for layer in LAYERS),
                         fmt(residual), share,
                         fmt(value(result, p + "overhead_us"))))
        out.append(table(("op", "samples", "latency", *LAYERS, "residual",
                          "residual share", "overhead"), rows))
        legs = fmt(value(result, "net.index_scan_leg_us_per_scan"))
        out.append("overhead: p50 of traced minus untraced ops of the run. "
                   "Scan legs run on pool threads without the trace context; "
                   "their summed time per scan (phase delta of "
                   "span.rpc.index_scan) is net.index_scan_leg_us_per_scan = "
                   f"{legs} us and shows inside the query self time.")
        out.append("not observable from outside: " +
                   "; ".join(rationale["not_observable_from_outside"]))

    if untraced is not None:
        out += ["", "Tracing overhead: traced minus untraced run"]
        out.append(table(("metric", "untraced", "traced", "difference"), [
            (m["name"], fmt(value(untraced, m["name"])),
             fmt(value(result, m["name"])),
             fmt((value(result, m["name"]) or 0) -
                 (value(untraced, m["name"]) or 0)))
            for m in spec["end_to_end"]]))
    return "\n".join(out)


def spread(values):
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def compare(base, new, spec):
    """Per workload and end-to-end metric verdicts; returns (text, ok)."""
    def by_workload(results):
        groups = {}
        for r in results:
            groups.setdefault(r["info"]["workload"], []).append(r)
        return groups

    base_groups, new_groups = by_workload(base), by_workload(new)
    rows = []
    ok = True
    for workload in sorted(set(base_groups) & set(new_groups)):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = [value(r, name) for r in base_groups[workload]]
            n = [value(r, name) for r in new_groups[workload]]
            if None in b or None in n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            lower_better = metric["better"] == "lower"
            worse = (mn - mb) / mb if lower_better else (mb - mn) / mb
            if lower_better:
                all_better = max(n) < min(b)
            else:
                all_better = min(n) > max(b)
            if worse > bound:
                verdict = "REGRESSION"
                ok = False
            elif spread(b) > bound and not all_better:
                verdict = "unresolved (spread > bound)"
            elif worse < -bound or all_better:
                verdict = "better"
            else:
                verdict = "within bound"
            rows.append((workload, name, fmt(mb), fmt(mn),
                         f"{-100 * worse:+.1f}%", f"{100 * bound:.0f}%",
                         f"{spread(b):.3f}", verdict))
    text = table(("workload", "metric", "base median", "new median",
                  "better by", "bound", "base spread", "verdict"), rows)
    text += (f"\nruns: base {len(base)}, new {len(new)}. "
             "'better by' is oriented so positive is an improvement.")
    return text, ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("result", nargs="?", help="one full result to render")
    parser.add_argument("--untraced", help="untraced result of the same run")
    parser.add_argument("--base", nargs="+", help="results before a change")
    parser.add_argument("--new", nargs="+", help="results after a change")
    args = parser.parse_args()
    spec = load_json(os.path.join(REPO_ROOT, "BENCHMARK.json"))
    if args.base or args.new:
        if not (args.base and args.new):
            parser.error("--base and --new go together")
        text, ok = compare([load_json(p) for p in args.base],
                           [load_json(p) for p in args.new], spec)
        print(text)
        return 0 if ok else 1
    if not args.result:
        parser.error("give a result file, or --base and --new")
    rationale = load_json(os.path.join(BENCH_DIR, "rationale.json"))
    untraced = load_json(args.untraced) if args.untraced else None
    print(render(load_json(args.result), spec, rationale, untraced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
