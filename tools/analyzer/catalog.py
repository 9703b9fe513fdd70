"""The DESIGN.md catalogs and the names the code uses against them.

DESIGN.md holds three name catalogs the code must stay in sync with:

  failpoints   the first column of the "### Failpoint catalog" table
               (section 7);
  metric rows  the first column of the table after "**Metric names
               (authoritative).**" (section 6), where `<x>` matches one
               dynamic segment and `[.<x>]` an optional trailing tag;
  span stages  the backticked list after "Span stages ...:" — the
               stage names passed to SpanTimer.

Failpoint consults come from the FAILPOINT events dataflow.py records;
instrument names are read here from each SourceFile's clean_str view.
"""

import os
import re

from source import SourceFile, balanced_args, split_top_level_args, line_of

ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|")
SPAN_STAGES_RE = re.compile(r"Span stages [^:]*:\s*((?:`[^`]+`[,.\s]*)+)")
INSTRUMENT_RE = re.compile(r"\b(GetCounter|GetGauge|GetHistogram)\s*\(")
SPAN_TIMER_RE = re.compile(r"\bSpanTimer\s+\w+\s*\(")

# A stand-in for a dynamic (non-literal) name fragment: matches the
# wildcard character class of a `<x>` row and nothing a literal row would.
DYN = "zzdynzz"


def name_to_regex(table_name):
    """`rpc.<type>.calls` / `span.<stage>[.<scheme>]` -> compiled regex."""
    out = []
    i, n = 0, len(table_name)
    while i < n:
        if table_name.startswith("[.<", i):
            i = table_name.index("]", i) + 1
            out.append(r"(\.[A-Za-z0-9_.\-]+)?")
        elif table_name[i] == "<":
            i = table_name.index(">", i) + 1
            out.append(r"[A-Za-z0-9_.\-]+")
        else:
            out.append(re.escape(table_name[i]))
            i += 1
    return re.compile("^" + "".join(out) + "$")


def literal_name(argtext):
    """The instrument name an argument expression builds: literal
    fragments joined by '+', each non-literal piece a DYN segment. None
    when no literal is present (a fully dynamic name: nothing to check)."""
    if '"' not in argtext:
        return None
    pieces = []
    for piece in argtext.split("+"):
        m = re.search(r"\"([^\"]*)\"", piece)
        pieces.append(m.group(1) if m else DYN)
    return "".join(pieces)


def shown(name):
    return name.replace(DYN, "<...>")


class Design:
    """The parsed catalogs, keyed by name with their DESIGN.md line. `sf`
    is DESIGN.md itself, so catalog-sync findings on a row can be waived
    in the row."""

    def __init__(self, path, root):
        self.sf = SourceFile(path, root)
        self.failpoints = {}
        self.metric_rows = {}
        section = None
        for i, line in enumerate(self.sf.raw.split("\n"), 1):
            if line.startswith("### Failpoint catalog"):
                section = self.failpoints
            elif line.startswith("**Metric names (authoritative).**"):
                section = self.metric_rows
            elif line.startswith(("## ", "### ", "**Tracing.**")):
                section = None
            elif section is not None:
                m = ROW_RE.match(line)
                if m:
                    section.setdefault(m.group(1), i)
        self.metric_res = {n: name_to_regex(n) for n in self.metric_rows}
        m = SPAN_STAGES_RE.search(self.sf.raw)
        self.stage_res = [name_to_regex(n) for n in
                          re.findall(r"`([^`]+)`", m.group(1))] if m else []

    @staticmethod
    def load(root):
        """None when DESIGN.md or either of its tables is missing."""
        path = os.path.join(root, "DESIGN.md")
        if not os.path.exists(path):
            return None
        design = Design(path, root)
        if not design.failpoints or not design.metric_rows:
            return None
        return design

    def metric_documented(self, name):
        return any(rx.match(name) for rx in self.metric_res.values())

    def stage_documented(self, stage):
        return any(rx.match(stage) for rx in self.stage_res)

    def dead_metric_rows(self, created):
        """Metric rows no created name matches. A name with dynamic
        fragments also keeps a row live when it matches the row text with
        those fragments as wildcards."""
        wild = [re.compile("^" + ".*".join(map(re.escape, n.split(DYN)))
                           + "$") for n in created]
        for row, rx in self.metric_res.items():
            if not any(rx.match(n) for n in created) \
                    and not any(w.match(row) for w in wild):
                yield row


def instruments(sf):
    """Yields (kind, name, line) for every instrument `sf` creates with a
    literal name fragment: kind "metric" for Get{Counter,Gauge,Histogram}
    and "stage" for the stage argument of a SpanTimer."""
    text = sf.clean_str
    for rx, kind, arg in ((INSTRUMENT_RE, "metric", 0),
                          (SPAN_TIMER_RE, "stage", 2)):
        for m in rx.finditer(text):
            argtext = balanced_args(text, m.end() - 1)
            if argtext is None:
                continue
            args = split_top_level_args(argtext)
            name = literal_name(args[arg]) if len(args) > arg else None
            if name is not None:
                yield kind, name, line_of(text, m.start())
