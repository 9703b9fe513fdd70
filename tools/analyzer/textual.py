"""Textual rules: per-file invariants read straight off SourceFile text
(DESIGN.md section 15). Each rule covers src/ only, minus the files
that define the construct it polices (rules.EXEMPT_FILES):

  raw-mutex     no raw std synchronization primitive: unannotated locks
                are invisible to thread-safety analysis.
  naked-new     no `new T` (placement new is fine).
  index-ts      the section 4.3 timestamp rule at the one staging path
                (IndexManager::StageTask): StagePutIndexEntry takes the
                base edit's `<x>.ts` verbatim, StageDeleteIndexEntry
                takes `<x>.ts - kDelta` (or `old_ts - kDelta`) verbatim.
  lsm-layering  src/lsm/ never includes cluster/ or core/ headers.
  ignore-error  every .IgnoreError() carries an adjacent rationale
                comment saying why dropping the Status is safe.

Each rule is a function (sf) -> iterable of (line, message).
"""

import re

from source import balanced_args, split_top_level_args, line_of

RAW_SYNC_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable"
    r"|condition_variable_any|lock_guard|unique_lock|shared_lock|scoped_lock)\b")
NAKED_NEW_RE = re.compile(r"\bnew\s+[A-Za-z_]")
INDEX_CALL_RE = re.compile(r"\b(Stage(?:Put|Delete)IndexEntry)\s*\(")
TS_ARG_PUT_RE = re.compile(r"^([A-Za-z_]\w*(\.|->))?ts$")
TS_ARG_DELETE_RE = re.compile(
    r"^([A-Za-z_]\w*(\.|->))?(ts|old_ts)\s*-\s*kDelta$")
# A parameter declaration ("Timestamp ts"), not a call argument.
PARAM_DECL_RE = re.compile(
    r"^(const\s+)?[A-Za-z_][\w:<>]*[&*\s]+[A-Za-z_]\w*$")
LSM_INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include\s+"(cluster|core)/', re.M)
IGNORE_ERROR_RE = re.compile(r"\.\s*IgnoreError\s*\(\s*\)")


def raw_mutex(sf):
    for m in RAW_SYNC_RE.finditer(sf.clean):
        yield (line_of(sf.clean, m.start()),
               "raw std::%s is invisible to thread-safety analysis; use "
               "the annotated wrappers in util/mutex.h" % m.group(1))


def naked_new(sf):
    lines = {line_of(sf.clean, m.start())
             for m in NAKED_NEW_RE.finditer(sf.clean)}
    for line in sorted(lines):
        yield line, "naked new; use a smart-pointer factory"


def index_ts(sf):
    text = sf.clean_str
    for m in INDEX_CALL_RE.finditer(text):
        if text[max(0, m.start() - 2):m.start()] == "::":
            continue  # a definition (`IndexManager::StagePutIndexEntry(`)
        argtext = balanced_args(text, m.end() - 1)
        args = split_top_level_args(argtext) if argtext is not None else []
        if len(args) < 3:
            continue
        ts_arg = re.sub(r"\s+", " ", args[2])
        if PARAM_DECL_RE.match(ts_arg):
            continue
        func = m.group(1)
        if func.endswith("PutIndexEntry"):
            ok = TS_ARG_PUT_RE.match(ts_arg)
            want = "the base edit's `<x>.ts` verbatim"
        else:
            ok = TS_ARG_DELETE_RE.match(ts_arg)
            want = "`<x>.ts - kDelta` (or `old_ts - kDelta`) verbatim"
        if not ok:
            yield (line_of(text, m.start()),
                   "%s timestamp argument is '%s'; section 4.3 requires %s "
                   "(index entries at the base edit's ts, old-entry deletes "
                   "at ts - delta)" % (func, ts_arg, want))


def lsm_layering(sf):
    for m in LSM_INCLUDE_RE.finditer(sf.clean_str):
        yield (line_of(sf.clean_str, m.start()),
               "src/lsm/ must not include %s/ headers; the storage engine "
               "stays below the distribution and index layers" % m.group(1))


def _has_comment(raw_line, str_line):
    """True when raw_line carries a `//` comment with some text. str_line
    is the same line with strings kept, so a "//" inside a string
    literal does not count."""
    i = raw_line.find("//")
    while i >= 0:
        if str_line[i:i + 2].strip() == "":
            return raw_line[i + 2:].strip(" /") != ""
        i = raw_line.find("//", i + 1)
    return False


def ignore_error(sf):
    """A rationale is a // comment on any line of the statement, or a
    comment line directly above its first line."""
    clean = sf.clean
    raw_lines = sf.raw.split("\n")
    str_lines = sf.clean_str.split("\n")
    for m in IGNORE_ERROR_RE.finditer(clean):
        # The statement starts after the previous top-level ; or {.
        # Balanced brackets are skipped so initializer braces and call
        # arguments inside the statement are not taken for its start.
        depth, i = 0, m.start() - 1
        while i >= 0:
            c = clean[i]
            if c in ")]}":
                depth += 1
            elif c in "([{":
                if depth == 0:
                    break
                depth -= 1
            elif c == ";" and depth == 0:
                break
            i -= 1
        start = i + 1
        while start < m.start() and clean[start].isspace():
            start += 1
        first, last = line_of(clean, start), line_of(clean, m.start())
        if any(_has_comment(raw_lines[k], str_lines[k])
               for k in range(first - 1, min(last, len(raw_lines)))):
            continue
        above = raw_lines[first - 2].lstrip() if first >= 2 else ""
        if above.startswith("//") and above.strip(" /") != "":
            continue
        yield (last, ".IgnoreError() without an adjacent rationale "
                     "comment; say why dropping this Status is safe "
                     "(see util/status.h)")


RULES = {
    "raw-mutex": raw_mutex,
    "naked-new": naked_new,
    "index-ts": index_ts,
    "lsm-layering": lsm_layering,
    "ignore-error": ignore_error,
}

# The path prefix each rule covers (rules.py holds the exempt files).
SCOPE = {rule: "src/" for rule in RULES}
SCOPE["lsm-layering"] = "src/lsm/"
