"""Held-lock dataflow over the program model.

Intra-procedural: a linear walk of each function body tracks brace
depth and the stack of scoped lock guards (MutexLock / WriterMutexLock
/ ReaderMutexLock, plus ReaderMutexLock::Release), producing the set of
held locks at every interesting event: lock acquisitions, call sites,
blocking operations, guarded-field writes.

Inter-procedural: a worklist propagates held-lock contexts through the
call graph. A context is a frozenset of HeldLock; when function F calls
G at a site where F holds H (plus F's own entry context C), G is
(re)analyzed under C ∪ H with the call chain recorded, so a report can
show the full acquisition path. Contexts are deduplicated per function;
the explosion bound (MAX_CONTEXTS per function) is reported, never
silently applied.
"""

import re
from collections import namedtuple

from source import line_of, balanced_args, split_top_level_args
from model import canonical_lock_name, CALL_BLACKLIST
import effects as fx

HeldLock = namedtuple("HeldLock", ["name", "shared", "rank"])

# Event kinds.
ACQUIRE = "acquire"
CALL = "call"
BLOCKING = "blocking"
GUARDED_WRITE = "guarded_write"
STATUS_DROP = "status_drop"
FAILPOINT = "failpoint"
EFFECT = fx.EFFECT

Event = namedtuple(
    "Event",
    ["kind", "pos", "line", "held", "data"],
)

GUARD_RE = re.compile(
    r"\b(MutexLock|WriterMutexLock|ReaderMutexLock)\s+(\w+)\s*\(")
GUARD_RELEASE_RE = re.compile(r"\b(\w+)\s*\.\s*Release\s*\(\s*\)")

# Blocking-operation catalog (DESIGN.md section 15). CondVar waits
# temporarily release their own mutex — the first argument is excluded
# from the held set at the wait.
CV_WAIT_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*Wait(?:For)?\s*\(")
JOIN_RE = re.compile(r"(?:\.|->)\s*[jJ]oin\s*\(\s*\)")
SYNC_RE = re.compile(r"(?:\.|->)\s*Sync\s*\(\s*\)")
CALL_SITE_RE = re.compile(
    r"(?:\b([A-Za-z_]\w*)\s*(?:\.|->)\s*)?\b([A-Za-z_]\w*)\s*\(")
YIELD_RE = re.compile(r"\bCHECK_YIELD(?:_RES)?\s*\(")
FAILPOINT_RE = re.compile(
    r"\b(?:DIFFINDEX_FAILPOINT|MaybeFail|Fires|IsArmed)\s*\(\s*\"([^\"]+)\"")
STATUS_LOCAL_RE = re.compile(r"\bStatus\s+(\w+)\s*=")

MAX_CONTEXTS = 64
MAX_CHAIN = 12


def first_arg(text, open_paren_pos):
    args = balanced_args(text, open_paren_pos)
    return "" if args is None else split_top_level_args(args)[0]


def build_events(program, fn):
    """Populates fn.events with the ordered event list and fn.has_yield /
    fn.direct_callees. Positions are relative to fn.sf.clean."""
    body = fn.body
    base = fn.body_start
    sf = fn.sf
    cls = fn.cls

    def make_held(expr, shared):
        name = canonical_lock_name(expr)
        bare = re.match(r"^[A-Za-z_]\w*$", expr.strip().lstrip("&")) is not None
        decl = program.locks_by_class.get((cls, name))
        if decl is None and not bare:
            decl = program.locks_global.get(name)
        rank = decl.rank if decl is not None else 0
        return HeldLock(name, shared, rank)

    # Pre-scan raw markers.
    markers = []  # (pos_in_body, kind, payload)
    for m in GUARD_RE.finditer(body):
        kind, var = m.group(1), m.group(2)
        expr = first_arg(body, m.end() - 1)
        shared = kind == "ReaderMutexLock"
        markers.append((m.start(), "guard", (var, make_held(expr, shared))))
    for m in GUARD_RELEASE_RE.finditer(body):
        markers.append((m.start(), "guard_release", m.group(1)))
    for m in CV_WAIT_RE.finditer(body):
        receiver = m.group(1)
        released = canonical_lock_name(first_arg(body, m.end() - 1))
        markers.append((m.start(), "cv_wait", (receiver, released)))
    for m in JOIN_RE.finditer(body):
        markers.append((m.start(), "join", None))
    for m in SYNC_RE.finditer(body):
        markers.append((m.start(), "sync", None))
    for m in CALL_SITE_RE.finditer(body):
        receiver, callee = m.group(1), m.group(2)
        if callee in CALL_BLACKLIST or callee in ("Wait", "WaitFor"):
            continue
        # Receiver typing beyond the regex capture: accessor chains
        # (`region->tree()->Flush(...)`) have no identifier for group 1
        # at all, and member paths (`options_.env->RemoveFile(...)`)
        # capture only the last link. chain_receiver_type walks the
        # whole postfix expression; for a plain `Foo(...)` call it
        # returns None immediately (no separator before the name).
        recv_type = program.chain_receiver_type(fn, body, m.start(2))
        markers.append((m.start(), "call",
                        (receiver, callee, recv_type, m.end() - 1)))
    for m in YIELD_RE.finditer(body):
        fn.has_yield = True
    # Guarded-field writes: own-member mutations only (`x_ = ...`,
    # `x_ += ...`, `x_++`, `--x_`, `x_.clear()`-style mutator calls).
    fields = program.guarded_by_class.get(cls, {})
    if fields:
        field_alt = "|".join(re.escape(f) for f in fields)
        write_re = re.compile(
            r"(?<![\w.>])(?:this\s*->\s*)?(" + field_alt + r")\s*"
            r"(=(?!=)|\+=|-=|\|=|&=|\^=|\+\+|--|\.\s*(?:push_back|push_front"
            r"|pop_back|pop_front|emplace|emplace_back|insert|erase|clear"
            r"|assign|resize|reset|swap|Add|Sub|store|fetch_add|fetch_sub)\b)")
        for m in write_re.finditer(body):
            # `x_ = ...` inside a declaration `Type x_ = ...` at class
            # scope can't appear in a function body; no filtering needed.
            markers.append((m.start(), "guarded_write",
                            (m.group(1), fields[m.group(1)])))
    # Status locals (status-flow rule): `Status s = ...;` whose variable
    # is never read afterwards.
    for m in STATUS_LOCAL_RE.finditer(body):
        var = m.group(1)
        rest = body[m.end():]
        # Any later mention of the variable counts as a use.
        if not re.search(r"\b%s\b" % re.escape(var), rest):
            markers.append((m.start(), "status_local", var))
    for m in FAILPOINT_RE.finditer(sf.clean_str[fn.body_start:fn.body_end]):
        markers.append((m.start(), "failpoint", m.group(1)))
    # Durable-effect markers with no call-site shape: success returns
    # from RPC handlers (the ack moment) and dead-letter recordings.
    if fn.return_type == "Status" and fx.HANDLER_NAME_RE.match(fn.name or ""):
        for m in fx.RPC_ACK_RE.finditer(body):
            markers.append((m.start(), "rpc_ack", None))
    for m in fx.DEAD_LETTER_RE.finditer(body):
        markers.append((m.start(), "dead_letter", None))

    markers.sort(key=lambda t: t[0])

    # Linear walk: depth + guard stack -> held set at each marker. The
    # scope stack assigns each `{...}` a stable id so the crash-window
    # rule can ask "is this failpoint in the same innermost scope as
    # that dead-letter record" without re-walking the text.
    events = []
    depth = 0
    held_stack = []  # (depth_at_acquisition, var, HeldLock)
    scope_counter = 0
    scope_stack = [0]
    mi = 0
    # REQUIRES entry locks resolve exactly like guard expressions: a
    # bare member name binds class-only (Client::mu_ must not inherit
    # AsyncUpdateQueue::mu_'s rank), receiver expressions fall back to
    # the global registry.
    entry = tuple(make_held(raw, sh) for raw, sh in fn.requires)

    def held_now():
        return entry + tuple(h for _, _, h in held_stack)

    for i, ch in enumerate(body):
        while mi < len(markers) and markers[mi][0] == i:
            pos, kind, payload = markers[mi]
            mi += 1
            line = line_of(sf.clean, base + pos)
            if kind == "guard":
                var, h = payload
                events.append(Event(ACQUIRE, base + pos, line, held_now(),
                                    {"lock": h}))
                held_stack.append((depth, var, h))
            elif kind == "guard_release":
                var = payload
                for k in range(len(held_stack) - 1, -1, -1):
                    if held_stack[k][1] == var:
                        del held_stack[k]
                        break
            elif kind == "cv_wait":
                receiver, released = payload
                held = tuple(h for h in held_now() if h.name != released)
                events.append(Event(BLOCKING, base + pos, line, held,
                                    {"op": "condvar-wait",
                                     "detail": receiver + ".Wait"}))
            elif kind == "join":
                events.append(Event(BLOCKING, base + pos, line, held_now(),
                                    {"op": "thread-join", "detail": "join"}))
            elif kind == "sync":
                events.append(Event(BLOCKING, base + pos, line, held_now(),
                                    {"op": "fsync", "detail": "Sync"}))
                events.append(Event(EFFECT, base + pos, line, held_now(),
                                    {"effect": "fsync",
                                     "scope": scope_stack[-1]}))
            elif kind == "call":
                receiver, callee, recv_type, paren = payload
                fn.direct_callees.add(callee)
                eff = fx.classify_call(program, fn, callee, receiver,
                                       recv_type, balanced_args(body, paren))
                if eff is not None:
                    events.append(Event(EFFECT, base + pos, line, held_now(),
                                        {"effect": eff,
                                         "scope": scope_stack[-1]}))
                events.append(Event(CALL, base + pos, line, held_now(),
                                    {"receiver": receiver, "callee": callee,
                                     "recv_type": recv_type}))
                if callee == "Call" and receiver and "fabric" in receiver:
                    events.append(Event(BLOCKING, base + pos, line,
                                        held_now(),
                                        {"op": "fabric-rpc",
                                         "detail": receiver + "->Call"}))
            elif kind == "guarded_write":
                fname, field = payload
                events.append(Event(GUARDED_WRITE, base + pos, line,
                                    held_now(),
                                    {"field": fname, "guard": field.guard}))
            elif kind == "status_local":
                events.append(Event(STATUS_DROP, base + pos, line,
                                    held_now(), {"var": payload}))
            elif kind == "failpoint":
                events.append(Event(FAILPOINT, base + pos, line, held_now(),
                                    {"name": payload,
                                     "scope": scope_stack[-1]}))
            elif kind == "rpc_ack":
                events.append(Event(EFFECT, base + pos, line, held_now(),
                                    {"effect": "rpc-ack",
                                     "scope": scope_stack[-1]}))
            elif kind == "dead_letter":
                events.append(Event(EFFECT, base + pos, line, held_now(),
                                    {"effect": "dead-letter-record",
                                     "scope": scope_stack[-1]}))
        if ch == "{":
            depth += 1
            scope_counter += 1
            scope_stack.append(scope_counter)
        elif ch == "}":
            depth -= 1
            if len(scope_stack) > 1:
                scope_stack.pop()
            while held_stack and held_stack[-1][0] > depth:
                held_stack.pop()
    fn.events = events


class Context(namedtuple("Context", ["held", "chain"])):
    """held: frozenset of HeldLock inherited from callers; chain: tuple of
    (caller_qualname, rel_path, line) call sites leading here."""


def propagate(program, notes):
    """Runs the interprocedural worklist. Returns {fn: [Context]}.
    `notes` collects non-silent capacity messages."""
    contexts = {}
    worklist = []
    unresolved = set()
    chain_capped = set()
    for fn in program.functions:
        base = Context(frozenset(), ())
        contexts[fn] = {base.held: base}
        worklist.append((fn, base))
    while worklist:
        fn, ctx = worklist.pop()
        for ev in fn.events:
            if ev.kind != CALL:
                continue
            ranked = frozenset(
                h for h in (ctx.held | set(ev.held)) if h.rank > 0)
            if not ranked:
                continue
            targets = program.resolve_call(
                ev.data["callee"], ev.data["receiver"], fn,
                ev.data.get("recv_type"))
            if not targets and \
                    len(program.defs_by_name.get(ev.data["callee"], ())) > 1:
                unresolved.add((fn.qualname, ev.data["callee"], ev.line))
            for callee in targets:
                if callee is fn:
                    continue
                seen = contexts[callee]
                if ranked in seen:
                    continue
                if len(seen) >= MAX_CONTEXTS:
                    notes.append(
                        "context cap (%d) reached at %s; further caller "
                        "lock contexts not explored" %
                        (MAX_CONTEXTS, callee.qualname))
                    continue
                if len(ctx.chain) >= MAX_CHAIN:
                    chain_capped.add(fn.qualname)
                    continue
                new = Context(ranked, ctx.chain +
                              ((fn.qualname, fn.sf.rel, ev.line),))
                seen[ranked] = new
                worklist.append((callee, new))
    if unresolved:
        notes.append(
            "%d under-lock call site(s) left unresolved (callee name "
            "defined in multiple classes, receiver type unknown)"
            % len(unresolved))
    for q in sorted(chain_capped):
        notes.append("call-chain cap (%d) reached below %s; deeper "
                     "contexts not explored" % (MAX_CHAIN, q))
    return {fn: list(ctxs.values()) for fn, ctxs in contexts.items()}
