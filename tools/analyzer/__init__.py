"""Diff-Index static checker (DESIGN.md section 15).

A self-contained, stdlib-only Python package: a comment/string-blanking
tokenizer, a symbol table, a name-resolved call graph and held-lock
dataflow, run over every translation unit by one rule engine — the
interprocedural lock, flow and crash-ordering rules, the declared
lock-order rule, the DESIGN.md catalog rules and the per-file textual
rules — with one waiver syntax, ANALYZER_WAIVE(rule): rationale.

Run as `python3 tools/analyzer`; see cli.py for flags.
"""
