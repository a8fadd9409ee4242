"""The ``python -m repro lint`` subcommand.

Runs the AST lint rules (including the SIM2xx whole-program
parallel-safety pass) over files/directories and reports findings in
human or JSON form. Exit status: 0 when no finding reaches the failure
threshold (default ``error``; ``--strict`` lowers it to ``warning``),
1 otherwise, 2 on usage errors such as a missing path. ``--sarif-out``
additionally writes a SARIF 2.1.0 document.
"""

from __future__ import annotations

import argparse
import os

from .astlint import lint_paths_program
from .export import write_sarif
from .findings import Severity, findings_to_json, format_findings
from .rules import all_rules

__all__ = ["add_lint_arguments", "run_lint"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint CLI options to an argparse parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (directories are walked for .py)",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        default="human",
        choices=["human", "json"],
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings as well as errors",
    )
    parser.add_argument(
        "--sarif-out",
        default=None,
        metavar="FILE",
        help="also write findings as a SARIF 2.1.0 document",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )


def _rule_table() -> str:
    rows = [
        (r.rule_id, r.name, r.severity.name.lower(),
         ",".join(r.scope) if r.scope else "(everywhere)", r.description)
        for r in all_rules()
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row[:4], widths)) + "  " + row[4]
        for row in rows
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute the lint subcommand; returns the process exit status."""
    if args.list_rules:
        print(_rule_table())
        return 0
    if not args.paths:
        print("error: at least one PATH is required (or use --list-rules)")
        return 2
    for p in args.paths:
        if not os.path.exists(p):
            print(f"error: no such path: {p}")
            return 2
    rules = all_rules()
    if args.select:
        wanted = {x.strip() for x in args.select.split(",") if x.strip()}
        rules = [r for r in rules if r.rule_id in wanted]
        unknown = wanted - {r.rule_id for r in rules}
        if unknown:
            print(f"error: unknown rule ids: {sorted(unknown)}")
            return 2

    findings, program, files_scanned = lint_paths_program(args.paths, rules)
    if args.sarif_out:
        write_sarif(args.sarif_out, findings, rules)
    print(findings_to_json(findings) if args.fmt == "json" else format_findings(findings))
    if args.fmt == "human" and program is not None:
        s = program.stats
        print(
            f"simracer: {files_scanned} files, {s['functions']} functions, "
            f"{s['call_edges'] + s['ref_edges']} edges, {s['seeds']} seeds, "
            f"{s['reachable']} LP-reachable"
        )
    threshold = Severity.WARNING if args.strict else Severity.ERROR
    return 1 if any(f.severity >= threshold for f in findings) else 0
