"""Finding model shared by the code lints and the artifact validators.

A :class:`Finding` is one diagnostic: a rule id, a severity, a location
(file path plus line/column for code lints, an artifact label for
validators), and a human-readable message. The CLI renders findings
either as GCC-style text or as a JSON document suitable for CI gating.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass

__all__ = ["Severity", "Finding", "format_findings", "findings_to_json"]


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering allows ``>=`` threshold checks."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, name: str) -> "Severity":
        """Parse a case-insensitive severity name ('error', 'warning', 'info')."""
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {name!r}; expected one of "
                f"{[s.name.lower() for s in cls]}"
            ) from None


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a lint rule or an artifact validator.

    ``path`` is a file path for code lints or an artifact label (for
    example ``<topology>``) for validators; ``line``/``col`` are 1-based
    and 0 when the finding has no source location.
    """

    rule_id: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """GCC-style one-line rendering: ``path:line:col: SEV RULE message``."""
        loc = f"{self.path}:{self.line}:{self.col}" if self.line else self.path
        return f"{loc}: {self.severity.name.lower()} {self.rule_id} {self.message}"


def _sort_key(f: Finding) -> tuple:
    return (f.path, f.line, f.col, f.rule_id)


def format_findings(findings: list[Finding]) -> str:
    """Human-readable report: sorted findings plus a severity tally."""
    ordered = sorted(findings, key=_sort_key)
    lines = [f.render() for f in ordered]
    tally = {s: sum(1 for f in findings if f.severity is s) for s in Severity}
    summary = ", ".join(
        f"{n} {s.name.lower()}{'s' if n != 1 else ''}"
        for s, n in sorted(tally.items(), reverse=True)
        if n
    )
    lines.append(summary if findings else "clean: no findings")
    return "\n".join(lines)


def findings_to_json(findings: list[Finding]) -> str:
    """JSON document: ``{"findings": [...], "counts": {...}}`` (stable order)."""
    ordered = sorted(findings, key=_sort_key)
    payload = {
        "findings": [
            {**asdict(f), "severity": f.severity.name.lower()} for f in ordered
        ],
        "counts": {
            s.name.lower(): sum(1 for f in findings if f.severity is s)
            for s in Severity
        },
    }
    return json.dumps(payload, indent=2)


