"""Structured experiment reports with deterministic JSON serialization.

Verdict strings are op-specific (``pass``/``fail``/``inconclusive``,
``normal-at-(r,t)``/``non-normal``, ...).  ``ok`` carries the boolean the
exit code is derived from; ``None`` marks purely informational reports.
"""

from __future__ import annotations

import json


def jsonable(value):
    """Recursively convert tuples/sets to lists for JSON output."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [jsonable(v) for v in sorted(value)]
    return value


class Report:
    def __init__(self, claim: str, verdict: str, ok: bool | None = None,
                 witnesses: list | None = None, parameters: dict | None = None,
                 notes: list | None = None):
        self.claim = claim
        self.verdict = verdict
        self.ok = ok
        self.witnesses = [] if witnesses is None else witnesses
        self.parameters = {} if parameters is None else parameters
        self.notes = [] if notes is None else notes

    def to_dict(self):
        return {
            "claim": self.claim,
            "verdict": self.verdict,
            "ok": self.ok,
            "witnesses": jsonable(self.witnesses),
            "parameters": jsonable(self.parameters),
            "notes": jsonable(self.notes),
        }


def json_bytes(obj) -> bytes:
    """Canonical JSON bytes (sorted keys, fixed separators, trailing newline)."""
    return (json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"),
                       ensure_ascii=False) + "\n").encode("utf-8")


def json_pretty(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
