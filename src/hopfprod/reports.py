"""Structured pass/fail reports for axiom and compatibility checkers.

Checkers never return bare booleans: each verified condition gets a named row,
and a failing row carries a witness (the basis tuple where the two sides of
the identity first differ).  The CLI renders reports both as a human table
and as a machine-readable JSON section.
"""
from __future__ import annotations

from typing import NamedTuple


class CheckItem(NamedTuple):
    """One named row of a report: a 3-tuple (condition, passed, witness)."""

    condition: str
    passed: bool
    witness: str | None = None


class Report:
    """An ordered list of named condition checks."""

    def __init__(self, title: str = ""):
        self.title = title
        self.items: list[CheckItem] = []

    def add(self, condition: str, passed: bool, witness: str | None = None):
        self.items.append(CheckItem(condition, passed, witness if not passed else None))

    def extend(self, other: Report):
        self.items.extend(other.items)

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.passed]

    def first_failure(self) -> CheckItem | None:
        fails = self.failures()
        return fails[0] if fails else None

    def to_obj(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"condition": it.condition, "passed": it.passed, "witness": it.witness}
                for it in self.items
            ],
        }

    def render(self) -> str:
        lines = []
        if self.title:
            lines.append(self.title)
        width = max((len(it.condition) for it in self.items), default=0)
        for it in self.items:
            status = "PASS" if it.passed else "FAIL"
            row = f"  {it.condition.ljust(width)}  {status}"
            if it.witness:
                row += f"  at {it.witness}"
            lines.append(row)
        return "\n".join(lines)

    def __repr__(self):
        bad = len(self.failures())
        return f"Report({self.title!r}, {len(self.items)} checks, {bad} failing)"
