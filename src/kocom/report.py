"""Deterministic check records and verification reports.

A check couples an identifier with a plain-language statement of the fact
being verified and the expected/actual values rendered as strings.  The
structured report payload is {suite, checks[], summary} with checks sorted
by id; wall-clock timing is kept outside the payload so that reports are
byte-identical across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    check_id: str
    citation: str
    expected: str
    actual: str

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "citation": self.citation,
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
        }


def check(check_id: str, citation: str, expected, actual) -> Check:
    return Check(check_id, citation, str(expected), str(actual))


@dataclass
class VerificationReport:
    suite: str
    checks: list = field(default_factory=list)

    def add(self, c: Check) -> None:
        self.checks.append(c)

    def extend(self, checks) -> None:
        self.checks.extend(checks)

    def sorted_checks(self) -> list:
        return sorted(self.checks, key=lambda c: c.check_id)

    @property
    def all_passed(self) -> bool:
        """True when at least one check ran and every check passed."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    @property
    def summary(self) -> dict:
        failed = sum(1 for c in self.checks if not c.passed)
        return {
            "total": len(self.checks),
            "passed": len(self.checks) - failed,
            "failed": failed,
        }

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [c.to_dict() for c in self.sorted_checks()],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def text_lines(self) -> list:
        lines = []
        for c in self.sorted_checks():
            lines.append(f"[{c.status.upper():4s}] {c.check_id}: {c.citation}")
            if not c.passed:
                lines.append(f"       expected {c.expected}")
                lines.append(f"       actual   {c.actual}")
        s = self.summary
        lines.append(f"suite {self.suite}: {s['passed']}/{s['total']} checks passed")
        return lines
