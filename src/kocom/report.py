"""Deterministic check records and verification reports.

A check couples an identifier with a plain-language statement of the fact
being verified and the expected/actual values rendered as strings.  The
structured report payload is {suite, checks[], summary} with checks sorted
by id; wall-clock timing is kept outside the payload so that reports are
byte-identical across runs.

kocom's value records, VerificationReport included, have one form: a
`collections.namedtuple` subclass with `__slots__ = ()`, so no instance has
a `__dict__`.  A record that normalises or validates its fields does that in
`__new__` before `super().__new__`.  A record hashes as the tuple of its
fields, so set and dict orders are those of the field tuples.  Being a
tuple, a record also compares equal to the plain tuple of its fields, can be
iterated, indexed and ordered, concatenates under `+` (and repeats under
`n * record`), and refuses assignment to a field or to any new attribute
with AttributeError.  A report is built once, from the checks its suite
yields, and holds them as a tuple.
"""

from __future__ import annotations

from collections import namedtuple


class Check(namedtuple("Check", "check_id citation expected actual")):
    __slots__ = ()

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


class VerificationReport(namedtuple("VerificationReport", "suite checks")):
    """A suite's checks, stored as a tuple in the order they were yielded."""

    __slots__ = ()

    def __new__(cls, suite: str, checks):
        return super().__new__(cls, suite, tuple(checks))

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
        """json.dumps(self.to_dict(), indent=2) + "\\n", byte for byte, for str
        fields (as `check` makes them), in one pass with json's C string
        escaper: with indent set, json.dumps takes its pure-Python encoder."""
        from json.encoder import encode_basestring_ascii as q

        items = ",\n".join(
            f'    {{\n      "id": {q(c.check_id)},\n      "citation": {q(c.citation)},\n'
            f'      "status": "{c.status}",\n      "expected": {q(c.expected)},\n'
            f'      "actual": {q(c.actual)}\n    }}'
            for c in self.sorted_checks()
        )
        checks = f"[\n{items}\n  ]" if items else "[]"
        s = self.summary
        return (
            f'{{\n  "suite": {q(self.suite)},\n  "checks": {checks},\n  "summary": {{\n'
            f'    "total": {s["total"]},\n    "passed": {s["passed"]},\n    "failed": {s["failed"]}\n  }}\n}}\n'
        )

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
