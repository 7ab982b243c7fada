"""Compare kocom's output bytes at a git revision with the working tree's.

    python tools/same_bytes.py REV [--expect CASE]...

REV's `src/` is extracted with `git archive` into a temporary directory,
and one fixed grid of cases runs in fresh processes against both trees,
under PYTHONHASHSEED=0, PYTHONHASHSEED=1 and `python -S`:

- the `--out` reports of `verify all`, `so3-homology`, `cocycles` over
  -20..20 and over -40..40 (the MAX_RANGE_VALUES bound), `char-classes`
  at caps 4, 6, 13, 32, 64, 176 and 240 (the MAX_DEGREE_CAP bound), and
  `surface-ko` with no selector and for the sphere, genus:40, rp:80,
  genus:160 and rp:320;
- the `surface-ko` report (`run_suite(...).to_json()`) and
  `ko_presentation(S).to_text()` for the sphere, genus 1..40 and
  rp 1..80, one process per tree for each;
- the sorted rows of `boundary_matrix(n)` for n = 1..7 and H_0..H_7 of
  `component_complex(7)`, one process per tree;
- the stdout of each script in `demos/` (the working tree's scripts, run
  on either tree's package).

Each `--expect CASE` names a case, as the output prints it (for example
`--expect "verify surface-ko --surface rp:320"`), that must differ from REV
in every mode; every other case must match.  Every case must also print
the same bytes and exit code in all three modes in the working tree
(REV's modes are not compared: old revisions are history).  For each run
that breaks a rule it prints the first differing line (or that an
expected case matched), and it exits 1 if any run does, 2 for an unknown
case or revision.  Only local git is used.  CI runs
`python tools/same_bytes.py HEAD`, which checks every case in every mode.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REPORTS = [
    ["all"],
    ["so3-homology"],
    ["cocycles", "--k-range=-20..20", "--n-range=-20..20"],
    ["cocycles", "--k-range=-40..40", "--n-range=-40..40"],
    *(["char-classes", "--degree-cap", str(cap)] for cap in (4, 6, 13, 32, 64, 176, 240)),
    ["surface-ko"],
    *(["surface-ko", "--surface", label] for label in ("sphere", "genus:40", "rp:80", "genus:160", "rp:320")),
]

SURFACES = """\
from kocom.suites import run_suite
from kocom.surfaces import SPHERE, ko_presentation, nonorientable, orientable
surfaces = [SPHERE, *map(orientable, range(1, 41)), *map(nonorientable, range(1, 81))]
"""

SURFACE_REPORTS = SURFACES + """\
for surface in surfaces:
    print(run_suite("surface-ko", {"surface": surface}).to_json(), end="")
"""

PRESENTATIONS = SURFACES + """\
for surface in surfaces:
    print(f"== {surface.label}")
    print(ko_presentation(surface).to_text(), end="")
"""

COMPONENT_COMPLEX = """\
from kocom.commuting import boundary_matrix, component_complex
for n in range(1, 8):
    print(f"== d_{n}")
    for row in boundary_matrix(n):
        print(sorted(row.items()))
complex7 = component_complex(7)
for p in range(8):
    print(f"H_{p} = {complex7.homology(p)}")
"""

#: (name, interpreter flags, environment) of each mode.
MODES = [
    ("PYTHONHASHSEED=0", [], {"PYTHONHASHSEED": "0"}),
    ("PYTHONHASHSEED=1", [], {"PYTHONHASHSEED": "1"}),
    ("python -S", ["-S"], {}),
]


def cases() -> list:
    """(name, argv after the interpreter flags, writes --out) of each case."""
    out = [(f"verify {' '.join(args)}", ["-m", "kocom.cli", "verify", *args], True) for args in REPORTS]
    out.append(("surface-ko reports", ["-c", SURFACE_REPORTS], False))
    out.append(("ko_presentation texts", ["-c", PRESENTATIONS], False))
    out.append(("component complex", ["-c", COMPONENT_COMPLEX], False))
    out += [(f"demo {demo.name}", [str(demo)], False) for demo in sorted((ROOT / "demos").glob("*.py"))]
    return out


def run(src: Path, flags: list, env: dict, argv: list, writes_out: bool) -> tuple:
    """(exit code, output bytes) of one case against the package in `src`:
    the --out report when the case writes one, else stdout."""
    environ = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    environ.update(env, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        argv = argv + ["--out", str(out)] if writes_out else argv
        done = subprocess.run(
            [sys.executable, *flags, "-W", "error", *argv],
            env=environ, cwd=tmp, capture_output=True, timeout=600,
        )
        if writes_out and out.exists():
            return done.returncode, out.read_bytes()
        return done.returncode, done.stdout + done.stderr if done.returncode else done.stdout


def first_difference(old: tuple, new: tuple, names: tuple = ("REV", "working tree")) -> str | None:
    """None when both runs agree, else their first differing line."""
    if old == new:
        return None
    a, b = names
    if old[0] != new[0]:
        return f"{a} exits {old[0]}, {b} exits {new[0]}"
    old_lines, new_lines = old[1].decode().splitlines(), new[1].decode().splitlines()
    for number, (x, y) in enumerate(zip(old_lines, new_lines), 1):
        if x != y:
            return f"line {number}: {a} {x[:160]!r}, {b} {y[:160]!r}"
    number = min(len(old_lines), len(new_lines)) + 1
    return f"line {number}: one output ends ({len(old_lines)} lines in {a}, {len(new_lines)} in {b})"


def compare(old_src: Path, new_src: Path) -> list:
    """(case, mode, REV's run, the working tree's run) of every case in every
    mode, each case's runs in MODES order."""
    grid = [(case, mode) for case in cases() for mode in MODES]

    def one(item):
        (name, argv, writes_out), (mode, flags, env) = item
        return name, mode, *(run(src, flags, env, argv, writes_out) for src in (old_src, new_src))

    with ThreadPoolExecutor(max_workers=2) as pool:  # two child processes at a time
        return list(pool.map(one, grid))


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="same_bytes.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", metavar="REV")
    parser.add_argument("--expect", action="append", default=[], metavar="CASE",
                        help="a case that must differ from REV (repeatable)")
    args = parser.parse_args(argv)
    expected = set(args.expect)
    if unknown := expected - {name for name, _, _ in cases()}:
        parser.error(f"unknown case(s): {', '.join(sorted(unknown))}")
    rev = args.rev
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "src.tar"
        git = ["git", "archive", "--format=tar", "-o", str(archive), rev, "src"]
        if subprocess.run(git, cwd=ROOT).returncode:
            print(f"same_bytes: git archive failed for {rev!r}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-xf", str(archive), "-C", tmp], check=True)
        results = compare(Path(tmp) / "src", ROOT / "src")
    wrong, diffs, first = 0, [], {}
    for name, mode, old, new in results:
        diff = first_difference(old, new)
        diffs.append((name, diff))
        if name in expected:
            print(f"EXPECTED {name} [{mode}]: {diff}" if diff else f"SAME {name} [{mode}]: expected to differ")
        elif diff:
            print(f"DIFFERS {name} [{mode}]: {diff}")
        wrong += (name in expected) == (diff is None)
        if modal := first_difference(first.setdefault(name, new), new, (MODES[0][0], mode)):
            print(f"MODE {name} [{mode}]: {modal}")
            wrong += 1
    others = [diff for name, diff in diffs if name not in expected]
    summary = f"same_bytes: {others.count(None)} of {len(others)} runs identical to {rev}"
    if expected:
        differing = sum(diff is not None for name, diff in diffs if name in expected)
        summary += f", {differing} of {len(diffs) - len(others)} expected runs differ"
    modes = sum(new == first[name] for name, _, _, new in results)
    print(f"{summary}; {modes} of {len(results)} working-tree runs identical to their case's {MODES[0][0]} run")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
