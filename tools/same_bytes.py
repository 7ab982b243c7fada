"""Compare kocom's output bytes at a git revision with the working tree's.

    python tools/same_bytes.py REV

REV's `src/` is extracted with `git archive` into a temporary directory,
and one fixed grid of cases runs in fresh processes against both trees,
under PYTHONHASHSEED=0, PYTHONHASHSEED=1 and `python -S`:

- the `--out` reports of `verify all`, `so3-homology`, `cocycles` over
  -20..20, `char-classes` at caps 4, 13, 32 and 64, and `surface-ko` with
  no selector and for the sphere, genus:40 and rp:80;
- `ko_presentation(S).to_text()` for the sphere, genus 1..40 and rp 1..80,
  one process per tree;
- the stdout of each script in `demos/` (the working tree's scripts, run
  on either tree's package).

For each case whose exit code or bytes differ it prints the first
differing line, and it exits 1 if any case differs.  Only local git is
used.
"""

from __future__ import annotations

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
    *(["char-classes", "--degree-cap", str(cap)] for cap in (4, 13, 32, 64)),
    ["surface-ko"],
    *(["surface-ko", "--surface", label] for label in ("sphere", "genus:40", "rp:80")),
]

PRESENTATIONS = """\
from kocom.surfaces import SPHERE, ko_presentation, nonorientable, orientable
surfaces = [SPHERE, *map(orientable, range(1, 41)), *map(nonorientable, range(1, 81))]
for surface in surfaces:
    print(f"== {surface.label}")
    print(ko_presentation(surface).to_text(), end="")
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
    out.append(("ko_presentation texts", ["-c", PRESENTATIONS], False))
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


def first_difference(old: tuple, new: tuple) -> str | None:
    """None when both runs agree, else their first differing line."""
    if old == new:
        return None
    if old[0] != new[0]:
        return f"exit {old[0]} at REV, {new[0]} in the working tree"
    old_lines, new_lines = old[1].decode().splitlines(), new[1].decode().splitlines()
    for number, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        if a != b:
            return f"line {number}: REV {a[:160]!r}, working tree {b[:160]!r}"
    number = min(len(old_lines), len(new_lines)) + 1
    return f"line {number}: one output ends ({len(old_lines)} lines at REV, {len(new_lines)} in the working tree)"


def compare(old_src: Path, new_src: Path) -> list:
    """(case, mode, first difference or None) of every case in every mode."""
    grid = [(case, mode) for case in cases() for mode in MODES]

    def one(item):
        (name, argv, writes_out), (mode, flags, env) = item
        old = run(old_src, flags, env, argv, writes_out)
        new = run(new_src, flags, env, argv, writes_out)
        return name, mode, first_difference(old, new)

    with ThreadPoolExecutor(max_workers=2) as pool:  # two child processes at a time
        return list(pool.map(one, grid))


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "src.tar"
        git = ["git", "archive", "--format=tar", "-o", str(archive), rev, "src"]
        if subprocess.run(git, cwd=ROOT).returncode:
            print(f"same_bytes: git archive failed for {rev!r}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-xf", str(archive), "-C", tmp], check=True)
        results = compare(Path(tmp) / "src", ROOT / "src")
    differing = [(name, mode, diff) for name, mode, diff in results if diff]
    for name, mode, diff in differing:
        print(f"DIFFERS {name} [{mode}]: {diff}")
    print(f"same_bytes: {len(results) - len(differing)} of {len(results)} runs identical to {rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
