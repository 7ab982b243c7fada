"""Command-line verifier.

    kocom verify <suite> [options]

Suites: cocycles, so3-homology, char-classes, surface-ko, all.  Options:
--k-range/--n-range as inclusive lo..hi pairs of at most 41 values,
--surface as sphere | genus:<g> | rp:<n> with b1 <= 80, --degree-cap
4..64 for the characteristic algebra (ASCII digits only), --out for the
structured report.  Exit code 0 when every check passes, 1 when any fails
or none ran, 2 when argparse rejects an argument or --out is unwritable.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from contextlib import nullcontext

from .report import VerificationReport
from .suites import DEFAULT_OPTIONS, SUITES, run_suite
from .surfaces import Surface


def parse_range(text: str) -> tuple:
    match = re.fullmatch(r"(-?[0-9]+)\.\.(-?[0-9]+)", text)
    if not match:
        raise argparse.ArgumentTypeError(f"expected lo..hi, got {text!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    if hi - lo + 1 > MAX_RANGE_VALUES:
        raise argparse.ArgumentTypeError(
            f"range {text!r} has {hi - lo + 1} values, above the limit {MAX_RANGE_VALUES}"
        )
    return lo, hi


#: Largest first Betti number --surface accepts (genus 40, rp:80).  The
#: per-surface checks grow with b1; at this bound `kocom verify surface-ko`
#: reports 0.03-0.04 s elapsed (7 runs each of rp:80 and genus:40, medians
#: 0.037 and 0.037 s, on a 2-CPU VM with Python 3.11).
MAX_SURFACE_B1 = 80

#: Most values --k-range and --n-range may each span (-20..20).  The cocycle
#: suite checks every (k, n) pair; at this bound it takes 0.06-0.11 s in
#: process on a shared 2-CPU VM with Python 3.11 (11 fresh processes,
#: median 0.09 s).
MAX_RANGE_VALUES = 41

#: Largest --degree-cap; the characteristic algebra grows with the cap, and
#: at this bound `kocom verify char-classes` takes about 0.5 s from the
#: shell (0.51-0.57 s over 5 runs, median 0.54 s, 0.44 s of it in the
#: suite, on a shared 2-CPU VM with Python 3.11).
MAX_DEGREE_CAP = 64


def parse_surface(text: str) -> Surface:
    try:
        surface = Surface.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if surface.b1 > MAX_SURFACE_B1:
        raise argparse.ArgumentTypeError(
            f"surface {text!r} has b1 = {surface.b1}, above the limit {MAX_SURFACE_B1}"
        )
    return surface


def parse_degree_cap(text: str) -> int:
    if re.fullmatch(r"[0-9]+", text) and 4 <= int(text) <= MAX_DEGREE_CAP:
        return int(text)
    raise argparse.ArgumentTypeError(f"expected an int between 4 and {MAX_DEGREE_CAP}, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kocom",
        description="exact verification suites for commutative-cocycle "
        "invariants, component homology, characteristic classes, and "
        "surface K-theory rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification suite")
    # Let bare range tokens like -5..5 through the option scanner.
    verify._negative_number_matcher = re.compile(r"^-\d")
    verify.add_argument("suite", choices=SUITES)
    k_lo, k_hi = DEFAULT_OPTIONS["k_range"]
    n_lo, n_hi = DEFAULT_OPTIONS["n_range"]
    verify.add_argument(
        "--k-range",
        type=parse_range,
        default=DEFAULT_OPTIONS["k_range"],
        metavar="LO..HI",
        help=f"cocycle index range (default {k_lo}..{k_hi})",
    )
    verify.add_argument(
        "--n-range",
        type=parse_range,
        default=DEFAULT_OPTIONS["n_range"],
        metavar="LO..HI",
        help=f"power range (default {n_lo}..{n_hi})",
    )
    verify.add_argument(
        "--surface",
        type=parse_surface,
        default=DEFAULT_OPTIONS["surface"],
        metavar="SEL",
        help="restrict surface checks: sphere | genus:<g> | rp:<n>",
    )
    verify.add_argument(
        "--degree-cap",
        type=parse_degree_cap,
        default=DEFAULT_OPTIONS["degree_cap"],
        metavar="D",
        help=f"degree cap for the characteristic algebra (default {DEFAULT_OPTIONS['degree_cap']})",
    )
    verify.add_argument(
        "--out", default=None, metavar="PATH", help="write the structured report here"
    )
    return parser


def run_verify(args: argparse.Namespace) -> int:
    if args.surface is not None and args.suite not in ("surface-ko", "all"):
        print(f"warning: suite {args.suite} ignores --surface", file=sys.stderr)
    options = {name: getattr(args, name) for name in DEFAULT_OPTIONS}
    try:
        # Opened before the suite runs, so an unwritable path fails before any check.
        out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext()
    except OSError as exc:
        print(f"error: cannot write the report to {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    with out:
        started = time.perf_counter()
        report: VerificationReport = run_suite(args.suite, options)
        elapsed = time.perf_counter() - started
        for line in report.text_lines():
            print(line)
        print(f"elapsed: {elapsed:.3f}s")
        if args.out:
            out.write(report.to_json())
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    return run_verify(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
