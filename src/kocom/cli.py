"""Command-line verifier.

    kocom verify <suite> [options]

Suites: cocycles, so3-homology, char-classes, surface-ko, all.  Options:
--k-range/--n-range as inclusive lo..hi pairs of at most 41 values,
--surface as sphere | genus:<g> | rp:<n> with b1 <= 40, --degree-cap
4..32 for the characteristic algebra, and --out for the structured
report.  Exit code 0 when every check passes, 1 when any fails or none
ran, 2 for bad arguments or an --out path that cannot be written.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from contextlib import nullcontext

from .report import VerificationReport
from .suites import SUITES, run_suite
from .surfaces import Surface


def parse_range(text: str) -> tuple:
    match = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
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


#: Largest first Betti number --surface accepts (genus 20, rp:40).  The
#: per-surface checks grow with b1; at this bound they take a fraction of
#: a second.
MAX_SURFACE_B1 = 40

#: Most values --k-range and --n-range may each span (-20..20).  The cocycle
#: suite checks every (k, n) pair; at this bound it takes about 0.6 s on a
#: 2-CPU VM with Python 3.11.
MAX_RANGE_VALUES = 41

#: Largest --degree-cap; the characteristic algebra grows with the cap, and
#: at this bound `kocom verify char-classes` takes about a second from the
#: shell (medians of 0.81 and 0.96 s over two sets of 5 runs, 0.6 s of it
#: in the suite, on a 2-CPU VM with Python 3.11).
MAX_DEGREE_CAP = 32


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
    verify.add_argument(
        "--k-range",
        type=parse_range,
        default=(-5, 5),
        metavar="LO..HI",
        help="cocycle index range (default -5..5)",
    )
    verify.add_argument(
        "--n-range",
        type=parse_range,
        default=(-5, 5),
        metavar="LO..HI",
        help="power range (default -5..5)",
    )
    verify.add_argument(
        "--surface",
        type=parse_surface,
        default=None,
        metavar="SEL",
        help="restrict surface checks: sphere | genus:<g> | rp:<n>",
    )
    verify.add_argument(
        "--degree-cap",
        type=int,
        default=6,
        metavar="D",
        help="degree cap for the characteristic algebra (default 6)",
    )
    verify.add_argument(
        "--out", default=None, metavar="PATH", help="write the structured report here"
    )
    return parser


def run_verify(args: argparse.Namespace) -> int:
    if not 4 <= args.degree_cap <= MAX_DEGREE_CAP:
        print(f"error: --degree-cap must be between 4 and {MAX_DEGREE_CAP}", file=sys.stderr)
        return 2
    if args.surface is not None and args.suite not in ("surface-ko", "all"):
        print(f"warning: suite {args.suite} ignores --surface", file=sys.stderr)
    options = {
        "k_range": args.k_range,
        "n_range": args.n_range,
        "degree_cap": args.degree_cap,
        "surface": args.surface,
    }
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return run_verify(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
