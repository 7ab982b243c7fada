"""Command-line verifier.

    kocom verify <suite> [options]

Suites: cocycles, so3-homology, char-classes, surface-ko, all.  Options,
checked by suites.check_option: --k-range/--n-range as lo..hi of at most
81 values (MAX_RANGE_VALUES, 0.10 s), --surface sphere | genus:<g> |
rp:<n> with b1 at most 320 (MAX_SURFACE_B1, 0.04 s), --degree-cap 4..64 in
ASCII digits (MAX_DEGREE_CAP, 0.30 s), --out for the report; each time is
at the bound.  Exit code 0 when every check passes, 1 when any fails or
none ran, 2 when argparse rejects an argument or --out is unwritable.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from contextlib import nullcontext

from .report import VerificationReport
from .suites import DEFAULT_OPTIONS, SUITES, check_option, run_suite
from .suites import MAX_DEGREE_CAP, MAX_RANGE_VALUES  # noqa: F401  (re-exported)
from .surfaces import Surface


def checked(key: str, parse):
    """The argparse type of option `key`: parse(text), then suites.check_option.
    A TypeError or ValueError from either is argparse's error: exit 2, usage line."""

    def convert(text: str):
        try:
            return check_option(key, parse(text))
        except (TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def read_range(text: str) -> tuple:
    match = re.fullmatch(r"(-?[0-9]+)\.\.(-?[0-9]+)", text)
    if not match:
        raise ValueError(f"expected lo..hi, got {text!r}")
    return int(match[1]), int(match[2])


def read_degree_cap(text: str):
    # ASCII digits only; other text stays text, which check_option rejects as no int.
    return int(text) if re.fullmatch(r"[0-9]+", text) else text


parse_range = checked("k_range", read_range)
parse_surface = checked("surface", Surface.parse)
parse_degree_cap = checked("degree_cap", read_degree_cap)


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
    (k_lo, k_hi), (n_lo, n_hi) = DEFAULT_OPTIONS["k_range"], DEFAULT_OPTIONS["n_range"]
    cap = DEFAULT_OPTIONS["degree_cap"]
    for key, parse, metavar, text in (
        ("k_range", parse_range, "LO..HI", f"cocycle index range (default {k_lo}..{k_hi})"),
        ("n_range", checked("n_range", read_range), "LO..HI", f"power range (default {n_lo}..{n_hi})"),
        ("surface", parse_surface, "SEL", "restrict surface checks: sphere | genus:<g> | rp:<n>"),
        ("degree_cap", parse_degree_cap, "D", f"degree cap for the characteristic algebra (default {cap})"),
    ):
        flag = "--" + key.replace("_", "-")
        verify.add_argument(flag, type=parse, default=DEFAULT_OPTIONS[key], metavar=metavar, help=text)
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
