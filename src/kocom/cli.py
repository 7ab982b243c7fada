"""Command-line verifier; `kocom --help` prints USAGE, then this text.

SUITE: cocycles, so3-homology, char-classes, surface-ko, all.  Options,
written --flag VALUE or --flag=VALUE (a unique prefix of a flag will do;
a repeated option keeps its last value), each checked by
suites.check_option: --k-range/--n-range as lo..hi of at most 81 values
(MAX_RANGE_VALUES, 0.10 s), --surface sphere | genus:<g> | rp:<n> with b1
at most 320 (MAX_SURFACE_B1, 0.04 s), --degree-cap 4..240 in ASCII digits
(MAX_DEGREE_CAP, 0.28 s), --out for the report, -h/--help for this text;
each time is at the bound.  Exit code 0 when every check passes, 1 when
any fails or none ran, 2 on a bad argument (usage line and error on
stderr) or an unwritable --out.
"""

from __future__ import annotations

import sys
import time
from contextlib import nullcontext

from .suites import DEFAULT_OPTIONS, SUITES, check_option, run_suite
from .suites import MAX_DEGREE_CAP, MAX_RANGE_VALUES  # noqa: F401  (re-exported)
from .surfaces import Surface

USAGE = "usage: kocom verify SUITE [--k-range LO..HI] [--n-range LO..HI] [--surface SEL] [--degree-cap D] [--out PATH]"


def read_range(text: str) -> tuple:
    """lo..hi, each end an optional '-' and ASCII digits (int() alone would
    also take '1_0', '+1', ' 1' and non-ASCII digits)."""
    lo, dots, hi = text.partition("..")
    digits = [end.removeprefix("-") for end in (lo, hi)]
    if not (dots and all(d.isascii() and d.isdigit() for d in digits)):
        raise ValueError(f"expected lo..hi, got {text!r}")
    return int(lo), int(hi)


def read_degree_cap(text: str):
    # ASCII digits only; other text stays text, which check_option rejects as no int.
    return int(text) if text.isascii() and text.isdigit() else text


def fail(message: str):
    sys.stderr.write(f"{USAGE}\nkocom: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv: list) -> dict:
    """The suite, --out and the four suite options of `kocom verify`, each
    value checked by suites.check_option; SystemExit(2) on any bad argument,
    SystemExit(0) after printing the help."""
    flags = {
        "--k-range": ("k_range", read_range),
        "--n-range": ("n_range", read_range),
        "--surface": ("surface", Surface.parse),
        "--degree-cap": ("degree_cap", read_degree_cap),
        "--out": ("out", None),
        "--help": ("help", None), "-h": ("help", None),
    }
    args, words, tokens = {**DEFAULT_OPTIONS, "out": None}, [], iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        name, eq, value = token.partition("=")
        found = [flag for flag in flags if flag.startswith(name)]
        if len(found) != 1:
            fail(f"{'ambiguous' if found else 'unrecognized'} option {name}")
        (flag,) = found
        key, read = flags[flag]
        if key == "help":
            sys.stdout.write(f"{USAGE}\n\n{__doc__ or ''}")
            raise SystemExit(0)
        if not eq and (value := next(tokens, None)) is None:
            fail(f"argument {flag}: expected one argument")
        try:
            args[key] = check_option(key, read(value)) if read else value
        except (TypeError, ValueError) as exc:
            fail(f"argument {flag}: {exc}")
    if argv[:1] != ["verify"] or len(words) != 2 or words[1] not in SUITES:
        fail(f"expected verify SUITE, SUITE one of {', '.join(SUITES)}; got {' '.join(words) or 'nothing'}")
    return {"suite": words[1], **args}


def run_verify(args: dict) -> int:
    suite, out_path, options = args.pop("suite"), args.pop("out"), args
    if options["surface"] is not None and suite not in ("surface-ko", "all"):
        print(f"warning: suite {suite} ignores --surface", file=sys.stderr)
    try:
        # Opened before the suite runs, so an unwritable path fails before any check.
        out = open(out_path, "w", encoding="utf-8") if out_path else nullcontext()
    except OSError as exc:
        print(f"error: cannot write the report to {out_path}: {exc.strerror}", file=sys.stderr)
        return 2
    with out:
        started = time.perf_counter()
        report = run_suite(suite, options)
        elapsed = time.perf_counter() - started
        sys.stdout.write("\n".join(report.text_lines()) + f"\nelapsed: {elapsed:.3f}s\n")
        if out_path:
            out.write(report.to_json())
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    return run_verify(parse_args(sys.argv[1:] if argv is None else list(argv)))


if __name__ == "__main__":
    sys.exit(main())
