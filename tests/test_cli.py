"""The command-line verifier: argument handling, exit codes, report
determinism, and the structured output format."""

import argparse
import enum
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from kocom import suites
from kocom.cli import MAX_DEGREE_CAP, MAX_RANGE_VALUES, main, parse_args
from kocom.report import Check, VerificationReport, check
from kocom.suites import DEFAULT_OPTIONS, SUITES, check_option, run_suite
from kocom.surfaces import Surface, nonorientable, orientable

#: SHA-256 of the `kocom verify all --out R` report with default options.
ALL_REPORT_SHA256 = "8cedccb201e79f70d5b6af00b0f42daa24e5c0f3cb8a938401532171c1477f44"

#: SHA-256 of the cocycle report over -20..20 in k and n.
WIDE_COCYCLE_REPORT_SHA256 = (
    "6e2da11311c41d595157e0bfc32d63eb70eeb4e0498019a94a6226ae62be8043"
)

#: SHA-256 of the `kocom verify surface-ko --surface S --out R` report at
#: genus:160 and rp:320, the largest selectors the CLI accepts, and at
#: genus:40 and rp:80.
SELECTED_SURFACE_REPORT_SHA256 = {
    "genus:40": "be45e7cea57d1ed875fc83abd51f849052f227a3c92ca82f269f054f15bd734a",
    "rp:80": "acced674a1b02cd9650e6542c57813f3bf0ac51a222ea4b4db7b7dbfc7e953da",
    "genus:160": "cb1f3af102c68e0256e1287ae545647c163a4fdcb55514bac6e5cfdca8e50fa1",
    "rp:320": "33dd2e37aedbae466ea8389b5cfd81a52c1956f0084e30e3f20e83bef549bbc4",
}

#: SHA-256 of the `kocom verify char-classes --degree-cap N --out R` report.
#: Cap 6 is pinned inside the `verify all` report, and caps 64, 176 and 240
#: (the MAX_DEGREE_CAP bound) are `tools/same_bytes.py` cases, which CI runs
#: to compare them across hash seeds and `python -S`.
CHAR_CLASSES_REPORT_SHA256 = {
    4: "9e95ad71f6f27f2392eb770c0f9f9f303f99ab3a56bc37e33eb5524653680c62",
    13: "ee7aa4c012516e7c52afcd209d5fce09fdf4e9ac36aaeef3704a91537afd8a7f",
    32: "a9d01fa5a2b142c2f902feae1e82d221cb6d05def6be53761c925685f6b6ed95",
}


def parse_range(text: str) -> tuple:
    return parse_args(["verify", "cocycles", "--k-range", text])["k_range"]


def parse_surface(selector: str) -> Surface:
    return parse_args(["verify", "surface-ko", "--surface", selector])["surface"]


def test_parse_range(capsys):
    assert parse_range("-5..5") == (-5, 5)
    assert parse_range("0..3") == (0, 3)
    with pytest.raises(SystemExit):
        parse_range("5..-5")
    with pytest.raises(SystemExit):
        parse_range("oops")
    # Only ASCII digits: int() alone would also take these.
    for text in ("\u0663..5", "-\u0663..\u0663", "1_0..12", "+1..2", " 1..2"):
        with pytest.raises(SystemExit):
            parse_range(text)


def test_parser_accepts_negative_range_tokens():
    args = parse_args(["verify", "cocycles", "--k-range", "-2..2"])
    assert args["k_range"] == (-2, 2)
    args = parse_args(["verify", "cocycles", "--k-range=-3..1"])
    assert args["k_range"] == (-3, 1)


# -- the argparse front end kocom used before cli.parse_args, kept as an oracle


def oracle_parser() -> argparse.ArgumentParser:
    def checked(key, parse):
        def convert(text):
            try:
                return check_option(key, parse(text))
            except (TypeError, ValueError) as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return convert

    def read_range(text):
        match = re.fullmatch(r"(-?[0-9]+)\.\.(-?[0-9]+)", text)
        if not match:
            raise ValueError(f"expected lo..hi, got {text!r}")
        return int(match[1]), int(match[2])

    def read_degree_cap(text):
        return int(text) if re.fullmatch(r"[0-9]+", text) else text

    parser = argparse.ArgumentParser(prog="kocom")
    verify = parser.add_subparsers(dest="command", required=True).add_parser("verify")
    # Let bare range tokens like -5..5 through the option scanner.
    verify._negative_number_matcher = re.compile(r"^-\d")
    verify.add_argument("suite", choices=SUITES)
    for key, parse in (
        ("k_range", read_range),
        ("n_range", read_range),
        ("surface", Surface.parse),
        ("degree_cap", read_degree_cap),
    ):
        verify.add_argument("--" + key.replace("_", "-"), type=checked(key, parse), default=DEFAULT_OPTIONS[key])
    verify.add_argument("--out", default=None)
    return parser


#: Argument lists on which cli.parse_args and the oracle agree: the same
#: options, or exit 2 from both (exit 0 for help).
ARGV_CORPUS = [
    # the = and space forms, and negative ranges
    ["verify", "all"],
    ["verify", "cocycles", "--k-range", "-5..5"],
    ["verify", "cocycles", "--k-range=-3..1", "--n-range", "-40..40"],
    ["verify", "cocycles", "--n-range=0..0", "--k-range", "-1..-1"],
    ["verify", "char-classes", "--degree-cap", "4"],
    ["verify", "char-classes", "--degree-cap=64"],
    ["verify", "char-classes", "--degree-cap", "65"],
    ["verify", "char-classes", "--degree-cap=176"],
    ["verify", "char-classes", "--degree-cap", "177"],
    ["verify", "char-classes", "--degree-cap=240"],
    ["verify", "surface-ko", "--surface", "sphere"],
    ["verify", "surface-ko", "--surface=genus:160", "--out", "r.json"],
    ["verify", "surface-ko", "--surface", "rp:320", "--out=r.json"],
    ["verify", "all", "--out="],
    # unique prefixes
    ["verify", "all", "--k", "-2..2"],
    ["verify", "all", "--k=-2..2", "--n", "1..3"],
    ["verify", "char-classes", "--deg", "8"],
    ["verify", "char-classes", "--deg=5"],
    ["verify", "so3-homology", "--o", "r.json"],
    ["verify", "surface-ko", "--s", "genus:4", "--ou=x"],
    # options before the suite, and repeated options
    ["verify", "--k-range", "-1..1", "cocycles"],
    ["verify", "--surface", "rp:3", "surface-ko", "--out", "r.json"],
    ["verify", "all", "--k-range", "1..2", "--k-range", "-2..-1"],
    ["verify", "all", "--out", "a", "--o", "b"],
    ["verify", "all", "--degree-cap", "4", "--deg=5", "--surface", "rp:1", "--surface", "genus:1"],
    # unknown flags, missing values, extra tokens, no suite, no command
    ["verify", "all", "--bogus", "1"],
    ["verify", "all", "--bogus"],
    ["verify", "all", "-x"],
    ["verify", "all", "-"],
    ["verify", "all", "--k-range"],
    ["verify", "all", "--out"],
    ["verify", "surface-ko", "--surface"],
    ["verify", "all", "--k-range", "-x..1"],
    ["verify", "all", "--k-range="],
    ["verify", "all", "extra"],
    ["verify", "all", "cocycles"],
    ["verify"],
    ["verify", "--k-range", "1..2"],
    [],
    ["verify", "nonsense-suite"],
    ["verify", "ALL"],
    ["check", "all"],
    ["all"],
    ["--k-range", "1..2", "verify", "all"],
    # help
    ["--help"],
    ["-h"],
    ["verify", "-h"],
    ["verify", "all", "--help"],
    ["verify", "all", "--he"],
    # every value the tests and CI expect to exit 2
    *(["verify", "cocycles", "--k-range", text] for text in (
        "bad", "oops", "5..-5", "1..0", "-40..41", "-1000000..1000000",
        "\u0663..5", "-\u0663..\u0663", "1_0..12", "+1..2", " 1..2",
    )),
    *(["verify", "cocycles", "--n-range", text] for text in ("1..0", "-40..41")),
    *(["verify", "char-classes", "--degree-cap", cap] for cap in (
        "2", "3", "241", "1_0", "+8", " 8", "\u0668",
    )),
    *(["verify", "surface-ko", "--surface", selector] for selector in (
        "genus:1_0", "rp: 3", "genus:+2", "genus:\u0663", "genus:161", "rp:321", "genus:0", "rp:0",
    )),
]


@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=lambda argv: ascii(" ".join(argv)))
def test_parse_args_matches_the_argparse_oracle(argv, capsys):
    def outcome(parse):
        try:
            return parse(argv)
        except SystemExit as exc:
            return exc.code

    expected = outcome(lambda argv: vars(oracle_parser().parse_args(argv)))
    if isinstance(expected, dict):
        del expected["command"]
    capsys.readouterr()
    assert outcome(parse_args) == expected
    if expected == 2:
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: kocom verify SUITE") and error.startswith("kocom: error: ")


def test_invalid_arguments_exit_code_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "nonsense-suite"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["verify", "cocycles", "--k-range", "bad"])
    assert info.value.code == 2
    # Only ASCII digits in range: int() alone would take the last four.
    for cap in ("2", "1_0", "+8", " 8", "\u0668"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "cocycles", "--degree-cap", cap])
        assert info.value.code == 2
    for selector in ("genus:1_0", "rp: 3", "genus:+2", "genus:\u0663"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "surface-ko", "--surface", selector])
        assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["verify", "cocycles", "--k-range", "\u0663..5"])
    assert info.value.code == 2


def test_verify_small_suite_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "cocycles", "--k-range=-2..2", "--n-range=-2..2", "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "checks passed" in printed
    assert "elapsed:" in printed
    payload = json.loads(out.read_text())
    assert set(payload) == {"suite", "checks", "summary"}
    assert payload["summary"]["failed"] == 0
    ids = [c["id"] for c in payload["checks"]]
    assert ids == sorted(ids)
    assert all(
        set(c) == {"id", "citation", "status", "expected", "actual"}
        for c in payload["checks"]
    )


def test_reports_are_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["verify", "so3-homology", "--out"]
    assert main(argv + [str(first)]) == 0
    assert main(argv + [str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    # The full default report is pinned across versions, not just runs.
    full = tmp_path / "all.json"
    assert main(["verify", "all", "--out", str(full)]) == 0
    assert hashlib.sha256(full.read_bytes()).hexdigest() == ALL_REPORT_SHA256


def test_cli_import_loads_no_heavy_stdlib_modules(tmp_path):
    """`import kocom.cli` leaves argparse, gettext, locale, dataclasses,
    inspect, json, importlib.resources and typing unloaded, and `verify all
    --out` then loads json alone of them.  It runs in a `python -S`
    subprocess because pytest has loaded all eight."""
    out = tmp_path / "all.json"
    script = (
        "import sys\n"
        "import kocom.cli\n"
        "heavy = ('argparse', 'gettext', 'locale', 'dataclasses', 'inspect', 'json',\n"
        "         'importlib.resources', 'typing')\n"
        "loaded = lambda: sorted(name for name in heavy if name in sys.modules)\n"
        "print(loaded())\n"
        f"code = kocom.cli.main(['verify', 'all', '--out', {str(out)!r}])\n"
        "print(loaded())\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "[]" and lines[-1] == "['json']"
    assert json.loads(out.read_text())["summary"]["failed"] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ALL_REPORT_SHA256


@pytest.mark.parametrize("selector", sorted(SELECTED_SURFACE_REPORT_SHA256))
def test_selected_surface_reports_are_pinned(tmp_path, selector):
    out = tmp_path / "surface.json"
    assert main(["verify", "surface-ko", "--surface", selector, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SELECTED_SURFACE_REPORT_SHA256[selector]


@pytest.mark.parametrize("cap", sorted(CHAR_CLASSES_REPORT_SHA256))
def test_char_classes_reports_are_pinned(tmp_path, cap):
    out = tmp_path / "char.json"
    assert main(["verify", "char-classes", "--degree-cap", str(cap), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CHAR_CLASSES_REPORT_SHA256[cap]


def test_empty_cocycle_range_raises():
    """An empty range would compare nothing with nothing ("0 valid" against
    "0 valid"), so the Python API refuses it as the command line does."""
    for k_range, n_range in (((3, 1), (2, 0)), ((3, 1), (-1, 1)), ((-1, 1), (2, 0))):
        with pytest.raises(ValueError, match="empty range"):
            run_suite("cocycles", {"k_range": k_range, "n_range": n_range})
    assert run_suite("cocycles", {"k_range": (1, 1), "n_range": (0, 0)}).all_passed


def test_wide_cocycle_report_is_pinned(tmp_path):
    out = tmp_path / "cocycles.json"
    argv = ["verify", "cocycles", "--k-range=-20..20", "--n-range=-20..20"]
    assert main(argv + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["summary"] == {"total": 1755, "passed": 1755, "failed": 0}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WIDE_COCYCLE_REPORT_SHA256


def test_surface_filter(tmp_path):
    out = tmp_path / "rp3.json"
    assert main(["verify", "surface-ko", "--surface", "rp:3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["checks"]
    assert all("rp:3" in c["id"] for c in payload["checks"])


def test_surface_outside_listed_surfaces_gets_checks(tmp_path):
    out = tmp_path / "genus9.json"
    assert main(["verify", "surface-ko", "--surface", "genus:9", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["total"] > 0
    assert payload["summary"]["failed"] == 0
    ids = {c["id"] for c in payload["checks"]}
    assert "surface-ko.units.genus:9" in ids
    assert "surface-ko.products.genus:9.square" in ids
    assert not any(i.startswith("surface-ko.presentation.") for i in ids)


UNITS = {"surface-ko.units", "surface-ko.units-count"}
PRODUCTS = {
    "surface-ko.products.ring-structure",
    "surface-ko.products.square",
    "surface-ko.products.tensor-vs-sum",
}
A2 = {"surface-ko.a2.algebraic", "surface-ko.a2.nonstandard"}
IDENTITY = {"surface-ko.unit-identity"}
PRESENTATION = {"surface-ko.presentation"}
SUSPENSION = {"surface-ko.products.suspension"}


@pytest.mark.parametrize(
    "selector, families, total",
    [
        ("sphere", UNITS | PRESENTATION | SUSPENSION, 4),
        ("genus:4", UNITS | IDENTITY | PRODUCTS | A2, 15),
        ("rp:4", UNITS | IDENTITY | PRESENTATION | PRODUCTS | A2, 12),
        ("rp:3", UNITS | IDENTITY | PRESENTATION | PRODUCTS | A2, 11),
        ("genus:9", UNITS | IDENTITY | PRODUCTS | A2, 25),
        (None, UNITS | IDENTITY | PRESENTATION | PRODUCTS | A2 | SUSPENSION, 80),
    ],
)
def test_surface_selection_runs_its_check_families(selector, families, total):
    """Which check families each selection runs: the id without its surface
    label and generator name.  A selected surface gets every family it has a
    golden or a product rule for; no selection covers the listed surfaces."""
    only = None if selector is None else parse_surface(selector)
    report = run_suite("surface-ko", {"surface": only})
    label_or_generator = re.compile(r"sphere|genus:\d+|rp:\d+|l_[ab]\d+")
    found = {
        ".".join(part for part in c.check_id.split(".") if not label_or_generator.fullmatch(part))
        for c in report.checks
    }
    assert found == families
    assert len(report.checks) == total
    assert report.all_passed


def test_surface_size_bound_exit_code_2(capsys):
    for selector in ("genus:161", "rp:321"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "surface-ko", "--surface", selector])
        assert info.value.code == 2
    assert "limit 320" in capsys.readouterr().err


def test_range_and_degree_cap_bounds_exit_code_2(capsys):
    assert MAX_RANGE_VALUES == 81 and MAX_DEGREE_CAP == 240
    assert parse_range("-40..40") == (-40, 40)
    for option in ("--k-range=-40..41", "--n-range=-1000000..1000000"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "cocycles", option])
        assert info.value.code == 2
    assert "limit 81" in capsys.readouterr().err
    assert [parse_args(["verify", "all", "--degree-cap", cap])["degree_cap"]
            for cap in ("4", "64", "65", "176", "177", "240")] == [4, 64, 65, 176, 177, 240]
    for cap in ("3", "241", "1_0", "+8", " 8", "\u0668"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "char-classes", "--degree-cap", cap])
        assert info.value.code == 2
        assert "between 4 and 240" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["cocycles", "so3-homology", "char-classes"])
def test_ignored_surface_warns_on_stderr(tmp_path, capsys, suite):
    argv = ["verify", suite, "--k-range=-1..1", "--n-range=-1..1", "--degree-cap", "4"]
    plain, narrowed = tmp_path / "plain.json", tmp_path / "narrowed.json"
    assert main(argv + ["--out", str(plain)]) == 0
    assert "warning" not in capsys.readouterr().err
    assert main(argv + ["--surface", "rp:3", "--out", str(narrowed)]) == 0
    assert f"warning: suite {suite} ignores --surface" in capsys.readouterr().err
    assert plain.read_bytes() == narrowed.read_bytes()


def test_failing_report_exit_code():
    failing = check("demo.one", "a deliberately failing check", 1, 2)
    report = VerificationReport("demo", (failing,))
    assert not report.all_passed
    assert report.summary == {"total": 1, "passed": 0, "failed": 1}
    lines = report.text_lines()
    assert any("FAIL" in line for line in lines)


def test_empty_report_does_not_pass():
    report = VerificationReport("empty", ())
    assert not report.all_passed
    assert report.summary == {"total": 0, "passed": 0, "failed": 0}
    report = VerificationReport("empty", (check("demo.one", "a passing check", 1, 1),))
    assert report.all_passed


# Any code point: quotes, backslashes, control characters, non-ASCII, astral
# and lone surrogates, each also drawn on its own so that they come up often.
report_text = st.text(
    st.one_of(
        st.characters(codec=None, exclude_categories=()),
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xe9\u2028\ufeff'),
        st.integers(0xD800, 0xDFFF).map(chr),
        st.integers(0x10000, 0x10FFFF).map(chr),
    )
)


@st.composite
def report_checks(draw):
    """A Check of arbitrary text that passes or fails."""
    check_id, citation, expected = draw(report_text), draw(report_text), draw(report_text)
    actual = expected if draw(st.booleans()) else draw(report_text)
    return Check(check_id, citation, expected, actual)


@settings(max_examples=60)
@given(report_text, st.lists(report_checks(), max_size=4))
@example("", [])
@example("demo", [Check("b", "c", "1", "2"), Check("a", "c", "1", "1")])
def test_to_json_is_json_dumps_with_indent_2(suite, checks):
    report = VerificationReport(suite, checks)
    assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"


def test_unwritable_out_exits_2_before_the_suite(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("the suite ran")

    monkeypatch.setattr("kocom.cli.run_suite", fail)
    out = tmp_path / "missing" / "r.json"
    assert main(["verify", "so3-homology", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(out) in lines[0]
    assert not out.parent.exists()


def test_parser_defaults_are_the_suite_defaults():
    args = parse_args(["verify", "all"])
    assert {name: args[name] for name in DEFAULT_OPTIONS} == DEFAULT_OPTIONS
    # A partial options mapping falls back to the same defaults.
    assert run_suite("char-classes", {"degree_cap": 4}).to_json() == run_suite(
        "char-classes", {**DEFAULT_OPTIONS, "degree_cap": 4}
    ).to_json()


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_run_suite_rejects_unknown_option_keys(monkeypatch):
    # a misspelt key used to run the defaults and pass
    monkeypatch.setattr(suites, "cocycle_suite", None)  # no suite may start
    with pytest.raises(ValueError, match="krange"):
        run_suite("cocycles", {"krange": (3, 1)})
    with pytest.raises(ValueError, match="cap, krange"):
        run_suite("all", {"krange": (3, 1), "cap": 4, "surface": None})


@pytest.mark.parametrize(
    "options",
    [{"k_range": (1, 2.0)}, {"n_range": (-1, True)}, {"degree_cap": True}, {"surface": "rp:3"}],
    ids=["k_range", "n_range", "degree_cap", "surface"],
)
def test_run_suite_rejects_option_types_before_any_suite(monkeypatch, options):
    # {"surface": "rp:3"} used to fail deep inside the surface suite
    def ran(*args):
        raise AssertionError("a suite ran")

    for suite in ("cocycle_suite", "so3_suite", "char_class_suite", "surface_suite"):
        monkeypatch.setattr(suites, suite, ran)
    (key,) = options
    with pytest.raises(TypeError, match=f"option {key} must be"):
        run_suite("all", options)


@pytest.mark.parametrize(
    "name, options",
    [
        ("cocycles", {"k_range": (-40, 41)}),
        ("cocycles", {"n_range": (2, 0)}),
        ("surface-ko", {"surface": nonorientable(321)}),
        ("char-classes", {"degree_cap": 241}),
        ("all", {"degree_cap": 3}),
    ],
    ids=["k_range-wide", "n_range-empty", "surface-b1", "degree_cap-high", "all-degree_cap-low"],
)
def test_run_suite_rejects_option_values_before_any_suite(monkeypatch, name, options):
    # each of these used to run (or, at cap 3, run the cocycle suite first)
    def ran(*args):
        raise AssertionError("a suite ran")

    for suite in ("cocycle_suite", "so3_suite", "char_class_suite", "surface_suite"):
        monkeypatch.setattr(suites, suite, ran)
    (key,) = options
    with pytest.raises(ValueError, match=f"option {key} "):
        run_suite(name, options)


def test_check_option_takes_values_at_the_bounds():
    for key, value in (
        ("k_range", (-40, 40)),
        ("n_range", (3, 3)),
        ("degree_cap", 4),
        ("degree_cap", 240),
        ("surface", nonorientable(320)),
        ("surface", orientable(160)),
        ("surface", None),
    ):
        assert check_option(key, value) is value
    with pytest.raises(ValueError, match="unknown option 'cap'"):
        check_option("cap", 4)


def test_tally_refuses_no_results():
    # it used to render "0/0" against "0/0" and pass
    with pytest.raises(ValueError, match="char.demo"):
        suites.tally("char.demo", "a count over nothing", [])
    assert suites.tally("char.demo", "a count over two", [True, True]).passed


def test_run_suite_takes_int_subclass_options(monkeypatch):
    # the same exact-integer rule as every other kocom entry point
    class Cap(enum.IntEnum):
        FOUR = 4

    seen = []
    for suite in ("cocycle_suite", "so3_suite", "char_class_suite", "surface_suite"):
        monkeypatch.setattr(suites, suite, lambda *args: seen.append(args) or VerificationReport("x", ()))
    run_suite("all", {"k_range": (Cap.FOUR, 5), "n_range": (-1, Cap.FOUR), "degree_cap": Cap.FOUR})
    assert ((Cap.FOUR, 5), (-1, Cap.FOUR)) in seen and (Cap.FOUR,) in seen


def test_default_cocycle_suite_has_121_degree_checks():
    report = run_suite("cocycles")
    degree = [c for c in report.checks if c.check_id.startswith("cocycles.degree.")]
    assert len(degree) == 121
    assert all(c.passed for c in degree)


def test_all_suite_collects_subsuites():
    report = run_suite(
        "all",
        {"k_range": (-1, 1), "n_range": (-1, 1), "degree_cap": 4, "surface": None},
    )
    prefixes = {c.check_id.split(".")[0] for c in report.checks}
    assert {"cocycles", "so3", "char", "surface-ko"} <= prefixes
    assert report.all_passed
