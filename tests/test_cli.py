"""The command-line verifier: argument handling, exit codes, report
determinism, and the structured output format."""

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
from kocom.cli import (
    MAX_DEGREE_CAP,
    MAX_RANGE_VALUES,
    build_parser,
    main,
    parse_range,
    parse_surface,
)
from kocom.report import Check, VerificationReport, check
from kocom.suites import DEFAULT_OPTIONS, check_option, run_suite
from kocom.surfaces import nonorientable, orientable

#: SHA-256 of the `kocom verify all --out R` report with default options.
ALL_REPORT_SHA256 = "fc891e36521c163c7671c51a8cbf19c174c816041d43bc751128f9f22d955f02"

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
#: Cap 6 is pinned inside the `verify all` report, and cap 64 (0.55 s) is a
#: `tools/same_bytes.py` case, which CI runs to compare it across hash seeds
#: and `python -S`.
CHAR_CLASSES_REPORT_SHA256 = {
    4: "c7bf17e1f87591be7f03740c2deba01137de7a26d8880ec7c8cc3aaea116f1d0",
    13: "ef6de7f08edb6279607563c9133de1cc2102041eaae2323dc6becef92da4c650",
    32: "fbd6c75506a3676d3dad41e3db93703a7c7996c695e5bc4af3043586c23122f1",
}


def test_parse_range():
    assert parse_range("-5..5") == (-5, 5)
    assert parse_range("0..3") == (0, 3)
    with pytest.raises(Exception):
        parse_range("5..-5")
    with pytest.raises(Exception):
        parse_range("oops")
    # Only ASCII digits: int() alone would also take these.
    for text in ("\u0663..5", "-\u0663..\u0663", "1_0..12", "+1..2", " 1..2"):
        with pytest.raises(Exception):
            parse_range(text)


def test_parser_accepts_negative_range_tokens():
    parser = build_parser()
    args = parser.parse_args(["verify", "cocycles", "--k-range", "-2..2"])
    assert args.k_range == (-2, 2)
    args = parser.parse_args(["verify", "cocycles", "--k-range=-3..1"])
    assert args.k_range == (-3, 1)


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
    """`import kocom.cli` leaves dataclasses, inspect, json,
    importlib.resources and typing unloaded, and `--out` then loads json on
    its own.  It runs in a `python -S` subprocess because pytest has loaded
    all five."""
    out = tmp_path / "all.json"
    script = (
        "import sys\n"
        "import kocom.cli\n"
        "heavy = ('dataclasses', 'inspect', 'json', 'importlib.resources', 'typing')\n"
        "print(sorted(name for name in heavy if name in sys.modules))\n"
        f"sys.exit(kocom.cli.main(['verify', 'all', '--out', {str(out)!r}]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "[]"
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
    assert MAX_RANGE_VALUES == 81 and MAX_DEGREE_CAP == 64
    assert parse_range("-40..40") == (-40, 40)
    for option in ("--k-range=-40..41", "--n-range=-1000000..1000000"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "cocycles", option])
        assert info.value.code == 2
    assert "limit 81" in capsys.readouterr().err
    assert [build_parser().parse_args(["verify", "all", "--degree-cap", cap]).degree_cap
            for cap in ("4", "32", "64")] == [4, 32, 64]
    for cap in ("3", "65", "1_0", "+8", " 8", "\u0668"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "char-classes", "--degree-cap", cap])
        assert info.value.code == 2
        assert "between 4 and 64" in capsys.readouterr().err


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
    args = vars(build_parser().parse_args(["verify", "all"]))
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
        ("char-classes", {"degree_cap": 65}),
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
        ("degree_cap", 64),
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
