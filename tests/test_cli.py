"""The command-line verifier: argument handling, exit codes, report
determinism, and the structured output format."""

import json

import pytest

from kocom.cli import build_parser, main, parse_range
from kocom.report import VerificationReport, check
from kocom.suites import run_suite


def test_parse_range():
    assert parse_range("-5..5") == (-5, 5)
    assert parse_range("0..3") == (0, 3)
    with pytest.raises(Exception):
        parse_range("5..-5")
    with pytest.raises(Exception):
        parse_range("oops")


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
    assert main(["verify", "cocycles", "--degree-cap", "2"]) == 2


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


def test_surface_size_bound_exit_code_2(capsys):
    for selector in ("genus:21", "rp:41"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "surface-ko", "--surface", selector])
        assert info.value.code == 2
    assert "limit 40" in capsys.readouterr().err


def test_failing_report_exit_code():
    report = VerificationReport("demo")
    report.add(check("demo.one", "a deliberately failing check", 1, 2))
    assert not report.all_passed
    assert report.summary == {"total": 1, "passed": 0, "failed": 1}
    lines = report.text_lines()
    assert any("FAIL" in line for line in lines)


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("bogus")


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
