import json
import subprocess
import sys

import numpy as np
import pytest

from twistcal.cli import main
from twistcal.errors import ConfigError
from twistcal.report import (
    PointRecord,
    SuiteConfig,
    VerificationReport,
    emit,
    parse_report,
)
from twistcal.examples import make_section_family
from twistcal.suites import (
    _section_family_for,
    parse_mu_spec,
    parse_profile_spec,
    parse_section_spec,
    run_suite,
)


# -- report serialisation --------------------------------------------------------


def _small_report(points=None):
    config = SuiteConfig(suite="g2-associative", chart="veronese", samples=1)
    return VerificationReport.build(config, points if points is not None else [])


def test_empty_report_is_valid_json():
    rep = _small_report([])
    payload = emit(rep, "json")
    raw = json.loads(payload.decode())
    assert raw["verdict"] == "PASS"
    assert raw["points"] == []


def test_json_round_trip():
    points = [
        PointRecord(u=[0.1, 0.2], t=[1.0], residuals={"associative": 1e-9}, criteria={"trace_a": 2e-10}),
        PointRecord(u=[0.3, -0.4], t=[0.0], residuals={"associative": 3e-8}, criteria={"trace_a": 1e-11}),
    ]
    rep = _small_report(points)
    payload = emit(rep, "json")
    back = parse_report(payload)
    assert emit(back, "json") == payload
    assert back.verdict == rep.verdict
    assert back.points[0].residuals == rep.points[0].residuals


def test_csv_column_count():
    points = [
        PointRecord(
            u=[0.1, 0.2],
            t=[1.0, -1.0],
            residuals={"cayley": 0.0, "calibration_gap": 0.0},
            criteria={"trace_a": 0.0},
        )
    ]
    rep = _small_report(points)
    rows = emit(rep, "csv").decode().strip().split("\n")
    header = rows[0].split(",")
    # 2 bookkeeping columns + dim(u) + dim(t) + residuals + criteria
    assert len(header) == 2 + 2 + 2 + 2 + 1
    assert len(rows) == 2


def test_verdict_classification_rules():
    cfg = SuiteConfig(suite="s", samples=1)
    passing = PointRecord(u=[0], t=[0], residuals={"r": 1e-9}, criteria={"c": 0.0})
    failing = PointRecord(u=[0], t=[0], residuals={"r": 0.5}, criteria={"c": 0.2})
    mixed = PointRecord(u=[0], t=[0], residuals={"r": 0.5}, criteria={"c": 1e-9})
    assert VerificationReport.build(cfg, [passing]).verdict == "PASS"
    assert VerificationReport.build(cfg, [failing]).verdict == "FAIL"
    assert VerificationReport.build(cfg, [mixed]).verdict == "MIXED"
    assert VerificationReport.build(cfg, [passing, failing]).verdict == "FAIL"


def test_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig(suite="s", samples=0).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(suite="s", fmt="xml").validate()
    with pytest.raises(ConfigError):
        SuiteConfig(suite="s", tol_verdict=-1.0).validate()


# -- spec parsing -------------------------------------------------------------------


def test_section_spec_parsing():
    kind, params = parse_section_spec("sinphi:C=1,D=-0.5")
    assert kind == "sinphi"
    assert params == {"C": 1.0, "D": -0.5}
    assert parse_section_spec("")[0] == "zero"


def test_mu_spec_parsing():
    mu = parse_mu_spec("0.3e1", 2)
    assert np.allclose(mu.coeffs, [0.3, 0.0])
    assert np.allclose(parse_mu_spec("0", 2).coeffs, 0.0)
    with pytest.raises(ConfigError):
        parse_mu_spec("0.3e9", 2)
    with pytest.raises(ConfigError):
        parse_mu_spec("garbage", 2)


def test_profile_spec_parsing():
    bs, st = parse_profile_spec("unit")
    assert bs.at(0.5) == (1.0, 1.0)
    bs2, st2 = parse_profile_spec("u=2,v=0.5,vp=3,vpp=4")
    assert bs2.at(1.0) == (2.0, 0.5)
    assert st2.at(1.0) == (3.0, 4.0)
    with pytest.raises(ConfigError):
        parse_profile_spec("w=1")


# -- suite orchestration ---------------------------------------------------------------


def test_unknown_suite_and_chart_raise_config_errors():
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(suite="bogus"))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(suite="g2-associative", chart="bogus"))


def test_determinism_same_seed_same_bytes():
    cfg = SuiteConfig(
        suite="g2-associative",
        chart="veronese",
        section="sinphi:C=1,D=0",
        samples=3,
        seed=11,
    )
    first = emit(run_suite(cfg), "json")
    second = emit(run_suite(cfg), "json")
    assert first == second
    third = emit(run_suite(SuiteConfig(**{**cfg.echo(), "seed": 12})), "json")
    assert third != first


# -- CLI ---------------------------------------------------------------------------------


def test_cli_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "stenzel-lagrangian",
            "--chart",
            "equatorial",
            "--mu",
            "0",
            "--samples",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_bytes())["verdict"] == "PASS"

    code = main(
        [
            "verify",
            "stenzel-lagrangian",
            "--chart",
            "equatorial",
            "--mu",
            "0.3e1",
            "--samples",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    payload = json.loads(out.read_bytes())
    assert payload["verdict"] == "FAIL"
    assert payload["aggregates"]["residual.omega_max.max"] > 1e-3

    assert main(["verify", "no-such-suite"]) == 2
    assert main(["verify", "g2-associative", "--chart", "nowhere"]) == 2


def test_cli_config_file_and_flag_override(tmp_path):
    cfg_file = tmp_path / "suite.cfg"
    cfg_file.write_text(
        "suite=g2-associative\nchart=veronese\nsection=sinphi:C=1,D=0\nsamples=2\nseed=3\n"
    )
    out = tmp_path / "r.json"
    code = main(
        ["verify", "g2-associative", "--config", str(cfg_file), "--out", str(out)]
    )
    assert code == 0
    raw = json.loads(out.read_bytes())
    assert raw["config"]["samples"] == 2
    # flag overrides the file
    code = main(
        [
            "verify",
            "g2-associative",
            "--config",
            str(cfg_file),
            "--samples",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_bytes())["config"]["samples"] == 1


def test_cli_bad_config_file(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("nonsense line\n")
    assert main(["verify", "g2-associative", "--config", str(cfg_file)]) == 2
    cfg_file.write_text("unknown_key=3\n")
    assert main(["verify", "g2-associative", "--config", str(cfg_file)]) == 2


def test_cli_table_and_list(capsys):
    assert main(["table", "equatorial", "--samples", "5"]) == 0
    assert main(["list"]) == 0
    captured = capsys.readouterr()
    assert "stenzel-lagrangian" in captured.out
    assert "veronese" in captured.out


def test_cli_csv_output(capsys):
    code = main(
        [
            "verify",
            "g2-coassociative",
            "--chart",
            "equatorial",
            "--section",
            "const:c=1",
            "--samples",
            "2",
            "--format",
            "csv",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    header = captured.out.strip().split("\n")[0]
    assert header.startswith("index,status,u1,u2,t1,t2")


def test_cli_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "twistcal", "list"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "suites:" in proc.stdout


def test_numerical_breakdown_is_diagnosed():
    from twistcal.errors import TwistcalError
    from twistcal.suites import _check_finite

    cfg = SuiteConfig(suite="s", samples=1)
    bad = PointRecord(u=[0.1], t=[0.2], residuals={"r": float("nan")}, criteria={})
    report = VerificationReport.build(cfg, [bad])
    with pytest.raises(TwistcalError, match="numerical breakdown"):
        _check_finite(report)


def test_stenzel_suite_reports_closed_form_diagnostics():
    cfg = SuiteConfig(
        suite="stenzel-lagrangian", chart="equatorial", section="0.3e1", samples=4, seed=2
    )
    rep = run_suite(cfg)
    assert rep.aggregates["diagnostic.closed_form_gap.max"] < 1e-5 * max(
        1.0, rep.aggregates["residual.omega_max.max"]
    )
    assert rep.aggregates["diagnostic.bracket_factor.min"] > 0.0


def test_cli_fiber_list_may_start_with_minus(tmp_path):
    # the form the --fiber help text shows, a separate token starting with '-'
    base = ["verify", "g2-associative", "--chart", "veronese", "--section", "sinphi:C=1,D=0",
            "--samples", "2", "--seed", "4"]
    out = tmp_path / "r.json"
    assert main(base + ["--fiber", "-2;0;1.5", "--out", str(out)]) == 0
    split = out.read_bytes()
    assert main(base + ["--fiber=-2;0;1.5", "--out", str(out)]) == 0
    assert split == out.read_bytes()
    raw = json.loads(split)
    assert [p["t"] for p in raw["points"]] == [[-2.0], [0.0], [1.5]] * 2


def test_cli_rejects_removed_tolerance_knobs(tmp_path):
    # only tol_verdict decides a point's status, so no other tolerance is
    # accepted that would look as if it did
    cfg_file = tmp_path / "suite.cfg"
    for key in ("tol_algebraic", "tol_geometric"):
        with pytest.raises(SystemExit):
            main(["verify", "g2-associative", "--samples", "1", "--" + key.replace("_", "-"), "1e-30"])
        cfg_file.write_text(f"{key}=1e-30\n")
        assert main(["verify", "g2-associative", "--config", str(cfg_file)]) == 2


# -- bad input exits 2 with a precise message ----------------------------------------------

_VERIFY = ["verify", "stenzel-lagrangian", "--chart", "equatorial", "--mu", "0", "--samples", "2"]
_CAYLEY = ["verify", "spin7-cayley", "--chart", "equatorial", "--samples", "2"]
_COASSOC = ["verify", "g2-coassociative", "--chart", "veronese-antipodal", "--samples", "2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "veronese", "--samples", "0"], "samples must be >= 1, got 0"),
        (["table", "veronese", "--samples", "-3"], "samples must be >= 1, got -3"),
        (["table", "veronese", "--fd-step", "0"], "fd_step must be a finite positive number, got 0.0"),
        (["table", "veronese", "--fd-step", "nan"], "fd_step must be a finite positive number, got nan"),
        (["table", "veronese", "--fd-step", "-1e-5"], "fd_step must be a finite positive number, got -1e-05"),
        (["table", "nosuch"], "unknown golden table 'nosuch'"),
        (_VERIFY + ["--fd-step", "nan"], "fd_step must be a finite positive number, got nan"),
        (_VERIFY + ["--fd-step", "inf"], "fd_step must be a finite positive number, got inf"),
        (_VERIFY + ["--tol-verdict", "nan"], "tol_verdict must be a finite positive number, got nan"),
        (_CAYLEY + ["--fiber", "a;b"], "fiber entry needs a number, got 'a'"),
        (_CAYLEY + ["--fiber=1e400,0"], "fiber entry must be finite, got '1e400'"),
        (_CAYLEY + ["--section", "const:re=abc"], "parameter 're' needs a number, got 'abc'"),
        (_COASSOC + ["--section", "coord:axis=7"], "coord axis must be an integer in 1..2, got 7"),
        (_CAYLEY + ["--profile", "u=abc"], "parameter 'u' needs a number, got 'abc'"),
        (_CAYLEY + ["--profile", "u=-1"], "profile weights u, v must be positive"),
        (_CAYLEY + ["--seed", "-1"], "seed must be >= 0, got -1"),
        (["table", "veronese", "--seed", "-5"], "seed must be >= 0, got -5"),
        (["verify", "stenzel-lagrangian", "--mu", "1.2.3e1"], "mu coefficient needs a number, got '1.2.3'"),
        (["verify", "stenzel-lagrangian", "--mu", "1e400e1"], "mu coefficient must be finite, got '1e400'"),
        # misspelled or extra section keys are rejected, not ignored
        (_CAYLEY + ["--section", "const:rea=1"], "unknown const section keys ['rea']"),
        (_CAYLEY + ["--section", "zero:re=1"], "unknown zero section keys ['re']"),
        (_CAYLEY + ["--section", "sinphi:C=1,E=0"], "unknown sinphi section keys ['E']"),
        (_CAYLEY + ["--section", "equatorial-hol:c0r=1"], "unknown equatorial-hol key 'c0r'"),
        (_COASSOC + ["--section", "const:c=2,x=1"], "unknown const eta keys ['x']"),
        (_COASSOC + ["--section", "coord:axes=1"], "unknown coord eta keys ['axes']"),
        (_COASSOC + ["--section", "coord:axis=1.5"], "coord axis must be an integer in 1..2, got 1.5"),
    ],
)
def test_cli_rejects_bad_input_with_exit_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {message}")


def test_config_validation_requires_finite_values():
    for field in ("fd_step", "tol_verdict"):
        for value in (float("nan"), float("inf"), 0.0, -1e-5):
            with pytest.raises(ConfigError, match=field):
                SuiteConfig(suite="s", **{field: value}).validate()
    SuiteConfig(suite="s", fd_step=1e-7, tol_verdict=1e-3).validate()


def test_config_file_bad_number_is_a_config_error(tmp_path):
    cfg_file = tmp_path / "suite.cfg"
    cfg_file.write_text("samples=many\n")
    assert main(["verify", "g2-associative", "--config", str(cfg_file)]) == 2


def test_equatorial_hol_reads_every_coefficient():
    # a degree-four coefficient alone must not report as the zero section
    config = SuiteConfig(
        suite="g2-associative", chart="equatorial", section="equatorial-hol:c4re=1", samples=3
    )
    zero = run_suite(SuiteConfig(suite="g2-associative", chart="equatorial", samples=3))
    assert run_suite(config).aggregates != zero.aggregates
    expected = make_section_family("equatorial-hol", coeffs=[0, 0, 0, 0, 1])
    u = np.array([0.3, -0.4])
    assert _section_family_for(config).value(u) == expected.value(u)


@pytest.mark.parametrize(
    "suite, chart, section",
    [
        ("spin7-cayley", "equatorial", "zero"),
        ("spin7-cayley", "equatorial", "const:re=0.4"),
        ("g2-coassociative", "veronese-antipodal", "const:c=2"),
        ("g2-coassociative", "veronese", "coord:axis=1"),
        ("g2-associative", "veronese", "sinphi:C=1,D=0"),
    ],
)
def test_benchmark_section_specs_parse(suite, chart, section):
    report = run_suite(SuiteConfig(suite=suite, chart=chart, section=section, samples=1))
    assert report.points
