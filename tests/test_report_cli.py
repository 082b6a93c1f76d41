import json
import subprocess
import sys

import numpy as np
import pytest

from twistcal.cli import main
from twistcal.errors import ConfigError
from twistcal.report import (
    SEPARATION,
    SuiteConfig,
    VerificationReport,
    emit,
    parse_report,
)
from twistcal.examples import make_section_family
from twistcal.stenzel import DEFAULT_PROFILE
from twistcal.suites import (
    _section_family_for,
    parse_mu_spec,
    parse_profile_spec,
    parse_section_spec,
    run_suite,
)


# -- report serialisation --------------------------------------------------------


def _small_report(u=np.empty((0, 0)), t=np.empty((0, 0)), residuals=None, criteria=None):
    config = SuiteConfig(suite="g2-associative", chart="veronese", samples=1)
    return VerificationReport.build(config, u, t, residuals or {}, criteria or {})


def test_empty_report_is_valid_json():
    rep = _small_report()
    payload = emit(rep, "json")
    raw = json.loads(payload.decode())
    assert raw["verdict"] == "PASS"
    assert raw["points"] == []


def test_json_round_trip():
    rep = _small_report(
        u=[[0.1, 0.2], [0.3, -0.4]],
        t=[[1.0], [0.0]],
        residuals={"associative": [1e-9, 3e-8]},
        criteria={"trace_a": [2e-10, 1e-11]},
    )
    payload = emit(rep, "json")
    back = parse_report(payload)
    assert emit(back, "json") == payload
    assert back.verdict == rep.verdict
    assert back.residuals["associative"][0] == rep.residuals["associative"][0]


def test_csv_column_count():
    rep = _small_report(
        u=[[0.1, 0.2]],
        t=[[1.0, -1.0]],
        residuals={"cayley": [0.0], "calibration_gap": [0.0]},
        criteria={"trace_a": [0.0]},
    )
    rows = emit(rep, "csv").decode().strip().split("\n")
    header = rows[0].split(",")
    # 2 bookkeeping columns + dim(u) + dim(t) + residuals + criteria
    assert len(header) == 2 + 2 + 2 + 2 + 1
    assert len(rows) == 2


def test_verdict_classification_rules():
    cfg = SuiteConfig(suite="s", samples=1)

    def verdict(*rows):
        r, c = np.array(rows).T
        origin = np.zeros((len(rows), 1))
        return VerificationReport.build(cfg, origin, origin, {"r": r}, {"c": c}).verdict

    passing, failing, mixed = (1e-9, 0.0), (0.5, 0.2), (0.5, 1e-9)
    assert verdict(passing) == "PASS"
    assert verdict(failing) == "FAIL"
    assert verdict(mixed) == "MIXED"
    assert verdict(passing, failing) == "FAIL"


_FORMS_UNIT_FAIL_JOB = ("spin7-cayley", "--chart", "equatorial", "--section", "const:re=0.4",
                        "--samples", "50", "--profile", "unit")


@pytest.mark.parametrize("args, statuses", [
    # one sample lies where the constant section is nearly holomorphic:
    # dbar_vminus sits between the tolerance and 1e-3, cayley well above it
    pytest.param(_FORMS_UNIT_FAIL_JOB + ("--seed", "1846635839"), {"FAIL"}, id="forms-unit-1846635839"),
    pytest.param(_FORMS_UNIT_FAIL_JOB + ("--seed", "129285861"), {"FAIL"}, id="forms-unit-129285861"),
    # the two sides agree to 7 digits at 1.2e-4 and at 4.7e-4
    pytest.param(("g2-associative", "--chart", "veronese", "--section", "const:re=0.04", "--seed", "4"),
                 {"FAIL", "PASS"}, id="g2-veronese-seed4"),
    pytest.param(("spin7-cayley", "--chart", "veronese", "--section", "const:re=0.4", "--seed", "4"),
                 {"FAIL"}, id="spin7-veronese-seed4"),
])
def test_both_sides_at_or_above_the_tolerance_is_fail(tmp_path, args, statuses):
    out = tmp_path / "report.json"
    assert main(["verify", *args, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["verdict"] == "FAIL"
    assert {p["status"] for p in report["points"]} == statuses


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
    assert np.allclose(mu, [0.3, 0.0])
    assert np.allclose(parse_mu_spec("0", 2), 0.0)
    # any spelling of a finite zero is the zero form
    for zero in ("0.0", "-0", "+0.0", "00", "zero", "", " "):
        np.testing.assert_array_equal(parse_mu_spec(zero, 2), [0.0, 0.0])
    # the <coeff>e<index> pattern wins over the float reading of "0.3e1"
    assert np.allclose(parse_mu_spec("-2e2", 2), [0.0, -2.0])
    with pytest.raises(ConfigError):
        parse_mu_spec("0.3e9", 2)
    with pytest.raises(ConfigError, match="malformed mu spec"):
        parse_mu_spec("garbage", 2)
    with pytest.raises(ConfigError, match="malformed mu spec"):
        parse_mu_spec("nan", 2)
    with pytest.raises(ConfigError, match=r"mu spec '1\.5' needs an index, e\.g\. 1\.5e1"):
        parse_mu_spec("1.5", 2)


def test_profile_spec_parsing():
    assert parse_profile_spec("unit", "g2-associative").at(0.5) == (1.0, 1.0)
    assert parse_profile_spec("unit", "stenzel-lagrangian") is DEFAULT_PROFILE
    assert parse_profile_spec("linear", "spin7-cayley").at(1.0) == (2.0, 3.0)
    assert parse_profile_spec("u=2,v=0.5", "g2-coassociative").at(1.0) == (2.0, 0.5)
    assert parse_profile_spec("vp=3,vpp=4", "stenzel-lagrangian").at(1.0) == (3.0, 4.0)
    with pytest.raises(ConfigError):
        parse_profile_spec("w=1", "g2-associative")
    # each suite reads only its own profile, so the other suite's keys are rejected
    with pytest.raises(ConfigError, match=r"allowed: \['vp', 'vpp'\]"):
        parse_profile_spec("u=2,v=0.5,vp=3,vpp=4", "stenzel-lagrangian")
    with pytest.raises(ConfigError, match=r"allowed: \['u', 'v'\]"):
        parse_profile_spec("u=2,v=0.5,vp=3,vpp=4", "spin7-cayley")


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
    cfg_file.write_text("chart=veronese\nsection=sinphi:C=1,D=0\nsamples=2\nseed=3\n")
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


def test_cli_config_file_rejects_a_suite_line(tmp_path, capsys):
    # the positional suite always won, so a suite= line was silently ignored
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("suite=g2-associative\n")
    assert main(["verify", "spin7-cayley", "--config", str(cfg_file)]) == 2
    assert f"{cfg_file}:1: unknown key 'suite'" in capsys.readouterr().err


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


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_cli_unwritable_out_is_a_config_error(tmp_path, capsys, where):
    # exit 1 would read as a FAIL verdict
    out = tmp_path / "missing" / "r.json" if where == "missing-dir" else tmp_path
    assert main(["verify", "g2-associative", "--samples", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write report: ") and str(out) in err


def test_cli_calls_in_one_process_share_no_values(tmp_path):
    from twistcal.cli import _build_parser

    assert _build_parser() is _build_parser()
    base = ["verify", "g2-associative", "--samples", "2"]

    def run(*flags):
        out = tmp_path / "r.out"
        assert main([*base, *flags, "--out", str(out)]) == 0
        return out.read_bytes()

    assert "timestamp" in json.loads(run("--timestamp"))["provenance"]
    assert "timestamp" not in json.loads(run())["provenance"]
    assert run("--format", "csv").startswith(b"index,status,")
    assert json.loads(run())["config"]["fmt"] == "json"
    cfg_file = tmp_path / "suite.cfg"
    cfg_file.write_text("chart=veronese\nsection=sinphi:C=1,D=0\n")
    assert json.loads(run("--config", str(cfg_file)))["config"]["chart"] == "veronese"
    assert json.loads(run())["config"]["chart"] == "equatorial"


def test_fresh_verify_imports_neither_importlib_metadata_nor_numpy_ma(tmp_path):
    # each is a 14-17 ms cold import that every fresh process would pay; the
    # bitmask exterior algebra is not on the verification path at all
    jobs = [
        ["spin7-cayley"],
        ["g2-associative", "--chart", "veronese", "--section", "sinphi"],
        ["g2-coassociative", "--chart", "veronese-antipodal", "--section", "const:c=2"],
        ["stenzel-lagrangian", "--chart", "veronese", "--mu", "0"],
    ]
    script = (
        "import sys\n"
        "from twistcal.cli import main\n"
        f"for job in {jobs!r}:\n"
        f"    main(['verify', *job, '--samples', '1', '--out', {str(tmp_path / 'r.json')!r}])\n"
        "print([m for m in ('importlib.metadata', 'numpy.ma', 'twistcal.exterior')"
        " if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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
    report = VerificationReport.build(cfg, [[0.1]], [[0.2]], {"r": [float("nan")]}, {})
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
        # a pass band above the FAIL level would report clear failures as PASS
        (_VERIFY + ["--tol-verdict", "0.0011"],
         f"tol_verdict must be at most the FAIL separation {SEPARATION!r}, got 0.0011"),
        # the Stenzel suite samples its fibres; a --fiber must not be echoed and ignored
        (_VERIFY + ["--fiber=9;9"], "fiber does not apply to the stenzel-lagrangian suite"),
        # steps outside the FD range give truncation error or round-off above the tolerances
        (_VERIFY + ["--fd-step", "1e-2"], "fd_step must lie in [1e-10, 0.001], got 0.01"),
        (_VERIFY + ["--fd-step", "1e-300"], "fd_step must lie in [1e-10, 0.001], got 1e-300"),
        (["table", "veronese", "--fd-step", "1e-14"], "fd_step must lie in [1e-10, 0.001], got 1e-14"),
        # a profile key or preset that the suite does not read is rejected, not ignored
        (["verify", "g2-associative", "--chart", "veronese", "--section", "sinphi:C=1,D=0",
          "--profile", "vp=2"], "unknown g2-associative profile keys ['vp']; allowed: ['u', 'v']"),
        (_VERIFY + ["--profile", "u=2"],
         "unknown stenzel-lagrangian profile keys ['u']; allowed: ['vp', 'vpp']"),
        (_VERIFY + ["--profile", "linear"], "profile 'linear' does not apply to stenzel-lagrangian"),
    ],
)
def test_cli_rejects_bad_input_with_exit_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {message}")


@pytest.mark.parametrize(
    "argv, suite, operation",
    [
        (["verify", "g2-associative", "--fiber", "1e308", "--samples", "2"], "g2-associative", "multiply"),
        (["verify", "g2-associative", "--fiber=1e200"], "g2-associative", "multiply"),
        (["verify", "g2-coassociative", "--fiber=1e200,0"], "g2-coassociative", "multiply"),
        (["verify", "spin7-cayley", "--fiber=1e200,0"], "spin7-cayley", "multiply"),
        (["verify", "stenzel-lagrangian", "--mu", "1000e1"], "stenzel-lagrangian", "cosh"),
    ],
    ids=["associative-1e308", "associative-1e200", "coassociative", "cayley", "stenzel-mu"],
)
def test_overflowing_input_exits_1_with_one_line(argv, suite, operation, capsys):
    # an inf fibre radius must not pass: unit weights never read it, so the
    # residual would stay 0
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"diagnostic failure: suite {suite!r}: overflow encountered in {operation}; "
        "an input is too large for double precision\n"
    )


def test_config_validation_requires_finite_values():
    for field in ("fd_step", "tol_verdict"):
        for value in (float("nan"), float("inf"), 0.0, -1e-5):
            with pytest.raises(ConfigError, match=field):
                SuiteConfig(suite="s", **{field: value}).validate()
    SuiteConfig(suite="s", fd_step=1e-7, tol_verdict=1e-3).validate()
    for value in (1e-10, 1e-3):
        SuiteConfig(suite="s", fd_step=value).validate()


def test_stenzel_fiber_is_rejected_from_file_and_run_suite(tmp_path):
    cfg_file = tmp_path / "suite.cfg"
    cfg_file.write_text("chart=equatorial\nfiber=9;9\nsamples=2\n")
    assert main(["verify", "stenzel-lagrangian", "--config", str(cfg_file)]) == 2
    with pytest.raises(ConfigError, match="fiber does not apply"):
        run_suite(SuiteConfig(suite="stenzel-lagrangian", fiber="0.5", samples=2))


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
    assert report.status.size


# -- the benchmark's tracer ------------------------------------------------------------------


def test_benchmark_tracer_installs_and_uninstalls(tmp_path):
    # perfbench/tracing.py rebinds twistcal functions by name, so a renamed or
    # dropped one (stenzel.with_normal_frame among them) fails here
    from tracing import NORMAL_FRAME_SPAN, Tracer

    from twistcal import cli, stenzel, submanifold

    names = ("with_normal_frame", "closed_form_tangents", "omega_value", "twisted_conormal_point")
    originals = {name: getattr(stenzel, name) for name in names}
    chart = submanifold.get_chart("veronese")
    u, t = np.array([1.1, 2.3]), np.array([0.4, -0.7])
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(stenzel, name) is not originals[name] for name in names)
        argv = ["verify", "stenzel-lagrangian", "--chart", "veronese", "--mu", "0", "--samples", "2"]
        assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) == 0
        stenzel.closed_form_tangents(submanifold.get_chart("veronese"), stenzel.constant_mu([0.3, 0.0]), u, t)
        stenzel.with_normal_frame(chart, u).frame_field(u)
    finally:
        tracer.uninstall()
    assert all(getattr(stenzel, name) is originals[name] for name in names)
    assert submanifold.get_chart("veronese") is chart
    summary = tracer.summary()
    for span in ("cli.main", "stenzel.twisted_conormal_point", "stenzel.closed_form_tangents",
                 "examples.xmap", "examples.frame_field", NORMAL_FRAME_SPAN):
        assert summary[span]["calls"] >= 1, span
