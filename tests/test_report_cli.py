import argparse
import ast
import dataclasses
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from twistcal.cli import _CONFIG_KEYS, main
from twistcal.errors import ConfigError, TwistcalError
from twistcal.report import (
    MAX_ROWS,
    SEPARATION,
    SuiteConfig,
    VerificationReport,
    emit,
    parse_report,
)
from twistcal.examples import MAX_COEFF_INDEX, make_section_family, section_family
from twistcal.numerics import Profile, strict_arithmetic
from twistcal.stenzel import DEFAULT_PROFILE, lagrangian_columns
from twistcal.submanifold import get_chart
from twistcal.suites import (
    SUITES,
    _parse_job,
    parse_mu_spec,
    parse_profile_spec,
    run_suite,
    suite_names,
)

from conftest import stenzel_job_inputs


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
    u = get_chart("veronese").sample(np.random.default_rng(0), 4)
    np.testing.assert_array_equal(section_family("sinphi:C=1,D=-0.5", 2).value(u),
                                  make_section_family("sinphi", C=1.0, D=-0.5).value(u))
    np.testing.assert_array_equal(section_family("", 2).value(u), 0.0)


def test_mu_spec_parsing():
    def mu(spec):
        return parse_mu_spec(spec, get_chart("equatorial").q)  # q = 2

    assert np.allclose(mu("0.3e1"), [0.3, 0.0])
    assert np.allclose(mu("0"), 0.0)
    # any spelling of a finite zero is the zero form
    for zero in ("0.0", "-0", "+0.0", "00", "zero", ""):
        np.testing.assert_array_equal(mu(zero), [0.0, 0.0])
    # the <coeff>e<index> pattern wins over the float reading of "0.3e1"
    assert np.allclose(mu("-2e2"), [0.0, -2.0])
    with pytest.raises(ConfigError):
        mu("0.3e9")
    with pytest.raises(ConfigError, match="malformed mu spec"):
        mu("garbage")
    with pytest.raises(ConfigError, match="malformed mu spec"):
        mu("nan")
    with pytest.raises(ConfigError, match=r"mu spec '1\.5' needs an index, e\.g\. 1\.5e1"):
        mu("1.5")


def test_profile_spec_parsing():
    assert parse_profile_spec("unit", "g2-associative").at(0.5) == (1.0, 1.0)
    assert parse_profile_spec("unit", "stenzel-lagrangian") is DEFAULT_PROFILE
    assert parse_profile_spec("linear", "spin7-cayley").at(1.0) == (2.0, 3.0)
    # constants stay plain floats, and an absent key reads 1
    assert parse_profile_spec("u=2,v=0.5", "g2-coassociative") == Profile(2.0, 0.5)
    assert parse_profile_spec("vp=3,vpp=4", "stenzel-lagrangian") == Profile(3.0, 4.0)
    assert parse_profile_spec("vpp=4", "stenzel-lagrangian") == Profile(1.0, 4.0)
    with pytest.raises(ConfigError):
        parse_profile_spec("w=1", "g2-associative")
    # each suite reads only its own profile, so the other suite's keys are rejected
    with pytest.raises(ConfigError, match=r"allowed: \['vp', 'vpp'\]"):
        parse_profile_spec("u=2,v=0.5,vp=3,vpp=4", "stenzel-lagrangian")
    with pytest.raises(ConfigError, match=r"allowed: \['u', 'v'\]"):
        parse_profile_spec("u=2,v=0.5,vp=3,vpp=4", "spin7-cayley")


@pytest.mark.parametrize("suite", suite_names())
def test_a_blank_spec_reads_as_an_empty_one(suite):
    # _parse_job strips each spec before any parser reads it, so " " is no spec of its
    # own: it was the Stenzel profile vp=1,vpp=1, the section kind '', the fibre entry ''
    # and, on the Stenzel suite, a --fiber that does not apply
    jobs = [SuiteConfig(suite, section=spec, profile=spec, fiber=spec, samples=2) for spec in (" ", "")]
    (blank_config, chart, blank_profile, blank_twist, _), (config, _, profile, twist, _) = map(_parse_job, jobs)
    assert blank_config == config
    assert blank_profile is profile is SUITES[suite].profile.presets["unit"]
    u = chart.sample(np.random.default_rng(0), 3)

    def values(tw):  # a mu is its coefficient array, a section family has values at chart points
        return tw if isinstance(tw, np.ndarray) else tw.value(u)

    np.testing.assert_array_equal(values(blank_twist), values(twist))
    blank, empty = map(run_suite, jobs)
    assert emit(blank, "json") == emit(empty, "json")


@pytest.mark.parametrize("name", suite_names())
def test_each_suite_behaves_as_its_record_declares(name, capsys):
    suite = SUITES[name]
    assert all(len(fiber) == suite.fiber_width for fiber in suite.default_fibers)
    argv = ["verify", name, "--samples", "2"]
    fiber = ",".join(["0.5"] * max(suite.fiber_width, 1))
    assert (main(argv + ["--fiber=" + fiber]) != 2) == bool(suite.fiber_width)
    for preset, profile in suite.profile.presets.items():
        assert parse_profile_spec(preset, name) is profile
    capsys.readouterr()
    for key in {key for other in SUITES.values() for key in other.profile.keys} - set(suite.profile.keys):
        assert main(argv + ["--profile", f"{key}=1"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: unknown {name} profile keys ['{key}']")
    assert (main(argv + ["--mu", "0"]) != 2) == suite.takes_mu
    report = run_suite(SuiteConfig(name, samples=2))
    chart = get_chart(SuiteConfig(name).chart)
    assert report.t.shape == (2 * max(len(suite.default_fibers), 1), suite.fiber_width or chart.n - chart.q)


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


# per verify key: a suite, a value that changes its report, and another value
_KEY_CASES = {
    "chart": ("g2-associative", "veronese", "veronese-hat"),
    "section": ("g2-associative", "sinphi:C=1,D=0", "const:re=0.4"),
    "mu": ("stenzel-lagrangian", "0.3e1", "0"),
    "samples": ("g2-associative", "2", "1"),
    "seed": ("g2-associative", "3", "4"),
    "tol_verdict": ("g2-associative", "1e-05", "1e-06"),
    "profile": ("g2-associative", "u=2,v=0.5", "linear"),
    "fiber": ("g2-associative", "-2;0.5", "1"),
    "format": ("g2-associative", "csv", "json"),
    "out": ("g2-associative", "a.json", "b.json"),
}


@pytest.mark.parametrize("key", sorted(_CONFIG_KEYS))
def test_cli_config_file_and_flag_override(key, tmp_path, monkeypatch, capsysbinary):
    # a file line gives the bytes that its flag gives, and a flag overrides a
    # file line of the same key
    suite, value, other = _KEY_CASES[key]
    flag = f"--{key.replace('_', '-')}={value}"
    samples = [] if key == "samples" else ["--samples", "2"]
    monkeypatch.chdir(tmp_path)

    def run(line, *flags):
        (tmp_path / "c.cfg").write_text(line)
        code = main(["verify", suite, *samples, "--config", "c.cfg", *flags])
        written = {}
        for path in tmp_path.glob("*.json"):
            written[path.name] = path.read_bytes()
            path.unlink()
        return code, capsysbinary.readouterr(), written

    by_flag = run("", flag)
    assert by_flag != run("")
    assert run(f"{key}={value}\n") == by_flag
    assert run(f"{key}={other}\n", flag) == by_flag


def test_cli_bad_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("nonsense line\n")
    assert main(["verify", "g2-associative", "--config", str(cfg_file)]) == 2
    cfg_file.write_text("unknown_key=3\n")
    assert main(["verify", "g2-associative", "--config", str(cfg_file)]) == 2
    # a file that is not UTF-8 text is a config error, not a UnicodeDecodeError
    cfg_file.write_bytes(b"\xff\xfesamples=2\n")
    capsys.readouterr()
    assert main(["verify", "g2-associative", "--config", str(cfg_file)]) == 2
    assert capsys.readouterr().err == f"config error: cannot read config file: {cfg_file} is not UTF-8 text\n"


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


def _count_runner_calls(monkeypatch, suite):
    """A list that gains one entry at each call of ``suite``'s runner."""
    import twistcal.suites as suites

    record = suites.SUITES[suite]
    calls = []

    def counted(*args):
        calls.append(args)
        return record.runner(*args)

    monkeypatch.setitem(suites.SUITES, suite, dataclasses.replace(record, runner=counted))
    return calls


def test_an_out_path_with_a_nul_byte_is_a_config_error_before_the_suite_runs(tmp_path, monkeypatch, capsys):
    # open() refuses the path with a ValueError, after the whole suite has run
    calls = _count_runner_calls(monkeypatch, "g2-associative")
    cfg_file = tmp_path / "nul.cfg"
    cfg_file.write_bytes(b"out=/tmp/a\0b.json\nsamples=2\n")
    assert main(["verify", "g2-associative", "--config", str(cfg_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: out path '/tmp/a\\x00b.json' holds a NUL byte\n"
    assert calls == []


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
    from twistcal.suites import _check_finite

    with pytest.raises(TwistcalError, match=r"^numerical breakdown at u=\[0.1\], t=\[0.2\]: r=nan; "):
        with strict_arithmetic("job") as log:
            _check_finite(log, np.array([[0.1]]), np.array([[0.2]]), {"r": np.array([np.nan])}, {})


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


def _near(reference, tol=1e-12):
    """A pinned maximum: within ``tol`` of ``reference``, relative to it."""
    return lambda value: abs(value - reference) <= tol * reference


_CONSTANT_WEIGHTS = "--profile u=2,v=0.5"


@pytest.mark.parametrize(
    "job, verdict, pins",
    [
        # the D-scaling of the lifted residuals, at constant weights and at the linear
        # profile, whose weights read each row's fibre radius; the spinor-frame criterion
        (f"spin7-cayley --chart equatorial --section const:re=0.4 {_CONSTANT_WEIGHTS}", "FAIL",
         {"residual.cayley.max": _near(0.5898729656826857), "residual.calibration_gap.max": _near(0.01081495944000821),
          "criterion.dbar_vminus.max": _near(0.5898729656826857)}),
        (f"g2-associative --chart equatorial --section sinphi:C=1,D=0 {_CONSTANT_WEIGHTS}", "FAIL",
         {"residual.associative.max": _near(5.431259315594848)}),
        (f"g2-coassociative --chart veronese --section coord:axis=1 {_CONSTANT_WEIGHTS}", "FAIL",
         {"residual.coassociative.max": _near(0.9870052140349421)}),
        ("spin7-cayley --chart equatorial --section const:re=0.4 --profile linear", "FAIL",
         {"residual.cayley.max": _near(23842.311836532113), "residual.calibration_gap.max": _near(136.09161919789517)}),
        ("g2-associative --chart equatorial --section sinphi:C=1,D=0 --profile linear", "FAIL",
         {"residual.associative.max": _near(4082.7026937872483)}),
        ("g2-coassociative --chart veronese --section coord:axis=1 --profile linear", "FAIL",
         {"residual.coassociative.max": _near(5453.661230863881)}),
        ("spin7-cayley --chart veronese --section const:re=0.4,im=-0.7", "FAIL",
         {"criterion.dbar_vminus.max": _near(1.8390130384231975)}),
        # the exact supremum over the unit normals of the positive Veronese surface
        ("g2-coassociative --chart veronese --section coord:axis=1", "FAIL",
         {"criterion.neg_superminimal.max": lambda value: abs(value - 2 / np.sqrt(3)) <= 1e-12}),
        ("g2-coassociative --chart equatorial --section coord:axis=2 --samples 20", "FAIL",
         {"criterion.parallel_e.max": lambda value: value > 1}),
        # a true PASS at round-off, and the closed-form cross-check of a twisted FAIL
        ("stenzel-lagrangian --chart veronese --mu 0 --profile vp=2,vpp=0.5 --seed 0", "PASS",
         {"residual.omega_max.max": lambda value: value <= 1e-11}),
        ("stenzel-lagrangian --chart equatorial --mu 0.3e1 --samples 20", "FAIL",
         {"diagnostic.closed_form_gap.max": lambda value: value <= 1e-9}),
        ("stenzel-lagrangian --chart equatorial --mu 0.3e1", "FAIL",
         {"diagnostic.closed_form_gap.max": lambda value: value <= 1e-9,
          "diagnostic.bracket_factor.min": _near(15.041974606298089)}),
    ],
    ids=["cayley", "associative", "coassociative", "cayley-linear", "associative-linear", "coassociative-linear",
         "dbar-vminus-veronese", "neg-superminimal", "parallel-e", "stenzel-pass", "stenzel-closed-form",
         "stenzel-bracket"],
)
def test_the_pinned_maxima_of_the_installed_package_step(job, verdict, pins, tmp_path):
    # the jobs and tolerances of the CI step, run in-process; a later flag overrides
    # the default --samples 5 and --seed 7
    out = tmp_path / "r.json"
    assert main(["verify", *"--samples 5 --seed 7".split(), *job.split(), "--out", str(out)]) == (verdict != "PASS")
    report = json.loads(out.read_bytes())
    assert report["verdict"] == verdict
    for key, holds in pins.items():
        assert holds(report["aggregates"][key]), (key, report["aggregates"][key])


def test_cli_rejects_removed_tolerance_knobs(tmp_path):
    # only tol_verdict decides a point's status, so no other tolerance is
    # accepted that would look as if it did
    cfg_file = tmp_path / "suite.cfg"
    for key in ("tol_algebraic", "tol_geometric"):
        assert main(["verify", "g2-associative", "--samples", "1", "--" + key.replace("_", "-"), "1e-30"]) == 2
        cfg_file.write_text(f"{key}=1e-30\n")
        assert main(["verify", "g2-associative", "--config", str(cfg_file)]) == 2


# -- bad input exits 2 with a precise message ----------------------------------------------

_VERIFY = ["verify", "stenzel-lagrangian", "--chart", "equatorial", "--mu", "0", "--samples", "2"]
_CAYLEY = ["verify", "spin7-cayley", "--chart", "equatorial", "--samples", "2"]
_COASSOC = ["verify", "g2-coassociative", "--chart", "veronese-antipodal", "--samples", "2"]
# each stands for a config file of the one line given here
_CONFIG_FILES = {"MU_FILE": "mu=1e1\n", "CSV_FILE": "format=csv\n"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "veronese", "--samples", "0"], "samples must be >= 1, got 0"),
        (["table", "veronese", "--samples", "-3"], "samples must be >= 1, got -3"),
        (_VERIFY + ["--tol-verdict", "0"], "tol_verdict must be a finite positive number, got 0.0"),
        (_VERIFY + ["--tol-verdict", "-1e-5"], "tol_verdict must be a finite positive number, got -1e-05"),
        (_VERIFY + ["--tol-verdict", "inf"], "tol_verdict must be a finite positive number, got inf"),
        (["table", "nosuch"], "unknown golden table 'nosuch'"),
        (["verify", "nosuch"], "unknown suite 'nosuch'"),
        (_VERIFY + ["--chart", "nosuch"], "unknown chart 'nosuch'"),
        (_VERIFY + ["--tol-verdict", "nan"], "tol_verdict must be a finite positive number, got nan"),
        (_CAYLEY + ["--fiber", "a;b"], "fiber entry needs a number, got 'a'"),
        (_CAYLEY + ["--fiber=1,2,"], "fiber entry needs a number, got ''"),
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
        (_COASSOC + ["--section", "coord:axis=1.5"], "coord axis must be an integer index >= 1, got 1.5"),
        # a pass band above the FAIL level would report clear failures as PASS
        (_VERIFY + ["--tol-verdict", "0.0011"],
         f"tol_verdict must be at most the FAIL separation {SEPARATION!r}, got 0.0011"),
        # the Stenzel suite samples its fibres; a --fiber must not be echoed and ignored
        (_VERIFY + ["--fiber=9;9"], "fiber does not apply to the stenzel-lagrangian suite"),
        # mu is the Stenzel suite's spelling of section: both is one key given
        # twice, not a silent choice of one twist
        (_VERIFY + ["--section", "0.3e1"], "command line: the twist is given more than once, as mu and as section"),
        # a twist index or section kind that does not exist
        (_VERIFY + ["--mu", "0.3e3"], "mu index 3 out of range 1..2"),
        (_CAYLEY + ["--section", "nosuch"], "unknown section kind 'nosuch'"),
        (_COASSOC + ["--section", "sinphi"], "unknown eta kind 'sinphi'"),
        # a profile key or preset that the suite does not read is rejected, not ignored
        (["verify", "g2-associative", "--chart", "veronese", "--section", "sinphi:C=1,D=0",
          "--profile", "vp=2"], "unknown g2-associative profile keys ['vp']; allowed: ['u', 'v']"),
        (_VERIFY + ["--profile", "u=2"],
         "unknown stenzel-lagrangian profile keys ['u']; allowed: ['vp', 'vpp']"),
        (_VERIFY + ["--profile", "linear"], "profile 'linear' does not apply to stenzel-lagrangian"),
        # a job that would not fit in memory is refused before anything is allocated
        (["verify", "g2-associative", "--samples", "100000000000"],
         f"100000000000 samples exceed the cap of {MAX_ROWS} rows per job"),
        (_CAYLEY + ["--samples", str(MAX_ROWS // 3 + 1)],
         f"{MAX_ROWS // 3 + 1} samples x 3 fibre tuples exceed the cap of {MAX_ROWS} rows per job"),
        (_VERIFY + ["--samples", str(MAX_ROWS + 1)], f"{MAX_ROWS + 1} samples exceed the cap of {MAX_ROWS} rows per job"),
        (["table", "veronese", "--samples", "100000000000"],
         f"100000000000 samples exceed the cap of {MAX_ROWS} rows per job"),
        (_COASSOC + ["--section", "coord:axis=0"], "coord axis must be an integer index >= 1, got 0"),
        (_VERIFY + ["--profile", "vp=-1"], "profile derivatives must be positive"),
        (_VERIFY + ["--profile", "vpp=0"], "profile derivatives must be positive"),
        # a repeated key is rejected, not resolved to its last value
        (_CAYLEY + ["--section", "equatorial-hol:c1re=1,c1re=2"], "parameter 'c1re' is given more than once"),
        (_CAYLEY + ["--section", "const:re=1, re=2"], "parameter 're' is given more than once"),
        (_CAYLEY + ["--profile", "u=1,u=2"], "parameter 'u' is given more than once"),
        # a mu, from either source, does not hide that the suite is unknown
        (["verify", "bogus", "--mu", "1e1"], "unknown suite 'bogus'"),
        (["verify", "bogus", "--config", "MU_FILE"], "unknown suite 'bogus'"),
        # two spellings of one coefficient are one key given twice, not a sum
        (["verify", "g2-associative", "--chart", "equatorial", "--section", "equatorial-hol:c1re=1,c01re=2",
          "--samples", "3", "--seed", "1"],
         "equatorial-hol coefficient c1re is given more than once, as 'c1re' and 'c01re'\n"),
        (["verify", "g2-associative", "--chart", "veronese", "--section", "veronese-strip:k0re=1,k-0re=1",
          "--samples", "3", "--seed", "1"],
         "veronese-strip coefficient k0re is given more than once, as 'k0re' and 'k-0re'\n"),
        (_CAYLEY + ["--section", "veronese-strip:x1re=1"], "unknown veronese-strip key 'x1re'"),
        (_CAYLEY + ["--section", "const:c=1"], "unknown const section keys ['c']; allowed: ['im', 're']"),
        (_COASSOC + ["--section", "coord:axis=1,axis=2"], "parameter 'axis' is given more than once"),
        # a key named like a factory argument is an unknown key, not a clash with it
        (_CAYLEY + ["--section", "const:kind=1"], "unknown const section keys ['kind']; allowed: ['im', 're']"),
        (_COASSOC + ["--section", "coord:kind=1"], "unknown coord eta keys ['kind']; allowed: ['axis']"),
        # a flag that nothing reads is rejected, not ignored: a csv report has no provenance block
        (["verify", "g2-associative", "--samples", "2", "--format", "csv", "--timestamp"],
         "--timestamp applies only to the json format, not csv\n"),
        (["verify", "g2-associative", "--samples", "2", "--config", "CSV_FILE", "--timestamp"],
         "--timestamp applies only to the json format, not csv\n"),
    ],
)
def test_cli_rejects_bad_input_with_exit_2(argv, message, capsys, tmp_path):
    for name, text in _CONFIG_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg in _CONFIG_FILES else arg for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {message}")


_BROKEN_ROW = re.compile(r"the first row it makes non-finite is u=(\[.*?\]), t=(\[.*?\]) \(")


def _named_row(err):
    """The (u, t) row that an overflow message names."""
    match = _BROKEN_ROW.search(err)
    assert match, err
    return [ast.literal_eval(group) for group in match.groups()]


@pytest.mark.parametrize(
    "argv, chunk",
    [
        (["verify", "g2-associative", "--fiber", "1e308", "--samples", "2"], "1e308"),
        (["verify", "g2-associative", "--fiber=1e200"], "1e200"),
        (["verify", "g2-coassociative", "--fiber=1e200,0"], "1e200,0"),
        (["verify", "spin7-cayley", "--fiber=1e200,0"], "1e200,0"),
        (["verify", "spin7-cayley", "--chart", "equatorial", "--fiber=1e308,0"], "1e308,0"),
        # each entry squares to a finite number, their sum does not
        (["verify", "spin7-cayley", "--fiber=0,0;1.1e154,1.1e154"], "1.1e154,1.1e154"),
    ],
    ids=["associative-1e308", "associative-1e200", "coassociative", "cayley", "cayley-1e308", "cayley-sum"],
)
def test_a_fibre_whose_squared_radius_overflows_exits_2(argv, chunk, capsys):
    # an inf fibre radius must not pass: unit weights never read it, so the
    # residual would stay 0
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: fiber tuple {chunk!r} is too large: the sum of its squares overflows double precision\n"
    )


@pytest.mark.parametrize(
    "argv, suite, operation, fiber",
    [
        (["verify", "stenzel-lagrangian", "--mu", "1000e1"], "stenzel-lagrangian", "cosh", None),
        (["verify", "stenzel-lagrangian", "--chart", "veronese", "--mu", "1000e1"], "stenzel-lagrangian",
         "cosh", None),
        # the real pairing of the tangents overflows long before cosh does
        (["verify", "stenzel-lagrangian", "--chart", "veronese", "--mu", "300e1"], "stenzel-lagrangian",
         "multiply", None),
        # below the fibre bound, the linear weights overflow
        (["verify", "spin7-cayley", "--profile", "linear", "--fiber=1e100,0"], "spin7-cayley", "multiply",
         [1e100, 0.0]),
        # at 1e100 the Plücker coordinates of this totally geodesic base stay finite
        (["verify", "g2-coassociative", "--profile", "linear", "--fiber=1e110,0"], "g2-coassociative",
         "multiply", [1e110, 0.0]),
        (["verify", "spin7-cayley", "--profile", "u=1e300,v=1e300"], "spin7-cayley", "multiply", [0.0, 0.0]),
    ],
    ids=["stenzel-mu", "stenzel-veronese-mu", "stenzel-pairing", "cayley-linear", "coassociative-linear",
         "cayley-weights"],
)
def test_overflowing_input_exits_1_and_names_the_first_broken_row(argv, suite, operation, fiber, capsys):
    # every row of these jobs overflows, so the message names the first
    # sample with the first fibre
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"diagnostic failure: suite {suite!r}: overflow encountered in {operation}; "
        "the first row it makes non-finite is u="
    )
    assert captured.err.endswith("; an input is too large for double precision\n")
    assert captured.err.count("\n") == 1
    flags = dict(zip(argv[2::2], argv[3::2]))
    config = SuiteConfig(suite, flags.get("--chart", "equatorial"), flags.get("--mu", "zero"))
    _, _, _, samples, fibers = stenzel_job_inputs(config)
    u, t = _named_row(captured.err)
    assert u == samples[0].tolist()
    assert t == (fibers[0].tolist() if fiber is None else fiber)


@pytest.mark.parametrize(
    "job, line",
    [
        # cayley is non-finite in this row too: the residuals are read in sorted order
        ("spin7-cayley --chart equatorial --section const:re=1e200 --profile linear",
         "suite 'spin7-cayley': overflow encountered in multiply; the first row it makes non-finite is "
         "u=[0.6848084366072715, -1.1510664311806484], t=[0.0, 0.0] (calibration_gap=nan)"),
        ("g2-associative --chart equatorial --section const:re=1e200 --profile linear",
         "suite 'g2-associative': overflow encountered in multiply; the first row it makes non-finite is "
         "u=[0.6848084366072715, -1.1510664311806484], t=[-2.0] (associative=nan)"),
        ("g2-coassociative --chart veronese --section const:c=1e200 --profile linear",
         "suite 'g2-coassociative': overflow encountered in multiply; the first row it makes non-finite is "
         "u=[1.9052009763822215, 1.8562692163587053], t=[0.7, -1.2] (coassociative=nan)"),
        ("stenzel-lagrangian --chart equatorial --mu 1e300e1",
         "suite 'stenzel-lagrangian': overflow encountered in matmul; the first row it makes non-finite is "
         "u=[0.6848084366072715, -1.1510664311806484], t=[-1.1942747407042567, -0.5882316399444842] "
         "(omega_max=nan)"),
    ],
    ids=["cayley", "associative", "coassociative", "stenzel"],
)
def test_an_overflowing_twist_names_the_first_non_finite_value_of_its_row(job, line, capsys):
    assert main(["verify", *job.split(), "--samples", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"diagnostic failure: {line}; an input is too large for double precision\n"


def test_a_breakdown_names_a_residual_before_a_criterion_of_its_row(monkeypatch):
    # mu_norm sorts before omega_max, but the residuals are read first
    import twistcal.stenzel as stenzel

    original = stenzel.lagrangian_columns

    def broken(*args):
        omega_max, mu_norm, *rest = original(*args)
        omega_max, mu_norm = np.array(omega_max), np.array(mu_norm)
        omega_max[1] = mu_norm[1] = np.nan
        return omega_max, mu_norm, *rest

    monkeypatch.setattr(stenzel, "lagrangian_columns", broken)
    config = SuiteConfig("stenzel-lagrangian", "equatorial", "0.3e1", samples=3, seed=7)
    _, _, _, samples, fibers = stenzel_job_inputs(config)
    with pytest.raises(TwistcalError) as info:
        run_suite(config)
    assert str(info.value) == (
        f"numerical breakdown at u={samples[1].tolist()}, t={fibers[1].tolist()}: omega_max=nan; "
        "residuals={'omega_max': nan}, criteria={'mu_norm': nan}")


def test_an_overflow_in_building_the_report_is_logged(monkeypatch):
    # the columns are finite, but the median of two values near the largest double is not
    import twistcal.suites as suites

    def runner(*_):
        return np.zeros((2, 2)), np.zeros((2, 1)), {"r": np.full(2, 1.7e308)}, {"c": np.zeros(2)}, {}

    monkeypatch.setitem(suites.SUITES, "g2-associative", dataclasses.replace(suites.SUITES["g2-associative"],
                                                                             runner=runner))
    with pytest.raises(TwistcalError, match=r"^suite 'g2-associative': overflow encountered in scalar add; "
                                            "an input is too large for double precision$"):
        run_suite(SuiteConfig("g2-associative", samples=2))


def test_an_overflow_names_the_first_row_whose_own_arithmetic_overflows(capsys):
    # at this twist some fibre radii overflow the Stenzel pairing and some do
    # not; the named row is the first whose own evaluation overflows
    config = SuiteConfig("stenzel-lagrangian", "veronese", "143.1e1", samples=20, seed=0)
    chart, profile, mu, samples, fibers = stenzel_job_inputs(config)
    broken = []
    for u, t in zip(samples, fibers):
        try:
            with strict_arithmetic("row"):
                lagrangian_columns(chart, mu, u[None], t[None], profile)
            broken.append(False)
        except TwistcalError:
            broken.append(True)
    first = broken.index(True)
    assert 0 < first and not all(broken[first:])
    argv = ["verify", "stenzel-lagrangian", "--chart", "veronese", "--mu", "143.1e1", "--samples", "20"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "overflow encountered in" in err
    assert _named_row(err) == [samples[first].tolist(), fibers[first].tolist()]


def test_an_overflowing_job_runs_its_suite_once(monkeypatch, capsys):
    # the row is named from the one run's own report, not from a second run
    calls = _count_runner_calls(monkeypatch, "spin7-cayley")
    assert main(["verify", "spin7-cayley", "--profile", "linear", "--fiber=1e100,0"]) == 1
    assert _named_row(capsys.readouterr().err)[1] == [1e100, 0.0]
    assert len(calls) == 1


def test_strict_arithmetic_runs_its_block_to_the_end_then_names_the_first_operation():
    ran = []
    with pytest.raises(TwistcalError) as exc:
        with strict_arithmetic("block"):
            np.cosh(np.array([1e3]))
            np.array([np.inf]) - np.inf
            ran.append(True)
    assert ran == [True]
    assert str(exc.value) == "block: overflow encountered in cosh; an input is too large for double precision"


def test_an_error_after_a_logged_overflow_gives_way_to_the_overflow():
    with pytest.raises(TwistcalError, match="^block: overflow encountered in exp; an input is too large"):
        with strict_arithmetic("block"):
            np.exp(np.array([1e3]))
            raise TwistcalError("raised by the block")


def test_a_lost_imaginary_part_still_raises_at_once():
    ran = []
    with pytest.raises(TwistcalError, match="^cast: Casting complex values to real discards the imaginary part"):
        with strict_arithmetic("cast"):
            np.zeros(1)[:] = np.array([1j])
            ran.append(True)
    assert ran == []


def test_an_unknown_report_format_is_a_config_error():
    with pytest.raises(ConfigError) as info:
        SuiteConfig(suite="spin7-cayley", fmt="xml").validate()
    assert str(info.value) == "format must be json or csv"


def test_config_validation_requires_finite_values():
    for value in (float("nan"), float("inf"), 0.0, -1e-5):
        with pytest.raises(ConfigError, match="tol_verdict"):
            SuiteConfig(suite="s", tol_verdict=value).validate()
    for value in (1e-10, 1e-3):
        SuiteConfig(suite="s", tol_verdict=value).validate()


def test_cli_rejects_the_removed_fd_step(tmp_path, capsys):
    # every derivative is a complex step, so no step is left to set
    for argv in (_VERIFY, ["table", "veronese", "--samples", "2"]):
        assert main(argv + ["--fd-step", "1e-5"]) == 2
        assert capsys.readouterr().err == "config error: unrecognized arguments: --fd-step 1e-5\n"
    cfg_file = tmp_path / "suite.cfg"
    cfg_file.write_text("samples=1\nfd_step=1e-5\n")
    assert main(["verify", "g2-associative", "--config", str(cfg_file)]) == 2
    assert capsys.readouterr().err == f"config error: {cfg_file}:2: unknown key 'fd_step'\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        pytest.param(["nosuch"], "argument command: invalid choice: 'nosuch'", id="unknown-command"),
        pytest.param(["verify"], "the following arguments are required: suite", id="missing-suite"),
        pytest.param(_VERIFY + ["--format", "xml"], "argument --format: invalid choice: 'xml'", id="bad-format"),
        pytest.param(["table", "veronese", "--samples", "x"], "argument --samples: invalid int value: 'x'",
                     id="bad-int"),
    ],
)
def test_bad_command_line_is_one_config_error_line(argv, err, capsys):
    # argparse's own errors read like every other bad input: no usage line.
    # Only the start of the message is pinned; argparse words the list of
    # choices differently across Python versions.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {err}") and captured.err.count("\n") == 1
    assert captured.err.endswith("\n")


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["verify", "--help"], ["table", "--help"], ["-h", "verify"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: twistcal") and captured.err == ""


def test_config_file_key_given_twice_is_exit_2(tmp_path, capsys):
    # the second value is not silently kept: both lines are named
    cfg_file = tmp_path / "suite.cfg"
    cfg_file.write_text("samples=1\n# samples=5\nseed=3\nsamples=2\n")
    assert main(["verify", "g2-associative", "--config", str(cfg_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: {cfg_file}:4: key 'samples' is given more than once (first on line 1)\n"
    )
    cfg_file.write_text("mu=0\nsection=0.3e1\n")
    assert main(["verify", "stenzel-lagrangian", "--config", str(cfg_file)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {cfg_file}: the twist is given more than once, as mu and as section\n"
    )


def test_a_misplaced_mu_names_its_source(tmp_path, capsys):
    cfg_file = tmp_path / "suite.cfg"
    cfg_file.write_text("mu=0.3e1\n")
    assert main(["verify", "g2-associative", "--config", str(cfg_file)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {cfg_file}: mu only applies to the stenzel-lagrangian suite\n"
    )
    assert main(["verify", "g2-associative", "--mu", "0.3e1"]) == 2
    assert capsys.readouterr().err == (
        "config error: command line: mu only applies to the stenzel-lagrangian suite\n"
    )


def test_a_verify_job_parses_its_argv_once_and_deep_copies_no_config(tmp_path, monkeypatch):
    # the verify parser reads the arguments itself, not through the top
    # parser, and the config is echoed by a shallow copy
    calls = {"parse_known_args": 0, "asdict": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    parse = counted("parse_known_args", argparse.ArgumentParser.parse_known_args)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", parse)
    asdict = counted("asdict", dataclasses.asdict)
    monkeypatch.setattr(dataclasses, "asdict", asdict)
    for name, module in list(sys.modules.items()):
        if name.startswith("twistcal") and hasattr(module, "asdict"):
            monkeypatch.setattr(module, "asdict", asdict)
    out = tmp_path / "r.json"
    assert main(["verify", "g2-associative", "--samples", "2", "--fiber", "-1;0.5", "--out", str(out)]) == 0
    assert calls == {"parse_known_args": 1, "asdict": 0}


def test_a_twist_flag_overrides_a_file_line_of_the_other_spelling(tmp_path, capsys):
    # flags override the file whichever spelling of the twist each uses
    cfg_file = tmp_path / "suite.cfg"
    argv = ["verify", "stenzel-lagrangian", "--samples", "2", "--config", str(cfg_file)]
    for line, flags, code in (("mu=0.3e1", ["--section", "0"], 0), ("section=0", ["--mu", "0.3e1"], 1)):
        cfg_file.write_text(line + "\n")
        assert main(argv + flags) == code
        by_file_and_flag = capsys.readouterr()
        assert main(argv[:4] + flags) == code
        assert capsys.readouterr() == by_file_and_flag


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
    assert _parse_job(config)[3].value(u) == expected.value(u)


@pytest.mark.parametrize(
    "chart, key",
    [("equatorial", "equatorial-hol:c{}re"), ("veronese", "veronese-strip:k-{}im")],
    ids=["equatorial-hol", "veronese-strip"],
)
def test_coefficient_index_is_capped(chart, key, capsys):
    argv = ["verify", "g2-associative", "--chart", chart, "--samples", "2", "--section"]
    # at the cap the suite runs; its value may overflow, which is exit 1
    assert main(argv + [key.format(MAX_COEFF_INDEX) + "=1"]) in (0, 1)
    assert "cap" not in capsys.readouterr().err
    # one above it, and past the digit limit of int(), is a config error
    for index in (str(MAX_COEFF_INDEX + 1), "9" * 5000):
        kind, _, name = key.format(index).partition(":")
        assert main(argv + [f"{kind}:{name}=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {kind} key {name!r}: |index| exceeds the cap {MAX_COEFF_INDEX}\n"


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
