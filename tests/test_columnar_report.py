"""The columnar report against the record-based report layer it replaced.

``conftest.pointwise_report`` classifies, aggregates and serialises one record
per (sample, fibre) pair, as the report layer did before it held columns.  The
JSON and CSV bytes of every report must equal what that oracle writes from the
same values.  The JSON must also equal ``json.dumps`` of the report's own
``to_dict``, which the JSON emitter writes without building.
"""

import json
from datetime import datetime, timezone

import numpy as np
import pytest

from twistcal.report import (
    SEPARATION,
    SuiteConfig,
    VerificationReport,
    _median,
    emit,
    parse_report,
)
from twistcal.suites import run_suite

from conftest import job_config, pointwise_report, records_of
from workloads import WORKLOADS

WORKLOAD_CONFIGS = [
    pytest.param(job_config(job, 1), id=f"{name}-{j}-seed1")
    for name, jobs in WORKLOADS.items()
    for j, job in enumerate(jobs)
    if job.command == "verify"
]

README_CONFIGS = [
    pytest.param(SuiteConfig("stenzel-lagrangian", "equatorial", "0"), id="readme-lagrangian"),
    pytest.param(SuiteConfig("stenzel-lagrangian", "equatorial", "0.3e1"), id="readme-lagrangian-fail"),
    pytest.param(SuiteConfig("g2-associative", "veronese", "sinphi:C=1,D=0", seed=7), id="readme-assoc"),
    pytest.param(SuiteConfig("g2-coassociative", "veronese-antipodal", "const:c=2"), id="readme-coassoc"),
    pytest.param(SuiteConfig("spin7-cayley", "equatorial", "zero"), id="readme-cayley"),
    pytest.param(SuiteConfig("spin7-cayley", "veronese", "const:re=0.4", seed=4), id="readme-cayley-fail"),
    pytest.param(SuiteConfig("stenzel-lagrangian", "veronese", "0", seed=7), id="readme-veronese-pass"),
]


def _dumps(report) -> bytes:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2).encode() + b"\n"


def _assert_matches_oracle(report, config, provenance=None):
    oracle = pointwise_report(config, records_of(report), provenance)
    # the Stenzel suite adds its closed-form diagnostics after the build
    oracle.aggregates.update(
        {k: v for k, v in report.aggregates.items() if k.startswith("diagnostic.")}
    )
    assert report.status.tolist() == [p.status for p in oracle.points]
    assert report.verdict == oracle.verdict
    for fmt in ("json", "csv"):
        assert emit(report, fmt) == oracle.emit(fmt), fmt
    assert emit(report, "json") == _dumps(report)


@pytest.mark.parametrize("config", WORKLOAD_CONFIGS + README_CONFIGS)
def test_suite_report_bytes_match_record_oracle(config):
    _assert_matches_oracle(run_suite(config), config)


_CFG = SuiteConfig(suite="s", samples=1, tol_verdict=1e-4)


def _columns(residuals: dict, criteria: dict):
    n = len(next(iter({**residuals, **criteria}.values()), []))
    u = np.linspace(-1.0, 1.0, 2 * n).reshape(n, 2)
    t = np.arange(n, dtype=float).reshape(n, 1)
    return VerificationReport.build(_CFG, u, t, residuals, criteria)


EDGES = [
    0.0,
    np.nextafter(_CFG.tol_verdict, 0.0),
    _CFG.tol_verdict,
    np.nextafter(SEPARATION, 0.0),
    SEPARATION,
    0.5,
]
_PAIRS = [(r, c) for r in EDGES for c in EDGES]


@pytest.mark.parametrize(
    "residuals, criteria",
    [
        pytest.param(
            {"r": [r for r, _ in _PAIRS], "gap": [0.1 * r for r, _ in _PAIRS]},
            {"c": [c for _, c in _PAIRS]},
            id="at-tol-and-separation",
        ),
        pytest.param({"r": [_CFG.tol_verdict] * 3}, {"c": [SEPARATION] * 3}, id="all-fail-at-tol"),
        pytest.param({"r": [SEPARATION, 1.0]}, {"c": [SEPARATION, 0.2]}, id="all-fail"),
        pytest.param({}, {"c": [0.0, _CFG.tol_verdict, SEPARATION]}, id="criteria-only"),
        pytest.param({}, {"c": [0.0, 1e-9]}, id="criteria-only-pass"),
    ],
)
def test_synthetic_columns_match_record_oracle(residuals, criteria):
    _assert_matches_oracle(_columns(residuals, criteria), _CFG)


def test_build_echoes_the_config_once_and_provenance_owns_its_copy(monkeypatch):
    calls = []
    echo = SuiteConfig.echo
    monkeypatch.setattr(SuiteConfig, "echo", lambda self: calls.append(self) or echo(self))
    report = _columns({"r": [0.0]}, {"c": [0.0]})
    assert len(calls) == 1
    assert report.provenance["config"] == report.config == _CFG.echo()
    report.provenance["config"]["samples"] = 99
    assert report.config["samples"] == _CFG.samples


def test_statuses_at_the_tolerance_and_separation_levels():
    tol = _CFG.tol_verdict
    report = _columns(
        {"r": [np.nextafter(tol, 0.0), tol, SEPARATION, np.nextafter(SEPARATION, 0.0)]},
        {"c": [0.0, 0.0, SEPARATION, 1.0]},
    )
    assert report.status.tolist() == ["PASS", "MIXED", "FAIL", "FAIL"]


def _empty():
    return VerificationReport.build(_CFG, np.empty((0, 0)), np.empty((0, 0)), {}, {})


def test_empty_report_matches_record_oracle():
    report = _empty()
    _assert_matches_oracle(report, _CFG)
    assert emit(report, "csv") == b"index,status\n"


@pytest.mark.parametrize(
    "make_report",
    [
        pytest.param(_empty, id="empty"),
        pytest.param(lambda: _columns({}, {"c": [0.0, 2e-3]}), id="criteria-only"),
        pytest.param(
            lambda: run_suite(SuiteConfig("stenzel-lagrangian", "equatorial", "0.3e1", samples=4)),
            id="stenzel-diagnostics",
        ),
        pytest.param(
            lambda: run_suite(SuiteConfig("spin7-cayley", "veronese", "const:re=0.4", seed=4, samples=6)),
            id="cayley",
        ),
    ],
)
def test_parse_report_round_trips_bytes(make_report):
    report = make_report()
    payload = emit(report, "json")
    back = parse_report(payload)
    assert emit(back, "json") == payload
    assert emit(back, "csv") == emit(report, "csv")
    assert back.u.shape == report.u.shape and back.t.shape == report.t.shape
    assert list(back.residuals) == list(report.residuals)
    assert list(back.criteria) == list(report.criteria)


# -- the JSON emitter at its edges ------------------------------------------------------

_SPECIAL = [-0.0, 5e-324, 1e16, 1e-7, 123456789.0, float("nan"), float("inf"), float("-inf")]
# a negative NaN with a payload: equal to no value, and other bits than np.nan's
_NAN2 = np.array([0xFFF8_0000_0000_0123], dtype=np.uint64).view(np.float64)[0]
# a quote, a backslash, newlines, non-ASCII text, format fields, and the
# header line that the points are spliced in at
_AWKWARD = 'q"b\\s\nnl \u00e9\u4e2d {} %s\n  "points": []'


def _report(u, t, residuals, criteria, config=_CFG):
    return VerificationReport.build(config, np.asarray(u, dtype=float), np.asarray(t, dtype=float),
                                    residuals, criteria)


def _timestamped(report):
    # the CLI adds --timestamp to a built report's provenance
    report.provenance["timestamp"] = datetime.now(timezone.utc).isoformat()
    return report


@pytest.mark.parametrize(
    "make_report",
    [
        # NaN leads each column so that the oracle's Python max, like np.max,
        # returns it; one key a side keeps the oracle's row max the row's NaN
        pytest.param(
            lambda: _report(np.array([_SPECIAL, _SPECIAL[::-1]]).T, np.array([_SPECIAL[::-1]]).T,
                            {"r": _SPECIAL[5:] + _SPECIAL[:5]}, {"c": _SPECIAL[5:6] + _SPECIAL[:7]}),
            id="special-floats",
        ),
        pytest.param(
            lambda: _report(np.array([_SPECIAL[:5]] * 2).T, np.array([_SPECIAL[:5]]).T,
                            {"r": _SPECIAL[:5], "gap": _SPECIAL[4::-1]}, {"c": _SPECIAL[1:5] + [0.0]}),
            id="special-finite-floats",
        ),
        pytest.param(_empty, id="empty"),
        pytest.param(lambda: _report(np.zeros((2, 1)), np.zeros((2, 1)), {}, {"c": [0.0, 2e-3]}),
                     id="criteria-only"),
        pytest.param(lambda: _report(np.ones((3, 2)), np.empty((3, 0)), {"r": [0.0, 1.0, 1e-5]},
                                     {"c": [0.0, 1.0, 2e-3]}), id="zero-width-t"),
        pytest.param(
            lambda: _report(np.ones((2, 2)), np.ones((2, 1)), {"r": [0.0, 1.0]}, {"c": [0.0, 1.0]},
                            config=SuiteConfig(suite="s", section=_AWKWARD, out=_AWKWARD)),
            id="awkward-config-strings",
        ),
        pytest.param(
            lambda: _timestamped(_report(np.ones((2, 2)), np.ones((2, 1)), {"r": [0.0, 1.0]}, {"c": [0.0, 1.0]})),
            id="timestamp",
        ),
        pytest.param(
            lambda: _report(np.ones((2, 1)), np.ones((2, 1)), {_AWKWARD.replace("\n", " "): [0.0, 1.0]},
                            {"{" + _AWKWARD.replace("\n", " "): [0.0, 1.0]}),
            id="awkward-column-keys",
        ),
        # the first point has an opening piece of its own, and a one-point
        # report has no other
        pytest.param(lambda: _report([[0.5, -0.0]], [[1.5]], {"r": [1e-5]}, {"c": [2e-3]}), id="one-point"),
        # the pieces around the values are cut at a NUL, which json escapes
        pytest.param(
            lambda: _report(np.ones((2, 1)), np.ones((2, 1)), {'r\x00\t"': [0.0, 1.0], "\x00": [1.0, 0.5]},
                            {'"\tc\x00': [0.0, 1.0]}),
            id="nul-tab-quote-keys",
        ),
        # each distinct bit pattern is converted once: 0.0 and -0.0 compare
        # equal but print differently, and neither NaN equals itself
        pytest.param(
            lambda: _report([[0.0, np.nan], [-0.0, _NAN2], [0.0, 1.5], [-0.0, np.nan], [1.5, -0.0], [0.0, _NAN2]],
                            [[1.5], [1.5], [-0.0], [0.0], [1.5], [-0.0]],
                            {"r": [np.nan, 0.0, -0.0, 0.5, 0.5, _NAN2]},
                            {"c": [0.0, -0.0, 0.0, 2e-3, 2e-3, -0.0]}),
            id="repeated-values",
        ),
        # PASS, FAIL and MIXED rows interleaved, over wide u and t
        pytest.param(
            lambda: _report(np.arange(12.0).reshape(6, 2) / 7, -np.arange(18.0).reshape(6, 3) / 3,
                            {"r": [0.0, 1.0, 1e-5, 2e-3, 0.0, 0.5], "gap": [0.0] * 6},
                            {"c": [0.0, 1.0, 2e-3, 1e-6, 1e-9, 0.5]}),
            id="pass-fail-mixed",
        ),
        # nan and +-inf in every kind of column, away from the first row in u
        # and t; the nan row is MIXED, the +inf row FAIL and the -inf row PASS
        pytest.param(
            lambda: _report([[0.5, np.inf], [-np.inf, 0.0], [np.nan, 1.0]], [[1.0], [np.nan], [-np.inf]],
                            {"r": [np.nan, np.inf, 0.0]}, {"c": [1.0, 1.0, -np.inf]}),
            id="nan-and-infinities",
        ),
    ],
)
def test_emitter_edge_cases_match_json_dumps_and_record_oracle(make_report):
    report = make_report()
    extra = {k: v for k, v in report.provenance.items() if k not in ("version", "config")}
    _assert_matches_oracle(report, SuiteConfig(**report.config), extra)


def test_random_bit_patterns_match_json_dumps():
    # uniform bit patterns give subnormals and every exponent of either sign
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, size=(64, 9), dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    # but only 1 in 2048 is non-finite: plant a few, a negative NaN with a
    # payload among them
    values[[0, 1, 2, 3], [0, 4, 6, 8]] = [np.inf, -np.inf, np.nan, -np.nan]
    values.view(np.uint64)[5, 7] = 0xFFF8_0000_0000_0123
    report = VerificationReport(
        suite="s", config=_CFG.echo(), u=values[:, :3], t=values[:, 3:5],
        residuals={"r": values[:, 5], "s": values[:, 6]},
        criteria={"a": values[:, 7], "b": values[:, 8]},
        status=np.array(["PASS", "FAIL", "MIXED", "PASS"] * 16),
        aggregates={}, verdict="MIXED", provenance={},
    )
    assert emit(report, "json") == _dumps(report)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 51, 3000])
def test_median_is_bit_identical_to_numpy(n):
    rng = np.random.default_rng(n)
    col = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
    for values in (col, np.abs(col), np.round(col[::-1], 1), np.full(n, 1.5), np.full(n, -0.0)):
        assert np.float64(_median(values)).tobytes() == np.median(values).tobytes()
    col[n // 2] = np.nan
    assert np.float64(_median(col)).tobytes() == np.float64(np.median(col)).tobytes()
