"""The columnar report against the record-based report layer it replaced.

``conftest.pointwise_report`` classifies, aggregates and serialises one record
per (sample, fibre) pair, as the report layer did before it held columns.  The
JSON and CSV bytes of every report must equal what that oracle writes from the
same values.
"""

import numpy as np
import pytest

from twistcal.report import SEPARATION, SuiteConfig, VerificationReport, emit, parse_report
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
    pytest.param(SuiteConfig("spin7-cayley", "veronese", "const:re=0.4", seed=4), id="readme-cayley-mixed"),
    pytest.param(SuiteConfig("stenzel-lagrangian", "veronese", "0", fd_step=1e-10), id="readme-fd-mixed"),
]


def _assert_matches_oracle(report, config):
    oracle = pointwise_report(config, records_of(report))
    # the Stenzel suite adds its closed-form diagnostics after the build
    oracle.aggregates.update(
        {k: v for k, v in report.aggregates.items() if k.startswith("diagnostic.")}
    )
    assert report.status.tolist() == [p.status for p in oracle.points]
    assert report.verdict == oracle.verdict
    for fmt in ("json", "csv"):
        assert emit(report, fmt) == oracle.emit(fmt), fmt


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
        pytest.param({"r": [_CFG.tol_verdict] * 3}, {"c": [SEPARATION] * 3}, id="all-mixed"),
        pytest.param({"r": [SEPARATION, 1.0]}, {"c": [SEPARATION, 0.2]}, id="all-fail"),
        pytest.param({}, {"c": [0.0, _CFG.tol_verdict, SEPARATION]}, id="criteria-only"),
        pytest.param({}, {"c": [0.0, 1e-9]}, id="criteria-only-pass"),
    ],
)
def test_synthetic_columns_match_record_oracle(residuals, criteria):
    _assert_matches_oracle(_columns(residuals, criteria), _CFG)


def test_statuses_at_the_tolerance_and_separation_levels():
    tol = _CFG.tol_verdict
    report = _columns(
        {"r": [np.nextafter(tol, 0.0), tol, SEPARATION, np.nextafter(SEPARATION, 0.0)]},
        {"c": [0.0, 0.0, SEPARATION, 1.0]},
    )
    assert report.status.tolist() == ["PASS", "MIXED", "FAIL", "MIXED"]


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
