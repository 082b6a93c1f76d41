"""The g2 and Spin(7) suites over stacks of (sample, fibre) pairs.

A job evaluates its section data, tangent bases, residuals and criteria as
stacked array expressions.  The per-point chain in conftest, as the suites
ran before, is the reference for every verdict, status and value; every
stacked public function must give, row by row, what its single-point call
gives.
"""

import dataclasses
import math
import os

import numpy as np
import pytest

from twistcal import examples, g2, numerics, spin7, stenzel, suites
from twistcal.cli import main
from twistcal.errors import DomainError
from twistcal.examples import make_eta_family, make_section_family
from twistcal.numerics import Profile, gram_schmidt
from twistcal.report import SuiteConfig
from twistcal.submanifold import adapted_frame, get_chart
from twistcal.suites import run_suite

from conftest import (SWEEP_TOL, forms_job_inputs, job_config, nabla_f_fd_oracle, pointwise_suite, records_of,
                      rng_for)
from workloads import WORKLOADS, job_argv

ROW_TOL = 1e-15


BENCHMARK_CONFIGS = [
    pytest.param(job_config(job, seed), id=f"{name}-{j}-seed{seed}")
    for name in ("forms-unit", "forms-linear-wide")
    for j, job in enumerate(WORKLOADS[name])
    for seed in (1, 2)
]

README_CONFIGS = [
    pytest.param(SuiteConfig("g2-associative", "veronese", "sinphi:C=1,D=0", seed=7), id="readme-assoc"),
    pytest.param(SuiteConfig("g2-coassociative", "veronese-antipodal", "const:c=2"), id="readme-coassoc"),
    pytest.param(SuiteConfig("spin7-cayley", "equatorial", "zero"), id="readme-cayley"),
    pytest.param(SuiteConfig("spin7-cayley", "veronese", "const:re=0.4", seed=4), id="readme-cayley-fail"),
]


@pytest.mark.parametrize("config", BENCHMARK_CONFIGS + README_CONFIGS)
def test_stacked_suite_matches_pointwise_chain(config):
    new = run_suite(config)
    old = pointwise_suite(config)
    assert new.verdict == old.verdict
    assert new.exit_code() == old.exit_code()
    assert len(new.status) == len(old.points)
    for p, q in zip(records_of(new), old.points):
        assert p.status == q.status
        assert p.u == list(q.u) and p.t == list(q.t)
        for new_vals, old_vals in ((p.residuals, q.residuals), (p.criteria, q.criteria)):
            assert new_vals.keys() == old_vals.keys()
            for key, o in old_vals.items():
                # the oracle's superminimal sweep reads the supremum from below
                rel = SWEEP_TOL if key == "neg_superminimal" else 1e-9
                assert abs(new_vals[key] - o) <= 1e-7 + rel * abs(new_vals[key]), (key, new_vals[key], o)


# -- the verify path's lifted residuals against the dense functions ----------------------

WEIGHTED_CONFIGS = [
    pytest.param(dataclasses.replace(p.values[0], profile="u=2,v=0.5"), id=f"{p.id}-u2v05")
    for p in BENCHMARK_CONFIGS
]


def _dense_residuals(config):
    """The residual columns of the job's report recomputed by the dense functions
    on the full lifted bases (E_1, E_2, F_j), with the tangent vectors and
    section data built as the suite builds them."""
    _, profile, twist, fibers, _, frames = forms_job_inputs(config)
    if config.suite == "g2-coassociative":
        gval = twist.value(frames.u)
        basis = g2.tangent_basis_eta_f(frames, gval, frames.scalar_derivatives(twist.value), fibers)
        fiber = (gval[:, None], fibers[:, 0], fibers[:, 1])
        return basis, {"coassociative": g2.coassociative_residual(*np.moveaxis(basis, -2, 0), profile, fiber)}
    sec = g2.section_data(twist, frames)
    if config.suite == "g2-associative":
        basis = g2.tangent_basis_e_sigma(frames, sec, fibers[:, 0])
        fiber = (fibers[:, 0], sec.a[:, None], sec.b[:, None])
        return basis, {"associative": g2.associative_residual(*np.moveaxis(basis, -2, 0), profile, fiber)}
    basis = spin7.tangent_basis_v_plus(frames, spin7.spinor_frames(), sec, fibers)
    r = np.sqrt(np.sum(fibers * fibers, axis=-1) + sec.a[:, None] ** 2 + sec.b[:, None] ** 2)
    vecs = np.moveaxis(basis, -2, 0)
    return basis, {"cayley": spin7.cayley_residual(*vecs, profile, r),
                   "calibration_gap": spin7.calibration_gap(*vecs, profile, r)}


@pytest.mark.parametrize("config", BENCHMARK_CONFIGS + WEIGHTED_CONFIGS)
def test_suite_residuals_equal_the_dense_functions_on_the_lifted_basis(config):
    report = run_suite(config)
    _, dense = _dense_residuals(config)
    assert dense.keys() == report.residuals.keys()
    for key, want in dense.items():
        want, got = np.reshape(want, -1), report.residuals[key]
        worst = np.argmax(np.abs(got - want) - 1e-13 * np.abs(want))
        assert abs(got[worst] - want[worst]) <= 1e-11 + 1e-13 * abs(want[worst]), (key, worst)


# the dense residuals, and the (..., 2, 8, 8) spin connection on the octonion spinors
DENSE_ORACLES = ((g2, "associative_residual"), (g2, "coassociative_residual"),
                 (spin7, "cayley_residual"), (spin7, "calibration_gap"), (spin7, "cayley_eta"),
                 (spin7, "spin_connection_ops"))


def test_forms_verify_path_calls_no_dense_residual(monkeypatch, tmp_path):
    calls = []
    for module, name in DENSE_ORACLES:
        def counted(*args, _f=getattr(module, name), **kwargs):
            calls.append(_f.__name__)
            return _f(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for name in ("forms-unit", "forms-linear-wide"):
        for job in WORKLOADS[name]:
            code = main(job_argv(job, 1, str(tmp_path / "r.json")))
            assert code == (0 if job.expected == "PASS" else 1), job.label
    assert calls == []
    # the guard sees the dense functions, which the tests call as the oracle
    spin7.calibration_gap(*np.eye(8)[:4])
    assert calls == ["calibration_gap"]


def test_cayley_kernel_is_exact_and_read_only():
    k = spin7.cayley_kernel()
    assert k is spin7.cayley_kernel() and k.shape == (64, 64) and not k.flags.writeable
    assert set(np.unique(k)) == {-2.0, 0.0, 2.0}


# The Harvey-Lawson identities at u = v = 1, where every D factor is 1, on the
# suites' own residual columns against the calibration value and volume taken
# here from the dense forms: Phi^2 + |eta|^2 / 16 = vol^2 and
# phi^2 + |chi|^2 = vol^2.  FAIL jobs, where the residuals are O(1); in the
# associative ones E_1 and E_2 both have k_2 and k_3 parts, so that every psi
# monomial holding k_1 enters chi (with sinphi:C=1,D=0 a flipped sign of
# (1,3,4,6) or (0,3,4,5) goes unseen, E_2 having no k_2 part there).
HARVEY_LAWSON = [
    pytest.param(SuiteConfig("spin7-cayley", "veronese", "sinphi:C=1,D=0", samples=20, seed=7), id="cayley-veronese"),
    pytest.param(SuiteConfig("spin7-cayley", "equatorial", "const:re=0.4", samples=20, seed=7), id="cayley-equatorial"),
    pytest.param(SuiteConfig("g2-associative", "equatorial", "sinphi:C=0.5,D=0.7", samples=20, seed=7), id="assoc-equatorial"),
    pytest.param(SuiteConfig("g2-associative", "veronese-antipodal", "sinphi:C=0.5,D=0.7", samples=20, seed=7),
                 id="assoc-antipodal"),
]


@pytest.mark.parametrize("config", HARVEY_LAWSON)
def test_harvey_lawson_identity_on_the_suite_residuals(config):
    report = run_suite(config)
    basis, _ = _dense_residuals(config)
    basis = basis.reshape(-1, *basis.shape[-2:])
    vol2 = np.linalg.det(basis @ np.swapaxes(basis, -1, -2))
    if config.suite == "spin7-cayley":
        calib = np.einsum("ijkl,ni,nj,nk,nl->n", spin7.phi_form(1.0, 1.0), *np.moveaxis(basis, 1, 0))
        defect = report.residuals["cayley"] ** 2 / 16.0
    else:
        calib = np.einsum("ijk,ni,nj,nk->n", g2.phi_form(1.0, 1.0), *np.moveaxis(basis, 1, 0))
        defect = report.residuals["associative"] ** 2
    assert np.max(defect / vol2) > 0.01  # the identity is tested away from calibrated planes
    assert np.max(np.abs(calib**2 + defect - vol2) / vol2) <= 1e-12


# The coassociative Harvey-Lawson identity psi(xi)^2 + sum_{a<b<c} phi(e_a, e_b, e_c)^2 = 1
# at u = v = 1 on an orthonormal basis of each tangent 4-plane xi of the coassociative
# FAIL jobs.  Gram-Schmidt on (F_2, F_3, E_1, E_2) keeps the unit (k_2, k_3), so the
# lifted residual of the orthonormalised E's is the largest |phi| over the four triples.
# Those E's lie in the slots of e_1, e_2 and k_1, where every Plücker coordinate that
# the lifted 21 x 2 table reads is 0; the random planes of test_dense_forms check it.
COASSOCIATIVE_FAILS = [
    pytest.param(SuiteConfig("g2-coassociative", "veronese", "coord:axis=1", samples=20, seed=7), id="veronese"),
    pytest.param(SuiteConfig("g2-coassociative", "equatorial", "coord:axis=2", samples=20, seed=7), id="equatorial"),
]


@pytest.mark.parametrize("config", COASSOCIATIVE_FAILS)
def test_coassociative_harvey_lawson_identity_on_an_orthonormal_basis(config):
    assert run_suite(config).verdict == "FAIL"
    basis, _ = _dense_residuals(config)
    f2, f3, e1, e2 = np.moveaxis(gram_schmidt(basis.reshape(-1, 4, 7)[:, [2, 3, 0, 1]]), 1, 0)
    assert np.array_equal(f2, np.broadcast_to(np.eye(7)[5], f2.shape))
    assert np.array_equal(f3, np.broadcast_to(np.eye(7)[6], f3.shape))
    psi = np.einsum("ijkl,ni,nj,nk,nl->n", g2.psi_form(1.0, 1.0), e1, e2, f2, f3)
    triples = np.stack([np.einsum("ijk,ni,nj,nk->n", g2.phi_form(1.0, 1.0), *vecs)
                        for vecs in ((e1, e2, f2), (e1, e2, f3), (e1, f2, f3), (e2, f2, f3))], axis=-1)
    defect = np.sum(triples**2, axis=-1)
    assert np.max(defect) > 0.01  # the identity is tested away from coassociative planes
    assert np.max(np.abs(psi**2 + defect - 1.0)) <= 1e-12
    lifted = g2.lifted_coassociative_residual(np.stack([e1, e2], axis=-2))
    assert np.max(np.abs(lifted - np.max(np.abs(triples), axis=-1))) <= 1e-13


# -- stacked public functions against their single-point calls ---------------------------


def _rows_match(stacked, single_call, count):
    for i in range(count):
        diff = np.abs(np.asarray(stacked[i]) - np.asarray(single_call(i)))
        assert np.max(diff, initial=0.0) <= ROW_TOL


@pytest.fixture(scope="module")
def stack():
    """70 Veronese frames, three fibres, a chart-varying section and the linear
    profile: 210 stacked rows of each contraction."""
    chart = get_chart("veronese")
    frames = adapted_frame(chart, chart.sample(rng_for(21), 70))
    family = make_section_family("sinphi", C=0.7, D=-0.4)
    fibers = np.array([[0.4, -1.1], [1.3, 0.2], [-0.6, 0.9]])
    return frames, family, fibers, Profile(lambda r: 1.0 + r, lambda r: 1.0 + 2.0 * r)


def test_section_data_rows_match_single_points(stack):
    frames, family, _, _ = stack
    sec = g2.section_data(family, frames)
    singles = [g2.section_data(family, frames[i]) for i in range(len(frames))]
    for field in ("a", "b", "da", "db"):
        _rows_match(getattr(sec, field), lambda i: getattr(singles[i], field), len(frames))
    r2, r3 = g2.dbar_f_residual(frames.gamma, sec)
    for i, s in enumerate(singles):
        one = g2.dbar_f_residual(frames[i].gamma, s)
        assert max(abs(r2[i] - one[0]), abs(r3[i] - one[1])) <= ROW_TOL
    sf = spin7.spinor_frames()
    c3, c4 = spin7.dbar_vminus_residual(frames.gamma, sf, sec)
    for i, s in enumerate(singles):
        one = spin7.dbar_vminus_residual(frames[i].gamma, sf, s)
        assert max(abs(c3[i] - one[0]), abs(c4[i] - one[1])) <= ROW_TOL


def test_connection_tables_rows_match_single_points(stack):
    frames = stack[0]
    for fn in (g2.nabla_f_coeffs, spin7.spin_connection_ops):
        _rows_match(fn(frames.gamma), lambda i: fn(frames[i].gamma), len(frames))


def test_g2_bases_and_residuals_rows_match_single_points(stack):
    frames, family, fibers, profile = stack
    sec = g2.section_data(family, frames)
    t1 = fibers[:, 0]
    basis = g2.tangent_basis_e_sigma(frames, sec, t1)
    assert basis.shape == (70, 3, 3, 7)
    fiber = (t1, sec.a[:, None], sec.b[:, None])
    res = g2.associative_residual(*np.moveaxis(basis, -2, 0), profile, fiber)
    lifted = g2.lifted_associative_residual(basis[..., :2, :], profile, fiber)
    eta = make_eta_family("coord", axis=2)
    gval, dgamma = eta.value(frames.u), frames.scalar_derivatives(eta.value)
    basis_f = g2.tangent_basis_eta_f(frames, gval, dgamma, fibers)
    assert basis_f.shape == (70, 3, 4, 7)
    fiber_f = (gval[:, None], fibers[:, 0], fibers[:, 1])
    res_f = g2.coassociative_residual(*np.moveaxis(basis_f, -2, 0), profile, fiber_f)
    lifted_f = g2.lifted_coassociative_residual(basis_f[..., :2, :], profile, fiber_f)
    for i in range(len(frames)):
        point, sec_i = frames[i], g2.section_data(family, frames[i])
        dg_i = point.scalar_derivatives(eta.value)
        assert np.max(np.abs(dgamma[i] - dg_i)) <= ROW_TOL
        for j, t in enumerate(fibers):
            one = g2.tangent_basis_e_sigma(point, sec_i, t[0])
            assert np.max(np.abs(basis[i, j] - one)) <= ROW_TOL
            one_res = g2.associative_residual(*one, profile, (t[0], sec_i.a, sec_i.b))
            assert abs(res[i, j] - one_res) <= ROW_TOL
            one_res = g2.lifted_associative_residual(one[:2], profile, (t[0], sec_i.a, sec_i.b))
            assert abs(lifted[i, j] - one_res) <= ROW_TOL * max(1.0, one_res)
            one_f = g2.tangent_basis_eta_f(point, gval[i], dg_i, t)
            assert np.max(np.abs(basis_f[i, j] - one_f)) <= ROW_TOL
            one_res = g2.coassociative_residual(*one_f, profile, (gval[i], *t))
            assert abs(res_f[i, j] - one_res) <= ROW_TOL
            one_res = g2.lifted_coassociative_residual(one_f[:2], profile, (gval[i], *t))
            assert abs(lifted_f[i, j] - one_res) <= ROW_TOL * max(1.0, one_res)


def test_spin7_basis_and_residuals_rows_match_single_points(stack):
    frames, family, fibers, profile = stack
    sf = spin7.spinor_frames()
    sec = g2.section_data(family, frames)
    basis = spin7.tangent_basis_v_plus(frames, sf, sec, fibers)
    assert basis.shape == (70, 3, 4, 8)
    r = np.sqrt(np.sum(fibers * fibers, axis=-1) + sec.a[:, None] ** 2 + sec.b[:, None] ** 2)
    vecs = np.moveaxis(basis, -2, 0)
    res = spin7.cayley_residual(*vecs, profile, r)
    gap = spin7.calibration_gap(*vecs, profile, r)
    lifted = spin7.lifted_cayley_residuals(basis[..., :2, :], profile, r)
    u, v = profile.at(r)
    for i in range(len(frames)):
        sec_i = g2.section_data(family, frames[i])
        for j, t in enumerate(fibers):
            one = spin7.tangent_basis_v_plus(frames[i], sf, sec_i, t)
            assert np.max(np.abs(basis[i, j] - one)) <= ROW_TOL
            assert abs(res[i, j] - spin7.cayley_residual(*one, profile, r[i, j])) <= ROW_TOL
            assert abs(gap[i, j] - spin7.calibration_gap(*one, profile, r[i, j])) <= ROW_TOL
            # a row on its own may sum its Plücker coordinates in another order, and the
            # gap cancels |Phi| against the area, so its last bits may differ
            for col, one_res in zip(lifted, spin7.lifted_cayley_residuals(one[:2], profile, r[i, j])):
                assert abs(col[i, j] - one_res) <= 10 * ROW_TOL * max(1.0, one_res)
            assert profile.at(r[i, j]) == (u[i, j], v[i, j])


def test_lifted_residuals_of_a_plane_stack_equal_those_of_its_flattened_rows(stack):
    # the suites pass (P, F, 2, dim) planes, and a report's bytes are those of its rows
    # one by one: a row's value may not depend on the layout of the rows around it
    frames, family, fibers, profile = stack
    sec = g2.section_data(family, frames)
    eta = make_eta_family("coord", axis=2)
    gval, dgamma = eta.value(frames.u), frames.scalar_derivatives(eta.value)

    def flat(x):
        return np.broadcast_to(x, (len(frames), len(fibers))).ravel()

    cases = (
        (g2.lifted_associative_residual, g2.tangent_basis_e_sigma(frames, sec, fibers[:, 0]),
         (fibers[:, 0], sec.a[:, None], sec.b[:, None])),
        (g2.lifted_coassociative_residual, g2.tangent_basis_eta_f(frames, gval, dgamma, fibers),
         (gval[:, None], fibers[:, 0], fibers[:, 1])),
    )
    for residual, basis, fiber in cases:
        plane = basis[..., :2, :]
        assert np.array_equal(residual(plane, profile, fiber).ravel(),
                              residual(plane.reshape(-1, 2, 7), profile, tuple(map(flat, fiber))))
    plane = spin7.tangent_basis_v_plus(frames, spin7.spinor_frames(), sec, fibers)[..., :2, :]
    r = g2.fibre_radius(fibers[:, 0], fibers[:, 1], sec.a[:, None], sec.b[:, None])
    stacked = spin7.lifted_cayley_residuals(plane, profile, r)
    for col, flat_col in zip(stacked, spin7.lifted_cayley_residuals(plane.reshape(-1, 2, 8), profile, flat(r))):
        assert col.shape == (len(frames), len(fibers))
        assert np.array_equal(col.ravel(), flat_col)


def test_profile_at_broadcasts_constant_and_callable_slots():
    r = np.array([[0.5, 1.5], [2.5, 0.0]])
    a, b = Profile(lambda r: 1.0 + r, 2.0).at(r)
    np.testing.assert_array_equal(a, 1.0 + r)
    np.testing.assert_array_equal(b, np.full(r.shape, 2.0))
    assert Profile(3.0, 4.0).at(1.0) == (3.0, 4.0)


def test_profile_names_the_first_non_positive_weight():
    with pytest.raises(DomainError, match=r"got \(-0\.5, 1\) at radius r=1\.5"):
        Profile(lambda r: 1.0 - r, 1.0).at(np.array([0.5, 1.5, 2.5]))
    with pytest.raises(DomainError, match=r"got \(1, -1\) at radius r=2"):
        Profile(1.0, -1.0).at(2.0)
    with pytest.raises(DomainError, match=r"got \(1, 0\) at radius r=0\.25"):
        Profile(1.0, 0.0).at([[0.25, 3.0]])


# -- families and the nabla f table ----------------------------------------------------------

FAMILIES = [
    ("zero", {}, "equatorial"),
    ("const", {"re": 0.4, "im": -1.2}, "equatorial"),
    ("equatorial-hol", {"coeffs": [0.5, -1.0 + 0.3j, 0.2j]}, "equatorial"),
    ("veronese-strip", {"coeffs": {-1: 0.3, 0: 1.0 - 0.5j, 2: 0.25j}}, "veronese"),
    ("sinphi", {"C": 1.0, "D": -0.5}, "veronese"),
]
ETAS = [("const", {"c": -2.5}), ("coord", {"axis": 1}), ("coord", {"axis": 2})]


@pytest.mark.parametrize("kind, params, chart", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_section_family_on_a_stack_matches_rows(kind, params, chart):
    family = make_section_family(kind, **params)
    u = get_chart(chart).sample(rng_for(22), 40)
    values = family.value(u)
    assert values.shape == (40,) and values.dtype == complex
    for i, row in enumerate(u):
        one = family.value(row)
        assert np.ndim(one) == 0
        assert abs(values[i] - one) <= ROW_TOL
    assert family.value(u.reshape(4, 10, 2)).shape == (4, 10)


@pytest.mark.parametrize("kind, params", ETAS, ids=[f"{k}-{p}" for k, p in ETAS])
def test_eta_family_on_a_stack_matches_rows(kind, params):
    eta = make_eta_family(kind, **params)
    u = get_chart("equatorial").sample(rng_for(23), 40)
    values = eta.value(u)
    assert values.shape == (40,)
    for i, row in enumerate(u):
        assert abs(values[i] - eta.value(row)) <= ROW_TOL


@pytest.mark.parametrize("name", ["equatorial", "veronese", "veronese-hat"])
def test_stacked_nabla_f_matches_fd_oracle(name):
    chart = get_chart(name)
    u = chart.sample(rng_for(24), 6)
    coeffs = g2.nabla_f_coeffs(adapted_frame(chart, u).gamma)
    assert coeffs.shape == (6, 2, 3, 3)
    for i, row in enumerate(u):
        assert np.max(np.abs(coeffs[i] - nabla_f_fd_oracle(chart, row))) < 1e-6


# -- numerical breakdown --------------------------------------------------------------------


def test_nan_residual_at_one_sample_exits_1_and_names_the_point(monkeypatch, tmp_path, capsys):
    original = g2.lifted_associative_residual

    def broken(*args, **kwargs):
        res = np.array(original(*args, **kwargs))
        res[3, 1] = np.nan
        return res

    monkeypatch.setattr(g2, "lifted_associative_residual", broken)
    code = main(["verify", "g2-associative", "--chart", "veronese", "--section", "sinphi:C=1,D=0",
                 "--samples", "5", "--seed", "3", "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    u = get_chart("veronese").sample(np.random.default_rng(3), 5)[3].tolist()
    assert f"numerical breakdown at u={u}, t=[0.0]: associative=nan" in err
    assert not (tmp_path / "r.json").exists()


# -- a job's blocks ----------------------------------------------------------------------------

# Jobs of several blocks at BLOCK = 64, and at BLOCK = 2, where a block of a
# three-fibre suite holds one sample: a FAIL job of every suite, a table and an
# overflow, whose message names the first broken row of the whole job.
MULTI_BLOCK_JOBS = [
    pytest.param("verify stenzel-lagrangian --chart equatorial --mu 0.3e1 --samples 200 --seed 5", id="stenzel"),
    pytest.param("verify g2-associative --chart equatorial --section sinphi:C=1,D=0 --samples 100", id="associative"),
    pytest.param("verify g2-coassociative --chart veronese --section coord:axis=1 --samples 100 --format csv",
                 id="coassociative"),
    pytest.param("verify spin7-cayley --chart equatorial --section sinphi:C=1,D=0 --profile linear --samples 100",
                 id="cayley"),
    pytest.param("table veronese --samples 200 --seed 4", id="table"),
    pytest.param("verify spin7-cayley --profile linear --fiber=1e100,0 --samples 700", id="cayley-overflow"),
]


def _job_result(argv, out, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("block", [64, 2])
@pytest.mark.parametrize("line", MULTI_BLOCK_JOBS)
def test_a_job_of_several_blocks_gives_the_bytes_of_one_block(line, block, monkeypatch, tmp_path, capsys):
    out = tmp_path / "r.out"
    argv = line.split() + (["--out", str(out)] if line.startswith("verify") else [])
    monkeypatch.setattr(numerics, "BLOCK", 10**6)
    whole = _job_result(argv, out, capsys)
    out.unlink(missing_ok=True)
    monkeypatch.setattr(numerics, "BLOCK", block)
    assert _job_result(argv, out, capsys) == whole
    assert whole[0] == line.startswith("verify")


# each spied name and the rows of its first array argument
BLOCK_SPIES = [
    (suites, "adapted_frame", lambda chart, u, *_: len(u)),
    (stenzel, "lagrangian_columns", lambda chart, mu, samples, *_: len(samples)),
    (g2, "lifted_associative_residual", lambda plane, *_, **__: math.prod(plane.shape[:-2])),
    (g2, "lifted_coassociative_residual", lambda plane, *_, **__: math.prod(plane.shape[:-2])),
    (spin7, "lifted_cayley_residuals", lambda plane, *_, **__: math.prod(plane.shape[:-2])),
    (examples, "golden_residuals", lambda name, u: len(u)),
]


def test_no_stage_of_a_3000_row_job_holds_more_than_a_block(monkeypatch):
    calls = {name: [] for _, name, _ in BLOCK_SPIES}
    for module, name, rows in BLOCK_SPIES:
        def spy(*args, _f=getattr(module, name), _name=name, _count=rows, **kwargs):
            calls[_name].append(_count(*args, **kwargs))
            return _f(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    for line in ("verify stenzel-lagrangian --samples 3000", "verify g2-associative --samples 1000",
                 "verify g2-coassociative --samples 1000", "verify spin7-cayley --samples 1000",
                 "table veronese --samples 3000"):
        assert main(line.split() + (["--out", os.devnull] if line.startswith("verify") else [])) == 0, line
    assert {name: sum(rows) for name, rows in calls.items()} == {
        "adapted_frame": 3000, "lagrangian_columns": 3000, "lifted_associative_residual": 3000,
        "lifted_coassociative_residual": 3000, "lifted_cayley_residuals": 3000, "golden_residuals": 3000,
    }
    assert max(max(rows) for rows in calls.values()) <= numerics.BLOCK


def test_an_error_in_a_later_block_names_the_row_of_the_job(monkeypatch):
    chart = get_chart("veronese")
    u = chart.sample(rng_for(25), 200)
    u[150] = [10.0, 10.0]
    monkeypatch.setattr(numerics, "BLOCK", 64)
    with pytest.raises(DomainError, match=r"^point \[10\.0, 10\.0\] \(row 150\) outside the safe domain"):
        numerics.in_blocks(lambda rows: ({"x": adapted_frame(chart, u[rows]).x},), len(u))
