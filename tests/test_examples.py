import math

import numpy as np
import pytest

from twistcal.errors import ConfigError, DomainError
from twistcal.examples import (
    boundedness_scan,
    equatorial_chart,
    eta_family,
    frame_change_check,
    golden_residuals,
    golden_table,
    golden_table_names,
    hat_coordinates,
    make_eta_family,
    make_section_family,
    pde_residual,
    veronese_chart,
)
from twistcal.numerics import jacobian
from twistcal.submanifold import adapted_frame, classify, get_chart

from conftest import rng_for


# -- section and eta factories ----------------------------------------------------


@pytest.mark.parametrize(
    "factory, kind, params, message",
    [
        (make_section_family, "const", {"rea": 1.0}, "unknown const section keys ['rea']; allowed: ['im', 're']"),
        (make_section_family, "equatorial-hol", {}, "equatorial-hol section needs keys ['coeffs']"),
        (make_section_family, "veronese-strip", {"coeffs": {}, "k": 1}, "unknown veronese-strip section keys ['k']; allowed: ['coeffs']"),
        (make_section_family, "nosuch", {}, "unknown section kind 'nosuch'"),
        (make_eta_family, "coord", {"axes": 2}, "unknown coord eta keys ['axes']; allowed: ['axis']"),
        (make_eta_family, "zero", {"c": 1.0}, "unknown zero eta keys ['c']; allowed: []"),
        (make_eta_family, "sinphi", {}, "unknown eta kind 'sinphi'"),
        # axis 0 would read u_q through a negative index, and 2.9 would truncate to 2
        (make_eta_family, "coord", {"axis": 0}, "coord axis must be an integer index >= 1, got 0"),
        (make_eta_family, "coord", {"axis": 2.9}, "coord axis must be an integer index >= 1, got 2.9"),
        (make_eta_family, "coord", {"axis": -1.0}, "coord axis must be an integer index >= 1, got -1"),
        (make_eta_family, "coord", {"axis": float("nan")}, "coord axis must be an integer index >= 1, got nan"),
    ],
    ids=["const-rea", "hol-no-coeffs", "strip-k", "section-nosuch", "coord-axes", "zero-c", "eta-sinphi",
         "coord-axis-0", "coord-axis-2.9", "coord-axis-negative", "coord-axis-nan"],
)
def test_factories_reject_unknown_kinds_and_keys(factory, kind, params, message):
    # a misspelled key used to be ignored: const with rea=1 was G = 0
    with pytest.raises(ConfigError) as info:
        factory(kind, **params)
    assert str(info.value) == message


def test_a_coord_axis_above_the_base_dimension_is_a_config_error_at_evaluation():
    # the factory does not know q; the (N, q) rows it is evaluated on do, and
    # the message is the one the spec reader gives before a job runs
    family = make_eta_family("coord", axis=3)
    for evaluate in (lambda: family.value(np.zeros((2, 2))), lambda: eta_family("coord:axis=3", 2)):
        with pytest.raises(ConfigError) as info:
            evaluate()
        assert str(info.value) == "coord axis must be an integer in 1..2, got 3"
    assert np.all(family.value(np.ones((2, 3))) == 1.0)


def test_factory_defaults_and_the_zero_eta():
    u = get_chart("equatorial").sample(rng_for(30), 5)
    assert np.all(make_section_family("const", im=2.0).value(u) == 2.0j)
    assert np.all(make_section_family("sinphi").value(u) == 0.0)
    zero = make_eta_family("zero").value(u)
    assert zero.dtype == float and np.all(zero == make_eta_family("const").value(u))
    assert np.all(make_eta_family("coord").value(u) == u[:, 0])
    assert np.all(make_eta_family("coord", axis=2).value(u) == u[:, 1])


# -- chart identities -------------------------------------------------------------


def test_equatorial_centre_and_jacobian_norms():
    chart = get_chart("equatorial")
    x0 = chart.xmap(np.zeros(2))
    assert np.allclose(x0, [-1.0, 0.0, 0.0, 0.0, 0.0])
    rng = rng_for(0)
    for u in chart.sample(rng, 10):
        jac = jacobian(chart.xmap, u)
        expected = 2.0 / (1.0 + u @ u)
        for col in jac.T:
            assert np.linalg.norm(col) == pytest.approx(expected, rel=1e-9)


def test_equatorial_image_on_sphere_and_geodesic():
    chart = get_chart("equatorial")
    rng = rng_for(1)
    for u in chart.sample(rng, 50):
        assert abs(np.linalg.norm(chart.xmap(u)) - 1.0) < 1e-12
    for u in chart.sample(rng, 50):
        p = adapted_frame(chart, u)
        assert np.max(np.abs(p.second_fund)) < 1e-7


def test_veronese_image_on_sphere():
    chart = get_chart("veronese")
    rng = rng_for(2)
    for u in chart.sample(rng, 100):
        assert abs(np.linalg.norm(chart.xmap(u)) - 1.0) < 1e-12


def test_veronese_frames_oriented_everywhere():
    rng = rng_for(3)
    for name in ("veronese", "veronese-hat"):
        chart = get_chart(name)
        for u in chart.sample(rng, 50):
            p = adapted_frame(chart, u)
            gram = p.frame @ p.frame.T
            assert np.max(np.abs(gram - np.eye(4))) < 1e-10
            assert np.linalg.det(np.vstack([p.x[None, :], p.frame])) > 0


def test_superminimality_signs_per_chart():
    rng = rng_for(4)
    expectations = {
        "equatorial": "both",
        "veronese": "+1",
        "veronese-hat": "+1",
        "veronese-antipodal": "-1",
    }
    for name, expected in expectations.items():
        chart = get_chart(name)
        for u in chart.sample(rng, 4):
            assert classify(adapted_frame(chart, u)).superminimal == expected


def test_golden_tables_reproduce_everywhere():
    rng = rng_for(5)
    for name in golden_table_names():
        tol = float(golden_table(name)["tolerance"])
        chart = get_chart(golden_table(name)["chart"])
        for u in chart.sample(rng, 10):
            assert golden_residuals(name, u)["max"] < tol


# -- holomorphicity PDE -----------------------------------------------------------


def test_pde_solution_families_have_tiny_residual():
    eq = get_chart("equatorial")
    fam = make_section_family("equatorial-hol", coeffs=[1.0])
    assert abs(pde_residual(fam, eq, np.array([0.7, -1.1]))) < 1e-9

    ver = get_chart("veronese")
    fam2 = make_section_family("sinphi", C=1.0, D=0.0)
    assert abs(pde_residual(fam2, ver, np.array([1.2, 2.5]))) < 1e-9
    fam3 = make_section_family("veronese-strip", coeffs={1: 1.0 + 0.5j})
    assert abs(pde_residual(fam3, ver, np.array([0.9, 4.0]))) < 1e-9


def test_pde_constant_fails_with_coordinate_size():
    eq = get_chart("equatorial")
    fam = make_section_family("const", re=1.0, im=0.0)
    u = np.array([0.8, -0.5])
    assert abs(pde_residual(fam, eq, u)) == pytest.approx(
        np.linalg.norm(u), rel=1e-8
    )


def test_pde_higher_degree_polynomials_still_solve():
    eq = get_chart("equatorial")
    fam = make_section_family("equatorial-hol", coeffs=[0.5, -1.0 + 0.3j, 0.2])
    rng = rng_for(6)
    for u in eq.sample(rng, 5):
        assert abs(pde_residual(fam, eq, u)) < 1e-7


# -- boundedness ------------------------------------------------------------------


def test_unbounded_equatorial_family_flagged():
    eq = get_chart("equatorial")
    fam = make_section_family("equatorial-hol", coeffs=[1.0])
    rep = boundedness_scan(fam, eq)
    assert rep.growth_flag
    assert rep.log_slope > 1.0  # |G| grows like |u|^2


def test_veronese_sinphi_bounded():
    ver = get_chart("veronese")
    fam = make_section_family("sinphi", C=1.0, D=0.0)
    rep = boundedness_scan(fam, ver)
    assert not rep.growth_flag
    assert rep.sup_abs_g == pytest.approx(1.0, abs=1e-6)
    assert rep.sup_section_norm_sq <= 2.0 + 1e-9


def test_zero_section_bounded():
    ver = get_chart("veronese")
    rep = boundedness_scan(make_section_family("zero"), ver)
    assert rep.sup_abs_g == 0.0
    assert not rep.growth_flag


def _pointwise_scan(family, chart):
    """sup |G| and the log slope of a boundedness scan, one point per
    ``family.value`` call."""
    rng = np.random.default_rng(0)
    values = [abs(family.value(p)) for p in chart.sample(rng, 400)]
    ladder = []
    if chart.name.startswith("equatorial"):
        xs = np.geomspace(2.0, 40.0, 12)
        for r in xs:
            angles = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
            ladder.append(max(abs(family.value(np.array([r * np.cos(a), r * np.sin(a)]))) for a in angles))
    else:
        margins = np.geomspace(0.3, 0.005, 10)
        xs = 1.0 / margins
        for m in margins:
            thetas = np.linspace(*chart.sample_box[1], 24)
            ladder.append(max(abs(family.value(np.array([phi, t]))) for phi in (m, math.pi - m) for t in thetas))
    sup_abs = max(values + ladder)
    slope = float(np.polyfit(np.log(xs[-4:]), np.log(np.array(ladder[-4:])), 1)[0]) if sup_abs > 0 else 0.0
    return sup_abs, slope


@pytest.mark.parametrize(
    "chart_name, kind, params",
    [
        ("equatorial", "equatorial-hol", {"coeffs": [1.0]}),
        ("veronese", "sinphi", {"C": 1.0, "D": 0.0}),
        ("veronese", "zero", {}),
        ("veronese", "veronese-strip", {"coeffs": {1: 1.0}}),
        ("veronese", "veronese-strip", {"coeffs": {2: 1.0}}),
        ("veronese-hat", "equatorial-hol", {"coeffs": [0.3, -1j, 2.0]}),
    ],
)
def test_boundedness_scan_matches_pointwise_values(chart_name, kind, params):
    # the scan evaluates its points as stacks; every value, and so the
    # report, must equal the one-point route bit for bit
    chart = get_chart(chart_name)
    family = make_section_family(kind, **params)
    rep = boundedness_scan(family, chart)
    sup_abs, slope = _pointwise_scan(family, chart)
    assert rep.sup_abs_g == sup_abs
    assert rep.sup_section_norm_sq == 2.0 * sup_abs * sup_abs
    assert rep.log_slope == slope


# -- chart overlap -----------------------------------------------------------------


def _overlap_points(count, seed):
    chart = get_chart("veronese")
    chart_hat = get_chart("veronese-hat")
    rng = rng_for(seed)
    out = []
    while len(out) < count:
        phi = rng.uniform(*chart.sample_box[0])
        theta = rng.uniform(*chart.sample_box[1])
        u_hat = hat_coordinates(phi, theta)
        if chart_hat.contains(u_hat):
            out.append((phi, theta))
    return out


def test_hat_coordinates_consistent():
    chart = get_chart("veronese")
    chart_hat = get_chart("veronese-hat")
    for phi, theta in _overlap_points(20, seed=7):
        u_hat = hat_coordinates(phi, theta)
        assert np.max(np.abs(chart.xmap(np.array([phi, theta])) - chart_hat.xmap(u_hat))) < 1e-12


def test_frame_change_identities_on_overlap():
    worst = {}
    for phi, theta in _overlap_points(50, seed=8):
        res = frame_change_check(phi, theta, C=1.0, D=-0.8)
        for key, val in res.items():
            worst[key] = max(worst.get(key, 0.0), val)
    assert worst["max"] < 1e-6
    assert worst["hat_pde"] < 1e-7
    assert worst["sin_phi"] < 1e-12


def test_frame_change_rejects_points_off_overlap():
    with pytest.raises(DomainError):
        frame_change_check(0.36, 0.05)  # theta too close to the unhatted cut


# -- constructors -------------------------------------------------------------------


def test_equatorial_chart_validation():
    chart = equatorial_chart()
    assert chart.q == 2 and chart.n == 4
    assert abs(np.linalg.norm(chart.xmap(np.array([0.5, -1.5]))) - 1.0) < 1e-12


def test_veronese_chart_selector():
    with pytest.raises(DomainError):
        veronese_chart("bogus")


def test_golden_table_embedded_values_match_expressions():
    import math

    for name in golden_table_names():
        table = golden_table(name)
        for entry in table["gamma"]:
            if entry["value"] is not None:
                names = {"sqrt": math.sqrt}
                expected = float(eval(entry["expr"], {"__builtins__": {}}, names))
                assert entry["value"] == expected
        for key, mat in table.get("second_fund_values", {}).items():
            exprs = table["second_fund"][key]
            for row_v, row_e in zip(mat, exprs):
                for v, e in zip(row_v, row_e):
                    names = {"sqrt": math.sqrt}
                    assert v == float(eval(e, {"__builtins__": {}}, names))


def test_report_only_nonconstant_strip_coefficients(capsys):
    """Informational: whether low modes of the strip family stay bounded is
    reported, not asserted (no pinned ground truth for nonconstant modes)."""
    ver = get_chart("veronese")
    for k in (1, 2):
        fam = make_section_family("veronese-strip", coeffs={k: 1.0})
        rep = boundedness_scan(fam, ver)
        print(
            f"strip mode k={k}: sup|G|={rep.sup_abs_g:.4f} "
            f"flag={rep.growth_flag} slope={rep.log_slope:.3f}"
        )
    assert True


# -- golden-table expressions are parsed, never eval'd --------------------------------------


def test_every_table_expression_matches_the_eval_route():
    from twistcal.examples import _eval_expr

    from conftest import legacy_eval_expr

    rng = rng_for(21)
    for name in golden_table_names():
        table = golden_table(name)
        chart = get_chart(table["chart"])
        exprs = [entry["expr"] for entry in table["gamma"]]
        exprs += [e for mat in table.get("second_fund", {}).values() for row in mat for e in row]
        points = chart.sample(rng, 5)
        for expr in exprs:
            stacked = _eval_expr(expr, dict(zip(table["variables"], points.T)))
            for i, p in enumerate(points):
                variables = dict(zip(table["variables"], map(float, p)))
                expected = legacy_eval_expr(expr, variables)
                assert _eval_expr(expr, variables) == pytest.approx(expected, rel=1e-15, abs=1e-15)
                assert np.broadcast_to(stacked, (5,))[i] == pytest.approx(expected, rel=1e-15, abs=1e-15)


def test_table_expressions_are_parsed_once_and_tables_are_handed_out_fresh(monkeypatch):
    import ast

    from twistcal.examples import _parse_expr

    _parse_expr.cache_clear()
    parsed = []
    parse = ast.parse
    monkeypatch.setattr(ast, "parse", lambda source, *a, **k: parsed.append(source) or parse(source, *a, **k))
    points = get_chart("veronese").sample(rng_for(5), 4)
    first = golden_residuals("veronese", points)
    # a caller that edits the table it was handed changes no later job
    golden_table("veronese")["gamma"][0]["expr"] = "1e9"
    second = golden_residuals("veronese", points)
    assert parsed and len(parsed) == len(set(parsed))
    assert "1e9" not in parsed
    for key in first:
        assert np.array_equal(first[key], second[key])


def test_a_table_job_parses_the_table_file_at_most_once(monkeypatch, capsys):
    import copy
    import json

    from twistcal.cli import main
    from twistcal.examples import _load_tables

    loads, copies = [], []
    load, deepcopy = json.load, copy.deepcopy
    monkeypatch.setattr(json, "load", lambda fh, *a, **k: loads.append(fh) or load(fh, *a, **k))
    # the job reads the shared table and copies none of it
    monkeypatch.setattr(copy, "deepcopy", lambda x, *a, **k: copies.append(x) or deepcopy(x, *a, **k))
    _load_tables.cache_clear()
    for name in golden_table_names():
        before = len(loads)
        assert main(["table", name, "--samples", "3"]) == 0
        assert len(loads) - before <= 1, name
    assert len(loads) == 1 and copies == []
    # the unknown-name message still lists every table
    assert main(["table", "nosuch", "--samples", "3"]) == 2
    assert "have ['equatorial', 'veronese', 'veronese-hat']" in capsys.readouterr().err
    assert len(loads) == 1


@pytest.mark.parametrize(
    "expr",
    [
        "__import__('os')",
        "u1.real",
        "u1.__class__",
        "u1[0]",
        "(lambda: 1)()",
        "foo + 1",
        "open('x')",
        "sqrt(u1, u2)",
        "sqrt(x=u1)",
        "u1 if u2 else 0",
        "'text'",
        "True",
        "1 +",
    ],
)
def test_table_expressions_reject_anything_but_arithmetic(expr):
    from twistcal.examples import _eval_expr

    with pytest.raises(DomainError):
        _eval_expr(expr, {"u1": 0.5, "u2": 0.25})


def test_table_expression_arithmetic():
    from twistcal.examples import _eval_expr

    values = {"phi": np.array([0.5, 1.0]), "u1": 2.0}
    assert _eval_expr("-2**3 + u1 / 4 * +1", values) == -7.5
    assert np.allclose(_eval_expr("2*cot(phi)/sqrt(3)", values), 2 / np.tan([0.5, 1.0]) / math.sqrt(3))
    assert _eval_expr("pi - tan(0) + sin(0) * cos(0)", values) == math.pi
