"""Named verification suites orchestrating the geometric modules.

Each suite samples points of a twisted bundle over a registered chart,
computes the calibration residuals and the theorem-side criteria at every
sample, and packages the outcome as a :class:`VerificationReport`.  A PASS
means calibrated and criteria satisfied; a FAIL means both sides are
violated by a clear margin; MIXED points (one side small, the other not)
would contradict the equivalences under test and never occur for healthy
inputs.
"""

from __future__ import annotations

import math
import re

import numpy as np

from . import g2, spin7, stenzel
from .errors import ConfigError, TwistcalError
from .examples import make_eta_family, make_section_family
from .report import PointRecord, SuiteConfig, VerificationReport
from .submanifold import adapted_frame, get_chart, superminimal_residual, trace_residual
from .g2 import BSProfile, UNIT_PROFILE
from .stenzel import DEFAULT_PROFILE, StenzelProfile, constant_mu

__all__ = ["run_suite", "suite_names", "parse_section_spec", "parse_profile_spec"]


def _parse_number(text: str, what: str) -> float:
    """A finite float, or a ConfigError naming ``what``."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{what} needs a number, got {text.strip()!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {text.strip()!r}")
    return value


def _parse_params(blob: str) -> dict:
    """"key=value,key=value" with finite numeric values."""
    params = {}
    if not blob:
        return params
    for item in blob.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"malformed parameter {item!r} (expected key=value)")
        key, val = item.split("=", 1)
        params[key.strip()] = _parse_number(val, f"parameter {key.strip()!r}")
    return params


def _check_keys(what: str, params: dict, allowed) -> None:
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def parse_section_spec(spec: str):
    """Parse "kind" or "kind:key=value,key=value" into a section family."""
    spec = (spec or "zero").strip()
    kind, _, blob = spec.partition(":")
    params = _parse_params(blob)
    return kind, params


_MU_PATTERN = re.compile(r"^([0-9eE.+-]*?)e(\d+)$")


def parse_mu_spec(spec: str, q: int) -> stenzel.MuForm:
    """"0" for the zero form, "<coeff>e<index>" for coeff * e^index."""
    spec = (spec or "0").strip()
    if spec in ("0", "zero", ""):
        return constant_mu(np.zeros(q))
    match = _MU_PATTERN.match(spec)
    if not match:
        raise ConfigError(f"malformed mu spec {spec!r}; expected e.g. 0.3e1")
    sign_only = match.group(1) in ("", "+", "-")
    coeff = _parse_number(match.group(1) + "1" if sign_only else match.group(1), "mu coefficient")
    index = int(match.group(2))
    if not 1 <= index <= q:
        raise ConfigError(f"mu index {index} out of range 1..{q}")
    coeffs = np.zeros(q)
    coeffs[index - 1] = coeff
    return constant_mu(coeffs)


def parse_profile_spec(spec: str):
    """Named presets or explicit constants for the metric profiles.

    "unit"     -> u = v = 1 and the default positive Stenzel derivatives
    "linear"   -> u = 1 + r, v = 1 + 2r
    "u=..,v=..,vp=..,vpp=.." -> constants
    """
    spec = (spec or "unit").strip()
    if spec == "unit":
        return UNIT_PROFILE, DEFAULT_PROFILE
    if spec == "linear":
        bs = BSProfile(u=lambda r: 1.0 + r, v=lambda r: 1.0 + 2.0 * r)
        return bs, DEFAULT_PROFILE
    params = _parse_params(spec)
    _check_keys("profile", params, ("u", "v", "vp", "vpp"))
    bs = BSProfile(u=params.get("u", 1.0), v=params.get("v", 1.0))
    if bs.u <= 0 or bs.v <= 0:
        raise ConfigError("profile weights u, v must be positive")
    vp = params.get("vp", 1.0)
    vpp = params.get("vpp", 1.0)
    if vp <= 0 or vpp <= 0:
        raise ConfigError("profile derivatives must be positive")
    st = StenzelProfile(vprime=lambda r: vp, vprimeprime=lambda r: vpp)
    return bs, st


def _parse_fiber_list(spec: str, width: int, default):
    """Semicolon-separated fibre tuples, e.g. "-2;0;1.5" or "1,0;0,1"."""
    if not spec:
        return [np.atleast_1d(np.asarray(v, dtype=float)) for v in default]
    out = []
    for chunk in spec.split(";"):
        vals = [_parse_number(x, "fiber entry") for x in chunk.split(",") if x != ""]
        if len(vals) != width:
            raise ConfigError(f"fiber tuple {chunk!r} needs {width} entries")
        out.append(np.array(vals))
    return out


def _sample_fibers(rng, count, width, lo=0.3, hi=2.0):
    mags = rng.uniform(lo, hi, size=count)
    dirs = rng.standard_normal(size=(count, width))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return mags[:, None] * dirs


_SECTION_KEYS = {"zero": (), "const": ("re", "im"), "sinphi": ("C", "D")}
_ETA_KEYS = {"zero": (), "const": ("c",), "coord": ("axis",)}


def _section_family_for(config: SuiteConfig):
    kind, params = parse_section_spec(config.section)
    if kind in _SECTION_KEYS:
        _check_keys(f"{kind} section", params, _SECTION_KEYS[kind])
        return make_section_family(kind, **params)
    if kind == "equatorial-hol":
        parts: dict = {"re": {}, "im": {}}
        for key, val in params.items():
            m = re.match(r"^c(\d+)(re|im)$", key)
            if not m:
                raise ConfigError(f"unknown equatorial-hol key {key!r} (expected c<i>re or c<i>im)")
            parts[m.group(2)][int(m.group(1))] = val
        degree = max([*parts["re"], *parts["im"], 0])
        coeffs = [complex(parts["re"].get(i, 0.0), parts["im"].get(i, 0.0)) for i in range(degree + 1)]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return make_section_family("equatorial-hol", coeffs=coeffs or [0.0])
    if kind == "veronese-strip":
        coeffs = {}
        for key, val in params.items():
            m = re.match(r"^k(-?\d+)(re|im)$", key)
            if not m:
                raise ConfigError(f"unknown veronese-strip key {key!r}")
            k = int(m.group(1))
            c = coeffs.get(k, 0.0 + 0.0j)
            coeffs[k] = c + (val if m.group(2) == "re" else 1j * val)
        return make_section_family("veronese-strip", coeffs=coeffs)
    raise ConfigError(f"unknown section kind {kind!r}")


def _eta_family_for(config: SuiteConfig, q: int):
    kind, params = parse_section_spec(config.section)
    if kind not in _ETA_KEYS:
        raise ConfigError(f"unknown eta kind {kind!r}")
    _check_keys(f"{kind} eta", params, _ETA_KEYS[kind])
    if kind == "zero":
        return make_eta_family("const", c=0.0)
    if kind == "coord":
        axis = params.get("axis", 1)
        if axis != int(axis) or not 1 <= axis <= q:
            raise ConfigError(f"coord axis must be an integer in 1..{q}, got {axis:g}")
        params = {"axis": int(axis)}
    return make_eta_family(kind, **params)


# -- suite runners -------------------------------------------------------------


def _run_stenzel(config: SuiteConfig) -> VerificationReport:
    chart = get_chart(config.chart)
    _, st_profile = parse_profile_spec(config.profile)
    mu = parse_mu_spec(config.section, chart.q)
    rng = np.random.default_rng(config.seed)
    samples = chart.sample(rng, config.samples)
    fibers = _sample_fibers(rng, config.samples, chart.n - chart.q)
    points = []
    for rec in stenzel.lagrangian_samples(
        chart, mu, samples, fibers, st_profile, config.fd_step
    ):
        points.append(
            PointRecord(
                u=list(rec["u"]),
                t=list(rec["t"]),
                residuals=rec["residuals"],
                criteria=rec["criteria"],
            )
        )
    report = VerificationReport.build(config, points)
    # cross-checks from the closed-form route: agreement of the mixed pairing
    # with its proof-side scalar at normal-frame centres, and positivity of
    # the bracketed profile factor, on a deterministic subsample
    gap = 0.0
    bracket_min = np.inf
    for u, t in zip(samples[:3], fibers[:3]):
        fd_pt, _, _ = stenzel.closed_form_tangents(chart, mu, u, t, config.fd_step)
        r = float(np.linalg.norm(fd_pt.z))
        vp, vpp = st_profile.at(r)
        bracket_min = min(bracket_min, stenzel.bracket_factor(fd_pt.y, vp, vpp))
        for i in range(chart.q):
            for j in range(chart.n - chart.q):
                direct = stenzel.omega_value(
                    fd_pt.z, fd_pt.tangents_e[i], fd_pt.tangents_f[j], st_profile
                )
                closed = stenzel.mixed_pairing_closed_form(fd_pt, i, j, st_profile)
                gap = max(gap, abs(direct - closed))
    report.aggregates["diagnostic.closed_form_gap.max"] = float(gap)
    report.aggregates["diagnostic.bracket_factor.min"] = float(bracket_min)
    return report


def _sample_frames(chart, config: SuiteConfig):
    """The sampled chart points and their adapted frames, as one stack."""
    rng = np.random.default_rng(config.seed)
    samples = chart.sample(rng, config.samples)
    return samples, adapted_frame(chart, samples, config.fd_step)


def _holomorphy_criteria(point, family, fd_step):
    sec = g2.section_data(family, point, fd_step)
    r2, r3 = g2.dbar_f_residual(point.gamma, sec)
    trace = float(trace_residual(point.second_fund))
    return sec, {"trace_a": trace, "dbar_f": float(np.hypot(r2, r3))}


def _run_g2_associative(config: SuiteConfig) -> VerificationReport:
    chart = get_chart(config.chart)
    bs_profile, _ = parse_profile_spec(config.profile)
    family = _section_family_for(config)
    fibers = _parse_fiber_list(config.fiber, 1, default=[-2.0, 0.0, 1.5])
    samples, frames = _sample_frames(chart, config)
    points = []
    for u, point in zip(samples, frames):
        sec, criteria = _holomorphy_criteria(point, family, config.fd_step)
        for t1 in fibers:
            e1, e2, f1 = g2.tangent_basis_e_sigma(point, sec, float(t1[0]))
            res = g2.associative_residual(
                e1, e2, f1, bs_profile, fiber=(float(t1[0]), sec.a, sec.b)
            )
            points.append(
                PointRecord(
                    u=list(u),
                    t=[float(t1[0])],
                    residuals={"associative": res},
                    criteria=dict(criteria),
                )
            )
    return VerificationReport.build(config, points)


def _run_g2_coassociative(config: SuiteConfig) -> VerificationReport:
    chart = get_chart(config.chart)
    bs_profile, _ = parse_profile_spec(config.profile)
    eta = _eta_family_for(config, chart.q)
    fibers = _parse_fiber_list(config.fiber, 2, default=[(0.7, -1.2), (1.5, 0.4), (0.3, 0.9)])
    samples, frames = _sample_frames(chart, config)
    points = []
    for u, point in zip(samples, frames):
        gval = eta.value(point.u)
        dgamma = point.scalar_derivatives(eta.value)
        cls_res = float(superminimal_residual(point.second_fund, -1.0))
        parallel = g2.parallel_e_residual(dgamma)
        for t in fibers:
            e1, e2, f2, f3 = g2.tangent_basis_eta_f(point, gval, dgamma, t)
            res = g2.coassociative_residual(
                e1, e2, f2, f3, bs_profile, fiber=(gval, float(t[0]), float(t[1]))
            )
            points.append(
                PointRecord(
                    u=list(u),
                    t=[float(t[0]), float(t[1])],
                    residuals={"coassociative": res},
                    criteria={"neg_superminimal": cls_res, "parallel_e": parallel},
                )
            )
    return VerificationReport.build(config, points)


def _run_spin7(config: SuiteConfig) -> VerificationReport:
    chart = get_chart(config.chart)
    bs_profile, _ = parse_profile_spec(config.profile)
    family = _section_family_for(config)
    fibers = _parse_fiber_list(config.fiber, 2, default=[(0.0, 0.0), (1.0, -2.0), (0.8, 0.5)])
    samples, frames = _sample_frames(chart, config)
    sframe = spin7.spinor_frames()
    points = []
    for u, point in zip(samples, frames):
        sec = g2.section_data(family, point, config.fd_step)
        c3, c4 = spin7.dbar_vminus_residual(point.gamma, sframe, sec)
        trace = float(trace_residual(point.second_fund))
        criteria = {"trace_a": trace, "dbar_vminus": float(np.hypot(c3, c4))}
        for t in fibers:
            e1, e2, f1, f2 = spin7.tangent_basis_v_plus(point, sframe, sec, t)
            r = float(np.sqrt(t @ t + sec.a**2 + sec.b**2))
            res = spin7.cayley_residual(e1, e2, f1, f2, bs_profile, r)
            gap = spin7.calibration_gap(e1, e2, f1, f2, bs_profile, r)
            points.append(
                PointRecord(
                    u=list(u),
                    t=[float(t[0]), float(t[1])],
                    residuals={"cayley": res, "calibration_gap": gap},
                    criteria=dict(criteria),
                )
            )
    return VerificationReport.build(config, points)


_SUITES = {
    "stenzel-lagrangian": _run_stenzel,
    "g2-associative": _run_g2_associative,
    "g2-coassociative": _run_g2_coassociative,
    "spin7-cayley": _run_spin7,
}


def suite_names() -> list[str]:
    return sorted(_SUITES)


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Run a registered suite; deterministic for a fixed config and seed."""
    config.validate()
    if config.suite not in _SUITES:
        raise ConfigError(f"unknown suite {config.suite!r}; have {suite_names()}")
    try:
        get_chart(config.chart)
    except TwistcalError as exc:
        raise ConfigError(str(exc)) from None
    report = _SUITES[config.suite](config)
    _check_finite(report)
    return report


def _check_finite(report: VerificationReport):
    for p in report.points:
        values = list(p.residuals.values()) + list(p.criteria.values())
        if not all(np.isfinite(v) for v in values):
            raise TwistcalError(
                f"numerical breakdown at u={p.u}, t={p.t}: residuals={p.residuals}, criteria={p.criteria}"
            )
