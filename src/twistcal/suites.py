"""Named verification suites orchestrating the geometric modules.

Each suite samples points of a twisted bundle over a registered chart,
computes the calibration residuals and the theorem-side criteria at every
sample, and packages the outcome as a :class:`VerificationReport`.  A PASS
means both sides below the tolerance; a FAIL means both sides at or
above it; MIXED points (one side below the tolerance, the other not) would
contradict the equivalences under test and never occur for healthy inputs.
"""

from __future__ import annotations

import math
import re

import numpy as np

from . import g2, spin7, stenzel
from .errors import ConfigError, TwistcalError
from .examples import make_eta_family, make_section_family
from .report import SuiteConfig, VerificationReport
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


def parse_mu_spec(spec: str, q: int) -> np.ndarray:
    """The (q,) coefficients of mu: "<coeff>e<index>" for coeff * e^index;
    "zero" or any number equal to zero ("0", "0.0", "-0") for the zero form.
    The pattern is tried first, because "0.3e1" is also a float literal."""
    spec = (spec or "zero").strip()
    match = _MU_PATTERN.match(spec)
    if not match:
        try:
            value = float(spec)
        except ValueError:
            value = math.nan
        if spec in ("zero", "") or value == 0.0:
            return constant_mu(np.zeros(q))
        if math.isfinite(value):
            raise ConfigError(f"mu spec {spec!r} needs an index, e.g. 1.5e1")
        raise ConfigError(f"malformed mu spec {spec!r}; expected e.g. 0.3e1")
    sign_only = match.group(1) in ("", "+", "-")
    coeff = _parse_number(match.group(1) + "1" if sign_only else match.group(1), "mu coefficient")
    index = int(match.group(2))
    if not 1 <= index <= q:
        raise ConfigError(f"mu index {index} out of range 1..{q}")
    coeffs = np.zeros(q)
    coeffs[index - 1] = coeff
    return constant_mu(coeffs)


def parse_profile_spec(spec: str, suite: str):
    """The metric profile that ``suite`` reads, from a preset or constants.

    stenzel-lagrangian: "unit" -> the default positive Stenzel derivatives,
                        "vp=..,vpp=.." -> constants
    the other suites:   "unit" -> u = v = 1, "linear" -> u = 1 + r,
                        v = 1 + 2r, "u=..,v=.." -> constants

    A key or preset that the suite does not read is rejected, not ignored.
    """
    spec = (spec or "unit").strip()
    stenzel_suite = suite == "stenzel-lagrangian"
    if spec == "unit":
        return DEFAULT_PROFILE if stenzel_suite else UNIT_PROFILE
    if spec == "linear":
        if stenzel_suite:
            raise ConfigError(f"profile 'linear' does not apply to {suite}; use unit or vp=..,vpp=..")
        return BSProfile(u=lambda r: 1.0 + r, v=lambda r: 1.0 + 2.0 * r)
    params = _parse_params(spec)
    if stenzel_suite:
        _check_keys(f"{suite} profile", params, ("vp", "vpp"))
        vp, vpp = params.get("vp", 1.0), params.get("vpp", 1.0)
        if vp <= 0 or vpp <= 0:
            raise ConfigError("profile derivatives must be positive")
        return StenzelProfile(vprime=lambda r: vp, vprimeprime=lambda r: vpp)
    _check_keys(f"{suite} profile", params, ("u", "v"))
    bs = BSProfile(u=params.get("u", 1.0), v=params.get("v", 1.0))
    if bs.u <= 0 or bs.v <= 0:
        raise ConfigError("profile weights u, v must be positive")
    return bs


def _parse_fiber_list(spec: str, width: int, default):
    """Semicolon-separated fibre tuples, e.g. "-2;0;1.5" or "1,0;0,1", as an
    (F, width) array."""
    if not spec:
        return np.array(default, dtype=float).reshape(-1, width)
    out = []
    for chunk in spec.split(";"):
        vals = [_parse_number(x, "fiber entry") for x in chunk.split(",") if x != ""]
        if len(vals) != width:
            raise ConfigError(f"fiber tuple {chunk!r} needs {width} entries")
        out.append(vals)
    return np.array(out)


FIBER_RADII = (0.3, 2.0)  # range of the fibre radii that the Stenzel suite samples


def _sample_fibers(rng, count, width):
    mags = rng.uniform(*FIBER_RADII, size=count)
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
    if config.fiber:
        raise ConfigError("fiber does not apply to the stenzel-lagrangian suite, "
                          "which samples its fibre coordinates")
    chart = get_chart(config.chart)
    st_profile = parse_profile_spec(config.profile, config.suite)
    mu = parse_mu_spec(config.section, chart.q)
    rng = np.random.default_rng(config.seed)
    samples = chart.sample(rng, config.samples)
    fibers = _sample_fibers(rng, config.samples, chart.n - chart.q)
    omega_max, mu_norm, pts, omega = stenzel.lagrangian_columns(
        chart, mu, samples, fibers, st_profile, config.fd_step
    )
    report = VerificationReport.build(
        config, samples, fibers, {"omega_max": omega_max}, {"mu_norm": mu_norm}
    )
    # cross-checks at every sample: the mixed omega block against its
    # proof-side scalars, and positivity of the bracketed profile factor
    mixed = omega[..., : chart.q, chart.q :]
    gap = np.max(np.abs(mixed - stenzel.mixed_pairing_closed_form(pts, st_profile)))
    vp, vpp = st_profile.at(np.linalg.norm(pts.z, axis=-1))
    bracket_min = np.min(stenzel.bracket_factor(pts.y, vp, vpp))
    report.aggregates["diagnostic.closed_form_gap.max"] = float(gap)
    report.aggregates["diagnostic.bracket_factor.min"] = float(bracket_min)
    return report


def _sample_frames(chart, config: SuiteConfig):
    """The sampled chart points and their adapted frames, as one stack."""
    rng = np.random.default_rng(config.seed)
    samples = chart.sample(rng, config.samples)
    return samples, adapted_frame(chart, samples, config.fd_step)


def _pair_report(config, samples, fibers, residuals: dict, criteria: dict) -> VerificationReport:
    """The report with one row per (sample, fibre) pair, samples outermost,
    from (P, F) residual and (P,) criterion arrays."""
    count = len(fibers)
    return VerificationReport.build(
        config,
        np.repeat(samples, count, axis=0),
        np.tile(fibers, (len(samples), 1)),
        {k: np.reshape(v, -1) for k, v in residuals.items()},
        {k: np.repeat(v, count) for k, v in criteria.items()},
    )


def _holomorphy_criteria(frames, family):
    sec = g2.section_data(family, frames)
    r2, r3 = g2.dbar_f_residual(frames.gamma, sec)
    return sec, {"trace_a": trace_residual(frames.second_fund), "dbar_f": np.hypot(r2, r3)}


def _run_g2_associative(config: SuiteConfig) -> VerificationReport:
    chart = get_chart(config.chart)
    bs_profile = parse_profile_spec(config.profile, config.suite)
    family = _section_family_for(config)
    fibers = _parse_fiber_list(config.fiber, 1, default=[-2.0, 0.0, 1.5])
    samples, frames = _sample_frames(chart, config)
    sec, criteria = _holomorphy_criteria(frames, family)
    t1 = fibers[:, 0]
    e1, e2, f1 = np.moveaxis(g2.tangent_basis_e_sigma(frames, sec, t1), -2, 0)
    res = g2.associative_residual(
        e1, e2, f1, bs_profile, fiber=(t1, sec.a[:, None], sec.b[:, None])
    )
    return _pair_report(config, samples, fibers, {"associative": res}, criteria)


def _run_g2_coassociative(config: SuiteConfig) -> VerificationReport:
    chart = get_chart(config.chart)
    bs_profile = parse_profile_spec(config.profile, config.suite)
    eta = _eta_family_for(config, chart.q)
    fibers = _parse_fiber_list(config.fiber, 2, default=[(0.7, -1.2), (1.5, 0.4), (0.3, 0.9)])
    samples, frames = _sample_frames(chart, config)
    gval = eta.value(frames.u)
    dgamma = frames.scalar_derivatives(eta.value)
    criteria = {
        "neg_superminimal": superminimal_residual(frames.second_fund, -1.0),
        "parallel_e": g2.parallel_e_residual(dgamma),
    }
    e1, e2, f2, f3 = np.moveaxis(g2.tangent_basis_eta_f(frames, gval, dgamma, fibers), -2, 0)
    res = g2.coassociative_residual(
        e1, e2, f2, f3, bs_profile, fiber=(gval[:, None], fibers[:, 0], fibers[:, 1])
    )
    return _pair_report(config, samples, fibers, {"coassociative": res}, criteria)


def _run_spin7(config: SuiteConfig) -> VerificationReport:
    chart = get_chart(config.chart)
    bs_profile = parse_profile_spec(config.profile, config.suite)
    family = _section_family_for(config)
    fibers = _parse_fiber_list(config.fiber, 2, default=[(0.0, 0.0), (1.0, -2.0), (0.8, 0.5)])
    samples, frames = _sample_frames(chart, config)
    sframe = spin7.spinor_frames()
    sec = g2.section_data(family, frames)
    c3, c4 = spin7.dbar_vminus_residual(frames.gamma, sframe, sec)
    criteria = {"trace_a": trace_residual(frames.second_fund), "dbar_vminus": np.hypot(c3, c4)}
    e1, e2, f1, f2 = np.moveaxis(spin7.tangent_basis_v_plus(frames, sframe, sec, fibers), -2, 0)
    r = np.sqrt(np.sum(fibers * fibers, axis=-1) + sec.a[:, None] ** 2 + sec.b[:, None] ** 2)
    residuals = {
        "cayley": spin7.cayley_residual(e1, e2, f1, f2, bs_profile, r),
        "calibration_gap": spin7.calibration_gap(e1, e2, f1, f2, bs_profile, r),
    }
    return _pair_report(config, samples, fibers, residuals, criteria)


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
    # an overflow or invalid operation raises at its first occurrence instead
    # of warning and carrying inf/nan into a residual that may still read 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            report = _SUITES[config.suite](config)
    except FloatingPointError as exc:
        raise TwistcalError(
            f"suite {config.suite!r}: {exc}; an input is too large for double precision"
        ) from None
    _check_finite(report)
    return report


def _check_finite(report: VerificationReport):
    """One isfinite over the residual and criterion columns; a failure names
    the first row with a non-finite value."""
    items = [*report.residuals.items(), *report.criteria.items()]
    finite = np.isfinite(np.array([col for _, col in items], dtype=float))
    if finite.all():
        return
    i = int(np.argmin(finite.all(axis=0)))
    key, value = next((k, col[i].item()) for k, col in items if not np.isfinite(col[i]))

    def row(columns):
        return {k: col[i].item() for k, col in columns.items()}

    raise TwistcalError(
        f"numerical breakdown at u={report.u[i].tolist()}, t={report.t[i].tolist()}: "
        f"{key}={value}; residuals={row(report.residuals)}, criteria={row(report.criteria)}"
    )
