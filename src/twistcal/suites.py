"""Named verification suites orchestrating the geometric modules.

Each suite samples points of a twisted bundle over a registered chart,
computes the calibration residuals and the theorem-side criteria at every
sample, and packages the outcome as a :class:`VerificationReport`.  A point
is PASS when both sides are below ``tol_verdict``, FAIL when some residual
and some criterion are both at or above it, and MIXED when one side is below
it and the other not.  A MIXED point contradicts the equivalence under test
or shows that a side's numerical error has reached the tolerance.

``run_suite`` parses a job once, before any arithmetic, and reports its first
bad input in this order: the config's own values, the suite, the chart, a
``--fiber`` that does not apply, the profile, the twist, the fibre tuples and
the row cap.  The runners only compute.  Each draws all its samples (and the
Stenzel suite its fibres) from one generator, then evaluates frames, tangent
bases and residuals over blocks of samples (``numerics.in_blocks``): a row
reads only its own sample and fibre, so the joined columns are those of one
pass over the whole job.
"""

from __future__ import annotations

import math
import re
from functools import partial

import numpy as np

from . import g2, spin7, stenzel
from .errors import ConfigError, TwistcalError
from .examples import make_eta_family, make_section_family
from .report import SuiteConfig, VerificationReport, check_keys, check_samples
from .submanifold import ImmersionChart, adapted_frame, get_chart, superminimal_residual, trace_residual
from .g2 import UNIT_PROFILE
from .numerics import Profile, in_blocks, strict_arithmetic
from .stenzel import DEFAULT_PROFILE, constant_mu

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
    """"key=value,key=value" with finite numeric values; a key may appear once."""
    params = {}
    if not blob:
        return params
    for item in blob.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"malformed parameter {item!r} (expected key=value)")
        key, val = item.split("=", 1)
        key = key.strip()
        if key in params:
            raise ConfigError(f"parameter {key!r} is given more than once")
        params[key] = _parse_number(val, f"parameter {key!r}")
    return params


def parse_section_spec(spec: str):
    """The kind and the parameters of "kind" or "kind:key=value,key=value"."""
    spec = (spec or "zero").strip()
    kind, _, blob = spec.partition(":")
    return kind, _parse_params(blob)


_MU_PATTERN = re.compile(r"^([0-9eE.+-]*?)e(\d+)$")


def parse_mu_spec(config: SuiteConfig, chart: ImmersionChart) -> np.ndarray:
    """The (q,) coefficients of mu on ``chart`` from ``config.section``: "<coeff>e<index>" for
    coeff * e^index; "zero" or any number equal to zero ("0", "0.0", "-0") for the zero form.
    The pattern is tried first, because "0.3e1" is also a float literal."""
    spec, q = (config.section or "zero").strip(), chart.q
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
    index = float(match.group(2))  # int() refuses a string of more than 4300 digits
    if not 1 <= index <= q:
        raise ConfigError(f"mu index {match.group(2).lstrip('0') or '0'} out of range 1..{q}")
    coeffs = np.zeros(q)
    coeffs[int(index) - 1] = coeff
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
        return Profile(lambda r: 1.0 + r, lambda r: 1.0 + 2.0 * r)
    keys, what = (("vp", "vpp"), "derivatives") if stenzel_suite else (("u", "v"), "weights u, v")
    params = _parse_params(spec)
    check_keys(f"{suite} profile", params, keys)
    values = [params.get(key, 1.0) for key in keys]
    if any(x <= 0 for x in values):
        raise ConfigError(f"profile {what} must be positive")
    return Profile(*values)


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
        # the Plücker coordinates multiply the fibre-sized vertical parts in
        # pairs, so a tuple whose squares overflow cannot be evaluated
        if math.isinf(sum(x * x for x in vals)):
            raise ConfigError(f"fiber tuple {chunk!r} is too large: the sum of its squares "
                              "overflows double precision")
        out.append(vals)
    return np.array(out)


FIBER_RADII = (0.3, 2.0)  # range of the fibre radii that the Stenzel suite samples


def _sample_fibers(rng, count, width):
    mags = rng.uniform(*FIBER_RADII, size=count)
    dirs = rng.standard_normal(size=(count, width))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return mags[:, None] * dirs


# The largest |index| of an equatorial-hol or veronese-strip key: the dense
# equatorial-hol coefficient list grows with it, and past it neither family is
# finite on its sample box (z^i (|z|^2 + 1) overflows double precision at the
# corner |z| = 2.5 sqrt(2) from i = 560 on, tan(phi/2)^k at phi = pi - 0.35 from |k| = 410).
MAX_COEFF_INDEX = 559
_COEFF_KEYS = {"equatorial-hol": (r"c(\d+)(re|im)", " (expected c<i>re or c<i>im)"),
               "veronese-strip": (r"k(-?\d+)(re|im)", "")}


def _section_family_for(config: SuiteConfig, chart: ImmersionChart):
    """The section family of a --section spec, alike on every chart; each equatorial-hol
    or veronese-strip key adds its value to the real or imaginary part of one of the ``coeffs``."""
    kind, params = parse_section_spec(config.section)
    if kind not in _COEFF_KEYS:
        return make_section_family(kind, **params)
    pattern, expected = _COEFF_KEYS[kind]
    parts: dict = {}
    for key, val in params.items():
        m = re.fullmatch(pattern, key)
        if not m:
            raise ConfigError(f"unknown {kind} key {key!r}{expected}")
        if abs(float(m.group(1))) > MAX_COEFF_INDEX:
            raise ConfigError(f"{kind} key {key!r}: |index| exceeds the cap {MAX_COEFF_INDEX}")
        parts.setdefault(int(m.group(1)), [0.0, 0.0])[m.group(2) == "im"] += val
    coeffs = {k: complex(*part) for k, part in parts.items()}
    if kind == "veronese-strip":
        return make_section_family(kind, coeffs=coeffs)
    degree = max([k for k, c in coeffs.items() if c != 0], default=0)
    return make_section_family(kind, coeffs=[coeffs.get(i, 0.0) for i in range(degree + 1)])


def _eta_family_for(config: SuiteConfig, chart: ImmersionChart):
    kind, params = parse_section_spec(config.section)
    eta = make_eta_family(kind, **params)
    axis = params.get("axis", 1)
    if kind == "coord" and axis > chart.q:
        raise ConfigError(f"coord axis must be an integer in 1..{chart.q}, got {axis:g}")
    return eta


# -- suite runners -------------------------------------------------------------


def _run_stenzel(config: SuiteConfig, chart, st_profile, mu, _) -> VerificationReport:
    """The Lagrangian residual and the twist criterion at every sample, with
    two cross-checks.  ``diagnostic.closed_form_gap.max`` holds the mixed
    block omega(E_i, F_j), a contraction of the tangents with the Stenzel
    Kaehler form, against the proof's final formula in a, t and y, which
    reads no tangent: the two are computed independently.  At mu = 0 both
    sides vanish identically and the gap reads exactly 0, so it carries
    information only for a nonzero twist.
    ``diagnostic.bracket_factor.min`` is the least bracketed profile factor,
    which the proof needs positive.  It samples its fibres, one per sample."""
    rng = np.random.default_rng(config.seed)
    samples = chart.sample(rng, config.samples)
    fibers = _sample_fibers(rng, config.samples, chart.n - chart.q)

    def columns(rows):
        omega_max, mu_norm, bracket, pts, omega = stenzel.lagrangian_columns(
            chart, mu, samples[rows], fibers[rows], st_profile
        )
        # cross-checks at every sample: the mixed omega block against its
        # proof-side scalars, and positivity of the bracketed profile factor
        mixed = omega[..., : chart.q, chart.q :]
        gap = np.max(np.abs(mixed - stenzel.mixed_pairing_closed_form(pts, bracket)), axis=(-2, -1))
        return {"omega_max": omega_max}, {"mu_norm": mu_norm}, {"gap": gap, "bracket": bracket}

    residuals, criteria, checks = in_blocks(columns, config.samples)
    report = VerificationReport.build(config, samples, fibers, residuals, criteria)
    report.aggregates["diagnostic.closed_form_gap.max"] = float(np.max(checks["gap"]))
    report.aggregates["diagnostic.bracket_factor.min"] = float(np.min(checks["bracket"]))
    return report


def _run_pairs(config: SuiteConfig, chart, profile, twist, fibers, columns) -> VerificationReport:
    """The report with one row per (sample, fibre) pair, samples outermost;
    ``columns(frames, profile, twist, fibers)`` gives the (P, F) residual and
    (P,) criterion columns of the adapted frames of a block of samples."""
    samples = chart.sample(np.random.default_rng(config.seed), config.samples)
    residuals, criteria = in_blocks(
        lambda rows: columns(adapted_frame(chart, samples[rows]), profile, twist, fibers),
        config.samples, len(fibers))
    return VerificationReport.build(
        config,
        np.repeat(samples, len(fibers), axis=0),
        np.tile(fibers, (len(samples), 1)),
        {k: np.reshape(v, -1) for k, v in residuals.items()},
        {k: np.repeat(v, len(fibers)) for k, v in criteria.items()},
    )


def _g2_associative(frames, bs_profile, family, fibers):
    sec = g2.section_data(family, frames)
    r2, r3 = g2.dbar_f_residual(frames.gamma, sec)
    criteria = {"trace_a": trace_residual(frames.second_fund), "dbar_f": np.hypot(r2, r3)}
    t1 = fibers[:, 0]
    e1, e2 = np.moveaxis(g2.tangent_basis_e_sigma(frames, sec, t1)[..., :2, :], -2, 0)
    res = g2.lifted_associative_residual(e1, e2, bs_profile, fiber=(t1, sec.a[:, None], sec.b[:, None]))
    return {"associative": res}, criteria


def _g2_coassociative(frames, bs_profile, eta, fibers):
    gval = eta.value(frames.u)
    dgamma = frames.scalar_derivatives(eta.value)
    criteria = {
        "neg_superminimal": superminimal_residual(frames.second_fund, -1.0),
        "parallel_e": g2.parallel_e_residual(dgamma),
    }
    e1, e2 = np.moveaxis(g2.tangent_basis_eta_f(frames, gval, dgamma, fibers)[..., :2, :], -2, 0)
    res = g2.lifted_coassociative_residual(
        e1, e2, bs_profile, fiber=(gval[:, None], fibers[:, 0], fibers[:, 1])
    )
    return {"coassociative": res}, criteria


def _spin7(frames, bs_profile, family, fibers):
    sframe = spin7.spinor_frames()
    sec = g2.section_data(family, frames)
    c3, c4 = spin7.dbar_vminus_residual(frames.gamma, sframe, sec)
    criteria = {"trace_a": trace_residual(frames.second_fund), "dbar_vminus": np.hypot(c3, c4)}
    e1, e2 = np.moveaxis(spin7.tangent_basis_v_plus(frames, sframe, sec, fibers)[..., :2, :], -2, 0)
    r = g2.fibre_radius(fibers[:, 0], fibers[:, 1], sec.a[:, None], sec.b[:, None])
    cayley, gap = spin7.lifted_cayley_residuals(e1, e2, bs_profile, r)
    return {"cayley": cayley, "calibration_gap": gap}, criteria


# Each suite's runner, twist parser (taking config and chart), fibre-tuple width and
# the tuples it runs without a --fiber; width 0: it samples its fibres, takes no --fiber.
_SUITES = {
    "stenzel-lagrangian": (_run_stenzel, parse_mu_spec, 0, ()),
    "g2-associative": (partial(_run_pairs, columns=_g2_associative), _section_family_for, 1, (-2.0, 0.0, 1.5)),
    "g2-coassociative": (partial(_run_pairs, columns=_g2_coassociative), _eta_family_for, 2,
                         ((0.7, -1.2), (1.5, 0.4), (0.3, 0.9))),
    "spin7-cayley": (partial(_run_pairs, columns=_spin7), _section_family_for, 2,
                     ((0.0, 0.0), (1.0, -2.0), (0.8, 0.5))),
}


def suite_names() -> list[str]:
    return sorted(_SUITES)


def _parse_job(config: SuiteConfig):
    """(chart, profile, twist, fibers) of a job, parsed in the order of the
    module docstring; ``fibers`` is None for a suite that samples its own."""
    config.validate()
    if config.suite not in _SUITES:
        raise ConfigError(f"unknown suite {config.suite!r}; have {suite_names()}")
    _, parse_twist, width, default = _SUITES[config.suite]
    try:
        chart = get_chart(config.chart)
    except TwistcalError as exc:
        raise ConfigError(str(exc)) from None
    if config.fiber and not width:
        raise ConfigError(f"fiber does not apply to the {config.suite} suite, "
                          "which samples its fibre coordinates")
    profile = parse_profile_spec(config.profile, config.suite)
    twist = parse_twist(config, chart)
    fibers = _parse_fiber_list(config.fiber, width, default) if width else None
    check_samples(config.samples, len(fibers) if width else 1)
    return chart, profile, twist, fibers


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Run a registered suite; deterministic for a fixed config and seed."""
    inputs, runner = _parse_job(config), _SUITES[config.suite][0]
    with strict_arithmetic(f"suite {config.suite!r}") as log:
        report = runner(config, *inputs)
        # a row reads only its own sample and fibre, so the first non-finite row is the
        # first broken one; an overflow that no value reads leaves none
        found = log.first and _first_nonfinite(report)
        if found:
            i, key, value = found
            log.where = (f"; the first row it makes non-finite is u={report.u[i].tolist()}, "
                         f"t={report.t[i].tolist()} ({key}={value})")
    _check_finite(report)
    return report


def _first_nonfinite(report: VerificationReport):
    """(row, key, value) of the first non-finite residual or criterion, or None."""
    items = [*report.residuals.items(), *report.criteria.items()]
    finite = np.isfinite(np.array([col for _, col in items], dtype=float))
    if finite.all():
        return None
    i = int(np.argmin(finite.all(axis=0)))
    key, value = next((k, col[i].item()) for k, col in items if not np.isfinite(col[i]))
    return i, key, value


def _check_finite(report: VerificationReport):
    """One isfinite over the residual and criterion columns; a failure names
    the first row with a non-finite value."""
    found = _first_nonfinite(report)
    if found is None:
        return
    i, key, value = found

    def row(columns):
        return {k: col[i].item() for k, col in columns.items()}

    raise TwistcalError(
        f"numerical breakdown at u={report.u[i].tolist()}, t={report.t[i].tolist()}: "
        f"{key}={value}; residuals={row(report.residuals)}, criteria={row(report.criteria)}"
    )
