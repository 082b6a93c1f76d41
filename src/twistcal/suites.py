"""Named verification suites orchestrating the geometric modules.

Each suite samples points of a twisted bundle over a registered chart,
computes the calibration residuals and the theorem-side criteria at every
sample, and packages the outcome as a :class:`VerificationReport`.  A point
is PASS when both sides are below ``tol_verdict``, FAIL when some residual
and some criterion are both at or above it, and MIXED when one side is below
it and the other not.  A MIXED point contradicts the equivalence under test
or shows that a side's numerical error has reached the tolerance.

Each suite is declared once, as a :class:`Suite` record in ``SUITES``; other
code reads its fields by name and compares no suite name.  The section and eta
grammar lives in ``examples``; this module reads only the mu spec of a twist.

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
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from . import g2, spin7, stenzel
from .errors import ConfigError, TwistcalError
from .examples import eta_family, section_family
from .report import SuiteConfig, VerificationReport, check_keys, check_samples, _parse_number, _parse_params
from .submanifold import adapted_frame, get_chart, superminimal_residual, trace_residual
from .g2 import UNIT_PROFILE
from .numerics import Profile, in_blocks, strict_arithmetic
from .stenzel import DEFAULT_PROFILE, constant_mu

__all__ = ["SUITES", "Suite", "run_suite", "suite_names", "parse_profile_spec"]


_MU_PATTERN = re.compile(r"^([0-9eE.+-]*?)e(\d+)$")


def parse_mu_spec(spec: str, q: int) -> np.ndarray:
    """The (q,) coefficients of mu on a base of dimension q: "<coeff>e<index>" for coeff * e^index;
    "zero", "" or any number equal to zero ("0", "0.0", "-0") for the zero form.
    The pattern is tried first, because "0.3e1" is also a float literal."""
    spec = spec or "zero"
    match = _MU_PATTERN.match(spec)
    if not match:
        try:
            value = float(spec)
        except ValueError:
            value = math.nan
        if spec == "zero" or value == 0.0:
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


@dataclass(frozen=True)
class ProfileGrammar:
    """A suite's ``--profile`` spellings: presets by name, two constant keys, the noun of its positivity error."""
    presets: dict
    keys: tuple
    noun: str


_STENZEL_PROFILES = ProfileGrammar({"unit": DEFAULT_PROFILE}, ("vp", "vpp"), "derivatives")
_LINEAR = Profile(lambda r: 1.0 + r, lambda r: 1.0 + 2.0 * r)
_WEIGHT_PROFILES = ProfileGrammar({"unit": UNIT_PROFILE, "linear": _LINEAR}, ("u", "v"), "weights u, v")


def parse_profile_spec(spec: str, suite: str):
    """The metric profile that ``suite`` reads, from a preset or constants for its two keys (an absent
    one reads 1); "" is "unit".  A key or preset that the suite does not read is rejected, not ignored."""
    grammar = SUITES[suite].profile
    spec = spec or "unit"
    if spec in grammar.presets:
        return grammar.presets[spec]
    if any(spec in other.profile.presets for other in SUITES.values()):
        raise ConfigError(f"profile {spec!r} does not apply to {suite}; "
                          f"use {' or '.join(grammar.presets)} or {'=..,'.join(grammar.keys)}=..")
    params = _parse_params(spec)
    check_keys(f"{suite} profile", params, grammar.keys)
    values = [params.get(key, 1.0) for key in grammar.keys]
    if any(x <= 0 for x in values):
        raise ConfigError(f"profile {grammar.noun} must be positive")
    return Profile(*values)


def _parse_fiber_list(spec: str, width: int, default):
    """Semicolon-separated fibre tuples, e.g. "-2;0;1.5" or "1,0;0,1", as an
    (F, width) array; "" is ``default``."""
    if not spec:
        return np.array(default, dtype=float)
    out = []
    for chunk in spec.split(";"):
        vals = [_parse_number(x, "fiber entry") for x in chunk.split(",")]
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
    plane = g2.tangent_basis_e_sigma(frames, sec, t1)[..., :2, :]
    res = g2.lifted_associative_residual(plane, bs_profile, fiber=(t1, sec.a[:, None], sec.b[:, None]))
    return {"associative": res}, criteria


def _g2_coassociative(frames, bs_profile, eta, fibers):
    gval = eta.value(frames.u)
    dgamma = frames.scalar_derivatives(eta.value)
    criteria = {
        "neg_superminimal": superminimal_residual(frames.second_fund, -1.0),
        "parallel_e": g2.parallel_e_residual(dgamma),
    }
    plane = g2.tangent_basis_eta_f(frames, gval, dgamma, fibers)[..., :2, :]
    res = g2.lifted_coassociative_residual(plane, bs_profile, fiber=(gval[:, None], fibers[:, 0], fibers[:, 1]))
    return {"coassociative": res}, criteria


def _spin7(frames, bs_profile, family, fibers):
    sframe = spin7.spinor_frames()
    sec = g2.section_data(family, frames)
    c3, c4 = spin7.dbar_vminus_residual(frames.gamma, sframe, sec)
    criteria = {"trace_a": trace_residual(frames.second_fund), "dbar_vminus": np.hypot(c3, c4)}
    plane = spin7.tangent_basis_v_plus(frames, sframe, sec, fibers)[..., :2, :]
    r = g2.fibre_radius(fibers[:, 0], fibers[:, 1], sec.a[:, None], sec.b[:, None])
    cayley, gap = spin7.lifted_cayley_residuals(plane, bs_profile, r)
    return {"cayley": cayley, "calibration_gap": gap}, criteria


@dataclass(frozen=True)
class Suite:
    """What sets a registered suite apart."""
    runner: Callable  # (config, chart, profile, twist, fibers) -> VerificationReport
    parse_twist: Callable  # (spec, q) -> the twist on a base of dimension q
    takes_mu: bool  # whether mu spells its twist
    profile: ProfileGrammar
    fiber_width: int = 0  # entries of a fibre tuple; 0: it samples its fibres and takes no --fiber
    default_fibers: tuple = ()  # the tuples it runs without a --fiber


SUITES = {
    "stenzel-lagrangian": Suite(_run_stenzel, parse_mu_spec, True, _STENZEL_PROFILES),
    "g2-associative": Suite(partial(_run_pairs, columns=_g2_associative), section_family, False,
                            _WEIGHT_PROFILES, 1, ((-2.0,), (0.0,), (1.5,))),
    "g2-coassociative": Suite(partial(_run_pairs, columns=_g2_coassociative), eta_family, False,
                              _WEIGHT_PROFILES, 2, ((0.7, -1.2), (1.5, 0.4), (0.3, 0.9))),
    "spin7-cayley": Suite(partial(_run_pairs, columns=_spin7), section_family, False,
                          _WEIGHT_PROFILES, 2, ((0.0, 0.0), (1.0, -2.0), (0.8, 0.5))),
}


def suite_names() -> list[str]:
    return sorted(SUITES)


def _parse_job(config: SuiteConfig):
    """(config, chart, profile, twist, fibers) of a job, parsed in the order of the module docstring;
    ``fibers`` is None for a suite that samples its own.  Each spec is read stripped, so a blank
    one is the empty one, the suite's default; ``config`` echoes it as "", any other as given."""
    config.validate()
    suite = SUITES.get(config.suite)
    if suite is None:
        raise ConfigError(f"unknown suite {config.suite!r}; have {suite_names()}")
    try:
        chart = get_chart(config.chart)
    except TwistcalError as exc:
        raise ConfigError(str(exc)) from None
    specs = {key: (getattr(config, key) or "").strip() for key in ("section", "profile", "fiber")}
    config = replace(config, **{key: "" for key, spec in specs.items() if not spec})
    if specs["fiber"] and not suite.fiber_width:
        raise ConfigError(f"fiber does not apply to the {config.suite} suite, "
                          "which samples its fibre coordinates")
    profile = parse_profile_spec(specs["profile"], config.suite)
    twist = suite.parse_twist(specs["section"], chart.q)
    fibers = _parse_fiber_list(specs["fiber"], suite.fiber_width, suite.default_fibers) if suite.fiber_width else None
    check_samples(config.samples, 1 if fibers is None else len(fibers))
    return config, chart, profile, twist, fibers


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Run a registered suite; deterministic for a fixed config and seed."""
    job, runner = _parse_job(config), SUITES[config.suite].runner
    with strict_arithmetic(f"suite {config.suite!r}") as log:
        report = runner(*job)
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
