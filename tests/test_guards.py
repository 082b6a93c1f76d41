"""The argument checks that the rest of the suite never reaches: each raises its
error type with its message, or exits with its code and message."""

import re

import numpy as np
import pytest

from conftest import great_circle_chart, latitude_chart, rng_for
from twistcal import spin7
from twistcal.cli import main
from twistcal.errors import ConfigError, DimensionMismatchError, DomainError
from twistcal.examples import compose_antipodal
from twistcal.octonion import standard_pinor_context
from twistcal.report import SuiteConfig, emit
from twistcal.stenzel import twisted_conormal_point
from twistcal.submanifold import ImmersionChart, adapted_frame, classify, get_chart, rotate_frame_field
from twistcal.suites import run_suite


def _equatorial_with(name, xmap=None, frame_field=None):
    """The equatorial chart with its map or frame field replaced."""
    eq = get_chart("equatorial")
    return ImmersionChart(name=name, q=2, n=4, xmap=xmap or eq.xmap, sample_box=eq.sample_box,
                          frame_field=frame_field or eq.frame_field)


def _off_sphere():
    return adapted_frame(_equatorial_with("off-sphere", xmap=lambda u: 2.0 * get_chart("equatorial").xmap(u)),
                         np.array([0.3, 0.2]))


def _short_frame():
    chart = _equatorial_with("short-frame", frame_field=lambda u: get_chart("equatorial").frame_field(u)[..., :3, :])
    return adapted_frame(chart, np.array([0.3, 0.2]))


def _stenzel_fibre_count():
    chart = get_chart("veronese")
    return twisted_conormal_point(chart, np.zeros(2), chart.sample(rng_for(0), 1)[0], np.zeros(3))


def _emit_xml():
    return emit(run_suite(SuiteConfig("g2-associative", "veronese", "zero", samples=1, seed=0)), "xml")


# name: (call, the error type or the (exit code, stream), the message as a regex)
CASES = {
    "chart point shape": (lambda: adapted_frame(get_chart("veronese"), np.zeros(3)), DomainError,
                          r"chart points of 'veronese' must have shape \(q,\) or \(P, q\), q=2"),
    "chart off the sphere": (_off_sphere, DomainError,
                             r"chart 'off-sphere' does not map into the unit sphere at u=\[0\.3, 0\.2\]"),
    "frame field shape": (_short_frame, DomainError, r"frame field must return an \(n, n\+1\) array per point"),
    "rotate a curve's frame": (lambda: rotate_frame_field(great_circle_chart(), 0.1, 0.2), DomainError,
                               r"frame rotation needs a surface chart in S\^4"),
    "antipodal curve": (lambda: compose_antipodal(great_circle_chart()), DomainError,
                        r"antipodal composition needs a surface chart in S\^4"),
    "stenzel fibre count": (_stenzel_fibre_count, DomainError, r"fiber coordinate count must be n - q"),
    "spin7 bundle sign": (lambda: spin7.lemma_residual(np.zeros((2, 4, 4)), np.zeros(8), 0), DomainError,
                          r"bundle_sign must be \+1 or -1"),
    "pinor covector": (lambda: standard_pinor_context().gamma_covector(np.zeros(3)), DimensionMismatchError,
                       r"covector needs 4 components"),
    "emit format": (_emit_xml, ConfigError, r"unknown format 'xml'"),
    "missing config file": (lambda: main(["verify", "g2-associative", "--config", "no-such.cfg"]), (2, "err"),
                            r"\Aconfig error: cannot read config file: .*no-such\.cfg"),
    "bare twistcal": (lambda: main([]), (2, "out"), r"\Ausage: twistcal"),
}


@pytest.mark.parametrize("case", CASES)
def test_check_raises_or_exits_with_its_message(case, capsys, tmp_path, monkeypatch):
    call, expected, message = CASES[case]
    monkeypatch.chdir(tmp_path)
    if isinstance(expected, tuple):
        code, stream = expected
        assert call() == code
        assert re.search(message, getattr(capsys.readouterr(), stream))
    else:
        with pytest.raises(expected, match=message):
            call()


def test_non_minimal_latitude_sphere_is_superminimal_for_neither_sign():
    chart = latitude_chart()
    assert classify(adapted_frame(chart, chart.sample(rng_for(3), 1)[0])).superminimal == "none"
