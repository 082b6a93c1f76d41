"""Numerical verification of twisted calibrated subbundle constructions.

Core pieces:

* :mod:`twistcal.exterior`    - Euclidean exterior algebra and Hodge star
* :mod:`twistcal.octonion`    - quaternions, octonions, the pinor model
* :mod:`twistcal.submanifold` - frames, connection coefficients, shape
  operators and classification of immersed spheres
* :mod:`twistcal.stenzel`     - the cotangent-bundle Kaehler model and the
  Lagrangian test for twisted conormal bundles
* :mod:`twistcal.g2`          - (co)associative tests in the anti-self-dual
  2-form bundle over S^4
* :mod:`twistcal.spin7`       - Cayley tests in the negative spinor bundle
* :mod:`twistcal.examples`    - the equatorial and Veronese geometries,
  holomorphic section families, golden coefficient tables
* :mod:`twistcal.suites`      - named verification suites for the CLI
"""

from . import examples as _examples  # registers the standard charts
from .exterior import InnerSpace, Multivector, asd_sd_split, form_inner, hodge, interior, wedge
from .octonion import Octonion, PinorContext, associator, cross2, cross3, gamma, oct_mul, pinor_split
from .report import SuiteConfig, VerificationReport, emit, parse_report
from .submanifold import ImmersionChart, adapted_frame, classify, get_chart
from .suites import run_suite, suite_names

__version__ = "0.1.0"

__all__ = [
    "InnerSpace",
    "Multivector",
    "wedge",
    "interior",
    "hodge",
    "form_inner",
    "asd_sd_split",
    "Octonion",
    "PinorContext",
    "oct_mul",
    "associator",
    "cross2",
    "cross3",
    "gamma",
    "pinor_split",
    "ImmersionChart",
    "adapted_frame",
    "classify",
    "get_chart",
    "SuiteConfig",
    "VerificationReport",
    "emit",
    "parse_report",
    "run_suite",
    "suite_names",
    "__version__",
]
