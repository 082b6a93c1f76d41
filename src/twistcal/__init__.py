"""Numerical verification of twisted calibrated subbundle constructions.

The package namespace holds the verifier API only: charts and adapted
frames, suite configuration, the runner and the report.  The geometry lives
in the submodules:

* :mod:`twistcal.octonion`    - quaternion and octonion arrays, the pinor model
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
* :mod:`twistcal.exterior`    - a bitmask exterior algebra, kept for the test
  oracles; no other module of the package imports it
"""

# set before the submodules import, so that ``report`` can read it
__version__ = "0.1.0"

from . import examples as _examples  # registers the standard charts
from .report import SuiteConfig, VerificationReport, emit, parse_report
from .submanifold import ImmersionChart, adapted_frame, classify, get_chart
from .suites import run_suite, suite_names

__all__ = [
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
