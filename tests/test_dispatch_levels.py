"""One job per suite and one golden table, run through ``cli.main`` in a fresh
interpreter per numpy SIMD dispatch level.

A report's bytes are fixed for a given config, seed, numpy build and dispatch
level (the SIMD code path numpy picks for this CPU): numpy's dispatched loops
may round differently from its baseline loops.  Across levels the exit codes,
statuses and verdicts must agree, and every value within DISPATCH_RTOL
relative, or DISPATCH_ATOL absolute for values at round-off.
"""

import json
import os
import subprocess
import sys

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

# measured: at most 1.2e-14 relative between the X86_V2 baseline and AVX-512, over
# 6,000 point values of a 200-sample Spin(7) and a 200-sample Stenzel job
DISPATCH_RTOL = 1e-12
# values at round-off hold no relative bound: PASS residuals near 1e-16, and the
# Stenzel closed-form gap, a difference of values near 4e2, at 1.7e-13 and 2.3e-13
DISPATCH_ATOL = 1e-12

JOBS = (
    ["verify", "stenzel-lagrangian", "--chart", "veronese", "--mu", "0.3e2", "--samples", "20"],
    ["verify", "spin7-cayley", "--chart", "equatorial", "--section", "sinphi:C=1,D=0", "--profile", "linear",
     "--samples", "10"],
    ["verify", "g2-associative", "--chart", "veronese", "--section", "sinphi:C=1,D=0", "--profile", "u=2,v=0.5",
     "--samples", "10"],
    ["verify", "g2-coassociative", "--chart", "veronese", "--section", "coord:axis=1", "--profile", "linear",
     "--samples", "10"],
    ["table", "veronese", "--samples", "50"],
)

# Each job's exit code and values: a verify job's parsed JSON report, and a table's
# per-sample worst residuals, which cli prints only as their maximum to four digits.
# The last line lists the modules of interest that the runs loaded.
_SCRIPT = """
import json, sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from twistcal import examples
from twistcal.cli import main

golden = examples.golden_residuals
worst = []

def recorded(name, samples):
    res = golden(name, samples)
    worst.extend(res["max"].tolist())
    return res

examples.golden_residuals = recorded
results = []
for job in json.loads(sys.argv[1]):
    worst.clear()
    if job[0] == "verify":
        code = main([*job, "--seed", "3", "--out", "r.json"])
        results.append([code, json.load(open("r.json"))])
    else:
        code = main(job)
        results.append([code, list(worst)])
print(json.dumps({"results": results, "targets": [t for t in __cpu_dispatch__ if __cpu_features__[t]],
                  "modules": [m for m in ("twistcal.exterior",) if m in sys.modules]}))
"""

_TARGETS = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]


def _run(tmp_path, disabled=()):
    # each run writes its reports as r.json in its own directory, so both echo one out path
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)}
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(JOBS)],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def native(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("native"))


def test_verify_and_table_never_load_the_exterior_algebra(native):
    # the bitmask exterior algebra serves the test oracles only
    assert native["modules"] == []


def _assert_close(native, baseline, where="report"):
    if isinstance(native, dict):
        assert sorted(native) == sorted(baseline), where
        for key in native:
            _assert_close(native[key], baseline[key], f"{where}.{key}")
    elif isinstance(native, list):
        assert len(native) == len(baseline), where
        for i, (a, b) in enumerate(zip(native, baseline)):
            _assert_close(a, b, f"{where}[{i}]")
    elif isinstance(native, float):
        assert abs(native - baseline) <= max(DISPATCH_RTOL * abs(native), DISPATCH_ATOL), (where, native, baseline)
    else:  # exit codes, statuses, verdicts and the echoed config
        assert native == baseline, where


@pytest.mark.skipif(not _TARGETS, reason="numpy runs at its baseline here: no dispatch target above it to switch off")
def test_dispatch_levels_agree_within_the_bound(native, tmp_path):
    baseline = _run(tmp_path, _TARGETS)
    assert native["targets"] == _TARGETS and baseline["targets"] == []
    _assert_close(native["results"], baseline["results"])
