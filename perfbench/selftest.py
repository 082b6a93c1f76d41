"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size (2 samples per job, one set-up spawn, one
round) untraced and traced, and asserts that every metric BENCHMARK.json
names is printed with its unit and that all outputs pass.  Then it gives
one job a deliberately wrong expected verdict and asserts that the run
reports the failure, so the correctness check can fail.  Exits 1 on the
first broken assertion.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
from contextlib import redirect_stdout

import run
from workloads import WORKLOADS

TINY_SAMPLES = 2


def tiny(job):
    argv = list(job.argv)
    argv[argv.index("--samples") + 1] = str(TINY_SAMPLES)
    return dataclasses.replace(job, argv=tuple(argv), samples=TINY_SAMPLES)


def bench(workload, trace):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                         "--trace", str(trace)])
    lines = buf.getvalue().strip().splitlines()
    return code, lines, json.loads(lines[-1])


def check(cond, message):
    if not cond:
        raise AssertionError(message)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.SETUP_SPAWNS = 1
    run.WORKLOADS = {name: tuple(tiny(j) for j in jobs) for name, jobs in WORKLOADS.items()}
    check(sorted(run.WORKLOADS) == sorted(w["name"] for w in spec["workloads"]),
          "workloads differ from BENCHMARK.json")
    try:
        for workload in sorted(run.WORKLOADS):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                code, _, result = bench(workload, trace)
                check(code == 0, f"{workload} trace {trace}: exit {code}")
                check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                      f"{workload} trace {trace}: outputs failed: {result}")
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == want, f"{workload} trace {trace}: metrics {got} != {want}")
                print(f"ok  {workload} trace {trace}: {len(got)} metrics with units, "
                      f"{result['attempted']} jobs correct")

        workload = "forms-unit"
        jobs = list(run.WORKLOADS[workload])
        jobs[0] = dataclasses.replace(jobs[0], expected="FAIL" if jobs[0].expected == "PASS" else "PASS")
        run.WORKLOADS[workload] = tuple(jobs)
        code, lines, result = bench(workload, 0)
        frac = next(float(ln.split()[1]) for ln in lines if ln.startswith("failed_frac"))
        check(code == 0 and not result["correct"] and result["failed"] > 0 and frac > 0,
              f"a wrong expected verdict was not caught: {result}")
        print(f"ok  wrong expected verdict caught: failed_frac {frac:.3g} "
              f"({result['failed']}/{result['attempted']} jobs)")
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
