"""Check that every benchmark job keeps its expected verdict over many seeds.

    python3 perfbench/robustness.py

Each job of every workload runs once per seed with the --seed the benchmark
would give it at --seed 0 in rounds 0..29, and its output goes through the benchmark's own check
(verdict, exit code, every point status, point count).  Exits 1 if any job
misses its verdict, 2 if the program cannot be imported.  The two configs in
``workloads.EXCLUDED`` are not benchmark jobs; see README.md.
"""

from __future__ import annotations

import sys

import run
from workloads import EXCLUDED, WORKLOADS, job_seed

SEEDS = 30


def main() -> int:
    try:
        cli = run.load_program()
    except run.BenchError as exc:
        print(f"robustness: {exc}", file=sys.stderr)
        return 2
    run.OUT.mkdir(exist_ok=True)
    out_path = run.OUT / "robustness.json"
    bad = 0
    for name in sorted(WORKLOADS):
        for j, job in enumerate(WORKLOADS[name]):
            misses = []
            for r in range(SEEDS):
                seed = job_seed(0, r, j)
                outcome = run.run_job(cli, job, seed, out_path)
                if outcome.problem:
                    misses.append(f"--seed {seed}: {outcome.problem}")
            bad += bool(misses)
            status = "ok" if not misses else f"{len(misses)} MISSED"
            print(f"{name:18s} {job.expected:4s} {SEEDS:3d} seeds {status:10s} {job.label}")
            print(f"{'':18s} reason: {job.reason}")
            for miss in misses[:5]:
                print(f"{'':18s} {miss}")
    out_path.unlink(missing_ok=True)
    for label, why in EXCLUDED:
        print(f"excluded: {label}: {why}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
