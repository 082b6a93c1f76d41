"""Closed-loop benchmark of the twistcal verifier.

    python3 perfbench/run.py --workload frames-fd --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there.  One client runs jobs back to back in this process, with no
extra threads: each job is a ``twistcal verify`` or ``twistcal table``
invocation through ``twistcal.cli.main(argv)``, and its output is checked
against the verdict the theorem predicts.  Rounds (one pass over the
workload's job list, each job with a fresh --seed derived from --seed) repeat
until --seconds have passed.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced rounds with the same seeds and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

# One client and no extra threads: OpenBLAS would otherwise start a thread
# per core at numpy import.  Set before the import; set-up spawns inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from workloads import FIBERS_PER_SAMPLE, WORKLOADS, Job, job_argv, job_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SPAWNS = 15
SETUP_TIMEOUT_S = 60

# Fresh interpreter: import the package, then one 1-sample job per suite.
_SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import twistcal
from twistcal.cli import main
for argv in __import__("json").loads(sys.argv[2]):
    if main(argv) == 2:
        sys.exit(3)
"""


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def load_program():
    """Import twistcal from this checkout's src/ and return cli.main's module."""
    if not (SRC / "twistcal" / "__init__.py").is_file():
        raise BenchError(f"no twistcal sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import twistcal.cli

    if Path(twistcal.__file__).resolve().parent != SRC / "twistcal":
        raise BenchError(f"imported twistcal from {twistcal.__file__}, not from {SRC}")
    return twistcal.cli


# -- one job -------------------------------------------------------------------


@dataclass
class Outcome:
    seconds: float
    problem: str | None  # None when the output is correct
    digest: str = ""


def expected_points(job: Job) -> int:
    if job.command == "table" or job.argv[1] == "stenzel-lagrangian":
        return job.samples
    return job.samples * (FIBERS_PER_SAMPLE if job.fibers else 3)


def run_job(cli, job: Job, seed: int, out_path: Path) -> Outcome:
    """Run one job through cli.main and check it against the theorem."""
    argv = job_argv(job, seed, str(out_path))
    if out_path.exists():
        out_path.unlink()
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejecting the argv inside cli.main
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a job that raises is a failed job, not a crash
        return Outcome(time.perf_counter() - start, f"raised {exc!r}")
    seconds = time.perf_counter() - start
    try:
        return Outcome(seconds, *check_output(job, code, buf.getvalue(), out_path))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # a diagnostic failure exits 1 without writing --out
        return Outcome(seconds, f"no readable report (exit {code}): {exc!r}")


def check_output(job: Job, code: int, stdout: str, out_path: Path):
    """(problem or None, digest of the output bytes)."""
    if code == 2:
        return "exit code 2 (configuration error)", ""
    if job.command == "verify":
        payload = out_path.read_bytes()
        report = json.loads(payload)
        verdict = report["verdict"]
        off = sum(p["status"] != verdict for p in report["points"])
        if off:
            return f"{off} point statuses differ from verdict {verdict}", ""
        if len(report["points"]) != expected_points(job):
            return f"{len(report['points'])} points, expected {expected_points(job)}", ""
    else:
        payload = stdout.encode()
        verdict = stdout.rsplit("->", 1)[-1].strip()
    if verdict != job.expected:
        return f"verdict {verdict}, theorem says {job.expected}", ""
    if code != (0 if job.expected == "PASS" else 1):
        return f"exit code {code} for verdict {verdict}", ""
    return None, hashlib.sha256(payload).hexdigest()


# -- a run ---------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def add(self, job: Job, seed: int, outcome: Outcome):
        self.attempted += 1
        problem = outcome.problem
        key = (job.argv, seed)
        if problem is None:
            first = self.digests.setdefault(key, outcome.digest)
            if first != outcome.digest:
                problem = "output bytes differ from the first run of the same argv and seed"
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{job.label} --seed {seed}: {problem}")


def run_round(cli, jobs, seed, round_index, tally, out_path, probes=None) -> list:
    """Run every job once with this round's seeds; returns their wall times.
    With a ``probes`` list, times the host probe just before each job."""
    times = []
    for j, job in enumerate(jobs):
        if probes is not None:
            probes.append(host_probe())
        s = job_seed(seed, round_index, j)
        outcome = run_job(cli, job, s, out_path)
        tally.add(job, s, outcome)
        times.append(outcome.seconds)
    return times


def setup_argvs(jobs) -> list:
    """The first job of each suite (or table) in the workload, at 1 sample."""
    firsts = {}
    for job in jobs:
        firsts.setdefault(job.argv[:2], job)
    argvs = []
    for job in firsts.values():
        argv = list(job.argv)
        argv[argv.index("--samples") + 1] = "1"
        argv += ["--seed", "0"]
        if job.command == "verify":
            argv += ["--out", str(OUT / "setup.json")]
        argvs.append(argv)
    return argvs


def setup_spawn(argvs) -> float:
    """Wall time of a fresh interpreter that imports twistcal and runs argvs."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), json.dumps(argvs)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=SETUP_TIMEOUT_S, check=False,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up job failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return seconds


# A short fixed mix of interpreter work and small-array numpy calls, like the
# verifier's own inner loops, timed beside every measured job.
PROBE_STEPS = 1500
PROBE_REF_S = 0.010  # its time on a quiet 2-vCPU 2.1 GHz Xeon (KVM guest)


def host_probe() -> float:
    start = time.perf_counter()
    a = np.eye(8) * 0.5
    acc = 0.0
    for i in range(PROBE_STEPS):
        b = a @ a.T
        acc += float(b[i & 7, (3 * i) & 7]) + (i * i) % 7
        a = a + 1e-3 * np.sin(b)
    return time.perf_counter() - start


def noise_probe() -> float:
    """Median of 20 host probes, timed before and after the workload."""
    return statistics.median(host_probe() for _ in range(20))


def gmean(values) -> float:
    return float(np.exp(np.log(values).mean()))


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def measure(cli, jobs, seed, seconds, out_path):
    """Untraced closed loop; returns (end-to-end metrics, tally, notes)."""
    argvs = setup_argvs(jobs)
    setup = [setup_spawn(argvs)]
    tally = Tally()
    # untimed warm-up with round 0's seeds; measured round 0 then also checks
    # that the same argv and seed give the same bytes
    run_round(cli, jobs, seed, 0, tally, out_path)
    round_times = []  # [round][job] seconds
    probes = []  # host probe seconds, one before each measured job
    start = time.perf_counter()
    while not round_times or time.perf_counter() - start < seconds:
        # spawns spread over the run, so one slow host phase sets no median
        if len(setup) < SETUP_SPAWNS:
            setup.append(setup_spawn(argvs))
        round_times.append(run_round(cli, jobs, seed, len(round_times), tally, out_path, probes))
    while len(setup) < SETUP_SPAWNS:
        setup.append(setup_spawn(argvs))
    per_job = np.array(round_times)
    # Other tenants of a shared host slow every job down, in phases of
    # seconds to minutes that also slow the probe timed just before it; each
    # job's time scaled by that probe tracks the program's own cost.
    speed = PROBE_REF_S / np.array(probes).reshape(per_job.shape)
    scaled = np.median(per_job * speed, axis=0)
    raw = np.median(per_job, axis=0)
    samples = sum(job.samples for job in jobs)
    metrics = {
        "samples_per_s": (samples / float(scaled.sum()), "1/s"),
        # geometric mean over jobs, whose times differ by up to 10x
        "job_ms.gmean_p50": (1e3 * gmean(scaled), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"rounds": len(round_times), "jobs_measured": int(per_job.size),
             "host_speed": float(np.median(speed)),
             "raw_samples_per_s": samples / float(raw.sum()),
             "raw_job_ms.gmean_p50": 1e3 * gmean(raw),
             "job_ms_pooled": {f"p{q}": 1e3 * float(np.percentile(per_job, q)) for q in (50, 90, 99)},
             "job_seconds": round_times, "probe_seconds": probes, "setup_runs_s": setup}
    return metrics, tally, notes


def measure_traced(cli, jobs, seed, seconds, out_path, spans_path):
    """Alternate untraced and traced rounds with the same seeds; returns
    (per-layer metrics, tally, notes)."""
    from tracing import Tracer

    tracer = Tracer()
    tally = Tally()
    plain = traced = 0.0
    job_seconds = {}
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        plain += sum(run_round(cli, jobs, seed, rounds, tally, out_path))
        tracer.install()
        try:
            for j, job in enumerate(jobs):
                tracer.current_job = rounds * len(jobs) + j
                s = job_seed(seed, rounds, j)
                outcome = run_job(cli, job, s, out_path)
                tally.add(job, s, outcome)
                traced += outcome.seconds
                job_seconds[tracer.current_job] = outcome.seconds
        finally:
            tracer.uninstall()
        rounds += 1
    tracer.write(spans_path)

    # times are per traced round; counts come from round 0, whose seeds are
    # fixed by --seed, so they repeat exactly
    n0 = len(jobs)
    totals, first = tracer.summary(), tracer.summary(jobs_below=n0)

    def extras(span):
        return [value for job, value in tracer.extras.get(span, []) if job < n0]

    def reuse(span):
        builds = extras(span)
        return 1.0 - len(set(builds)) / len(builds) if builds else 0.0

    metrics = {}
    for name, key, unit in PER_LAYER_SPANS:
        value = first[name]["calls"] if key == "calls" else totals[name][key] / rounds
        metrics[f"{name}.{key}"] = (value, unit)
    metrics["numerics.fd_per_sample"] = (
        first["numerics.directional_derivative"]["calls"] / sum(job.samples for job in jobs),
        "calls/sample")
    metrics["g2.form_builds"] = (len(extras("g2.form")), "count")
    metrics["g2.form_reuse"] = (reuse("g2.form"), "ratio")
    metrics["spin7.form_builds"] = (len(extras("spin7.form")), "count")
    metrics["spin7.form_reuse"] = (reuse("spin7.form"), "ratio")
    metrics["report.emit.bytes"] = (sum(extras("report.emit")), "B")
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "ratio")
    metrics["trace.coverage_min"] = (min(tracer.coverage_by_job(job_seconds).values()), "ratio")
    notes = {"rounds": rounds, "traced_s": traced, "untraced_s": plain, "spans": len(tracer.start)}
    return metrics, tally, notes


PER_LAYER_SPANS = (
    ("numerics.directional_derivative", "calls", "count"),
    ("numerics.directional_derivative", "self_ms", "ms"),
    ("numerics.jacobian", "calls", "count"),
    ("examples.frame_field", "calls", "count"),
    ("examples.frame_field", "self_ms", "ms"),
    ("examples.xmap", "calls", "count"),
    ("examples.xmap", "self_ms", "ms"),
    ("examples.golden_residuals", "ms", "ms"),
    ("submanifold.adapted_frame", "calls", "count"),
    ("submanifold.adapted_frame", "ms", "ms"),
    ("submanifold.adapted_frame", "self_ms", "ms"),
    ("submanifold.normal_frame", "ms", "ms"),
    ("stenzel.twisted_conormal_point", "ms", "ms"),
    ("stenzel.twisted_conormal_point", "self_ms", "ms"),
    ("stenzel.omega_value", "calls", "count"),
    ("stenzel.omega_value", "self_ms", "ms"),
    ("stenzel.closed_form_tangents", "ms", "ms"),
    ("g2.section_data", "ms", "ms"),
    ("g2.tangent_basis", "ms", "ms"),
    ("g2.residual", "ms", "ms"),
    ("spin7.tangent_basis_v_plus", "ms", "ms"),
    ("spin7.cayley_residual", "ms", "ms"),
    ("spin7.calibration_gap", "ms", "ms"),
    ("spin7.dbar_vminus_residual", "ms", "ms"),
    ("exterior.contract", "calls", "count"),
    ("exterior.contract", "self_ms", "ms"),
    ("exterior.wedge", "calls", "count"),
    ("exterior.wedge", "self_ms", "ms"),
    ("exterior.monomial", "calls", "count"),
    ("exterior.form_inner", "self_ms", "ms"),
    ("report.build", "ms", "ms"),
    ("report.emit", "ms", "ms"),
    ("suites.run_suite", "self_ms", "ms"),
    ("cli.main", "self_ms", "ms"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        cli = load_program()
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        out_path = OUT / f"job-{stem}.json"
        jobs = WORKLOADS[args.workload]
        machine = machine_record()
        probe_before = noise_probe()
        if args.trace:
            metrics, tally, notes = measure_traced(
                cli, jobs, args.seed, args.seconds, out_path, OUT / f"spans-{stem}.npz")
        else:
            metrics, tally, notes = measure(cli, jobs, args.seed, args.seconds, out_path)
        probe_after = noise_probe()
        out_path.unlink(missing_ok=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failed_frac = tally.failed / tally.attempted
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "noise_probe_s": {"before": probe_before, "after": probe_after},
        "attempted": tally.attempted, "failed": tally.failed, "failed_frac": failed_frac,
        "problems": tally.problems, "notes": notes, "metrics": values,
    }
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {notes['rounds']}  jobs per round {len(jobs)}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"noise_probe_s before {probe_before:.4f} after {probe_after:.4f}")
    if "job_ms_pooled" in notes:
        print("job_ms over all measured jobs " + " ".join(
            f"{k} {v:.4g}" for k, v in notes["job_ms_pooled"].items()))
        print(f"host_speed {notes['host_speed']:.4f}  unscaled: samples_per_s "
              f"{notes['raw_samples_per_s']:.6g}  job_ms.gmean_p50 {notes['raw_job_ms.gmean_p50']:.6g}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(f"{'failed_frac':<40} {failed_frac:.6g} ({tally.failed}/{tally.attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
