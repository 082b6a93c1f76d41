"""Per-layer tracing of twistcal from outside the package.

``Tracer.install`` rebinds each traced public function in every
``twistcal.*`` module that holds a reference to it (``contract`` lives in
``exterior`` but is also imported into ``g2`` and ``spin7``), wraps
``InnerSpace.monomial`` and ``VerificationReport.build`` at their classes, and
re-registers every chart with timed ``xmap``/``frame_field`` callables.
``uninstall`` puts every original back, so traced and untraced rounds can
alternate in one process.

Spans (name, start, end, parent, job) are kept in memory in flat integer
arrays; self time is a span's duration minus the durations of its direct
children.  Nothing here changes what the program computes.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name, extra record kept for the call)
_FUNCTIONS = (
    ("numerics", "directional_derivative", "numerics.directional_derivative", None),
    ("numerics", "jacobian", "numerics.jacobian", None),
    ("examples", "golden_residuals", "examples.golden_residuals", None),
    ("submanifold", "adapted_frame", "submanifold.adapted_frame", None),
    ("stenzel", "twisted_conormal_point", "stenzel.twisted_conormal_point", None),
    ("stenzel", "omega_value", "stenzel.omega_value", None),
    ("stenzel", "closed_form_tangents", "stenzel.closed_form_tangents", None),
    ("g2", "section_data", "g2.section_data", None),
    ("g2", "tangent_basis_e_sigma", "g2.tangent_basis", None),
    ("g2", "tangent_basis_eta_f", "g2.tangent_basis", None),
    ("g2", "associative_residual", "g2.residual", None),
    ("g2", "coassociative_residual", "g2.residual", None),
    ("g2", "phi_form", "g2.form", "form"),
    ("g2", "psi_form", "g2.form", "form"),
    ("spin7", "tangent_basis_v_plus", "spin7.tangent_basis_v_plus", None),
    ("spin7", "cayley_residual", "spin7.cayley_residual", None),
    ("spin7", "calibration_gap", "spin7.calibration_gap", None),
    ("spin7", "dbar_vminus_residual", "spin7.dbar_vminus_residual", None),
    ("spin7", "phi_form", "spin7.form", "form"),
    ("exterior", "contract", "exterior.contract", None),
    ("exterior", "wedge", "exterior.wedge", None),
    ("exterior", "form_inner", "exterior.form_inner", None),
    ("report", "emit", "report.emit", "bytes"),
    ("suites", "run_suite", "suites.run_suite", None),
    ("cli", "main", "cli.main", None),
)

ROOT_SPAN = "cli.main"
NORMAL_FRAME_SPAN = "submanifold.normal_frame"


class Tracer:
    """Collects spans and per-call records while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.current_job = -1
        # span name -> [(job, value)]: the (u, v) of each form build, the
        # byte count of each emitted report
        self.extras: dict[str, list] = {}
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, extra=None):
        nid = self._name_id(name)
        stack, clock = self._stack, time.perf_counter_ns
        name_of, start, end, parent, job = self.name_of, self.start, self.end, self.parent, self.job
        extras = self.extras.setdefault(name, []) if extra else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.current_job)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if extra == "form":
                extras.append((self.current_job, (float(args[0]), float(args[1]))))
            elif extra == "bytes":
                extras.append((self.current_job, len(result)))
            return result

        return traced

    # -- installation ---------------------------------------------------

    def _rebind_everywhere(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("twistcal") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self):
        from twistcal import exterior, report, stenzel, submanifold

        for modname, attr, span, extra in _FUNCTIONS:
            module = sys.modules[f"twistcal.{modname}"]
            original = getattr(module, attr)
            self._rebind_everywhere(original, self.wrap(span, original, extra))

        monomial = vars(exterior.InnerSpace)["monomial"]
        exterior.InnerSpace.monomial = self.wrap("exterior.monomial", monomial)
        self._undo.append((exterior.InnerSpace, "monomial", monomial))
        build = vars(report.VerificationReport)["build"]
        report.VerificationReport.build = staticmethod(self.wrap("report.build", build.__func__))
        self._undo.append((report.VerificationReport, "build", build))

        # frame fields synthesised by with_normal_frame run the transport loop
        self._name_id(NORMAL_FRAME_SPAN)
        with_normal_frame = stenzel.with_normal_frame

        def traced_with_normal_frame(*args):
            normal = with_normal_frame(*args)
            return normal.with_frame_field(self.wrap(NORMAL_FRAME_SPAN, normal.frame_field))

        self._rebind_everywhere(with_normal_frame, traced_with_normal_frame)

        for name in submanifold.chart_names():
            chart = submanifold.get_chart(name)
            timed = dataclasses.replace(
                chart,
                xmap=self.wrap("examples.xmap", chart.xmap),
                frame_field=self.wrap("examples.frame_field", chart.frame_field),
            )
            submanifold.register_chart(timed)
            self._undo.append((None, name, chart))

    def uninstall(self):
        from twistcal import submanifold

        while self._undo:
            owner, attr, original = self._undo.pop()
            if owner is None:
                submanifold.register_chart(original)
            else:
                setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "job": np.frombuffer(self.job, dtype=np.int64),
        }

    def summary(self, jobs_below: int | None = None) -> dict:
        """Per span name: calls, inclusive ms and self ms, over the spans of
        all jobs, or of the jobs numbered below ``jobs_below``."""
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(float)
        child = a["parent"] >= 0
        child_sum = np.bincount(a["parent"][child], weights=dur[child], minlength=dur.size)
        self_time = dur - child_sum
        keep = a["job"] < jobs_below if jobs_below is not None else np.ones(dur.size, bool)
        n = len(self.names)
        calls = np.bincount(a["name"][keep], minlength=n)
        incl = np.bincount(a["name"][keep], weights=dur[keep], minlength=n) / 1e6
        own = np.bincount(a["name"][keep], weights=self_time[keep], minlength=n) / 1e6
        return {
            name: {"calls": int(calls[i]), "ms": float(incl[i]), "self_ms": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def coverage_by_job(self, job_seconds: dict) -> dict:
        """Share of each job's wall time covered by spans directly under the
        root span (the layers cli.main calls into)."""
        a = self.arrays()
        roots = np.nonzero(a["name"] == self._name_ids[ROOT_SPAN])[0]
        top = np.isin(a["parent"], roots)
        dur = (a["end"] - a["start"]) / 1e9
        covered = np.bincount(a["job"][top], weights=dur[top], minlength=max(job_seconds, default=0) + 1)
        return {j: float(covered[j] / s) for j, s in job_seconds.items()}

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
