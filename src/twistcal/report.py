"""Suite configuration and machine-readable verification reports."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "SuiteConfig",
    "check_positive",
    "check_samples",
    "PointRecord",
    "VerificationReport",
    "emit",
    "parse_report",
    "SEPARATION",
]

# A point whose residual and criterion both exceed this value is a clean,
# well-separated failure; verdicts between the pass tolerance and this level
# are flagged as MIXED.
SEPARATION = 1e-3


def check_samples(samples: int) -> None:
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")


def check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be a finite positive number, got {value!r}")


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    chart: str = "equatorial"
    section: str = "zero"
    samples: int = 50
    seed: int = 0
    fd_step: float = 1e-5
    tol_verdict: float = 1e-4
    profile: str = "unit"
    fiber: str = ""
    fmt: str = "json"
    out: str = ""

    def validate(self) -> "SuiteConfig":
        check_samples(self.samples)
        check_positive("tol_verdict", self.tol_verdict)
        check_positive("fd_step", self.fd_step)
        if self.fmt not in ("json", "csv"):
            raise ConfigError("format must be json or csv")
        return self

    def echo(self) -> dict:
        return asdict(self)


@dataclass
class PointRecord:
    u: list
    t: list
    residuals: dict
    criteria: dict
    status: str = ""

    def classify(self, tol_verdict: float) -> "PointRecord":
        cond = max(self.residuals.values()) if self.residuals else 0.0
        crit = max(self.criteria.values()) if self.criteria else 0.0
        if cond < tol_verdict and crit < tol_verdict:
            self.status = "PASS"
        elif cond >= SEPARATION and crit >= SEPARATION:
            self.status = "FAIL"
        else:
            self.status = "MIXED"
        return self


@dataclass
class VerificationReport:
    suite: str
    config: dict
    points: list
    aggregates: dict
    verdict: str
    provenance: dict

    @staticmethod
    def build(config: SuiteConfig, points: list, provenance: dict | None = None) -> "VerificationReport":
        for p in points:
            p.classify(config.tol_verdict)
        statuses = {p.status for p in points}
        if statuses <= {"PASS"}:
            verdict = "PASS"
        elif statuses == {"FAIL"}:
            verdict = "FAIL"
        else:
            verdict = "MIXED" if "MIXED" in statuses else "FAIL"
        aggregates = {}
        names = sorted({k for p in points for k in p.residuals})
        crit_names = sorted({k for p in points for k in p.criteria})
        for name in names:
            vals = [p.residuals[name] for p in points if name in p.residuals]
            aggregates[f"residual.{name}.max"] = max(vals)
            aggregates[f"residual.{name}.median"] = float(np.median(vals))
        for name in crit_names:
            vals = [p.criteria[name] for p in points if name in p.criteria]
            aggregates[f"criterion.{name}.max"] = max(vals)
            aggregates[f"criterion.{name}.median"] = float(np.median(vals))
        prov = {"version": _package_version(), "config": config.echo()}
        if provenance:
            prov.update(provenance)
        return VerificationReport(
            suite=config.suite,
            config=config.echo(),
            points=points,
            aggregates=aggregates,
            verdict=verdict,
            provenance=prov,
        )

    def exit_code(self) -> int:
        return 0 if self.verdict == "PASS" else 1

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "points": [
                {
                    "u": list(map(float, p.u)),
                    "t": list(map(float, p.t)),
                    "residuals": {k: float(v) for k, v in sorted(p.residuals.items())},
                    "criteria": {k: float(v) for k, v in sorted(p.criteria.items())},
                    "status": p.status,
                }
                for p in self.points
            ],
            "aggregates": {k: float(v) for k, v in sorted(self.aggregates.items())},
            "verdict": self.verdict,
            "provenance": self.provenance,
        }


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("twistcal")
    except Exception:
        return "0.1.0"


def emit(report: VerificationReport, fmt: str = "json") -> bytes:
    """Serialise a report: stable JSON (sorted keys) or per-point CSV rows."""
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2).encode() + b"\n"
    if fmt == "csv":
        res_names = sorted({k for p in report.points for k in p.residuals})
        crit_names = sorted({k for p in report.points for k in p.criteria})
        dim_u = len(report.points[0].u) if report.points else 0
        dim_t = len(report.points[0].t) if report.points else 0
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = (
            ["index", "status"]
            + [f"u{i + 1}" for i in range(dim_u)]
            + [f"t{i + 1}" for i in range(dim_t)]
            + res_names
            + crit_names
        )
        writer.writerow(header)
        for idx, p in enumerate(report.points):
            row = [idx, p.status]
            row += [repr(float(x)) for x in p.u]
            row += [repr(float(x)) for x in p.t]
            row += [repr(float(p.residuals.get(k, 0.0))) for k in res_names]
            row += [repr(float(p.criteria.get(k, 0.0))) for k in crit_names]
            writer.writerow(row)
        return buf.getvalue().encode()
    raise ConfigError(f"unknown format {fmt!r}")


def parse_report(data: bytes) -> VerificationReport:
    """Inverse of the JSON emission."""
    raw = json.loads(data.decode())
    points = [
        PointRecord(
            u=p["u"],
            t=p["t"],
            residuals=p["residuals"],
            criteria=p["criteria"],
            status=p["status"],
        )
        for p in raw["points"]
    ]
    return VerificationReport(
        suite=raw["suite"],
        config=raw["config"],
        points=points,
        aggregates=raw["aggregates"],
        verdict=raw["verdict"],
        provenance=raw["provenance"],
    )
