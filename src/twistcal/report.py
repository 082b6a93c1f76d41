"""Suite configuration and machine-readable verification reports."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .errors import ConfigError

__all__ = [
    "SuiteConfig",
    "check_positive",
    "check_fd_step",
    "check_samples",
    "check_seed",
    "VerificationReport",
    "emit",
    "parse_report",
    "SEPARATION",
]

# The largest accepted --tol-verdict: a wider PASS band would swallow clear
# failures.
SEPARATION = 1e-3

# The accepted --fd-step range.  Above it the FD truncation error turns clear
# PASS configs MIXED or FAIL (1e-2 does), below it round-off does (1e-14 does);
# 1e-10 still runs, with visible FD noise.
FD_STEP_RANGE = (1e-10, 1e-3)


def check_samples(samples: int) -> None:
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")


def check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be a finite positive number, got {value!r}")


def check_fd_step(value: float) -> None:
    check_positive("fd_step", value)
    lo, hi = FD_STEP_RANGE
    if not lo <= value <= hi:
        raise ConfigError(f"fd_step must lie in [{lo!r}, {hi!r}], got {value!r}")


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
        check_seed(self.seed)
        check_positive("tol_verdict", self.tol_verdict)
        if self.tol_verdict > SEPARATION:
            raise ConfigError(f"tol_verdict must be at most the FAIL separation {SEPARATION!r}, "
                              f"got {self.tol_verdict!r}")
        check_fd_step(self.fd_step)
        if self.fmt not in ("json", "csv"):
            raise ConfigError("format must be json or csv")
        return self

    def echo(self) -> dict:
        return asdict(self)


@dataclass
class VerificationReport:
    """A verification run as columns, one row per sampled (sample, fibre) pair.

    ``u`` (N, q) and ``t`` (N, f) are the chart point and fibre coordinates
    of each row; ``residuals`` and ``criteria`` map each key, in sorted order,
    to an (N,) float column; ``status`` (N,) is each row's PASS, FAIL or MIXED.
    """

    suite: str
    config: dict
    u: np.ndarray
    t: np.ndarray
    residuals: dict
    criteria: dict
    status: np.ndarray
    aggregates: dict
    verdict: str
    provenance: dict

    @staticmethod
    def build(config: SuiteConfig, u, t, residuals: dict, criteria: dict,
              provenance: dict | None = None) -> "VerificationReport":
        """Classify the rows (PASS when the largest residual and the largest
        criterion are below ``tol_verdict``, FAIL when both are at or above
        it, else MIXED), aggregate each column, take the verdict."""
        u = np.asarray(u, dtype=float)
        residuals = {k: np.asarray(residuals[k], dtype=float) for k in sorted(residuals)}
        criteria = {k: np.asarray(criteria[k], dtype=float) for k in sorted(criteria)}
        res, crit = _matrix(residuals, len(u)), _matrix(criteria, len(u))
        tol = config.tol_verdict
        passed = (res < tol).all(axis=1) & (crit < tol).all(axis=1)
        failed = (res >= tol).any(axis=1) & (crit >= tol).any(axis=1)
        status = np.select([passed, failed], ["PASS", "FAIL"], "MIXED")
        verdict = "PASS" if passed.all() else "MIXED" if (status == "MIXED").any() else "FAIL"
        aggregates = {}
        for kind, columns in (("residual", residuals), ("criterion", criteria)):
            for name, col in columns.items():
                aggregates[f"{kind}.{name}.max"] = float(np.max(col))
                aggregates[f"{kind}.{name}.median"] = _median(col)
        prov = {"version": __version__, "config": config.echo()}
        if provenance:
            prov.update(provenance)
        return VerificationReport(
            suite=config.suite,
            config=config.echo(),
            u=u,
            t=np.asarray(t, dtype=float),
            residuals=residuals,
            criteria=criteria,
            status=status,
            aggregates=aggregates,
            verdict=verdict,
            provenance=prov,
        )

    def exit_code(self) -> int:
        return 0 if self.verdict == "PASS" else 1

    def to_dict(self) -> dict:
        n = len(self.status)
        res, crit = _matrix(self.residuals, n).tolist(), _matrix(self.criteria, n).tolist()
        rows = zip(self.u.tolist(), self.t.tolist(), res, crit, self.status.tolist())
        out = self._header()
        out["points"] = [
            {"u": u, "t": t, "residuals": dict(zip(self.residuals, r)),
             "criteria": dict(zip(self.criteria, c)), "status": status}
            for u, t, r, c, status in rows
        ]
        return out

    def _header(self) -> dict:
        """Everything of ``to_dict`` but the points, which are left empty."""
        return {
            "suite": self.suite,
            "config": self.config,
            "points": [],
            "aggregates": {k: float(v) for k, v in sorted(self.aggregates.items())},
            "verdict": self.verdict,
            "provenance": self.provenance,
        }


def _matrix(columns: dict, n: int) -> np.ndarray:
    """The (N, K) matrix of K (N,) columns; (N, 0) when there are none."""
    return np.array(list(columns.values()), dtype=float).reshape(len(columns), n).T


def _rows(rows: list) -> np.ndarray:
    """An (N, d) array of N lists of length d; (0, 0) when there are none."""
    return np.array(rows, dtype=float).reshape(len(rows), len(rows[0]) if rows else 0)


def _median(col: np.ndarray) -> float:
    """``np.median`` of a non-empty column, bit for bit (NaN if it holds one),
    without the ``numpy.ma`` import of ``np.median``'s first call."""
    half, odd = divmod(len(col), 2)
    part = np.partition(col, [half, -1] if odd else [half - 1, half, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    # np.mean's sum starts from +0.0, which turns a -0.0 median into 0.0
    return float(0.0 + part[half] if odd else (0.0 + part[half - 1] + part[half]) / 2)


# json's text for the floats whose repr it does not use
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _row_template(report: VerificationReport) -> str:
    """One point of the top-level ``points`` array as ``json.dumps(sort_keys=True,
    indent=2)`` lays it out, with a ``{}`` field for each value."""

    def block(opening: str, closing: str, fields: list) -> str:
        inner = ",".join("\n        " + f for f in fields)
        return opening + inner + "\n      " * bool(fields) + closing

    def keyed(columns: dict) -> list:
        return [json.dumps(k).replace("{", "{{").replace("}", "}}") + ": {}" for k in columns]

    return ("    {{\n      \"criteria\": " + block("{{", "}}", keyed(report.criteria))
            + ",\n      \"residuals\": " + block("{{", "}}", keyed(report.residuals))
            + ",\n      \"status\": {},\n      \"t\": " + block("[", "]", ["{}"] * report.t.shape[1])
            + ",\n      \"u\": " + block("[", "]", ["{}"] * report.u.shape[1]) + "\n    }}")


def _points_json(report: VerificationReport) -> str:
    """The report's ``points`` array as ``json.dumps(sort_keys=True, indent=2)``
    writes it, filled column by column into one row template.  ``repr`` of a
    finite float is the text ``json`` writes for it; the residual and
    criterion keys are in sorted order, as the report keeps them."""
    n = len(report.status)
    if n == 0:
        return "[]"
    values = np.hstack([_matrix(report.criteria, n), _matrix(report.residuals, n), report.t, report.u])
    fields = [map(repr, col) for col in values.T.tolist()]
    if not np.isfinite(values).all():
        fields = [(_NONFINITE.get(text, text) for text in col) for col in fields]
    statuses = report.status.tolist()
    status_text = {s: json.dumps(s) for s in set(statuses)}
    fields.insert(len(report.criteria) + len(report.residuals), map(status_text.__getitem__, statuses))
    return "[\n" + ",\n".join(map(_row_template(report).format, *fields)) + "\n  ]"


def emit(report: VerificationReport, fmt: str = "json") -> bytes:
    """Serialise a report: stable JSON (sorted keys) or per-point CSV rows."""
    if fmt == "json":
        # the header's top-level "points" line is unique: json escapes the
        # newline that a string would need to forge it
        head, tail = json.dumps(report._header(), sort_keys=True, indent=2).split('\n  "points": []')
        return "".join([head, '\n  "points": ', _points_json(report), tail, "\n"]).encode()
    if fmt == "csv":
        n = len(report.status)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["index", "status"]
            + [f"u{i + 1}" for i in range(report.u.shape[1])]
            + [f"t{i + 1}" for i in range(report.t.shape[1])]
            + [*report.residuals, *report.criteria]
        )
        values = np.hstack(
            [report.u, report.t, _matrix(report.residuals, n), _matrix(report.criteria, n)]
        )
        writer.writerows(
            [idx, status, *map(repr, row)]
            for idx, (status, row) in enumerate(zip(report.status.tolist(), values.tolist()))
        )
        return buf.getvalue().encode()
    raise ConfigError(f"unknown format {fmt!r}")


def parse_report(data: bytes) -> VerificationReport:
    """Inverse of the JSON emission."""
    raw = json.loads(data.decode())
    points = raw["points"]

    def columns(field):
        keys = sorted(points[0][field]) if points else []
        return {k: np.array([p[field][k] for p in points], dtype=float) for k in keys}

    return VerificationReport(
        suite=raw["suite"],
        config=raw["config"],
        u=_rows([p["u"] for p in points]),
        t=_rows([p["t"] for p in points]),
        residuals=columns("residuals"),
        criteria=columns("criteria"),
        status=np.array([p["status"] for p in points], dtype=str),
        aggregates=raw["aggregates"],
        verdict=raw["verdict"],
        provenance=raw["provenance"],
    )
