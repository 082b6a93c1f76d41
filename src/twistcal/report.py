"""Suite configuration and machine-readable verification reports."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ConfigError

__all__ = [
    "SuiteConfig",
    "check_keys",
    "check_positive",
    "check_samples",
    "check_seed",
    "VerificationReport",
    "emit",
    "parse_report",
    "SEPARATION",
    "MAX_ROWS",
    "FORMATS",
]

FORMATS = ("json", "csv")  # what emit writes

# The largest accepted --tol-verdict: a wider PASS band would swallow clear
# failures.
SEPARATION = 1e-3


# The most rows (samples x fibre tuples, or samples of a table) one job may
# hold, checked before anything is allocated.  A job computes in blocks of
# numerics.BLOCK rows, so at the cap its report takes most of its memory, and
# emit, which joins the JSON text once and encodes it once, sets the peak.
# Peak RSS at the cap read 127 MB for stenzel-lagrangian (100,000 rows), 126 MB
# for spin7-cayley, 123 MB for g2-coassociative and 116 MB for g2-associative
# (99,999 rows each), and 41 MB for table veronese; CI fails each verify suite
# above 210 MB and the table above 100 MB.  ru_maxrss of a fresh process per job,
# writing --out, two runs each (2-vCPU Xeon, numpy 2.4.6).
MAX_ROWS = 100_000


def check_samples(samples: int, fibers: int = 1) -> None:
    """Reject a sample count below 1, or one whose ``samples * fibers`` rows
    exceed ``MAX_ROWS``."""
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    if samples * fibers > MAX_ROWS:
        rows = f"{samples} samples" + (f" x {fibers} fibre tuples" if fibers != 1 else "")
        raise ConfigError(f"{rows} exceed the cap of {MAX_ROWS} rows per job")


def check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be a finite positive number, got {value!r}")


def check_keys(what: str, params: dict, allowed) -> None:
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def _parse_number(text: str, what: str) -> float:
    """A finite float, or a ConfigError naming ``what``."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{what} needs a number, got {text.strip()!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {text.strip()!r}")
    return value


def _parse_params(blob: str) -> dict:
    """"key=value,key=value" with finite numeric values; a key may appear once."""
    params = {}
    for item in blob.split(",") if blob else ():
        if not item:
            raise ConfigError(f"empty parameter in {blob!r}")
        if "=" not in item:
            raise ConfigError(f"malformed parameter {item!r} (expected key=value)")
        key, val = item.split("=", 1)
        key = key.strip()
        if key in params:
            raise ConfigError(f"parameter {key!r} is given more than once")
        params[key] = _parse_number(val, f"parameter {key!r}")
    return params


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    chart: str = "equatorial"
    section: str = "zero"
    samples: int = 50
    seed: int = 0
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
        if self.fmt not in FORMATS:
            raise ConfigError(f"format must be {' or '.join(FORMATS)}")
        if "\0" in self.out:  # open() would refuse it only after the suite has run
            raise ConfigError(f"out path {self.out!r} holds a NUL byte")
        return self

    def echo(self) -> dict:
        """The fields by name.  Each is a string or a number, so this shallow
        copy is as good as ``dataclasses.asdict``'s deep one."""
        return dict(vars(self))


# a row's status by ``failed + 2 * passed``
_STATUSES = np.array(["MIXED", "FAIL", "PASS"])


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
              diagnostics: dict | None = None) -> "VerificationReport":
        """Classify the rows (PASS when the largest residual and the largest
        criterion are below ``tol_verdict``, FAIL when both are at or above
        it, else MIXED), aggregate each column, take the verdict; the
        ``diagnostics`` scalars join the aggregates under their own names."""
        u = np.asarray(u, dtype=float)
        residuals = {k: np.asarray(residuals[k], dtype=float) for k in sorted(residuals)}
        criteria = {k: np.asarray(criteria[k], dtype=float) for k in sorted(criteria)}
        res, crit = _matrix(residuals, len(u)), _matrix(criteria, len(u))
        tol = config.tol_verdict
        passed = (res < tol).all(axis=1) & (crit < tol).all(axis=1)
        failed = (res >= tol).any(axis=1) & (crit >= tol).any(axis=1)
        # a row is never both: passing leaves no value at or above tol
        status = _STATUSES[failed + 2 * passed]
        verdict = "PASS" if passed.all() else "FAIL" if (passed | failed).all() else "MIXED"
        aggregates = {}
        for kind, columns in (("residual", residuals), ("criterion", criteria)):
            for name, col in columns.items():
                aggregates[f"{kind}.{name}.max"] = float(col.max())
                aggregates[f"{kind}.{name}.median"] = _median(col)
        aggregates.update(diagnostics or {})
        echo = config.echo()
        return VerificationReport(
            suite=config.suite,
            config=echo,
            u=u,
            t=np.asarray(t, dtype=float),
            residuals=residuals,
            criteria=criteria,
            status=status,
            aggregates=aggregates,
            verdict=verdict,
            # provenance gets its own copy, so that editing it leaves config as is
            provenance={"version": __version__, "config": dict(echo)},
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


def _point_pieces(report: VerificationReport) -> list:
    """The literal text around the values of one point of the top-level
    ``points`` array, as ``json.dumps(sort_keys=True, indent=2)`` lays it out:
    one more piece than a point has values.  The pieces are cut at a NUL,
    which ``json.dumps`` escapes in every key, so no key can forge a cut."""

    def block(opening: str, closing: str, fields: list) -> str:
        inner = ",".join("\n        " + f for f in fields)
        return opening + inner + "\n      " * bool(fields) + closing

    def keyed(columns: dict) -> list:
        return [json.dumps(k) + ": \0" for k in columns]

    return ("    {\n      \"criteria\": " + block("{", "}", keyed(report.criteria))
            + ",\n      \"residuals\": " + block("{", "}", keyed(report.residuals))
            + ",\n      \"status\": \0,\n      \"t\": " + block("[", "]", ["\0"] * report.t.shape[1])
            + ",\n      \"u\": " + block("[", "]", ["\0"] * report.u.shape[1]) + "\n    }").split("\0")


def _column_texts(values: np.ndarray, spelling: dict | None = None) -> np.ndarray:
    """The text of every value of an (N, K) float matrix, as an (N, K) object
    array of ``str``.

    Each distinct bit pattern is converted once, by ``repr``, and its text is
    gathered back into place; ``spelling`` respells the ``repr`` of the
    non-finite values (``nan``, ``inf``, ``-inf``).
    Bits, not float equality, key the values: ``0.0 == -0.0`` but the two
    print differently, and NaN equals no value."""
    bits = np.ascontiguousarray(values).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    floats = distinct.view(np.float64)
    texts = list(map(repr, floats.tolist()))
    if spelling and not np.isfinite(floats).all():
        texts = list(map(spelling.get, texts, texts))
    return np.array(texts, dtype=object)[inverse].reshape(bits.shape)


def _points_json(report: VerificationReport) -> list:
    """The texts whose join is the report's ``points`` array as
    ``json.dumps(sort_keys=True, indent=2)`` writes it, the cells of an
    (N, 2V + 1) object array row by row: row i holds point i's V value texts,
    each followed by its literal piece, after the piece that opens the point;
    the last cell closes the array.  ``repr`` of a finite float is the text ``json``
    writes for it, and each distinct value of the report is converted to text
    once; the residual and criterion keys are in sorted order, as the report
    keeps them."""
    n = len(report.status)
    if n == 0:
        return ["[]"]
    values = np.hstack([_matrix(report.criteria, n), _matrix(report.residuals, n), report.t, report.u])
    opening, *pieces = _point_pieces(report)
    cells = np.empty((n, 2 * len(pieces) + 1), dtype=object)
    # every point but the first opens with the separator after the one before
    cells[:, 0] = ",\n" + opening
    cells[0, 0] = "[\n" + opening
    cells[:, 2::2] = np.array(pieces, dtype=object)
    # the status is value k, between the residuals and t, as json sorts the keys
    k = len(report.criteria) + len(report.residuals)
    texts = _column_texts(values, _NONFINITE)
    cells[:, 1:2 * k:2] = texts[:, :k]
    statuses = report.status.tolist()
    status_text = {s: json.dumps(s) for s in set(statuses)}
    cells[:, 2 * k + 1] = list(map(status_text.__getitem__, statuses))
    cells[:, 2 * k + 3::2] = texts[:, k:]
    cells[-1, -1] += "\n  ]"
    return cells.ravel().tolist()


def emit(report: VerificationReport, fmt: str = "json") -> bytes:
    """Serialise a report: stable JSON (sorted keys) or per-point CSV rows."""
    if fmt == "json":
        # the header's top-level "points" line is unique: json escapes the
        # newline that a string would need to forge it
        head, tail = json.dumps(report._header(), sort_keys=True, indent=2).split('\n  "points": []')
        return "".join([head, '\n  "points": ', *_points_json(report), tail, "\n"]).encode()
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
        writer.writerows(zip(range(n), report.status.tolist(), *_column_texts(values).T.tolist()))
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
