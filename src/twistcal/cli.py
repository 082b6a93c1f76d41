"""Command-line entry point.

Subcommands:

    twistcal list                      registered suites, charts, tables
    twistcal verify SUITE [flags]      run a verification suite
    twistcal table NAME [flags]        compare FD frame data to a golden table

``verify`` accepts a flat key=value config file (--config) with the same keys
as the flags; flags override the file.  Exit codes: 0 verdict PASS, 1 verdict
FAIL or MIXED (or numerical breakdown), 2 configuration error (including an
--out path that cannot be written).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigError, TwistcalError
from .report import SuiteConfig, check_fd_step, check_samples, check_seed, emit
from .suites import run_suite, suite_names

_CONFIG_KEYS = {
    "chart": str,
    "section": str,
    "mu": str,
    "samples": int,
    "seed": int,
    "fd_step": float,
    "tol_verdict": float,
    "profile": str,
    "fiber": str,
    "format": str,
    "out": str,
}


def _read_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = _CONFIG_KEYS[key](val)
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: bad value {val!r} for {key}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return values


# argparse takes a token that starts with '-' and is not a plain number for an
# option, so "--fiber -2;0;1.5" would lose its value.  No twistcal option
# starts with '-' and a digit or '.', so such a token is always a value.
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")
_FLAG = re.compile(r"--[^=]+$")


def _attach_negative_values(argv) -> list:
    """Rewrite "--flag -2;0;1.5" as "--flag=-2;0;1.5"."""
    out: list = []
    for arg in argv:
        if out and _FLAG.match(out[-1]) and _NEGATIVE_VALUE.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each parse fills a new namespace."""
    parser = argparse.ArgumentParser(prog="twistcal", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite")
    verify.add_argument("--config", help="flat key=value config file")
    verify.add_argument("--chart")
    verify.add_argument("--section", help="section spec, e.g. sinphi:C=1,D=0")
    verify.add_argument("--mu", help="conormal twist spec, e.g. 0.3e1 (stenzel suite)")
    verify.add_argument("--samples", type=int)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--fd-step", type=float, dest="fd_step")
    verify.add_argument("--tol-verdict", type=float, dest="tol_verdict")
    verify.add_argument("--profile")
    verify.add_argument("--fiber", help="semicolon-separated fibre tuples, e.g. -2;0;1.5")
    verify.add_argument("--format", choices=("json", "csv"))
    verify.add_argument("--out", help="write the report here instead of stdout")
    verify.add_argument(
        "--timestamp",
        action="store_true",
        help="include a wall-clock timestamp in the provenance block",
    )

    table = sub.add_parser("table", help="check a golden coefficient table")
    table.add_argument("name")
    table.add_argument("--samples", type=int, default=50)
    table.add_argument("--seed", type=int, default=0)
    table.add_argument("--fd-step", type=float, dest="fd_step", default=1e-5)

    sub.add_parser("list", help="print registered suites, charts and tables")
    return parser


def _cmd_verify(args) -> int:
    values = _read_config_file(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    values["suite"] = args.suite
    mu = values.pop("mu", None)
    if mu is not None:
        if values["suite"] != "stenzel-lagrangian":
            raise ConfigError("--mu only applies to the stenzel-lagrangian suite")
        values["section"] = mu
    fmt = values.pop("format", "json")
    out_path = values.pop("out", "")
    config = SuiteConfig(fmt=fmt, out=out_path, **values)
    report = run_suite(config)
    if args.timestamp:
        report.provenance["timestamp"] = datetime.now(timezone.utc).isoformat()
    payload = emit(report, fmt)
    if out_path:
        try:
            with open(out_path, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ConfigError(f"cannot write report: {exc}") from None
        print(f"{report.suite}: verdict {report.verdict} ({len(report.status)} points) -> {out_path}")
    else:
        sys.stdout.buffer.write(payload)
    return report.exit_code()


def _cmd_table(args) -> int:
    from .examples import golden_residuals, golden_table
    from .submanifold import get_chart

    check_samples(args.samples)
    check_seed(args.seed)
    check_fd_step(args.fd_step)
    try:
        table = golden_table(args.name)
    except TwistcalError as exc:
        raise ConfigError(str(exc)) from None
    chart = get_chart(table["chart"])
    tol = float(table["tolerance"])
    rng = np.random.default_rng(args.seed)
    res = golden_residuals(args.name, chart.sample(rng, args.samples), args.fd_step)
    worst = float(np.max(res["max"]))
    status = "PASS" if worst < tol else "FAIL"
    print(f"table {args.name}: worst residual {worst:.3e} over {args.samples} points -> {status}")
    return 0 if status == "PASS" else 1


def _cmd_list() -> int:
    from .examples import golden_table_names
    from .submanifold import chart_names

    print("suites:")
    for name in suite_names():
        print(f"  {name}")
    print("charts:")
    for name in chart_names():
        print(f"  {name}")
    print("tables:")
    for name in golden_table_names():
        print(f"  {name}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "list":
            return _cmd_list()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TwistcalError as exc:
        print(f"diagnostic failure: {exc}", file=sys.stderr)
        return 1
    return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
