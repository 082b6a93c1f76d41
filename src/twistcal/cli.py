"""Command-line entry point.

Subcommands:

    twistcal list                      registered suites, charts, tables
    twistcal verify SUITE [flags]      run a verification suite
    twistcal table NAME [flags]        compare frame data to a golden table

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
from .numerics import in_blocks
from .report import SuiteConfig, check_samples, check_seed, emit
from .suites import SUITES, run_suite, suite_names

# Each verify key, as a config-file line and as a flag: the keyword arguments
# of its flag, from which the file reader takes the type (str by default).
_CONFIG_KEYS = {
    "chart": {},
    "section": {"help": "section spec, e.g. sinphi:C=1,D=0"},
    "mu": {"help": "conormal twist spec, e.g. 0.3e1 (stenzel suite)"},
    "samples": {"type": int},
    "seed": {"type": int},
    "tol_verdict": {"type": float},
    "profile": {},
    "fiber": {"help": "semicolon-separated fibre tuples, e.g. -2;0;1.5"},
    "format": {"choices": ("json", "csv")},
    "out": {"help": "write the report here instead of stdout"},
}


def _read_config_file(path: str) -> dict:
    """The keys of a flat key=value file; a key may appear once."""
    values: dict = {}
    lines: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                if key in lines:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} is given more than once "
                                      f"(first on line {lines[key]})")
                lines[key] = lineno
                try:
                    values[key] = _CONFIG_KEYS[key].get("type", str)(val)
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: bad value {val!r} for {key}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read config file: {path} is not UTF-8 text") from None
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

    class Parser(argparse.ArgumentParser):
        # a bad command line goes through main's one "config error:" handler,
        # like every other bad input; the subcommand parsers are of this class too
        def error(self, message):
            raise ConfigError(message)

    # no abbreviated flags: a config file takes only whole keys, and a flag
    # added later must not change what a shorter one means
    parser = Parser(prog="twistcal", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command")

    verify = sub.add_parser("verify", help="run a named verification suite", allow_abbrev=False)
    verify.add_argument("suite")
    verify.add_argument("--config", help="flat key=value config file")
    for key, kwargs in _CONFIG_KEYS.items():
        verify.add_argument("--" + key.replace("_", "-"), **kwargs)
    verify.add_argument(
        "--timestamp",
        action="store_true",
        help="include a wall-clock timestamp in the provenance block",
    )

    table = sub.add_parser("table", help="check a golden coefficient table", allow_abbrev=False)
    table.add_argument("name")
    table.add_argument("--samples", type=int, default=50)
    table.add_argument("--seed", type=int, default=0)

    sub.add_parser("list", help="print registered suites, charts and tables", allow_abbrev=False)
    # each command's own parser, by name: main hands a command's arguments to
    # it directly, as the top parser would after reading the name
    parser.commands = sub.choices
    return parser


def _cmd_verify(args) -> int:
    flags = {key: getattr(args, key) for key in _CONFIG_KEYS if getattr(args, key) is not None}
    values, suite = {"suite": args.suite}, SUITES.get(args.suite)
    # mu is a suite's spelling of section, resolved within each source so that a flag
    # overrides a file line of either spelling; run_suite names an unknown suite
    for source, given in ((args.config, _read_config_file(args.config) if args.config else {}),
                          ("command line", flags)):
        if "mu" in given:
            if suite and not suite.takes_mu:
                takers = " and ".join(name for name, known in SUITES.items() if known.takes_mu)
                raise ConfigError(f"{source}: mu only applies to the {takers} suite")
            if "section" in given:
                raise ConfigError(f"{source}: the twist is given more than once, as mu and as section")
            given["section"] = given.pop("mu")
        values.update(given)
    config = SuiteConfig(fmt=values.pop("format", "json"), **values)
    report = run_suite(config)
    if args.timestamp:
        report.provenance["timestamp"] = datetime.now(timezone.utc).isoformat()
    payload = emit(report, config.fmt)
    if config.out:
        try:
            with open(config.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ConfigError(f"cannot write report: {exc}") from None
        print(f"{report.suite}: verdict {report.verdict} ({len(report.status)} points) -> {config.out}")
    else:
        sys.stdout.buffer.write(payload)
    return report.exit_code()


def _cmd_table(args) -> int:
    from .examples import _table, golden_residuals
    from .submanifold import get_chart

    check_samples(args.samples)
    check_seed(args.seed)
    try:
        table = _table(args.name)  # shared and only read: no copy
    except TwistcalError as exc:
        raise ConfigError(str(exc)) from None
    chart = get_chart(table["chart"])
    tol = float(table["tolerance"])
    samples = chart.sample(np.random.default_rng(args.seed), args.samples)
    (res,) = in_blocks(lambda rows: ({"max": golden_residuals(args.name, samples[rows])["max"]},), args.samples)
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
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        # the top parser reads only an empty argv, --help and an unknown command
        if argv and argv[0] in parser.commands:
            args = parser.commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        else:
            args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 2
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
