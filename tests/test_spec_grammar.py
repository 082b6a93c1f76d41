"""Property tests of the --section, --mu, --profile and --fiber grammars, of
--config files, of the other ``verify`` flags and of the ``table`` command.

Every generated command must end in a verdict or a one-line diagnosis: exit
0, 1 or 2, no exception out of ``cli.main`` and at most one line on stderr.
The examples are derandomised, so a run is reproducible.  A flag is never
abbreviated: every strict prefix of every flag is one config error.
"""

import contextlib
import csv
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from twistcal.cli import _build_parser, main
from twistcal.examples import MAX_COEFF_INDEX

SUITES = ["stenzel-lagrangian", "g2-associative", "g2-coassociative", "spin7-cayley"]
CHARTS = ["equatorial", "veronese", "veronese-hat", "veronese-antipodal"]
LONG = "9" * 5000  # past the 4300-digit limit of int() on a string

# extreme finite numbers, signs, zeros, and text that is not a finite number
NUMBERS = st.sampled_from([
    "0", "-0", "+1", "-2.5", "0.3", "1e308", "-1e308", "1.7976931348623157e308",
    "5e-324", "-5e-324", "2.2e-308", "1e400", "nan", "-inf", "", "abc", "1_0", " 2 ",
])
INDICES = st.sampled_from(["0", "1", "2", "3", "-1", str(MAX_COEFF_INDEX), str(MAX_COEFF_INDEX + 1),
                           "007", LONG, "-" + LONG])
KEYS = st.one_of(
    st.sampled_from(["re", "im", "C", "D", "c", "axis", "u", "v", "vp", "vpp", "x", "", "RE", " re"]),
    st.builds(lambda letter, i, part: f"{letter}{i}{part}",
              st.sampled_from(["c", "k"]), INDICES, st.sampled_from(["re", "im", "r"])),
)
# a part is key=value, a bare key, or empty; keys may repeat
PARTS = st.lists(
    st.one_of(st.builds(lambda k, v: f"{k}={v}", KEYS, NUMBERS), KEYS, st.just("")), max_size=4
).map(",".join)
KINDS = st.sampled_from([
    "zero", "const", "sinphi", "equatorial-hol", "veronese-strip", "coord", "unit", "linear",
    "nosuch", "", " const",
])
SPECS = st.one_of(KINDS, PARTS, st.builds(lambda kind, parts: f"{kind}:{parts}", KINDS, PARTS))
MU = st.one_of(
    NUMBERS,
    st.builds(lambda c, i: f"{c}e{i}", st.sampled_from(["", "+", "-", "0.3", "-1e308", "5e-324", "1e400", "x"]),
              INDICES),
)
FIBERS = st.lists(st.lists(NUMBERS, max_size=3).map(",".join), max_size=3).map(";".join)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    suite=st.sampled_from(SUITES),
    chart=st.sampled_from(CHARTS),
    samples=st.integers(1, 2),
    section=_flag("section", SPECS),
    mu=_flag("mu", MU),
    profile=_flag("profile", st.one_of(SPECS, PARTS)),
    fiber=_flag("fiber", FIBERS),
)
# indices past int()'s digit limit, which once raised out of main
@example(suite="stenzel-lagrangian", chart="veronese", samples=1, section=[],
         mu=[f"--mu=0.3e{LONG}"], profile=[], fiber=[])
@example(suite="g2-associative", chart="equatorial", samples=1,
         section=[f"--section=equatorial-hol:c{LONG}re=1"], mu=[], profile=[], fiber=[])
@example(suite="spin7-cayley", chart="veronese", samples=2,
         section=[f"--section=veronese-strip:k-{LONG}im=1"], mu=[], profile=[], fiber=[])
def test_spec_grammar_ends_in_a_verdict_or_one_line(suite, chart, samples, section, mu, profile, fiber):
    argv = ["verify", suite, "--chart", chart, "--samples", str(samples), *section, *mu, *profile, *fiber]
    _assert_verdict_or_one_line(argv)


def _assert_verdict_or_one_line(argv):
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1
    return code


# config-file values per key; OUT stands for a writable directory
CONFIG_VALUES = {
    "chart": st.sampled_from(CHARTS + ["nosuch", ""]),
    "section": SPECS,
    "mu": MU,
    "samples": st.sampled_from(["1", "2", "0", "-1", "1.5", "x", "", "100000000000"]),
    "seed": st.sampled_from(["0", "7", "-1", "x", LONG]),
    "tol_verdict": st.one_of(NUMBERS, st.sampled_from(["1e-4", "1e-3"])),
    "profile": st.one_of(SPECS, PARTS),
    "fiber": FIBERS,
    "format": st.sampled_from(["json", "csv", "xml", ""]),
    "out": st.sampled_from(["OUT/r.out", "OUT/missing/r.out", "OUT", ""]),
}
KNOWN_LINES = st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
    lambda key: CONFIG_VALUES[key].map(lambda value: f"{key}={value}")
)
# unknown or removed keys, lines without '=', comments and blank lines
OTHER_LINES = st.sampled_from([
    "suite=spin7-cayley", "tol_algebraic=1e-30", "fd_step=1e-5", "x=1", "=1", "samples", "nonsense line",
    "# samples=5", "",
])
# lines may repeat, and a key given twice is exit 2
CONFIG_LINES = st.lists(
    st.one_of(KNOWN_LINES.map(str.encode), OTHER_LINES.map(str.encode), st.binary(max_size=12)),
    max_size=5,
).map(b"\n".join)


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(suite=st.sampled_from(SUITES), body=CONFIG_LINES)
# a file that is not UTF-8 text once raised UnicodeDecodeError out of main
@example(suite="g2-associative", body=b"\xff\xfesamples=2")
# a repeated key once ran with its last value
@example(suite="spin7-cayley", body=b"samples=1\nseed=2\nsamples=2")
def test_config_file_ends_in_a_verdict_or_one_line(suite, body):
    keys = [line.split(b"=", 1)[0].strip() for line in body.split(b"\n")
            if b"=" in line and not line.strip().startswith(b"#")]
    if b"samples" not in keys:
        # one sample unless a generated line sets the count
        body = b"samples=1\n" + body
        keys.append(b"samples")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "suite.cfg")
        with open(path, "wb") as fh:
            fh.write(body.replace(b"OUT", tmp.encode()))
        code = _assert_verdict_or_one_line(["verify", suite, "--config", path])
    if len(set(keys)) < len(keys):
        # a key given twice is never resolved to one of its values
        assert code == 2


# command-line values of the flags that the grammar tests above give only in
# --config files.  The valid values are drawn more often than the others, so
# that about half of the commands reach a verdict; every sample count that
# runs is small, and the large ones pass MAX_ROWS at any fibre count.


def _values(valid, invalid):
    return st.sampled_from(valid * (2 * len(invalid) // len(valid) + 1) + invalid)


SAMPLES = _values(["1", "2", " 3 "], ["0", "-1", "1.5", "x", "", "100001", "100000000000", LONG])
SEEDS = _values(["0", "7", "-0", str(2**64)], ["-1", "x", "", LONG])
TOLERANCES = _values(["1e-4", "1e-3", "5e-324", "0.3e-3"],
                     ["1.0001e-3", "0", "-1e-4", "nan", "1e400", "-inf", "", "abc", "1_0"])
FORMATS = _values(["json", "csv"], ["xml", "JSON", ""])
OUTS = _values(["OUT/r.out", ""], ["OUT/missing/r.out", "OUT"])


# a PASS and a FAIL job over the equatorial chart for each family of suites
JOBS = st.sampled_from([
    ("stenzel-lagrangian", "--mu=0"),
    ("stenzel-lagrangian", "--mu=0.3e1"),
    ("g2-associative", "--section=sinphi:C=1,D=0"),
    ("g2-coassociative", "--section=zero"),
    ("spin7-cayley", "--section=zero"),
    ("spin7-cayley", "--section=sinphi:C=1,D=0"),
])


def _cli_flag(name, values):
    """No flag, ``--name=value``, or ``--name`` and the value as two words."""
    return st.one_of(
        st.just([]),
        values.map(lambda v: [f"--{name}={v}"]),
        values.map(lambda v: [f"--{name}", v]),
    )


def _value(flag, default):
    """The value that a ``_cli_flag`` draw gives, in either form."""
    return flag[-1].split("=", 1)[-1] if flag else default


def _run(argv):
    """Exit code, stdout bytes and stderr text of one ``cli.main`` call."""
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
        out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def _assert_config_error_line(err):
    assert err.startswith("config error: ") and err.endswith("\n") and err.count("\n") == 1, err


@settings(max_examples=120, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    job=JOBS,
    samples=_cli_flag("samples", SAMPLES),
    seed=_cli_flag("seed", SEEDS),
    tol=_cli_flag("tol-verdict", TOLERANCES),
    fmt=_cli_flag("format", FORMATS),
    out=_cli_flag("out", OUTS),
    timestamp=st.sampled_from([[], ["--timestamp"]]),
)
def test_verify_flags_end_in_a_verdict_or_one_config_error(job, samples, seed, tol, fmt, out, timestamp):
    suite, twist = job
    with tempfile.TemporaryDirectory() as tmp:
        flags = [arg.replace("OUT", tmp) for arg in samples + seed + tol + fmt + out + timestamp]
        # one sample unless the generated flags set the count
        argv = ["verify", suite, "--chart=equatorial", twist, *([] if samples else ["--samples", "1"]), *flags]
        code, stdout, err = _run(argv)
        if code == 2:
            _assert_config_error_line(err)
            return
        assert code in (0, 1) and err == ""
        verdict = ("PASS",) if code == 0 else ("FAIL", "MIXED")
        path = _value(out, "").replace("OUT", tmp)
        if path:
            line = stdout.decode()
            assert line.startswith(f"{suite}: verdict ") and line.endswith(f" -> {path}\n")
            assert line.split()[2] in verdict
            with open(path, "rb") as fh:
                stdout = fh.read()
        if _value(fmt, "json") == "csv":
            statuses = [row["status"] for row in csv.DictReader(io.StringIO(stdout.decode()))]
            assert statuses and (code == 0) == all(s == "PASS" for s in statuses)
        else:
            assert json.loads(stdout)["verdict"] in verdict


TABLE_NAMES = st.sampled_from(["veronese", "equatorial", "nosuch", "", "Veronese"])


@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=TABLE_NAMES, samples=_cli_flag("samples", SAMPLES), seed=_cli_flag("seed", SEEDS))
def test_table_flags_end_in_a_verdict_or_one_config_error(name, samples, seed):
    code, stdout, err = _run(["table", name, *(samples or ["--samples", "2"]), *seed])
    if code == 2:
        _assert_config_error_line(err)
        return
    assert code in (0, 1) and err == ""
    line = stdout.decode()
    assert line.startswith(f"table {name}: worst residual ") and line.count("\n") == 1
    assert line.endswith(" -> PASS\n" if code == 0 else " -> FAIL\n")


# an empty item of a key=value list, leading, trailing or between two commas, is
# one config error, given by a flag or by a --config key; the list without it runs
EMPTY_ITEMS = [
    ("spin7-cayley", "profile", "u=2,", "u=2"),
    ("spin7-cayley", "profile", ",u=2,v=0.5", "u=2,v=0.5"),
    ("g2-associative", "profile", "u=2,,v=0.5", "u=2,v=0.5"),
    ("stenzel-lagrangian", "profile", "vp=2,", "vp=2"),
    ("spin7-cayley", "section", "const:re=0.4,", "const:re=0.4"),
    ("spin7-cayley", "section", "const:re=0.4,,", "const:re=0.4"),
    ("spin7-cayley", "section", "const:,re=0.4", "const:re=0.4"),
    ("g2-associative", "section", "sinphi:C=1,,D=0", "sinphi:C=1,D=0"),
    ("g2-coassociative", "section", "const:c=2,", "const:c=2"),
    ("stenzel-lagrangian", "mu", "0.3e1,", "0.3e1"),
]


@pytest.mark.parametrize("suite, key, spec, whole", EMPTY_ITEMS)
def test_an_empty_item_is_one_config_error(suite, key, spec, whole):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "suite.cfg")
        for value in (whole, spec):
            with open(config, "w") as fh:
                fh.write(f"samples=1\n{key}={value}\n")
            for argv in (["verify", suite, "--samples=1", f"--{key}={value}"], ["verify", suite, "--config", config]):
                code, _, err = _run(argv)
                if value == whole:
                    assert code in (0, 1) and err == "", argv
                else:
                    assert code == 2, argv
                    _assert_config_error_line(err)
                    assert key == "mu" or "empty parameter" in err, err


# a value that each flag of a command accepts, None for a flag that takes none;
# CFG stands for a config file and OUT for a writable path
WHOLE_FLAGS = {
    "verify": {"--config": "CFG", "--chart": "veronese", "--section": "zero", "--mu": "0",
               "--samples": "1", "--seed": "7", "--tol-verdict": "1e-3", "--profile": "unit",
               "--fiber": "0,0", "--format": "csv", "--out": "OUT", "--timestamp": None},
    "table": {"--samples": "2", "--seed": "7"},
}


def _command(command, flag, value):
    """The argv of one command that gives ``flag`` ``value`` (a list of
    words); --mu applies only to the Stenzel suite, --fiber only to a forms one."""
    if command == "table":
        return ["table", "veronese", *value]
    suite = "stenzel-lagrangian" if flag == "--mu" else "spin7-cayley"
    return ["verify", suite, *([] if flag == "--samples" else ["--samples=1"]), *value]


@pytest.mark.parametrize("command", sorted(WHOLE_FLAGS))
def test_abbreviated_flags_are_one_config_error(command):
    actions = _build_parser().commands[command]._actions
    flags = {s for a in actions for s in a.option_strings if s not in ("-h", "--help")}
    assert flags == set(WHOLE_FLAGS[command])
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "suite.cfg")
        with open(config, "w") as fh:
            fh.write("samples=1\n")
        for flag, value in WHOLE_FLAGS[command].items():
            if value is not None:
                value = value.replace("CFG", config).replace("OUT", os.path.join(tmp, "r.out"))
            forms = (lambda f: [f],) if value is None else (lambda f: [f, value], lambda f: [f"{f}={value}"])
            # the whole flag runs the command, so each prefix below fails on the prefix alone
            assert _run(_command(command, flag, forms[0](flag)))[0] in (0, 1), flag
            for end in range(3, len(flag)):
                for form in forms:
                    argv = _command(command, flag, form(flag[:end]))
                    code, _, err = _run(argv)
                    assert code == 2, argv
                    _assert_config_error_line(err)
