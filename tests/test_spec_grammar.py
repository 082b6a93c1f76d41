"""Property tests of the --section, --mu, --profile and --fiber grammars and
of --config files.

Every generated command must end in a verdict or a one-line diagnosis: exit
0, 1 or 2, no exception out of ``cli.main`` and at most one line on stderr.
The examples are derandomised, so a run is reproducible.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from twistcal.cli import main
from twistcal.suites import MAX_COEFF_INDEX

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
