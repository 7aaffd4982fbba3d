"""Random `ssv` argv: every run ends in exit code 0, 1 or 2 and repeats itself.

Each example picks a subcommand, some of its options (and now and then an
option of another subcommand), and values built from the fixture paths and
random tokens: small integers, fractions including ``1/0``, letters, empty
fields and extra commas.  `cli.main` runs in-process twice; no exception may
escape it, and both runs must print the same stdout and stderr.  `--help`
is left out because argparse answers it through `SystemExit`.  Shapes of
`matroid subdivisions` stay within four ranks and a cap of 2, so that no
example runs long.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssvlib import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
COMPLEXES = [str(FIXTURES / f"{n}.json") for n in ("p1xp1", "segment04", "sl2_chain", "two_triangles")]
HEIGHTS = [str(FIXTURES / f"{n}.json") for n in ("chain_heights", "halfint_heights")]
MISSING = str(FIXTURES / "missing.json")

integer = st.integers(-2, 5).map(str)
fraction = st.sampled_from(["1/2", "-3/2", "1/0", "0/0", "2/3", "1/-1"])
letters = st.sampled_from(["x", "A", "nan", "inf", "1e3", "1.5", " "])
token = st.one_of(integer, fraction, letters, st.just(""))
# true about one time in ten (hypothesis favours the ends of integer ranges)
rarely = st.sampled_from([False] * 9 + [True])


def comma_list(entry):
    """Joined entries, sometimes with a leading, trailing or doubled comma."""
    pieces = st.lists(entry, max_size=4).map(",".join)
    extra = st.sampled_from(["", "", "", ",", ",,"])
    return st.tuples(extra, pieces, extra).map("".join)


def value(valid, garbage):
    """A valid value five times in six, otherwise a bad one."""
    return st.sampled_from([valid] * 5 + [garbage]).flatmap(lambda s: s)


def small(low, high):
    return value(st.integers(low, high).map(str), token)


DATA = ["A1", "A2", "B2", "A1xA1", "A3", "B3", "C3", "A1xA2"]
# shapes: up to three ranks of at most 2, or four ranks of 1
SHAPES = st.one_of(
    st.lists(st.integers(1, 2).map(str), min_size=1, max_size=3).map(",".join),
    st.just("1,1,1,1"),
)
VALUES = {
    "FILE": value(st.sampled_from(COMPLEXES), st.sampled_from(HEIGHTS + [MISSING])),
    "--heights": value(st.sampled_from(HEIGHTS), st.sampled_from(COMPLEXES + [MISSING])),
    "--degree": small(0, 3),
    "--root-datum": value(st.sampled_from(DATA), st.sampled_from(["A5", "E8", "x", "", "A1x"])),
    "--mode": value(st.sampled_from(["auto", "toric", "supplied"]), st.just("x")),
    "--base-change": value(st.just("auto"), st.just("x")),
    "--weight": value(
        st.lists(st.integers(0, 2).map(str), min_size=1, max_size=3).map(",".join),
        comma_list(token),
    ),
    "--kind": value(st.sampled_from(["P1", "Fe", "Se", "P1xP1", "P2"]), st.just("x")),
    "--r": small(1, 4),
    "--ranks": value(SHAPES, comma_list(token)),
    "--cap": value(st.integers(0, 2).map(str), st.sampled_from(["-1", "x", "1/2"])),
    "--workers": small(1, 4),
    "--d": st.sampled_from(
        ['{"01": 1}', '{"0": 1, "1": 1}', '{"01": "1/0"}', '{"9": 1}', '{"x": 1}', "[]", "{"]
    ),
    "--format": value(st.sampled_from(["json", "text"]), st.just("x")),
}
for name in ("--e", "--n", "--m", "--n-minus", "--n-plus"):
    VALUES[name] = small(0, 4)
FLAGS = {"--admissible"}
SUBCOMMANDS = {
    ("validate",): ["FILE"],
    ("sections",): ["FILE", "--degree", "--root-datum"],
    ("cohomology",): ["FILE", "--mode"],
    ("degenerate",): ["FILE", "--heights", "--base-change"],
    ("moment",): ["--root-datum", "--weight", "--admissible"],
    ("snf",): [],
    ("catalog",): ["--kind", "--e", "--n", "--m", "--n-minus", "--n-plus"],
    ("matroid", "weightset"): ["--r", "--ranks"],
    ("matroid", "subdivisions"): ["--r", "--ranks", "--cap", "--workers"],
    ("matroid", "thincell"): ["--r", "--ranks", "--d"],
}
STDIN = st.one_of(
    st.sampled_from(["[[2,4],[6,8]]", "[[1,0],[0]]", "[]", "[[]]", "x", "", "[[1.5]]", "[[true]]"]),
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=3)
    ).map(str),
)


@st.composite
def invocations(draw, command):
    """(argv, stdin text) for one subcommand."""
    options = list(SUBCOMMANDS[command])
    if draw(rarely):  # an option of another subcommand
        options.append(draw(st.sampled_from(sorted(VALUES))))
    if draw(st.booleans()):
        options.append("--format")
    argv = list(command)
    for name in draw(st.permutations(options)):
        if draw(rarely):  # a missing option or positional
            continue
        if name in FLAGS:
            argv.append(name)
        elif name == "FILE":
            argv.append(draw(VALUES[name]))
        else:
            argv += [name, draw(VALUES[name])]
    if draw(rarely):  # a stray token anywhere
        argv.insert(draw(st.integers(0, len(argv))), draw(token))
    return argv, draw(STDIN)


def _run(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS), ids=" ".join)
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_exits_cleanly_and_repeats(command, data):
    argv, stdin = data.draw(invocations(command))
    first = _run(argv, stdin)
    assert first[0] in (0, 1, 2)
    assert _run(argv, stdin) == first
