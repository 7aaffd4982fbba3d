"""Random `ssv` argv: every run ends in exit code 0, 1 or 2 and repeats itself.

Each example picks a subcommand, some of its options (and now and then an
option of another subcommand), and values built from the fixture paths and
random tokens: small integers, fractions including ``1/0``, letters, empty
fields and extra commas.  `cli.main` runs in-process twice; no exception may
escape it, and both runs must print the same stdout and stderr.  `--help`
is left out because argparse answers it through `SystemExit`.  Shapes of
`matroid subdivisions` stay within four ranks and a cap of 2, so that no
example runs long.

The fixture complexes are also fuzzed as documents: one to three edits
drop or duplicate cells, move vertices, change weight-group rows, break
`maximal`, or put non-numeric entries and ``1/0`` in place of numbers, and
`validate`, `cohomology` and `sections` read the result.  Such documents
drive validation through the checks it otherwise skips, and they too must
end in exit code 0, 1 or 2 without a traceback and repeat themselves.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import run_main

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


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS), ids=" ".join)
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_exits_cleanly_and_repeats(command, data):
    argv, stdin = data.draw(invocations(command))
    first = run_main(argv, stdin)
    assert first[0] in (0, 1, 2)
    assert run_main(argv, stdin) == first


# hypothesis leans to the first entry of a list: the richest complex goes first
DOCUMENTS = [json.loads(Path(path).read_text()) for path in reversed(COMPLEXES)]
JUNK = st.sampled_from(["x", "1/0", "", None, [], True, "1/2", -1, 7, "1.5"])


def _drop_cell(draw, doc):
    if doc["cells"]:
        cell = doc["cells"].pop(draw(st.integers(0, len(doc["cells"]) - 1)))
        doc["maximal"] = [m for m in doc["maximal"] if m != cell["id"]]


def _duplicate_cell(draw, doc):
    if doc["cells"]:
        cell = copy.deepcopy(draw(st.sampled_from(doc["cells"])))
        if not draw(st.booleans()):  # a fresh id, so that the copy overlaps its original
            cell["id"] += "'"
        doc["cells"].insert(draw(st.integers(0, len(doc["cells"]))), cell)


def _move_vertex(draw, doc):
    vertices = draw(st.sampled_from(doc["cells"]))["vertices"] if doc["cells"] else []
    if vertices:
        vertex = draw(st.sampled_from(vertices))
        vertex[draw(st.integers(0, len(vertex) - 1))] = draw(
            st.sampled_from(["0", "1", "2", "3", "4", "1/2", "-1"])
        )


def _edit_group(draw, doc):
    rows = draw(st.sampled_from(doc["cells"]))["weight_group"] if doc["cells"] else []
    if not rows:
        return
    i = draw(st.integers(0, len(rows) - 1))
    edit = draw(st.sampled_from(["entry", "drop", "repeat", "double", "append"]))
    if edit == "entry":
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.integers(-2, 4))
    elif edit == "drop":
        del rows[i]
    elif edit == "repeat":
        rows.append(list(rows[i]))
    elif edit == "double":
        rows[i] = [2 * x if type(x) is int else x for x in rows[i]]
    else:
        rows.append(draw(st.lists(st.integers(-2, 2), min_size=len(rows[i]), max_size=len(rows[i]))))


def _break_maximal(draw, doc):
    edit = draw(st.sampled_from(["drop", "unknown", "face", "scalar", "number"]))
    ids = [cell["id"] for cell in doc["cells"]] or ["x"]
    if edit == "drop" and doc["maximal"]:
        doc["maximal"].pop()
    elif edit == "unknown":
        doc["maximal"].append("nope")
    elif edit == "face":
        doc["maximal"].append(draw(st.sampled_from(ids)))
    elif edit == "scalar":
        doc["maximal"] = draw(st.sampled_from(ids))
    else:
        doc["maximal"].append(3)


def _junk(draw, doc):
    """A non-numeric or out-of-place value where a number belongs."""
    places = []
    for cell in doc["cells"]:
        places += [(v, j) for v in cell["vertices"] for j in range(len(v))]
        places += [(row, j) for row in cell["weight_group"] for j in range(len(row))]
    places += [(row, j) for row in doc["gamma"] for j in range(len(row))] + [(doc, "rank")]
    holder, key = draw(st.sampled_from(places))
    holder[key] = draw(JUNK)


# edits that keep the document readable come first and most often, so that
# most documents reach validation
EDITS = (_drop_cell, _duplicate_cell, _move_vertex, _edit_group) * 3 + (_break_maximal, _junk)


@st.composite
def documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for edit in draw(st.lists(st.sampled_from(EDITS), min_size=1, max_size=3)):
        if isinstance(doc.get("cells"), list) and isinstance(doc.get("maximal"), list):
            edit(draw, doc)
    return doc


DOCUMENT_OPTIONS = {
    "validate": st.just([]),
    "cohomology": st.sampled_from(["auto", "toric", "supplied"]).map(lambda m: ["--mode", m]),
    "sections": st.tuples(st.integers(0, 2), st.sampled_from([[], ["--root-datum", "A1"], ["--root-datum", "A2"]]))
    .map(lambda t: ["--degree", str(t[0])] + t[1]),
}


@pytest.mark.parametrize("command", sorted(DOCUMENT_OPTIONS))
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_documents_exit_cleanly_and_repeat(command, data):
    doc = data.draw(documents())
    options = data.draw(DOCUMENT_OPTIONS[command]) + data.draw(st.sampled_from([[], ["--format", "json"]]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)] + options
        first = run_main(argv, "")
        assert first[0] in (0, 1, 2)
        assert "Traceback" not in first[2]
        assert run_main(argv, "") == first
