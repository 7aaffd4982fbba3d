import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ssvlib.documents import (
    complex_to_document,
    document_to_complex,
    dumps,
    heights_to_document,
)
from ssvlib.fixtures import (
    overlapping_squares_complex,
    sl2_chain_complex,
    triangle_pair_complex,
)


def run_cli(args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "ssvlib", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    paths = {}
    paths["triangles"] = root / "triangles.json"
    paths["triangles"].write_text(dumps(complex_to_document(triangle_pair_complex())))
    paths["chain"] = root / "chain.json"
    paths["chain"].write_text(
        dumps(complex_to_document(sl2_chain_complex(), root_datum="A1"))
    )
    paths["bad"] = root / "bad.json"
    paths["bad"].write_text(dumps(complex_to_document(overlapping_squares_complex())))
    paths["garbage"] = root / "garbage.json"
    paths["garbage"].write_text("{not json")

    from ssvlib.complexes import Cell, SSVComplex
    from ssvlib.lattice import Lattice
    from ssvlib.polyhedral import convex_hull

    gamma = Lattice(2, [(1, 0), (0, 2)])
    seg = SSVComplex(1, gamma, (Cell("q", convex_hull([(0,), (4,)]), gamma),), ("q",))
    paths["segment"] = root / "segment.json"
    paths["segment"].write_text(dumps(complex_to_document(seg, root_datum="A1")))
    paths["heights"] = root / "heights.json"
    paths["heights"].write_text(dumps(heights_to_document([(0,), (2,), (4,)], [0, 0, 1])))
    from fractions import Fraction

    paths["badheights"] = root / "badheights.json"
    paths["badheights"].write_text(
        dumps(heights_to_document([(0,), (2,), (4,)], [0, Fraction(1, 2), 1]))
    )
    return paths


def test_validate_pass_and_exit_codes(docs):
    res = run_cli(["validate", str(docs["triangles"])])
    assert res.returncode == 0
    assert "passed: True" in res.stdout
    assert "cohen_macaulay: True" in res.stdout

    res = run_cli(["validate", str(docs["bad"])])
    assert res.returncode == 1
    assert "passed: False" in res.stdout

    res = run_cli(["validate", str(docs["garbage"])])
    assert res.returncode == 2

    res = run_cli(["validate", str(docs["garbage"]) + ".missing"])
    assert res.returncode == 2

    res = run_cli(["frobnicate"])
    assert res.returncode == 2


# Rank 3: f's group is the same subgroup as a's and b's restricted to f, once
# Hermite bases of three or more rows are reduced canonically; z is off apart
# and its weight group has a torsion quotient.
RANK3_DOCUMENT = """{"schema_version":"1","rank":3,"gamma":[[2,0,-1,1],[2,0,1,0],[1,-1,-1,-2],\
[-1,-1,-1,-1]],"cells":[{"id":"a","vertices":[["0","0","0"],["2","0","0"],["0","2","0"],\
["0","0","2"]],"weight_group":[[2,0,-1,1],[2,0,1,0],[1,-1,-1,-2],[-1,-1,-1,-1]]},{"id":"b",\
"vertices":[["0","0","0"],["2","0","0"],["0","2","0"],["0","0","-2"]],"weight_group":\
[[2,0,-1,1],[2,0,1,0],[1,-1,-1,-2],[-1,-1,-1,-1]]},{"id":"f","vertices":[["0","0","0"],\
["2","0","0"],["0","2","0"]],"weight_group":[[0,0,3,0],[0,2,2,0],[1,1,6,0]]},{"id":"z",\
"vertices":[["10","10","10"],["11","10","10"],["10","11","10"],["10","10","11"]],\
"weight_group":[[4,0,-2,2],[2,0,1,0],[1,-1,-1,-2],[-1,-1,-1,-1]]}],"maximal":["a","b","z"]}"""


def test_face_restrictions_compare_canonical_bases(tmp_path):
    path = tmp_path / "rank3.json"
    path.write_text(RANK3_DOCUMENT)
    res = run_cli(["validate", "--format", "json", str(path)])
    assert res.returncode == 1
    checks = {c["name"]: c for c in json.loads(res.stdout)["results"]["checks"]}
    failed = {name: c["witness"] for name, c in checks.items() if not c["passed"]}
    assert failed == {
        "weight-groups-direct-summands": "cell z weight group has torsion quotient"
    }
    assert checks["face-restrictions-agree"]["passed"]


def test_sections_golden(docs):
    res = run_cli(
        ["sections", str(docs["chain"]), "--degree", "1", "--format", "json"]
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["results"]["total_dimension"] == 9
    assert [w["weight"] for w in payload["results"]["weights"]] == [["0"], ["2"], ["4"]]


def test_cohomology_golden(docs):
    res = run_cli(["cohomology", str(docs["triangles"]), "--format", "json"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["results"]["mode"] == "supplied"
    assert payload["results"]["h0"] == {"free_rank": 2, "torsion": []}
    assert payload["results"]["h1"] == {"free_rank": 0, "torsion": []}
    assert payload["results"]["h1_trivial"] is True

    res = run_cli(["cohomology", str(docs["triangles"]), "--mode", "toric", "--format", "json"])
    payload = json.loads(res.stdout)
    assert payload["results"]["h0"]["free_rank"] == 4


def test_degenerate_flow(docs):
    res = run_cli(
        ["degenerate", str(docs["segment"]), "--heights", str(docs["heights"]), "--format", "json"]
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["results"]["reduced"] is True
    assert payload["results"]["fiber"]["passes_validation"] is True
    assert payload["results"]["fiber"]["maximal"] == ["c0", "c1"]

    res = run_cli(
        ["degenerate", str(docs["segment"]), "--heights", str(docs["badheights"]), "--format", "json"]
    )
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["results"]["reduced"] is False
    assert payload["results"]["base_change_exponent"] == 2
    assert payload["results"]["witness"] is not None

    res = run_cli(
        [
            "degenerate",
            str(docs["segment"]),
            "--heights",
            str(docs["badheights"]),
            "--base-change",
            "auto",
            "--format",
            "json",
        ]
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["results"]["applied_base_change"] == 2
    assert payload["results"]["fiber"]["passes_validation"] is True


def test_matroid_commands():
    res = run_cli(["matroid", "weightset", "--r", "2", "--ranks", "1,1,1,1", "--format", "json"])
    assert res.returncode == 0
    assert json.loads(res.stdout)["results"]["count"] == 6

    res = run_cli(
        ["matroid", "subdivisions", "--r", "2", "--ranks", "1,1,1,1", "--format", "json"]
    )
    payload = json.loads(res.stdout)
    assert payload["results"]["count"] == 4

    res = run_cli(
        ["matroid", "thincell", "--r", "2", "--ranks", "1,1,1,1", "--d", '{"01": 1}', "--format", "json"]
    )
    payload = json.loads(res.stdout)
    assert payload["results"]["count"] == 5
    assert payload["results"]["full"] is True

    res = run_cli(["matroid", "thincell", "--r", "2", "--ranks", "1,1,1,1", "--d", "{oops"])
    assert res.returncode == 2

    res = run_cli(
        ["matroid", "thincell", "--r", "2", "--ranks", "1,1,1,1", "--d", '{"": 1}']
    )
    assert res.returncode == 1  # boundary condition d(empty) = 0 violated


def test_thin_cell_past_the_hull_dimension_cap():
    # eight positions: the thin cell builds no hull and no cone, so the hull
    # cap of six does not apply
    res = run_cli(
        ["matroid", "thincell", "--r", "4", "--ranks", "1,1,1,1,1,1,1,1",
         "--d", '{"0123": 1, "4567": 1}', "--format", "json"]
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["results"]["count"] == 68
    assert payload["results"]["full"] is True
    assert payload["results"]["witness"] is None


def test_moment_command():
    res = run_cli(
        ["moment", "--root-datum", "A2", "--weight", "1,0", "--admissible", "--format", "json"]
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["results"]["orbit_size"] == 3
    assert ["0", "1/2"] in payload["results"]["hull_vertices"]
    assert payload["results"]["dimension"] == 3
    assert payload["results"]["orbit_hull_admissible"] is True

    res = run_cli(["moment", "--root-datum", "A1", "--weight", "3", "--format", "json"])
    payload = json.loads(res.stdout)
    assert payload["results"]["hull_vertices"] == [["0"], ["3"]]


def test_negative_weight_needs_the_equals_form():
    # argparse reads "-1,1" after a space as an option, not as the value
    res = run_cli(["moment", "--root-datum", "A2", "--weight=-1,1"])
    assert res.returncode == 1
    assert "not dominant" in res.stdout
    res = run_cli(["moment", "--root-datum", "A2", "--weight", "-1,1"])
    assert res.returncode == 2
    assert res.stderr == "usage error: argument --weight: expected one argument\n"


def test_snf_command():
    res = run_cli(["snf", "--format", "json"], stdin="[[2, 4], [6, 8]]")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["results"]["diag"] == [2, 4]

    res = run_cli(["snf"], stdin="oops")
    assert res.returncode == 2
    res = run_cli(["snf"], stdin='[[1, "x"]]')
    assert res.returncode == 2


def test_catalog_command(tmp_path):
    res = run_cli(["catalog", "--kind", "P1xP1", "--m", "2", "--n", "1"])
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    complex_, label = document_to_complex(doc)
    assert label == "A1"
    assert complex_.validate().passed
    cell = complex_.maximal_cells()[0]
    assert [v[0] for v in cell.polytope.vertices] == [1, 3]

    res = run_cli(["catalog", "--kind", "Fe", "--e", "2", "--n-minus", "3", "--n-plus", "4"])
    assert res.returncode == 1  # divisibility violated: domain failure

    res = run_cli(["catalog", "--kind", "Nope", "--n", "1"])
    assert res.returncode == 2  # argparse rejects the choice


def test_round_trip_documents(docs):
    for name in ("triangles", "chain", "segment"):
        raw = json.loads((docs[name]).read_text())
        complex_, label = document_to_complex(raw)
        again = complex_to_document(complex_, root_datum=label)
        complex2, label2 = document_to_complex(again)
        assert label2 == label
        assert complex2.gamma == complex_.gamma
        assert {c.id for c in complex2.cells} == {c.id for c in complex_.cells}
        for c in complex_.cells:
            assert complex2.cell(c.id).polytope == c.polytope
            assert complex2.cell(c.id).weight_group == c.weight_group
        assert dumps(again) == dumps(complex_to_document(complex2, root_datum=label2))


def test_determinism_across_runs(docs):
    for args in (
        ["validate", str(docs["triangles"]), "--format", "json"],
        ["cohomology", str(docs["triangles"]), "--format", "json"],
        ["sections", str(docs["chain"]), "--degree", "2"],
        ["matroid", "subdivisions", "--r", "2", "--ranks", "1,1,1,1", "--format", "json"],
        ["catalog", "--kind", "P2", "--n", "2"],
    ):
        first = run_cli(args)
        second = run_cli(args)
        third = run_cli(args)
        assert first.stdout == second.stdout == third.stdout
        assert first.returncode == second.returncode == third.returncode


def test_matroid_thread_count_determinism():
    base = ["matroid", "subdivisions", "--r", "2", "--ranks", "1,1,1,1", "--format", "json"]
    one = run_cli(base + ["--workers", "1"])
    four = run_cli(base + ["--workers", "4"])
    assert json.loads(one.stdout)["results"] == json.loads(four.stdout)["results"]


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
P1XP1 = str(FIXTURES / "p1xp1.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["sections", P1XP1, "--degree", "-1", "--root-datum", "A1"],
        ["matroid", "weightset", "--r", "5", "--ranks", "1,1"],
        ["matroid", "weightset", "--r", "1", "--ranks", "0,1"],
        ["matroid", "weightset", "--r", "1", "--ranks", "1,x"],
        ["matroid", "subdivisions", "--r", "2", "--ranks", "1,1,1", "--cap", "-1"],
        ["moment", "--root-datum", "A2", "--weight", "1,x"],
        ["moment", "--root-datum", "A2", "--weight", "1/0,1"],
        ["matroid", "thincell", "--r", "2", "--ranks", "1,1,1,1", "--d", '{"01": "1/0"}'],
    ],
)
def test_bad_parameters_are_usage_errors(argv):
    res = run_cli(argv)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("usage error:")
    assert res.stderr.count("\n") == 1


def test_out_file(docs, tmp_path):
    out = tmp_path / "report.json"
    res = run_cli(["validate", str(docs["triangles"]), "--format", "json", "--out", str(out)])
    assert res.returncode == 0
    assert res.stdout == ""
    payload = json.loads(out.read_text())
    assert payload["results"]["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", P1XP1],
        # a domain failure writes its report through the same path
        ["matroid", "thincell", "--r", "2", "--ranks", "1,1,1,1", "--d", '{"": 1}'],
    ],
)
def test_out_file_that_cannot_be_opened_is_a_document_error(argv, tmp_path):
    out = tmp_path / "missing" / "report.json"
    res = run_cli(argv + ["--out", str(out)])
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"document error: cannot write {out}: No such file or directory\n"
    assert not out.parent.exists()


def test_shipped_fixture_documents_round_trip():
    from ssvlib.documents import document_to_heights, heights_to_document, load_json

    root = Path(__file__).resolve().parent.parent / "fixtures"
    complexes = ["two_triangles.json", "sl2_chain.json", "p1xp1.json", "segment04.json"]
    for name in complexes:
        raw = load_json(str(root / name))
        complex_, label = document_to_complex(raw)
        assert complex_.validate().passed
        again = complex_to_document(complex_, root_datum=label)
        assert dumps(again) == (root / name).read_text()
    for name in ["chain_heights.json", "halfint_heights.json"]:
        raw = load_json(str(root / name))
        points, heights = document_to_heights(raw)
        assert dumps(heights_to_document(points, heights)) == (root / name).read_text()


def test_sections_root_datum_of_larger_rank_is_a_usage_error():
    res = run_cli(["sections", P1XP1, "--degree", "1", "--root-datum", "B2"])
    assert res.returncode == 2
    assert res.stderr == "usage error: weights have 1 coordinates, root datum rank is 2\n"


def run_main(argv, stdin=None):
    """`cli.main` in this process: (exit code, stdout, stderr)."""
    from ssvlib import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _edited_two_triangles(tmp_path, name, edit):
    doc = json.loads((FIXTURES / "two_triangles.json").read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(dumps(doc))
    return str(path)


def test_parser_reuse_matches_a_fresh_parser_per_call(tmp_path):
    from ssvlib.cli import build_parser

    triangles = str(FIXTURES / "two_triangles.json")
    segment = str(FIXTURES / "segment04.json")
    halfint = str(FIXTURES / "halfint_heights.json")
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    duplicated = _edited_two_triangles(
        tmp_path, "dup.json", lambda d: d["cells"].append(d["cells"][0])
    )
    calls = [
        # (argv, stdin, exit code)
        (["--format", "json", "validate", triangles], None, 0),
        (["validate", triangles, "--format", "json"], None, 0),
        (["sections", str(FIXTURES / "sl2_chain.json"), "--degree", "1"], None, 0),
        (["cohomology", triangles, "--mode", "toric"], None, 0),
        (["degenerate", segment, "--heights", halfint], None, 1),
        (["--format", "json", "degenerate", segment, "--heights", halfint, "--base-change", "auto"], None, 0),
        (["matroid", "weightset", "--r", "2", "--ranks", "1,1,1,1"], None, 0),
        (["matroid", "subdivisions", "--r", "2", "--ranks", "1,1,1,1", "--cap", "1"], None, 0),
        (["matroid", "thincell", "--r", "2", "--ranks", "1,1,1,1", "--d", '{"01": 1}', "--format", "json"], None, 0),
        (["moment", "--root-datum", "A2", "--weight", "1,0", "--admissible"], None, 0),
        (["snf", "--format", "json"], "[[2, 4], [6, 8]]", 0),
        (["catalog", "--kind", "P1xP1", "--m", "2", "--n", "1"], None, 0),
        (["--format", "json", "catalog", "--kind", "Fe", "--e", "2", "--n-minus", "3", "--n-plus", "4"], None, 1),
        (["moment", "--root-datum", "A2", "--weight", "-1,1"], None, 2),
        (["frobnicate"], None, 2),
        (["validate", str(garbage)], None, 2),
        (["validate", duplicated, "--format", "json"], None, 2),
        (["validate", triangles], None, 0),
    ]

    build_parser.cache_clear()
    first = [run_main(argv, stdin) for argv, stdin, _ in calls]
    second = [run_main(argv, stdin) for argv, stdin, _ in calls]
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2 * len(calls) - 1)

    reference = []
    for argv, stdin, _ in calls:
        build_parser.cache_clear()
        reference.append(run_main(argv, stdin))
    assert first == second == reference
    assert [code for code, _, _ in first] == [code for _, _, code in calls]


@pytest.mark.parametrize(
    "edit, stderr",
    [
        (
            lambda d: d["cells"].append(d["cells"][0]),
            "document error: cells[7].id: duplicate cell id 't1'\n",
        ),
        (
            lambda d: d["maximal"].append("nope"),
            "document error: maximal[2]: maximal id 'nope' is not a cell\n",
        ),
    ],
    ids=["duplicate-cell-id", "unknown-maximal-id"],
)
def test_complex_errors_name_the_field_at_fault(tmp_path, edit, stderr):
    path = _edited_two_triangles(tmp_path, "edited.json", edit)
    assert run_main(["validate", path]) == (2, "", stderr)
