"""Golden `ssv` reports on the shipped fixture documents and a few searches.

Each case runs `cli.main` in-process with `--format json` and compares the
exit code and the path-independent part of the report (`results`, or
`error` for a domain failure) with `fixture_reports.json`.  Regenerate the
goldens, only after checking that a change of output is intended, with

    PYTHONPATH=src python tests/test_fixture_reports.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ssvlib import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "fixture_reports.json"

COMPLEXES = ("p1xp1", "segment04", "sl2_chain", "two_triangles")
HEIGHTS = ("chain_heights", "halfint_heights")
# (r, ranks, cap) of `matroid subdivisions` and (root datum, weight) of
# `moment --admissible`: the regular-subdivision and convexity paths
SUBDIVISIONS = (("2", "1,1,1,1", "2"), ("2", "1,2,1", "2"), ("3", "2,2,2", "1"))
MOMENTS = (
    ("A2", "1,0"), ("A2", "1,1"), ("A3", "1,1,0"), ("B2", "1,1"),
    ("A1xA2", "1,1,0"), ("A3", "0,1,0"), ("C3", "1,0,1"),
)


def _cases():
    cases = {}
    for name in COMPLEXES:
        doc = f"{name}.json"
        cases[f"validate {name}"] = ["validate", doc]
        cases[f"cohomology {name}"] = ["cohomology", doc]
        for degree in range(4):
            cases[f"sections {name} {degree}"] = [
                "sections", doc, "--degree", str(degree), "--root-datum", "A1"
            ]
        for heights in HEIGHTS:
            key = f"degenerate {name} {heights}"
            cases[key] = ["degenerate", doc, "--heights", f"{heights}.json"]
            cases[f"{key} auto"] = cases[key] + ["--base-change", "auto"]
    for r, ranks, cap in SUBDIVISIONS:
        cases[f"matroid subdivisions {r};{ranks} cap {cap}"] = [
            "matroid", "subdivisions", "--r", r, "--ranks", ranks, "--cap", cap
        ]
    for datum, weight in MOMENTS:
        cases[f"moment {datum} {weight} admissible"] = [
            "moment", "--root-datum", datum, "--weight", weight, "--admissible"
        ]
    return cases


CASES = _cases()


def _run(argv):
    """Exit code and the path-independent part of the report for `argv`."""
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", "json"])
    report = json.loads(out.getvalue())
    key = "results" if "results" in report else "error"
    return {"code": code, key: report[key]}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fixture_report(golden, name):
    assert _run(CASES[name]) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: _run(argv) for name, argv in sorted(CASES.items())},
                   indent=1, sort_keys=True) + "\n"
    )
