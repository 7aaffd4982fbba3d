"""The hot paths leave no cyclic garbage.

An object in a reference cycle outlives its last use until the cyclic
collector runs, so one cycle made per operation raises the peak memory of
every long run.  With the collector off, a matroid search, a toric
operation (subdivide, complete faces, validate, toric H0/H1) and a warm
in-process ``ssv validate --format json`` must leave nothing for
``gc.collect()`` to find.
"""

import contextlib
import gc
import io
from pathlib import Path

from ssvlib import cli
from ssvlib.cohomology import cohomology_invariants
from ssvlib.complexes import Cell, SSVComplex, complete_faces
from ssvlib.degeneration import regular_subdivision
from ssvlib.lattice import Lattice
from ssvlib.matroid import GradedShape, enumerate_matroid_subdivisions
from ssvlib.polyhedral import cone_over, convex_hull


def _unreachable_after(work):
    """Objects ``gc.collect()`` finds unreachable after ``work`` ran with the collector off."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def _matroid_search():
    assert len(enumerate_matroid_subdivisions(GradedShape(2, (1, 1, 1, 1)), cap=2)) == 4


def _toric_op():
    gamma = Lattice.standard(3)
    points = [(x, y) for x in range(3) for y in range(3)]
    heights = [(x * y + 2 * x) % 3 + y * y for x, y in points]
    cells = regular_subdivision(convex_hull(points), points, heights)
    wrapped = [
        Cell(f"c{i}", p, gamma.intersect_subspace(cone_over(p).rays)) for i, p in enumerate(cells)
    ]
    full = complete_faces(SSVComplex(2, gamma, wrapped, tuple(c.id for c in wrapped)))
    assert full.validate().passed
    cohomology_invariants(full, mode="toric")


def test_the_matroid_search_leaves_no_cycle():
    assert _unreachable_after(_matroid_search) == 0


def test_a_toric_operation_leaves_no_cycle():
    assert _unreachable_after(_toric_op) == 0


def _validate_json():
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "two_triangles.json"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["validate", str(fixture), "--format", "json"]) == 0
    assert '"passed": true' in out.getvalue()


def test_a_cli_report_leaves_no_cycle():
    _validate_json()  # the first call builds the cached argument parser
    assert _unreachable_after(_validate_json) == 0
