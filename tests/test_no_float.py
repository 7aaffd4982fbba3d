"""Arithmetic in ssvlib stays exact: no module holds a float.

Every module under ``src/ssvlib`` is parsed, and any float literal or call
of ``float`` fails the test.  Rounding a Fraction with ``math.floor`` or
``math.ceil`` stays allowed: it returns an int.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ssvlib"


def _floats(source):
    """(line, what) for each float literal and float(...) call in the source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, repr(node.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            yield node.lineno, "float(...)"


def test_modules_hold_no_float():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in modules
        for line, what in _floats(path.read_text())
    ]
    assert found == []


def test_the_scan_finds_literals_and_calls():
    source = "import math\nx = 0.5\ny = float(2)\nz = math.floor(x) + math.ceil(x)\n"
    assert sorted(_floats(source)) == [(2, "0.5"), (3, "float(...)")]
