"""Smith normal form stays where the answer is invariant factors.

Subgroups (kernels, intersections, saturations, direct summands) are read
off canonical Hermite bases.  Every module under ``src/ssvlib`` is parsed, and each
reference to ``smith_normal_form`` is located by the top-level function that
holds it: only its definition and ``invariant_factors`` in ``lattice`` and
the ``ssv snf`` command in ``cli`` may name it (the package exports it by a
string in its table of names).  The
Smith-transform helpers that subgroups no longer need stay deleted, and so
do the Fraction nullspace and the quotient invariants that weight groups no
longer need.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ssvlib"

ALLOWED = {
    ("lattice.py", "smith_normal_form"),
    ("lattice.py", "invariant_factors"),
    ("cli.py", "<module>"),
    ("cli.py", "_cmd_snf"),
}
DELETED = {
    "solve_integer", "lattice_index", "mat_inverse_unimodular", "mat_vec", "rational_nullspace",
    "quotient_invariants",
}


def _names(node):
    """Names a node defines or refers to."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.asname or node.name
        yield node.name.rsplit(".", 1)[-1]
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name


def _references(source, name):
    """(top-level function or "<module>", line) for each use of the name."""
    tree = ast.parse(source)
    for top in tree.body:
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
        for node in ast.walk(top):
            if name in set(_names(node)):
                yield scope, getattr(node, "lineno", top.lineno)


def _definitions(source):
    """Names of the functions, classes and assignment targets in the source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def test_smith_normal_form_is_used_for_invariant_factors_only():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = {
        (str(path.relative_to(SRC)), scope)
        for path in modules
        for scope, _ in _references(path.read_text(), "smith_normal_form")
    }
    assert found == ALLOWED


def test_the_smith_transform_helpers_stay_deleted():
    defined = {
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _definitions(path.read_text())
        if name in DELETED
    }
    assert defined == set()


def test_the_scan_finds_references_and_definitions():
    source = (
        "from .lattice import smith_normal_form as snf, hermite_basis\n"
        "import ssvlib.lattice\n"
        "def kernel(m):\n"
        "    return ssvlib.lattice.smith_normal_form(m)\n"
        "def factors(m):\n"
        "    return snf(m)\n"
        "class Helper:\n"
        "    def mat_vec(self):\n"
        "        solve_integer = 1\n"
    )
    assert sorted(_references(source, "smith_normal_form")) == [("<module>", 1), ("kernel", 4)]
    assert sorted(_references(source, "snf")) == [("<module>", 1), ("factors", 6)]
    assert set(_definitions(source)) >= {"mat_vec", "solve_integer"}
