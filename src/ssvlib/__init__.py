"""Exact combinatorics of stable spherical varieties.

Moment polytope complexes with weight groups, section modules, gluing
cohomology of diagonalizable automorphism groups, one-parameter
degenerations via piecewise-linear heights, and grassmannian/matroid
weight sets -- all in exact rational arithmetic.

Exports and submodules load on first use (PEP 562): ``import ssvlib`` loads no
submodule, and ``import ssvlib.matroid`` only the layers the search stands on.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "lattice": "AbelianInvariants Lattice SmithDecomposition is_direct_summand "
    "saturation_and_index smith_normal_form",
    "polyhedral": "AffineMonoid Cone FacePoset Polytope cone_over convex_hull enumerate_faces "
    "graded_lattice_points hilbert_basis intersect_polytopes is_saturated_monoid",
    "rootdata": "RootDatum dominant_hull is_w_admissible root_datum weyl_dimension weyl_orbit",
    "complexes": "AutData AutRestriction Cell MultiplicationBehavior SSVComplex "
    "SectionModuleSummary ValidationReport complete_faces multiplication_behavior orbit_poset "
    "section_module singleton_complex sl2_catalog validate_complex vq_module_data",
    "cohomology": "DiagGroup DiagHom GluingComplex build_gluing_complex cohomology_invariants "
    "diag_cohomology",
    "degeneration": "HeightFunction base_change_exponent graph_cone regular_subdivision "
    "special_fiber_complex special_fiber_reduced",
    "matroid": "GradedShape RankFunctionData enumerate_matroid_subdivisions is_matroid_polytope "
    "thin_cell_weight_set weight_set",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if not name.startswith("_"):
        try:
            return import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
