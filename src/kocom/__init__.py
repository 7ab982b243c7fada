"""Exact invariants of commutative O(2) structures over surfaces.

Subpackages by capability:

- o2: exact O(2) arithmetic, piecewise rotation paths, winding degrees.
- cocycles: commutative cocycles on the three-set sphere cover, pointwise
  powers, clutching loops and degrees, and the two-degree invariant.
- commuting: components of commuting tuples in SO(3) and the homology of
  their component complex.
- integral: Smith normal form and homology of small integer complexes.
- f2poly / bcom_o2: mod-2 quotient algebras, Steenrod squares, the
  inversion pullback, and tensor-product characteristic-class rules.
- surfaces: surface cohomology, unit groups, and K-theory presentations.
- suites / cli: the deterministic verification harness.
"""

from .cocycles import (
    CommCocycle,
    TCInvariant,
    ValidationReport,
    bundle_class,
    clutching_degree,
    clutching_function,
    oriented_invariant,
    power_cocycle,
    so2_cocycle,
    standard_cocycle,
    tc_invariant,
    tc_sum,
    validate,
)
from .commuting import (
    boundary_matrix,
    classify_component,
    enumerate_components,
    face_map,
    h2_bcom_so3,
)
from .integral import AbelianGroup, IntChainComplex, smith_normal_form
from .o2 import (
    O2Element,
    O2Path,
    commutes,
    loop_degree,
)
from .surfaces import (
    Surface,
    SPHERE,
    ko_presentation,
    nonorientable,
    orientable,
    surface_algebra,
    units_group,
    verify_kocom_products,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "CommCocycle",
    "IntChainComplex",
    "O2Element",
    "O2Path",
    "SPHERE",
    "Surface",
    "TCInvariant",
    "ValidationReport",
    "boundary_matrix",
    "bundle_class",
    "classify_component",
    "clutching_degree",
    "clutching_function",
    "commutes",
    "enumerate_components",
    "face_map",
    "h2_bcom_so3",
    "ko_presentation",
    "loop_degree",
    "nonorientable",
    "orientable",
    "oriented_invariant",
    "power_cocycle",
    "smith_normal_form",
    "so2_cocycle",
    "standard_cocycle",
    "surface_algebra",
    "tc_invariant",
    "tc_sum",
    "units_group",
    "validate",
    "verify_kocom_products",
]
