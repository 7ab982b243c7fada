"""Unit groups of surface cohomology and the K-theory rings they present.

The total Stiefel-Whitney class identifies the reduced real K-group of a
closed surface with the units 1 + x1 + x2 of its mod-2 cohomology.  The
demo enumerates those unit groups, derives the ring presentations from
products of line-bundle classes, and checks that every product with the
non-standard class (the one the cocycle family produces) vanishes.
"""

from kocom import (
    SPHERE,
    ko_presentation,
    nonorientable,
    orientable,
    surface_algebra,
    units_group,
    verify_kocom_products,
)

print("unit groups of surface cohomology")
for surface in (SPHERE, orientable(1), orientable(2), nonorientable(1), nonorientable(2), nonorientable(3)):
    group = units_group(surface_algebra(surface))
    print(f"  {surface.label:8s}: {len(group):3d} elements, {group.invariant_factors()}")

print()
print("derived K-theory ring presentations")
for surface in (SPHERE, orientable(1), orientable(2), nonorientable(2)):
    print(f"--- {surface.label} ---")
    print(ko_presentation(surface).to_text(), end="")

print()
print("products with the non-standard class vanish")
for surface in (orientable(1), nonorientable(2)):
    checks = verify_kocom_products(surface, surface_algebra(surface))
    status = "all pass" if all(c.passed for c in checks) else "MISMATCH"
    print(f"  {surface.label}: {len(checks)} checks, {status}")
    for c in checks:
        print(f"    [{c.status}] {c.check_id}")
