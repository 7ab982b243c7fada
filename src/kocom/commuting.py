"""Connected components of commuting tuples in SO(3), modeled in the Klein
four-group, and the homology of the resulting component chain complex.

A commuting n-tuple in SO(3) either generates a subgroup fixing a common
axis (those tuples form the component of the trivial tuple) or generates
a copy of the Klein four-group of diagonal sign matrices; in the latter
case the component is determined by the tuple up to simultaneous
relabeling of the three involutions.  Everything about degree-0 homology
of the commuting-tuple spaces is therefore a finite computation over
tuples of the ints 0..3, the four-element group under XOR.

The face maps are the usual bar-construction ones (drop the first entry,
multiply an adjacent pair, drop the last entry); the alternating sums of
their effects on components give an integer chain complex whose degree-2
homology, together with the standard H_1(SO(3)) = Z/2 summand, computes
the second homology of the commuting classifying space of SO(3).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import cycle, permutations

from .integral import AbelianGroup, IntChainComplex, exact_int

#: Names of the four-group elements 0..3, whose product is XOR.
ELEMENT_NAMES = ("I", "c1", "c2", "c3")

#: The constant Z/2 contributed by the fundamental group of SO(3); a
#: standard input, not recomputed here.
H1_SO3 = AbelianGroup((2,))

#: The six relabelings of c1, c2, c3 as lookup tuples, the identity fixed.
RELABELINGS = tuple((0, *perm) for perm in permutations((1, 2, 3)))


def canonical_tuple(t: Sequence[int]) -> tuple[int, ...]:
    """Relabel the involutions by first appearance (c1 first, then c2, then
    c3).  Every permutation of c1, c2, c3 is an automorphism, so this is the
    lexicographically least of the six relabelings.  Entries must be exact
    ints: an int outside 0..3 raises ValueError, anything else TypeError."""
    first_seen = {0: 0}
    for e in t:
        if type(e) is not int:
            exact_int(e)
        if e not in first_seen:
            if not 0 < e < 4:
                raise ValueError(f"{e!r} is not an element of the Klein four-group")
            first_seen[e] = len(first_seen)
    return tuple(first_seen[e] for e in t)


def classify_component(t: Sequence[int]) -> tuple[int, ...]:
    """t's component label: canonical_tuple(t) if it uses c2, else all-identity."""
    label = canonical_tuple(t)
    return label if 2 in label else (0,) * len(label)


def enumerate_components(n: int) -> list[tuple[int, ...]]:
    """All component labels of commuting n-tuples, the trivial-tuple
    component first and the exotic ones in lexicographic order.  The exotic
    labels are the first-appearance tuples that use c2, generated directly
    as restricted growth strings: each entry is at most one more than the
    largest entry before it."""
    if exact_int(n) < 0:
        raise ValueError("tuple length must be non-negative")
    level = [((), 0)]  # (prefix, largest entry so far)
    for _ in range(n):
        level = [
            (prefix + (e,), max(top, e))
            for prefix, top in level
            for e in range(min(top + 2, 4))
        ]
    return [(0,) * n] + [t for t, top in level if top >= 2]


def faces(t: Sequence[int]) -> list[tuple[int, ...]]:
    """[d_0 t, ..., d_n t], listed once per tuple after one entry check
    (canonical_tuple's rule): d_0 drops the first entry, d_i multiplies
    (XORs) entries i and i+1 for 0 < i < n, d_n drops the last entry."""
    t = tuple(t)
    canonical_tuple(t)
    return _faces(t)


def _faces(t: tuple[int, ...]) -> list[tuple[int, ...]]:
    """faces(t) for a tuple t whose entries are already checked."""
    inner = [t[: i - 1] + (t[i - 1] ^ t[i],) + t[i + 1 :] for i in range(1, len(t))]
    return [t[1:], *inner, t[:-1]] if t else [()]


def face_map(i: int, t: Sequence[int]) -> tuple[int, ...]:
    """d_i on tuples, read off faces(t), which lists every face once after
    one entry check; i must be an exact int in 0..len(t)."""
    t = tuple(t)
    if not 0 <= exact_int(i) <= len(t):
        raise IndexError(f"face index {i} out of range for a tuple of length {len(t)}")
    return faces(t)[i]


def boundary_matrix(n: int) -> list[dict[int, int]]:
    """Sparse rows {column: nonzero coefficient} of the alternating sum of the
    induced face maps, from the free abelian group on the level-n components
    (columns, enumerate_components(n)) to the level-(n-1) ones (rows); each
    column is computed on the component's label, itself a canonical tuple,
    read as enumerate_components built it, with no second entry check.
    Faces land through an orbit table: every relabeling of each level-(n-1)
    label maps to its row, and a face outside every orbit generates a
    cyclic group, so it lands on the trivial row 0."""
    if exact_int(n) < 1:
        raise ValueError("boundary needs level >= 1")
    labels = enumerate_components(n - 1)
    index = {tuple(map(g.__getitem__, t)): row for row, t in enumerate(labels) for g in RELABELINGS}
    rows: list[dict[int, int]] = [{} for _ in labels]
    for col, label in enumerate(enumerate_components(n)):
        for face, sign in zip(_faces(label), cycle((1, -1))):
            row = rows[index.get(face, 0)]
            row[col] = row.get(col, 0) + sign
    return [{j: a for j, a in row.items() if a} for row in rows]


def component_complex(top: int) -> IntChainComplex:
    """The chain complex of level-0..top component groups with the
    alternating-sum boundaries.  d_n has one row per level-(n-1) component,
    so only level top is enumerated for its rank alone."""
    top_rank = len(enumerate_components(top))  # before the boundaries: a lower peak
    boundaries = {n: boundary_matrix(n) for n in range(1, top + 1)}
    ranks = [len(boundaries[n]) for n in range(1, top + 1)]
    return IntChainComplex(ranks + [top_rank], boundaries)


def component_homology(p: int) -> AbelianGroup:
    """H_p, from component_complex(p + 1), the least top holding d_{p+1};
    0 for every p < 0, as for any degree outside the complex."""
    return component_complex(max(exact_int(p) + 1, 0)).homology(p)


def h2_bcom_so3(complex_: IntChainComplex | None = None) -> AbelianGroup:
    """Second integral homology of the commuting classifying space of SO(3):
    the degree-2 homology of the component complex (complex_, a component
    complex of top 3 or more, when one is given) plus the constant
    H_1(SO(3)) = Z/2 summand.  Expected value: Z/2 + Z/2."""
    return (component_homology(2) if complex_ is None else complex_.homology(2)).direct_sum(H1_SO3)
