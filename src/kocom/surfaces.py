"""Mod-2 cohomology of closed surfaces, unit groups, total Stiefel-Whitney
classes, and presentations of the real K-theory ring of a surface.

The reduced real K-theory of a closed connected surface is isomorphic, via
the total Stiefel-Whitney class W(E - F) = W(E) W(F)^{-1}, to the group of
multiplicative units 1 + x1 + x2 of the ungraded cohomology ring.  That
turns every additive and multiplicative question about virtual bundles
into finite computations in the unit group: additive orders are unit
orders, and products of the line-bundle generators are evaluated through
W and the line tensor rule W(L (x) L') = 1 + w1(L) + w1(L').  The ring
presentation emitted here is the generators-and-relations description
read off those computations, in a fixed canonical normalization.

None of this walks the 2^(b1 + 1) units.  The group's shape follows from
the b1 squares of the degree-one generators, and the presentation needs
only products and squares of the generator units, because the line units
together with 1 + y2 generate the whole group.  The full unit list is
still available, lazily, as the brute-force reference for tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .bcom_o2 import (
    TCBundleData,
    a2_of_tc_bundle,
    direct_sum,
    line_data,
    tensor_line,
    tensor_rank2,
)
from .cocycles import standard_cocycle, tc_invariant
from .f2poly import F2Algebra, F2Class, RingMap
from .integral import AbelianGroup
from .report import check


@dataclass(frozen=True)
class Surface:
    """A closed connected surface: the sphere, the orientable surface of a
    given genus, or the connected sum of a given number of projective
    planes."""

    kind: str
    count: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("sphere", "orientable", "nonorientable"):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if isinstance(self.count, bool) or not isinstance(self.count, int):
            raise TypeError(f"the count must be an int, got {self.count!r}")
        if self.kind == "sphere" and self.count != 0:
            raise ValueError("the sphere carries no count")
        if self.kind != "sphere" and self.count < 1:
            raise ValueError("genus / crosscap count must be >= 1")

    @property
    def b1(self) -> int:
        """First mod-2 Betti number."""
        if self.kind == "orientable":
            return 2 * self.count
        if self.kind == "nonorientable":
            return self.count
        return 0

    @property
    def label(self) -> str:
        if self.kind == "orientable":
            return f"genus:{self.count}"
        if self.kind == "nonorientable":
            return f"rp:{self.count}"
        return "sphere"

    @classmethod
    def parse(cls, selector: str) -> "Surface":
        """Parse 'sphere' | 'genus:<g>' | 'rp:<n>'."""
        if selector == "sphere":
            return SPHERE
        for prefix, kind in (("genus:", "orientable"), ("rp:", "nonorientable")):
            if selector.startswith(prefix):
                return cls(kind, int(selector[len(prefix):]))
        raise ValueError(f"bad surface selector {selector!r}")

    def __str__(self) -> str:
        return self.label


SPHERE = Surface("sphere")


def orientable(genus: int) -> Surface:
    return Surface("orientable", genus)


def nonorientable(crosscaps: int) -> Surface:
    return Surface("nonorientable", crosscaps)


def surface_algebra(surface: Surface) -> F2Algebra:
    """The mod-2 cohomology ring, with basis {1}, the degree-1 generators,
    and the top class y2; graded dimensions (1, b1, 1).  A product of two
    degree-one generators is y2 where the cup-product pairing is 1 (a_i b_i
    for genus, a_i^2 for crosscaps) and 0 otherwise; the cap-2 truncation
    kills everything of higher degree."""
    if surface.kind == "orientable":
        names = [f"{c}{i}" for c in "ab" for i in range(1, surface.count + 1)]
        paired = {(f"a{i}", f"b{i}") for i in range(1, surface.count + 1)}
    else:
        names = [f"a{i}" for i in range(1, surface.count + 1)]
        paired = {(name, name) for name in names}
    relations = [
        ({x: 1, y: 1} if x != y else {x: 2}, {"y2": 1} if (x, y) in paired else None)
        for x, y in itertools.combinations_with_replacement(names, 2)
    ]
    gens = [(n, 1) for n in names] + [("y2", 2)]
    return F2Algebra(gens, relations, cap=2, name=f"H({surface.label.replace(':', '')})")


# -- the unit group ---------------------------------------------------------


def degree_one_names(alg: F2Algebra) -> list:
    return [name for name, d in alg.generators if d == 1]


def units(alg: F2Algebra) -> list:
    """All 2^(b1 + 1) units 1 + x1 + x2, in a fixed enumeration order."""
    names = degree_one_names(alg)
    one, y2 = alg.one(), alg.gen("y2")
    out = []
    for bits in itertools.product((0, 1), repeat=len(names)):
        x1 = alg.zero()
        for bit, name in zip(bits, names):
            if bit:
                x1 = x1 + alg.gen(name)
        for top in (0, 1):
            out.append(one + x1 + (y2 if top else alg.zero()))
    return out


def unit_order(u: F2Class) -> int:
    one = u.algebra.one()
    if u == one:
        return 1
    square = u * u
    if square == one:
        return 2
    if square * square == one:
        return 4
    raise ValueError(f"unit {u} has order > 4; not a surface unit group")


def unit_inverse(u: F2Class) -> F2Class:
    return u ** (unit_order(u) - 1)


class FiniteAbelianGroup:
    """The unit group 1 + x1 + x2 of a surface cohomology ring, read off the
    algebra without listing its elements.

    It has 2^(b1 + 1) elements and exponent <= 4, so its invariant factors
    follow from the count of elements of order <= 2, which pins down the
    number of Z/4 and Z/2 factors.  In the cap-2 ring
    (1 + x1 + x2)^2 = 1 + x1^2 and squaring is linear on H^1, so that count
    is 2^(b1 + 1 - r) with r the F2-rank of x -> x^2 from H^1 to H^2.  H^2
    is one-dimensional, so r is 1 exactly when some degree-one generator
    squares to a nonzero class.  The element list is built only on demand.
    """

    def __init__(self, alg: F2Algebra):
        self.algebra = alg
        self.degree_one = degree_one_names(alg)
        # An int, not just __len__: len() must fit a C ssize_t, so it
        # overflows once b1 >= 62.
        self.order = 2 ** (len(self.degree_one) + 1)

    @cached_property
    def elements(self) -> list:
        return units(self.algebra)

    def __len__(self) -> int:
        return self.order

    def invariant_factors(self) -> AbelianGroup:
        gens = (self.algebra.gen(name) for name in self.degree_one)
        r = 0 if all((x * x).is_zero for x in gens) else 1
        b1 = len(self.degree_one)
        return AbelianGroup.from_orders([2] * (b1 + 1 - 2 * r) + [4] * r)


def units_group(alg: F2Algebra) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(alg)


# -- KO presentations -------------------------------------------------------


@dataclass(frozen=True)
class KOGenerator:
    """A virtual generator of the reduced K-theory: a line class L - 1 with
    unit 1 + w1(L), or the sphere's rank-two class with unit 1 + y2."""

    name: str
    unit: F2Class
    w1: F2Class  # w1 of the underlying bundle (zero for the sphere's class)


@dataclass(frozen=True)
class RingPresentation:
    """Generators with additive orders plus quadratic relations.  A relation
    is a tuple of (coefficient, names) terms, names a sorted tuple of one
    or two generator names; coefficients are already reduced into
    [0, additive order) of the class the term represents."""

    generators: tuple
    additive_orders: tuple
    relations: tuple

    @staticmethod
    def term_str(coeff: int, names: tuple) -> str:
        if len(names) == 2 and names[0] == names[1]:
            body = f"{names[0]}^2"
        else:
            body = "*".join(names)
        return body if coeff == 1 else f"{coeff}*{body}"

    def relation_strings(self) -> list:
        out = []
        for order, name in zip(self.additive_orders, self.generators):
            out.append(self.term_str(order, (name,)))
        for rel in self.relations:
            out.append(" + ".join(self.term_str(c, names) for c, names in rel))
        return out

    def to_text(self) -> str:
        lines = ["generators: " + " ".join(self.generators)]
        lines.extend(self.relation_strings())
        return "\n".join(lines) + "\n"


def ko_generators(surface: Surface, alg: F2Algebra) -> list:
    if surface.kind == "sphere":
        return [KOGenerator("e1", alg.one() + alg.gen("y2"), alg.zero())]
    return [
        KOGenerator(f"l_{name}", alg.one() + alg.gen(name), alg.gen(name))
        for name in degree_one_names(alg)
    ]


def ko_presentation(surface: Surface) -> RingPresentation:
    """Presentation of the reduced real K-theory ring, derived from the unit
    group: additive orders are unit orders; a vanishing product unit gives
    a monomial relation; a product unit equal to the square of a generator
    unit gives x_i x_j + 2 x_k (one relation per matching k); products
    sharing a unit outside the generator span give pairwise sum relations.

    The product units come from W and the line rule:
    W((L-1)(L'-1)) = W(L (x) L') W(L)^{-1} W(L')^{-1} with
    W(L (x) L') = 1 + w1(L) + w1(L').  The sphere's one generator is a
    rank-two class, but it has w1 = 0 and unit u with u^2 = 1, so the
    rank-two rule and the line rule both give its square the unit 1.
    """
    alg = surface_algebra(surface)
    gens = ko_generators(surface, alg)
    names = tuple(g.name for g in gens)
    one = alg.one()
    # Every generator unit u has u^4 = 1, so its square gives its order
    # and its doubling key.
    squares = [g.unit * g.unit for g in gens]
    orders = tuple(2 if square == one else 4 for square in squares)
    doublings: dict = {}
    for k, square in enumerate(squares):
        doublings.setdefault(square, []).append(k)
    relations = []
    leftovers: dict = {}
    # The units stand in for their inverses: a genus unit and the sphere's
    # 1 + y2 are their own inverses, and every crosscap square is 1 + y2
    # with (1 + y2)^2 = 1 at cap 2, so
    # u_i^-1 u_j^-1 = (1 + y2)^2 u_i u_j = u_i u_j.
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            u = (one + gens[i].w1 + gens[j].w1) * gens[i].unit * gens[j].unit
            pair = (names[i], names[j])
            if u == one:
                relations.append(((1, pair),))
            elif u in doublings:
                relations.extend(((1, pair), (2 % orders[k], (names[k],))) for k in doublings[u])
            else:
                leftovers.setdefault(u, []).append(pair)
    for pairs in leftovers.values():
        for p, q in itertools.combinations(pairs, 2):
            relations.append(((1, p), (1, q)))
    return RingPresentation(names, orders, tuple(relations))


# -- checks for the commutative K-theory ring structure ---------------------


#: Clutching degrees of the k = 1 cocycle and of its pointwise inverse, the
#: same over every surface.  Computed at import, not cached on first use:
#: with a first-use cache a process's first pass clutches the cocycle and
#: its later passes do not, and `perfbench/run.py --trace 1` counts passes
#: whose work differs as failed operations.
NONSTANDARD_INVARIANT = tc_invariant(standard_cocycle(1))


def nonstandard_data(alg: F2Algebra) -> TCBundleData:
    """Data of the trivial plane bundle carrying the k = 1 cocycle structure,
    pulled back over the surface: the clutching degrees of the cocycle and
    its pointwise inverse (NONSTANDARD_INVARIANT) feed w2 and the twisted
    w2 mod 2."""
    y2, zero = alg.gen("y2"), alg.zero()
    return TCBundleData(
        zero,
        y2 if NONSTANDARD_INVARIANT.deg_plus % 2 else zero,
        y2 if NONSTANDARD_INVARIANT.deg_minus % 2 else zero,
    )


def collapse_pullback(sphere_alg: F2Algebra, target: F2Algebra) -> RingMap:
    """Pullback along the degree-one collapse map onto the sphere: the top
    class goes to the top class."""
    return RingMap(sphere_alg, target, {"y2": target.gen("y2")})


def _data_repr(d: TCBundleData) -> str:
    return f"w1={d.w1}, w2={d.w2}, a2={a2_of_tc_bundle(d)}"


def verify_kocom_products(surface: Surface) -> list:
    """Verify that products with the non-standard stable class vanish.

    (a) The square of the non-standard class: computed over the sphere via
    the rank-two tensor rule and transported along the collapse pullback;
    its w2 and obstruction bit vanish.  (b) For every line generator L,
    the tensor E (x) L and the sum 2L + E (E the non-standard datum) have
    identical (w1, w2, a2) data, so their difference, which represents the
    product (E - 2)(L - 1), is zero.  (c) Together with the additive
    splitting this pins the ring down as K-theory times a square-zero
    order-2 ideal.  On the sphere every product vanishes because the
    sphere is a suspension; that case is recorded, not recomputed.
    """
    tag = surface.label
    checks = []
    if surface.kind == "sphere":
        checks.append(
            check(
                f"surface-ko.products.{tag}.suspension",
                "every product in the reduced theory of a suspension vanishes; "
                "recorded as the standing input for the sphere",
                "0",
                "0",
            )
        )
        return checks

    alg = surface_algebra(surface)
    sphere_alg = surface_algebra(SPHERE)
    pullback = collapse_pullback(sphere_alg, alg)

    over_sphere = nonstandard_data(sphere_alg)
    square_sphere = tensor_rank2(over_sphere, over_sphere)
    pulled_square = square_sphere.map_along(pullback)
    data = nonstandard_data(alg)
    square = tensor_rank2(data, data)
    square_ok = (
        square.w2.is_zero
        and a2_of_tc_bundle(square) == 0
        and pulled_square.w2.is_zero
        and a2_of_tc_bundle(pulled_square) == 0
        and data == over_sphere.map_along(pullback)
    )
    checks.append(
        check(
            f"surface-ko.products.{tag}.square",
            "the square of the non-standard class vanishes: its tensor-square "
            "w2 and obstruction bit are zero over the sphere and stay zero "
            "under the collapse pullback",
            "w2=0, a2=0",
            "w2=0, a2=0" if square_ok else _data_repr(square),
        )
    )

    expected_a2 = a2_of_tc_bundle(data)
    for gen in ko_generators(surface, alg):
        line = line_data(gen.w1)
        tensored = tensor_line(data, line)
        summed = direct_sum(direct_sum(line, line), data)
        same = (
            tensored.w1 == summed.w1
            and tensored.w2 == summed.w2
            and a2_of_tc_bundle(tensored) == a2_of_tc_bundle(summed)
        )
        agree_with_twist = a2_of_tc_bundle(tensored) == expected_a2
        checks.append(
            check(
                f"surface-ko.products.{tag}.tensor-vs-sum.{gen.name}",
                f"tensoring the non-standard bundle with {gen.name}'s line and "
                f"adding two copies of that line to it give identical "
                f"(w1, w2, a2) data, with a2 the twisted top class",
                "identical, a2=twisted",
                "identical, a2=twisted"
                if same and agree_with_twist
                else f"tensor: {_data_repr(tensored)} vs sum: {_data_repr(summed)}",
            )
        )
    checks.append(
        check(
            f"surface-ko.products.{tag}.ring-structure",
            "with all products against the non-standard class zero, the ring "
            "splits as the K-theory ring times a square-zero ideal of order 2 "
            "(the splitting itself is the cited structural statement)",
            "verified products",
            "verified products" if all(c.passed for c in checks) else "mismatch",
        )
    )
    return checks
