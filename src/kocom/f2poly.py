"""Finite-dimensional quotients of polynomial algebras over the two-element
field, with monomial rewrite rules, ring maps, and total Steenrod squares.

A class is a set of normal-form monomials (coefficients live in F2, so
addition is symmetric difference).  Relations are rewrite rules sending a
forbidden monomial to one monomial or to zero, applied greedily; the rule
sets used in this package are tiny and terminating, and confluence is
exercised by the exhaustive associativity tests.  Every algebra is
truncated above a degree cap: products simply drop monomials beyond it.

A monomial is one int holding its exponent vector (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007) and, above it, its degree.  Each generator has a field
of the same width, generator 0 the most significant one, and the degree
field sits on top, unbounded: a monomial is the sum of e_i * unit_i, where
unit_i is generator i's field unit plus deg_i in the degree field.  So int
order is degree order, then the lexicographic order of exponent vectors,
which is the order a class prints its terms in: __str__ sorts the ints as
they are.  The unit is 0.  A field holds 2*cap plus the largest exponent on
a right side, and every exponent in a relation, below one guard bit at its
top.  A product of two normal monomials is their sum and a rewrite is
m - lhs + rhs; both keep the degree field exact, as it is linear.  The cap
is tested, by one shift, before any rule, so no field overflows, and a
monomial given above the cap is zero before it is packed.  m is divisible by
lhs iff ((m | G) - lhs) & G == G, where G holds every guard bit: a field
below lhs borrows its guard bit away, and none borrows from the next, so
only the exponent fields decide.  Each rule is indexed under the first
generator its left side uses, so a monomial tries only the rules under its
nonzero fields, in rule order, and greedy rewriting is the same as over the
whole list.  One walk lists every basis through a degree: generator 0
first, a prefix of exponents is extended only while no left side divides
it, and the sorted ints are in (degree, exponent) order.

A ring map keeps its generator images and each source monomial's image
once it is formed, starting from the unit at the zero monomial.  A new
monomial's image is the stored image of that monomial with its most
significant factor removed (one unit off the top nonzero exponent field,
in the source's layout) times that factor's generator image, so a class
maps to the sum of stored images and no monomial's image is formed twice.
The total Steenrod square is such a map: by the Cartan formula it is the
ring endomorphism determined by the squares of the generators, which are
checked against the relations when they are set.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Iterator, Mapping, Sequence

from .integral import exact_int

Monomial = int

#: The empty monomial set that zero() and every reduction to zero share:
#: each call of frozenset() makes a new 216-byte object.
_ZERO: frozenset = frozenset()


class RelationViolationError(ValueError):
    """Raised when proposed generator images fail the source relations."""


class F2Algebra:
    """Graded-commutative F2 algebra on named generators with rewrite rules.

    generators: sequence of (name, degree) pairs, the names distinct.
    relations: sequence of (lhs, rhs) pairs, lhs a {name: exponent} mapping
        for the forbidden monomial and rhs one such mapping for the monomial
        it rewrites to, or None if it is zero.  Exponents are non-negative
        ints: TypeError for any other type, bools too, ValueError below 0.
        A left side must use some generator (ValueError otherwise): each
        rule is indexed under its first one.
    cap: top degree kept by the truncation.
    """

    def __init__(
        self,
        generators: Sequence[tuple],
        relations: Sequence[tuple] = (),
        *,
        cap: int,
    ):
        self.generators = tuple((str(n), exact_int(d)) for n, d in generators)
        self.cap = exact_int(cap)
        if any(d < 1 for _, d in self.generators) or cap < 0:
            raise ValueError("generator degrees must be >= 1 and the cap >= 0")
        self._index = {n: i for i, (n, _) in enumerate(self.generators)}
        if len(self._index) != len(self.generators):
            raise ValueError("generator names must be distinct")
        self._degrees = tuple(d for _, d in self.generators)
        sides = [
            (self._exponents(lhs), None if rhs is None else self._exponents(rhs))
            for lhs, rhs in relations
        ]
        top = max((e for pair in sides for v in pair if v for e in v.values()), default=0)
        rhs_top = max((e for _, rhs in sides if rhs for e in rhs.values()), default=0)
        width = max(2 * self.cap + rhs_top, top).bit_length() + 1
        n = len(self.generators)
        shifts = [(n - 1 - i) * width for i in range(n)]
        self._guards = sum(1 << s + width - 1 for s in shifts)
        self._dshift = n * width  # the degree field, above the exponent fields
        self._units = tuple((1 << s) + (d << self._dshift) for s, d in zip(shifts, self._degrees))
        # (field width, exponent mask, units): how a ring map out of this
        # algebra finds and strips a factor.
        self._layout = (width, (1 << self._dshift) - 1, self._units)
        # Rule positions by the first generator of their left side, in rule order.
        self._rule_index: list = [[] for _ in range(n)]
        for p, (lhs, _) in enumerate(sides):
            first = min((i for i, e in lhs.items() if e), default=None)
            if first is None:
                raise ValueError("the left side of a relation must not be the unit")
            self._rule_index[first].append(p)
        self._rules = tuple(
            (self._pack(lhs.items()), None if rhs is None else self._pack(rhs.items()))
            for lhs, rhs in sides
        )
        self._reduce_cache: dict = {}
        # The total square as (layout, generator images, images), as a
        # RingMap keeps them; never classes or maps of this algebra,
        # which would refer back to it.
        self._square: tuple | None = None

    # -- monomial plumbing -------------------------------------------------

    def _exponents(self, exps: Mapping[str, int]) -> dict:
        """{generator index: exponent} of a {name: exponent} mapping."""
        out = {}
        for name, e in exps.items():
            if exact_int(e) < 0:
                raise ValueError(f"exponent of {name} must be a non-negative int, got {e!r}")
            out[self._index[name]] = e
        return out

    def _pack(self, exponents: Iterable[tuple]) -> Monomial:
        """The monomial of (generator index, exponent) pairs."""
        return sum(e * self._units[i] for i, e in exponents)

    def _fields(self, mono: Monomial) -> Iterator[tuple]:
        """(generator index, exponent) of each nonzero field, generator 0 first."""
        width, mask, _ = self._layout
        last, mono = len(self.generators) - 1, mono & mask
        while mono:
            j = (mono.bit_length() - 1) // width
            e = mono >> j * width
            mono -= e << j * width
            yield last - j, e

    def monomial_str(self, mono: Monomial) -> str:
        parts = []
        for i, e in self._fields(mono):
            name = self.generators[i][0]
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def reduce_monomial(self, mono: Monomial) -> frozenset:
        cached = self._reduce_cache.get(mono)
        if cached is not None:
            return cached
        if mono >> self._dshift > self.cap:
            result = _ZERO
        else:
            # The first rule in list order whose left side divides mono: the
            # first match under each nonzero field, the least of those.
            rules, guards = self._rules, self._guards
            first = len(rules)
            for i, _ in self._fields(mono):
                for p in self._rule_index[i]:
                    if p >= first:
                        break
                    if ((mono | guards) - rules[p][0]) & guards == guards:
                        first = p
                        break
            if first == len(rules):
                result = frozenset({mono})
            else:
                lhs, rhs = rules[first]
                result = _ZERO if rhs is None else self.reduce_monomial(mono - lhs + rhs)
        self._reduce_cache[mono] = result
        return result

    # -- class constructors ------------------------------------------------

    def zero(self) -> "F2Class":
        return F2Class(self, _ZERO)

    def one(self) -> "F2Class":
        return F2Class(self, frozenset({0}))

    def gen(self, name: str) -> "F2Class":
        return self.cls({name: 1})

    def cls(self, *monomials: Mapping[str, int]) -> "F2Class":
        """Class with the given monomials (each a {name: exponent} mapping),
        reduced to normal form."""
        acc: set = set()
        for m in monomials:
            exponents = self._exponents(m).items()
            # Zero above the cap, before packing: such exponents may not fit a field.
            if sum(e * self._degrees[i] for i, e in exponents) <= self.cap:
                acc ^= self.reduce_monomial(self._pack(exponents))
        return F2Class(self, frozenset(acc))

    # -- bases ---------------------------------------------------------------

    def basis(self, degree: int) -> list:
        """Normal-form basis monomials of the given degree, as classes, in
        lexicographic exponent order."""
        return [
            F2Class(self, frozenset({mono}))
            for mono in self._normal_monomials(degree)
            if mono >> self._dshift == degree
        ]

    def basis_through(self, top: int) -> list:
        """basis(0) + basis(1) + ... + basis(top), empty above the cap."""
        return [F2Class(self, frozenset({mono})) for mono in self._normal_monomials(top)]

    def _normal_monomials(self, top: int) -> list:
        # (normal monomial, degree left) of each prefix, bounded by the cap so every exponent
        # fits its field; a left side dividing a prefix divides all its extensions.
        walk = [(0, min(exact_int(top), self.cap))]
        for unit, d in zip(self._units, self._degrees):
            longer = []
            for m, left in walk:
                longer.append((m, left))
                while left >= d and self.reduce_monomial(m + unit) == {m + unit}:
                    m, left = m + unit, left - d
                    longer.append((m, left))
            walk = longer
        return sorted(m for m, left in walk if left >= 0)

    def dimension(self, degree: int) -> int:
        return sum(m >> self._dshift == degree for m in self._normal_monomials(degree))

    # -- products and ring maps on monomial sets ---------------------------

    def _product(self, a: frozenset, b: frozenset) -> frozenset:
        reduce_monomial = self.reduce_monomial
        acc: set = set()
        for x in a:
            for y in b:
                acc ^= reduce_monomial(x + y)
        return frozenset(acc)

    def _evaluate(
        self,
        layout: tuple,
        generator_images: Sequence[frozenset],
        images: dict,
        monomials: Iterable[Monomial],
    ) -> frozenset:
        """Image of a sum of source monomials under the ring map into this
        algebra that sends source generator i to generator_images[i].
        `layout` is the source's (field width, exponent mask, units),
        `images` holds the map's image of each source monomial formed so
        far, the unit at 0 at least, and gains those formed here."""
        width, mask, units = layout
        last = len(generator_images) - 1
        acc: set = set()
        for mono in monomials:
            image = images.get(mono)
            if image is None:
                # One step off the top nonzero field at a time down to a
                # stored image (the unit at worst), then the factors back on,
                # storing each image.
                stripped, m = [], mono
                while image is None:
                    i = last - ((m & mask).bit_length() - 1) // width
                    stripped.append((m, i))
                    m -= units[i]
                    image = images.get(m)
                for m, i in reversed(stripped):
                    image = images[m] = self._product(image, generator_images[i])
            acc ^= image
        return frozenset(acc)

    def set_total_squares(self, squares: Mapping[str, "F2Class"]) -> None:
        """Set the total Steenrod square of each generator.  The square is
        the ring endomorphism they determine, so they must respect the
        relations (RelationViolationError otherwise, and the old squares
        stay)."""
        square = RingMap(self, self, squares)
        self._square = (self._layout, square.generator_images, square.images)

    def __repr__(self) -> str:
        gens = ", ".join(f"{n}:{d}" for n, d in self.generators)
        return f"F2Algebra({gens}, cap={self.cap})"


class F2Class:
    """An element of an F2Algebra: a set of normal-form basis monomials."""

    __slots__ = ("algebra", "monomials")

    def __init__(self, algebra: F2Algebra, monomials: frozenset):
        self.algebra = algebra
        self.monomials = monomials

    def __add__(self, other: "F2Class") -> "F2Class":
        self._check(other)
        return F2Class(self.algebra, self.monomials ^ other.monomials)

    def __mul__(self, other: "F2Class") -> "F2Class":
        self._check(other)
        return F2Class(self.algebra, self.algebra._product(self.monomials, other.monomials))

    def __pow__(self, n: int) -> "F2Class":
        if exact_int(n) < 0:
            raise ValueError("negative powers are not defined here")
        if n < 2:
            return self if n else self.algebra.one()
        half = self ** (n // 2)  # square and multiply: about 2 log2(n) products
        return half * half * self if n % 2 else half * half

    def _check(self, other: "F2Class") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("classes live in different algebras")

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def homogeneous_degree(self) -> int:
        shift = self.algebra._dshift
        degs = {m >> shift for m in self.monomials}
        if len(degs) != 1:
            raise ValueError(f"class {self} is not homogeneous")
        return degs.pop()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, F2Class):
            return NotImplemented
        return self.algebra is other.algebra and self.monomials == other.monomials

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.monomials))

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        return " + ".join(self.algebra.monomial_str(m) for m in sorted(self.monomials))

    __repr__ = __str__


def total_steenrod_square(x: F2Class) -> F2Class:
    """Total Steenrod square: the ring endomorphism set by
    F2Algebra.set_total_squares, truncated at the degree cap."""
    alg = x.algebra
    if alg._square is None:
        raise KeyError(f"no Steenrod data on {alg!r}")
    return F2Class(alg, alg._evaluate(*alg._square, x.monomials))


class RingMap:
    """An algebra map determined by generator images.  It keeps the image
    of each source generator and, in `images`, of each source monomial once
    it is formed; a new monomial's image is one stored image times one
    generator image.  The source relations are verified to be preserved at
    construction time."""

    def __init__(self, source: F2Algebra, target: F2Algebra, images: Mapping[str, F2Class]):
        self.source = source
        self.target = target
        names = [n for n, _ in source.generators]
        if set(images) != set(names):
            raise ValueError(f"need images for exactly {names}, got {sorted(images)}")
        if any(images[n].algebra is not target for n in names):
            raise ValueError("images must live in the target algebra")
        self.generator_images = tuple(images[n].monomials for n in names)
        self.images: dict = {0: target.one().monomials}
        self._evaluate = functools.partial(
            target._evaluate, source._layout, self.generator_images, self.images
        )
        for lhs, rhs in source._rules:
            if self._evaluate((lhs,)) != self._evaluate(() if rhs is None else (rhs,)):
                raise RelationViolationError(
                    f"relation {source.monomial_str(lhs)} -> "
                    f"{'0' if rhs is None else source.monomial_str(rhs)} not preserved"
                )

    def __call__(self, x: F2Class) -> F2Class:
        if x.algebra is not self.source:
            raise ValueError("class does not live in the source algebra")
        return F2Class(self.target, self._evaluate(x.monomials))


def elementary_symmetric(classes: Iterable[F2Class], k: int) -> F2Class:
    """e_k of the given classes, by direct expansion over k-subsets."""
    classes = list(classes)
    if not classes:
        raise ValueError("need at least one class")
    alg = classes[0].algebra
    acc = alg.zero()
    for combo in itertools.combinations(classes, exact_int(k)):
        term = alg.one()
        for c in combo:
            term = term * c
        acc = acc + term
    return acc
