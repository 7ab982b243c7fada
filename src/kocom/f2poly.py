"""Finite-dimensional quotients of polynomial algebras over the two-element
field, with monomial rewrite rules, ring maps, and total Steenrod squares.

A class is a set of normal-form monomials (coefficients live in F2, so
addition is symmetric difference).  Relations are rewrite rules sending a
forbidden monomial to one monomial or to zero, applied greedily; the rule
sets used in this package are tiny and terminating, and confluence is
exercised by the exhaustive associativity tests.  Every algebra is
truncated above a degree cap: products simply drop monomials beyond it.

A ring map keeps its generator images and each source monomial's image
once it is formed, starting from the unit at the zero monomial.  A new
monomial's image is the stored image of that monomial with one factor
fewer times that factor's generator image, so a class maps to the sum of
stored images and no monomial's image is formed twice.
The total Steenrod square is such a map: by the Cartan formula it is the
ring endomorphism determined by the squares of the generators, which are
checked against the relations when they are set.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Mapping, Sequence

Monomial = tuple[int, ...]

#: The empty monomial set that zero() and every reduction to zero share:
#: each call of frozenset() makes a new 216-byte object.
_ZERO: frozenset = frozenset()


class RelationViolationError(ValueError):
    """Raised when proposed generator images fail the source relations."""


def _exponent_vectors(degrees: Sequence[int], total: int) -> Iterator[Monomial]:
    """Exponent vectors of degree `total` (exponents weighted by `degrees`),
    in lexicographic order."""
    if not degrees:
        if total == 0:
            yield ()
        return
    for e in range(total // degrees[0] + 1):
        for rest in _exponent_vectors(degrees[1:], total - e * degrees[0]):
            yield (e, *rest)


class F2Algebra:
    """Graded-commutative F2 algebra on named generators with rewrite rules.

    generators: sequence of (name, degree) pairs.
    relations: sequence of (lhs, rhs) pairs, lhs a {name: exponent} mapping
        for the forbidden monomial and rhs one such mapping for the monomial
        it rewrites to, or None if it is zero.  Exponents are non-negative
        ints (ValueError otherwise).
    cap: top degree kept by the truncation.
    """

    def __init__(
        self,
        generators: Sequence[tuple],
        relations: Sequence[tuple] = (),
        cap: int = 6,
        name: str = "",
    ):
        self.generators = tuple((str(n), int(d)) for n, d in generators)
        self.cap = int(cap)
        self.name = name
        self._index = {n: i for i, (n, _) in enumerate(self.generators)}
        self._degrees = tuple(d for _, d in self.generators)
        self._rules = tuple(
            (self._monomial_tuple(lhs), None if rhs is None else self._monomial_tuple(rhs))
            for lhs, rhs in relations
        )
        self._reduce_cache: dict = {}
        # The total square as (generator images, images) of monomial sets,
        # as a RingMap keeps them; never classes or maps of this algebra,
        # which would refer back to it.
        self._square: tuple | None = None

    # -- monomial plumbing -------------------------------------------------

    def _monomial_tuple(self, exps: Mapping[str, int]) -> Monomial:
        mono = [0] * len(self.generators)
        for name, e in exps.items():
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponent of {name} must be a non-negative int, got {e!r}")
            mono[self._index[name]] = e
        return tuple(mono)

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(e * d for e, d in zip(mono, self._degrees))

    def monomial_str(self, mono: Monomial) -> str:
        parts = []
        for (name, _), e in zip(self.generators, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def reduce_monomial(self, mono: Monomial) -> frozenset:
        cached = self._reduce_cache.get(mono)
        if cached is not None:
            return cached
        if self.monomial_degree(mono) > self.cap:
            result = _ZERO
        else:
            result = None
            for lhs, rhs in self._rules:
                if all(m >= l for m, l in zip(mono, lhs)):
                    if rhs is None:
                        result = _ZERO
                    else:
                        result = self.reduce_monomial(
                            tuple([m - l + r for m, l, r in zip(mono, lhs, rhs)])
                        )
                    break
            if result is None:
                result = frozenset({mono})
        self._reduce_cache[mono] = result
        return result

    # -- class constructors ------------------------------------------------

    def zero(self) -> "F2Class":
        return F2Class(self, _ZERO)

    def one(self) -> "F2Class":
        return F2Class(self, frozenset({(0,) * len(self.generators)}))

    def gen(self, name: str) -> "F2Class":
        return self.cls({name: 1})

    def cls(self, *monomials: Mapping[str, int]) -> "F2Class":
        """Class with the given monomials (each a {name: exponent} mapping),
        reduced to normal form."""
        acc: set = set()
        for m in monomials:
            acc ^= self.reduce_monomial(self._monomial_tuple(m))
        return F2Class(self, frozenset(acc))

    # -- bases ---------------------------------------------------------------

    def basis(self, degree: int) -> list:
        """Normal-form basis monomials of the given degree, as classes, in
        lexicographic exponent order."""
        return [
            F2Class(self, frozenset({mono}))
            for mono in self._basis_monomials(degree)
        ]

    def basis_through(self, top: int) -> list:
        out = []
        for d in range(top + 1):
            out.extend(self.basis(d))
        return out

    def _basis_monomials(self, degree: int) -> list:
        vectors = _exponent_vectors(self._degrees, degree)
        return [m for m in vectors if self.reduce_monomial(m) == {m}]

    def dimension(self, degree: int) -> int:
        return len(self._basis_monomials(degree))

    # -- products and ring maps on monomial sets ---------------------------

    def _product(self, a: frozenset, b: frozenset) -> frozenset:
        # tuple() of a list, not of a generator: a tuple built from a
        # generator is allocated at a guessed size and shrunk, so it never
        # reuses CPython's per-length free lists and those fill up instead.
        reduce_monomial = self.reduce_monomial
        acc: set = set()
        for x in a:
            for y in b:
                acc ^= reduce_monomial(tuple([p + q for p, q in zip(x, y)]))
        return frozenset(acc)

    def _evaluate(
        self, generator_images: Sequence[frozenset], images: dict, monomials: Iterable[Monomial]
    ) -> frozenset:
        """Image of a sum of source monomials under the ring map into this
        algebra that sends source generator i to generator_images[i].
        `images` holds the map's image of each source monomial formed so
        far, the unit at the zero monomial at least, and gains those formed
        here."""
        acc: set = set()
        for mono in monomials:
            image = images.get(mono)
            if image is None:
                # One factor fewer at a time down to a stored image (the unit
                # at worst), then the factors back on, storing each image.
                stripped, m = [], mono
                while image is None:
                    i = next(j for j, e in enumerate(m) if e)
                    stripped.append((m, i))
                    m = tuple([e - (j == i) for j, e in enumerate(m)])
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
        self._square = (square.generator_images, square.images)

    def __repr__(self) -> str:
        gens = ", ".join(f"{n}:{d}" for n, d in self.generators)
        return f"F2Algebra({self.name or gens}, cap={self.cap})"


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
        if n < 0:
            raise ValueError("negative powers are not defined here")
        alg = self.algebra
        return F2Class(alg, functools.reduce(alg._product, [self.monomials] * n, alg.one().monomials))

    def _check(self, other: "F2Class") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("classes live in different algebras")

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def homogeneous_degree(self) -> int:
        degs = {self.algebra.monomial_degree(m) for m in self.monomials}
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
        keyed = sorted(
            self.monomials, key=lambda m: (self.algebra.monomial_degree(m), m)
        )
        return " + ".join(self.algebra.monomial_str(m) for m in keyed)

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
        self.images: dict = {(0,) * len(names): target.one().monomials}
        self._evaluate = functools.partial(target._evaluate, self.generator_images, self.images)
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
    for combo in itertools.combinations(classes, k):
        term = alg.one()
        for c in combo:
            term = term * c
        acc = acc + term
    return acc
