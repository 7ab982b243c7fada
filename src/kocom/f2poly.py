"""Finite-dimensional quotients of polynomial algebras over the two-element
field, with monomial rewrite rules, ring maps, and total Steenrod squares.

A class is a set of normal-form monomials (coefficients live in F2, so
addition is symmetric difference).  Relations are rewrite rules sending a
forbidden monomial to a normal form, applied greedily; the rule sets used
in this package are tiny and terminating, and confluence is exercised by
the exhaustive associativity tests.  Every algebra is truncated above a
degree cap: products simply drop monomials beyond it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

Monomial = tuple[int, ...]


class RelationViolationError(ValueError):
    """Raised when proposed generator images fail the source relations."""


class F2Algebra:
    """Graded-commutative F2 algebra on named generators with rewrite rules.

    generators: sequence of (name, degree) pairs.
    relations: sequence of (lhs, rhs) pairs, lhs a {name: exponent} mapping
        for the forbidden monomial and rhs an iterable of such mappings for
        its normal form (empty iterable means the monomial is zero).
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
            (self._monomial_tuple(lhs), tuple(self._monomial_tuple(m) for m in rhs))
            for lhs, rhs in relations
        )
        self._reduce_cache: dict = {}
        self._squares: dict = {}

    # -- monomial plumbing -------------------------------------------------

    def _monomial_tuple(self, exps: Mapping[str, int]) -> Monomial:
        mono = [0] * len(self.generators)
        for name, e in exps.items():
            mono[self._index[name]] = int(e)
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
            result: frozenset = frozenset()
        else:
            result = None
            for lhs, rhs in self._rules:
                if all(m >= l for m, l in zip(mono, lhs)):
                    rest = tuple(m - l for m, l in zip(mono, lhs))
                    acc: set = set()
                    for target in rhs:
                        lifted = tuple(r + t for r, t in zip(rest, target))
                        acc ^= self.reduce_monomial(lifted)
                    result = frozenset(acc)
                    break
            if result is None:
                result = frozenset({mono})
        self._reduce_cache[mono] = result
        return result

    def is_normal(self, mono: Monomial) -> bool:
        return self.reduce_monomial(mono) == frozenset({mono})

    # -- class constructors ------------------------------------------------

    def zero(self) -> "F2Class":
        return F2Class(self, frozenset())

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
        monos = []

        def fill(pos: int, remaining: int, prefix: list):
            if pos == len(self.generators):
                if remaining == 0:
                    mono = tuple(prefix)
                    if self.is_normal(mono):
                        monos.append(mono)
                return
            d = self._degrees[pos]
            for e in range(remaining // d + 1):
                fill(pos + 1, remaining - e * d, prefix + [e])

        fill(0, degree, [])
        return monos

    def dimension(self, degree: int) -> int:
        return len(self._basis_monomials(degree))

    # -- Steenrod data -------------------------------------------------------

    def set_total_squares(self, squares: Mapping[str, "F2Class"]) -> None:
        """Record the total Steenrod square of each generator; the square
        extends additively and multiplicatively from these."""
        for name in squares:
            if name not in self._index:
                raise KeyError(f"unknown generator {name}")
        self._squares = {n: c.monomials for n, c in squares.items()}

    def total_square_of_generator(self, name: str) -> "F2Class":
        if name not in self._squares:
            raise KeyError(f"no Steenrod data for generator {name}")
        return F2Class(self, self._squares[name])

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
        acc: set = set()
        for a in self.monomials:
            for b in other.monomials:
                acc ^= self.algebra.reduce_monomial(tuple(x + y for x, y in zip(a, b)))
        return F2Class(self.algebra, frozenset(acc))

    def __pow__(self, n: int) -> "F2Class":
        if n < 0:
            raise ValueError("negative powers are not defined here")
        result = self.algebra.one()
        for _ in range(n):
            result = result * self
        return result

    def _check(self, other: "F2Class") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("classes live in different algebras")

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def degrees(self) -> set:
        return {self.algebra.monomial_degree(m) for m in self.monomials}

    def homogeneous_degree(self) -> int:
        degs = self.degrees()
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
    """Total Steenrod square, extended additively over monomials and
    multiplicatively over generator powers (Cartan); truncated at the
    algebra's degree cap like every other product."""
    alg = x.algebra
    acc: set = set()
    for mono in x.monomials:
        term = alg.one()
        for (name, _), e in zip(alg.generators, mono):
            if e:
                term = term * alg.total_square_of_generator(name) ** e
        acc ^= term.monomials
    return F2Class(alg, frozenset(acc))


class RingMap:
    """An algebra map determined by generator images; the source relations
    are verified to map to zero at construction time."""

    def __init__(self, source: F2Algebra, target: F2Algebra, images: Mapping[str, F2Class]):
        self.source = source
        self.target = target
        self.images = dict(images)
        missing = [n for n, _ in source.generators if n not in self.images]
        if missing:
            raise ValueError(f"missing images for {missing}")
        for lhs, rhs in source._rules:
            left = self._image_of_monomial(lhs)
            right = self.target.zero()
            for m in rhs:
                right = right + self._image_of_monomial(m)
            if left != right:
                raise RelationViolationError(
                    f"relation {source.monomial_str(lhs)} -> "
                    f"{'+'.join(source.monomial_str(m) for m in rhs) or '0'} "
                    f"not preserved"
                )

    def _image_of_monomial(self, mono: Monomial) -> F2Class:
        out = self.target.one()
        for (name, _), e in zip(self.source.generators, mono):
            if e:
                out = out * self.images[name] ** e
        return out

    def __call__(self, x: F2Class) -> F2Class:
        if x.algebra is not self.source:
            raise ValueError("class does not live in the source algebra")
        acc: set = set()
        for mono in x.monomials:
            acc ^= self._image_of_monomial(mono).monomials
        return F2Class(self.target, frozenset(acc))


def polynomial_algebra(generators: Sequence[tuple], cap: int, name: str = "") -> F2Algebra:
    """Free graded-commutative polynomial algebra (no relations) truncated
    at the cap."""
    return F2Algebra(generators, (), cap, name)


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
