"""Finite-dimensional quotients of polynomial algebras over the two-element
field by monomial relations, with ring maps and total Steenrod squares.

A class is a set of normal-form monomials (coefficients live in F2, so
addition is symmetric difference).  A relation is a forbidden monomial: a
monomial is zero when some relation divides it, and normal otherwise, so
reduction needs no rule order and no rewriting.  Every algebra is
truncated above a degree cap: products simply drop monomials beyond it.

A monomial is one int holding its exponent vector (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007) and, above it, its degree.  Each generator has a field
of the same width, generator 0 the most significant one, and the degree
field sits on top, unbounded: a monomial is the sum of e_i * unit_i, where
unit_i is generator i's field unit plus deg_i in the degree field.  So int
order is degree order, then the lexicographic order of exponent vectors,
which is the order a class prints its terms in: __str__ sorts the ints as
they are.  The unit is 0.  A field holds 2*cap, and every exponent in a
relation, below one guard bit at its top.  A product of two normal
monomials is their sum, which keeps the degree field exact, as it is
linear.  The cap is tested, by one shift, before any relation, so no field
overflows, and a monomial given above the cap is zero before it is packed.
m is divisible by a relation r iff ((m | G) - r) & G == G, where G holds
every guard bit: a field below r's borrows its guard bit away, and none
borrows from the next, so only the exponent fields decide.  One walk lists
every basis through a degree: generator 0 first, a prefix of exponents is
extended only while no relation divides it, and the sorted ints are in
(degree, exponent) order.

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
from collections.abc import Collection, Iterable, Mapping, Sequence

from .integral import exact_int

Monomial = int

#: The empty monomial set that zero() and every reduction to zero share:
#: each call of frozenset() makes a new 216-byte object.
_ZERO: frozenset = frozenset()


class RelationViolationError(ValueError):
    """Raised when proposed generator images fail the source relations."""


class F2Algebra:
    """Graded-commutative F2 algebra on named generators modulo monomials.

    generators: sequence of (name, degree) pairs, the names distinct.
    relations: sequence of forbidden monomials, each a {name: exponent}
        mapping; their order does not matter.  Exponents are non-negative
        ints: TypeError for any other type, bools too, ValueError below 0.
        A relation must use some generator (ValueError otherwise), since
        the unit would kill the whole algebra.
    cap: top degree kept by the truncation.  The field width comes from
        2*cap and the relation exponents.
    """

    def __init__(
        self,
        generators: Sequence[tuple],
        relations: Sequence[Mapping[str, int]] = (),
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
        relations = [self._exponents(m) for m in relations]
        if not all(any(m.values()) for m in relations):
            raise ValueError("a relation must not be the unit")
        top = max((e for m in relations for e in m.values()), default=0)
        width = max(2 * self.cap, top).bit_length() + 1
        n = len(self.generators)
        shifts = [(n - 1 - i) * width for i in range(n)]
        self._guards = sum(1 << s + width - 1 for s in shifts)
        self._dshift = n * width  # the degree field, above the exponent fields
        self._units = tuple((1 << s) + (d << self._dshift) for s, d in zip(shifts, self._degrees))
        # (field width, exponent mask, units): how a ring map out of this
        # algebra finds and strips a factor.
        self._layout = (width, (1 << self._dshift) - 1, self._units)
        self._relations = tuple(self._pack(m.items()) for m in relations)
        self._reduce_cache: dict = {}
        # The total square as (layout, generator images, images), as a RingMap
        # keeps them: a stored RingMap would refer back to this algebra, and
        # raised char-deep peak RSS from 20.9 to 22.5-23.1 MB; as a module
        # function, _evaluate ran char-deep warm passes 1-4% slower.
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

    def monomial_str(self, mono: Monomial) -> str:
        """Its nonzero fields as name^exponent factors, generator 0 first."""
        width, mask, _ = self._layout
        parts, last, mono = [], len(self.generators) - 1, mono & mask
        while mono:
            j = (mono.bit_length() - 1) // width
            e = mono >> j * width
            mono -= e << j * width
            name = self.generators[last - j][0]
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def reduce_monomial(self, mono: Monomial) -> frozenset:
        cached = self._reduce_cache.get(mono)
        if cached is not None:
            return cached
        result = _ZERO
        if mono >> self._dshift <= self.cap:
            guards = self._guards
            for relation in self._relations:
                if ((mono | guards) - relation) & guards == guards:
                    break
            else:
                result = frozenset({mono})
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
        # fits its field; a relation dividing a prefix divides all its extensions.
        walk = [(0, min(exact_int(top), self.cap))]
        for unit, d in zip(self._units, self._degrees):
            longer = []
            for m, left in walk:
                longer.append((m, left))
                while left >= d and self.reduce_monomial(m + unit):
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
        monomials: Collection[Monomial],
    ) -> frozenset:
        """Image of a sum of source monomials under the ring map into this
        algebra that sends source generator i to generator_images[i].
        `layout` is the source's (field width, exponent mask, units),
        `images` holds the map's image of each source monomial formed so
        far, the unit at 0 at least, and gains those formed here.  One
        monomial's image is its stored frozenset itself."""
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
            if len(monomials) == 1:
                return image
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
    generator image.  Construction raises RelationViolationError unless each
    forbidden source monomial through the source cap maps to 0, target.cap <=
    source.cap, and no image term is below its generator's degree; the last
    two send every monomial above the source cap to 0."""

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
        shift, degrees = target._dshift, zip(self.generator_images, source._degrees)
        if target.cap > source.cap or any(m >> shift < d for image, d in degrees for m in image):
            raise RelationViolationError(f"the truncation above degree {source.cap} is not kept")
        for relation in source._relations:
            if relation >> source._dshift <= source.cap and self._evaluate((relation,)):
                raise RelationViolationError(f"relation {source.monomial_str(relation)} = 0 not preserved")

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
