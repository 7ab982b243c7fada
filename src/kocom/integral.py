"""Integer matrices, Smith normal form, and homology of small chain complexes.

A matrix is a list of sparse rows, one {column: nonzero int} dict per row.
The Smith reduction diagonalizes by exact row and column elimination around
a pivot: the first unit of the last row holding one, else the least nonzero
entry.  Every pivot takes one sweep of the rows; its row goes back as it
was if a remainder is left in its column, or mod the pivot if that leaves
one, else the pivot joins the diagonal, in divisibility order by gcd/lcm
exchanges.  A chain complex checks d_{p-1} d_p = 0 on its rows, with no
product matrix, and reduces each boundary at most once.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from math import gcd


class NotAComplexError(ValueError):
    """Raised when consecutive boundary maps fail to compose to zero."""


def exact_int(x: object, rule: str = "expected an int") -> int:
    """x if it is an int and not a bool, else TypeError: kocom's one exact-integer rule."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{rule}, got {x!r}")
    return x


def smith_normal_form(rows: Sequence[Mapping[int, int]]) -> list[int]:
    """Diagonal of the Smith normal form of sparse {column: entry} rows, zero
    entries ignored: positive d1 | d2 | ... | dr (zero diagonal entries are
    dropped); entries must be exact ints.

    Unimodular row/column operations only: adding an integer multiple of one
    row/column to another, and dropping a pivot's row once the rest of its
    row and column vanish.  The pivot d is the first unit of the last row
    with one, else the least |entry|; one sweep takes multiples of its row
    off every other row.  Its row goes back as it was if d's column kept a
    remainder, or mod d (d kept) if that leaves one; else |d| joins the
    diagonal.
    """
    # Rows that become zero are dropped at once, so every row has a least
    # nonzero entry; a column that is zero is simply absent.
    work = [nonzero for row in rows if (nonzero := {j: a for j, a in row.items() if exact_int(a)})]
    diag: list[int] = []
    while work:
        # From the last row up: a component boundary's one dense row is row 0.
        for pi in reversed(range(len(work))):
            pj = next((j for j, x in work[pi].items() if x == 1 or x == -1), None)
            if pj is not None:
                break
        else:
            _, pi, pj = min((abs(x), i, j) for i, row in enumerate(work) for j, x in row.items())
        prow = work[pi]
        d = prow[pj]
        kept, clear = [], True
        for row in work:
            if row is prow:
                at = len(kept)  # the pivot row goes back here if it stays
                continue
            if pj in row:
                q = row[pj] // d
                for j, b in prow.items():
                    entry = row.pop(j, 0) - q * b
                    if entry:
                        row[j] = entry
                if not row:
                    continue
                clear &= pj not in row
            kept.append(row)
        work = kept
        if not clear:
            work.insert(at, prow)  # each remainder is below |d|; the least is the next pivot
        elif d != 1 and d != -1 and (rest := {j: x % d for j, x in prow.items() if x % d}):
            # Column pj is zero off the pivot, so column operations reduce
            # the pivot row mod d without touching any other row.
            rest[pj] = d
            work.insert(at, rest)
        else:
            diag.append(abs(d))
    # Unit pivots divide everything, so only the rest need the exchanges.
    return [1] * diag.count(1) + _divisor_chain(d for d in diag if d > 1)


def _divisor_chain(values: Iterable[int]) -> list[int]:
    """Positive ints in divisibility order d1 | d2 | ..., with the same
    product: each pair is replaced by its gcd and lcm, which leaves
    diag(a, b) unchanged up to unimodular equivalence."""
    chain: list[int] = []
    for d in values:
        if chain and d % chain[-1]:  # else every entry divides d, and d is appended as is
            for i, c in enumerate(chain):
                g = gcd(c, d)
                chain[i], d = g, c * d // g
        chain.append(d)
    return chain


class AbelianGroup(namedtuple("AbelianGroup", "invariant_factors free_rank")):
    """A finitely generated abelian group in invariant-factor form:
    Z^free_rank + Z/d1 + ... + Z/dk with 2 <= d1 | d2 | ... | dk."""

    __slots__ = ()

    def __new__(cls, invariant_factors: tuple = (), free_rank: int = 0) -> "AbelianGroup":
        factors = tuple(map(exact_int, invariant_factors))
        exact_int(free_rank)
        for d in factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(f"factors {a}, {b} violate the divisibility chain")
        if free_rank < 0:
            raise ValueError("negative free rank")
        return super().__new__(cls, factors, free_rank)

    @classmethod
    def from_orders(cls, orders: Iterable[int], free_rank: int = 0) -> "AbelianGroup":
        """Canonicalize finite cyclic orders (>= 1) from any iterable, read once."""
        orders = [exact_int(d) for d in orders]
        if any(d < 1 for d in orders):
            raise ValueError(f"cyclic orders must be >= 1, got {orders}")
        chain = _divisor_chain(d for d in orders if d > 1)
        return cls(tuple(d for d in chain if d > 1), free_rank)

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup.from_orders(
            list(self.invariant_factors) + list(other.invariant_factors),
            self.free_rank + other.free_rank,
        )

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


class IntChainComplex:
    """A chain complex of finitely generated free abelian groups.

    ranks[p] is the rank of C_p for 0 <= p <= top = len(ranks) - 1, and
    boundaries[p] holds d_p: C_p -> C_{p-1} for 1 <= p <= top as ranks[p-1]
    sparse rows with columns in 0..ranks[p]-1; zero entries are dropped.  A
    boundary may be left out only when its target rank is 0, and a key
    outside 1..top raises ValueError; every d_p outside 1..top is zero.
    d_{p-1} d_p = 0 is verified at construction: for each row of d_{p-1},
    the rows of d_p that its entries pick out, weighted by them, must sum
    to zero.  Ranks, keys, columns and entries must be exact ints.
    """

    def __init__(self, ranks: Sequence[int], boundaries: dict):
        self.ranks = tuple(map(exact_int, ranks))
        if any(r < 0 for r in self.ranks):
            raise ValueError(f"negative rank in {self.ranks}")
        self.boundaries = {}
        if any(exact_int(p) not in range(1, len(self.ranks)) for p in boundaries):
            raise ValueError(f"boundary keys must lie in 1..{len(self.ranks) - 1}")
        for p in range(1, len(self.ranks)):
            rows, columns = boundaries.get(p, []), range(self.ranks[p])
            keys = (exact_int(j) for row in rows for j in row)
            if len(rows) != self.ranks[p - 1] or any(j not in columns for j in keys):
                raise ValueError(f"boundary {p} is missing or has the wrong shape")
            self.boundaries[p] = [{j: a for j, a in row.items() if exact_int(a)} for row in rows]
        for p in range(2, len(self.ranks)):
            inner = self.boundaries[p]
            for row in self.boundaries[p - 1]:
                total: dict[int, int] = {}
                for k, a in row.items():
                    for j, b in inner[k].items():
                        total[j] = total.get(j, 0) + a * b
                if any(total.values()):
                    raise NotAComplexError(f"d_{p-1} d_{p} != 0")
        # Smith diagonals of d_0..d_{top+1}, each reduced once, when first needed.
        self._diagonals = {0: [], len(self.ranks): []}

    def homology(self, p: int) -> AbelianGroup:
        """H_p = ker d_p / im d_{p+1}, by Smith normal form: the free rank is
        rank C_p - rank d_p - rank d_{p+1}, and the torsion is given by the
        invariant factors of d_{p+1} that exceed 1."""
        if not 0 <= exact_int(p) < len(self.ranks):
            return AbelianGroup()
        for q in (p, p + 1):
            if q not in self._diagonals:
                self._diagonals[q] = smith_normal_form(self.boundaries[q])
        outgoing, incoming = self._diagonals[p], self._diagonals[p + 1]
        free = self.ranks[p] - len(outgoing) - len(incoming)
        return AbelianGroup(tuple(d for d in incoming if d > 1), free)
