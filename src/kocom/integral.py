"""Integer matrices, Smith normal form, and homology of small chain complexes.

A matrix is a list of sparse rows, one {column: nonzero int} dict per row.
The Smith reduction diagonalizes by exact row and column elimination around
a least nonzero pivot (a unit ends the search), drops each finished pivot's
row, and puts the diagonal in divisibility order by gcd/lcm exchanges.  A
chain complex checks d_{p-1} d_p = 0 on its rows, with no product matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping, Sequence


class NotAComplexError(ValueError):
    """Raised when consecutive boundary maps fail to compose to zero."""


def smith_normal_form(rows: Sequence[Mapping[int, int]]) -> list[int]:
    """Diagonal of the Smith normal form of sparse {column: entry} rows, zero
    entries ignored: positive d1 | d2 | ... | dr (zero diagonal entries are
    dropped).

    Unimodular row/column operations only: adding an integer multiple of one
    row/column to another, and dropping a pivot's row once the rest of its
    row and column vanish.
    """
    # Rows that become zero are dropped at once, so every row has a least
    # nonzero entry; a column that is zero is simply absent.
    work = [nonzero for row in rows if (nonzero := {j: a for j, a in row.items() if a})]
    diag: list[int] = []
    while work:
        pivot = None
        for i, row in enumerate(work):
            size, j = min((abs(x), j) for j, x in row.items())
            if pivot is None or size < pivot[0]:
                pivot = size, i, j
                if size == 1:
                    break
        _, pi, pj = pivot
        prow = work[pi]
        d = prow[pj]
        kept = []
        for row in work:
            if pj in row and row is not prow:
                q = row[pj] // d
                for j, b in prow.items():
                    entry = row.pop(j, 0) - q * b
                    if entry:
                        row[j] = entry
                if not row:
                    continue
            kept.append(row)
        work = kept
        if any(pj in row for row in work if row is not prow):
            continue  # each remainder is below |d|; the least is the next pivot
        rest = {j: x % d for j, x in prow.items() if x % d}
        if rest:
            # Column pj is zero off the pivot, so column operations reduce
            # the pivot row mod d without touching any other row.
            rest[pj] = d
            work = [rest if row is prow else row for row in work]
            continue
        diag.append(abs(d))
        work = [row for row in work if row is not prow]
    # Unit pivots divide everything, so only the rest need the exchanges.
    return [1] * diag.count(1) + _divisor_chain(d for d in diag if d > 1)


def _divisor_chain(values: Iterable[int]) -> list[int]:
    """Positive ints in divisibility order d1 | d2 | ..., with the same
    product: each pair is replaced by its gcd and lcm, which leaves
    diag(a, b) unchanged up to unimodular equivalence."""
    chain: list[int] = []
    for d in values:
        for i, c in enumerate(chain):
            g = gcd(c, d)
            chain[i], d = g, c * d // g
        chain.append(d)
    return chain


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group in invariant-factor form:
    Z^free_rank + Z/d1 + ... + Z/dk with 2 <= d1 | d2 | ... | dk."""

    invariant_factors: tuple = ()
    free_rank: int = 0

    def __post_init__(self) -> None:
        factors = tuple(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        for d in (*factors, self.free_rank):
            if isinstance(d, bool) or not isinstance(d, int):
                raise TypeError(f"expected an int, got {d!r}")
        for d in factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(f"factors {a}, {b} violate the divisibility chain")
        if self.free_rank < 0:
            raise ValueError("negative free rank")

    @classmethod
    def from_orders(cls, orders: Sequence[int], free_rank: int = 0) -> "AbelianGroup":
        """Canonicalize an unsorted list of finite cyclic orders (>= 1)."""
        if any(d < 1 for d in orders):
            raise ValueError(f"cyclic orders must be >= 1, got {list(orders)}")
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
    to zero.
    """

    def __init__(self, ranks: Sequence[int], boundaries: dict):
        self.ranks = tuple(int(r) for r in ranks)
        self.boundaries = {}
        if any(p not in range(1, len(self.ranks)) for p in boundaries):
            raise ValueError(f"boundary keys must lie in 1..{len(self.ranks) - 1}")
        for p in range(1, len(self.ranks)):
            rows, columns = boundaries.get(p, []), range(self.ranks[p])
            if len(rows) != self.ranks[p - 1] or any(j not in columns for row in rows for j in row):
                raise ValueError(f"boundary {p} is missing or has the wrong shape")
            self.boundaries[p] = [{j: a for j, a in row.items() if a} for row in rows]
        for p in range(2, len(self.ranks)):
            inner = self.boundaries[p]
            for row in self.boundaries[p - 1]:
                total: dict[int, int] = {}
                for k, a in row.items():
                    for j, b in inner[k].items():
                        total[j] = total.get(j, 0) + a * b
                if any(total.values()):
                    raise NotAComplexError(f"d_{p-1} d_{p} != 0")

    def homology(self, p: int) -> AbelianGroup:
        """H_p = ker d_p / im d_{p+1}, by Smith normal form: the free rank is
        rank C_p - rank d_p - rank d_{p+1}, and the torsion is given by the
        invariant factors of d_{p+1} that exceed 1."""
        if not 0 <= p < len(self.ranks):
            return AbelianGroup()
        outgoing = smith_normal_form(self.boundaries.get(p, []))
        incoming = smith_normal_form(self.boundaries.get(p + 1, []))
        free = self.ranks[p] - len(outgoing) - len(incoming)
        return AbelianGroup(tuple(d for d in incoming if d > 1), free)
