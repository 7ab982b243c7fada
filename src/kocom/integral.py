"""Integer matrices, Smith normal form, and homology of small chain complexes.

Matrices are plain lists of lists of Python ints.  The Smith reduction is
the naive dense row/column elimination with a smallest-pivot rule and no
Hermite-form preprocessing; it is meant for small complexes (the verifier
reduces a 2 x 8 boundary, and component_complex(6) builds a 156 x 652 one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

Matrix = list[list[int]]


class NotAComplexError(ValueError):
    """Raised when consecutive boundary maps fail to compose to zero."""


def zero_matrix(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_mult(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shapes do not compose")
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zero_matrix(rows, cols)
    for i in range(rows):
        for k in range(inner):
            if a[i][k]:
                for j in range(cols):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def is_zero(mat: Sequence[Sequence[int]]) -> bool:
    return all(entry == 0 for row in mat for entry in row)


def smith_normal_form(mat: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form: positive entries d1 | d2 | ... | dr
    followed by nothing (zero diagonal entries are dropped).

    Unimodular row/column operations only: swaps, negations, and adding an
    integer multiple of one row/column to another.
    """
    work = [list(row) for row in mat]
    rows = len(work)
    cols = len(work[0]) if rows else 0
    diag: list[int] = []
    top = 0
    while top < min(rows, cols):
        if not _clear_pivot(work, top):
            break  # remaining submatrix is zero
        offender = _divisibility_offender(work, top)
        if offender is not None:
            # Fold the offending row into the pivot row; re-clearing then
            # produces a strictly smaller pivot that divides both.
            for j in range(cols):
                work[top][j] += work[offender][j]
            continue
        diag.append(work[top][top])
        top += 1
    return diag


def _clear_pivot(work: Matrix, top: int) -> bool:
    """Bring the submatrix work[top:, top:] to the form where (top, top) is
    positive and the rest of its row and column vanish.  Returns False when
    the submatrix is zero."""
    rows, cols = len(work), len(work[0])
    while True:
        pivot = _smallest_nonzero(work, top)
        if pivot is None:
            return False
        pi, pj = pivot
        work[top], work[pi] = work[pi], work[top]
        for row in work:
            row[top], row[pj] = row[pj], row[top]
        if work[top][top] < 0:
            work[top] = [-x for x in work[top]]
        d = work[top][top]
        dirty = False
        for i in range(top + 1, rows):
            if work[i][top]:
                q = work[i][top] // d
                for j in range(cols):
                    work[i][j] -= q * work[top][j]
                dirty = dirty or work[i][top] != 0
        for j in range(top + 1, cols):
            if work[top][j]:
                q = work[top][j] // d
                for i in range(rows):
                    work[i][j] -= q * work[i][top]
                dirty = dirty or work[top][j] != 0
        if not dirty:
            return True
        # Any surviving remainder lies in [1, d); the next pass picks it up
        # as a strictly smaller pivot, so this loop terminates.


def _smallest_nonzero(work: Matrix, top: int):
    best = None
    for i in range(top, len(work)):
        for j in range(top, len(work[0])):
            if work[i][j] and (best is None or abs(work[i][j]) < abs(work[best[0]][best[1]])):
                best = (i, j)
    return best


def _divisibility_offender(work: Matrix, top: int):
    d = work[top][top]
    for i in range(top + 1, len(work)):
        for j in range(top + 1, len(work[0])):
            if work[i][j] % d != 0:
                return i
    return None


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group in invariant-factor form:
    Z^free_rank + Z/d1 + ... + Z/dk with 2 <= d1 | d2 | ... | dk."""

    invariant_factors: tuple = ()
    free_rank: int = 0

    def __post_init__(self) -> None:
        factors = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        for d in factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(f"factors {a}, {b} violate the divisibility chain")
        if self.free_rank < 0:
            raise ValueError("negative free rank")

    @classmethod
    def trivial(cls) -> "AbelianGroup":
        return cls()

    @classmethod
    def from_orders(cls, orders: Sequence[int], free_rank: int = 0) -> "AbelianGroup":
        """Canonicalize an unsorted list of finite cyclic orders (>= 1)."""
        torsion = [d for d in orders if d > 1]
        if not torsion:
            return cls((), free_rank)
        diag = [[0] * len(torsion) for _ in range(len(torsion))]
        for i, d in enumerate(torsion):
            diag[i][i] = d
        factors = [d for d in smith_normal_form(diag) if d > 1]
        return cls(tuple(factors), free_rank)

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup.from_orders(
            list(self.invariant_factors) + list(other.invariant_factors),
            self.free_rank + other.free_rank,
        )

    @property
    def order(self) -> int:
        if self.free_rank:
            return 0
        result = 1
        for d in self.invariant_factors:
            result *= d
        return result

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors and self.free_rank == 0

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

    ranks[p] is the rank in degree p; boundaries[p] is the matrix of
    d_p: C_p -> C_{p-1} with shape ranks[p-1] x ranks[p], for
    1 <= p <= top degree.  d_{p-1} d_p = 0 is verified at construction.
    """

    def __init__(self, ranks: Sequence[int], boundaries: dict):
        self.ranks = tuple(int(r) for r in ranks)
        self.boundaries = {}
        for p in range(1, len(self.ranks)):
            mat = boundaries.get(p)
            if mat is None:
                mat = zero_matrix(self.ranks[p - 1], self.ranks[p])
            if len(mat) != self.ranks[p - 1] or any(len(row) != self.ranks[p] for row in mat):
                raise ValueError(f"boundary {p} has the wrong shape")
            self.boundaries[p] = [list(row) for row in mat]
        for p in range(2, len(self.ranks)):
            if self.ranks[p - 2] and self.ranks[p]:
                if not is_zero(mat_mult(self.boundaries[p - 1], self.boundaries[p])):
                    raise NotAComplexError(f"d_{p-1} d_{p} != 0")

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def boundary(self, p: int) -> Matrix:
        if 1 <= p <= self.top_degree:
            return self.boundaries[p]
        # Outside the stored range the boundary is zero (onto rank 0 or from rank 0).
        source = self.ranks[p] if 0 <= p <= self.top_degree else 0
        target = self.ranks[p - 1] if 0 <= p - 1 <= self.top_degree else 0
        return zero_matrix(target, source)

    def homology(self, p: int) -> AbelianGroup:
        """H_p = ker d_p / im d_{p+1}, by Smith normal form: the free rank is
        rank C_p - rank d_p - rank d_{p+1}, and the torsion is given by the
        invariant factors of d_{p+1} that exceed 1."""
        if not 0 <= p <= self.top_degree:
            return AbelianGroup.trivial()
        outgoing = smith_normal_form(self.boundary(p))
        incoming = smith_normal_form(self.boundary(p + 1))
        free = self.ranks[p] - len(outgoing) - len(incoming)
        torsion = [d for d in incoming if d > 1]
        return AbelianGroup.from_orders(torsion, free)

