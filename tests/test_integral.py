"""Smith normal form against the sympy oracle, and homology of small
integer complexes."""

import enum
import random
import re
from math import gcd

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from kocom.bcom_o2 import bcom_o2_algebra
from kocom.cocycles import oriented_invariant, power_cocycle, so2_cocycle, standard_cocycle
from kocom.commuting import boundary_matrix, component_homology, enumerate_components
from kocom.integral import (
    AbelianGroup,
    IntChainComplex,
    NotAComplexError,
    _divisor_chain,
    exact_int,
    smith_normal_form,
)


def to_rows(mat):
    """A dense matrix as the sparse rows kocom uses: {column: nonzero}."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def to_dense(sparse, cols):
    return [[row.get(j, 0) for j in range(cols)] for row in sparse]


def dense_boundary(n):
    return to_dense(boundary_matrix(n), len(enumerate_components(n)))


def mat_mult(a, b):
    """Dense integer matrix product, the oracle for the d.d = 0 check."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shapes do not compose")
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k]:
                for j in range(cols):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def oracle_diagonal(mat):
    if not mat or not mat[0]:
        return []
    diag = sympy_snf(Matrix(mat))
    out = []
    for i in range(min(diag.rows, diag.cols)):
        entry = abs(int(diag[i, i]))
        if entry:
            out.append(entry)
    return sorted(out)


def test_snf_frozen_examples():
    assert smith_normal_form(to_rows([[1, 1]])) == [1]
    assert smith_normal_form(to_rows([[2, 4], [6, 8]])) == [2, 4]
    assert smith_normal_form(to_rows([[0, 0], [0, 0]])) == []
    # the level-3 boundary shape that matters downstream
    mat = [
        [0, 0, 0, 0, 0, 0, 2, -2],
        [0, 0, 0, 0, 0, 0, -2, 2],
    ]
    assert smith_normal_form(to_rows(mat)) == [2]


def test_snf_divisibility_chain():
    assert smith_normal_form(to_rows([[2, 0], [0, 3]])) == [1, 6]
    # unit pivots mixed among non-units, in the diagonal and in pivot order
    diagonal = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, -1]]
    assert smith_normal_form(to_rows(diagonal)) == [1, 1, 1, 6]
    # pivots 2, then 3, then a unit left over by the elimination
    assert smith_normal_form(to_rows([[2, 0, 0], [0, 3, 3], [0, 3, 4]])) == [1, 1, 6]


def test_snf_against_sympy_oracle():
    rng = random.Random(1729)
    dense = []
    for _ in range(120):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 6)
        dense.append([[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)])
    # Sparse, and no entry is a unit: every unit pivot comes from a remainder.
    sparse = []
    for _ in range(120):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 11)
        entries = (0, 0, 0, 2, -2, 3, -3, 4, -4, 6)
        sparse.append([[rng.choice(entries) for _ in range(cols)] for _ in range(rows)])
    boundaries = [dense_boundary(n) for n in range(1, 7)]
    for mat in dense + sparse + boundaries:
        ours = smith_normal_form(to_rows(mat))
        # Explicit zero entries are dropped on entry.
        assert smith_normal_form([dict(enumerate(row)) for row in mat]) == ours
        assert sorted(ours) == ours  # ascending by divisibility implies sorted
        assert ours == sorted(ours)
        assert ours == oracle_diagonal(mat), mat
        for a, b in zip(ours, ours[1:]):
            assert b % a == 0


def test_snf_pivot_order_leaves_the_diagonal():
    """Sparse matrices with a dense first row, like a component boundary's
    trivial row: the diagonal agrees with sympy and with the same rows
    reversed and shuffled.  The unit-free ones start on the least-entry
    fallback."""
    rng = random.Random(2718)
    cases = [[[2, 4, -2, 6], [0, 3, 0, -3], [2, 0, 2, 0]]]
    for units in (True,) * 24 + (False,) * 8:
        rows, cols = rng.randrange(2, 8), rng.randrange(2, 9)
        nonzero = (1, -1, 2, -2, 3, -3) if units else (2, -2, 3, -3)
        sparse = (0,) * 6 + nonzero
        mat = [[rng.choice(nonzero) for _ in range(cols)]]
        mat += [[rng.choice(sparse) for _ in range(cols)] for _ in range(rows - 1)]
        cases.append(mat)
    # The last row's unit pivot has other units and non-units in its column:
    # its one sweep drops several rows (multiples of the pivot row), and the
    # rows left over are unit-free, so a non-unit pivot comes next.
    cases.append([[0, 0, 2, 4], [2, 4, 0, 0], [-1, -2, 0, 0], [3, 6, 4, 2], [1, 2, 0, 0]])
    cases.append([[2, 0, 4, 6], [1, 0, 0, 2], [-3, 2, 0, -6], [1, 0, 0, 2], [-1, 0, 0, -2]])
    for _ in range(12):
        cols = rng.randrange(3, 7)
        pivot = [rng.choice((1, -1))] + [rng.choice((0, 2, -2, 3)) for _ in range(cols - 1)]
        mat = []
        for _ in range(rng.randrange(2, 6)):
            a = rng.choice((1, -1, 2, -2, 3))
            if rng.random() < 0.5:
                extra = [0] * cols  # a multiple of the pivot row, cleared at once
            else:
                extra = [0] + [rng.choice((0, 0, 2, -2, 3, -4)) for _ in range(cols - 1)]
            mat.append([a * x + y for x, y in zip(pivot, extra)])
        cases.append(mat + [pivot])
    # One of each outcome of a non-unit pivot step: its column keeps a
    # remainder, so the pivot row goes back unchanged; its row keeps a
    # remainder mod d, so the reduced row goes back; both clear, so |d|
    # joins the diagonal.
    for mat, diagonal in (([[2, 2], [3, 0]], [1, 6]), ([[2, 3]], [1]), ([[2, 4]], [2])):
        assert smith_normal_form(to_rows(mat)) == diagonal, mat
        cases.append(mat)
    for mat in cases:
        rows = to_rows(mat)
        ours = smith_normal_form(rows)
        assert rows == to_rows(mat), mat  # the kernel reduces copies
        assert ours == oracle_diagonal(mat), mat
        assert smith_normal_form(to_rows(mat[::-1])) == ours, mat
        shuffled = mat[:]
        rng.shuffle(shuffled)
        assert smith_normal_form(to_rows(shuffled)) == ours, mat


def quadratic_divisor_chain(values):
    """The divisor chain with every value exchanged against the whole chain."""
    chain = []
    for d in values:
        for i, c in enumerate(chain):
            g = gcd(c, d)
            chain[i], d = g, c * d // g
        chain.append(d)
    return chain


def test_divisor_chain_matches_the_full_exchange():
    rng = random.Random(0)
    orders = [2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 24, 36]
    for _ in range(20_000):
        values = [rng.choice(orders) for _ in range(rng.randrange(9))]
        assert _divisor_chain(values) == quadratic_divisor_chain(values), values


def test_abelian_group_canonicalization():
    assert AbelianGroup.from_orders([2, 3]).invariant_factors == (6,)
    assert AbelianGroup.from_orders([2, 2]).invariant_factors == (2, 2)
    assert AbelianGroup.from_orders([4, 2, 2]).invariant_factors == (2, 2, 4)
    assert AbelianGroup.from_orders([4, 6]).invariant_factors == (2, 12)
    assert AbelianGroup.from_orders([2, 3, 4]).invariant_factors == (2, 12)
    assert AbelianGroup.from_orders([1, 1]) == AbelianGroup()
    assert str(AbelianGroup.from_orders([2, 4], free_rank=1)) == "Z + Z/2 + Z/4"
    assert str(AbelianGroup()) == "0"
    # Any iterable, read once: a generator gives the same group as its list.
    assert AbelianGroup.from_orders(iter([2, 4])) == AbelianGroup.from_orders([2, 4])
    assert str(AbelianGroup.from_orders(d for d in (4, 2))) == "Z/2 + Z/4"
    for bad in ([0], [0, 2], [2, -3]):
        with pytest.raises(ValueError):
            AbelianGroup.from_orders(bad)


def test_abelian_group_validation():
    for args in (((3, 2),), ((2, 4, 6),), ((1,),), ((2,), -1)):
        with pytest.raises(ValueError):
            AbelianGroup(*args)
    # The factors are stored as a tuple whatever sequence they came in.
    assert AbelianGroup([2, 4], 1).invariant_factors == (2, 4)


def test_abelian_group_takes_ints_only():
    for args in (((2,), 1.5), ((2.7,),), ((2,), True), ((2.0, 4),)):
        with pytest.raises(TypeError):
            AbelianGroup(*args)


def test_direct_sum():
    a = AbelianGroup((2,))
    assert str(a.direct_sum(a)) == "Z/2 + Z/2"
    b = AbelianGroup((4,))
    assert a.direct_sum(b).invariant_factors == (2, 4)
    assert a.direct_sum(AbelianGroup(free_rank=2)).free_rank == 2


def test_chain_complex_rejects_nonzero_composite():
    with pytest.raises(NotAComplexError):
        IntChainComplex([1, 1, 1], {1: to_rows([[1]]), 2: to_rows([[1]])})


def test_composite_check_against_dense_product():
    rng = random.Random(4104)
    entries = (0, 0, 0, 0, 1, -1, 2, -2)

    def sparse(rows, cols):
        return [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]

    pairs = []
    for _ in range(300):
        r0, r1, r2 = rng.randrange(1, 5), rng.randrange(1, 6), rng.randrange(1, 6)
        pairs.append((sparse(r0, r1), sparse(r1, r2)))
    for _ in range(60):
        # [M | M] times [C; -C] is zero whatever M and C are.
        r0, half, r2 = rng.randrange(1, 5), rng.randrange(1, 4), rng.randrange(1, 6)
        m, c = sparse(r0, half), sparse(half, r2)
        pairs.append(([row + row for row in m], c + [[-x for x in row] for row in c]))
    pairs.extend((dense_boundary(n - 1), dense_boundary(n)) for n in range(2, 6))
    outcomes = set()
    for outer, inner in pairs:
        ranks = [len(outer), len(inner), len(inner[0])]
        composite_is_zero = not any(any(row) for row in mat_mult(outer, inner))
        outcomes.add(composite_is_zero)
        if composite_is_zero:
            IntChainComplex(ranks, {1: to_rows(outer), 2: to_rows(inner)})
        else:
            with pytest.raises(NotAComplexError):
                IntChainComplex(ranks, {1: to_rows(outer), 2: to_rows(inner)})
    assert outcomes == {True, False}


def test_chain_complex_requires_boundaries_into_nonzero_rank():
    with pytest.raises(ValueError):
        IntChainComplex([1, 1], {})
    with pytest.raises(ValueError):
        IntChainComplex([2, 1, 1], {2: to_rows([[1]])})
    with pytest.raises(ValueError):
        IntChainComplex([1, 2], {1: to_rows([[1, 0, 1]])})  # a column past rank C_1
    # A boundary into rank 0 may be left out.
    assert str(IntChainComplex([0, 2], {}).homology(1)) == "Z^2"


def test_homology_outside_the_stored_degrees_is_zero():
    circle = IntChainComplex([2, 2], {1: to_rows([[1, -1], [-1, 1]])})
    assert str(circle.homology(-1)) == "0"
    assert str(circle.homology(2)) == "0"


def test_chain_complex_homology_examples():
    # a single Z in degree 0 with no boundaries
    single = IntChainComplex([1], {})
    assert str(single.homology(0)) == "Z"
    # zero complex
    zero = IntChainComplex([0, 0], {1: []})
    assert zero.homology(0) == AbelianGroup()
    # Z --2--> Z has H_0 = Z/2, H_1 = 0
    doubling = IntChainComplex([1, 1], {1: to_rows([[2]])})
    assert str(doubling.homology(0)) == "Z/2"
    assert doubling.homology(1) == AbelianGroup()


def test_chain_complex_circle():
    # two vertices, two edges glued into a circle
    d1 = [[1, -1], [-1, 1]]
    circle = IntChainComplex([2, 2], {1: to_rows(d1)})
    assert str(circle.homology(0)) == "Z"
    assert str(circle.homology(1)) == "Z"


def test_sparse_rows_edge_cases():
    # Explicit zeros are dropped; {0: 0} is a zero row, not a pivot.
    assert smith_normal_form([{0: 0}]) == []
    assert smith_normal_form([{}, {0: 0, 3: 2}, {}]) == [2]
    complex_ = IntChainComplex([1, 2], {1: [{0: 0, 1: 3}]})
    assert complex_.boundaries[1] == [{1: 3}]
    assert str(complex_.homology(0)) == "Z/3"
    # Empty rows are allowed.
    assert str(IntChainComplex([2, 1], {1: [{}, {0: 2}]}).homology(0)) == "Z + Z/2"
    # Column keys index 0..rank - 1, and there is one row per target basis element.
    for bad in ({-1: 1}, {2: 1}, {0: 1, 5: 0}):
        with pytest.raises(ValueError):
            IntChainComplex([1, 2], {1: [bad]})
    with pytest.raises(ValueError):
        IntChainComplex([2, 1], {1: [{0: 1}]})
    # Boundary keys lie in 1..top; nothing outside is silently dropped.
    for ranks, boundaries in (
        ([1], {1: [{0: 5}]}),
        ([1, 1], {1: [{0: 1}], 2: []}),
        ([1, 1], {1: [{0: 1}], 0: []}),
        ([0, 1], {-1: []}),
        ([], {1: []}),
    ):
        with pytest.raises(ValueError):
            IntChainComplex(ranks, boundaries)
    # Ranks are exact non-negative ints, checked at construction.
    for bad in (2.7, "3", True):
        with pytest.raises(TypeError):
            IntChainComplex([bad], {})
        with pytest.raises(TypeError):
            IntChainComplex([1], {}).homology(bad)
    with pytest.raises(ValueError):
        IntChainComplex([-1], {})


def test_exact_int_is_the_one_rule():
    assert exact_int(3) == 3 and exact_int(-2) == -2
    class Small(enum.IntEnum):
        TWO = 2

    assert exact_int(Small.TWO) is Small.TWO  # an int subclass, not a bool
    for bad in (True, False, 2.0, "2", None):
        with pytest.raises(TypeError):
            exact_int(bad)


@pytest.mark.parametrize("bad", [2.0, 0.0, True, False])
def test_matrix_entries_and_keys_are_exact_ints(bad):
    # Neither a float equal to an int nor a bool passes as an entry, a
    # column or a boundary key, even where dict lookup would accept it.
    with pytest.raises(TypeError):
        smith_normal_form([{0: 1}, {0: bad, 1: 3}])
    with pytest.raises(TypeError):
        IntChainComplex([1, 2], {1: [{0: 1, 1: bad}]})
    with pytest.raises(TypeError):
        IntChainComplex([1, 2], {1: [{bad: 1}]})
    with pytest.raises(TypeError):
        IntChainComplex([1, 2], {bad: [{0: 1}]})
    # An int subclass that is not a bool passes, and reduces as its value.
    class Small(enum.IntEnum):
        ONE = 1
        TWO = 2

    plain = [{0: 2, 1: 4}, {0: 1, 1: 3}]
    subclassed = [{0: Small.TWO, 1: 4}, {0: Small.ONE, 1: 3}]
    assert smith_normal_form(subclassed) == smith_normal_form(plain) == [1, 2]
    complex_ = IntChainComplex([2, 2], {1: subclassed})
    assert complex_.homology(0) == IntChainComplex([2, 2], {1: plain}).homology(0)
    assert str(complex_.homology(0)) == "Z/2"


@pytest.mark.parametrize("value", [True, 2.0, 1.5])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: bcom_o2_algebra(6).gen("w1") ** v,
        lambda v: power_cocycle(standard_cocycle(2), v),
        lambda v: so2_cocycle(v),
        lambda v: oriented_invariant(v),
        lambda v: AbelianGroup.from_orders([v, 4]),
        lambda v: enumerate_components(v),
        lambda v: boundary_matrix(v),
        lambda v: component_homology(v),
        lambda v: bcom_o2_algebra(v),
        lambda v: bcom_o2_algebra(6).basis(v),
        lambda v: bcom_o2_algebra(6).dimension(v),
        lambda v: bcom_o2_algebra(6).basis_through(v),
    ],
    ids=[
        "f2-pow", "power-cocycle", "so2-cocycle", "oriented", "from-orders", "components",
        "boundary", "homology", "bcom", "basis", "dimension", "basis-through",
    ],
)
def test_integer_entry_points_refuse_inexact_ints(call, value):
    """Each entry point raises a TypeError that names the value passed, for a
    bool or a float: it never reads True as 1 or 2.0 as 2, and never reports
    a value derived from it, such as the 3.0 of component_homology(2.0)."""
    with pytest.raises(TypeError, match=f"got {re.escape(repr(value))}$"):
        call(value)

