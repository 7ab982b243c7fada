"""Smith normal form against the sympy oracle, and homology of small
integer complexes."""

import random

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from kocom.commuting import boundary_matrix, enumerate_components
from kocom.integral import (
    AbelianGroup,
    IntChainComplex,
    NotAComplexError,
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


def test_abelian_group_canonicalization():
    assert AbelianGroup.from_orders([2, 3]).invariant_factors == (6,)
    assert AbelianGroup.from_orders([2, 2]).invariant_factors == (2, 2)
    assert AbelianGroup.from_orders([4, 2, 2]).invariant_factors == (2, 2, 4)
    assert AbelianGroup.from_orders([4, 6]).invariant_factors == (2, 12)
    assert AbelianGroup.from_orders([2, 3, 4]).invariant_factors == (2, 12)
    assert AbelianGroup.from_orders([1, 1]) == AbelianGroup()
    assert str(AbelianGroup.from_orders([2, 4], free_rank=1)) == "Z + Z/2 + Z/4"
    assert str(AbelianGroup()) == "0"
    for bad in ([0], [0, 2], [2, -3]):
        with pytest.raises(ValueError):
            AbelianGroup.from_orders(bad)


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup((3, 2))
    with pytest.raises(ValueError):
        AbelianGroup((1,))


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
