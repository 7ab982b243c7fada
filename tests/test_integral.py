"""Smith normal form against the sympy oracle, and homology of small
integer complexes."""

import random

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from kocom.commuting import boundary_matrix
from kocom.integral import (
    AbelianGroup,
    IntChainComplex,
    NotAComplexError,
    mat_mult,
    smith_normal_form,
)


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
    assert smith_normal_form([[1, 1]]) == [1]
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    # the level-3 boundary shape that matters downstream
    mat = [
        [0, 0, 0, 0, 0, 0, 2, -2],
        [0, 0, 0, 0, 0, 0, -2, 2],
    ]
    assert smith_normal_form(mat) == [2]


def test_snf_divisibility_chain():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


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
    boundaries = [boundary_matrix(n) for n in range(1, 7)]
    for mat in dense + sparse + boundaries:
        ours = smith_normal_form(mat)
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
    assert AbelianGroup.from_orders([1, 1]).is_trivial
    assert str(AbelianGroup.from_orders([2, 4], free_rank=1)) == "Z + Z/2 + Z/4"
    assert str(AbelianGroup.trivial()) == "0"
    for bad in ([0], [0, 2], [2, -3]):
        with pytest.raises(ValueError):
            AbelianGroup.from_orders(bad)


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup((3, 2))
    with pytest.raises(ValueError):
        AbelianGroup((1,))


def test_direct_sum():
    a = AbelianGroup((2,))
    assert str(a.direct_sum(a)) == "Z/2 + Z/2"
    b = AbelianGroup((4,))
    assert a.direct_sum(b).invariant_factors == (2, 4)
    assert a.direct_sum(AbelianGroup(free_rank=2)).free_rank == 2


def test_chain_complex_rejects_nonzero_composite():
    with pytest.raises(NotAComplexError):
        IntChainComplex([1, 1, 1], {1: [[1]], 2: [[1]]})


def test_chain_complex_homology_examples():
    # a single Z in degree 0 with no boundaries
    single = IntChainComplex([1], {})
    assert str(single.homology(0)) == "Z"
    # zero complex
    zero = IntChainComplex([0, 0], {1: []})
    assert zero.homology(0).is_trivial
    # Z --2--> Z has H_0 = Z/2, H_1 = 0
    doubling = IntChainComplex([1, 1], {1: [[2]]})
    assert str(doubling.homology(0)) == "Z/2"
    assert doubling.homology(1).is_trivial


def test_chain_complex_circle():
    # two vertices, two edges glued into a circle
    d1 = [[1, -1], [-1, 1]]
    circle = IntChainComplex([2, 2], {1: d1})
    assert str(circle.homology(0)) == "Z"
    assert str(circle.homology(1)) == "Z"


def test_mat_mult_shapes():
    assert mat_mult([[1, 2]], [[3], [4]]) == [[11]]
    with pytest.raises(ValueError):
        mat_mult([[1, 2]], [[1, 2]])
