"""The F2 quotient-algebra engine: reduction, bases, ring maps, and the
elementary-symmetric helper."""

import itertools

import pytest
from hypothesis import given, strategies as st

from kocom.bcom_o2 import bcom_o2_algebra
from kocom.f2poly import (
    F2Algebra,
    RelationViolationError,
    RingMap,
    elementary_symmetric,
)
from kocom.surfaces import orientable, surface_algebra


def test_polynomial_squares_are_frobenius():
    alg = F2Algebra([("u", 1), ("v", 1)], cap=6)
    u, v = alg.gen("u"), alg.gen("v")
    assert (u + v) * (u + v) == u * u + v * v
    assert (u + v) ** 3 == u**3 + u * u * v + u * v * v + v**3


def test_addition_is_involutive():
    alg = F2Algebra([("u", 1)], cap=4)
    u = alg.gen("u")
    assert (u + u).is_zero
    assert u + alg.zero() == u


def test_truncation_drops_high_degrees():
    alg = F2Algebra([("u", 1)], cap=3)
    u = alg.gen("u")
    assert (u**4).is_zero
    assert not (u**3).is_zero


def test_bcom_relations():
    alg = bcom_o2_algebra(6)
    w1, w2, r, s = (alg.gen(n) for n in ("w1", "w2", "r", "s"))
    assert (w1 * r).is_zero
    assert (r * r).is_zero
    assert (r * s).is_zero
    assert (s * s).is_zero
    assert not (w2 * r).is_zero
    assert not (w1 * s).is_zero


def test_bcom_basis_dimensions():
    alg = bcom_o2_algebra(6)
    assert [alg.dimension(d) for d in range(7)] == [1, 1, 3, 3, 5, 5, 7]
    deg2 = {str(x) for x in alg.basis(2)}
    assert deg2 == {"w1^2", "w2", "r"}


def test_surface_style_rewrite_to_nonzero_normal_form():
    alg = F2Algebra(
        [("a", 1), ("b", 1), ("y", 2)],
        [
            ({"a": 2}, None),
            ({"b": 2}, None),
            ({"a": 1, "b": 1}, {"y": 1}),
            ({"a": 1, "y": 1}, None),
            ({"b": 1, "y": 1}, None),
            ({"y": 2}, None),
        ],
        cap=2,
    )
    a, b, y = alg.gen("a"), alg.gen("b"), alg.gen("y")
    assert a * b == y
    assert (a * b) * a == alg.zero()
    assert (a + b) * (a + b) == alg.zero()
    assert (alg.one() + a) * (alg.one() + b) == alg.one() + a + b + y


@pytest.mark.parametrize("exponent", [-1, 1.5, "2"])
def test_exponents_must_be_non_negative_ints(exponent):
    alg = bcom_o2_algebra(6)
    with pytest.raises(ValueError):
        alg.cls({"w1": exponent})
    with pytest.raises(ValueError):
        F2Algebra([("u", 1)], [({"u": exponent}, None)], cap=4)
    with pytest.raises(ValueError):
        F2Algebra([("u", 1)], [({"u": 2}, {"u": exponent})], cap=4)


def test_associativity_exhaustive_low_degrees():
    alg = bcom_o2_algebra(6)
    small = alg.basis_through(3)
    for x, y, z in itertools.product(small, repeat=3):
        assert (x * y) * z == x * (y * z)


@st.composite
def bcom_classes(draw):
    alg = bcom_classes.algebra
    basis = bcom_classes.basis
    picks = draw(st.lists(st.sampled_from(basis), max_size=4))
    out = alg.zero()
    for p in picks:
        out = out + p
    return out


bcom_classes.algebra = bcom_o2_algebra(6)
bcom_classes.basis = bcom_classes.algebra.basis_through(6)


@given(bcom_classes(), bcom_classes())
def test_multiplication_commutes(x, y):
    assert x * y == y * x


@given(bcom_classes(), bcom_classes(), bcom_classes())
def test_multiplication_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


def test_ring_map_validates_relations():
    alg = bcom_o2_algebra(6)
    target = F2Algebra([("u", 1), ("v", 1)], cap=6)
    with pytest.raises(RelationViolationError):
        # sending r to a nonzero class breaks w1 * r = 0
        RingMap(
            alg,
            target,
            {
                "w1": target.gen("u") + target.gen("v"),
                "w2": target.gen("u") * target.gen("v"),
                "r": target.gen("u") * target.gen("u"),
                "s": target.zero(),
            },
        )


def test_ring_map_checks_relations_with_a_monomial_right_side():
    # In genus 2, a1*b1 and a2*b2 rewrite to y2: swapping each pair keeps
    # both rules, and sending a1 and b1 both to b1 breaks a1*b1 -> y2.
    alg = surface_algebra(orientable(2))
    g = {name: alg.gen(name) for name, _ in alg.generators}
    swap = RingMap(
        alg, alg, {"a1": g["b1"], "b1": g["a1"], "a2": g["b2"], "b2": g["a2"], "y2": g["y2"]}
    )
    assert swap(g["a1"] * g["b1"] + g["a1"]) == g["y2"] + g["b1"]
    with pytest.raises(RelationViolationError):
        RingMap(alg, alg, {**g, "a1": g["b1"]})


def test_ring_map_requires_all_images():
    alg = F2Algebra([("u", 1), ("v", 1)], cap=4)
    with pytest.raises(ValueError):
        RingMap(alg, alg, {"u": alg.gen("u")})


def test_elementary_symmetric_against_expansion():
    alg = F2Algebra([("u", 1), ("v", 1), ("w", 1)], cap=6)
    u, v, w = alg.gen("u"), alg.gen("v"), alg.gen("w")
    assert elementary_symmetric([u, v, w], 1) == u + v + w
    assert elementary_symmetric([u, v, w], 2) == u * v + u * w + v * w
    assert elementary_symmetric([u, v, w], 3) == u * v * w
    # product formula: prod (1 + x_i) = sum of all e_k
    total = (alg.one() + u) * (alg.one() + v) * (alg.one() + w)
    esum = alg.one()
    for k in range(1, 4):
        esum = esum + elementary_symmetric([u, v, w], k)
    assert total == esum
