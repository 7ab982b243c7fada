"""The F2 quotient-algebra engine: reduction, bases, ring maps, and the
elementary-symmetric helper."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kocom.bcom_o2 import bcom_o2_algebra
from kocom.f2poly import (
    F2Algebra,
    F2Class,
    RelationViolationError,
    RingMap,
    elementary_symmetric,
)


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
    assert repr(alg) == "F2Algebra(u:1, cap=3)"
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


@pytest.mark.parametrize(
    "exponent, error",
    [(-1, ValueError), (1.5, TypeError), ("2", TypeError), (True, TypeError)],
    ids=["-1", "1.5", "2", "True"],
)
def test_exponents_must_be_non_negative_ints(exponent, error):
    alg = bcom_o2_algebra(6)
    with pytest.raises(error):
        alg.cls({"w1": exponent})
    with pytest.raises(error):
        F2Algebra([("u", 1)], [{"u": exponent}], cap=4)


@pytest.mark.parametrize(
    "generators, cap, error",
    [
        ([("x", 1.5)], 4, TypeError),
        ([("x", 1)], 4.5, TypeError),
        ([("x", "2")], 4, TypeError),
        ([("x", True)], 4, TypeError),
        ([("x", 1)], True, TypeError),
        ([("x", 0)], 4, ValueError),
        ([("x", -1)], 4, ValueError),
        ([("x", 1)], -1, ValueError),
    ],
)
def test_degrees_and_cap_must_be_exact(generators, cap, error):
    with pytest.raises(error):
        F2Algebra(generators, [], cap=cap)


def test_bcom_cap_must_be_an_int():
    for cap in (6.9, True):
        with pytest.raises(TypeError):
            bcom_o2_algebra(cap)


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


def test_elementary_symmetric_index_is_an_exact_int():
    # True used to pass as 1, so e_True(u, v) was u + v.
    alg = F2Algebra([("u", 1), ("v", 1)], cap=4)
    u, v = alg.gen("u"), alg.gen("v")
    assert elementary_symmetric([u, v], 2) == u * v
    for k in (True, 2.0):
        with pytest.raises(TypeError):
            elementary_symmetric([u, v], k)
    with pytest.raises(ValueError):
        elementary_symmetric([u, v], -1)


#: A monomial algebra that is not bcom: one relation on three generators,
#: and z^33 above the cap.  That exponent sets the field width: in a field
#: sized by 2*cap alone (4 bits and a guard bit) z^33 would pack as y*z.
MONOMIAL_GENERATORS = [("x", 1), ("y", 1), ("z", 2)]
MONOMIAL_RELATIONS = [{"x": 1, "y": 1, "z": 1}, {"y": 3}, {"x": 2, "z": 2}, {"z": 33}]

#: (algebra, generators, relations), with the relations restated here.
REFERENCE_CASES = [
    (
        bcom_o2_algebra(6),
        [("w1", 1), ("w2", 2), ("r", 2), ("s", 3)],
        [{"w1": 1, "r": 1}, {"r": 2}, {"r": 1, "s": 1}, {"s": 2}],
    ),
    (F2Algebra(MONOMIAL_GENERATORS, MONOMIAL_RELATIONS, cap=6), MONOMIAL_GENERATORS, MONOMIAL_RELATIONS),
]


def reference_vector(generators, relations, cap, exps):
    """Normal form on exponent tuples: None for zero, which it is above the
    cap or when some relation divides it, else the tuple itself."""
    mono = tuple(exps.get(n, 0) for n, _ in generators)
    divides = (all(m >= lhs.get(n, 0) for m, (n, _) in zip(mono, generators)) for lhs in relations)
    if reference_degree(generators, mono) > cap or any(divides):
        return None
    return mono


def reference_degree(generators, vector):
    return sum(e * d for e, (_, d) in zip(vector, generators))


def reference_str(generators, relations, cap, exps):
    mono = reference_vector(generators, relations, cap, exps)
    if mono is None:
        return "0"
    parts = [n if e == 1 else f"{n}^{e}" for (n, _), e in zip(generators, mono) if e]
    return "*".join(parts) or "1"


def printed_vector(generators, term):
    """The exponent tuple of a printed monomial such as a1*y2^2."""
    factors = (f.partition("^") for f in term.split("*") if term != "1")
    exps = {name: int(e or 1) for name, _, e in factors}
    return tuple(exps.get(n, 0) for n, _ in generators)


@settings(deadline=None)
@given(st.data())
def test_packed_reduction_matches_tuple_reference(data):
    alg, generators, relations = data.draw(st.sampled_from(REFERENCE_CASES))
    names = [n for n, _ in generators]
    exps = data.draw(st.dictionaries(st.sampled_from(names), st.integers(0, 3 * alg.cap)))
    assert str(alg.cls(exps)) == reference_str(generators, relations, alg.cap, exps)


@settings(deadline=None)
@given(st.data())
def test_degrees_ride_in_the_monomial_and_order_the_terms(data):
    # A class of several monomials, possibly of several degrees: each one's
    # packed degree is the exponent-tuple degree, and the terms print in
    # (degree, exponent tuple) order, generator 0 most significant.
    alg, generators, relations = data.draw(st.sampled_from(REFERENCE_CASES))
    names = [n for n, _ in generators]
    exps = st.dictionaries(st.sampled_from(names), st.integers(0, alg.cap))
    monomials = data.draw(st.lists(exps, max_size=8))
    expected: set = set()
    for m in monomials:
        vector = reference_vector(generators, relations, alg.cap, m)
        expected ^= set() if vector is None else {vector}
    x = alg.cls(*monomials)
    for m in x.monomials:
        vector = printed_vector(generators, alg.monomial_str(m))
        assert F2Class(alg, frozenset({m})).homogeneous_degree() == reference_degree(
            generators, vector
        ), vector
    terms = [] if x.is_zero else str(x).split(" + ")
    assert [printed_vector(generators, t) for t in terms] == sorted(
        expected, key=lambda v: (reference_degree(generators, v), v)
    )


def test_monomials_above_the_cap_are_zero_before_packing():
    # At cap 6 a field is 4 bits under its guard bit, and an exponent of 32
    # carries into the next field: packed as it is, w2^32 reads w1.
    alg = bcom_o2_algebra(6)
    for exps in ({"w1": 100}, {"w1": 17}, {"w2": 1, "s": 16}, {"w2": 32}, {"r": 1, "s": 32}):
        assert alg.cls(exps).is_zero
    assert alg.basis(64) == [] and alg.dimension(100) == 0  # w2^32 is in degree 64


def test_basis_through_stops_at_the_cap():
    # Every basis above the cap is empty, so a huge top costs nothing more.
    alg = bcom_o2_algebra(6)
    assert alg.basis_through(10**6) == alg.basis_through(6)
    assert len(alg.basis_through(6)) == 25
    assert alg.basis_through(-3) == []
    assert F2Algebra([], cap=2).basis_through(-1) == []  # the walk has no generator step


def test_relation_needs_a_non_unit_left_side():
    with pytest.raises(ValueError):
        F2Algebra([("u", 1)], [{}], cap=4)
    with pytest.raises(ValueError):
        F2Algebra([("u", 1)], [{"u": 0}], cap=4)


def test_generator_names_must_be_distinct():
    # gen() and basis strings look generators up by name, so a repeated name
    # would make one of them unreachable.
    with pytest.raises(ValueError):
        F2Algebra([("x", 1), ("x", 2)], cap=4)
    with pytest.raises(ValueError):
        F2Algebra([("x", 1), ("y", 1), ("x", 1)], cap=4)


def test_ring_map_keeps_the_truncation():
    # z^4 has degree 8, above the source cap, so it is 0 there; sent to u, or
    # into a target with a higher cap, it would map to u^4 or u^8, not 0.
    source = F2Algebra([("z", 2)], cap=6)
    wide, narrow = F2Algebra([("u", 1)], cap=100), F2Algebra([("u", 1)], cap=6)
    for target, image in ((wide, wide.gen("u")), (wide, wide.gen("u") ** 2), (narrow, narrow.gen("u"))):
        with pytest.raises(RelationViolationError, match="truncation"):
            RingMap(source, target, {"z": image})
    square = RingMap(source, narrow, {"z": narrow.gen("u") ** 2})
    assert square(source.gen("z") ** 3) == narrow.gen("u") ** 6
    # A relation above the source cap is left unevaluated: the truncation kills it.
    f = RingMap(F2Algebra([("z", 2)], [{"z": 33}], cap=6), narrow, {"z": narrow.gen("u") ** 2})
    assert list(f.images) == [0]


def test_ring_map_strips_in_the_source_layout():
    # Source and target differ in generator count and field width, so a
    # source monomial read in the target's layout would name other factors.
    # The forbidden y*z^2 maps to (u + v)*u^4 = u^5, which u^5 = 0 kills.
    source = F2Algebra([("x", 1), ("y", 1), ("z", 2)], [{"y": 1, "z": 2}], cap=12)
    target = F2Algebra([("u", 1), ("v", 2)], [{"u": 5}], cap=5)
    u, v = target.gen("u"), target.gen("v")
    images = {"x": u, "y": u + v, "z": u * u}
    f = RingMap(source, target, images)
    with pytest.raises(RelationViolationError):
        RingMap(source, target, {**images, "z": v})
    for x in source.basis_through(source.cap):
        expected = target.zero()
        for term in str(x).split(" + "):
            value = target.one()
            for factor in term.split("*") if term != "1" else ():
                name, _, e = factor.partition("^")
                value = value * images[name] ** int(e or 1)
            expected = expected + value
        assert f(x) == expected, x


def test_powers_match_repeated_products():
    alg = bcom_o2_algebra(6)
    one, w1 = alg.one(), alg.gen("w1")
    u = one + w1
    # (1 + w1)^(2^k) = 1 + w1^(2^k), which is 1 once 2^k > 6.
    assert u ** 2**64 == one and u ** (2**64 + 1) == u
    for x in (u, w1 + alg.gen("w2") + alg.gen("r")):
        power = one
        for n in range(13):
            assert x**n == power, n
            power = power * x


BCOM_GENERATORS, BCOM_RULES = REFERENCE_CASES[0][1:]


def brute_force_basis(generators, relations, cap):
    """{degree: monomial strings} of every exponent vector up to the cap that
    no left side divides (compared as exponent dicts), in lexicographic order."""
    names = [n for n, _ in generators]
    out: dict = {}
    for vector in itertools.product(*(range(cap // d + 1) for _, d in generators)):
        exps = dict(zip(names, vector))
        degree = sum(e * d for e, (_, d) in zip(vector, generators))
        if degree <= cap and not any(
            all(exps[n] >= e for n, e in lhs.items()) for lhs in relations
        ):
            parts = [n if e == 1 else f"{n}^{e}" for n, e in exps.items() if e]
            out.setdefault(degree, []).append("*".join(parts) or "1")
    return out


@pytest.mark.parametrize(
    "alg, generators, relations",
    [(bcom_o2_algebra(cap), BCOM_GENERATORS, BCOM_RULES) for cap in range(4, 13)]
    + REFERENCE_CASES[1:],
    ids=[f"bcom-{cap}" for cap in range(4, 13)] + ["monomial"],
)
def test_basis_walk_matches_brute_force(alg, generators, relations):
    expected = brute_force_basis(generators, relations, alg.cap)
    for d in range(-1, alg.cap + 2):
        assert [str(x) for x in alg.basis(d)] == expected.get(d, []), d
        assert alg.dimension(d) == len(expected.get(d, [])), d
    through = [x for d in sorted(expected) for x in expected[d]]
    assert [str(x) for x in alg.basis_through(alg.cap)] == through


@pytest.mark.parametrize("cap, total", [(32, 545), (64, 2113), (128, 8321)])
def test_bcom_hilbert_function(cap, total):
    # The normal monomials are w1^a w2^b, r*w2^b and s*w1^a*w2^b: 2*(d//2) + 1 in degree d.
    # dimension(d) walks through d, so it is read only at the smallest cap.
    alg = bcom_o2_algebra(cap)
    dims = [2 * (d // 2) + 1 for d in range(cap + 1)]
    basis = alg.basis_through(cap)
    assert [x.homogeneous_degree() for x in basis] == [d for d in range(cap + 1) for _ in range(dims[d])]
    assert len(basis) == sum(dims) == total
    if cap == 32:
        assert [alg.dimension(d) for d in range(cap + 1)] == dims
