"""Surface cohomology algebras, unit groups, the total Stiefel-Whitney
calculus, K-theory presentations against the golden files, and the
product checks for the commutative ring structure."""

import itertools
import random

import pytest

from kocom.bcom_o2 import a2_of_tc_bundle, direct_sum, line_data, trivial_data
from kocom.integral import AbelianGroup
from kocom.suites import load_golden
from kocom.surfaces import (
    NONSTANDARD_INVARIANT,
    SPHERE,
    Surface,
    collapse_pullback,
    degree_one_names,
    ko_generators,
    ko_presentation,
    nonorientable,
    nonstandard_data,
    orientable,
    surface_algebra,
    unit_inverse,
    unit_order,
    units,
    units_group,
    verify_kocom_products,
)

ALL_SURFACES = [
    SPHERE,
    *(orientable(g) for g in range(1, 5)),
    *(nonorientable(n) for n in range(1, 6)),
]


def closure(gens, one):
    """Brute-force subgroup generated by gens (every unit is torsion, so
    no inverses are needed)."""
    seen = {one}
    frontier = [one]
    while frontier:
        current = frontier.pop()
        for g in gens:
            nxt = current * g
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def total_sw(terms):
    """Total Stiefel-Whitney class of a formal sum: terms are (W, sign)
    pairs with sign +1 or -1, multiplied as W resp. W^{-1}."""
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one term")
    out = terms[0][0].algebra.one()
    for w, sign in terms:
        out = out * (w if sign > 0 else unit_inverse(w))
    return out


def brute_force_factors(alg):
    """Invariant factors of the unit group from its listed elements: with
    exponent <= 4, the count of units with u^2 = 1 fixes the number of Z/4
    and Z/2 factors."""
    elements = units(alg)
    one = alg.one()
    n_small = sum(1 for u in elements if u * u == one)
    log_total = len(elements).bit_length() - 1
    log_small = n_small.bit_length() - 1
    assert 2**log_total == len(elements) and 2**log_small == n_small
    return AbelianGroup.from_orders(
        [2] * (2 * log_small - log_total) + [4] * (log_total - log_small)
    )


def test_surface_parsing_and_labels():
    assert Surface.parse("sphere") == SPHERE
    assert Surface.parse("genus:3") == orientable(3)
    assert Surface.parse("rp:2") == nonorientable(2)
    assert orientable(2).label == "genus:2"
    with pytest.raises(ValueError):
        Surface.parse("torus")
    with pytest.raises(ValueError):
        orientable(0)


def test_algebra_graded_dimensions():
    for surface in ALL_SURFACES:
        alg = surface_algebra(surface)
        assert alg.dimension(0) == 1
        assert alg.dimension(1) == surface.b1
        assert alg.dimension(2) == 1


def test_algebra_products_orientable():
    alg = surface_algebra(orientable(2))
    a1, a2, b1, b2, y2 = (alg.gen(n) for n in ("a1", "a2", "b1", "b2", "y2"))
    assert a1 * b1 == y2
    assert a2 * b2 == y2
    assert (a1 * a1).is_zero and (a1 * a2).is_zero
    assert (b1 * b2).is_zero and (a1 * b2).is_zero
    assert (a1 * y2).is_zero and (y2 * y2).is_zero


def test_algebra_products_nonorientable():
    alg = surface_algebra(nonorientable(2))
    a1, a2, y2 = alg.gen("a1"), alg.gen("a2"), alg.gen("y2")
    assert a1 * a1 == y2
    assert a2 * a2 == y2
    assert (a1 * a2).is_zero
    assert (a1 * y2).is_zero


def test_algebra_sphere():
    alg = surface_algebra(SPHERE)
    y2 = alg.gen("y2")
    assert (y2 * y2).is_zero


def test_unit_count():
    for surface in ALL_SURFACES:
        assert len(units(surface_algebra(surface))) == 2 ** (surface.b1 + 1)


def test_unit_group_structures():
    for g in range(1, 5):
        group = units_group(surface_algebra(orientable(g)))
        assert group.invariant_factors() == AbelianGroup.from_orders([2] * (2 * g + 1))
        assert all(unit_order(u) <= 2 for u in group.elements)
    for n in range(1, 6):
        group = units_group(surface_algebra(nonorientable(n)))
        assert group.invariant_factors() == AbelianGroup.from_orders(
            [2] * (n - 1) + [4]
        )
        order4 = sum(1 for u in group.elements if unit_order(u) == 4)
        order2 = sum(1 for u in group.elements if unit_order(u) == 2)
        assert order4 == 2**n
        assert order2 == 2**n - 1
    sphere_group = units_group(surface_algebra(SPHERE))
    assert sphere_group.invariant_factors() == AbelianGroup.from_orders([2])


def test_unit_group_shape_matches_brute_force():
    for surface in (
        SPHERE,
        *(orientable(g) for g in range(1, 5)),
        *(nonorientable(n) for n in range(1, 9)),
    ):
        alg = surface_algebra(surface)
        group = units_group(alg)
        assert len(group) == len(units(alg)), surface
        assert group.invariant_factors() == brute_force_factors(alg), surface
        assert group.order == len(group), surface


def test_unit_group_order_past_the_len_limit():
    # 2^63 elements: more than len() can return
    group = units_group(surface_algebra(nonorientable(62)))
    assert group.order == 2**63
    assert group.invariant_factors() == AbelianGroup.from_orders([4] + [2] * 61)


def test_unit_group_closure_small_and_sampled():
    for surface in (SPHERE, orientable(1), nonorientable(1), nonorientable(2)):
        group = units_group(surface_algebra(surface))
        elems = set(group.elements)
        for u, v in itertools.product(group.elements, repeat=2):
            assert u * v in elems
    rng = random.Random(7)
    group = units_group(surface_algebra(orientable(4)))
    elems = set(group.elements)
    for _ in range(300):
        u, v, w = (rng.choice(group.elements) for _ in range(3))
        assert u * v in elems
        assert (u * v) * w == u * (v * w)


def test_unit_identities():
    alg = surface_algebra(orientable(2))
    one, y2 = alg.one(), alg.gen("y2")
    for i in (1, 2):
        a, b = alg.gen(f"a{i}"), alg.gen(f"b{i}")
        assert (one + a + b) * (one + a) * (one + b) == one + y2
    alg = surface_algebra(nonorientable(3))
    one, y2 = alg.one(), alg.gen("y2")
    for i in (1, 2, 3):
        a = alg.gen(f"a{i}")
        assert unit_inverse(one + a) ** 2 == one + y2
        assert unit_inverse(one + a) == (one + a) ** 3


def test_total_sw_examples():
    alg = surface_algebra(orientable(1))
    one, a1, y2 = alg.one(), alg.gen("a1"), alg.gen("y2")
    line = one + a1
    euler = one + y2
    assert total_sw([(line, 1)]) == one + a1
    assert total_sw([(euler, 1), (line, 1)]) == one + a1 + y2
    assert total_sw([(line, 1), (line, -1)]) == one


def test_total_sw_hits_every_unit():
    # line units together with the rank-two euler unit generate the whole
    # unit group, so the total class is surjective onto it; this is why
    # ko_presentation needs no membership check on product units
    for surface in (orientable(1), orientable(2), orientable(3), nonorientable(1), nonorientable(2), nonorientable(3)):
        alg = surface_algebra(surface)
        gens = [alg.one() + alg.gen(name) for name in degree_one_names(alg)]
        gens.append(alg.one() + alg.gen("y2"))
        assert closure(gens, alg.one()) == set(units(alg))


def test_total_sw_is_multiplicative():
    alg = surface_algebra(nonorientable(2))
    one = alg.one()
    u, v = one + alg.gen("a1"), one + alg.gen("a2")
    assert total_sw([(u, 1), (v, 1)]) == total_sw([(u, 1)]) * total_sw([(v, 1)])
    assert total_sw([(u, 1), (u, -1), (v, 1)]) == v


def test_ko_generator_orders():
    for gen in ko_generators(orientable(2), surface_algebra(orientable(2))):
        assert unit_order(gen.unit) == 2
    for gen in ko_generators(nonorientable(3), surface_algebra(nonorientable(3))):
        assert unit_order(gen.unit) == 4
    sphere_gens = ko_generators(SPHERE, surface_algebra(SPHERE))
    assert [g.name for g in sphere_gens] == ["e1"]
    assert unit_order(sphere_gens[0].unit) == 2


def test_presentations_match_golden():
    for surface in (
        SPHERE,
        orientable(1),
        orientable(2),
        orientable(3),
        nonorientable(1),
        nonorientable(2),
        nonorientable(3),
        nonorientable(4),
    ):
        assert ko_presentation(surface).to_text() == load_golden(surface), surface


def expected_presentation(surface):
    """The presentation text written straight from the cup-product pairing:
    genus generators have order 2 and every product vanishes except the
    l_ai*l_bi, which all agree; crosscap generators have order 4, every
    square is twice each generator, and distinct ones multiply to zero."""
    if surface.kind == "sphere":
        return "generators: e1\n2*e1\ne1^2\n"
    n = surface.count
    pairs = itertools.combinations_with_replacement
    if surface.kind == "orientable":
        names = [f"l_{c}{i}" for c in "ab" for i in range(1, n + 1)]
        paired = [f"l_a{i}*l_b{i}" for i in range(1, n + 1)]
        monomials = [f"{x}^2" if x == y else f"{x}*{y}" for x, y in pairs(names, 2)]
        lines = [f"2*{x}" for x in names]
        lines += [m for m in monomials if m not in paired]
        lines += [f"{p} + {q}" for p, q in itertools.combinations(paired, 2)]
    else:
        names = [f"l_a{i}" for i in range(1, n + 1)]
        lines = [f"4*{x}" for x in names]
        for x, y in pairs(names, 2):
            lines += [f"{x}^2 + 2*{z}" for z in names] if x == y else [f"{x}*{y}"]
    return "\n".join(["generators: " + " ".join(names), *lines]) + "\n"


def test_presentations_match_closed_form():
    for surface in (
        SPHERE,
        *(orientable(g) for g in range(1, 7)),
        *(nonorientable(n) for n in range(1, 13)),
    ):
        assert ko_presentation(surface).to_text() == expected_presentation(surface), surface


def test_presentation_relation_counts():
    pres = ko_presentation(nonorientable(2))
    assert pres.generators == ("l_a1", "l_a2")
    assert pres.additive_orders == (4, 4)
    assert len(pres.relations) == 5  # four doublings plus one vanishing product
    pres = ko_presentation(orientable(2))
    assert pres.additive_orders == (2, 2, 2, 2)
    assert len(pres.relations) == 9  # eight vanishing products plus one pair sum


def test_presentation_reproduces_additive_group():
    # the reduced K-group presented must biject with the unit group: check
    # orders multiply up for the nonorientable case where torsion is mixed
    pres = ko_presentation(nonorientable(3))
    total = 1
    for order in pres.additive_orders:
        total *= order
    # relations identify l_ai^2 with doubled generators, so the additive
    # group generated is 4 * 4 * 4 / 2^2 = 16 = 2^(b1+1); here just check
    # the unit group size bound holds
    assert total >= 2 ** (3 + 1)


def test_nonstandard_data_and_pullback():
    sphere_alg = surface_algebra(SPHERE)
    data = nonstandard_data(sphere_alg)
    assert data.w1.is_zero and data.w2.is_zero
    assert data.w2_twisted == sphere_alg.gen("y2")
    assert a2_of_tc_bundle(data) == 1
    target = surface_algebra(orientable(2))
    pulled = data.map_along(collapse_pullback(sphere_alg, target))
    assert pulled == nonstandard_data(target)


def test_nonstandard_invariant_is_the_k1_clutching():
    inv = NONSTANDARD_INVARIANT
    assert (inv.deg_plus, inv.deg_minus, inv.a2) == (0, -1, 1)


def test_verify_kocom_products_all_required_surfaces():
    for surface in (
        SPHERE,
        orientable(1),
        orientable(2),
        orientable(3),
        nonorientable(1),
        nonorientable(2),
        nonorientable(3),
    ):
        checks = verify_kocom_products(surface)
        assert checks and all(c.passed for c in checks), surface


def test_verify_kocom_products_check_count():
    checks = verify_kocom_products(orientable(2))
    # one square check, one per line generator, one conclusion
    assert len(checks) == 1 + 4 + 1


def test_algebraic_data_has_zero_obstruction():
    alg = surface_algebra(nonorientable(2))
    line = line_data(alg.gen("a1"))
    assert a2_of_tc_bundle(line) == 0
    assert a2_of_tc_bundle(direct_sum(line, trivial_data(alg))) == 0
    assert a2_of_tc_bundle(direct_sum(line, line)) == 0


def test_degree_one_names():
    assert degree_one_names(surface_algebra(orientable(2))) == ["a1", "a2", "b1", "b2"]
    assert degree_one_names(surface_algebra(SPHERE)) == []


def test_surface_count_must_be_an_int():
    for count in (2.5, 2.0, True, "2"):
        with pytest.raises(TypeError):
            Surface("orientable", count)
