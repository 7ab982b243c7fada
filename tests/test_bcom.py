"""The inversion pullback, restrictions, Steenrod squares, the obstruction
class, the splitting-principle tensor identities, and the bundle-data
calculus."""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kocom import bcom_o2
from kocom.bcom_o2 import (
    RANK2_LINE,
    RANK2_RANK2,
    TCBundleData,
    a2_class,
    a2_of_tc_bundle,
    bcom_o2_algebra,
    direct_sum,
    euler_algebra,
    inversion_pullback,
    line_data,
    line_pair_algebra,
    line_pair_restriction,
    so2_restriction,
    splitting_oracle_w2_tensor,
    tensor_line,
    tensor_rank2,
    trivial_data,
)
from kocom.f2poly import RelationViolationError, RingMap, relation_images, total_steenrod_square
from kocom.suites import char_class_suite


def test_pullback_generator_images():
    alg = bcom_o2_algebra(6)
    phi = inversion_pullback(alg)
    assert phi(alg.gen("w1")) == alg.gen("w1")
    assert phi(alg.gen("w2")) == alg.gen("w2") + alg.gen("r")
    assert phi(alg.gen("r")) == alg.gen("r")
    assert phi(alg.gen("s")) == alg.gen("s")
    # ring-map consequence: w1*w2 maps to w1*w2 because w1*r = 0
    assert phi(alg.gen("w1") * alg.gen("w2")) == alg.gen("w1") * alg.gen("w2")


def test_pullback_is_involution_on_basis():
    alg = bcom_o2_algebra(6)
    phi = inversion_pullback(alg)
    for x in alg.basis_through(6):
        assert phi(phi(x)) == x


def test_line_pair_restriction_values():
    alg = bcom_o2_algebra(6)
    k = line_pair_restriction(alg)
    t = k.target
    assert k(alg.gen("w1")) == t.gen("u") + t.gen("v")
    assert k(alg.gen("w2")) == t.gen("u") * t.gen("v")
    assert k(alg.gen("r")).is_zero
    assert k(alg.gen("s")).is_zero


def test_line_pair_restriction_absorbs_inversion():
    alg = bcom_o2_algebra(6)
    phi = inversion_pullback(alg)
    k = line_pair_restriction(alg)
    for name in ("w1", "w2", "r", "s"):
        assert k(phi(alg.gen(name))) == k(alg.gen(name))
    for x in alg.basis_through(6):
        assert k(phi(x)) == k(x)


def test_a2_class_is_r():
    alg = bcom_o2_algebra(6)
    a2 = a2_class(alg)
    assert a2 == alg.gen("r")
    assert total_steenrod_square(a2) == a2
    assert line_pair_restriction(alg)(a2).is_zero
    assert so2_restriction(alg)(a2).is_zero


def test_so2_restriction_sends_w2_to_euler_class():
    alg = bcom_o2_algebra(6)
    j = so2_restriction(alg)
    assert j(alg.gen("w2")) == j.target.gen("e")
    assert j(alg.gen("w1")).is_zero


def test_total_square_values():
    alg = bcom_o2_algebra(6)
    assert total_steenrod_square(alg.one()) == alg.one()
    assert total_steenrod_square(alg.gen("r")) == alg.gen("r")
    expected = alg.cls({"s": 1}, {"w2": 1, "r": 1}, {"w1": 2, "s": 1})
    assert total_steenrod_square(alg.gen("s")) == expected
    w1 = alg.gen("w1")
    assert total_steenrod_square(w1) == w1 + w1 * w1


def all_pairs(f, basis):
    """The oracle: f(x*y) == f(x)*f(y) on every basis pair through the cap."""
    cap = basis[0].algebra.cap
    rows = [(x, x.homogeneous_degree(), f(x)) for x in basis]
    return [
        f(x * y) == fx * fy
        for x, dx, fx in rows
        for y, dy, fy in rows
        if dx + dy <= cap
    ]


def generator_images(alg):
    """The generators, and the generator images of φ, of Sq and of two
    planted maps that set r to r + w1^2 and so break w1*r = 0."""
    names = [name for name, _ in alg.generators]
    w1, w2, r, s = gens = [alg.gen(name) for name in names]
    phi = {"w1": w1, "w2": w2 + r, "r": r, "s": s}
    squares = {name: total_steenrod_square(g) for name, g in zip(names, gens)}
    broken = [{**phi, "r": r + w1 * w1}, {**squares, "r": r + w1 * w1}]
    return names, gens, phi, squares, broken


@pytest.mark.parametrize("cap", range(4, 17))
def test_generator_pairs_decide_multiplicativity_as_all_pairs_do(cap):
    # The suite's closed verdict against the enumeration it replaces: a map
    # set by generator images sends every relation to 0 iff it is
    # multiplicative on all basis pairs.  RingMap refuses the planted maps,
    # so product_of_powers evaluates them for the all-pairs verdict.
    alg = bcom_o2_algebra(cap)
    basis = alg.basis_through(cap)
    names, _, phi, squares, broken = generator_images(alg)
    for images, holds in zip([phi, squares, *broken], [True, True, False, False]):
        relations = relation_images(alg, alg, [images[name].monomials for name in names])
        f = functools.cache(functools.partial(product_of_powers, images=images, target=alg))
        assert len(relations) == min(cap - 2, 4)
        assert (not any(relations.values())) == all(all_pairs(f, basis)) == holds


@pytest.mark.parametrize("cap", range(4, 17))
def test_generator_products_read_the_images_and_pairs_they_are_given(cap, monkeypatch):
    # RingMap reads the relation images of the generator images it is given,
    # and the square commutes with the line-pair restriction on the
    # generators iff it does on the basis.
    alg = bcom_o2_algebra(cap)
    basis = alg.basis_through(cap)
    _, gens, _, squares, broken = generator_images(alg)
    for images in broken:
        with pytest.raises(RelationViolationError, match="w1\\*r = 0"):
            RingMap(alg, alg, images)

    k = line_pair_restriction(alg)

    def natural(classes):
        return all(k(total_steenrod_square(x)) == total_steenrod_square(k(x)) for x in classes)

    assert natural(gens) and natural(basis)
    # Sq(w2) = w2 + w2^2 defines a ring map, but restriction carries it to
    # uv + u^2v^2, not to the line pair's Sq(uv)
    w2 = alg.gen("w2")
    alg.set_total_squares({**squares, "w2": w2 + w2 * w2})
    assert not natural(gens) and not natural(basis)
    monkeypatch.setattr(bcom_o2, "bcom_o2_algebra", lambda cap: alg)
    passed = {c.check_id: c.passed for c in char_class_suite(cap).checks}
    assert [passed[f"char.{name}"] for name in ("ring-map", "sq-cartan", "sq-naturality")] == [True, True, False]


@pytest.mark.parametrize("cap", range(4, 17))
def test_kstar_generators_decide_as_the_basis_does(cap, monkeypatch):
    # k∘φ and k are ring maps, so they agree on the basis iff they agree on
    # the generators.  φ′ sets w2 to w2 + w1^2: a valid involution that
    # restriction carries to uv + u^2 + v^2, not to uv.
    alg = bcom_o2_algebra(cap)
    basis = alg.basis_through(cap)
    k = line_pair_restriction(alg)
    _, gens, phi, _, _ = generator_images(alg)
    w1, w2 = gens[:2]
    planted = RingMap(alg, alg, {**phi, "w2": w2 + w1 * w1})
    for f, holds in ((RingMap(alg, alg, phi), True), (planted, False)):
        assert all(k(f(g)) == k(g) for g in gens) == all(k(f(x)) == k(x) for x in basis) == holds
    assert [k(planted(g)) == k(g) for g in gens] == [True, False, True, True]
    monkeypatch.setattr(bcom_o2, "bcom_o2_algebra", lambda cap: alg)
    monkeypatch.setattr(bcom_o2, "inversion_pullback", lambda alg: planted)
    checks = {c.check_id: c for c in char_class_suite(cap).checks}
    assert checks["char.involution"].passed and checks["char.involution"].actual == f"{len(basis)}/{len(basis)}"
    assert not checks["char.kstar-compat"].passed and checks["char.kstar-compat"].actual == "3/4"


def test_square_naturality_under_line_pair_restriction():
    alg = bcom_o2_algebra(6)
    k = line_pair_restriction(alg)
    for x in alg.basis_through(6):
        assert k(total_steenrod_square(x)) == total_steenrod_square(k(x))


def exponents(alg, mono):
    """{name: exponent} of a monomial, read off its printed form."""
    if alg.monomial_str(mono) == "1":
        return {}
    factors = (part.partition("^") for part in alg.monomial_str(mono).split("*"))
    return {name: int(e) if e else 1 for name, _, e in factors}


def product_of_powers(x, images, target):
    """Reference expansion: each monomial of x maps to the product of its
    generators' images, each raised to its exponent by repeated
    multiplication."""
    acc = target.zero()
    for mono in x.monomials:
        term = target.one()
        for name, e in exponents(x.algebra, mono).items():
            for _ in range(e):
                term = term * images[name]
        acc = acc + term
    return acc


def defined_maps(bcom):
    """Fresh maps on the characteristic algebra, each with its target and
    its generator images as its definition states them."""
    phi, k, j = inversion_pullback(bcom), line_pair_restriction(bcom), so2_restriction(bcom)
    w1, w2, r, s = (bcom.gen(name) for name in ("w1", "w2", "r", "s"))
    u, v, e = k.target.gen("u"), k.target.gen("v"), j.target.gen("e")
    k0, j0 = k.target.zero(), j.target.zero()
    squares = {
        "w1": w1 + w1 * w1,
        "w2": w2 + w1 * w2 + w2 * w2,
        "r": r,
        "s": s + w2 * r + w1 * w1 * s,
    }
    return [
        (phi, bcom, {"w1": w1, "w2": w2 + r, "r": r, "s": s}),
        (k, k.target, {"w1": u + v, "w2": u * v, "r": k0, "s": k0}),
        (j, j.target, {"w1": j0, "w2": e, "r": j0, "s": j0}),
        (total_steenrod_square, bcom, squares),
    ]


@pytest.mark.parametrize("cap", range(4, 11))
def test_ring_maps_and_squares_match_product_of_powers(cap):
    # A map forms each monomial's image on its first use, from a basis class
    # or from a sum of two, and reads it back on every later use.
    for first_use in ("basis", "sums"):
        bcom = bcom_o2_algebra(cap)
        basis = bcom.basis_through(cap)
        sums = [x + y for x, y in zip(basis, basis[1:])]
        for f, target, images in defined_maps(bcom):
            expected = [product_of_powers(x, images, target) for x in basis]
            expected_sums = [a + b for a, b in zip(expected, expected[1:])]
            if first_use == "sums":
                assert [f(x) for x in sums] == expected_sums
            assert [f(x) for x in basis] == expected
            if isinstance(f, RingMap):
                stored = dict(f.images)
                assert all(m in stored for x in basis for m in x.monomials)
            assert [f(x) for x in basis] == expected
            assert [f(x) for x in sums] == expected_sums
            if isinstance(f, RingMap):
                assert f.images == stored
            for x, y in itertools.combinations(basis, 2):
                assert f(x + y) == f(x) + f(y)
    for alg in (line_pair_algebra(cap), euler_algebra(cap)):
        squares = {name: total_steenrod_square(alg.gen(name)) for name, _ in alg.generators}
        for x in alg.basis_through(cap):
            assert total_steenrod_square(x) == product_of_powers(x, squares, alg)


def test_restrictions_match_product_of_powers_through_cap_12():
    # Four generators map into one or two, so source and target differ in
    # field count and width, and a factor is stripped in the source's layout.
    bcom = bcom_o2_algebra(12)
    basis = bcom.basis_through(12)
    for f, target, images in defined_maps(bcom)[1:3]:
        assert target is not bcom
        for x in basis:
            assert f(x) == product_of_powers(x, images, target), x


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_fresh_maps_match_product_of_powers_in_any_first_use_order(data):
    # Fresh maps meet random classes in a random order, so each monomial's
    # image is first formed from whichever smaller images are stored by then.
    bcom = bcom_o2_algebra(8)
    basis = bcom.basis_through(8)
    maps = defined_maps(bcom)
    picks = st.sets(st.integers(0, len(basis) - 1), max_size=6)
    uses = data.draw(st.lists(st.tuples(st.integers(0, len(maps) - 1), picks), max_size=8))
    for k, indices in uses:
        f, target, images = maps[k]
        x = sum((basis[i] for i in indices), bcom.zero())
        assert f(x) == product_of_powers(x, images, target)
        power = bcom.one()
        for n in range(11):
            assert x**n == power
            power = power * x


def test_squares_set_again_replace_the_stored_images():
    alg = bcom_o2_algebra(8)
    basis = alg.basis_through(8)
    assert [total_steenrod_square(x) for x in basis] != basis
    alg.set_total_squares({name: alg.gen(name) for name, _ in alg.generators})
    assert [total_steenrod_square(x) for x in basis] == basis


def test_squares_that_break_a_relation_are_refused():
    alg = bcom_o2_algebra(6)
    basis = alg.basis_through(6)
    old = [total_steenrod_square(x).monomials for x in bcom_o2_algebra(6).basis_through(6)]
    assert [total_steenrod_square(x).monomials for x in basis[::2]] == old[::2]
    squares = {name: total_steenrod_square(alg.gen(name)) for name, _ in alg.generators}
    # Sq(r) = r + w1^2 would send w1 * r = 0 to w1^3 + w1^4
    squares["r"] = alg.gen("r") + alg.gen("w1") * alg.gen("w1")
    with pytest.raises(RelationViolationError):
        alg.set_total_squares(squares)
    assert total_steenrod_square(alg.gen("r")) == alg.gen("r")
    # the old squares stay, both the images already formed and the rest
    assert [total_steenrod_square(x).monomials for x in basis] == old


def test_splitting_identities_hold():
    splitting_oracle_w2_tensor(RANK2_RANK2)
    splitting_oracle_w2_tensor(RANK2_LINE)


def test_tensor_square_collapses_to_w1_square():
    # substituting the same plane bundle for both factors leaves w1(E)^2
    value = splitting_oracle_w2_tensor(RANK2_RANK2)
    ring = value.algebra
    substitute = RingMap(
        ring,
        ring,
        {
            "x1": ring.gen("x1"),
            "x2": ring.gen("x2"),
            "y1": ring.gen("x1"),
            "y2": ring.gen("x2"),
            "z": ring.zero(),
        },
    )
    w1e = ring.gen("x1") + ring.gen("x2")
    assert substitute(value) == w1e * w1e


def test_tensor_with_trivial_line_returns_w2():
    value = splitting_oracle_w2_tensor(RANK2_LINE)
    ring = value.algebra
    drop_z = RingMap(
        ring,
        ring,
        {name: (ring.zero() if name == "z" else ring.gen(name)) for name, _ in ring.generators},
    )
    assert drop_z(value) == ring.gen("x1") * ring.gen("x2")


def test_rank2_line_cross_term_is_w1e_times_w1l():
    # the oracle value minus the no-cross-term guess is exactly w1(E)*w1(L),
    # so the cross term cannot be replaced by w1(E)^2
    value = splitting_oracle_w2_tensor(RANK2_LINE)
    ring = value.algebra
    x1, x2, z = ring.gen("x1"), ring.gen("x2"), ring.gen("z")
    w1e, w2e = x1 + x2, x1 * x2
    assert value + (w2e + z * z) == w1e * z
    assert value != w2e + w1e * w1e + z * z


def test_bundle_data_sum_adds_obstruction_bits():
    alg = _surface_like_algebra()
    y2 = alg.gen("y2")
    plain = TCBundleData(alg.zero(), y2, y2)
    twisted = TCBundleData(alg.zero(), alg.zero(), y2)
    assert a2_of_tc_bundle(plain) == 0
    assert a2_of_tc_bundle(twisted) == 1
    assert a2_of_tc_bundle(direct_sum(twisted, twisted)) == 0
    assert a2_of_tc_bundle(direct_sum(plain, twisted)) == 1
    assert a2_of_tc_bundle(trivial_data(alg)) == 0


def test_bundle_data_tensor_rules():
    alg = _surface_like_algebra()
    a1, y2 = alg.gen("a1"), alg.gen("y2")
    line = line_data(a1)
    nonstandard = TCBundleData(alg.zero(), alg.zero(), y2)
    tensored = tensor_line(nonstandard, line)
    summed = direct_sum(direct_sum(line, line), nonstandard)
    assert tensored.w1 == summed.w1
    assert tensored.w2 == summed.w2
    assert a2_of_tc_bundle(tensored) == a2_of_tc_bundle(summed) == 1
    square = tensor_rank2(nonstandard, nonstandard)
    assert square.w2.is_zero and a2_of_tc_bundle(square) == 0
    with pytest.raises(ValueError):
        tensor_line(nonstandard, nonstandard)


def test_bundle_data_requires_one_algebra():
    alg = _surface_like_algebra()
    other = line_pair_algebra(4)
    for mixed in (
        (alg.zero(), alg.zero(), other.zero()),
        (alg.zero(), other.zero(), alg.zero()),
        (other.zero(), alg.zero(), alg.zero()),
    ):
        with pytest.raises(ValueError):
            TCBundleData(*mixed)


def _surface_like_algebra():
    from kocom.surfaces import nonorientable, surface_algebra

    return surface_algebra(nonorientable(1))


def test_euler_algebra_square():
    alg = euler_algebra(6)
    e = alg.gen("e")
    assert total_steenrod_square(e) == e + e * e
