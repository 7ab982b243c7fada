"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is exact equality; the three timed criteria carry their
stated wall-clock budgets (1 s, 1 s, 5 s).  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines inline.
"""

import itertools
import time
from fractions import Fraction

from kocom.bcom_o2 import (
    RANK2_LINE,
    RANK2_RANK2,
    a2_class,
    bcom_o2_algebra,
    inversion_pullback,
    line_pair_restriction,
    splitting_oracle_w2_tensor,
)
from kocom.cocycles import (
    broken_cocycle_condition,
    broken_commutation_cocycle,
    bundle_class,
    clutching_function,
    oriented_invariant,
    power_cocycle,
    standard_cocycle,
    tc_invariant,
    tc_sum,
    validate,
)
from kocom.commuting import (
    boundary_matrix,
    canonical_tuple,
    classify_component,
    component_homology,
    enumerate_components,
    face_map,
    h2_bcom_so3,
)
from kocom.f2poly import total_steenrod_square
from kocom.integral import AbelianGroup
from kocom.suites import load_golden
from kocom.surfaces import (
    SPHERE,
    ko_presentation,
    nonorientable,
    orientable,
    surface_algebra,
    unit_order,
    units_group,
    verify_kocom_products,
)

I, C1, C2, C3 = range(4)

LISTED_TRIPLES = (
    (C1, C2, I),
    (C1, C2, C2),
    (I, C2, C3),
    (C2, C2, C3),
    (C1, I, C3),
    (C1, C2, C1),
    (C1, C2, C3),
)

FACE_TABLE = {
    (C1, C2, I): ("(1,0)", "(1,0)", "(0,1)", "(0,1)"),
    (C1, C2, C1): ("(0,1)", "(0,1)", "(0,1)", "(0,1)"),
    (I, C2, C3): ("(0,1)", "(0,1)", "(1,0)", "(1,0)"),
    (C1, I, C3): ("(1,0)", "(0,1)", "(0,1)", "(1,0)"),
    (C1, C2, C3): ("(0,1)", "(1,0)", "(1,0)", "(0,1)"),
    (C1, C2, C2): ("(1,0)", "(0,1)", "(1,0)", "(0,1)"),
    (C2, C2, C3): ("(0,1)", "(1,0)", "(0,1)", "(1,0)"),
}


def _report(number: int, description: str, passed: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_01_degree_formula():
    started = time.perf_counter()
    ok = True
    for k in range(-5, 6):
        base = standard_cocycle(k)
        for n in range(-5, 6):
            expected = n * k // 2 if n % 2 == 0 else (n - 1) * k // 2
            ok = ok and bundle_class(
                clutching_function(power_cocycle(base, n))
            ) == expected
    elapsed = time.perf_counter() - started
    _report(
        1,
        f"degree formula nk/2 (even) and (n-1)k/2 (odd) on [-5,5]^2, exact, "
        f"{elapsed:.2f}s < 1s",
        ok and elapsed < 1.0,
    )


def test_criterion_02_triviality_at_power_one():
    ok = all(
        bundle_class(clutching_function(standard_cocycle(k))) == 0
        for k in range(-10, 11)
    )
    _report(2, "the standard cocycles clutch the trivial bundle for |k| <= 10", ok)


def test_criterion_03_cocycle_validity():
    ok = all(
        validate(power_cocycle(standard_cocycle(k), n)).ok
        for k in range(-5, 6)
        for n in range(-5, 6)
    )
    fixture_a = validate(broken_commutation_cocycle())
    fixture_b = validate(broken_cocycle_condition())
    ok = ok and bool(fixture_a.commutation_failures) and bool(fixture_a.cocycle_failures)
    ok = ok and bool(fixture_b.cocycle_failures) and not fixture_b.commutation_failures
    _report(
        3,
        "power cocycles validate on [-5,5]^2 and the two failure fixtures "
        "fail as specified",
        ok,
    )


def test_criterion_04_tc_distinctness_and_mod2_bit():
    ok = True
    for m in range(-3, 4):
        pairs = {
            (inv.deg_plus, inv.deg_minus)
            for inv in (
                tc_sum(tc_invariant(standard_cocycle(k)), oriented_invariant(m))
                for k in range(-5, 6)
            )
        }
        ok = ok and len(pairs) == 11
        ok = ok and pairs == {(m, -k - m) for k in range(-5, 6)}
    ok = ok and all(
        tc_invariant(standard_cocycle(k)).a2 == k % 2 for k in range(-5, 6)
    )
    _report(
        4,
        "invariant pairs (m, -k-m) are pairwise distinct over k and the "
        "obstruction bit equals k mod 2",
        ok,
    )


def test_criterion_05_component_counts():
    counts = [len(enumerate_components(n)) for n in range(4)]
    listed = {canonical_tuple(t) for t in LISTED_TRIPLES}
    computed = {c for c in enumerate_components(3) if C2 in c}
    ok = counts == [1, 1, 2, 8] and listed == computed and len(listed) == 7
    _report(
        5,
        "commuting-tuple component counts are 1, 1, 2, 8 and the seven "
        "exotic triples match the listed ones up to relabeling",
        ok,
    )


def test_criterion_06_face_tables():
    ok = True
    entries = 0
    for triple, row in FACE_TABLE.items():
        for i in range(4):
            face = classify_component(face_map(i, triple))
            actual = "(0,1)" if C2 in face else "(1,0)"
            ok = ok and actual == row[i]
            entries += 1
    _report(6, f"all {entries} face-table entries match exactly", ok and entries == 28)


def test_criterion_07_homology():
    started = time.perf_counter()
    e2 = component_homology(2)
    h2 = h2_bcom_so3()
    elapsed = time.perf_counter() - started
    ok = (
        e2 == AbelianGroup.from_orders([2])
        and h2 == AbelianGroup.from_orders([2, 2])
        and elapsed < 1.0
    )
    _report(
        7,
        f"component homology Z/2 and total second homology Z/2 + Z/2 via "
        f"Smith normal form, {elapsed:.2f}s < 1s",
        ok,
    )


def test_criterion_08_inversion_pullback_and_squares():
    alg = bcom_o2_algebra(6)
    phi = inversion_pullback(alg)
    kmap = line_pair_restriction(alg)
    basis = alg.basis_through(6)
    ok = all(phi(phi(x)) == x for x in basis)
    ok = ok and all(
        phi(x * y) == phi(x) * phi(y)
        for x, y in itertools.product(basis, repeat=2)
        if x.homogeneous_degree() + y.homogeneous_degree() <= 6
    )
    ok = ok and all(kmap(phi(x)) == kmap(x) for x in basis)
    ok = ok and a2_class(alg) == alg.gen("r")
    expected_sq_s = alg.cls({"s": 1}, {"w2": 1, "r": 1}, {"w1": 2, "s": 1})
    ok = ok and total_steenrod_square(alg.gen("s")) == expected_sq_s
    ok = ok and total_steenrod_square(alg.gen("r")) == alg.gen("r")
    ok = ok and all(
        total_steenrod_square(x * y)
        == total_steenrod_square(x) * total_steenrod_square(y)
        for x, y in itertools.product(basis, repeat=2)
        if x.homogeneous_degree() + y.homogeneous_degree() <= 5
    )
    _report(
        8,
        "inversion pullback is an involutive ring map compatible with the "
        "line-pair restriction through degree 6; a2 = r; the degree-3 square "
        "identity and the Cartan rule hold exhaustively through degree 5",
        ok,
    )


def test_criterion_09_splitting_identities():
    ok = True
    try:
        splitting_oracle_w2_tensor(RANK2_RANK2)
        splitting_oracle_w2_tensor(RANK2_LINE)
    except AssertionError:
        ok = False
    _report(
        9,
        "w2 tensor-product formulas agree with the elementary-symmetric "
        "oracle as exact polynomials",
        ok,
    )


def test_criterion_10_unit_groups():
    started = time.perf_counter()
    ok = True
    for g in range(1, 5):
        surface = orientable(g)
        group = units_group(surface_algebra(surface))
        ok = ok and group.invariant_factors() == AbelianGroup.from_orders(
            [2] * (2 * g + 1)
        )
        ok = ok and len(group) == 2 ** (surface.b1 + 1)
    for n in range(1, 6):
        surface = nonorientable(n)
        group = units_group(surface_algebra(surface))
        ok = ok and group.invariant_factors() == AbelianGroup.from_orders(
            [2] * (n - 1) + [4]
        )
        ok = ok and len(group) == 2 ** (surface.b1 + 1)
        ok = ok and sum(1 for u in group.elements if unit_order(u) == 4) == 2**n
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    _report(
        10,
        f"unit groups are (Z/2)^(2g+1) for genus 1..4 and Z/4 x (Z/2)^(n-1) "
        f"for 1..5 crosscaps, with 2^(b1+1) elements, {elapsed:.2f}s < 5s",
        ok,
    )


def test_criterion_11_ko_presentations():
    ok = True
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
        ok = ok and ko_presentation(surface).to_text() == load_golden(surface)
    _report(
        11,
        "derived K-theory presentations match the recorded golden "
        "presentations term for term",
        ok,
    )


def test_criterion_12_product_structure():
    ok = True
    for surface in (
        orientable(1),
        orientable(2),
        orientable(3),
        nonorientable(1),
        nonorientable(2),
        nonorientable(3),
    ):
        checks = verify_kocom_products(surface, surface_algebra(surface))
        ok = ok and all(c.passed for c in checks)
    _report(
        12,
        "the square of the non-standard class vanishes under the collapse "
        "pullback and the tensor-vs-sum data agree for every line generator",
        ok,
    )
