"""Cocycle validity, pointwise powers, clutching loops, and the two-degree
invariant, with the degree formula checked exactly."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from kocom import suites
from kocom.cocycles import (
    ARCS,
    CocycleFailure,
    CommCocycle,
    CommutationFailure,
    InvalidCocycleError,
    TCInvariant,
    broken_cocycle_condition,
    broken_commutation_cocycle,
    bundle_class,
    clutching_degree,
    clutching_function,
    oriented_invariant,
    power_cocycle,
    so2_cocycle,
    standard_cocycle,
    tc_invariant,
    tc_sum,
    validate,
    ValidationReport,
)
from kocom.o2 import (
    IDENTITY,
    REFLECTION,
    O2Element,
    O2Path,
    PathSegment,
    affine_path,
    commutes,
    constant_path,
    loop_degree,
    reflected_rotation,
)


def identity_cocycle() -> CommCocycle:
    return CommCocycle(
        alpha12=constant_path(IDENTITY),
        alpha13=constant_path(IDENTITY),
        alpha23=constant_path(IDENTITY),
    )


def expected_degree(k: int, n: int) -> int:
    return n * k // 2 if n % 2 == 0 else (n - 1) * k // 2


def test_standard_cocycle_values():
    c0 = standard_cocycle(0)
    assert c0.alpha12.value(Fraction(1, 3)) == IDENTITY
    assert c0.alpha23.value(Fraction(1, 2)) == reflected_rotation(0)
    assert c0.alpha13.value(Fraction(2, 3)) == reflected_rotation(0)
    c1 = standard_cocycle(1)
    assert c1.alpha13.value(1) == reflected_rotation(1)  # R_pi * A, central part
    assert validate(c1).ok
    c2 = standard_cocycle(2)
    assert c2.alpha12.value(1) == IDENTITY  # full turn closes up


def test_validate_standard_family():
    for k in range(-10, 11):
        assert validate(standard_cocycle(k)).ok


def test_validate_identity_cocycle():
    assert validate(identity_cocycle()).ok


def test_validate_failure_fixtures():
    report = validate(broken_commutation_cocycle())
    assert report.cocycle_failures and report.commutation_failures
    assert {f.point for f in report.commutation_failures} == {Fraction(0), Fraction(1)}
    report = validate(broken_cocycle_condition())
    assert report.cocycle_failures and not report.commutation_failures
    assert [f.point for f in report.cocycle_failures] == [Fraction(1)]


def quarter_turn_matrix(element: O2Element) -> tuple:
    """R_{j*pi/2}, times A = diag(1, -1) when reflected, as an exact integer
    2x2 matrix."""
    j = element.angle * 2
    assert j.denominator == 1
    c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[int(j) % 4]
    return ((c, s), (s, -c)) if element.reflect else ((c, -s), (s, c))


def matmul(x: tuple, y: tuple) -> tuple:
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


# A path from one quarter-turn element to another in the same component,
# constant when the two agree.
quarter_turn_paths = st.builds(
    lambda a, b, reflect: affine_path(Fraction(b - a, 2), Fraction(a, 2), reflect),
    st.integers(0, 3),
    st.integers(0, 3),
    st.booleans(),
)


@settings(deadline=None, max_examples=60)
@given(quarter_turn_paths, quarter_turn_paths, quarter_turn_paths)
def test_validate_matches_matrix_oracle(alpha12, alpha13, alpha23):
    arcs = ((1, 2), (1, 3), (2, 3))
    cocycle, commutation = [], []
    for t in (Fraction(0), Fraction(1)):
        values = (p.value(t) for p in (alpha12, alpha13, alpha23))
        m = dict(zip(arcs, map(quarter_turn_matrix, values)))
        product = matmul(m[(1, 2)], m[(2, 3)])
        if product != m[(1, 3)]:
            cocycle.append((t, product))
        for i, a in enumerate(arcs):
            for b in arcs[i + 1:]:
                if matmul(m[a], m[b]) != matmul(m[b], m[a]):
                    commutation.append((t, a, b))
    report = validate(CommCocycle(alpha12, alpha13, alpha23))
    assert [
        (f.point, quarter_turn_matrix(f.product)) for f in report.cocycle_failures
    ] == cocycle
    assert [(f.point, f.arc_a, f.arc_b) for f in report.commutation_failures] == commutation


def element_validate(c: CommCocycle) -> ValidationReport:
    """validate's rule on O2Elements: the paths' start and end values, their
    products by O2Element.__mul__, and commutes on the elements."""
    cocycle, commutation = [], []
    paths = (c.alpha12, c.alpha13, c.alpha23)
    for p, values in ((0, [x.start for x in paths]), (1, [x.end for x in paths])):
        a12, a13, a23 = values
        if a12 * a23 != a13:
            cocycle.append(CocycleFailure(p, a12 * a23, a13))
        for (a, x), (b, y) in combinations(zip(ARCS, values), 2):
            if not commutes(x, y):
                commutation.append(CommutationFailure(p, a, b, x, y))
    return ValidationReport(tuple(cocycle), tuple(commutation))


def seeded_path(rng: random.Random, reflect: bool, integral_ends: bool) -> O2Path:
    """A continuous path of one to three segments through rational angles, cut
    at twelfths; its end angles are integers when integral_ends is set."""
    cuts = sorted(rng.sample(range(1, 12), rng.randint(0, 2)))
    times = [0, *(Fraction(i, 12) for i in cuts), 1]
    angles = [Fraction(rng.randint(-24, 24), rng.randint(1, 6)) for _ in times]
    if integral_ends:
        angles[0], angles[-1] = rng.randint(-3, 3), rng.randint(-3, 3)
    segments = []
    for t0, t1, a0, a1 in zip(times, times[1:], angles, angles[1:]):
        slope = Fraction(a1 - a0) / (t1 - t0)
        segments.append(PathSegment(t0, t1, slope, a0 - slope * t0, reflect))
    return O2Path(segments)


def seeded_cocycles(seed: int) -> list:
    """Cocycles with alpha13 = alpha12 * alpha23 times a full-turn loop (valid
    when the end angles are integers, else most likely not commutative), the
    same with a foreign alpha13, and cocycles of three unrelated paths, with
    mixed reflections throughout."""
    rng = random.Random(seed)
    out = []
    for _ in range(12):
        integral = rng.random() < 0.5
        alpha12 = seeded_path(rng, rng.random() < 0.5, integral)
        alpha23 = seeded_path(rng, rng.random() < 0.5, integral)
        turns = affine_path(2 * rng.randint(-2, 2), 0)
        alpha13 = O2Path(alpha12.pointwise_mul(alpha23).pointwise_mul(turns).segments)
        out.append(CommCocycle(alpha12, alpha13, alpha23))
        out.append(CommCocycle(alpha12, seeded_path(rng, rng.random() < 0.5, False), alpha23))
        out.append(CommCocycle(*(seeded_path(rng, rng.random() < 0.5, False) for _ in range(3))))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_validate_matches_element_oracle(seed):
    cocycles = seeded_cocycles(seed) + [broken_commutation_cocycle(), broken_cocycle_condition()]
    kinds = set()
    for c in cocycles:
        for power in (c, power_cocycle(c, seed - 2)):
            report = validate(power)
            # repr also tells an int angle from an equal Fraction
            assert repr(report) == repr(element_validate(power))
            kinds.add((bool(report.cocycle_failures), bool(report.commutation_failures)))
    # valid cocycles, and failures of each kind alone and together
    assert kinds == {(False, False), (True, False), (False, True), (True, True)}


def test_power_cocycle_zero_gives_identity():
    assert power_cocycle(standard_cocycle(5), 0) == identity_cocycle()


def test_power_cocycle_square_values():
    sq = power_cocycle(standard_cocycle(3), 2)
    for t in (Fraction(0), Fraction(1, 4), Fraction(1)):
        assert sq.alpha23.value(t) == IDENTITY
        assert sq.alpha13.value(t) == IDENTITY
        assert sq.alpha12.value(t) == O2Element(Fraction(6) * t)


@given(st.integers(-4, 4), st.integers(-3, 3), st.integers(-3, 3))
def test_power_composition(k, n, m):
    c = standard_cocycle(k)
    assert power_cocycle(power_cocycle(c, n), m) == power_cocycle(c, n * m)


@given(st.integers(-5, 5), st.integers(-5, 5))
def test_powers_stay_valid(k, n):
    assert validate(power_cocycle(standard_cocycle(k), n)).ok


def test_clutching_standard_is_reflected_loop():
    loop = clutching_function(standard_cocycle(3))
    assert all(seg.reflect for seg in loop.segments)
    assert loop.is_loop


def test_clutching_identity_cocycle_is_constant():
    loop = clutching_function(identity_cocycle())
    assert not any(seg.reflect for seg in loop.segments)
    assert loop_degree(loop) == 0


def test_clutching_even_power_lands_in_rotations():
    loop = clutching_function(power_cocycle(standard_cocycle(3), 2))
    assert not any(seg.reflect for seg in loop.segments)
    # upper arc winds 3 full turns, lower arc sits at the identity
    assert loop.value(Fraction(3, 4)) == IDENTITY
    assert loop_degree(loop) == 3


def test_clutching_requires_validity():
    for clutch in (clutching_function, clutching_degree):
        for broken in (broken_commutation_cocycle(), broken_cocycle_condition()):
            with pytest.raises(InvalidCocycleError):
                clutch(broken)


def test_cocycle_arcs_are_o2_paths_on_the_unit_interval():
    """validate reads t = 1 at each path's end, so an arc on [0, 1/2] would
    validate and clutch to degree 0 while bundle_class refuses its loop."""
    half = affine_path(2, 0).reparameterized(2, 0)
    with pytest.raises(ValueError, match=r"^alpha12 runs over \[0, 1/2\], not \[0, 1\]$"):
        CommCocycle(
            half,
            affine_path(2, 0, reflect=True).reparameterized(2, 0),
            constant_path(reflected_rotation(0)),
        )
    with pytest.raises(ValueError, match=r"^alpha23 runs over \[1, 2\]"):
        CommCocycle(affine_path(0, 0), affine_path(0, 0), affine_path(2, 0).reparameterized(1, -1))
    with pytest.raises(TypeError, match="^alpha13 must be an O2Path"):
        CommCocycle(constant_path(IDENTITY), IDENTITY, constant_path(IDENTITY))


def test_degree_formula_exact():
    for k in range(-6, 7):
        base = standard_cocycle(k)
        for n in range(-6, 7):
            power = power_cocycle(base, n)
            loop = clutching_function(power)
            assert bundle_class(loop) == expected_degree(k, n), (k, n)
            assert clutching_degree(power) == bundle_class(loop), (k, n)


def test_degrees_are_exact_ints():
    """clutching_degree and degree_formula halve exactly, with no Fraction on
    the way, and render as the Fractions they once returned did."""
    for k in range(-6, 7):
        base = standard_cocycle(k)
        for n in range(-6, 7):
            power = power_cocycle(base, n)
            degree, formula = clutching_degree(power), suites.degree_formula(k, n)
            assert type(degree) is int and type(formula) is int, (k, n)
            assert degree == loop_degree(clutching_function(power)) == formula, (k, n)
            assert str(formula) == str(Fraction(n * k if n % 2 == 0 else (n - 1) * k, 2))


@pytest.mark.parametrize("sweep", [1, Fraction(1, 2)], ids=["odd", "half"])
def test_clutching_degree_refuses_a_sweep_it_cannot_halve(monkeypatch, sweep):
    # int(Fraction(sweep, 2)) used to truncate such a sweep to a degree
    c = standard_cocycle(1)
    monkeypatch.setattr("kocom.cocycles.angle_sweep", lambda path: -sweep if path is c.alpha13 else 0)
    with pytest.raises(InvalidCocycleError, match=f"sweeps {sweep}, not an even integer"):
        clutching_degree(c)


def test_degrees_stay_exact_beyond_float_precision():
    # 10**30 + 1 has no exact float: a float division anywhere on the way
    # to a degree would lose the trailing 1.
    k = 10**30 + 1
    power = power_cocycle(standard_cocycle(k), 3)
    assert clutching_degree(power) == k
    assert bundle_class(clutching_function(power)) == k
    degree = loop_degree(affine_path(2 * k, 0))
    assert degree == k and type(degree) is Fraction


@st.composite
def random_valid_cocycles(draw):
    """A valid cocycle with a random alpha12 and a known clutching degree.

    alpha12 is continuous with 1-3 segments, in one component, with integer
    angles at t = 0 and t = 1; alpha23 is a constant in {I, R_pi, A, R_pi*A}
    times the loop t |-> R_{2et*pi}, so its sweep is 2e;
    alpha13 = alpha12 * alpha23 * (t |-> R_{2dt*pi}).  Every triple-point value
    then lies in {I, R_pi, A, R_pi*A}, so all of them commute.  Returns the
    cocycle and d."""
    reflect = draw(st.booleans())
    cuts = sorted(draw(st.sets(st.integers(1, 11), max_size=2)))
    times = [Fraction(0)] + [Fraction(i, 12) for i in cuts] + [Fraction(1)]
    inner = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 6))
    angles = (
        [Fraction(draw(st.integers(-3, 3)))]
        + [draw(inner) for _ in cuts]
        + [Fraction(draw(st.integers(-3, 3)))]
    )
    segments = []
    for (t0, t1), (a0, a1) in zip(zip(times, times[1:]), zip(angles, angles[1:])):
        slope = (a1 - a0) / (t1 - t0)
        segments.append(PathSegment(t0, t1, slope, a0 - slope * t0, reflect))
    alpha12 = O2Path(segments)
    alpha23 = constant_path(O2Element(draw(st.integers(0, 1)), draw(st.booleans())))
    alpha23 = alpha23.pointwise_mul(affine_path(2 * draw(st.integers(-2, 2)), 0))
    d = draw(st.integers(-3, 3))
    alpha13 = O2Path(
        alpha12.pointwise_mul(alpha23).pointwise_mul(affine_path(2 * d, 0)).segments
    )
    return CommCocycle(alpha12, alpha13, alpha23), d


@settings(deadline=None)
@given(random_valid_cocycles())
def test_clutching_random_valid_cocycles(case):
    c, d = case
    assert validate(c).ok
    loop = clutching_function(c)
    # The loop joined on trust is one the public constructor accepts as is.
    assert O2Path(loop.segments) == loop
    reflected = c.alpha13.start.reflect
    if reflected:
        # The route through the rotations gives the same degree.
        assert bundle_class(loop) == loop_degree(loop.right_mul_constant(REFLECTION))
    assert bundle_class(loop) == (d if reflected else -d)
    assert clutching_degree(c) == bundle_class(loop)


def test_standard_clutching_is_nullhomotopic():
    for k in range(-10, 11):
        assert bundle_class(clutching_function(standard_cocycle(k))) == 0


def test_tc_invariant_values():
    for k in range(-6, 7):
        inv = tc_invariant(standard_cocycle(k))
        assert (inv.deg_plus, inv.deg_minus, inv.a2) == (0, -k, k % 2)
    zero = tc_invariant(identity_cocycle())
    assert (zero.deg_plus, zero.deg_minus, zero.a2) == (0, 0, 0)
    assert tc_invariant(standard_cocycle(1)).a2 == 1


def test_so2_cocycle_clutches_prescribed_degree():
    for m in range(-5, 6):
        assert bundle_class(clutching_function(so2_cocycle(m))) == m
        inv = oriented_invariant(m)
        assert (inv.deg_plus, inv.deg_minus, inv.a2) == (m, -m, 0)


@given(st.integers(-5, 5))
def test_so2_inverse_negates_degree(m):
    inv = oriented_invariant(m)
    assert inv.deg_minus == -inv.deg_plus
    assert inv.a2 == 0


def test_tc_sum():
    f_k = tc_invariant(standard_cocycle(4))
    g_m = oriented_invariant(2)
    total = tc_sum(f_k, g_m)
    assert (total.deg_plus, total.deg_minus) == (2, -6)
    zero = TCInvariant(0, 0)
    assert tc_sum(f_k, zero) == f_k


def test_tc_sum_distinctness():
    for m in range(-3, 4):
        seen = {
            (inv.deg_plus, inv.deg_minus)
            for inv in (
                tc_sum(tc_invariant(standard_cocycle(k)), oriented_invariant(m))
                for k in range(-5, 6)
            )
        }
        assert len(seen) == 11
        assert seen == {(m, -k - m) for k in range(-5, 6)}


def test_invalid_power_fails_its_checks(monkeypatch):
    real_power = suites.power_cocycle
    target = standard_cocycle(2)

    def power_with_one_broken(c, n):
        if c == target and n == 3:
            return broken_cocycle_condition()
        return real_power(c, n)

    monkeypatch.setattr(suites, "power_cocycle", power_with_one_broken)
    report = suites.cocycle_suite((-3, 3), (-3, 3))
    failed = {c.check_id: c for c in report.checks if not c.passed}
    assert set(failed) == {"cocycles.degree.k=2.n=3", "cocycles.validity.power-family"}
    assert failed["cocycles.degree.k=2.n=3"].actual == "1 cocycle / 0 commutation failures"
    assert failed["cocycles.validity.power-family"].actual == "48 valid"
