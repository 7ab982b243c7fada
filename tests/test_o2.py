"""Exact O(2) arithmetic against an independent floating-point matrix model,
plus path and winding-degree behavior."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kocom.o2 import (
    IDENTITY,
    REFLECTION,
    NotALoopError,
    O2Element,
    O2Path,
    PathSegment,
    affine_path,
    angle_sweep,
    commutes,
    constant_path,
    loop_degree,
    reflected_rotation,
)

# -- independent 2x2 matrix oracle ------------------------------------------


def as_matrix(e: O2Element):
    a = float(e.angle) * math.pi
    c, s = math.cos(a), math.sin(a)
    m = ((c, -s), (s, c))
    if e.reflect:
        m = matmul(m, ((1.0, 0.0), (0.0, -1.0)))
    return m


def matmul(m, n):
    return tuple(
        tuple(sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def matdist(m, n):
    return max(abs(m[i][j] - n[i][j]) for i in range(2) for j in range(2))


# -- test-local path and power oracles ---------------------------------------


def o2_pow(a: O2Element, n: int) -> O2Element:
    """n-fold product of a (of its inverse for negative n), one factor at a time."""
    factor = a if n >= 0 else a.inverse()
    result = IDENTITY
    for _ in range(abs(n)):
        result = result * factor
    return result


def concat(first: O2Path, second: O2Path) -> O2Path:
    """Concatenation, first on [0, 1/2] then second on [1/2, 1]."""
    a = first.reparameterized(2, 0)
    b = second.reparameterized(2, -1)
    return O2Path(a.segments + b.segments)


def reverse(path: O2Path) -> O2Path:
    return O2Path(path.reparameterized(-1, 1).segments)


def ends(path: O2Path) -> set:
    return {seg.t0 for seg in path.segments} | {path.segments[-1].t1}


def merged(segs) -> tuple:
    """Neighbouring segments with one affine formula joined into one."""
    out = []
    for seg in segs:
        last = out[-1] if out else None
        formula = (seg.slope, seg.offset, seg.reflect)
        if last and (last.slope, last.offset, last.reflect) == formula:
            out[-1] = PathSegment(last.t0, seg.t1, seg.slope, seg.offset, seg.reflect)
        else:
            out.append(seg)
    return tuple(out)


def refined_product(p: O2Path, q: O2Path) -> tuple:
    """Segments of t |-> p(t) q(t) by refining at every cut: on each piece
    between consecutive ends of either path, look up the segment of each
    path that covers it and apply the multiplication table."""
    segs = []
    for t0, t1 in itertools.pairwise(sorted(ends(p) | ends(q))):
        a = next(s for s in p.segments if s.t0 <= t0 and t1 <= s.t1)
        b = next(s for s in q.segments if s.t0 <= t0 and t1 <= s.t1)
        sign = -1 if a.reflect else 1
        slope, offset = a.slope + sign * b.slope, a.offset + sign * b.offset
        segs.append(PathSegment(t0, t1, slope, offset, a.reflect != b.reflect))
    return merged(segs)


def right_product(p: O2Path, a: O2Element) -> tuple:
    """Segments of t |-> p(t) a, one segment at a time."""
    segs = []
    for s in p.segments:
        offset = s.offset - a.angle if s.reflect else s.offset + a.angle
        segs.append(PathSegment(s.t0, s.t1, s.slope, offset, s.reflect != a.reflect))
    return merged(segs)


rational_angles = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=24
)
elements = st.builds(O2Element, rational_angles, st.booleans())


def test_angle_normalization():
    assert O2Element(Fraction(5, 2)).angle == Fraction(1, 2)
    assert O2Element(Fraction(-1, 3), reflect=True).angle == Fraction(5, 3)
    assert O2Element(2).angle == 0 and type(O2Element(2).angle) is int
    assert type(O2Element(Fraction(5, 2)).angle) is Fraction
    integral = O2Element(Fraction(6, 2)).angle
    assert integral == 1 and type(integral) is int
    assert O2Element(Fraction(-4)) == IDENTITY
    assert str(O2Element(Fraction(5, 2))) == "R(1/2*pi)"
    assert str(reflected_rotation(2)) == "I*A"


def test_multiplication_table_cases():
    # A * A = I
    assert REFLECTION * REFLECTION == IDENTITY
    # conjugating a rotation by the reflection inverts it: for angle pi/3,
    # A R A = R_{-pi/3} = R_{5pi/3}
    third = O2Element(Fraction(1, 3))
    assert REFLECTION * third * REFLECTION == O2Element(Fraction(5, 3))
    assert O2Element(Fraction(1, 2)) * O2Element(Fraction(1, 2)) == O2Element(1)


def test_powers_of_reflected_elements():
    g = reflected_rotation(Fraction(2, 7))
    assert o2_pow(g, 2) == IDENTITY
    assert o2_pow(g, 3) == g
    assert o2_pow(g, -1) == g
    assert o2_pow(g, -4) == IDENTITY
    assert o2_pow(g, 0) == IDENTITY
    assert o2_pow(O2Element(Fraction(1, 3)), 0) == IDENTITY


def test_power_additivity_small_range():
    samples = [
        O2Element(Fraction(2, 5)),
        reflected_rotation(Fraction(1, 6)),
        O2Element(Fraction(7, 4)),
    ]
    for a in samples:
        for n in range(-6, 7):
            for m in range(-6, 7):
                assert o2_pow(a, n) * o2_pow(a, m) == o2_pow(a, n + m)


def test_commutes_examples():
    assert commutes(O2Element(Fraction(1, 3)), O2Element(Fraction(4, 7)))
    assert commutes(O2Element(1), REFLECTION)  # R_pi is central
    assert not commutes(O2Element(Fraction(1, 2)), REFLECTION)


def test_commutes_closed_form_matches_products_exhaustively():
    angles = {Fraction(num, den) for den in range(1, 7) for num in range(2 * den)}
    grid = [O2Element(a, ref) for a in sorted(angles) for ref in (False, True)]
    assert len(grid) == 48
    for a, b in itertools.product(grid, repeat=2):
        assert commutes(a, b) == (a * b == b * a), (a, b)


def test_commutes_against_matrix_oracle():
    rng = random.Random(20240811)
    for _ in range(1000):
        a = O2Element(
            Fraction(rng.randrange(-200, 200), rng.randrange(1, 50)),
            rng.random() < 0.5,
        )
        b = O2Element(
            Fraction(rng.randrange(-200, 200), rng.randrange(1, 50)),
            rng.random() < 0.5,
        )
        ma, mb = as_matrix(a), as_matrix(b)
        numeric = matdist(matmul(ma, mb), matmul(mb, ma)) < 1e-9
        assert commutes(a, b) == numeric, (a, b)


def test_associativity_exhaustive_grid():
    grid = [
        O2Element(Fraction(num, 4), ref)
        for num in range(8)
        for ref in (False, True)
    ]
    for a, b, c in itertools.product(grid, repeat=3):
        assert (a * b) * c == a * (b * c)


@given(elements, elements)
def test_product_matches_matrix_oracle(a, b):
    assert matdist(as_matrix(a * b), matmul(as_matrix(a), as_matrix(b))) < 1e-9


@given(elements)
def test_inverse(a):
    assert a * a.inverse() == IDENTITY
    assert a.inverse() * a == IDENTITY


def test_path_validation():
    with pytest.raises(ValueError):
        O2Path([PathSegment(Fraction(0), Fraction(1, 2), Fraction(1), Fraction(0))])
    with pytest.raises(ValueError):
        # discontinuous at the junction
        O2Path(
            [
                PathSegment(Fraction(0), Fraction(1, 2), Fraction(1), Fraction(0)),
                PathSegment(Fraction(1, 2), Fraction(1), Fraction(1), Fraction(1)),
            ]
        )


def test_path_segment_normalizes_offset_and_rejects_empty_domain():
    seg = PathSegment(0, Fraction(2, 2), 1, Fraction(-1, 2))
    assert seg == (0, 1, 1, Fraction(3, 2), False)
    assert PathSegment(0, 1, 0, 5).offset == 1
    for t0, t1 in ((1, 1), (Fraction(1, 2), 0)):
        with pytest.raises(ValueError):
            PathSegment(t0, t1, 1, 0)


def test_inexact_input_is_rejected():
    for value in (0.1, 2.0, "1/3", True):
        with pytest.raises(TypeError):
            O2Element(value)
    with pytest.raises(TypeError):
        loop_degree(affine_path(2.0, 0))
    with pytest.raises(TypeError):
        PathSegment(Fraction(0), 0.5, Fraction(1), Fraction(0))
    # The reflect flag is a bool: a truthy 2 or 1 would slip past the
    # flag comparison in pointwise_mul, where (0t+0)A * A must be I.
    for flag in (2, 1, "no", None):
        with pytest.raises(TypeError):
            O2Element(0, flag)
        with pytest.raises(TypeError):
            PathSegment(0, 1, 0, 0, flag)
    p = O2Path([PathSegment(0, 1, 0, 0, True)])
    assert p.pointwise_mul(constant_path(REFLECTION)).value(0) == p.value(0) * REFLECTION
    assert p.value(0) * REFLECTION == IDENTITY


def test_loop_degree_generator_convention():
    # t |-> R_{2t*pi} is the degree-1 generator
    assert loop_degree(affine_path(2, 0)) == 1
    assert loop_degree(constant_path(IDENTITY)) == 0
    # four half-turns wind twice
    assert loop_degree(affine_path(4, 0)) == 2


def test_loop_degree_rejects_open_paths_and_reads_reflected_loops():
    with pytest.raises(NotALoopError):
        loop_degree(affine_path(1, 0))
    with pytest.raises(NotALoopError):
        loop_degree(affine_path(1, 0, reflect=True))
    # A reflected loop has the degree of its translate into the rotations.
    reflected = affine_path(2, 0, reflect=True)
    assert loop_degree(reflected) == 1
    assert loop_degree(reflected) == loop_degree(reflected.right_mul_constant(REFLECTION))


def test_loop_degree_concat_and_reversal():
    loops = [affine_path(2, 0), affine_path(-4, 0), constant_path(IDENTITY)]
    for p in loops:
        assert loop_degree(reverse(p)) == -loop_degree(p)
        for q in loops:
            assert loop_degree(concat(p, q)) == loop_degree(p) + loop_degree(q)


@given(st.integers(-5, 5), st.integers(-5, 5))
def test_loop_degree_additive_on_generators(m, n):
    p, q = affine_path(2 * m, 0), affine_path(2 * n, 0)
    assert loop_degree(concat(p, q)) == m + n


def test_pointwise_mul_matches_values():
    p = affine_path(3, Fraction(1, 2), reflect=True)
    q = affine_path(-2, Fraction(1, 3))
    prod = p.pointwise_mul(q)
    for t in (Fraction(0), Fraction(1, 4), Fraction(2, 3), Fraction(1)):
        assert prod.value(t) == p.value(t) * q.value(t)
    # Halves on [0, 1/2] multiply with each other, not with a full path.
    half_p = p.reparameterized(2, 0)
    half_q = concat(q, affine_path(1, Fraction(1, 3))).reparameterized(2, 0)
    assert len(half_q.segments) == 2
    assert half_p.pointwise_mul(half_q).segments == refined_product(half_p, half_q)
    with pytest.raises(ValueError):
        half_p.pointwise_mul(q)
    with pytest.raises(ValueError):
        q.pointwise_mul(half_p)


def test_pointwise_pow_matches_values():
    p = O2Path(
        [
            PathSegment(Fraction(0), Fraction(1, 2), Fraction(1), Fraction(0)),
            PathSegment(Fraction(1, 2), Fraction(1), Fraction(-1), Fraction(1)),
        ]
    )
    for n in (-3, -1, 0, 2, 5):
        q = p.pointwise_pow(n)
        for t in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            assert q.value(t) == o2_pow(p.value(t), n)


def test_right_mul_constant():
    p = affine_path(1, 0, reflect=True)
    q = p.right_mul_constant(REFLECTION)
    assert not any(seg.reflect for seg in q.segments)
    for t in (Fraction(0), Fraction(1, 2), Fraction(1)):
        assert q.value(t) == p.value(t) * REFLECTION


small_fractions = st.builds(Fraction, st.integers(-48, 48), st.integers(1, 12))


@st.composite
def continuous_paths(draw):
    """A continuous path on [0, 1] with up to four segments in one component:
    each segment's offset is chosen to meet the previous one's end value,
    shifted by a whole number of turns."""
    cuts = [Fraction(i, 12) for i in sorted(draw(st.sets(st.integers(1, 11), max_size=3)))]
    reflect = draw(st.booleans())
    segs = []
    for t0, t1 in itertools.pairwise([Fraction(0)] + cuts + [Fraction(1)]):
        slope = draw(small_fractions)
        if segs:
            prev = segs[-1]
            offset = prev.slope * t0 + prev.offset - slope * t0 + 2 * draw(st.integers(-2, 2))
        else:
            offset = draw(small_fractions)
        segs.append(PathSegment(t0, t1, slope, offset, reflect))
    return O2Path(segs)


@given(continuous_paths(), continuous_paths(), st.integers(-6, 6), elements)
def test_derived_paths_pass_the_public_constructor(p, q, n, a):
    # t |-> p(t) p(t)^-1 has one merged segment however many p has.
    assert p.pointwise_mul(p.pointwise_pow(-1)).segments == constant_path(IDENTITY).segments
    derived = {
        "mul": p.pointwise_mul(q),
        "pow": p.pointwise_pow(n),
        "right_mul": p.right_mul_constant(a),
    }
    for name, path in derived.items():
        checked = O2Path(path.segments)
        assert checked == path and checked.segments == path.segments, name
        # every segment is in the normal form PathSegment.__new__ gives it
        assert [PathSegment(*seg) for seg in path.segments] == list(path.segments), name
    assert derived["mul"].segments == refined_product(p, q)
    assert derived["right_mul"].segments == right_product(p, a)
    for t in ends(p) | ends(q) | {Fraction(1, 7)}:
        assert derived["mul"].value(t) == p.value(t) * q.value(t)
        assert derived["pow"].value(t) == o2_pow(p.value(t), n)
        assert derived["right_mul"].value(t) == p.value(t) * a
    assert derived["mul"].start == p.start * q.start
    assert derived["mul"].end == p.end * q.end


def canonical(x) -> bool:
    """An int, or a Fraction that is not integral: never a float and never
    an integral Fraction."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


@given(
    continuous_paths(),
    continuous_paths(),
    st.integers(-6, 6),
    small_fractions.filter(bool),
    small_fractions,
)
def test_path_results_are_canonical_exact_rationals(p, q, n, scale, shift):
    derived = (
        p,
        p.pointwise_mul(q),
        p.pointwise_pow(n),
        p.reparameterized(scale, shift),
    )
    for path in derived:
        for seg in path.segments:
            fields = (seg.t0, seg.t1, seg.slope, seg.offset)
            assert all(map(canonical, fields)), seg
        ts = ends(path) | {Fraction(seg.t0 + seg.t1, 2) for seg in path.segments}
        values = [path.start, path.end] + [path.value(t) for t in ts]
        assert all(canonical(e.angle) for e in values), values
        assert canonical(angle_sweep(path))
    # Integral Fraction parameters read as ints.
    assert canonical(p.value(Fraction(2, 2)).angle) and canonical(p.value(Fraction(0)).angle)


def test_reparameterized_domain_is_exact():
    third = affine_path(1, 0).reparameterized(3, 0)
    assert third.segments[-1].t1 == Fraction(1, 3)
    assert type(third.segments[-1].t1) is Fraction
    assert third.end == O2Element(1)
