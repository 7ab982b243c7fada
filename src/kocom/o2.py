"""Exact arithmetic in O(2) and piecewise rotation paths.

Every angle is a rational multiple of pi, stored mod 2 (so a value of 1/2
means the rotation by pi/2).  An element of O(2) is either a rotation R_a
or a reflected rotation R_a*A, where A = diag(1, -1).  Paths in O(2) are
piecewise affine in the angle coordinate, which keeps every winding-number
computation exact.  Every stored angle, time, slope and offset is one
canonical exact rational: an int when it is integral, a Fraction in lowest
terms otherwise, never a float.  Python's numeric tower makes ==, hash, %
and str agree across the two types, and integral paths stay on int
arithmetic.

The degree convention is fixed so that t |-> R_{2t*pi} on [0, 1] has
degree 1; a path's degree is sum(slope * (t1 - t0)) / 2 over its segments.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .integral import exact_int

Rational = int | Fraction


class NotALoopError(ValueError):
    """Raised when a path degree is requested for a non-closed path."""


def _frac(x: Rational) -> Rational:
    # The canonical exact rational: an int as it is, an integral Fraction as its
    # numerator, any other Fraction as it is; anything else goes to
    # integral.exact_int, which raises TypeError.  The int test comes first
    # because isinstance against Fraction is an ABC check.
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    return exact_int(x)


def product(a: tuple, b: tuple) -> tuple:
    """(angle, reflect) of a * b, for O2Elements or plain (angle, reflect)
    pairs; the angle is not reduced mod 2.  Multiplication table (all exact,
    angles mod 2*pi):
        R_a * R_b     = R_{a+b}
        R_a * (R_b A) = R_{a+b} A
        (R_a A) * R_b = R_{a-b} A
        (R_a A)(R_b A) = R_{a-b}
    """
    (x, ra), (y, rb) = a, b
    return (x - y, not rb) if ra else (x + y, rb)


class O2Element(namedtuple("O2Element", "angle reflect")):
    """R_angle if reflect is False, else R_angle * A, A = diag(1, -1); see product."""

    __slots__ = ()

    def __new__(cls, angle: Rational, reflect: bool = False) -> "O2Element":
        if reflect is not True and reflect is not False:
            raise TypeError(f"reflect must be True or False, got {reflect!r}")
        # The angle is taken mod 2, in [0, 2), so that equality is exact.
        return super().__new__(cls, _frac(angle) % 2, reflect)

    def __mul__(self, other: "O2Element") -> "O2Element":
        return O2Element(*product(self, other))

    def inverse(self) -> "O2Element":
        if self.reflect:
            return self
        return O2Element(-self.angle)

    def __str__(self) -> str:
        core = "I" if self.angle == 0 else f"R({self.angle}*pi)"
        return core + "*A" if self.reflect else core


IDENTITY = O2Element(0)
REFLECTION = O2Element(0, reflect=True)


def reflected_rotation(value: Rational) -> O2Element:
    """The element R_{value*pi} * A."""
    return O2Element(value, reflect=True)


def commutes(a: tuple, b: tuple) -> bool:
    """Exact commutation test of O2Elements or (angle, reflect) pairs, read off
    the multiplication table: rotations always commute with each other, R_r
    commutes with a reflected element iff r is an integer (R_r is I or R_pi,
    the center), and R_a*A commutes with R_b*A iff a - b is an integer."""
    (x, ra), (y, rb) = a, b
    if ra and rb:
        return (x - y).denominator == 1
    if ra or rb:
        return (y if ra else x).denominator == 1
    return True


class PathSegment(namedtuple("PathSegment", "t0 t1 slope offset reflect")):
    """t |-> R_{(slope*t + offset)*pi} (times A if reflect) for t in [t0, t1]."""

    __slots__ = ()

    def __new__(
        cls, t0: Rational, t1: Rational, slope: Rational, offset: Rational, reflect: bool = False
    ) -> "PathSegment":
        t0, t1, slope = _frac(t0), _frac(t1), _frac(slope)
        # The offset only matters mod 2; normalizing makes path equality usable.
        offset = _frac(offset) % 2
        if t0 >= t1:
            raise ValueError(f"empty segment domain [{t0}, {t1}]")
        if reflect is not True and reflect is not False:
            raise TypeError(f"reflect must be True or False, got {reflect!r}")
        return super().__new__(cls, t0, t1, slope, offset, reflect)

    def value(self, t: Rational) -> O2Element:
        t = _frac(t)
        if not self.t0 <= t <= self.t1:
            raise ValueError(f"parameter {t} outside [{self.t0}, {self.t1}]")
        return O2Element(self.slope * t + self.offset, self.reflect)


class O2Path:
    """A piecewise-affine-angle path [0, 1] -> O(2).

    Segment domains partition [0, 1] and consecutive segments agree, as
    group elements, at the shared endpoint.  A path is a loop iff its two
    endpoint values agree.
    """

    def __init__(self, segments: Iterable[PathSegment]):
        segs = tuple(segments)
        if not segs:
            raise ValueError("a path needs at least one segment")
        if segs[0].t0 != 0 or segs[-1].t1 != 1:
            raise ValueError("segment domains must cover [0, 1]")
        for left, right in itertools.pairwise(segs):
            if left.t1 != right.t0:
                raise ValueError(
                    f"segment domains must be contiguous ({left.t1} != {right.t0})"
                )
            if left.value(left.t1) != right.value(right.t0):
                raise ValueError(f"path is discontinuous at t={left.t1}")
        self.segments = _merge_segments(segs)

    def value(self, t: Rational) -> O2Element:
        t = _frac(t)
        for seg in self.segments:
            if seg.t0 <= t <= seg.t1:
                return seg.value(t)
        raise ValueError(f"parameter {t} outside [0, 1]")

    @property
    def start(self) -> O2Element:
        seg = self.segments[0]
        return O2Element(seg.slope * seg.t0 + seg.offset, seg.reflect)

    @property
    def end(self) -> O2Element:
        seg = self.segments[-1]
        return O2Element(seg.slope * seg.t1 + seg.offset, seg.reflect)

    @property
    def is_loop(self) -> bool:
        return self.start == self.end

    def pointwise_mul(self, other: "O2Path") -> "O2Path":
        """The path t |-> self(t) * other(t), on a domain (a sub-interval of
        [0, 1]) that both paths share.  One walk cuts at the nearer segment
        end, applies the multiplication table, kept affine in t, to the two
        segments there, and advances whichever list ended."""
        left, right = self.segments, other.segments
        if (left[0].t0, left[-1].t1) != (right[0].t0, right[-1].t1):
            raise ValueError("the two paths have different domains")
        segs = []
        i = j = 0
        t0 = left[0].t0
        while i < len(left):  # the two lists run out together, at the common end
            a, b = left[i], right[j]
            t1 = min(a.t1, b.t1)
            # the table is linear in the angle, so it takes slopes and offsets apiece
            slope, reflect = product((a.slope, a.reflect), (b.slope, b.reflect))
            offset = product((a.offset, a.reflect), (b.offset, b.reflect))[0]
            segs.append(PathSegment(t0, t1, slope, offset, reflect))
            i += a.t1 == t1
            j += b.t1 == t1
            t0 = t1
        return _RawPath(_merge_segments(segs))

    def pointwise_pow(self, n: int) -> "O2Path":
        """The path t |-> self(t)**n (affine again, by the power case table)."""
        exact_int(n)
        segs = []
        for seg in self.segments:
            t0, t1, slope, offset, reflect = seg
            if reflect and n % 2:
                segs.append(seg)
            else:  # t0 < t1 holds already; slope and offset made canonical as in __new__
                slope, offset = (0, 0) if reflect else (_frac(slope * n), _frac(offset * n) % 2)
                segs.append(tuple.__new__(PathSegment, (t0, t1, slope, offset, False)))
        return _RawPath(_merge_segments(segs))

    def right_mul_constant(self, a: O2Element) -> "O2Path":
        """The path t |-> self(t) * a on [0, 1]: the pointwise product with
        the constant path at a."""
        return self.pointwise_mul(constant_path(a))

    def reparameterized(self, scale: Rational, shift: Rational) -> "O2Path":
        """The path u |-> self(scale*u + shift), on the u-interval where
        scale*u + shift sweeps [0, 1].  Negative scale reverses orientation."""
        scale, shift = _frac(scale), _frac(shift)
        if scale == 0:
            raise ValueError("scale must be nonzero")
        segs = []
        for seg in self.segments:
            u0, u1 = Fraction(seg.t0 - shift, scale), Fraction(seg.t1 - shift, scale)
            if scale < 0:
                u0, u1 = u1, u0
            segs.append(
                PathSegment(u0, u1, seg.slope * scale, seg.offset + seg.slope * shift, seg.reflect)
            )
        if scale < 0:
            segs.reverse()
        return _RawPath(segs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, O2Path):
            return NotImplemented
        return self.segments == other.segments

    def __hash__(self) -> int:
        return hash(self.segments)

    def __repr__(self) -> str:
        pieces = ", ".join(
            f"[{s.t0},{s.t1}]:({s.slope}t+{s.offset}){'A' if s.reflect else ''}"
            for s in self.segments
        )
        return f"O2Path({pieces})"


class _RawPath(O2Path):
    """O2Path taken on trust, with no domain or continuity check: pointwise
    products and powers of continuous paths, and pieces used
    mid-construction."""

    def __init__(self, segments: Sequence[PathSegment]):
        self.segments = tuple(segments)


def _merge_segments(segs: Sequence[PathSegment]) -> tuple[PathSegment, ...]:
    merged: list[PathSegment] = []
    for seg in segs:
        if merged:
            last = merged[-1]
            if (
                last.reflect == seg.reflect
                and last.slope == seg.slope
                and last.offset == seg.offset
            ):
                merged[-1] = PathSegment(last.t0, seg.t1, last.slope, last.offset, last.reflect)
                continue
        merged.append(seg)
    return tuple(merged)


def affine_path(slope: Rational, offset: Rational, reflect: bool = False) -> O2Path:
    """The single-segment path t |-> R_{(slope*t + offset)*pi} (*A) on [0, 1]."""
    return O2Path([PathSegment(0, 1, slope, offset, reflect)])


def constant_path(elem: O2Element) -> O2Path:
    return affine_path(0, elem.angle, elem.reflect)


def loop_degree(loop: O2Path) -> Fraction:
    """Winding degree of a closed path, in either component of O(2).

    Returns sum(slope * (t1 - t0)) / 2 over the segments, exact.  A
    continuous loop stays in one component, and in the reflection coset
    right multiplication by A maps R_a*A to R_a and keeps every slope, so
    one sum serves both.  The value is an integer Fraction for every
    genuine loop; the halved normalization makes t |-> R_{2t*pi} the
    degree-1 generator.
    """
    if not loop.is_loop:
        raise NotALoopError(f"endpoints differ: {loop.start} vs {loop.end}")
    return Fraction(angle_sweep(loop), 2)


def angle_sweep(path: O2Path) -> Rational:
    """sum(slope * (t1 - t0)) over the segments: the total change of the
    angle coordinate along the path, in units of pi."""
    return _frac(sum(seg.slope * (seg.t1 - seg.t0) for seg in path.segments))

