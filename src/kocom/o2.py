"""Exact arithmetic in O(2), piecewise rotation paths, and the Klein four-group.

Every angle is a rational multiple of pi, stored mod 2 (so a value of 1/2
means the rotation by pi/2).  An element of O(2) is either a rotation R_a
or a reflected rotation R_a*A, where A = diag(1, -1).  Paths in O(2) are
piecewise affine in the angle coordinate, which keeps every winding-number
computation exact: the degree of a loop is a plain Fraction, never a float.

The degree convention is fixed so that t |-> R_{2t*pi} on [0, 1] has
degree 1; a path's degree is sum(slope * (t1 - t0)) / 2 over its segments.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]


class NotALoopError(ValueError):
    """Raised when a path degree is requested for a non-closed path."""


class NotInSO2Error(ValueError):
    """Raised when a rotation-only operation meets a reflected segment."""


def _frac(x: Rational) -> Fraction:
    # Exact input only: a float or a string would give an inexact angle.
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, got {x!r}")


@dataclass(frozen=True)
class O2Element:
    """R_angle if reflect is False, otherwise R_angle * A with A = diag(1, -1).

    Multiplication table (all exact, angles mod 2*pi):
        R_a * R_b     = R_{a+b}
        R_a * (R_b A) = R_{a+b} A
        (R_a A) * R_b = R_{a-b} A
        (R_a A)(R_b A) = R_{a-b}
    """

    angle: Fraction
    reflect: bool = False

    def __post_init__(self) -> None:
        # The angle is taken mod 2, in [0, 2), so that equality is exact.
        object.__setattr__(self, "angle", _frac(self.angle) % 2)

    def __mul__(self, other: "O2Element") -> "O2Element":
        if not self.reflect:
            return O2Element(self.angle + other.angle, other.reflect)
        return O2Element(self.angle - other.angle, not other.reflect)

    def inverse(self) -> "O2Element":
        if self.reflect:
            return self
        return O2Element(-self.angle)

    def __str__(self) -> str:
        core = "I" if self.angle == 0 else f"R({self.angle}*pi)"
        return core + "*A" if self.reflect else core


IDENTITY = O2Element(Fraction(0))
REFLECTION = O2Element(Fraction(0), reflect=True)


def rotation(value: Rational) -> O2Element:
    """The rotation by value*pi."""
    return O2Element(value)


def reflected_rotation(value: Rational) -> O2Element:
    """The element R_{value*pi} * A."""
    return O2Element(value, reflect=True)


def commutes(a: O2Element, b: O2Element) -> bool:
    """Exact commutation test, read off the multiplication table: rotations
    always commute with each other, a rotation R_r commutes with a reflected
    element iff r is an integer (R_r is I or R_pi, the center), and R_a*A
    commutes with R_b*A iff a - b is an integer."""
    if a.reflect and b.reflect:
        return (a.angle - b.angle).denominator == 1
    if a.reflect or b.reflect:
        rot = b if a.reflect else a
        return rot.angle.denominator == 1
    return True


@dataclass(frozen=True)
class PathSegment:
    """t |-> R_{(slope*t + offset)*pi} (times A if reflect) for t in [t0, t1]."""

    t0: Fraction
    t1: Fraction
    slope: Fraction
    offset: Fraction
    reflect: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "t0", _frac(self.t0))
        object.__setattr__(self, "t1", _frac(self.t1))
        object.__setattr__(self, "slope", _frac(self.slope))
        # The offset only matters mod 2; normalizing makes path equality usable.
        object.__setattr__(self, "offset", _frac(self.offset) % 2)
        if self.t0 >= self.t1:
            raise ValueError(f"empty segment domain [{self.t0}, {self.t1}]")

    def value(self, t: Rational) -> O2Element:
        t = _frac(t)
        if not self.t0 <= t <= self.t1:
            raise ValueError(f"parameter {t} outside [{self.t0}, {self.t1}]")
        return O2Element(self.slope * t + self.offset, self.reflect)

    def angle_change(self) -> Fraction:
        return self.slope * (self.t1 - self.t0)


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

    @property
    def in_so2(self) -> bool:
        return all(not seg.reflect for seg in self.segments)

    @property
    def in_reflection_coset(self) -> bool:
        return all(seg.reflect for seg in self.segments)

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
            if not a.reflect:
                slope, offset = a.slope + b.slope, a.offset + b.offset
            else:
                slope, offset = a.slope - b.slope, a.offset - b.offset
            segs.append(PathSegment(t0, t1, slope, offset, a.reflect != b.reflect))
            i += a.t1 == t1
            j += b.t1 == t1
            t0 = t1
        return _RawPath(_merge_segments(segs))

    def pointwise_pow(self, n: int) -> "O2Path":
        """The path t |-> self(t)**n (affine again, by the power case table)."""
        segs = []
        for seg in self.segments:
            if seg.reflect:
                if n % 2:
                    segs.append(seg)
                else:
                    segs.append(PathSegment(seg.t0, seg.t1, Fraction(0), Fraction(0)))
            else:
                segs.append(
                    PathSegment(seg.t0, seg.t1, seg.slope * n, seg.offset * n)
                )
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
            u0, u1 = (seg.t0 - shift) / scale, (seg.t1 - shift) / scale
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
    products and powers of continuous paths, and pieces used mid-construction."""

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
    return O2Path([PathSegment(Fraction(0), Fraction(1), _frac(slope), _frac(offset), reflect)])


def constant_path(elem: O2Element) -> O2Path:
    return affine_path(0, elem.angle, elem.reflect)


def loop_degree(loop: O2Path) -> Fraction:
    """Winding degree of a closed rotation-valued path.

    Returns sum(slope * (t1 - t0)) / 2 over the segments, exact.  The value
    is an integer Fraction for every genuine loop; the halved normalization
    makes t |-> R_{2t*pi} the degree-1 generator.
    """
    if not loop.in_so2:
        raise NotInSO2Error("path leaves the rotation subgroup")
    if not loop.is_loop:
        raise NotALoopError(f"endpoints differ: {loop.start} vs {loop.end}")
    return sum((seg.angle_change() for seg in loop.segments), Fraction(0)) / 2


class D4Element(enum.IntEnum):
    """The Klein four-group as the 2-bit ints 0..3 under XOR: I is the
    identity, each ci an involution, and the product of two distinct
    non-identity elements is the third."""

    I = 0  # noqa: E741 - the identity label
    C1 = 1
    C2 = 2
    C3 = 3

    def __mul__(self, other: int) -> "D4Element":
        return D4Element(self ^ other)

    def __str__(self) -> str:
        return ("I", "c1", "c2", "c3")[self]
