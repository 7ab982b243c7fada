"""Commutative O(2) cocycles on the three-set cover of the 2-sphere.

The cover has a left hemisphere and a north-east / south-east pair of
quarter-spheres.  Each pairwise intersection is an arc parameterized by
t in [0, 1]; the two triple points sit at t = 0 and t = 1, and they are
the only points shared by distinct arcs.  A cocycle is a triple of O(2)
paths (alpha12, alpha13, alpha23); it is commutative when its values at
each triple point pairwise commute, and the cocycle condition
alpha12 * alpha23 = alpha13 holds there.

Gluing along such a cocycle produces a plane bundle on the sphere whose
isomorphism class is read off a single clutching loop over the boundary
circle of the left hemisphere: the loop runs alpha12 * alpha23 along the
upper arc and back along alpha13.  Pointwise n-th powers of a cocycle
are again cocycles, and the pair of clutching degrees of a cocycle and
its pointwise inverse is the invariant this module extracts.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .integral import exact_int
from .o2 import (
    IDENTITY,
    O2Element,
    O2Path,
    affine_path,
    angle_sweep,
    commutes,
    constant_path,
    loop_degree,
    product,
    reflected_rotation,
)


class InvalidCocycleError(ValueError):
    """Raised when an operation requires a valid commutative cocycle."""


#: The labeled arcs of the cover: boundary-circle halves (1,2) and (1,3),
#: and the equatorial arc (2,3) of the right hemisphere.  All geometry is
#: collapsed into the shared parameter; the retraction of the north-east
#: region onto the equatorial arc is the identity on it.
ARCS = ((1, 2), (1, 3), (2, 3))


class CommCocycle(namedtuple("CommCocycle", "alpha12 alpha13 alpha23")):
    """Transition O2Paths over the three arcs, each parameterized on [0, 1]."""

    __slots__ = ()

    def __new__(cls, alpha12: O2Path, alpha13: O2Path, alpha23: O2Path) -> "CommCocycle":
        for name, arc in zip(cls._fields, (alpha12, alpha13, alpha23)):
            if not isinstance(arc, O2Path):
                raise TypeError(f"{name} must be an O2Path, got {arc!r}")
            if (domain := (arc.segments[0].t0, arc.segments[-1].t1)) != (0, 1):
                raise ValueError(f"{name} runs over [{domain[0]}, {domain[1]}], not [0, 1]")
        return super().__new__(cls, alpha12, alpha13, alpha23)


class CocycleFailure(namedtuple("CocycleFailure", "point product alpha13")):
    """At triple point 0 or 1, product = alpha12 * alpha23 differs from alpha13."""

    __slots__ = ()


class CommutationFailure(namedtuple("CommutationFailure", "point arc_a arc_b value_a value_b")):
    """At a triple point, the O(2) values on arcs arc_a and arc_b do not commute."""

    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", "cocycle_failures commutation_failures")):
    """The two tuples of failures validate found; empty when the cocycle is valid."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.cocycle_failures and not self.commutation_failures

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return (
            f"{len(self.cocycle_failures)} cocycle / "
            f"{len(self.commutation_failures)} commutation failures"
        )


def standard_cocycle(k: int) -> CommCocycle:
    """The k-th standard commutative cocycle: alpha12(t) = R_{kt*pi},
    alpha23 constant A, alpha13(t) = R_{kt*pi} * A."""
    return CommCocycle(
        alpha12=affine_path(k, 0),
        alpha13=affine_path(k, 0, reflect=True),
        alpha23=constant_path(reflected_rotation(0)),
    )


def so2_cocycle(m: int) -> CommCocycle:
    """A rotation-valued cocycle clutching the oriented plane bundle of
    Euler number m: all winding lives on the upper arc."""
    return CommCocycle(
        alpha12=affine_path(2 * exact_int(m), 0),
        alpha13=constant_path(IDENTITY),
        alpha23=constant_path(IDENTITY),
    )


def validate(c: CommCocycle) -> ValidationReport:
    """Check the cocycle condition and pairwise commutativity at the two
    triple points.  Distinct arcs meet only there, so those are the only
    points where two transition values are simultaneously defined.
    Failures are returned as data, not raised.  The triple points are the
    arc endpoints t = 0 and 1: the six values are the paths' starts and ends,
    as (angle, reflect) pairs; O2Elements are built only for failure records."""
    cocycle_failures = []
    commutation_failures = []
    paths = (c.alpha12, c.alpha13, c.alpha23)  # in ARCS order
    starts = [(s.slope * s.t0 + s.offset, s.reflect) for s in (x.segments[0] for x in paths)]
    ends = [(s.slope * s.t1 + s.offset, s.reflect) for s in (x.segments[-1] for x in paths)]
    for p, values in ((0, starts), (1, ends)):
        a12, a13, a23 = values
        angle, reflect = product(a12, a23)
        if reflect != a13[1] or (angle - a13[0]) % 2:
            cocycle_failures.append(CocycleFailure(p, O2Element(angle, reflect), O2Element(*a13)))
        for (a, x), (b, y) in combinations(zip(ARCS, values), 2):
            if not commutes(x, y):
                commutation_failures.append(CommutationFailure(p, a, b, O2Element(*x), O2Element(*y)))
    return ValidationReport(tuple(cocycle_failures), tuple(commutation_failures))


def power_cocycle(c: CommCocycle, n: int) -> CommCocycle:
    """Pointwise n-th power of every transition path (n may be negative;
    n = 0 gives the all-identity cocycle).  A power keeps each arc's domain
    [0, 1], so the record is built without CommCocycle's arc checks."""
    arcs = (c.alpha12, c.alpha13, c.alpha23)
    return tuple.__new__(CommCocycle, [arc.pointwise_pow(n) for arc in arcs])


def _require_valid(c: CommCocycle) -> None:
    report = validate(c)
    if not report.ok:
        raise InvalidCocycleError(report.summary())


def clutching_function(c: CommCocycle) -> O2Path:
    """The clutching loop over the boundary circle of the left hemisphere.

    Counterclockwise, the first half is the upper arc carrying
    alpha12(t) * alpha23(t) for t from 0 to 1 (the retraction onto the
    equatorial arc is the identity on the parameter), and the second half
    is the lower arc carrying alpha13, traversed from t = 1 back to 0.
    Continuity at both junctions is exactly the cocycle condition, so the
    checked constructor accepts the join once validate has passed.
    """
    _require_valid(c)
    upper = c.alpha12.pointwise_mul(c.alpha23)
    first = upper.reparameterized(2, 0)          # u in [0, 1/2], t = 2u
    second = c.alpha13.reparameterized(-2, 2)    # u in [1/2, 1], t = 2 - 2u
    return O2Path(first.segments + second.segments)


def bundle_class(loop: O2Path) -> int:
    """The integer class of the bundle clutched by a closed loop: its
    winding degree, read by the same rule in either component of O(2)
    (a constant right multiplication by A, which keeps every slope, does
    not change the clutched bundle's isomorphism class)."""
    return int(loop_degree(loop))


def clutching_degree(c: CommCocycle) -> int:
    """bundle_class(clutching_function(c)), read off the paths' angle sweeps
    without building the loop.  With sweep(p) the sum of slope * (t1 - t0),
    the upper half sweeps sweep(alpha12) + sweep(alpha23), or their
    difference when alpha12 is reflected (R_a A R_b = R_{a-b} A: the product
    table, linear in the angle), and the lower half runs alpha13 backwards,
    so the degree is (sweep(alpha12) +- sweep(alpha23) - sweep(alpha13)) / 2.
    Raises InvalidCocycleError as clutching_function does."""
    _require_valid(c)
    d12, d13, d23 = (angle_sweep(p) for p in (c.alpha12, c.alpha13, c.alpha23))
    upper = product((d12, c.alpha12.segments[0].reflect), (d23, c.alpha23.segments[0].reflect))[0]
    return int(Fraction(upper - d13, 2))


class TCInvariant(namedtuple("TCInvariant", "deg_plus deg_minus")):
    """Clutching degree of a cocycle (deg_plus) and of its pointwise
    inverse (deg_minus); their mod-2 sum detects structures that are
    invisible to the underlying bundle."""

    __slots__ = ()

    @property
    def a2(self) -> int:
        return (self.deg_plus + self.deg_minus) % 2

    def __str__(self) -> str:
        return f"(deg+={self.deg_plus}, deg-={self.deg_minus}, a2={self.a2})"


def tc_invariant(c: CommCocycle) -> TCInvariant:
    deg_plus = clutching_degree(c)
    deg_minus = clutching_degree(power_cocycle(c, -1))
    return TCInvariant(deg_plus, deg_minus)


def tc_sum(x: TCInvariant, y: TCInvariant) -> TCInvariant:
    """Invariant of the sum of two structures (componentwise addition)."""
    return TCInvariant(x.deg_plus + y.deg_plus, x.deg_minus + y.deg_minus)


def oriented_invariant(m: int) -> TCInvariant:
    """Invariant (m, -m) of the oriented bundle of Euler number m with its
    rotation-valued structure."""
    return tc_invariant(so2_cocycle(m))


def broken_commutation_cocycle() -> CommCocycle:
    """Fixture: the standard k = 1 cocycle with alpha23 replaced by the
    non-central reflection R_{pi/2} * A.  At both triple points the value
    of alpha13 fails to commute with it, and the cocycle condition fails."""
    return CommCocycle(
        alpha12=affine_path(1, 0),
        alpha13=affine_path(1, 0, reflect=True),
        alpha23=constant_path(reflected_rotation(Fraction(1, 2))),
    )


def broken_cocycle_condition() -> CommCocycle:
    """Fixture: alpha13 frozen at the constant A, so the cocycle condition
    fails at t = 1 while every pair of values still commutes."""
    return CommCocycle(
        alpha12=affine_path(1, 0),
        alpha13=constant_path(reflected_rotation(0)),
        alpha23=constant_path(reflected_rotation(0)),
    )
