"""The mod-2 characteristic algebra of commutative O(2) structures.

The algebra has the Stiefel-Whitney generators w1, w2 pulled back from the
plane-bundle classifying space, a degree-2 class r with w1*r = r^2 = 0
that restricts to twice the Euler class integrally (so to 0 on the
rotation subgroup and on a pair of line bundles), and a degree-3 class s
with r*s = s^2 = 0.  Pointwise inversion of structures acts on it by
w1 -> w1, w2 -> w2 + r, r -> r, s -> s; the difference class
a2 = w2 + (inversion pullback of w2) = r is the obstruction that detects
structures invisible to the underlying bundle.

Also here: the splitting-principle identities for w2 of tensor products
of low-rank bundles, and the (w1, w2, twisted w2) calculus for bundles
carrying a commutative structure, where "twisted" means the second
Stiefel-Whitney class of the pointwise-inverse structure's underlying
bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .f2poly import F2Algebra, F2Class, RingMap, elementary_symmetric


class IdentityFailsError(AssertionError):
    """Raised when a splitting-principle identity fails to hold (it must not)."""


def bcom_o2_algebra(cap: int = 6) -> F2Algebra:
    """F2[w1, w2, r, s] / (w1*r, r^2, r*s, s^2), truncated at the cap,
    with the total Steenrod squares of the generators attached."""
    if cap < 4:
        raise ValueError("cap must be at least 4")
    alg = F2Algebra(
        generators=[("w1", 1), ("w2", 2), ("r", 2), ("s", 3)],
        relations=[
            ({"w1": 1, "r": 1}, None),
            ({"r": 2}, None),
            ({"r": 1, "s": 1}, None),
            ({"s": 2}, None),
        ],
        cap=cap,
        name="H(BcomO2)",
    )
    alg.set_total_squares(
        {
            "w1": alg.cls({"w1": 1}, {"w1": 2}),
            "w2": alg.cls({"w2": 1}, {"w1": 1, "w2": 1}, {"w2": 2}),
            "r": alg.cls({"r": 1}),
            "s": alg.cls({"s": 1}, {"w2": 1, "r": 1}, {"w1": 2, "s": 1}),
        }
    )
    return alg


def line_pair_algebra(cap: int = 6) -> F2Algebra:
    """F2[u, v], the cohomology of a pair of line bundles, truncated."""
    alg = F2Algebra([("u", 1), ("v", 1)], cap=cap, name="F2[u,v]")
    alg.set_total_squares(
        {
            "u": alg.cls({"u": 1}, {"u": 2}),
            "v": alg.cls({"v": 1}, {"v": 2}),
        }
    )
    return alg


def euler_algebra(cap: int = 6) -> F2Algebra:
    """F2[e] on the mod-2 Euler class of the oriented rotation subgroup."""
    alg = F2Algebra([("e", 2)], cap=cap, name="F2[e]")
    alg.set_total_squares({"e": alg.cls({"e": 1}, {"e": 2})})
    return alg


def inversion_pullback(alg: F2Algebra) -> RingMap:
    """The pullback of pointwise inversion: an involutive ring endomorphism
    fixing w1, r, s and sending w2 to w2 + r."""
    return RingMap(
        alg,
        alg,
        {
            "w1": alg.gen("w1"),
            "w2": alg.gen("w2") + alg.gen("r"),
            "r": alg.gen("r"),
            "s": alg.gen("s"),
        },
    )


def line_pair_restriction(alg: F2Algebra) -> RingMap:
    """Restriction to a pair of line bundles: w1 -> u + v, w2 -> uv, and
    both r and s restrict to zero."""
    target = line_pair_algebra(alg.cap)
    return RingMap(
        alg,
        target,
        {
            "w1": target.gen("u") + target.gen("v"),
            "w2": target.gen("u") * target.gen("v"),
            "r": target.zero(),
            "s": target.zero(),
        },
    )


def so2_restriction(alg: F2Algebra) -> RingMap:
    """Restriction to oriented plane bundles: w1 -> 0, w2 -> e, and r -> 0
    (integrally r restricts to twice the Euler class, hence to 0 mod 2)."""
    target = euler_algebra(alg.cap)
    return RingMap(
        alg,
        target,
        {
            "w1": target.zero(),
            "w2": target.gen("e"),
            "r": target.zero(),
            "s": target.zero(),
        },
    )


def a2_class(alg: F2Algebra) -> F2Class:
    """w2 + (inversion pullback of w2); evaluates to r."""
    return alg.gen("w2") + inversion_pullback(alg)(alg.gen("w2"))


# -- splitting-principle identities ---------------------------------------

#: Oracle cases: tensor of two plane bundles, and plane bundle tensor line.
RANK2_RANK2 = "rank2-rank2"
RANK2_LINE = "rank2-line"


def splitting_oracle_w2_tensor(case: str) -> F2Class:
    """Verify a w2-of-tensor-product formula against the elementary-symmetric
    oracle in the splitting ring F2[x1, x2, y1, y2, z] (formal line classes
    splitting two plane bundles, the x's and y's, and one line bundle z)
    and return the common value, which lives in that ring.

    rank2-rank2: w2(E (x) F) = w1(E)^2 + w1(E) w1(F) + w1(F)^2, with the
    oracle e2 of the four sums x_i + y_j.

    rank2-line: w2(E (x) L) = w2(E) + w1(E) w1(L) + w1(L)^2, with the
    oracle e2 of the two sums x_i + z.  (The w1(E) w1(L) cross term is
    what the splitting principle produces; it vanishes in every use site
    here, where w1(E) = 0.)
    """
    ring = F2Algebra(
        [("x1", 1), ("x2", 1), ("y1", 1), ("y2", 1), ("z", 1)], cap=4, name="splitting"
    )
    x1, x2 = ring.gen("x1"), ring.gen("x2")
    y1, y2 = ring.gen("y1"), ring.gen("y2")
    z = ring.gen("z")
    w1e, w2e = x1 + x2, x1 * x2
    if case == RANK2_RANK2:
        w1f = y1 + y2
        lhs = elementary_symmetric([x1 + y1, x1 + y2, x2 + y1, x2 + y2], 2)
        rhs = w1e * w1e + w1e * w1f + w1f * w1f
    elif case == RANK2_LINE:
        lhs = elementary_symmetric([x1 + z, x2 + z], 2)
        rhs = w2e + w1e * z + z * z
    else:
        raise ValueError(f"unknown case {case!r}")
    if lhs != rhs:
        raise IdentityFailsError(f"{case}: {lhs} != {rhs}")
    return lhs


# -- the (w1, w2, twisted w2) calculus -------------------------------------


@dataclass(frozen=True)
class TCBundleData:
    """Invariant data of a bundle with a commutative structure: its w1 and
    w2, and the w2 of the pointwise-inverse structure's underlying bundle
    (pointwise inversion fixes w1, so that needs no twisted copy).  For an
    algebraic structure the twisted w2 equals w2."""

    w1: F2Class
    w2: F2Class
    w2_twisted: F2Class

    def __post_init__(self) -> None:
        if self.w1.algebra is not self.w2.algebra or self.w1.algebra is not self.w2_twisted.algebra:
            raise ValueError("all three classes must live in one algebra")

    @property
    def algebra(self) -> F2Algebra:
        return self.w1.algebra

    def map_along(self, f: RingMap) -> "TCBundleData":
        return TCBundleData(f(self.w1), f(self.w2), f(self.w2_twisted))


def trivial_data(alg: F2Algebra) -> TCBundleData:
    return TCBundleData(alg.zero(), alg.zero(), alg.zero())


def line_data(w1: F2Class) -> TCBundleData:
    """A line bundle with its standard algebraic structure (twisted = plain)."""
    return TCBundleData(w1, w1.algebra.zero(), w1.algebra.zero())


def direct_sum(a: TCBundleData, b: TCBundleData) -> TCBundleData:
    """Whitney sum: w1 adds, w2 picks up the w1 cross term, twisted alike."""
    return TCBundleData(
        a.w1 + b.w1,
        a.w2 + a.w1 * b.w1 + b.w2,
        a.w2_twisted + a.w1 * b.w1 + b.w2_twisted,
    )


def tensor_line(a: TCBundleData, line: TCBundleData) -> TCBundleData:
    """Tensor of a rank-2 datum with a line bundle carrying its standard
    structure (inversion fixes the line, so the twisted rule only twists
    the rank-2 factor)."""
    if not (line.w2.is_zero and line.w2_twisted.is_zero):
        raise ValueError("second factor must be a line bundle datum")
    lw = line.w1
    return TCBundleData(
        a.w1,
        a.w2 + a.w1 * lw + lw * lw,
        a.w2_twisted + a.w1 * lw + lw * lw,
    )


def tensor_rank2(a: TCBundleData, b: TCBundleData) -> TCBundleData:
    """Tensor of two rank-2 data; w2 of the product depends only on the two
    w1's, which inversion fixes, so the twisted class agrees with w2."""
    alg = a.algebra
    w2 = a.w1 * a.w1 + a.w1 * b.w1 + b.w1 * b.w1
    return TCBundleData(alg.zero(), w2, w2)


def a2_of_tc_bundle(data: TCBundleData) -> int:
    """Top-degree coefficient of w2 + twisted w2: the mod-2 obstruction bit
    (0 for every algebraic structure)."""
    return 0 if (data.w2 + data.w2_twisted).is_zero else 1
