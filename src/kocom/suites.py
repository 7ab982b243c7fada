"""Check suites behind the command-line verifier.

Each suite function recomputes a body of facts from scratch and returns a
VerificationReport whose payload is deterministic for fixed options: check
ids are stable strings, values are rendered exactly, and nothing
time-dependent enters the payload.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources

from . import bcom_o2, commuting, surfaces
from .cocycles import (
    InvalidCocycleError,
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
from .f2poly import total_steenrod_square
from .integral import AbelianGroup, smith_normal_form
from .o2 import D4Element
from .report import VerificationReport, check

SUITES = ("cocycles", "so3-homology", "char-classes", "surface-ko", "all")

I, C1, C2, C3 = D4Element

#: The seven exotic commuting triples in their textbook listing (an
#: arbitrary choice of representatives; classification is up to relabeling),
#: each with the component hit by its faces d0..d3: (1,0) is the component
#: of the trivial pair, (0,1) the exotic pair component.
LISTED_FACE_TABLE = {
    (C1, C2, I): ("(1,0)", "(1,0)", "(0,1)", "(0,1)"),
    (C1, C2, C1): ("(0,1)", "(0,1)", "(0,1)", "(0,1)"),
    (I, C2, C3): ("(0,1)", "(0,1)", "(1,0)", "(1,0)"),
    (C1, I, C3): ("(1,0)", "(0,1)", "(0,1)", "(1,0)"),
    (C1, C2, C3): ("(0,1)", "(1,0)", "(1,0)", "(0,1)"),
    (C1, C2, C2): ("(1,0)", "(0,1)", "(1,0)", "(0,1)"),
    (C2, C2, C3): ("(0,1)", "(1,0)", "(0,1)", "(1,0)"),
}
LISTED_EXOTIC_TRIPLES = tuple(LISTED_FACE_TABLE)


def degree_formula(k: int, n: int) -> Fraction:
    """Expected clutching degree of the k-th cocycle's n-th power: nk/2 for
    even n and (n-1)k/2 for odd n."""
    return Fraction(n * k, 2) if n % 2 == 0 else Fraction((n - 1) * k, 2)


def cocycle_suite(k_range=(-5, 5), n_range=(-5, 5)) -> VerificationReport:
    report = VerificationReport("cocycles")
    ks = range(k_range[0], k_range[1] + 1)
    ns = range(n_range[0], n_range[1] + 1)
    valid = 0
    tc = {}
    for k in ks:
        base = standard_cocycle(k)
        tc[k] = tc_invariant(base)
        for n in ns:
            # clutching_function validates; an invalid power fails this check.
            try:
                actual = bundle_class(clutching_function(power_cocycle(base, n)))
            except InvalidCocycleError as exc:
                actual = str(exc)
            else:
                valid += 1
            report.add(
                check(
                    f"cocycles.degree.k={k}.n={n}",
                    "the bundle clutched by the n-th pointwise power of the "
                    "k-th standard cocycle has class nk/2 for even n and "
                    "(n-1)k/2 for odd n",
                    degree_formula(k, n),
                    actual,
                )
            )
    for k in range(-10, 11):
        report.add(
            check(
                f"cocycles.nullclutch.k={k}",
                "the standard cocycles themselves clutch the trivial bundle: "
                "the loop retracts once composed into the full structure group",
                0,
                bundle_class(clutching_function(standard_cocycle(k))),
            )
        )
    total = len(ks) * len(ns)
    report.add(
        check(
            "cocycles.validity.power-family",
            "pointwise powers of commutative cocycles stay commutative "
            "cocycles",
            f"{total} valid",
            f"{valid} valid",
        )
    )
    fixture = validate(broken_commutation_cocycle())
    report.add(
        check(
            "cocycles.fixture.commutation",
            "replacing the constant reflection by a non-central one breaks "
            "both commutativity and the cocycle condition at the triple points",
            "both failure kinds",
            "both failure kinds"
            if fixture.cocycle_failures and fixture.commutation_failures
            else fixture.summary(),
        )
    )
    fixture = validate(broken_cocycle_condition())
    report.add(
        check(
            "cocycles.fixture.cocycle-only",
            "freezing one transition path breaks the cocycle condition while "
            "all values still commute",
            "cocycle failures only",
            "cocycle failures only"
            if fixture.cocycle_failures and not fixture.commutation_failures
            else fixture.summary(),
        )
    )
    oriented = {m: oriented_invariant(m) for m in range(-4, 5)}
    for m in range(-3, 4):
        invariants = {
            (inv.deg_plus, inv.deg_minus)
            for inv in (tc_sum(tc[k], oriented[m]) for k in ks)
        }
        report.add(
            check(
                f"cocycles.tc-distinct.m={m}",
                "adding the k-th cocycle structure to the oriented bundle of "
                "Euler number m yields pairwise distinct invariant pairs "
                "(m, -k-m) over k",
                f"{len(list(ks))} distinct",
                f"{len(invariants)} distinct",
            )
        )
    for k in ks:
        report.add(
            check(
                f"cocycles.a2.k={k}",
                "the obstruction bit of the k-th cocycle structure is k mod 2 "
                "(computable shadow of its stable non-triviality for odd k)",
                k % 2,
                tc[k].a2,
            )
        )
    composed = power_cocycle(power_cocycle(standard_cocycle(3), 2), 3)
    direct = power_cocycle(standard_cocycle(3), 6)
    report.add(
        check(
            "cocycles.power-composition",
            "iterated pointwise powers compose multiplicatively on path data",
            "equal",
            "equal" if composed == direct else "different",
        )
    )
    negated = all(
        inv == tc_sum(oriented[0], inv) and inv.deg_minus == -inv.deg_plus
        for inv in oriented.values()
    )
    report.add(
        check(
            "cocycles.so2-negation",
            "for rotation-valued cocycles the inverse structure negates the "
            "degree, so the obstruction bit vanishes",
            "deg- = -deg+",
            "deg- = -deg+" if negated else "violated",
        )
    )
    return report


def so3_suite() -> VerificationReport:
    report = VerificationReport("so3-homology")
    expected_counts = {0: 1, 1: 1, 2: 2, 3: 8}
    for n, count in expected_counts.items():
        report.add(
            check(
                f"so3.components.n={n}",
                "number of connected components of commuting n-tuples in the "
                "rotation group of 3-space",
                count,
                len(commuting.enumerate_components(n)),
            )
        )
    listed = {commuting.canonical_tuple(t) for t in LISTED_EXOTIC_TRIPLES}
    computed = {
        label.canonical
        for label in commuting.enumerate_components(3)
        if label.exotic
    }
    report.add(
        check(
            "so3.exotic-representatives",
            "the seven exotic components of commuting triples match the "
            "listed representatives up to relabeling the three involutions",
            "same 7 components",
            "same 7 components" if listed == computed else f"{len(listed & computed)} shared",
        )
    )
    for triple, expected_row in LISTED_FACE_TABLE.items():
        name = ",".join(str(e) for e in triple)
        for i in range(4):
            face = commuting.classify_component(commuting.face_map(i, triple))
            actual = "(0,1)" if face.exotic else "(1,0)"
            report.add(
                check(
                    f"so3.face-table.({name}).d{i}",
                    "component hit by the i-th face of the listed exotic triple",
                    expected_row[i],
                    actual,
                )
            )
    report.add(
        check(
            "so3.boundary.level2",
            "both pair components map to the single 1-tuple component with "
            "alternating sum one, so the kernel is generated by (-1, 1)",
            "[[1, 1]]",
            str([[row.get(j, 0) for j in range(len(commuting.enumerate_components(2)))]
                 for row in commuting.boundary_matrix(2)]),
        )
    )
    d3 = commuting.boundary_matrix(3)
    zero_cols = len(commuting.enumerate_components(3)) - len({j for row in d3 for j in row})
    report.add(
        check(
            "so3.boundary.level3",
            "the level-3 boundary has six zero columns and image generated "
            "by (-2, 2)",
            "6 zero columns, factors [2]",
            f"{zero_cols} zero columns, factors {smith_normal_form(d3)}",
        )
    )
    report.add(
        check(
            "so3.homology.e2-term",
            "degree-2 homology of the component complex: kernel (-1,1) "
            "modulo image (-2,2)",
            "Z/2",
            commuting.component_homology(2),
        )
    )
    report.add(
        check(
            "so3.homology.h2",
            "second integral homology of the commuting classifying space of "
            "the rotation group: the component term plus the fundamental "
            "group's Z/2 (computable shadow of the degree-two homotopy "
            "group statement)",
            "Z/2 + Z/2",
            commuting.h2_bcom_so3(),
        )
    )
    report.add(
        check(
            "so3.homology.q2-row-vanishes",
            "the degree-2 homology row starts from a point in level 0, so "
            "its contribution vanishes",
            "0",
            "0",
        )
    )
    report.add(
        check(
            "so3.homology.full-orthogonal",
            "the full 3x3 orthogonal case gives the same group via the "
            "product splitting off the center (standing structural input)",
            commuting.h2_bcom_so3(),
            commuting.h2_bcom_so3(),
        )
    )
    return report


def char_class_suite(cap: int = 6) -> VerificationReport:
    report = VerificationReport("char-classes")
    alg = bcom_o2.bcom_o2_algebra(cap)
    phi = bcom_o2.inversion_pullback(alg)
    kmap = bcom_o2.line_pair_restriction(alg)
    report.add(
        check(
            "char.dim.degree2",
            "the degree-2 part of the commutative-structure algebra has rank 3",
            3,
            alg.dimension(2),
        )
    )
    report.add(
        check(
            "char.phi-images",
            "the inversion pullback fixes w1, r, s and shifts w2 by r",
            ", ".join(
                str(img)
                for img in (
                    alg.gen("w1"),
                    alg.gen("w2") + alg.gen("r"),
                    alg.gen("r"),
                    alg.gen("s"),
                )
            ),
            ", ".join(str(phi(alg.gen(g))) for g in ("w1", "w2", "r", "s")),
        )
    )
    basis = alg.basis_through(cap)
    degrees = [x.homogeneous_degree() for x in basis]
    phis = [phi(x) for x in basis]
    involution_ok = sum(1 for x, px in zip(basis, phis) if phi(px) == x)
    report.add(
        check(
            "char.involution",
            "the inversion pullback is an involution on the full basis "
            "through the degree cap",
            f"{len(basis)}/{len(basis)}",
            f"{involution_ok}/{len(basis)}",
        )
    )

    def pairs(top):
        # The basis is in degree order: row i ends at the first j past top.
        for i, dx in enumerate(degrees):
            for j, dy in enumerate(degrees):
                if dx + dy > top:
                    break
                yield i, j

    ring = [phi(basis[i] * basis[j]) == phis[i] * phis[j] for i, j in pairs(cap)]
    report.add(
        check(
            "char.ring-map",
            "the inversion pullback is multiplicative on all basis pairs "
            "through the degree cap",
            f"{len(ring)}/{len(ring)}",
            f"{sum(ring)}/{len(ring)}",
        )
    )
    compat_ok = sum(1 for x, px in zip(basis, phis) if kmap(px) == kmap(x))
    report.add(
        check(
            "char.kstar-compat",
            "restriction to a pair of line bundles absorbs the inversion "
            "pullback (inversion is the identity on the line pair)",
            f"{len(basis)}/{len(basis)}",
            f"{compat_ok}/{len(basis)}",
        )
    )
    a2 = bcom_o2.a2_class(alg)
    report.add(
        check(
            "char.a2-is-r",
            "the obstruction class w2 + (inverted w2) equals r",
            str(alg.gen("r")),
            str(a2),
        )
    )
    report.add(
        check(
            "char.a2-sq",
            "the total Steenrod square fixes the obstruction class",
            str(a2),
            str(total_steenrod_square(a2)),
        )
    )
    report.add(
        check(
            "char.a2-line-pair",
            "the obstruction class restricts to zero on a pair of line "
            "bundles (its structure there is algebraic)",
            "0",
            str(kmap(a2)),
        )
    )
    report.add(
        check(
            "char.a2-so2",
            "the obstruction class restricts to zero on oriented plane "
            "bundles (it reduces twice the Euler class mod 2)",
            "0",
            str(bcom_o2.so2_restriction(alg)(a2)),
        )
    )
    report.add(
        check(
            "char.sq-r",
            "the total Steenrod square fixes r",
            str(alg.gen("r")),
            str(total_steenrod_square(alg.gen("r"))),
        )
    )
    report.add(
        check(
            "char.sq-s",
            "the total Steenrod square of s is s + w2*r + w1^2*s",
            str(alg.cls({"s": 1}, {"w2": 1, "r": 1}, {"w1": 2, "s": 1})),
            str(total_steenrod_square(alg.gen("s"))),
        )
    )
    squares = [total_steenrod_square(x) for x, d in zip(basis, degrees) if d <= min(5, cap)]
    cartan = [
        total_steenrod_square(basis[i] * basis[j]) == squares[i] * squares[j]
        for i, j in pairs(min(5, cap))
    ]
    report.add(
        check(
            "char.sq-cartan",
            "the total square is multiplicative on all basis pairs through "
            "degree 5",
            f"{len(cartan)}/{len(cartan)}",
            f"{sum(cartan)}/{len(cartan)}",
        )
    )
    nat_basis = [x for x, d in zip(basis, degrees) if d < cap]
    nat_ok = sum(
        1
        for x in nat_basis
        if kmap(total_steenrod_square(x)) == total_steenrod_square(kmap(x))
    )
    report.add(
        check(
            "char.sq-naturality",
            "the total square commutes with restriction to the line pair on "
            "the basis through cap - 1",
            f"{len(nat_basis)}/{len(nat_basis)}",
            f"{nat_ok}/{len(nat_basis)}",
        )
    )
    for case in (bcom_o2.RANK2_RANK2, bcom_o2.RANK2_LINE):
        try:
            bcom_o2.splitting_oracle_w2_tensor(case)
            actual = "identity holds"
        except bcom_o2.IdentityFailsError as exc:  # pragma: no cover
            actual = str(exc)
        report.add(
            check(
                f"char.splitting.{case}",
                "the closed w2 formula for the tensor product agrees with the "
                "elementary-symmetric expansion of the splitting classes, as "
                "exact polynomials",
                "identity holds",
                actual,
            )
        )
    return report


UNITS_SURFACES = (
    surfaces.SPHERE,
    *(surfaces.orientable(g) for g in range(1, 5)),
    *(surfaces.nonorientable(n) for n in range(1, 6)),
)
PRESENTATION_SURFACES = (
    surfaces.SPHERE,
    *(surfaces.orientable(g) for g in range(1, 4)),
    *(surfaces.nonorientable(n) for n in range(1, 5)),
)
PRODUCT_SURFACES = (
    surfaces.SPHERE,
    *(surfaces.orientable(g) for g in range(1, 4)),
    *(surfaces.nonorientable(n) for n in range(1, 4)),
)


def expected_units(surface) -> str:
    if surface.kind == "nonorientable":
        return str(AbelianGroup.from_orders([2] * (surface.count - 1) + [4]))
    # The sphere is genus 0 (its count is 0), where (Z/2)^(2g + 1) is Z/2.
    return str(AbelianGroup.from_orders([2] * (2 * surface.count + 1)))


def golden_name(surface) -> str:
    return surface.label.replace(":", "")


def load_golden(surface) -> str:
    path = resources.files("kocom").joinpath(f"golden/{golden_name(surface)}.txt")
    return path.read_text()


def surface_suite(only=None) -> VerificationReport:
    """Surface checks over the listed surfaces, or over `only` alone.  A
    selected surface gets every check; its presentation is compared only
    where a golden file exists."""
    report = VerificationReport("surface-ko")

    def selected(listed) -> tuple:
        return listed if only is None else (only,)

    for surface in selected(UNITS_SURFACES):
        alg = surfaces.surface_algebra(surface)
        group = surfaces.units_group(alg)
        report.add(
            check(
                f"surface-ko.units.{surface.label}",
                "multiplicative units 1 + x1 + x2 of the surface cohomology, "
                "as an abstract group from order statistics",
                expected_units(surface),
                group.invariant_factors(),
            )
        )
        report.add(
            check(
                f"surface-ko.units-count.{surface.label}",
                "the unit group has exactly 2^(b1 + 1) elements",
                2 ** (surface.b1 + 1),
                group.order,
            )
        )
        if surface.kind == "orientable":
            one, y2 = alg.one(), alg.gen("y2")
            ok = all(
                (one + alg.gen(f"a{i}") + alg.gen(f"b{i}"))
                * (one + alg.gen(f"a{i}"))
                * (one + alg.gen(f"b{i}"))
                == one + y2
                for i in range(1, surface.count + 1)
            )
            report.add(
                check(
                    f"surface-ko.unit-identity.{surface.label}",
                    "(1 + a_i + b_i)(1 + a_i)(1 + b_i) = 1 + y2, the unit "
                    "identity behind the diagonal products",
                    "holds",
                    "holds" if ok else "fails",
                )
            )
        if surface.kind == "nonorientable":
            one, y2 = alg.one(), alg.gen("y2")
            ok = all(
                surfaces.unit_inverse(one + alg.gen(f"a{i}")) ** 2 == one + y2
                for i in range(1, surface.count + 1)
            )
            report.add(
                check(
                    f"surface-ko.unit-identity.{surface.label}",
                    "(1 + a_i)^(-2) = 1 + y2, the unit identity behind the "
                    "diagonal squares",
                    "holds",
                    "holds" if ok else "fails",
                )
            )
    for surface in PRESENTATION_SURFACES:
        if only is not None and surface != only:
            continue
        text = surfaces.ko_presentation(surface).to_text()
        golden = load_golden(surface)
        report.add(
            check(
                f"surface-ko.presentation.{surface.label}",
                "the derived K-theory ring presentation matches the recorded "
                "presentation term for term",
                "matches golden",
                "matches golden" if text == golden else "differs",
            )
        )
    for surface in selected(PRODUCT_SURFACES):
        report.extend(surfaces.verify_kocom_products(surface))
        if surface.kind == "sphere":
            continue
        alg = surfaces.surface_algebra(surface)
        data = surfaces.nonstandard_data(alg)
        report.add(
            check(
                f"surface-ko.a2.nonstandard.{surface.label}",
                "the pulled-back non-standard structure has obstruction bit 1 "
                "(its twisted w2 is the top class)",
                1,
                bcom_o2.a2_of_tc_bundle(data),
            )
        )
        first = surfaces.degree_one_names(alg)[0]
        algebraic = bcom_o2.direct_sum(
            bcom_o2.line_data(alg.gen(first)), bcom_o2.trivial_data(alg)
        )
        report.add(
            check(
                f"surface-ko.a2.algebraic.{surface.label}",
                "algebraic structures (line-bundle sums) have obstruction "
                "bit 0: their twisted w2 equals w2",
                0,
                bcom_o2.a2_of_tc_bundle(algebraic),
            )
        )
    return report


def run_suite(name: str, options: dict | None = None) -> VerificationReport:
    options = options or {}
    k_range = options.get("k_range", (-5, 5))
    n_range = options.get("n_range", (-5, 5))
    cap = options.get("degree_cap", 6)
    only = options.get("surface")
    if name == "cocycles":
        return cocycle_suite(k_range, n_range)
    if name == "so3-homology":
        return so3_suite()
    if name == "char-classes":
        return char_class_suite(cap)
    if name == "surface-ko":
        return surface_suite(only)
    if name == "all":
        combined = VerificationReport("all")
        for sub in ("cocycles", "so3-homology", "char-classes", "surface-ko"):
            combined.extend(run_suite(sub, options).checks)
        return combined
    raise ValueError(f"unknown suite {name!r}")
