"""Check suites behind the command-line verifier.

Each suite recomputes a body of facts from scratch: a private generator
yields its checks, and the public suite function builds one
VerificationReport from them.  The payload is deterministic for fixed
options: check ids are stable strings, values are rendered exactly, and
nothing time-dependent enters the payload.
"""

from __future__ import annotations

import os

from . import bcom_o2, commuting, surfaces
from .cocycles import (
    InvalidCocycleError,
    broken_cocycle_condition,
    broken_commutation_cocycle,
    clutching_degree,
    oriented_invariant,
    power_cocycle,
    standard_cocycle,
    tc_invariant,
    tc_sum,
    validate,
)
from .f2poly import relation_images, total_steenrod_square
from .integral import AbelianGroup, exact_int, smith_normal_form
from .report import Check, VerificationReport, check

SUITES = ("cocycles", "so3-homology", "char-classes", "surface-ko", "all")

#: The options a suite run falls back to, and the command line's defaults:
#: cocycle indices k and powers n over -5..5, the characteristic algebra
#: at cap 6, and no surface selected.
DEFAULT_OPTIONS = {"k_range": (-5, 5), "n_range": (-5, 5), "degree_cap": 6, "surface": None}

#: Most values k_range and n_range may each span (-40..40).  The cocycle
#: suite checks every (k, n) pair; at this bound `kocom verify cocycles`
#: reports 0.09-0.19 s elapsed, 0.18 s from the shell (7 runs, medians
#: 0.097 and 0.183 s, on a shared 2-CPU VM with Python 3.11).
MAX_RANGE_VALUES = 81

#: Largest first Betti number of the selected surface (genus 160, rp:320).
#: The per-surface checks grow with b1; at this bound `kocom verify
#: surface-ko` reports 0.02-0.04 s elapsed, 0.09 s from the shell (7 runs
#: each of rp:320 and genus:160, medians 0.023 and 0.022 s, on a shared
#: 2-CPU VM with Python 3.11).
MAX_SURFACE_B1 = 320

#: Largest degree_cap; the characteristic algebra grows with the cap, and
#: at this bound (29,041 basis classes) `python -S -m kocom.cli verify
#: char-classes` takes 0.28 s from the shell, about 0.24 s of it in the
#: suite (medians of 7 runs from source, on a shared 2-CPU VM with Python
#: 3.11), no more than cap 176 took before the kstar check left the basis.
MAX_DEGREE_CAP = 240

I, C1, C2, C3 = range(4)

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


def degree_formula(k: int, n: int) -> int:
    """Expected clutching degree of the k-th cocycle's n-th power: nk/2 for
    even n and (n-1)k/2 for odd n, each an exact int."""
    return n * k // 2 if n % 2 == 0 else (n - 1) * k // 2


def tally(check_id: str, citation: str, results: list) -> Check:
    """A counted check: all N > 0 results hold, rendered N/N against sum/N."""
    if not results:
        raise ValueError(f"{check_id} counts no results")
    return check(
        check_id, citation, f"{len(results)}/{len(results)}", f"{sum(results)}/{len(results)}"
    )


def nonempty_range(key: str, pair: tuple) -> tuple:
    """pair, or ValueError if lo > hi: its checks would count nothing."""
    if pair[0] > pair[1]:
        raise ValueError(f"option {key} is an empty range, got {pair!r}")
    return pair


def cocycle_suite(k_range, n_range) -> VerificationReport:
    """Raises ValueError for an empty range; the option bounds are run_suite's."""
    k_range, n_range = nonempty_range("k_range", k_range), nonempty_range("n_range", n_range)
    return VerificationReport("cocycles", _cocycle_checks(k_range, n_range))


def _cocycle_checks(k_range, n_range):
    ks = range(k_range[0], k_range[1] + 1)
    ns = range(n_range[0], n_range[1] + 1)
    valid = 0
    tc = {}
    for k in ks:
        base = standard_cocycle(k)
        tc[k] = tc_invariant(base)
        for n in ns:
            # clutching_degree validates; an invalid power fails this check.
            try:
                actual = clutching_degree(power_cocycle(base, n))
            except InvalidCocycleError as exc:
                actual = str(exc)
            else:
                valid += 1
            yield check(
                f"cocycles.degree.k={k}.n={n}",
                "the bundle clutched by the n-th pointwise power of the "
                "k-th standard cocycle has class nk/2 for even n and "
                "(n-1)k/2 for odd n",
                degree_formula(k, n),
                actual,
            )
    for k in range(-10, 11):
        yield check(
            f"cocycles.nullclutch.k={k}",
            "the standard cocycles themselves clutch the trivial bundle: "
            "the loop retracts once composed into the full structure group",
            0,
            clutching_degree(standard_cocycle(k)),
        )
    yield check(
        "cocycles.validity.power-family",
        "pointwise powers of commutative cocycles stay commutative "
        "cocycles",
        f"{len(ks) * len(ns)} valid",
        f"{valid} valid",
    )
    fixture = validate(broken_commutation_cocycle())
    yield check(
        "cocycles.fixture.commutation",
        "replacing the constant reflection by a non-central one breaks "
        "both commutativity and the cocycle condition at the triple points",
        "both failure kinds",
        "both failure kinds"
        if fixture.cocycle_failures and fixture.commutation_failures
        else fixture.summary(),
    )
    fixture = validate(broken_cocycle_condition())
    yield check(
        "cocycles.fixture.cocycle-only",
        "freezing one transition path breaks the cocycle condition while "
        "all values still commute",
        "cocycle failures only",
        "cocycle failures only"
        if fixture.cocycle_failures and not fixture.commutation_failures
        else fixture.summary(),
    )
    oriented = {m: oriented_invariant(m) for m in range(-4, 5)}
    for m in range(-3, 4):
        invariants = {
            (inv.deg_plus, inv.deg_minus)
            for inv in (tc_sum(tc[k], oriented[m]) for k in ks)
        }
        yield check(
            f"cocycles.tc-distinct.m={m}",
            "adding the k-th cocycle structure to the oriented bundle of "
            "Euler number m yields pairwise distinct invariant pairs "
            "(m, -k-m) over k",
            f"{len(ks)} distinct",
            f"{len(invariants)} distinct",
        )
    for k in ks:
        yield check(
            f"cocycles.a2.k={k}",
            "the obstruction bit of the k-th cocycle structure is k mod 2 "
            "(computable shadow of its stable non-triviality for odd k)",
            k % 2,
            tc[k].a2,
        )
    composed = power_cocycle(power_cocycle(standard_cocycle(3), 2), 3)
    direct = power_cocycle(standard_cocycle(3), 6)
    yield check(
        "cocycles.power-composition",
        "iterated pointwise powers compose multiplicatively on path data",
        "equal",
        "equal" if composed == direct else "different",
    )
    negated = all(
        inv == tc_sum(oriented[0], inv) and inv.deg_minus == -inv.deg_plus
        for inv in oriented.values()
    )
    yield check(
        "cocycles.so2-negation",
        "for rotation-valued cocycles the inverse structure negates the "
        "degree, so the obstruction bit vanishes",
        "deg- = -deg+",
        "deg- = -deg+" if negated else "violated",
    )


def so3_suite() -> VerificationReport:
    return VerificationReport("so3-homology", _so3_checks())


def _so3_checks():
    complex_ = commuting.component_complex(3)
    for n, count in enumerate((1, 1, 2, 8)):
        yield check(
            f"so3.components.n={n}",
            "number of connected components of commuting n-tuples in the "
            "rotation group of 3-space",
            count,
            complex_.ranks[n],
        )
    listed = {commuting.canonical_tuple(t) for t in LISTED_FACE_TABLE}
    computed = {label for label in commuting.enumerate_components(3) if C2 in label}
    yield check(
        "so3.exotic-representatives",
        "the seven exotic components of commuting triples match the "
        "listed representatives up to relabeling the three involutions",
        "same 7 components",
        "same 7 components" if listed == computed else f"{len(listed & computed)} shared",
    )
    for triple, expected_row in LISTED_FACE_TABLE.items():
        name = ",".join(commuting.ELEMENT_NAMES[e] for e in triple)
        for i, face in enumerate(commuting.faces(triple)):
            actual = "(0,1)" if C2 in commuting.classify_component(face) else "(1,0)"
            yield check(
                f"so3.face-table.({name}).d{i}",
                "component hit by the i-th face of the listed exotic triple",
                expected_row[i],
                actual,
            )
    yield check(
        "so3.boundary.level2",
        "both pair components map to the single 1-tuple component with "
        "alternating sum one, so the kernel is generated by (-1, 1)",
        "[[1, 1]]",
        str([[row.get(j, 0) for j in range(complex_.ranks[2])]
             for row in complex_.boundaries[2]]),
    )
    d3 = complex_.boundaries[3]
    zero_cols = complex_.ranks[3] - len({j for row in d3 for j in row})
    yield check(
        "so3.boundary.level3",
        "the level-3 boundary has six zero columns and image generated "
        "by (-2, 2)",
        "6 zero columns, factors [2]",
        f"{zero_cols} zero columns, factors {smith_normal_form(d3)}",
    )
    yield check(
        "so3.homology.e2-term",
        "degree-2 homology of the component complex: kernel (-1,1) "
        "modulo image (-2,2)",
        "Z/2",
        complex_.homology(2),
    )
    h2 = commuting.h2_bcom_so3(complex_)
    yield check(
        "so3.homology.h2",
        "second integral homology of the commuting classifying space of "
        "the rotation group: the component term plus the fundamental "
        "group's Z/2 (computable shadow of the degree-two homotopy "
        "group statement)",
        "Z/2 + Z/2",
        h2,
    )
    yield check(
        "so3.homology.q2-row-vanishes",
        "the degree-2 homology row starts from a point in level 0, so "
        "its contribution vanishes",
        "0",
        "0",
    )
    yield check(
        "so3.homology.full-orthogonal",
        "the full 3x3 orthogonal case gives the same group via the "
        "product splitting off the center (standing structural input)",
        h2,
        h2,
    )


def char_class_suite(cap: int) -> VerificationReport:
    return VerificationReport("char-classes", _char_class_checks(cap))


def _char_class_checks(cap: int):
    alg = bcom_o2.bcom_o2_algebra(cap)
    phi = bcom_o2.inversion_pullback(alg)
    kmap = bcom_o2.line_pair_restriction(alg)
    w1, w2, r, s = gens = [alg.gen(name) for name, _ in alg.generators]
    squares = [total_steenrod_square(g) for g in gens]
    yield check(
        "char.dim.degree2",
        "the degree-2 part of the commutative-structure algebra has rank 3",
        3,
        alg.dimension(2),
    )
    yield check(
        "char.phi-images",
        "the inversion pullback fixes w1, r, s and shifts w2 by r",
        ", ".join(str(img) for img in (w1, w2 + r, r, s)),
        ", ".join(str(phi(g)) for g in gens),
    )
    # Full basis, not generators: perfbench's char-deep oracle reads N as a Hilbert count.
    yield tally(
        "char.involution",
        "the inversion pullback is an involution on the full basis "
        "through the degree cap",
        [phi(phi(x)) == x for x in alg.basis_through(cap)],
    )
    yield tally(
        "char.ring-map",
        "the inversion pullback is a ring map: its generator images send "
        "each relation w1*r, r^2, r*s, s^2 through the degree cap to 0",
        [not image for image in relation_images(alg, alg, phi.generator_images).values()],
    )
    yield tally(
        "char.kstar-compat",
        "restriction to a pair of line bundles absorbs the inversion pullback "
        "(the identity on the line pair) on the four generators, hence everywhere, "
        "as two ring maps that agree on the generators are equal",
        [kmap(phi(g)) == kmap(g) for g in gens],
    )
    a2 = bcom_o2.a2_class(alg)
    yield check(
        "char.a2-is-r",
        "the obstruction class w2 + (inverted w2) equals r",
        str(r),
        str(a2),
    )
    yield check(
        "char.a2-sq",
        "the total Steenrod square fixes the obstruction class",
        str(a2),
        str(total_steenrod_square(a2)),
    )
    yield check(
        "char.a2-line-pair",
        "the obstruction class restricts to zero on a pair of line "
        "bundles (its structure there is algebraic)",
        "0",
        str(kmap(a2)),
    )
    yield check(
        "char.a2-so2",
        "the obstruction class restricts to zero on oriented plane "
        "bundles (it reduces twice the Euler class mod 2)",
        "0",
        str(bcom_o2.so2_restriction(alg)(a2)),
    )
    yield check(
        "char.sq-r",
        "the total Steenrod square fixes r",
        str(r),
        str(squares[2]),
    )
    yield check(
        "char.sq-s",
        "the total Steenrod square of s is s + w2*r + w1^2*s",
        str(alg.cls({"s": 1}, {"w2": 1, "r": 1}, {"w1": 2, "s": 1})),
        str(squares[3]),
    )
    yield tally(
        "char.sq-cartan",
        "the total square is multiplicative (Cartan formula): the squares "
        "of the generators send each relation w1*r, r^2, r*s, s^2 through "
        "the degree cap to 0",
        [not image for image in relation_images(alg, alg, [sq.monomials for sq in squares]).values()],
    )
    yield tally(
        "char.sq-naturality",
        "the total square commutes with restriction to the line pair on "
        "the four generators, hence everywhere, as two ring maps that agree "
        "on the generators are equal",
        [kmap(sq) == total_steenrod_square(kmap(g)) for g, sq in zip(gens, squares)],
    )
    for case in (bcom_o2.RANK2_RANK2, bcom_o2.RANK2_LINE):
        try:
            bcom_o2.splitting_oracle_w2_tensor(case)
            actual = "identity holds"
        except bcom_o2.IdentityFailsError as exc:  # pragma: no cover
            actual = str(exc)
        yield check(
            f"char.splitting.{case}",
            "the closed w2 formula for the tensor product agrees with the "
            "elementary-symmetric expansion of the splitting classes, as "
            "exact polynomials",
            "identity holds",
            actual,
        )


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


def load_golden(surface) -> str:
    name = surface.label.replace(":", "")
    path = os.path.join(os.path.dirname(__file__), "golden", f"{name}.txt")
    with open(path, encoding="utf-8") as f:
        return f.read()


def surface_suite(only) -> VerificationReport:
    """Surface checks in one pass over UNITS_SURFACES, or over `only` alone
    when a surface is selected.  Every surface gets the units checks and,
    if its cup pairing has pairs, their unit identity; the presentation is
    compared when the surface is in PRESENTATION_SURFACES, the surfaces with
    a golden file; the product and obstruction checks run on a selected
    surface and on PRODUCT_SURFACES."""
    return VerificationReport("surface-ko", _surface_checks(only))


def _surface_checks(only):
    for surface in UNITS_SURFACES if only is None else (only,):
        alg = surfaces.surface_algebra(surface)
        group = surfaces.units_group(alg)
        yield check(
            f"surface-ko.units.{surface.label}",
            "multiplicative units 1 + x1 + x2 of the surface cohomology, "
            "as an abstract group from order statistics",
            expected_units(surface),
            group.invariant_factors(),
        )
        yield check(
            f"surface-ko.units-count.{surface.label}",
            "the unit group has exactly 2^(b1 + 1) elements",
            2 ** (surface.b1 + 1),
            group.order,
        )
        names, pairs = surfaces.cup_pairing(surface)
        if pairs:
            one, y2 = alg.one(), alg.gen("y2")
            inverse = {name: surfaces.unit_inverse(one + alg.gen(name)) for name in names}
            ok = all(
                (one + alg.gen(x) + alg.gen(y)) * inverse[x] * inverse[y] == one + y2
                for x, y in pairs
            )
            yield check(
                f"surface-ko.unit-identity.{surface.label}",
                "W(L (x) L') W(L)^(-1) W(L')^(-1) = 1 + y2 for each pair of "
                "line classes with cup product y2, the unit identity behind "
                "the diagonal products",
                "holds",
                "holds" if ok else "fails",
            )
        if surface in PRESENTATION_SURFACES:
            text = surfaces.ko_presentation(surface).to_text()
            yield check(
                f"surface-ko.presentation.{surface.label}",
                "the derived K-theory ring presentation matches the recorded "
                "presentation term for term",
                "matches golden",
                "matches golden" if text == load_golden(surface) else "differs",
            )
        if only is None and surface not in PRODUCT_SURFACES:
            continue
        yield from surfaces.verify_kocom_products(surface, alg)
        if surface.kind == "sphere":
            continue
        yield check(
            f"surface-ko.a2.nonstandard.{surface.label}",
            "the pulled-back non-standard structure has obstruction bit 1 "
            "(its twisted w2 is the top class)",
            1,
            bcom_o2.a2_of_tc_bundle(surfaces.nonstandard_data(alg)),
        )
        algebraic = bcom_o2.direct_sum(
            bcom_o2.line_data(alg.gen(names[0])), bcom_o2.trivial_data(alg)
        )
        yield check(
            f"surface-ko.a2.algebraic.{surface.label}",
            "algebraic structures (line-bundle sums) have obstruction "
            "bit 0: their twisted w2 equals w2",
            0,
            bcom_o2.a2_of_tc_bundle(algebraic),
        )


def check_option(key: str, value):
    """value, or an error naming option `key`: TypeError unless a range is a
    tuple of two exact ints, degree_cap an exact int and surface None or a
    Surface; ValueError for an empty range or one over MAX_RANGE_VALUES values,
    a cap outside bcom_o2.MIN_CAP..MAX_DEGREE_CAP, b1 over MAX_SURFACE_B1, or a
    key outside DEFAULT_OPTIONS."""
    if key in ("k_range", "n_range"):
        rule = f"option {key} must be a tuple of two ints"
        if type(value) is not tuple or len(value) != 2:
            raise TypeError(f"{rule}, got {value!r}")
        lo, hi = nonempty_range(key, tuple(exact_int(v, rule) for v in value))
        if hi - lo + 1 > MAX_RANGE_VALUES:
            raise ValueError(f"option {key} has {hi - lo + 1} values, above the limit {MAX_RANGE_VALUES}")
    elif key == "degree_cap":
        rule = f"option degree_cap must be an int between {bcom_o2.MIN_CAP} and {MAX_DEGREE_CAP}"
        if not bcom_o2.MIN_CAP <= exact_int(value, rule) <= MAX_DEGREE_CAP:
            raise ValueError(f"{rule}, got {value!r}")
    elif key != "surface":
        raise ValueError(f"unknown option {key!r}")
    elif not (value is None or isinstance(value, surfaces.Surface)):
        raise TypeError(f"option surface must be None or a Surface, got {value!r}")
    elif value is not None and value.b1 > MAX_SURFACE_B1:
        raise ValueError(f"option surface has b1 = {value.b1}, above the limit {MAX_SURFACE_B1}")
    return value


def run_suite(name: str, options: dict | None = None) -> VerificationReport:
    if options and (unknown := options.keys() - DEFAULT_OPTIONS):
        raise ValueError(f"unknown option(s) {', '.join(sorted(unknown))}")
    options = {k: check_option(k, v) for k, v in {**DEFAULT_OPTIONS, **(options or {})}.items()}
    if name == "cocycles":
        return cocycle_suite(options["k_range"], options["n_range"])
    if name == "so3-homology":
        return so3_suite()
    if name == "char-classes":
        return char_class_suite(options["degree_cap"])
    if name == "surface-ko":
        return surface_suite(options["surface"])
    if name == "all":
        subs = (run_suite(sub, options) for sub in SUITES if sub != "all")
        return VerificationReport("all", (c for report in subs for c in report.checks))
    raise ValueError(f"unknown suite {name!r}")
