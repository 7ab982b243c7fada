"""Component classification of commuting tuples, face maps, the boundary
tables, and the homology of the component complex."""

import copy
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kocom import commuting, integral, suites
from kocom.commuting import (
    ELEMENT_NAMES,
    boundary_matrix,
    canonical_tuple,
    classify_component,
    component_complex,
    component_homology,
    enumerate_components,
    face_map,
    faces,
    h2_bcom_so3,
)
from kocom.integral import AbelianGroup, smith_normal_form

I, C1, C2, C3 = range(4)

#: The table rows frozen from the face-map computation on the seven listed
#: exotic triples; (1,0) marks the trivial pair component, (0,1) the exotic
#: one.  Columns are d0, d1, d2, d3.
FACE_TABLE = {
    (C1, C2, I): ("(1,0)", "(1,0)", "(0,1)", "(0,1)"),
    (C1, C2, C1): ("(0,1)", "(0,1)", "(0,1)", "(0,1)"),
    (I, C2, C3): ("(0,1)", "(0,1)", "(1,0)", "(1,0)"),
    (C1, I, C3): ("(1,0)", "(0,1)", "(0,1)", "(1,0)"),
    (C1, C2, C3): ("(0,1)", "(1,0)", "(1,0)", "(0,1)"),
    (C1, C2, C2): ("(1,0)", "(0,1)", "(1,0)", "(0,1)"),
    (C2, C2, C3): ("(0,1)", "(1,0)", "(0,1)", "(1,0)"),
}

LISTED_TRIPLES = tuple(FACE_TABLE)

#: The six simultaneous relabelings of the involutions c1, c2, c3, as
#: brute-force oracle for the first-appearance canonical form.
RELABELINGS = tuple(
    {I: I, C1: perm[0], C2: perm[1], C3: perm[2]}
    for perm in itertools.permutations((C1, C2, C3))
)


def relabel(perm, t):
    return tuple(perm[e] for e in t)


def generates_cyclic(t):
    """True iff the entries generate a cyclic subgroup, i.e. at most one
    distinct non-identity value occurs."""
    return len({e for e in t if e}) <= 1


def brute_force_components(n):
    """Sorted labels of all 4^n tuples: the all-identity tuple if they
    generate a cyclic group, else the least of the six relabelings."""
    labels = set()
    for t in itertools.product(range(4), repeat=n):
        if generates_cyclic(t):
            labels.add((I,) * n)
        else:
            labels.add(min(relabel(p, t) for p in RELABELINGS))
    return sorted(labels)


d4_tuples = st.lists(st.integers(0, 3), min_size=0, max_size=4).map(tuple)


def test_classify_examples():
    assert classify_component((I, C2)) == (I, I)
    assert classify_component((C1, C2, C2)) == (C1, C2, C2)
    assert classify_component((C3, C3, C3)) == (I, I, I)  # generates one cyclic group
    assert classify_component(()) == ()


def test_exotic_is_read_off_the_canonical_tuple():
    # Exotic exactly when two distinct involutions occur, read as "uses c2";
    # the all-identity label is the least one.
    for n in range(7):
        trivial, components = (I,) * n, set(enumerate_components(n))
        for t in itertools.product(range(4), repeat=n):
            label = classify_component(t)
            assert (C2 in label) == (not generates_cyclic(t)), t
            assert label in components and trivial <= label


def test_component_counts():
    assert [len(enumerate_components(n)) for n in range(4)] == [1, 1, 2, 8]


def test_exotic_triple_count_by_brute_force():
    # independent count: tuples generating a non-cyclic subgroup, divided by
    # the six free relabelings
    noncyclic = sum(
        1
        for t in itertools.product(range(4), repeat=3)
        if not generates_cyclic(t)
    )
    assert noncyclic == 42
    assert len(enumerate_components(3)) == 1 + noncyclic // 6


def test_listed_triples_match_canonical_components():
    listed = {canonical_tuple(t) for t in LISTED_TRIPLES}
    computed = {c for c in enumerate_components(3) if C2 in c}
    assert listed == computed
    assert len(listed) == 7


def test_face_map_examples():
    assert face_map(0, (C1, C2, C2)) == (C2, C2)
    assert classify_component(face_map(0, (C1, C2, C2))) == (I, I)
    assert face_map(1, (C1, C2, C2)) == (C3, C2)
    assert classify_component(face_map(1, (C1, C2, C2))) == (C1, C2)
    assert face_map(3, (C1, C2, I)) == (C1, C2)
    assert classify_component(face_map(3, (C1, C2, I))) == (C1, C2)
    with pytest.raises(IndexError):
        face_map(4, (C1, C2, C2))
    with pytest.raises(IndexError):
        face_map(-1, (C1, C2, C2))
    # The face index is an exact int: True is not index 1.
    for bad in (True, 1.0):
        with pytest.raises(TypeError):
            face_map(bad, (C1, C2, C2))


def test_face_table_all_entries():
    for triple, row in FACE_TABLE.items():
        for i in range(4):
            face = classify_component(face_map(i, triple))
            assert row[i] == ("(0,1)" if C2 in face else "(1,0)"), (triple, i)


def branch_face(i, t):
    """d_i by cases (drop first, XOR a pair, drop last), the reference
    faces() is compared against."""
    n = len(t)
    if i == 0:
        return t[1:]
    if i == n:
        return t[:-1]
    return t[: i - 1] + (t[i - 1] ^ t[i],) + t[i + 1 :]


def test_faces_match_the_three_branch_reference():
    assert faces(()) == [()] and face_map(0, ()) == ()
    for n in range(6):
        for t in itertools.product(range(4), repeat=n):
            assert faces(t) == [branch_face(i, t) for i in range(n + 1)], t
            assert faces(list(t)) == faces(t)


def test_boundary_matrix_reads_labels_as_built(monkeypatch):
    """boundary_matrix lists the faces of the labels enumerate_components
    built without re-checking them: it gives the same rows with every entry
    check and both public face functions made to raise, while faces itself
    still checks its argument."""
    expected = {n: boundary_matrix(n) for n in range(1, 7)}

    def forbidden(*args):
        raise AssertionError("boundary_matrix must not re-check its labels")

    for name in ("canonical_tuple", "faces", "face_map"):
        monkeypatch.setattr(commuting, name, forbidden)
    for n in range(1, 7):
        assert boundary_matrix(n) == expected[n], n
    monkeypatch.undo()
    with pytest.raises(TypeError):
        faces((1.0, 2))


def test_boundary_matrix_matches_the_classify_rule():
    """The orbit table lands each face on the row that classify_component
    names, rebuilt here by that rule through level 7."""
    for n in range(1, 8):
        index = {label: row for row, label in enumerate(enumerate_components(n - 1))}
        rows = [{} for _ in index]
        for col, label in enumerate(enumerate_components(n)):
            for i, face in enumerate(faces(label)):
                row = rows[index[classify_component(face)]]
                row[col] = row.get(col, 0) + (-1) ** i
        assert boundary_matrix(n) == [{j: a for j, a in row.items() if a} for row in rows], n


def test_simplicial_identities_exhaustive():
    for n in range(2, 5):
        for t in itertools.product(range(4), repeat=n):
            for j in range(n + 1):
                for i in range(j):
                    assert face_map(i, face_map(j, t)) == face_map(
                        j - 1, face_map(i, t)
                    )


@given(d4_tuples, st.sampled_from(range(len(RELABELINGS))))
def test_relabeling_equivariance(t, perm_index):
    perm = RELABELINGS[perm_index]
    assert classify_component(relabel(perm, t)) == classify_component(t)
    for i in range(len(t) + 1):
        assert face_map(i, relabel(perm, t)) == relabel(perm, face_map(i, t))


def test_first_appearance_matches_relabeling_oracle():
    for n in range(7):
        for t in itertools.product(range(4), repeat=n):
            assert canonical_tuple(t) == min(relabel(p, t) for p in RELABELINGS)
        assert enumerate_components(n) == brute_force_components(n)
    for n in range(10):
        assert len(enumerate_components(n)) == 1 + (4**n - 3 * 2**n + 2) // 6


@pytest.mark.parametrize(
    "bad", [4, -1, 1.5, "c1", None, 1.0, True, pytest.param(Fraction(2), id="Fraction(2)")]
)
def test_entries_outside_the_group_are_rejected(bad):
    # An exact int outside 0..3 is a ValueError; anything inexact, even one
    # equal to a group element (1.0, True, Fraction(2)), is a TypeError.
    error = ValueError if type(bad) is int else TypeError
    with pytest.raises(error):
        canonical_tuple((C1, bad))
    with pytest.raises(error):
        classify_component((C1, C2, bad))
    with pytest.raises(error):
        canonical_tuple((bad,))
    # face_map applies the same rule to every entry, dropped or multiplied.
    for i in range(3):
        with pytest.raises(error):
            face_map(i, (C1, bad))
        with pytest.raises(error):
            face_map(i, (bad, C2))
    # faces checks every entry once, before listing any face.
    for t in ((C1, bad), (bad, C2), (bad,)):
        with pytest.raises(error):
            faces(t)


def test_labels_are_plain_int_tuples():
    # Every label is a tuple of exact ints and its own canonical tuple, so
    # callers can hash, compare and index with it directly.
    def plain(label):
        return type(label) is tuple and all(type(e) is int for e in label)

    for n in range(7):
        for label in enumerate_components(n):
            assert plain(label) and canonical_tuple(label) == label, label
    for t in itertools.product(range(4), repeat=4):
        label = classify_component(t)
        assert plain(label) and canonical_tuple(label) == label, t


def test_rendering_is_pinned():
    assert ELEMENT_NAMES == ("I", "c1", "c2", "c3")
    assert ",".join(ELEMENT_NAMES[e] for e in classify_component((1, 2, 2))) == "c1,c2,c2"
    assert ",".join(ELEMENT_NAMES[e] for e in classify_component((3, 0))) == "I,I"


def to_rows(mat):
    """A dense matrix as the sparse rows kocom uses: {column: nonzero}."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def to_dense(sparse, cols):
    return [[row.get(j, 0) for j in range(cols)] for row in sparse]


def rank_mod(sparse, q):
    """Rank over F_q by row reduction of dicts, each pivot row scaled to a
    leading 1; independent of the integral Smith normal form."""
    pivots = {}
    for row in sparse:
        row = {j: x % q for j, x in row.items() if x % q}
        while row:
            lead = min(row)
            if lead not in pivots:
                inverse = pow(row[lead], -1, q)
                pivots[lead] = {j: x * inverse % q for j, x in row.items()}
                break
            factor = row[lead]
            for j, x in pivots[lead].items():
                entry = (row.pop(j, 0) - factor * x) % q
                if entry:
                    row[j] = entry
    return len(pivots)


def test_boundary_level_2():
    assert boundary_matrix(2) == to_rows([[1, 1]])


def test_boundary_level_3():
    mat = boundary_matrix(3)
    assert len(mat) == 2 and {j for row in mat for j in row} <= set(range(8))
    nonzero_cols = [
        tuple(row.get(j, 0) for row in mat)
        for j in range(8)
        if any(row.get(j) for row in mat)
    ]
    assert sorted(nonzero_cols) == [(-2, 2), (2, -2)]
    assert smith_normal_form(mat) == [2]


def test_component_complex_reads_ranks_off_boundaries(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return enumerate_components(n)

    monkeypatch.setattr(commuting, "enumerate_components", counted)
    complex_ = component_complex(6)
    # each boundary_matrix(n) enumerates levels n - 1 and n; only the top
    # level is enumerated again, for its rank
    assert len(calls) == 2 * 6 + 1
    assert complex_.ranks == tuple(len(enumerate_components(n)) for n in range(7))
    assert component_complex(0).ranks == (1,)


def test_so3_suite_reads_one_complex(monkeypatch):
    calls = {"enumerate_components": 0, "component_complex": 0}

    def counting(name):
        original = getattr(commuting, name)

        def counted(n):
            calls[name] += 1
            return original(n)

        monkeypatch.setattr(commuting, name, counted)

    counting("enumerate_components")
    counting("component_complex")
    assert suites.so3_suite().all_passed
    # component_complex(3) enumerates 7 times, once for the suite, which hands
    # it to h2_bcom_so3; the exotic-representatives check enumerates level 3 once
    assert calls == {"enumerate_components": 8, "component_complex": 1}


def test_boundaries_compose_to_zero():
    complex_ = component_complex(4)
    for p in range(2, 5):
        outer = to_dense(complex_.boundaries[p - 1], complex_.ranks[p - 1])
        inner = to_dense(complex_.boundaries[p], complex_.ranks[p])
        # Dense product, entry by entry, independent of the construction check.
        for row in outer:
            assert all(sum(a * b for a, b in zip(row, col)) == 0 for col in zip(*inner))


def test_homology_values():
    assert str(component_homology(2)) == "Z/2"
    assert str(h2_bcom_so3()) == "Z/2 + Z/2"
    # Degrees below the top of a truncated complex are exact; these agree
    # with F2/F3 ranks through the universal coefficient theorem.
    complex6 = component_complex(6)
    assert [str(complex6.homology(p)) for p in range(1, 6)] == [
        "0", "Z/2", "Z/2", "Z/2", "Z/2 + Z/2",
    ]


#: H_0..H_6 of the component complex.
Z2 = AbelianGroup((2,))
COMPONENT_HOMOLOGY = (
    AbelianGroup(free_rank=1), AbelianGroup(), Z2, Z2, Z2, Z2.direct_sum(Z2), Z2.direct_sum(Z2),
)


def test_homology_reduces_each_boundary_once(monkeypatch):
    reduced = []

    def counted(rows):
        reduced.append(rows)
        return smith_normal_form(rows)

    monkeypatch.setattr(integral, "smith_normal_form", counted)
    complex6 = component_complex(6)
    groups = [complex6.homology(p) for p in range(7)]
    assert [complex6.homology(p) for p in range(7)] == groups
    assert groups[:6] == list(COMPONENT_HOMOLOGY[:6])
    # d_1..d_6 once each, in the order H_0..H_5 first need them
    assert len(reduced) == 6
    assert all(rows is complex6.boundaries[p] for p, rows in enumerate(reduced, 1))


def test_homology_leaves_the_boundaries_unchanged():
    # smith_normal_form reduces copies: the rows a complex holds are the
    # boundaries it was built with, after every degree has been read.
    complex6 = component_complex(6)
    before = copy.deepcopy(complex6.boundaries)
    groups = [complex6.homology(p) for p in range(7)]
    assert groups[:6] == list(COMPONENT_HOMOLOGY[:6])
    assert complex6.boundaries == before


def test_component_homology_through_degree_six():
    assert [component_homology(p) for p in range(7)] == list(COMPONENT_HOMOLOGY)
    assert [str(g) for g in COMPONENT_HOMOLOGY] == [
        "Z", "0", "Z/2", "Z/2", "Z/2", "Z/2 + Z/2", "Z/2 + Z/2",
    ]


def test_universal_coefficients_mod_2_and_3():
    # dim H_p(C; F_q) = free rank of H_p + the q-divisible invariant factors
    # of H_p and of H_{p-1}; the F_q side comes from rank_mod alone.
    complex7 = component_complex(7)
    for q in (2, 3):
        rank = {p: rank_mod(complex7.boundaries[p], q) for p in range(1, 8)}
        rank[0] = 0
        for p, group in enumerate(COMPONENT_HOMOLOGY):
            betti = complex7.ranks[p] - rank[p] - rank[p + 1]
            below = COMPONENT_HOMOLOGY[p - 1].invariant_factors if p else ()
            torsion = group.invariant_factors + below
            assert betti == group.free_rank + sum(1 for d in torsion if d % q == 0), (q, p)


def test_level_zero_and_one():
    assert boundary_matrix(1) == to_rows([[0]])
    assert str(component_homology(0)) == "Z"
    # Degrees below the complex are zero, however far below.
    for p in (-1, -2, -3):
        assert str(component_homology(p)) == "0"
