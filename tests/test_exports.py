"""The package's public export list: every name resolves, and the list is
sorted with no duplicates, so a deleted name cannot linger in it; and the
contract of the package's value records."""

import pytest

import kocom
from kocom import cocycles, surfaces
from kocom.bcom_o2 import line_data
from kocom.integral import AbelianGroup
from kocom.o2 import O2Element, PathSegment
from kocom.report import VerificationReport, check


def test_every_exported_name_resolves():
    assert kocom.__all__
    missing = [name for name in kocom.__all__ if not hasattr(kocom, name)]
    assert missing == []


def test_export_list_is_sorted_without_duplicates():
    assert kocom.__all__ == sorted(set(kocom.__all__))


def test_star_import():
    namespace = {}
    exec("from kocom import *", namespace)
    assert set(kocom.__all__) <= set(namespace)



def test_records_hash_repr_and_refuse_assignment():
    """Every value record hashes as the tuple of its fields (which keeps set
    and dict orders, and so the report bytes), keeps the
    Name(field=value, ...) repr, and refuses assignment to a field or, having
    no instance __dict__, to a new attribute."""
    alg = surfaces.surface_algebra(surfaces.nonorientable(2))
    failures = cocycles.validate(cocycles.broken_commutation_cocycle())
    records = [
        (O2Element(1, True), ("angle", "reflect")),
        (PathSegment(0, 1, 2, 3), ("t0", "t1", "slope", "offset", "reflect")),
        (cocycles.standard_cocycle(1), ("alpha12", "alpha13", "alpha23")),
        (failures.cocycle_failures[0], ("point", "product", "alpha13")),
        (
            failures.commutation_failures[0],
            ("point", "arc_a", "arc_b", "value_a", "value_b"),
        ),
        (failures, ("cocycle_failures", "commutation_failures")),
        (cocycles.tc_invariant(cocycles.standard_cocycle(1)), ("deg_plus", "deg_minus")),
        (AbelianGroup((2, 4), 1), ("invariant_factors", "free_rank")),
        (surfaces.orientable(2), ("kind", "count")),
        (line_data(alg.gen("a1")), ("w1", "w2", "w2_twisted")),
        (surfaces.ko_generators(surfaces.nonorientable(2), alg)[0], ("name", "unit", "w1")),
        (
            surfaces.ko_presentation(surfaces.nonorientable(2)),
            ("generators", "additive_orders", "relations"),
        ),
        (check("x.y", "a fact", 1, 2), ("check_id", "citation", "expected", "actual")),
        (VerificationReport("demo", [check("x.y", "a fact", 1, 1)]), ("suite", "checks")),
    ]
    assert len({type(record) for record, _ in records}) == 14
    for record, names in records:
        values = tuple(getattr(record, name) for name in names)
        assert hash(record) == hash(values)
        assert record == values
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(record) == f"{type(record).__name__}({body})"
        with pytest.raises(AttributeError):
            setattr(record, names[0], values[0])
        with pytest.raises(AttributeError):
            record.note = "new"
