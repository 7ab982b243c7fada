"""The package's public export list: every name resolves, and the list is
sorted with no duplicates, so a deleted name cannot linger in it."""

import kocom


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
