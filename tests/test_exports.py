"""The package's public names: every export resolves, once."""

import shapecalc


def test_every_exported_name_resolves():
    missing = [name for name in shapecalc.__all__ if not hasattr(shapecalc, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(set(shapecalc.__all__)) == len(shapecalc.__all__)


def test_star_import():
    namespace = {}
    exec("from shapecalc import *", namespace)
    assert set(shapecalc.__all__) <= namespace.keys()
