"""The public export list of the package."""

import kernelnc


def test_every_exported_name_resolves_once():
    names = kernelnc.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [name for name in names if not hasattr(kernelnc, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from kernelnc import *", namespace)
    assert set(kernelnc.__all__) <= set(namespace)
