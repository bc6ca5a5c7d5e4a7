import importlib

import pytest

MODULES = [
    "excspec",
    "excspec.balmer",
    "excspec.burnside",
    "excspec.classify",
    "excspec.cli",
    "excspec.combinat",
    "excspec.hzspec",
    "excspec.poset",
    "excspec.zariski",
]


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    # a name in __all__ that does not resolve fails the import itself
    namespace = {}
    exec(f"from {name} import *", namespace)
    module = importlib.import_module(name)
    assert set(module.__all__) <= set(namespace)


def test_every_module_is_listed():
    import pkgutil

    import excspec

    found = {f"excspec.{m.name}" for m in pkgutil.iter_modules(excspec.__path__)}
    assert found | {"excspec"} == set(MODULES)
