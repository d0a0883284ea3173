import importlib
import pkgutil

import pytest

import rainbowlab

MODULES = [
    f"rainbowlab.{info.name}"
    for info in pkgutil.iter_modules(rainbowlab.__path__)
    if hasattr(importlib.import_module(f"rainbowlab.{info.name}"), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_listed_name(name):
    # a deletion that leaves a stale __all__ entry makes this raise
    exec(f"from {name} import *", {})


@pytest.mark.parametrize("name", MODULES)
def test_the_package_exports_every_listed_name(name):
    # rainbowlab re-exports each module's __all__, its one declaration
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if getattr(rainbowlab, n, None) is not getattr(module, n)] == []
