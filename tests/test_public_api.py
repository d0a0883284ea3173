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
