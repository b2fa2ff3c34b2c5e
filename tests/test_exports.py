"""Every name a module exports in __all__ exists, so `import *` cannot break."""

import importlib
import pkgutil

import pytest

import spamm

MODULES = [
    module
    for module in map(importlib.import_module,
                      [f"spamm.{m.name}" for m in pkgutil.iter_modules(spamm.__path__)])
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
