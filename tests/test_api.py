"""The public names: every exported name resolves, and the package re-exports each module's."""

import importlib
import pkgutil

import pytest

import sharpsphere

MODULES = [m.name for m in pkgutil.iter_modules(sharpsphere.__path__)
           if hasattr(importlib.import_module(f"sharpsphere.{m.name}"), "__all__")]


def test_package_names_resolve():
    missing = [name for name in sharpsphere.__all__ if not hasattr(sharpsphere, name)]
    assert not missing
    assert len(set(sharpsphere.__all__)) == len(sharpsphere.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_names_resolve_and_are_reexported(module):
    mod = importlib.import_module(f"sharpsphere.{module}")
    assert not [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not [name for name in mod.__all__
                if getattr(sharpsphere, name, None) is not getattr(mod, name)
                or name not in sharpsphere.__all__]
