import importlib
import pkgutil

import pytest

import lincone

MODULES = ["lincone"] + [f"lincone.{info.name}" for info in pkgutil.iter_modules(lincone.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A deleted primitive must not linger in an export list.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)
