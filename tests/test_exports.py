import importlib
import pkgutil

import pytest

import oscoal

# `__main__` runs the CLI on import, so it is not imported here.
MODULES = ["oscoal"] + [
    f"oscoal.{m.name}" for m in pkgutil.iter_modules(oscoal.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"
