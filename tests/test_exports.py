import importlib
import pkgutil

import pytest

import optomech

# __main__ runs the command line on import
_SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(optomech.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("module_name", ["optomech", *(f"optomech.{m}" for m in _SUBMODULES)])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported)


def test_every_submodule_declares_its_exports():
    assert {"certify", "cli", "core", "design", "duan", "oracle", "qubit"} <= set(_SUBMODULES)
    for name in _SUBMODULES:
        assert hasattr(importlib.import_module(f"optomech.{name}"), "__all__"), name
