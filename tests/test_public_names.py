import importlib
import pkgutil

import pytest

import tfpsolve

# ``__main__`` runs the command line when imported
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(tfpsolve.__path__) if m.name != "__main__"
)


def test_package_names_resolve_sorted_and_unique():
    names = tfpsolve.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(tfpsolve, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_names_resolve_and_unique(name):
    mod = importlib.import_module(f"tfpsolve.{name}")
    names = getattr(mod, "__all__", [])
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(mod, n)] == []
