"""Package layout: every exported name resolves, and the modules import in
one direction, config <- kernel <- solver."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import landau_hermite

MODULES = sorted(m.name for m in pkgutil.iter_modules(landau_hermite.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"landau_hermite.{name}")
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"{name}.{export}"


# prints the package modules that importing the given one loaded
LOADED_CHILD = """
import sys
import importlib
importlib.import_module(sys.argv[1])
print(" ".join(sorted(m for m in sys.modules if m.startswith("landau_hermite."))))
"""


@pytest.mark.parametrize(
    "module, absent",
    [("config", {"kernel", "solver"}), ("kernel", {"solver"})],
)
def test_imports_point_one_way(module, absent):
    # a fresh interpreter: the test process has imported everything
    res = subprocess.run(
        [sys.executable, "-c", LOADED_CHILD, f"landau_hermite.{module}"],
        capture_output=True, text=True, check=True,
    )
    loaded = {m.split(".", 1)[1] for m in res.stdout.split()}
    assert module in loaded
    assert not absent & loaded, loaded
