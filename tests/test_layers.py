"""The modules of ``qfdiv`` form a strict layer order: imports only point down."""

import ast
from pathlib import Path

import pytest

import qfdiv

from conftest import in_fresh_interpreter

# each module may import only from modules of a lower rank
RANK = {
    "errors": 0,
    "_lapack": 0,
    "rng": 1,
    "linalg": 1,
    "fdiv": 2,
    "condent": 3,
    "channels": 4,
    "propsuite": 5,
    "cli": 6,
    "__main__": 7,
}
PACKAGE = Path(qfdiv.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def relative_imports(name: str) -> set[str]:
    """Package modules that ``name`` imports, at any depth of its body."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import rng
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_every_module_has_a_layer():
    assert set(MODULES) == set(RANK)


@pytest.mark.parametrize("name", MODULES)
def test_imports_point_down(name):
    upward = sorted(m for m in relative_imports(name) if RANK[m] >= RANK[name])
    assert not upward, f"qfdiv.{name} imports from its own or a higher layer: {upward}"


def test_condent_imports_no_randomness():
    # both optimizer starts are deterministic, so no random start can come back unseen
    assert "rng" not in relative_imports("condent")


def loaded_by_import(prefix: str) -> str:
    """The modules under ``prefix`` that ``import qfdiv`` loads in a fresh interpreter."""
    # a fresh interpreter, so modules loaded by other tests cannot hide an import;
    # a None entry in sys.modules blocks an import and is not a loaded module
    return in_fresh_interpreter(
        "import sys, qfdiv; print(sorted(m for m, mod in sys.modules.items()"
        f" if m.startswith({prefix!r}) and mod is not None))"
    )


def test_import_loads_no_scipy():
    assert loaded_by_import("scipy") == "[]"


def test_import_loads_no_numpy_random():
    # rng loads numpy.random on the first generator it makes
    assert loaded_by_import("numpy.random") == "[]"


def test_import_starts_no_thread():
    # the eigensolve worker and its concurrent.futures import wait for the first large pair
    assert loaded_by_import("concurrent") == "[]"
    assert in_fresh_interpreter("import threading, qfdiv; print(threading.active_count())") == "1"
