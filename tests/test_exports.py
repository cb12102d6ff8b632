"""Every module's ``__all__`` names its own definitions, and the package re-exports them all."""

import ast
import importlib
from pathlib import Path

import pytest

import qubit_retro

# The modules whose public names the package re-exports.
REEXPORTED = ("linalg", "channels", "bayes", "scans", "serialize", "errors")


def _module(name: str):
    return importlib.import_module(f"qubit_retro.{name}")


def _defined_names(module) -> set:
    """Names bound at the top level of a module's source by def, class or assignment."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("name", REEXPORTED + ("cli",))
def test_module_all_names_only_its_own_definitions(name):
    module = _module(name)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), exported
    assert sorted(set(exported) - _defined_names(module)) == []


def test_package_all_is_the_union_of_module_alls():
    union = {"__version__"}
    for name in REEXPORTED:
        union |= set(getattr(_module(name), "__all__", ()))
    exported = set(qubit_retro.__all__)
    assert len(qubit_retro.__all__) == len(exported)
    assert (sorted(exported - union), sorted(union - exported)) == ([], [])
    assert all(hasattr(qubit_retro, n) for n in exported)
