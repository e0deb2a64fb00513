"""Each module's ``__all__`` lists exactly its public functions and classes,
and every name it imports is used or re-exported."""

import ast
import importlib
import inspect

import pytest

MODULES = ["analytics", "cli", "kernels", "models", "mpdo", "mps", "oracle",
           "runner", "traces", "trajectories"]


def _is_def(obj):
    return inspect.isfunction(obj) or inspect.isclass(obj)


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_public_functions_and_classes(name):
    mod = importlib.import_module(f"openchain.{name}")
    exported = set(mod.__all__)
    assert {n for n in exported if not hasattr(mod, n)} == set()   # stale names
    defined = {n for n, obj in vars(mod).items()
               if not n.startswith("_") and _is_def(obj)
               and obj.__module__ == mod.__name__}
    assert defined == {n for n in exported if _is_def(getattr(mod, n))}


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    mod = importlib.import_module(f"openchain.{name}")
    tree = ast.parse(inspect.getsource(mod))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used - set(mod.__all__) == set()
