"""Each module's ``__all__`` lists exactly its public functions and classes."""

import importlib
import inspect

import pytest

MODULES = ["analytics", "cli", "kernels", "models", "mpdo", "mps", "oracle",
           "runner", "tensors", "traces", "trajectories"]


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
