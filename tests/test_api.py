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


# Entry points that perfbench/measure.py and the per-layer metrics of
# BENCHMARK.json read by name. The span tracer wraps only public functions
# defined in the module that names them, so an alias or a method would drop
# out of the traced run unnoticed.
TRACED = {
    "kernels": ["bond_update", "bond_update_nogate", "sweep_chain",
                "canonicalize_chain"],
    "mps": ["sweep", "canonicalize", "apply_site_op", "all_sz"],
    "mpdo": ["trotter4_step", "itebd_trotter4_step", "reorthogonalize",
             "canonicalize", "all_sz", "trace", "renormalize_trace",
             "itebd_sz", "itebd_renormalize"],
    "trajectories": ["run_trajectory", "run_ensemble", "channel_weights",
                     "apply_jump", "build_effective_gates"],
    "models": ["build_super_gates"],
    "traces": ["write_csv", "write_json"],
    "runner": ["run"],
}


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_entry_points_are_module_functions(name):
    mod = importlib.import_module(f"openchain.{name}")
    for attr in TRACED[name]:
        obj = getattr(mod, attr, None)
        assert inspect.isfunction(obj), attr
        assert obj.__module__ == mod.__name__ and obj.__qualname__ == attr
