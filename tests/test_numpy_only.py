"""The package runs on numpy alone: no module of ``openchain`` imports scipy.

A fresh interpreter blocks scipy (``sys.modules["scipy"] = None`` makes every
``import scipy...`` raise ImportError), imports every module of the package
and runs a tiny config of each engine. The tests themselves may use scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import importlib, json, pkgutil, sys
sys.modules["scipy"] = None
import openchain
import openchain.cli
from openchain import runner

for info in pkgutil.iter_modules(openchain.__path__):
    importlib.import_module("openchain." + info.name)
base = {"n_sites": 4, "chi": 16, "cutoff": 1e-12, "dt": 0.1, "dt_obs": 0.2,
        "t_max": 0.4, "gamma_plus": 0.3, "gamma_minus": 0.3, "gamma_z": 0.2}
configs = [
    {"engine": "mpdo"},
    {"engine": "mpdo", "basis": "linearized"},
    {"engine": "itebd", "n_sites": "infinite", "reorth_every": 2},
    {"engine": "qt", "n_traj": 2, "scheme": "exact-jump-times"},
    {"engine": "qt", "n_traj": 2, "scheme": "per-step-conditional",
     "gamma_minus": 0.6},
    {"engine": "oracle"},
]
for k, extra in enumerate(configs):
    cfg = {**base, **extra, "output_dir": f"{sys.argv[1]}/run{k}"}
    runner.run(runner.validate_config(runner.config_from_dict(cfg)))
print(json.dumps(sorted(name for name, mod in sys.modules.items()
                        if name.split(".")[0] == "scipy" and mod is not None)))
"""


def test_package_imports_and_runs_without_scipy(tmp_path):
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == []
    assert len(list(tmp_path.glob("run*/trace.csv"))) == 6
