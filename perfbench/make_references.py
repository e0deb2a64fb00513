"""Rewrite the stored reference outputs from the code in src/.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/make_references.py

Only a change that is meant to alter the physics output should rerun this;
the output checks compare every benchmark run against these files.
"""

import os
import shutil
import sys
from pathlib import Path

from workloads import PINNED_ENV, WORKLOADS

os.environ.update(PINNED_ENV)   # before numpy loads

from openchain import runner  # noqa: E402

REFERENCES = Path("perfbench") / "references"


def main():
    if not Path("src", "openchain").is_dir():
        sys.exit("run from the repository root")
    for wl in WORKLOADS.values():
        out = REFERENCES / wl.name
        shutil.rmtree(out, ignore_errors=True)
        runner.run(runner.config_from_dict(wl.run_config(out)))
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
