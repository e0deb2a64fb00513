"""Set-up work of one workload in a fresh interpreter; ``run.py`` times it.

Usage: python3 perfbench/setup_probe.py WORKLOAD

Imports openchain, validates the workload's config, and builds its gates and
initial state with the public builders, as a user's script would before the
first step.
"""

import sys

from openchain import models, mpdo, mps, runner, trajectories

from workloads import WORKLOADS


def build(workload):
    """(gates, initial state) of a workload, from its validated config."""
    cfg = runner.validate_config(
        runner.config_from_dict(workload.run_config("unused")))
    p, basis = cfg.model_params(), cfg.operator_basis()
    if cfg.engine in ("mpdo", "itebd"):
        return (mpdo.build_trotter4_gates(p, basis, cfg.dt),
                mpdo.neel_mpdo(cfg.n_sites, basis))
    jumps = models.build_jump_ops(p)
    if cfg.scheme == "per-step-conditional":
        gates = trajectories.build_effective_gates(p, 0.5 * cfg.dt)
    else:
        gates = [models.build_xxz_gate(p, 0.5 * cfg.dt)]
    return (gates, jumps), mps.neel_mps(cfg.n_sites)


if __name__ == "__main__":
    gates, state = build(WORKLOADS[sys.argv[1]])
    print(state.n_sites)
