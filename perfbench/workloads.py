"""The benchmark's workloads: four fixed run configs of the same XXZ chain.

Every workload is j=1, Delta=1, a Neel start, chi=64, cutoff 1e-10, seed 0
and the Pauli basis, run through ``openchain.runner.run``. Run lengths
(``t_max``, ``n_traj``) are chosen so one run takes a few seconds on a
2-core x86 box with one BLAS thread, which leaves several runs per
measurement. BENCHMARK.json and NOTES.md say why each workload exists.
"""

from dataclasses import dataclass

# Set before numpy loads, in every process the benchmark starts: one BLAS
# thread leaves the second core to the 2-worker ensemble and fixes the
# rounding of every output.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

COMMON = {"j": 1.0, "delta": 1.0, "chi": 64, "cutoff": 1e-10, "seed": 0,
          "basis": "pauli"}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict     # runner config, without output_dir

    def run_config(self, output_dir):
        return {**COMMON, **self.config, "output_dir": str(output_dir)}

    def model_time(self):
        """Model time simulated per run: t_max summed over trajectories."""
        return self.config["t_max"] * self.config.get("n_traj", 1)


WORKLOADS = {w.name: w for w in (
    Workload(
        "mpdo-dephasing",
        {"engine": "mpdo", "n_sites": 16, "gamma_z": 1.0, "dt": 0.25,
         "dt_obs": 0.25, "t_max": 0.75}),
    Workload(
        "itebd-reorth",
        {"engine": "itebd", "n_sites": "infinite", "gamma_z": 1.0, "dt": 0.25,
         "dt_obs": 0.25, "t_max": 1.0, "reorth_every": 1}),
    Workload(
        "qt-weak",
        {"engine": "qt", "n_sites": 32, "gamma_plus": 0.05,
         "gamma_minus": 0.05, "dt": 0.1, "dt_obs": 0.1, "t_max": 3.0,
         "n_traj": 1, "scheme": "exact-jump-times", "threads": 1,
         "save_trajectories": True}),
    Workload(
        "qt-strong-ensemble",
        {"engine": "qt", "n_sites": 32, "gamma_plus": 1.0, "gamma_minus": 2.0,
         "gamma_z": 0.5, "dt": 0.05, "dt_obs": 0.1, "t_max": 1.0,
         "n_traj": 16, "scheme": "per-step-conditional", "threads": 2,
         "save_trajectories": True}),
)}
