"""Config-driven experiment runner.

A run is described by a flat JSON config (keys mirror the usual parameter
table naming: gamma_plus, gamma_minus, gamma_z, chi, dt, n_traj, seed, ...),
validated up front with every violation reported, and produces a directory
with trace CSVs, an ensemble/fit JSON where applicable, and a manifest that
is itself an accepted config (rerunning a manifest reproduces the outputs).
"""

import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, kernels, mpdo, oracle, trajectories as tj, traces
from .models import ModelParams, linearized_basis, pauli_basis

__all__ = [
    "RunConfig", "RunResult", "ConfigError",
    "config_from_dict", "config_to_dict", "load_config", "validate_config",
    "resolve_output_dir", "run", "convergence_scan", "compare_runs",
]

OUTPUT_ROOT_ENV = "OPENCHAIN_OUTPUT_ROOT"

ENGINES = ("mpdo", "itebd", "qt", "oracle")
BASES = ("pauli", "linearized")
SCHEMES = ("exact-jump-times", "per-step-conditional")


class ConfigError(ValueError):
    """Invalid run config; ``problems`` lists every violated constraint."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(f"- {p}" for p in self.problems))


@dataclass(frozen=True)
class RunConfig:
    engine: str = "mpdo"
    n_sites: int | None = 8          # None marks the infinite chain (itebd)
    j: float = 1.0
    delta: float = 1.0
    gamma_plus: float = 0.0
    gamma_minus: float = 0.0
    gamma_z: float = 0.0
    chi: int = 64
    cutoff: float = 1e-10
    dt: float = 0.05
    dt_obs: float = 0.1
    t_max: float = 5.0
    n_traj: int = 1
    seed: int = 0
    scheme: str = "exact-jump-times"
    basis: str = "pauli"
    reorth_every: int = 10           # itebd re-orthogonalization period (steps)
    save_trajectories: bool = True
    threads: int = 1
    output_dir: str = "runs/latest"

    def model_params(self):
        return ModelParams(j=self.j, delta=self.delta, gamma_plus=self.gamma_plus,
                           gamma_minus=self.gamma_minus, gamma_z=self.gamma_z,
                           n_sites=self.n_sites)

    def operator_basis(self):
        return pauli_basis() if self.basis == "pauli" else linearized_basis()


def config_to_dict(cfg: RunConfig):
    d = asdict(cfg)
    if d["n_sites"] is None:
        d["n_sites"] = "infinite"
    return d


def config_from_dict(d):
    d = dict(d)
    if "config" in d:  # accept a manifest as a config
        d = dict(d["config"])
    unknown = set(d) - {f for f in RunConfig.__dataclass_fields__}
    if unknown:
        raise ConfigError([f"unknown config key: {k}" for k in sorted(unknown)])
    if d.get("n_sites") == "infinite":
        d["n_sites"] = None
    return RunConfig(**d)


def load_config(path):
    return config_from_dict(traces.read_json(path))


def _near_multiple(a, b):
    if b <= 0:
        return False
    k = round(a / b)
    return k >= 1 and abs(k * b - a) <= 1e-9 * max(1.0, abs(a))


def validate_config(cfg: RunConfig):
    """Collect every violated constraint; raise ConfigError if any."""
    p, bad = [], set()   # bad: integer fields that hold no int
    for name in ("n_sites", "chi", "n_traj", "seed", "reorth_every", "threads"):
        v = getattr(cfg, name)   # not a float or a bool; n_sites None: infinite
        if type(v) is not int and not (name == "n_sites" and v is None):
            bad.add(name)
            p.append(f"{name} must be an integer, got {v!r}")
    if cfg.engine not in ENGINES:
        p.append(f"engine must be one of {ENGINES}, got {cfg.engine!r}")
    if cfg.basis not in BASES:
        p.append(f"basis must be one of {BASES}, got {cfg.basis!r}")
    for name in ("gamma_plus", "gamma_minus", "gamma_z"):
        if getattr(cfg, name) < 0:
            p.append(f"{name} must be >= 0")
    if cfg.engine == "itebd":
        if cfg.n_sites is not None:
            p.append("itebd requires n_sites = \"infinite\"")
    else:
        if cfg.n_sites is None:
            p.append(f"engine {cfg.engine!r} requires a finite n_sites")
        elif "n_sites" in bad:
            pass   # reported above
        elif cfg.n_sites < 2 or cfg.n_sites % 2 != 0:
            p.append(f"n_sites must be even and >= 2, got {cfg.n_sites}")
        elif cfg.engine == "oracle" and cfg.n_sites > oracle.MAX_RHO_SITES:
            p.append(f"oracle engine is capped at n_sites <= {oracle.MAX_RHO_SITES}")
    if "chi" not in bad and cfg.chi < 1:
        p.append("chi must be >= 1")
    if cfg.cutoff < 0:
        p.append("cutoff must be >= 0")
    if cfg.dt <= 0:
        p.append("dt must be > 0")
    if cfg.dt_obs <= 0:
        p.append("dt_obs must be > 0")
    if cfg.t_max <= 0:
        p.append("t_max must be > 0")
    elif cfg.dt_obs > 0 and not _near_multiple(cfg.t_max, cfg.dt_obs):
        p.append("t_max must be an integer multiple of dt_obs")
    if cfg.engine in ("mpdo", "itebd") and cfg.dt > 0 and cfg.dt_obs > 0 \
            and not _near_multiple(cfg.dt_obs, cfg.dt):
        p.append("dt_obs must be an integer multiple of dt for density-operator engines")
    if cfg.engine == "qt":
        if "n_traj" not in bad and cfg.n_traj < 1:
            p.append("n_traj must be >= 1 for the qt engine")
        if cfg.scheme not in SCHEMES:
            p.append(f"scheme must be one of {SCHEMES}, got {cfg.scheme!r}")
        elif cfg.scheme == "exact-jump-times" and cfg.gamma_plus != cfg.gamma_minus:
            p.append("exact-jump-times requires gamma_plus == gamma_minus; "
                     "use per-step-conditional for imbalanced rates")
        if cfg.scheme == "per-step-conditional" and not _near_multiple(cfg.dt_obs, cfg.dt):
            p.append("dt_obs must be an integer multiple of dt for per-step-conditional")
    if "reorth_every" not in bad and cfg.reorth_every < 1:
        p.append("reorth_every must be >= 1")
    if "threads" not in bad and cfg.threads < 1:
        p.append("threads must be >= 1")
    if p:
        raise ConfigError(p)
    return cfg


def resolve_output_dir(cfg: RunConfig):
    root = os.environ.get(OUTPUT_ROOT_ENV, "")
    path = Path(cfg.output_dir)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


@dataclass
class RunResult:
    output_dir: str
    trace_csv: str
    manifest: str
    ensemble_json: str | None = None
    extras: dict = field(default_factory=dict)


def _write_manifest(outdir, cfg, outputs, extras):
    manifest = {
        "config": config_to_dict(cfg),
        "code_version": __version__,
        "outputs": sorted(outputs),
        "summary": extras,
    }
    path = outdir / "manifest.json"
    traces.write_json(path, manifest)
    return str(path)


def _run_mpdo(cfg: RunConfig, outdir):
    p = cfg.model_params()
    basis = cfg.operator_basis()
    state = mpdo.neel_mpdo(cfg.n_sites, basis)
    gates = mpdo.build_trotter4_gates(p, basis, cfg.dt)
    n_steps = int(round(cfg.t_max / cfg.dt))
    rec_every = int(round(cfg.dt_obs / cfg.dt))
    window = tj.bond_window(cfg.n_sites)
    center = (cfg.n_sites - 2) // 2
    cols = traces.trace_columns(cfg.n_sites, "mpdo")
    rows = []

    def record(t):
        ent = kernels.entropies(state)
        rows.append([t, ent[center], float(np.mean(ent[window])),
                     *mpdo.all_sz(state), mpdo.trace(state)])

    record(0.0)
    max_drift = 0.0
    for step in range(1, n_steps + 1):
        mpdo.trotter4_step(state, gates, cfg.chi, cfg.cutoff)
        tr_val = mpdo.renormalize_trace(state)
        max_drift = max(max_drift, abs(tr_val - 1.0))
        if step % rec_every == 0:
            mpdo.canonicalize(state, cfg.chi, cfg.cutoff)
            record(step * cfg.dt)
    path = outdir / "trace.csv"
    traces.write_csv(path, cols, rows)
    extras = {"max_step_trace_drift": max_drift,
              "max_trunc_weight": state.max_trunc_weight,
              "max_restore_trunc_weight": state.max_restore_trunc_weight,
              "max_bond_dim": state.max_bond()}
    return str(path), None, extras


def _run_itebd(cfg: RunConfig, outdir):
    p = cfg.model_params()
    basis = cfg.operator_basis()
    state = mpdo.neel_mpdo(None, basis)
    gates = mpdo.build_trotter4_gates(p, basis, cfg.dt)
    n_steps = int(round(cfg.t_max / cfg.dt))
    rec_every = int(round(cfg.dt_obs / cfg.dt))
    cols = traces.trace_columns(2, "itebd")
    rows = []

    def refresh_and_record(t):
        mpdo.reorthogonalize(state, cfg.chi, cfg.cutoff)
        fixed = mpdo.itebd_fixed_points(state)   # one eig serves both
        za, zb = mpdo.itebd_sz(state, fixed)
        eta = mpdo.itebd_renormalize(state, fixed)
        s_ab, s_ba = kernels.entropies(state)
        rows.append([t, s_ab, 0.5 * (s_ab + s_ba), za, zb, eta])

    refresh_and_record(0.0)
    # Drift is the trace per cell that one step loses: the cell's trace
    # eigenvalue after the step times the scale the step moved into
    # log_scale. Every step starts from eigenvalue one, as the cell is
    # renormalized after each step and again after reorthogonalize. That
    # normalizes the lambdas and moves its pushes' kept norms into
    # log_scale, but no drift is taken across it, so nothing reads them.
    max_drift = 0.0
    for step in range(1, n_steps + 1):
        log_scale = state.log_scale
        mpdo.itebd_trotter4_step(state, gates, cfg.chi, cfg.cutoff)
        eta = mpdo.itebd_renormalize(state)
        kept = eta * float(np.exp(state.log_scale - log_scale))
        max_drift = max(max_drift, abs(kept - 1.0))
        if step % rec_every == 0:
            refresh_and_record(step * cfg.dt)
        elif step % cfg.reorth_every == 0:
            mpdo.reorthogonalize(state, cfg.chi, cfg.cutoff)
            mpdo.itebd_renormalize(state)
    path = outdir / "trace.csv"
    traces.write_csv(path, cols, rows)
    extras = {"max_step_trace_drift": max_drift,
              "max_trunc_weight": state.max_trunc_weight,
              "max_restore_trunc_weight": state.max_restore_trunc_weight,
              "max_bond_dim": state.max_bond()}
    return str(path), None, extras


def _run_qt(cfg: RunConfig, outdir):
    tcfg = tj.TrajectoryConfig(
        params=cfg.model_params(), chi=cfg.chi, cutoff=cfg.cutoff,
        dt_obs=cfg.dt_obs, t_max=cfg.t_max, seed=cfg.seed, scheme=cfg.scheme,
        dt=cfg.dt)
    runs = tj.run_ensemble(tcfg, cfg.n_traj, workers=cfg.threads)
    n = cfg.n_sites
    if cfg.save_trajectories:
        tdir = outdir / "trajectories"
        tdir.mkdir(exist_ok=True)
        for k, tr in enumerate(runs):
            cols = traces.trajectory_columns(n, tr.tracked_bonds)
            rows = [[tr.times[i], tr.s_center[i], tr.s_bond_avg[i],
                     *tr.bond_entropies[i], *tr.sz[i], tr.jumps_cum[i]]
                    for i in range(len(tr.times))]
            traces.write_csv(tdir / f"traj_{k:05d}.csv", cols, rows)
    if cfg.n_traj >= 2:
        stats = tj.ensemble_stats(runs)
        mean_sc, mean_te = stats.s_center_mean, stats.mean
        mean_sz, mean_jc = stats.sz_mean, stats.jumps_mean
    else:
        tr = runs[0]
        mean_sc, mean_te, mean_sz, mean_jc = (tr.s_center, tr.s_bond_avg,
                                              tr.sz, tr.jumps_cum)
    ens = {"n_traj": cfg.n_traj, "times": runs[0].times.tolist(),
           "te_mean": mean_te.tolist(), "s_center_mean": mean_sc.tolist(),
           "sz_mean": mean_sz.tolist(), "jumps_mean": mean_jc.tolist()}
    if cfg.n_traj >= 2:   # the ensemble's spreads
        ens.update(te_std=stats.std.tolist(), te_stderr=stats.stderr.tolist(),
                   s_center_stderr=stats.s_center_stderr.tolist(),
                   sz_stderr=stats.sz_stderr.tolist())
    ens_path = outdir / "ensemble.json"
    traces.write_json(ens_path, ens)
    cols = traces.trace_columns(n, "qt")
    grid = runs[0].times
    rows = [[grid[i], mean_sc[i], mean_te[i], *mean_sz[i], mean_jc[i]]
            for i in range(len(grid))]
    path = outdir / "trace.csv"
    traces.write_csv(path, cols, rows)
    extras = {"max_trunc_weight": max(tr.max_trunc_weight for tr in runs),
              "max_restore_trunc_weight": max(tr.max_restore_trunc_weight
                                              for tr in runs),
              "total_jumps": int(sum(len(tr.jump_log) for tr in runs))}
    return str(path), str(ens_path), extras


def _run_oracle(cfg: RunConfig, outdir):
    p = cfg.model_params()
    rho0 = oracle.neel_rho(cfg.n_sites)
    times, rhos = oracle.dense_lindblad_evolve(rho0, p, cfg.dt_obs, cfg.t_max)
    cuts = [b + 1 for b in tj.bond_window(cfg.n_sites)]
    center = (cfg.n_sites - 2) // 2 + 1
    cols = traces.trace_columns(cfg.n_sites, "oracle")
    rows = []
    for t, rho in zip(times, rhos):
        oes = [oracle.dense_oe(rho, c) for c in cuts]
        rows.append([t, oracle.dense_oe(rho, center), float(np.mean(oes)),
                     *oracle.dense_sz(rho), float(np.trace(rho).real)])
    path = outdir / "trace.csv"
    traces.write_csv(path, cols, rows)
    return str(path), None, {}


def run(cfg: RunConfig) -> RunResult:
    validate_config(cfg)
    outdir = resolve_output_dir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    runner = {"mpdo": _run_mpdo, "itebd": _run_itebd,
              "qt": _run_qt, "oracle": _run_oracle}[cfg.engine]
    trace_csv, ensemble_json, extras = runner(cfg, outdir)
    outputs = [os.path.basename(trace_csv)]
    if ensemble_json:
        outputs.append(os.path.basename(ensemble_json))
    manifest = _write_manifest(outdir, cfg, outputs, extras)
    return RunResult(output_dir=str(outdir), trace_csv=trace_csv,
                     manifest=manifest, ensemble_json=ensemble_json,
                     extras=extras)


def convergence_scan(cfg: RunConfig, axis, values, threshold=1e-3):
    """Run a chi or dt ladder and report deviations between successive rungs.

    The compared series is the center-cut entropy on the recording grid.
    """
    if axis not in ("chi", "dt"):
        raise ConfigError([f"scan axis must be 'chi' or 'dt', got {axis!r}"])
    if len(values) < 2:
        raise ConfigError(["convergence scan needs at least 2 axis values"])
    series = []
    for v in values:
        sub = replace(cfg, **{axis: type(getattr(cfg, axis))(v)},
                      output_dir=str(Path(cfg.output_dir) / f"{axis}_{v}"))
        res = run(sub)
        _, coldata = traces.read_csv(res.trace_csv)
        series.append((v, coldata["t"], coldata["S_center"]))
    rungs = []
    for (va, ta, sa), (vb, tb, sb) in zip(series, series[1:]):
        m = min(len(ta), len(tb))
        if np.max(np.abs(ta[:m] - tb[:m])) > 1e-9:
            raise ConfigError(["scan rungs ended on different time grids"])
        dev = float(np.max(np.abs(sa[:m] - sb[:m])))
        rungs.append({axis: [va, vb], "max_deviation": dev,
                      "converged": bool(dev < threshold)})
    report = {"axis": axis, "values": list(values), "threshold": threshold,
              "pairs": rungs,
              "converged": bool(rungs and rungs[-1]["converged"])}
    outdir = resolve_output_dir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    traces.write_json(outdir / "convergence.json", report)
    return report


def compare_runs(trace_a, trace_b):
    """Max-abs-deviation report between two trace CSVs on shared columns."""
    header_a, a = traces.read_csv(trace_a)
    header_b, b = traces.read_csv(trace_b)
    m = min(len(a["t"]), len(b["t"]))
    if m == 0 or np.max(np.abs(a["t"][:m] - b["t"][:m])) > 1e-9:
        raise ConfigError(["trace files have incompatible time grids"])
    shared = [c for c in header_a if c in set(header_b) and c != "t"]
    per_col = {c: float(np.max(np.abs(a[c][:m] - b[c][:m]))) for c in shared}
    return {"n_times": int(m), "columns": per_col,
            "max_abs_deviation": max(per_col.values()) if per_col else 0.0}
