"""Quantum-trajectory unraveling over MPS.

Two schemes:

* ``exact-jump-times``: valid whenever the summed L^dag L is proportional to
  the identity (balanced emission/absorption, dephasing, or both). Jump times
  are pre-sampled from the analytic norm decay, the state is evolved with the
  Hermitian Hamiltonian only between jumps, and the channel is drawn from the
  instantaneous <L^dag L> weights, read from ``mps.all_sz`` of the canonical
  chain; ``apply_jump`` reads the jumped site's weight the same way, applies
  the jump and restores canonical form. Between two jump or grid times the
  interval is cut into n equal Strang substeps of length h, run as the
  2n + 1 fused layers P0(h/2) P1(h) P0(h) ... P1(h) P0(h/2) of
  ``kernels.fuse_sweeps``. The substep gates come from
  ``models.xxz_propagator``, one cached eigendecomposition of the bond
  Hamiltonian, so a substep of any length costs a 4x4 product. The chain
  carries U(1) S^z labels from its Neel start (``mps.label_charges``): H
  conserves S^z and a sigma+- jump moves it by one, so every bond update
  SVDs one block per magnetization sector, and a jump is restored in N-1
  one-site restores (``mps.canonicalize`` with ``site``), each the SVD of
  one site's tensor with the remainder pushed to its neighbour.
* ``per-step-conditional``: first order in (rate * dt); handles arbitrary
  rates (the first-order conditional unraveling, Daley, Adv. Phys. 63, 77
  (2014)). Each step applies non-Hermitian two-site gates (the effective
  Hamiltonian including -i/2 L^dag L) in the three fused layers
  P0(h/2) P1(h) P0(h/2), reads the channel weights from
  ``mps.sz_any_gauge`` of the chain as the gates left it, conditionally
  fires each channel, and then canonicalizes once, whether or not a jump
  fired: 2(N-1) one-site restores, a left-to-right pass and a right-to-left
  pass. The gates are ``models.expm`` of the per-bond generators. Channels
  fire on weights read before the step's first jump, so two jumps can
  annihilate the state (sigma- twice on one up spin); the norm that the
  step's canonicalization divides out then falls to rounding noise, and the
  step raises FloatingPointError naming its time, sites and channels, as
  the dense mirror does. The chain stays unlabelled: its bonds stay small
  (at most 18 in the strong-dissipation benchmark), where a second LAPACK
  call per theta costs more than the smaller SVDs save. On a 2-core x86 VM,
  Z2 labels made four such trajectories 2.2 times slower, and U(1) labels
  about 2 times.

A dense mirror of the conditional scheme (same RNG consumption, same gate
products) lives here too so jump logs can be compared against the exact
solver bit for bit. It walks the MPS path's ``(bond, gate)`` schedule, the
same three fused layers, so its gates run in the MPS path's order.
``run_dense_conditional`` is the package's one dense trajectory reference;
``tests/test_oracle.py`` validates it statistically against the Lindblad
oracle (ensemble <sz>, inter-jump waiting times).
"""

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import kernels, mps, oracle
from .models import ID2, ModelParams, SZ, bond_weights, build_jump_ops, expm, \
    two_site_hamiltonian, xxz_propagator

__all__ = [
    "TrajectoryConfig", "EntropyTrace", "EnsembleStats",
    "identity_rate", "sample_jump_time", "channel_weights",
    "select_jump_channel", "apply_jump", "run_trajectory", "run_ensemble",
    "ensemble_stats", "bond_window", "build_effective_gates",
    "conditional_jump_mask", "run_dense_conditional",
]

log = logging.getLogger(__name__)

# A conditional step whose state norm falls below this was annihilated: two
# jumps of the step fired where the first left nothing for the second to act
# on, and what is left is rounding noise. That noise follows the last bits of
# the gates (4e-15 and 2e-14 on one annihilated trajectory, with gates from
# two expm implementations), so the floor sits far above it, and far below
# the smallest norm of a healthy step (1.1e-5 on the 32-site
# strong-dissipation benchmark ensemble).
_STEP_NORM_FLOOR = 1e-8


@dataclass(frozen=True)
class TrajectoryConfig:
    params: ModelParams
    chi: int = 64
    cutoff: float = 1e-10
    dt_obs: float = 0.1      # observable-recording grid
    t_max: float = 5.0
    seed: int = 0
    scheme: str = "exact-jump-times"   # or "per-step-conditional"
    dt: float | None = None  # integration substep cap; defaults to dt_obs

    def step_cap(self):
        return self.dt_obs if self.dt is None else min(self.dt, self.dt_obs)

    def validate(self):
        self.params.validate()
        if self.params.n_sites is None:
            raise ValueError("trajectories need a finite chain")
        if self.scheme not in ("exact-jump-times", "per-step-conditional"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "exact-jump-times":
            if self.params.gamma_plus != self.params.gamma_minus:
                raise ValueError(
                    "exact-jump-times needs gamma_plus == gamma_minus "
                    "(identity-proportional non-Hermitian part); "
                    "use per-step-conditional for imbalanced rates")
        if self.t_max <= 0 or self.dt_obs <= 0:
            raise ValueError("t_max and dt_obs must be positive")
        return self


def identity_rate(p: ModelParams):
    """Per-site coefficient g with sum_eta L^dag L = N g * identity.

    Requires balanced emission/absorption; the norm of a trajectory then
    decays as exp(-N g t) regardless of the state.
    """
    if p.gamma_plus != p.gamma_minus:
        raise ValueError("identity-proportional rate needs gamma_plus == gamma_minus")
    return p.gamma_plus + p.gamma_z


def sample_jump_time(t_prev, r, n_sites, gamma):
    """Next jump time from a uniform threshold r in (0, 1]."""
    if not (0.0 < r <= 1.0):
        raise ValueError(f"threshold must be in (0, 1], got {r}")
    return t_prev - np.log(r) / (n_sites * gamma)


def channel_weights(state, jumps):
    """<L^dag L> for every channel of a canonical chain (exact-jump-times)."""
    return _weights_from_sz(mps.all_sz(state), jumps)


def _weights_from_sz(sz, jumps):
    """<L^dag L> for every channel from the site magnetizations ``sz``."""
    w = np.empty(len(jumps))
    for k, j in enumerate(jumps):
        if j.channel == "+":
            w[k] = j.rate * 0.5 * (1.0 - sz[j.site])
        elif j.channel == "-":
            w[k] = j.rate * 0.5 * (1.0 + sz[j.site])
        else:
            w[k] = j.rate
    return np.clip(w, 0.0, None)


def select_jump_channel(state, jumps, rng):
    """Draw a channel index with probability proportional to <L^dag L>."""
    w = channel_weights(state, jumps)
    total = w.sum()
    if total <= 0.0:
        raise ValueError("all jump-channel weights vanish; inconsistent config")
    target = rng.random() * total
    idx = int(np.searchsorted(np.cumsum(w), target, side="right"))
    return min(idx, len(jumps) - 1)


def apply_jump(state, jump, chi, cutoff):
    """Apply a jump operator and restore canonical form / normalization.

    The chain must be canonical; the jumped site's weight is read from
    ``mps.all_sz``, and the restore runs N-1 one-site restores around the
    jumped site. Raises FloatingPointError, naming the channel and site, when the
    jump would annihilate the state. A labelled chain's charges follow the
    jump.
    """
    if jump.channel == "z":
        # unitary and diagonal: Schmidt vectors are untouched
        mps.apply_site_op(state, SZ, jump.site)
        return
    weight = _weights_from_sz(mps.all_sz(state), [jump])[0] / jump.rate
    if weight < 1e-28:
        raise FloatingPointError(
            f"post-jump norm {np.sqrt(max(weight, 0.0)):.2e} below 1e-14 "
            f"for channel {jump.channel} at site {jump.site}")
    mps.apply_site_op(state, jump.matrix / np.sqrt(jump.rate), jump.site)
    mps.canonicalize(state, chi, cutoff, site=jump.site)


_WINDOW_WIDTH = 11   # bonds whose entropies S_bond_avg averages


def _window(n_sites):
    """The bonds of ``bond_window``, read without a warning."""
    center = (n_sites - 2) // 2
    if n_sites - 1 < _WINDOW_WIDTH:
        return [center]
    start = center - _WINDOW_WIDTH // 2
    return list(range(start, start + _WINDOW_WIDTH))


def bond_window(n_sites):
    """Tracked bonds: _WINDOW_WIDTH bonds centered on the middle of the chain.

    Falls back to the single center bond (with a warning) when the chain is
    too short. A run warns once: the runner's engines and ``run_ensemble``
    call this, while each trajectory reads the same bonds quietly.
    """
    if n_sites - 1 < _WINDOW_WIDTH:
        log.warning("chain with %d bonds is too short for %d-bond averaging; "
                    "using the center bond only", n_sites - 1, _WINDOW_WIDTH)
    return _window(n_sites)


@dataclass
class EntropyTrace:
    times: np.ndarray = field(repr=False)
    tracked_bonds: list = field(repr=False)
    bond_entropies: np.ndarray = field(repr=False)   # (n_times, n_tracked)
    s_center: np.ndarray = field(repr=False)
    s_bond_avg: np.ndarray = field(repr=False)
    sz: np.ndarray = field(repr=False)               # (n_times, n_sites)
    jumps_cum: np.ndarray = field(repr=False)
    jump_log: list = field(repr=False)               # (time, site, channel)
    n_sites: int = 0
    max_trunc_weight: float = 0.0           # gate sweeps
    max_restore_trunc_weight: float = 0.0   # canonical-form restores


class _Recorder:
    def __init__(self, cfg, tracked):
        n_rec = int(round(cfg.t_max / cfg.dt_obs))
        self.grid = np.arange(n_rec + 1) * cfg.dt_obs
        self.tracked = tracked
        self.bond_entropies = np.empty((n_rec + 1, len(tracked)))
        self.s_center = np.empty(n_rec + 1)
        self.s_bond_avg = np.empty(n_rec + 1)
        self.sz = np.empty((n_rec + 1, cfg.params.n_sites))
        self.jumps_cum = np.zeros(n_rec + 1)
        self.k = 0

    def record(self, state, n_jumps):
        ents = kernels.entropies(state)
        ent = ents[self.tracked]
        self.bond_entropies[self.k] = ent
        self.s_center[self.k] = ents[(state.n_sites - 2) // 2]
        self.s_bond_avg[self.k] = float(ent.mean())
        self.sz[self.k] = mps.all_sz(state)
        self.jumps_cum[self.k] = n_jumps
        self.k += 1

    def done(self, cfg, jump_log, state):
        return EntropyTrace(
            times=self.grid, tracked_bonds=list(self.tracked),
            bond_entropies=self.bond_entropies, s_center=self.s_center,
            s_bond_avg=self.s_bond_avg, sz=self.sz, jumps_cum=self.jumps_cum,
            jump_log=jump_log, n_sites=cfg.params.n_sites,
            max_trunc_weight=state.max_trunc_weight,
            max_restore_trunc_weight=state.max_restore_trunc_weight)


def _traj_rng(seed, traj_index):
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(traj_index))))


# One Strang step as sweeps of (multiple of h/2, transposed flag): a normal
# then a transposed sweep of half a step each.
_STRANG_PAIR = ((1, False), (1, True))


def _strang_schedule(tables, n_pairs, n_bonds):
    """(bond, gate) schedule of ``n_pairs`` Strang steps of length h.

    ``tables`` maps 1 (h/2) and 2 (h) to per-bond gate lists. The layers
    come from ``kernels.fuse_sweeps``: 2 n_pairs + 1 of them,
    P0(h/2) P1(h) P0(h) ... P1(h) P0(h/2).
    """
    layers = [(parity, tables[frac]) for parity, frac
              in kernels.fuse_sweeps(_STRANG_PAIR * n_pairs)]
    return kernels.layer_schedule(layers, n_bonds)


def _evolve_hermitian(state, gate_fn, duration, cap, chi, cutoff):
    """n_sub Strang substeps under H, at most ``cap`` long, as one schedule."""
    if duration <= 1e-12:
        return
    n_sub = max(1, int(np.ceil(duration / cap - 1e-9)))
    h = duration / n_sub
    n_bonds = len(state.lambdas)
    tables = {1: [gate_fn(0.5 * h)] * n_bonds, 2: [gate_fn(h)] * n_bonds}
    kernels.apply_schedule(
        state, _strang_schedule(tables, n_sub, n_bonds), chi, cutoff)


def _run_exact_jump_times(cfg: TrajectoryConfig, traj_index):
    p = cfg.params
    n = p.n_sites
    rng = _traj_rng(cfg.seed, traj_index)
    state = mps.neel_mps(n)
    mps.label_charges(state)
    jumps = build_jump_ops(p)
    gate_fn = xxz_propagator(p)
    gamma = identity_rate(p)
    cap = cfg.step_cap()
    rec = _Recorder(cfg, _window(n))
    jump_log = []

    t = 0.0
    next_jump = (sample_jump_time(0.0, 1.0 - rng.random(), n, gamma)
                 if gamma > 0 else np.inf)
    rec.record(state, 0)
    for t_grid in rec.grid[1:]:
        while next_jump <= t_grid + 1e-12:
            _evolve_hermitian(state, gate_fn, next_jump - t, cap, cfg.chi,
                              cfg.cutoff)
            t = next_jump
            idx = select_jump_channel(state, jumps, rng)
            apply_jump(state, jumps[idx], cfg.chi, cfg.cutoff)
            jump_log.append((t, jumps[idx].site, jumps[idx].channel))
            next_jump = sample_jump_time(t, 1.0 - rng.random(), n, gamma)
        _evolve_hermitian(state, gate_fn, t_grid - t, cap, cfg.chi, cfg.cutoff)
        t = t_grid
        rec.record(state, len(jump_log))
    return rec.done(cfg, jump_log, state)


# ----------------------------------------------------------------------------
# per-step-conditional scheme (first order, arbitrary rates)
# ----------------------------------------------------------------------------

def _nh_rate_op(p: ModelParams):
    """K = sum_c gamma_c L_c^dag L_c on one site, L_c = sigma+, sigma-, sz."""
    k = np.zeros((2, 2), dtype=complex)
    k += p.gamma_plus * np.array([[0.0, 0.0], [0.0, 1.0]])   # sigma- sigma+
    k += p.gamma_minus * np.array([[1.0, 0.0], [0.0, 0.0]])  # sigma+ sigma-
    k += p.gamma_z * np.eye(2)
    return k


def build_effective_gates(p: ModelParams, h):
    """Per-bond exp([-i h2 - (1/2)(w_l K x 1 + w_r 1 x K)] h) gates.

    Bonds with equal dissipator weights share one gate, so a chain of any
    length builds at most three.
    """
    h2 = two_site_hamiltonian(p)
    k = _nh_rate_op(p)
    weights = bond_weights(p.n_sites)
    gates = {}
    for wl, wr in dict.fromkeys(weights):
        gen = -1j * h2 - 0.5 * (wl * np.kron(k, ID2) + wr * np.kron(ID2, k))
        gates[wl, wr] = expm(gen * h)
    return [gates[w] for w in weights]


def _conditional_schedule(p: ModelParams, h):
    """(bond, gate) schedule of one conditional step: P0(h/2) P1(h) P0(h/2)."""
    tables = {1: build_effective_gates(p, 0.5 * h),
              2: build_effective_gates(p, h)}
    return _strang_schedule(tables, 1, p.n_sites - 1)


def conditional_jump_mask(weights, h, rng):
    """One uniform per channel, in order; fires when u < 1 - exp(-w h)."""
    mask = np.zeros(len(weights), dtype=bool)
    for k, w in enumerate(weights):
        u = rng.random()
        mask[k] = u < -np.expm1(-w * h)
    return mask


def _conditional_grid(cfg: TrajectoryConfig):
    """(step, number of steps, steps per record) of the conditional scheme.

    Raises ValueError unless t_max and dt_obs are integer multiples of the
    step.
    """
    h = cfg.step_cap()
    n_steps = int(round(cfg.t_max / h))
    if abs(n_steps * h - cfg.t_max) > 1e-9:
        raise ValueError("t_max must be an integer multiple of the step for "
                         "the per-step-conditional scheme")
    rec_every = int(round(cfg.dt_obs / h))
    if abs(rec_every * h - cfg.dt_obs) > 1e-9:
        raise ValueError("dt_obs must be an integer multiple of the step")
    return h, n_steps, rec_every


def _check_step_norm(norm, t, fired):
    """Raise FloatingPointError if a conditional step annihilated the state.

    The message names the step's time and the jumps ``fired`` in it.
    """
    if not norm >= _STEP_NORM_FLOOR:
        jumps = ", ".join(f"channel {j.channel} at site {j.site}"
                          for j in fired) or "none"
        raise FloatingPointError(
            f"state norm {norm:.2e} below {_STEP_NORM_FLOOR:.0e} in the "
            f"conditional step at t={t:.6g} (jumps: {jumps})")


def _run_conditional(cfg: TrajectoryConfig, traj_index):
    p = cfg.params
    n = p.n_sites
    rng = _traj_rng(cfg.seed, traj_index)
    state = mps.neel_mps(n)
    jumps = build_jump_ops(p)
    h, n_steps, rec_every = _conditional_grid(cfg)
    schedule = _conditional_schedule(p, h)
    rec = _Recorder(cfg, _window(n))
    jump_log = []

    rec.record(state, 0)
    for step in range(1, n_steps + 1):
        kernels.apply_schedule(state, schedule, cfg.chi, cfg.cutoff)
        w = _weights_from_sz(mps.sz_any_gauge(state), jumps)
        mask = conditional_jump_mask(w, h, rng)
        fired = [jumps[k] for k in np.flatnonzero(mask)]
        for j in fired:
            mps.apply_site_op(state, j.matrix / np.sqrt(j.rate), j.site)
            jump_log.append((step * h, j.site, j.channel))
        log_scale = state.log_scale
        mps.canonicalize(state, cfg.chi, cfg.cutoff)
        _check_step_norm(np.exp(state.log_scale - log_scale), step * h, fired)
        if step % rec_every == 0:
            rec.record(state, len(jump_log))
    return rec.done(cfg, jump_log, state)


def run_dense_conditional(cfg: TrajectoryConfig, traj_index=0):
    """Dense mirror of the conditional scheme: same gates, same RNG draws.

    Returns (jump_log, times, sz_series). Used to validate that the MPS path
    produces identical jump logs at small sizes.
    """
    p = cfg.params
    n = p.n_sites
    if n > oracle.MAX_PURE_SITES:
        raise ValueError(f"dense mirror capped at {oracle.MAX_PURE_SITES} sites")
    rng = _traj_rng(cfg.seed, traj_index)
    psi = oracle.neel_vector(n)
    jumps = build_jump_ops(p)
    dense_ops = {(j.site, j.channel):
                 oracle.site_operator(j.matrix / np.sqrt(j.rate), j.site, n)
                 for j in jumps}
    h, n_steps, rec_every = _conditional_grid(cfg)
    schedule = _conditional_schedule(p, h)
    n_rec = int(round(cfg.t_max / cfg.dt_obs))
    times = np.arange(n_rec + 1) * cfg.dt_obs
    sz_series = [oracle.dense_sz_pure(psi)]
    jump_log = []
    for step in range(1, n_steps + 1):
        for bond, gate in schedule:
            psi = oracle.apply_two_site_dense(psi, gate, bond, n)
        norm = np.linalg.norm(psi)
        _check_step_norm(norm, step * h, [])
        psi = psi / norm
        w = _weights_from_sz(oracle.dense_sz_pure(psi), jumps)
        mask = conditional_jump_mask(w, h, rng)
        fired = [jumps[k] for k in np.flatnonzero(mask)]
        for j in fired:
            psi = dense_ops[(j.site, j.channel)] @ psi
            norm = np.linalg.norm(psi)
            _check_step_norm(norm, step * h, fired)
            psi = psi / norm
            jump_log.append((step * h, j.site, j.channel))
        if step % rec_every == 0:
            sz_series.append(oracle.dense_sz_pure(psi))
    return jump_log, times, np.array(sz_series)


def run_trajectory(cfg: TrajectoryConfig, traj_index=0) -> EntropyTrace:
    """One trajectory; a deterministic function of (cfg, seed, traj_index)."""
    cfg.validate()
    if cfg.scheme == "exact-jump-times":
        return _run_exact_jump_times(cfg, traj_index)
    return _run_conditional(cfg, traj_index)


def _run_indexed(args):
    cfg, idx = args
    return run_trajectory(cfg, idx)


def run_ensemble(cfg: TrajectoryConfig, n_traj, workers=1):
    """Trajectories 0..n_traj-1, optionally in parallel; order is fixed.

    Results are independent of ``workers`` because every trajectory owns a
    substream derived from (seed, index). A chain too short for the bond
    window is reported once, here, not once per trajectory.
    """
    bond_window(cfg.params.n_sites)
    if workers <= 1:
        return [run_trajectory(cfg, k) for k in range(n_traj)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_indexed, [(cfg, k) for k in range(n_traj)],
                             chunksize=max(1, n_traj // (4 * workers))))


@dataclass
class EnsembleStats:
    times: np.ndarray = field(repr=False)
    mean: np.ndarray = field(repr=False)       # bond-averaged TE
    std: np.ndarray = field(repr=False)        # sample (n-1) deviation
    stderr: np.ndarray = field(repr=False)     # std / sqrt(n_traj)
    n_traj: int = 0
    s_center_mean: np.ndarray = field(repr=False, default=None)
    s_center_stderr: np.ndarray = field(repr=False, default=None)
    sz_mean: np.ndarray = field(repr=False, default=None)     # (n_times, n_sites)
    sz_stderr: np.ndarray = field(repr=False, default=None)
    jumps_mean: np.ndarray = field(repr=False, default=None)


def ensemble_stats(traces) -> EnsembleStats:
    """Mean / sample std / standard error over an aligned trajectory set."""
    if len(traces) < 2:
        raise ValueError("ensemble statistics need at least 2 trajectories")
    t0 = traces[0].times
    for tr in traces[1:]:
        if len(tr.times) != len(t0) or np.max(np.abs(tr.times - t0)) > 1e-12:
            raise ValueError("trajectory time grids are not aligned")
    n = len(traces)
    root = np.sqrt(n)
    te = np.stack([tr.s_bond_avg for tr in traces])
    sc = np.stack([tr.s_center for tr in traces])
    sz = np.stack([tr.sz for tr in traces])
    jc = np.stack([tr.jumps_cum for tr in traces])
    te_std = te.std(axis=0, ddof=1)
    return EnsembleStats(
        times=t0.copy(), mean=te.mean(axis=0), std=te_std, stderr=te_std / root,
        n_traj=n,
        s_center_mean=sc.mean(axis=0), s_center_stderr=sc.std(axis=0, ddof=1) / root,
        sz_mean=sz.mean(axis=0), sz_stderr=sz.std(axis=0, ddof=1) / root,
        jumps_mean=jc.mean(axis=0))
