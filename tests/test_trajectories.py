import logging

import numpy as np
import pytest
from scipy import stats

from openchain import kernels, mps, oracle, trajectories as tj
from openchain.models import ModelParams, build_jump_ops, build_xxz_gate


def config(**kw):
    params = kw.pop("params")
    base = dict(chi=32, cutoff=1e-12, dt_obs=0.25, t_max=1.0, seed=1, dt=0.05)
    base.update(kw)
    return tj.TrajectoryConfig(params=params, **base)


def test_sample_jump_time_examples():
    assert tj.sample_jump_time(2.0, 1.0, 40, 1.0) == pytest.approx(2.0)
    assert tj.sample_jump_time(0.0, np.exp(-1.0), 40, 1.0) == pytest.approx(0.025)
    with pytest.raises(ValueError):
        tj.sample_jump_time(0.0, 0.0, 4, 1.0)


def test_sample_jump_time_mean():
    rng = np.random.default_rng(0)
    n, gamma = 8, 0.5
    r = 1.0 - rng.random(100_000)
    waits = np.array([tj.sample_jump_time(0.0, ri, n, gamma) for ri in r[:100_000]])
    assert abs(waits.mean() - 1.0 / (n * gamma)) <= 0.01 / (n * gamma)


def test_identity_rate():
    assert tj.identity_rate(ModelParams(n_sites=4, gamma_plus=0.3,
                                        gamma_minus=0.3, gamma_z=0.2)) == \
        pytest.approx(0.5)
    with pytest.raises(ValueError):
        tj.identity_rate(ModelParams(n_sites=4, gamma_plus=0.1, gamma_minus=0.3))


def test_channel_weights_and_selection_two_sites():
    p = ModelParams(n_sites=2, gamma_plus=1.0, gamma_minus=1.0)
    st = mps.neel_mps(2)  # |up down>
    jumps = build_jump_ops(p)
    w = tj.channel_weights(st, jumps)
    by = {(j.site, j.channel): wi for j, wi in zip(jumps, w)}
    assert by[(0, "-")] == pytest.approx(1.0)   # only sigma-_1 ...
    assert by[(1, "+")] == pytest.approx(1.0)   # ... and sigma+_2 can fire
    assert by[(0, "+")] == pytest.approx(0.0, abs=1e-12)
    assert by[(1, "-")] == pytest.approx(0.0, abs=1e-12)
    counts = np.zeros(len(jumps))
    rng = np.random.default_rng(3)
    for _ in range(2000):
        counts[tj.select_jump_channel(st, jumps, rng)] += 1
    live = [k for k, j in enumerate(jumps)
            if (j.site, j.channel) in [(0, "-"), (1, "+")]]
    assert counts.sum() == 2000
    assert set(np.flatnonzero(counts)) == set(live)
    res = stats.binomtest(int(counts[live[0]]), 2000, 0.5)
    assert res.pvalue > 1e-3


def test_dephasing_channels_uniform():
    p = ModelParams(n_sites=4, gamma_z=0.7)
    st = mps.neel_mps(4)
    jumps = build_jump_ops(p)
    w = tj.channel_weights(st, jumps)
    assert np.allclose(w, 0.7)


def test_selection_statistics_match_weights():
    p = ModelParams(n_sites=4, gamma_plus=0.5, gamma_minus=0.5)
    st = mps.neel_mps(4)
    mps.sweep(st, build_xxz_gate(p, 0.2), 16, 1e-12)
    jumps = build_jump_ops(p)
    w = tj.channel_weights(st, jumps)
    probs = w / w.sum()
    n_draw = 10_000
    rng = np.random.default_rng(11)
    counts = np.zeros(len(jumps))
    for _ in range(n_draw):
        counts[tj.select_jump_channel(st, jumps, rng)] += 1
    keep = probs > 1e-12
    res = stats.chisquare(counts[keep], n_draw * probs[keep] / probs[keep].sum())
    assert res.pvalue > 0.01, (counts, probs)


def test_select_requires_positive_weight():
    p = ModelParams(n_sites=2, gamma_plus=1.0)
    st = mps.product_mps([[1, 0], [1, 0]])  # all up: sigma+ cannot fire
    with pytest.raises(ValueError):
        tj.select_jump_channel(st, build_jump_ops(p), np.random.default_rng(0))


def test_apply_jump_examples():
    p = ModelParams(n_sites=2, gamma_plus=1.0, gamma_minus=1.0)
    jumps = {(j.site, j.channel): j for j in build_jump_ops(p)}
    st = mps.neel_mps(2)
    tj.apply_jump(st, jumps[(0, "-")], 8, 1e-12)
    assert np.allclose(mps.all_sz(st), [-1, -1])
    assert mps.bond_entropy(st, 0) <= 1e-12

    # a z jump leaves every Schmidt vector untouched
    pz = ModelParams(n_sites=2, gamma_z=1.0)
    st2 = mps.neel_mps(2)
    kernels.apply_bond_gate(st2, build_xxz_gate(pz, 0.6), 0, 8, 1e-12)
    lam_before = st2.lambdas[0].copy()
    tj.apply_jump(st2, build_jump_ops(pz)[0], 8, 1e-12)
    assert np.array_equal(st2.lambdas[0], lam_before)

    # vanishing-weight jump must raise
    st3 = mps.product_mps([[1, 0], [1, 0]])
    with pytest.raises(FloatingPointError):
        tj.apply_jump(st3, jumps[(0, "+")], 8, 1e-12)


def test_rare_jump_creates_bell_entropy():
    # down-up-down-up four-spin block, short evolution, then sigma+ on the
    # second spin: the dominant component dies and a Bell pair across the
    # center cut survives
    p = ModelParams(n_sites=4, gamma_plus=1.0, gamma_minus=1.0)
    down, up = [0, 1], [1, 0]
    st = mps.product_mps([down, up, down, up])
    t = 0.01
    gate = build_xxz_gate(p, t)
    for bond in (0, 1, 2):
        kernels.apply_bond_gate(st, gate, bond, 16, 1e-16)
    jumps = {(j.site, j.channel): j for j in build_jump_ops(p)}
    tj.apply_jump(st, jumps[(1, "+")], 16, 1e-16)
    assert mps.bond_entropy(st, 1) == pytest.approx(1.0, abs=1e-3)
    # dense cross-check with the exact propagator
    psi = np.zeros(16, dtype=complex)
    psi[0b1010] = 1.0  # |down up down up>, bit 1 = down
    ham = oracle.xxz_hamiltonian(p, 4)
    evals, evecs = np.linalg.eigh(ham)
    psi = evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi))
    psi = oracle.site_operator(np.array([[0, 1], [0, 0]]), 1, 4) @ psi
    psi /= np.linalg.norm(psi)
    assert oracle.dense_pure_entropy(psi, 2) == pytest.approx(1.0, abs=1e-3)


def test_zero_rate_limit_equals_closed_evolution():
    p = ModelParams(n_sites=4)
    cfg = config(params=p, t_max=1.0, dt=0.02)
    tr = tj.run_trajectory(cfg)
    assert tr.jump_log == []
    ham = oracle.xxz_hamiltonian(p, 4)
    evals, evecs = np.linalg.eigh(ham)
    psi = evecs @ (np.exp(-1j * evals * 1.0) * (evecs.conj().T @ oracle.neel_vector(4)))
    assert np.max(np.abs(tr.sz[-1] - oracle.dense_sz_pure(psi))) <= 5e-4
    assert tr.s_center[-1] == pytest.approx(oracle.dense_pure_entropy(psi, 2), abs=5e-4)
    mirror = config(params=p, t_max=1.0, dt=0.02, dt_obs=0.2,
                    scheme="per-step-conditional")
    jump_log, _, sz = tj.run_dense_conditional(mirror)
    assert jump_log == []
    assert np.max(np.abs(sz[-1] - oracle.dense_sz_pure(psi))) <= 5e-4


def test_conditional_grid_must_divide_the_record_step():
    p = ModelParams(n_sites=4, gamma_minus=0.5)
    cfg = config(params=p, dt=0.02, scheme="per-step-conditional")   # 0.25 / 0.02
    with pytest.raises(ValueError, match="dt_obs"):
        tj.run_trajectory(cfg)
    with pytest.raises(ValueError, match="dt_obs"):
        tj.run_dense_conditional(cfg)


def test_trajectory_determinism():
    p = ModelParams(n_sites=4, gamma_plus=0.8, gamma_minus=0.8)
    cfg = config(params=p, t_max=2.0, seed=42)
    a = tj.run_trajectory(cfg, 3)
    b = tj.run_trajectory(cfg, 3)
    assert a.jump_log == b.jump_log
    assert np.array_equal(a.sz, b.sz)
    assert np.array_equal(a.bond_entropies, b.bond_entropies)
    c = tj.run_trajectory(cfg, 4)
    assert c.jump_log != a.jump_log  # distinct substreams


def test_dephasing_jumps_keep_entropy_continuous():
    p = ModelParams(n_sites=6, gamma_z=2.0)
    cfg = tj.TrajectoryConfig(params=p, chi=32, cutoff=1e-12, dt_obs=0.2,
                              t_max=2.0, seed=9, dt=0.05)
    tr = tj.run_trajectory(cfg)
    assert len(tr.jump_log) > 0
    # entropy course stays smooth: no sawtooth resets on the grid
    diffs = np.abs(np.diff(tr.s_bond_avg))
    assert np.max(diffs) <= 0.5


def test_scheme_b_jump_log_matches_dense_mirror():
    p = ModelParams(n_sites=4, gamma_plus=0.3, gamma_minus=0.9)
    cfg = tj.TrajectoryConfig(params=p, chi=16, cutoff=1e-12, dt_obs=0.2,
                              t_max=2.0, seed=21, dt=0.02,
                              scheme="per-step-conditional")
    for idx in range(3):
        tr = tj.run_trajectory(cfg, idx)
        jl, _, sz = tj.run_dense_conditional(cfg, idx)
        assert tr.jump_log == jl
        assert np.max(np.abs(tr.sz - sz)) <= 1e-10


def test_conditional_scheme_canonicalizes_once_per_step(monkeypatch):
    calls = []
    canonicalize_chain = kernels.canonicalize_chain

    def counted(chain, chi, cutoff, site=None):
        calls.append(site)
        return canonicalize_chain(chain, chi, cutoff, site)

    monkeypatch.setattr(kernels, "canonicalize_chain", counted)
    p = ModelParams(n_sites=6, gamma_plus=1.0, gamma_minus=2.0, gamma_z=0.5)
    cfg = tj.TrajectoryConfig(params=p, chi=16, cutoff=1e-10, dt_obs=0.25,
                              t_max=0.5, seed=3, dt=0.05,
                              scheme="per-step-conditional")
    tr = tj.run_trajectory(cfg)
    assert any(ch in "+-" for _, _, ch in tr.jump_log)
    assert calls == [None] * 10


@pytest.mark.parametrize("path", ["mps", "dense"])
def test_annihilating_conditional_step_raises(path):
    # trajectory 602: at t=0.85 sigma- fires at sites 3 and 4 with one up
    # spin left, so the second jump finds nothing to lower
    p = ModelParams(n_sites=6, gamma_plus=1.0, gamma_minus=2.0, gamma_z=0.5)
    cfg = tj.TrajectoryConfig(params=p, dt_obs=0.05, t_max=1.0, seed=11,
                              dt=0.05, scheme="per-step-conditional")
    run = tj.run_trajectory if path == "mps" else tj.run_dense_conditional
    with pytest.raises(FloatingPointError,
                       match=r"t=0\.85 .*- at site 3, channel - at site 4"):
        run(cfg, 602)
    run(cfg, 601)   # a healthy trajectory of the same ensemble runs through


def test_scheme_b_ensemble_matches_lindblad():
    p = ModelParams(n_sites=4, gamma_plus=0.0, gamma_minus=0.6)
    cfg = tj.TrajectoryConfig(params=p, chi=16, cutoff=1e-12, dt_obs=0.5,
                              t_max=1.5, seed=5, dt=0.01,
                              scheme="per-step-conditional")
    runs = tj.run_ensemble(cfg, 400)
    stats_ = tj.ensemble_stats(runs)
    _, rhos = oracle.dense_lindblad_evolve(oracle.neel_rho(4), p, 0.5, 1.5)
    for k in (1, 2, 3):
        want = oracle.dense_sz(rhos[k])
        err = np.abs(stats_.sz_mean[k] - want)
        bound = 3.0 * stats_.sz_stderr[k] + 0.05 * cfg.dt + 1e-3
        assert np.all(err <= bound), (k, err, bound)


def run_capturing_state(monkeypatch, cfg, labeller):
    """Run cfg with mps.label_charges replaced by ``labeller``; (trace, state)."""
    seen = []

    def capture(state):
        seen.append(state)
        return labeller(state)

    monkeypatch.setattr(mps, "label_charges", capture)
    tr = tj.run_trajectory(cfg)
    return tr, seen[0]


def test_exact_scheme_labels_match_the_unlabelled_run(monkeypatch):
    p = ModelParams(n_sites=10, gamma_plus=0.3, gamma_minus=0.3)
    cfg = tj.TrajectoryConfig(params=p, chi=64, cutoff=0.0, dt_obs=0.25,
                              t_max=2.0, seed=1, dt=0.05)
    tr, st = run_capturing_state(monkeypatch, cfg, mps.label_charges)
    plain_tr, plain = run_capturing_state(monkeypatch, cfg, lambda s: s)
    assert st.charges is not None and plain.charges is None
    assert {ch for _, _, ch in tr.jump_log} == {"+", "-"}
    assert tr.jump_log == plain_tr.jump_log
    assert np.max(np.abs(tr.sz - plain_tr.sz)) <= 1e-10
    assert np.max(np.abs(tr.bond_entropies - plain_tr.bond_entropies)) <= 1e-10
    assert np.max(np.abs(tr.s_center - plain_tr.s_center)) <= 1e-10
    # every Gamma entry outside its sector q_left + s = q_right is exactly 0
    edges = [np.zeros(1, dtype=np.int64)] + st.charges + \
        [np.array([st.total_charge])]
    for k, gam in enumerate(st.tensors):
        off = (edges[k][:, None, None] + np.arange(2)[None, :, None]
               != edges[k + 1][None, None, :])
        assert off.any()
        assert np.all(gam[off] == 0.0)
    assert abs(st.total_charge - np.sum(1.0 - tr.sz[-1]) / 2) <= 1e-10


def test_exact_scheme_requires_balanced_rates():
    p = ModelParams(n_sites=4, gamma_plus=0.1, gamma_minus=0.4)
    with pytest.raises(ValueError):
        config(params=p).validate()


def test_jump_counts_poisson():
    n, gamma, t_max = 4, 1.0, 1.0
    p = ModelParams(n_sites=n, gamma_z=gamma)
    cfg = tj.TrajectoryConfig(params=p, chi=8, cutoff=1e-10, dt_obs=1.0,
                              t_max=t_max, seed=100, dt=0.25)
    counts = np.array([len(tj.run_trajectory(cfg, k).jump_log)
                       for k in range(1000)])
    lam = n * gamma * t_max
    kmax = int(stats.poisson.ppf(0.999, lam))
    edges = np.arange(kmax + 2)
    observed = np.array([(counts == k).sum() for k in edges[:-1]], dtype=float)
    observed[-1] += (counts > kmax).sum()
    expected = stats.poisson.pmf(edges[:-1], lam) * len(counts)
    expected[-1] = len(counts) - expected[:-1].sum()
    keep = expected > 5
    res = stats.chisquare(observed[keep], expected[keep] * observed[keep].sum()
                          / expected[keep].sum())
    assert res.pvalue > 0.01, (observed, expected, res)


def test_ensemble_stats_examples():
    p = ModelParams(n_sites=4, gamma_z=1.0)
    cfg = config(params=p, t_max=0.5, dt_obs=0.25)
    tr = tj.run_trajectory(cfg, 0)
    same = tj.ensemble_stats([tr, tr, tr])
    assert np.allclose(same.std, 0.0)
    assert np.allclose(same.mean, tr.s_bond_avg)

    a = tj.run_trajectory(cfg, 0)
    b = tj.run_trajectory(cfg, 0)
    a.s_bond_avg = np.zeros_like(a.s_bond_avg)
    b.s_bond_avg = np.ones_like(b.s_bond_avg)
    st2 = tj.ensemble_stats([a, b])
    assert np.allclose(st2.mean, 0.5)
    assert np.allclose(st2.std, np.sqrt(0.5))
    assert np.allclose(st2.stderr, np.sqrt(0.5) / np.sqrt(2))

    bad = tj.run_trajectory(config(params=p, t_max=0.5, dt_obs=0.5), 0)
    with pytest.raises(ValueError):
        tj.ensemble_stats([tr, bad])
    with pytest.raises(ValueError):
        tj.ensemble_stats([tr])


def test_bond_window_and_averaging(caplog):
    assert tj.bond_window(40) == list(range(14, 25))
    assert tj.bond_window(12) == list(range(0, 11))
    with caplog.at_level(logging.WARNING):
        win = tj.bond_window(6)
    assert win == [2]
    assert any("too short" in r.message for r in caplog.records)

    p = ModelParams(n_sites=12, gamma_z=0.5)
    tr = tj.run_trajectory(config(params=p, t_max=0.25, dt_obs=0.25, chi=16), 0)
    assert np.allclose(tr.s_bond_avg, tr.bond_entropies.mean(axis=1))
    assert tr.s_bond_avg[0] == pytest.approx(0.0)


def test_run_ensemble_parallel_matches_serial():
    p = ModelParams(n_sites=4, gamma_plus=0.5, gamma_minus=0.5)
    cfg = config(params=p, t_max=1.0, seed=77)
    serial = tj.run_ensemble(cfg, 4, workers=1)
    parallel = tj.run_ensemble(cfg, 4, workers=2)
    for a, b in zip(serial, parallel):
        assert a.jump_log == b.jump_log
        assert np.array_equal(a.sz, b.sz)
        assert np.array_equal(a.bond_entropies, b.bond_entropies)
