import numpy as np
import pytest
from scipy import stats

from openchain import oracle, trajectories as tj
from openchain.models import ModelParams


def test_neel_vector_and_rho():
    psi = oracle.neel_vector(4)
    assert np.vdot(psi, psi) == pytest.approx(1.0)
    assert np.allclose(oracle.dense_sz_pure(psi), [1, -1, 1, -1])
    rho = oracle.neel_rho(4)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.max(np.abs(rho - rho.conj().T)) == 0.0


def test_single_spin_decay():
    # start |up>, emission only: <sz>(t) = 2 exp(-gamma t) - 1
    p = ModelParams(j=0.0, delta=0.0, gamma_minus=0.8)
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    times, rhos = oracle.dense_lindblad_evolve(rho0, p, 0.5, 2.0)
    got = np.array([oracle.dense_sz(r, 1)[0] for r in rhos])
    want = 2.0 * np.exp(-0.8 * times) - 1.0
    assert np.max(np.abs(got - want)) <= 1e-8


def test_dephasing_keeps_populations():
    p = ModelParams(j=0.0, delta=0.0, gamma_z=2.0)
    rho0 = oracle.neel_rho(2)
    _, rhos = oracle.dense_lindblad_evolve(rho0, p, 1.0, 2.0)
    assert np.max(np.abs(oracle.dense_sz(rhos[-1]) - [1, -1])) <= 1e-9


def test_balanced_rates_reach_maximally_mixed():
    p = ModelParams(n_sites=2, gamma_plus=1.0, gamma_minus=1.0)
    _, rhos = oracle.dense_lindblad_evolve(oracle.neel_rho(2), p, 2.0, 10.0)
    assert np.max(np.abs(rhos[-1] - np.eye(4) / 4)) <= 1e-7
    assert oracle.dense_oe(rhos[-1], 1) <= 1e-6


def test_entropy_examples():
    assert oracle.dense_oe(np.eye(8) / 8, 1) == pytest.approx(0.0, abs=1e-12)
    psi = oracle.neel_vector(4)
    assert oracle.dense_pure_entropy(psi, 2) == pytest.approx(0.0, abs=1e-12)
    assert oracle.dense_oe(oracle.neel_rho(4), 2) == pytest.approx(0.0, abs=1e-12)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    assert oracle.dense_pure_entropy(bell, 1) == pytest.approx(1.0)
    assert oracle.dense_oe(np.outer(bell, bell.conj()), 1) == pytest.approx(2.0)


def test_caps_enforced():
    with pytest.raises(oracle.OracleError):
        oracle.dense_lindblad_evolve(np.eye(2 ** 9) / 2 ** 9,
                                     ModelParams(gamma_z=1.0), 0.1, 0.1)
    with pytest.raises(ValueError):
        tj.run_dense_conditional(tj.TrajectoryConfig(
            params=ModelParams(n_sites=12, gamma_z=1.0), t_max=0.1, dt=0.1,
            scheme="per-step-conditional"))


def test_trace_drift_abort():
    # an absurdly coarse accepted step makes RK4 blow up -> drift abort
    p = ModelParams(n_sites=2, gamma_plus=5.0, gamma_minus=5.0)
    with pytest.raises(oracle.OracleError, match="trace drift"):
        oracle.dense_lindblad_evolve(oracle.neel_rho(2), p, 50.0, 50.0,
                                     tol=1e30, max_doublings=1)


def test_trajectory_ensemble_matches_lindblad():
    # the dense mirror's ensemble mean at small size reproduces the oracle
    n = 2
    p = ModelParams(n_sites=n, gamma_plus=0.4, gamma_minus=0.4)
    dt, t_max, n_traj = 0.02, 1.0, 3000
    cfg = tj.TrajectoryConfig(params=p, dt_obs=t_max, t_max=t_max, dt=dt,
                              seed=7, scheme="per-step-conditional")
    acc = np.zeros(n)
    for k in range(n_traj):
        _, _, sz = tj.run_dense_conditional(cfg, k)
        acc += sz[-1]
    mean = acc / n_traj
    _, rhos = oracle.dense_lindblad_evolve(oracle.neel_rho(n), p, t_max, t_max)
    want = oracle.dense_sz(rhos[-1])
    sigma = 1.0 / np.sqrt(n_traj)  # sz per trajectory is bounded by 1
    assert np.max(np.abs(mean - want)) <= 3 * sigma + 0.05 * dt


def test_interjump_times_are_exponential():
    # with H=0 the mirror's jump record follows the analytic rate N*gamma;
    # KS-test the waiting times
    n, gamma, dt, n_steps = 2, 1.0, 0.002, 200000
    p = ModelParams(n_sites=n, j=0.0, delta=0.0, gamma_plus=gamma, gamma_minus=gamma)
    cfg = tj.TrajectoryConfig(params=p, dt_obs=n_steps * dt, t_max=n_steps * dt,
                              dt=dt, seed=0, scheme="per-step-conditional")
    jump_log, _, _ = tj.run_dense_conditional(cfg)
    waits = np.diff([0.0] + [t for t, _, _ in jump_log])[:1500]
    res = stats.kstest(waits, "expon", args=(0.0, 1.0 / (n * gamma)))
    assert res.pvalue > 0.01, (len(waits), res)
