"""Dense brute-force reference: exact Lindblad integration and entropies.

Everything here works on full 2^n state vectors or 2^n x 2^n density
matrices and is the ground truth for the matrix-product engines at small n.
Density-matrix evolution is capped at n=8, and pure states at n=10
(``MAX_PURE_SITES``, enforced by the trajectory mirror) to keep reference
runs fast. Single-site <sz> is read from the computational-basis
populations (diag rho, |psi|^2). There is no trajectory stepper here: the
one dense trajectory code is ``trajectories.run_dense_conditional``.
"""

import numpy as np

from .models import ModelParams, _jump_channels, two_site_hamiltonian

__all__ = [
    "OracleError",
    "MAX_RHO_SITES", "MAX_PURE_SITES",
    "site_operator", "xxz_hamiltonian", "dense_jump_ops",
    "neel_vector", "neel_rho",
    "lindblad_rhs", "dense_lindblad_evolve",
    "dense_oe", "dense_pure_entropy", "dense_sz", "dense_sz_pure",
    "apply_two_site_dense",
]

MAX_RHO_SITES = 8
MAX_PURE_SITES = 10


class OracleError(RuntimeError):
    pass


def site_operator(op, site, n):
    """Embed a single-site operator at ``site`` into the n-site space."""
    left = np.eye(2 ** site)
    right = np.eye(2 ** (n - site - 1))
    return np.kron(np.kron(left, op), right)


def xxz_hamiltonian(p: ModelParams, n=None):
    n = p.n_sites if n is None else n
    h2 = two_site_hamiltonian(p)
    dim = 2 ** n
    ham = np.zeros((dim, dim), dtype=complex)
    for b in range(n - 1):
        left = np.eye(2 ** b)
        right = np.eye(2 ** (n - b - 2))
        ham += np.kron(np.kron(left, h2), right)
    return ham


def dense_jump_ops(p: ModelParams, n=None):
    """Dense jump operators, site-major, channel order (+, -, z)."""
    n = p.n_sites if n is None else n
    channels = _jump_channels(p)
    return [site_operator(m, i, n) for i in range(n) for _, m, _ in channels]


def neel_vector(n):
    psi = np.zeros(2 ** n, dtype=complex)
    # up on even sites (0-based), down on odd: bit 1 = down, site 0 most significant
    idx = 0
    for site in range(n):
        if site % 2 == 1:
            idx |= 1 << (n - site - 1)
    psi[idx] = 1.0
    return psi


def neel_rho(n):
    psi = neel_vector(n)
    return np.outer(psi, psi.conj())


def lindblad_rhs(rho, ham, jumps):
    out = -1j * (ham @ rho - rho @ ham)
    for l in jumps:
        ldag_l = l.conj().T @ l
        out += l @ rho @ l.conj().T - 0.5 * (ldag_l @ rho + rho @ ldag_l)
    return out


def _rk4_segment(rho, ham, jumps, dt, steps):
    for _ in range(steps):
        k1 = lindblad_rhs(rho, ham, jumps)
        k2 = lindblad_rhs(rho + 0.5 * dt * k1, ham, jumps)
        k3 = lindblad_rhs(rho + 0.5 * dt * k2, ham, jumps)
        k4 = lindblad_rhs(rho + dt * k3, ham, jumps)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def dense_lindblad_evolve(rho0, p: ModelParams, dt_record, t_max, tol=1e-9,
                          max_doublings=16):
    """Fixed-step RK4 with step halving until segments agree to ``tol``.

    Returns (times, [rho at each time]) on the recording grid, including t=0.
    Aborts if the trace drifts by more than 1e-7.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    n = int(round(np.log2(rho0.shape[0])))
    if n > MAX_RHO_SITES:
        raise OracleError(f"density-matrix oracle capped at {MAX_RHO_SITES} sites, got {n}")
    ham = xxz_hamiltonian(p, n)
    jumps = dense_jump_ops(p, n)
    n_rec = int(round(t_max / dt_record))
    times = [0.0]
    rhos = [rho0.copy()]
    rho = rho0.copy()
    steps = 1
    for k in range(n_rec):
        coarse = _rk4_segment(rho, ham, jumps, dt_record / steps, steps)
        for _ in range(max_doublings):
            fine = _rk4_segment(rho, ham, jumps, dt_record / (2 * steps), 2 * steps)
            err = float(np.max(np.abs(fine - coarse)))
            coarse = fine
            steps *= 2
            if err < tol:
                break
        else:
            raise OracleError(f"RK4 did not reach tol={tol} within {max_doublings} doublings")
        rho = coarse
        # back off so the next segment can re-adapt cheaply
        steps = max(1, steps // 2)
        drift = abs(np.trace(rho).real - np.trace(rho0).real)
        if not np.isfinite(drift) or drift > 1e-7:
            raise OracleError(f"trace drift {drift:.2e} at t={dt_record * (k + 1):.3f}")
        times.append(dt_record * (k + 1))
        rhos.append(rho.copy())
    return np.array(times), rhos


def _entropy_bits(p):
    p = p[p > 1e-300]
    return float(-np.sum(p * np.log2(p)))


def dense_pure_entropy(psi, cut):
    """Bipartite entanglement entropy (bits) of |psi> across ``cut`` sites."""
    psi = np.asarray(psi)
    n = int(round(np.log2(psi.size)))
    m = psi.reshape(2 ** cut, 2 ** (n - cut))
    s = np.linalg.svd(m, compute_uv=False)
    p = s ** 2
    p = p / p.sum()
    return _entropy_bits(p)


def dense_oe(rho, cut):
    """Operator entanglement of rho across ``cut``: Schmidt entropy of the
    vectorized density matrix, in bits."""
    rho = np.asarray(rho)
    n = int(round(np.log2(rho.shape[0])))
    dl, dr = 2 ** cut, 2 ** (n - cut)
    m = rho.reshape(dl, dr, dl, dr).transpose(0, 2, 1, 3).reshape(dl * dl, dr * dr)
    s = np.linalg.svd(m, compute_uv=False)
    p = s ** 2
    p = p / p.sum()
    return _entropy_bits(p)


def _sz_from_populations(pops, n):
    """<sz_i> of every site from the 2^n basis populations; site 0 is the
    most significant bit and bit 0 is spin up."""
    out = np.empty(n)
    for i in range(n):
        up, down = pops.reshape(2 ** i, 2, -1).sum(axis=(0, 2))
        out[i] = up - down
    return out


def dense_sz(rho, n=None):
    rho = np.asarray(rho)
    n = int(round(np.log2(rho.shape[0]))) if n is None else n
    return _sz_from_populations(np.diagonal(rho).real, n)


def dense_sz_pure(psi, n=None):
    psi = np.asarray(psi)
    n = int(round(np.log2(psi.size))) if n is None else n
    pops = np.abs(psi) ** 2
    return _sz_from_populations(pops, n) / pops.sum()


def apply_two_site_dense(psi, gate4, bond, n):
    """Apply a 4x4 two-site gate at (bond, bond+1) to a dense state vector."""
    shape = (2 ** bond, 4, 2 ** (n - bond - 2))
    th = psi.reshape(shape)
    th = np.einsum("st,atb->asb", gate4, th)
    return th.reshape(-1)
