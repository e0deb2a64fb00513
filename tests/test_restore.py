"""Gate-free restores (``kernels.canonicalize_chain``) against the dense state:
unlabelled, U(1) and Z2 chains, pure states and MPDOs in both operator bases."""

import numpy as np
import pytest

from openchain import kernels, mpdo, mps
from openchain.models import linearized_basis, pauli_basis

N = 6


def mps_chain(labelled):
    st = mps.neel_mps(N)
    return mps.label_charges(st) if labelled else st


def mpdo_chain(basis, labelled):
    st = mpdo.neel_mpdo(N, basis)
    if not labelled:
        st.charges = None
    return st


CHAINS = {
    "mps-plain": lambda: mps_chain(False),
    "mps-u1": lambda: mps_chain(True),
    "mpdo-pauli-plain": lambda: mpdo_chain(pauli_basis(), False),
    "mpdo-pauli-z2": lambda: mpdo_chain(pauli_basis(), True),
    "mpdo-linearized-plain": lambda: mpdo_chain(linearized_basis(), False),
    "mpdo-linearized-z2": lambda: mpdo_chain(linearized_basis(), True),
}
CASES = pytest.mark.parametrize("case", sorted(CHAINS))


def charge_mask(chain, q_l, q_r):
    """True where a charge-conserving map from q_r to q_l may be nonzero."""
    diff = q_l[:, None] - q_r[None, :]
    if chain.modulus is not None:
        diff %= chain.modulus
    return diff == 0


def site_charges(chain):
    """The chain's site charges; zeros on an unlabelled chain."""
    if chain.charges is None:
        return np.zeros(chain.tensors[0].shape[1], dtype=np.int64)
    return chain.site_charge


def random_map(rng, chain, q, scale):
    """1 + scale * (random matrix) on an index of charges q, in the chain's
    dtype, zero between charges when the chain is labelled: not unitary."""
    n = len(q)
    m = rng.standard_normal((n, n))
    if chain.tensors[0].dtype == np.complex128:
        m = m + 1j * rng.standard_normal((n, n))
    if chain.charges is not None:
        m = m * charge_mask(chain, q, q)
    return np.eye(n) + scale * m


def nonunitary_sweeps(chain, rng, n_sweeps=3):
    """Random charge-conserving two-site gates over every bond, at cutoff 0."""
    q = site_charges(chain)
    pair = (q[:, None] + q[None, :]).ravel()
    for _ in range(n_sweeps):
        schedule = [(bond, random_map(rng, chain, pair, 0.6))
                    for bond in range(len(chain.lambdas))]
        kernels.apply_schedule(chain, schedule, 1024, 0.0)
    return chain


def site_op(chain, rng, site):
    """A random non-unitary, charge-conserving op on one site's tensor."""
    op = random_map(rng, chain, site_charges(chain), 0.8)
    chain.tensors[site] = np.einsum("st,atb->asb", op, chain.tensors[site])


def dense(chain):
    return mps.to_dense(chain) * np.exp(chain.log_scale)


def dense_schmidt_values(vec, d, bond):
    m = vec.reshape(d ** (bond + 1), -1) / np.linalg.norm(vec)
    return np.linalg.svd(m, compute_uv=False)


def assert_restored(chain, before):
    """ψ (or ρ) unchanged, λ = dense Schmidt values, canonical, labels kept."""
    after = dense(chain)
    scale = np.linalg.norm(before)
    assert np.max(np.abs(after - before)) <= 1e-12 * scale
    d = chain.tensors[0].shape[1]
    for bond, lam in enumerate(chain.lambdas):
        ref = dense_schmidt_values(before, d, bond)
        assert len(lam) <= len(ref)
        assert np.max(np.abs(lam - ref[:len(lam)])) <= 1e-12
        assert np.max(ref[len(lam):], initial=0.0) <= 1e-12
    assert mps.check_canonical(chain) <= 1e-12
    if chain.charges is None:
        return
    edges = ([np.zeros(1, dtype=np.int64)] + chain.charges
             + [np.full(1, chain.total_charge, dtype=np.int64)])
    for k, gam in enumerate(chain.tensors):
        q_l, q_r = edges[k], edges[k + 1]
        left = (q_l[:, None] + chain.site_charge[None, :]).ravel()
        allowed = charge_mask(chain, left, q_r).reshape(gam.shape)
        assert allowed.any()
        assert np.all(gam[~allowed] == 0.0)
    for q, lam in zip(chain.charges, chain.lambdas):
        assert len(q) == len(lam)


@CASES
def test_full_restore_after_nonunitary_sweeps(case):
    st = nonunitary_sweeps(CHAINS[case](), np.random.default_rng(40))
    before = dense(st)
    assert mps.check_canonical(st) > 1e-3   # the sweeps broke the gauge
    kernels.canonicalize_chain(st, 1024, 0.0)
    assert st.max_restore_trunc_weight <= 1e-12
    assert_restored(st, before)


@CASES
def test_single_site_restore_after_a_site_op(case):
    rng = np.random.default_rng(41)
    base = nonunitary_sweeps(CHAINS[case](), rng)
    kernels.canonicalize_chain(base, 1024, 0.0)
    for site in range(N):
        st = base.copy()
        site_op(st, rng, site)
        before = dense(st)
        kernels.canonicalize_chain(st, 1024, 0.0, site=site)
        assert st.max_restore_trunc_weight <= 1e-12
        assert_restored(st, before)


@CASES
def test_restore_weight_is_the_discarded_norm(case):
    """One truncated bond: the weight is the norm the restore discards."""
    rng = np.random.default_rng(42)
    st = nonunitary_sweeps(CHAINS[case](), rng)
    kernels.canonicalize_chain(st, 1024, 0.0)
    dims = st.bond_dims()
    chi = sorted(dims)[-2]
    assert sum(dim > chi for dim in dims) == 1 and dims[0] <= chi
    # site 0: the first split (bond 0) normalizes the chain, so the weight
    # of the later truncated split is relative to the state's norm
    site_op(st, rng, 0)
    before = dense(st)
    gated = st.max_trunc_weight
    kernels.canonicalize_chain(st, chi, 0.0, site=0)
    tw = st.max_restore_trunc_weight
    assert st.max_bond() == chi
    discarded = np.linalg.norm(before - dense(st)) / np.linalg.norm(before)
    assert tw > 1e-3
    assert abs(tw - discarded) <= 1e-12
    assert st.max_trunc_weight == gated      # a restore is not a gate


@CASES
def test_a_truncating_gate_raises_only_the_gate_maximum(case):
    rng = np.random.default_rng(43)
    st = nonunitary_sweeps(CHAINS[case](), rng)
    assert st.max_restore_trunc_weight == 0.0
    gated = st.max_trunc_weight
    assert st.bond_dims()[2] > 2
    q = site_charges(st)
    gate = random_map(rng, st, (q[:, None] + q[None, :]).ravel(), 0.6)
    kernels.apply_schedule(st, [(2, gate)], 2, 0.0)
    assert st.bond_dims()[2] == 2
    assert st.max_trunc_weight > max(gated, 1e-3)
    assert st.max_restore_trunc_weight == 0.0


def test_copy_carries_the_truncation_maxima():
    st = nonunitary_sweeps(mps_chain(True), np.random.default_rng(44))
    kernels.apply_schedule(st, [(2, np.eye(4))], 2, 0.0)
    kernels.canonicalize_chain(st, 1, 0.0)
    copy = st.copy()
    assert st.max_trunc_weight > 0.0 and st.max_restore_trunc_weight > 0.0
    assert copy.max_trunc_weight == st.max_trunc_weight
    assert copy.max_restore_trunc_weight == st.max_restore_trunc_weight


def test_periodic_cell_is_not_canonicalized():
    cell = mpdo.neel_mpdo(None)
    with pytest.raises(ValueError, match="reorthogonalize"):
        kernels.canonicalize_chain(cell, 16, 1e-12)
    with pytest.raises(ValueError, match="reorthogonalize"):
        mpdo.canonicalize(cell, 16, 1e-12)
