"""Matrix-product density operator engine.

The vectorized density matrix is a ``kernels.Chain`` with physical
dimension 4 (the operator-basis index) and the chain's ``basis`` set. In the
pauli flavor all tensors are real float64. The represented operator is
exp(log_scale) times the network, so lambda renormalization never loses the
physical trace; the trace itself is pinned back to one after every Trotter
step. All gate application goes through the shared bond kernel; this module
holds the physics: initial states, observables, the Trotter schedule and the
infinite cell's gauge. A finite chain's Tr rho and <sigma^z> are ``trace`` and
``all_sz``; the cell's are read from one eigendecomposition of its trace
transfer matrix (``itebd_fixed_points``, read by ``itebd_renormalize`` and
``itebd_sz``). The operator
entanglement of every bond, finite chain or cell, is ``kernels.entropies``.

Finite chains use gate sweeps over all bonds; the translation-invariant
infinite chain keeps a two-site unit cell (``Chain.cell``) with tensors
(A, B) and bonds lambdas[0] = (A,B) inside the cell, lambdas[1] = (B,A)
between cells, and is periodically re-orthogonalized from the
transfer-operator fixed points. ``reorthogonalize`` splits its gauge cut of
the (B,A) bond with the bond kernel's ``_split_theta`` and its truncation
rule, like every gate, and restores the (A,B) bond by the kernel's one-site
restores, as ``mpdo_from_dense`` restores its whole chain. Nothing here
divides by a lambda, so the cut and the floor live only in the kernel.

Charge labels: the XXZ Hamiltonian and the jumps sigma+, sigma-, sigma-z all
commute with the Z2 map rho -> (prod sz) rho (prod sz), under which every
basis element has a definite parity (``OperatorBasis.parities``: I, Z and the
diagonal matrix units even, X, Y and the off-diagonal units odd). An MPDO
may therefore carry ``charges``: one int array per bond, aligned with
``lambdas``, holding the Z2 parity of the part of the chain left of each bond
index (outer bonds of a finite chain count as 0; on the infinite cell the
(B,A) bond carries the parity left of a cell boundary, which an even cell
keeps the same in every cell). ``product_mpdo`` sets the chain's site
charges to the basis parities and its modulus to 2. Every gate layer,
canonicalization and ``reorthogonalize`` keeps the charges up to date, and
the bond kernel then SVDs the two charge blocks of each theta separately;
``reorthogonalize`` also factors its fixed points per block, so its gauge
cut is a block split as well.
``neel_mpdo`` and ``product_mpdo`` label their bonds, finite chain and cell
alike, when every site has a definite parity and the total is even;
otherwise, and for ``mpdo_from_dense``, ``charges`` is None and the dense
kernel runs (an unlabelled cell is one block).

There is no checkpoint format: no run path saves or resumes a chain.
"""

import numpy as np

from . import kernels
from .models import ModelParams, SZ, build_super_gates, pauli_basis

__all__ = [
    "DegenerateTransferError",
    "product_mpdo", "neel_mpdo", "mpdo_from_dense",
    "canonicalize", "trace", "all_sz", "renormalize_trace",
    "TROTTER4_SEQUENCE", "TROTTER4_LAYERS", "build_trotter4_gates", "trotter4_step",
    "itebd_trotter4_step", "reorthogonalize", "itebd_fixed_points", "itebd_sz",
    "itebd_renormalize",
]


class DegenerateTransferError(RuntimeError):
    """Transfer-operator fixed point did not separate; try a smaller dt."""


def _coeffs(rho2, basis):
    """Expansion coefficients Tr(e_i^dag rho) of a single-site 2x2 operator."""
    c = np.array([np.trace(e.conj().T @ rho2) for e in basis.elements])
    if basis.flavor == "pauli":
        if np.max(np.abs(c.imag)) > 1e-12:
            raise ValueError("pauli coefficients of a non-Hermitian operator")
        return np.ascontiguousarray(c.real)
    return c


def _product_charges(coeffs, parity):
    """Bond labels of a product state, or None without definite even parity."""
    if parity is None:
        return None
    site_q = []
    for c in coeffs:
        odd = set(parity[np.abs(c) > 0.0].tolist())
        if len(odd) != 1:
            return None
        site_q.append(odd.pop())
    left = np.cumsum(site_q) % 2
    if left[-1] != 0:
        return None
    return [np.array([q], dtype=np.int64) for q in left[:-1]]


def product_mpdo(site_rhos, basis):
    """Bond-dimension-1 MPDO from a list of single-site density matrices.

    The bonds are charge-labelled when every site has a definite Z2 parity
    and the total parity is even.
    """
    coeffs = [_coeffs(r, basis) for r in site_rhos]
    tensors = [c.reshape(1, 4, 1) for c in coeffs]
    lambdas = [np.ones(1) for _ in range(len(tensors) - 1)]
    parity = basis.parities()
    return kernels.Chain(tensors, lambdas,
                         charges=_product_charges(coeffs, parity),
                         site_charge=parity, modulus=2, basis=basis)


_UP = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_DOWN = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def neel_mpdo(n, basis=None):
    """Neel product MPDO; n=None gives the infinite two-site unit cell.

    Both are charge-labelled as product_mpdo decides; the cell's (B,A) bond,
    between cells, carries the cell's even total parity, 0.
    """
    basis = pauli_basis() if basis is None else basis
    if n is None:
        state = product_mpdo([_UP, _DOWN], basis)
        state.lambdas = [np.ones(1), np.ones(1)]
        if state.charges is not None:
            state.charges.append(np.zeros(1, dtype=np.int64))
        return state
    if n < 2 or n % 2 != 0:
        raise ValueError(f"Neel state needs an even number of sites, got {n}")
    return product_mpdo([_UP if i % 2 == 0 else _DOWN for i in range(n)], basis)


# mpdo_from_dense's site cap, bond cap (4^4 never cuts) and cutoff
_DENSE_MAX_SITES = 8
_DENSE_CHI = 256
_DENSE_CUTOFF = 1e-14


def mpdo_from_dense(rho, basis):
    """Exact-to-truncation MPDO decomposition of a dense density matrix.

    The coefficients sit on site n//2; the sites before it are identity
    maps that grow the bond to 4^(k+1), the sites after it identity maps
    that shrink it, and every lambda is one. That chain is exact and
    mixed-canonical about site n//2, so ``kernels.canonicalize_chain``
    restores its Vidal form and cuts only at the true Schmidt values.
    """
    rho = np.asarray(rho, dtype=complex)
    n = int(round(np.log2(rho.shape[0])))
    if n > _DENSE_MAX_SITES:
        raise ValueError(
            f"mpdo_from_dense capped at {_DENSE_MAX_SITES} sites, got {n}")
    # fuse (row bit, col bit) per site, then map onto the operator basis
    t = rho.reshape((2,) * (2 * n))
    perm = [x for k in range(n) for x in (k, n + k)]
    t = t.transpose(perm).reshape((4,) * n)
    dual = np.array([[e.conj()[r, c] for (r, c) in
                      ((0, 0), (0, 1), (1, 0), (1, 1))] for e in basis.elements])
    for axis in range(n):
        t = np.tensordot(dual, t, axes=(1, axis))
        t = np.moveaxis(t, 0, axis)
    coefs = t.reshape(-1)
    if basis.flavor == "pauli":
        if np.max(np.abs(coefs.imag)) > 1e-10:
            raise ValueError("pauli coefficients of a non-Hermitian operator")
        coefs = np.ascontiguousarray(coefs.real)
    mid = n // 2
    grow = [np.eye(4 ** (k + 1), dtype=coefs.dtype).reshape(4 ** k, 4, -1)
            for k in range(mid)]
    shrink = [np.eye(4 ** (k + 1), dtype=coefs.dtype).reshape(-1, 4, 4 ** k)
              for k in range(n - mid - 2, -1, -1)]
    tensors = [*grow, coefs.reshape(4 ** mid, 4, -1), *shrink]
    lambdas = [np.ones(t.shape[2]) for t in tensors[:-1]]
    state = kernels.Chain(tensors, lambdas, basis=basis)
    kernels.canonicalize_chain(state, _DENSE_CHI, _DENSE_CUTOFF)
    return state


def canonicalize(state: kernels.Chain, chi, cutoff):
    """Restore a finite chain's canonical form by one-site restores.

    The infinite cell's restore is ``reorthogonalize``; this raises
    ValueError on it.
    """
    kernels.canonicalize_chain(state, chi, cutoff)


def _trace_vector(basis):
    v = np.array([np.trace(e) for e in basis.elements])
    return v.real if basis.flavor == "pauli" else v


def _op_vector(op, basis):
    """Row vector w with Tr(op rho_site) = sum_i w_i r_i for coefficients r."""
    v = np.array([np.trace(np.asarray(op, dtype=complex) @ e)
                  for e in basis.elements])
    return v.real if basis.flavor == "pauli" else v


def _site_matrices(state, vec):
    """Contract each site tensor with a length-4 vector: list of (chi_l, chi_r)."""
    return [np.tensordot(vec, t, axes=(0, 1)) for t in state.tensors]


def trace(state: kernels.Chain):
    """Tr rho of a finite-chain MPDO (includes the tracked scale).

    The product, left to right, of each site's trace matrix with the lambda
    of the bond after it.
    """
    mats = _site_matrices(state, _trace_vector(state.basis))
    acc = mats[0]
    for k in range(1, state.n_sites):
        acc = (acc * state.lambdas[k - 1][None, :]) @ mats[k]
    return float(np.real(acc[0, 0])) * float(np.exp(state.log_scale))


def all_sz(state: kernels.Chain):
    """Tr(sz_i rho) for every site, via prefix/suffix contractions."""
    n = state.n_sites
    tmats = _site_matrices(state, _trace_vector(state.basis))
    wmats = _site_matrices(state, _op_vector(SZ, state.basis))
    prefix = [None] * n
    acc = np.ones((1, 1), dtype=tmats[0].dtype)
    for k in range(n):
        prefix[k] = acc
        step = tmats[k] if k == n - 1 else tmats[k] * state.lambdas[k][None, :]
        acc = acc @ step
    suffix = [None] * n
    acc = np.ones((1, 1), dtype=tmats[0].dtype)
    for k in range(n - 1, -1, -1):
        suffix[k] = acc
        step = tmats[k] if k == 0 else state.lambdas[k - 1][:, None] * tmats[k]
        acc = step @ acc
    scale = float(np.exp(state.log_scale))
    out = np.empty(n)
    for k in range(n):
        out[k] = np.real((prefix[k] @ wmats[k] @ suffix[k])[0, 0]) * scale
    return out


def renormalize_trace(state: kernels.Chain):
    """Shift log_scale so Tr rho = 1 exactly; returns the trace beforehand."""
    t = trace(state)
    if t <= 0.0:
        raise FloatingPointError(f"MPDO trace became non-positive: {t}")
    state.log_scale -= float(np.log(t))
    return t


# Fourth-order sweep sequence: (step multiple of dt/12, transposed flag).
TROTTER4_SEQUENCE = (
    (1, True), (1, False), (1, True), (-2, False), (1, True), (1, True),
    (1, True), (1, True), (1, False), (1, True), (1, False), (1, False),
    (1, False), (1, False), (-2, True), (1, False), (1, True), (1, False),
)


# TROTTER4_SEQUENCE as 25 gate layers (36 before fusion): (parity, multiple of
# dt/12) from the kernels' layer-fusion rule, alternating parity and starting
# with parity 1; fractions 1, 2, -1.
TROTTER4_LAYERS = kernels.fuse_sweeps(TROTTER4_SEQUENCE)
_TROTTER4_FRACTIONS = sorted({frac for _, frac in TROTTER4_LAYERS})


def build_trotter4_gates(p: ModelParams, basis, dt):
    """Per-bond gate tables for the step fractions used by TROTTER4_LAYERS."""
    return {frac: build_super_gates(p, basis, frac * dt / 12.0)
            for frac in _TROTTER4_FRACTIONS}


def _run_trotter4(state: kernels.Chain, gates, n_gates, chi, cutoff):
    """Run TROTTER4_LAYERS; every gate table must hold ``n_gates`` gates."""
    n_bonds = len(state.lambdas)
    tables = {}
    for frac in _TROTTER4_FRACTIONS:
        table = gates[frac]
        if len(table) != n_gates:
            raise ValueError(
                f"gate table for step {frac}*dt/12 has {len(table)} bond gates, "
                f"expected {n_gates}")
        tables[frac] = list(table) * (n_bonds // n_gates)
    layers = [(parity, tables[frac]) for parity, frac in TROTTER4_LAYERS]
    kernels.apply_schedule(
        state, kernels.layer_schedule(layers, n_bonds), chi, cutoff)


def trotter4_step(state: kernels.Chain, gates, chi, cutoff):
    """One step dt of the fourth-order decomposition on a finite chain.

    Runs the 25 fused layers of TROTTER4_LAYERS through the shared schedule
    executor. ``gates`` comes from build_trotter4_gates for the same chain
    and holds one gate per bond.
    """
    _run_trotter4(state, gates, len(state.lambdas), chi, cutoff)


# ----------------------------------------------------------------------------
# infinite chain (two-site unit cell)
# ----------------------------------------------------------------------------

def itebd_trotter4_step(state: kernels.Chain, gates, chi, cutoff):
    """Fourth-order step on the unit cell.

    Runs TROTTER4_LAYERS with parity = cell bond (0 = (A,B), 1 = (B,A)).
    ``gates`` holds the bulk tables of an infinite chain, one gate each.
    """
    _run_trotter4(state, gates, 1, chi, cutoff)


# power iteration of the transfer fixed points: tolerance and iteration cap
_TRANSFER_TOL = 1e-10
_TRANSFER_MAX_ITER = 4000


def _transfer_fixed_point(mats, tol, max_iter):
    """Dominant fixed point of X -> sum_s M_s X M_s^dag by power iteration."""
    chi = mats.shape[1]
    stacked = mats.reshape(-1, chi)              # (s*chi, chi)
    adj = mats.conj().transpose(0, 2, 1).reshape(-1, chi)   # M_s^dag stacked
    x = np.eye(chi, dtype=mats.dtype) / chi
    eta = 1.0
    for _ in range(max_iter):
        y = (stacked @ x).reshape(-1, chi, chi)  # M_s X
        y = y.transpose(1, 0, 2).reshape(chi, -1) @ adj
        y = 0.5 * (y + y.conj().T)
        eta = float(np.trace(y).real)
        if eta <= 0.0:
            raise DegenerateTransferError("non-positive transfer fixed point")
        y = y / eta
        delta = float(np.max(np.abs(y - x)))
        x = y
        if delta < tol:
            return x, eta
    raise DegenerateTransferError(
        "transfer-operator power iteration did not converge "
        f"(last delta {delta:.2e}); the leading eigenvalue may be degenerate - "
        "try a smaller time step or re-orthogonalize more often")


def _psd_factor(v, blocks, floor=1e-14):
    """v = x x^dag from the eigh of each charge block: (x, x^+, kept columns).

    Block ``idx``'s eigenvectors fill columns ``idx`` of u, so each column
    keeps the charge of its bond index. Directions at or below ``floor``
    times the largest eigenvalue are dropped; x = u sqrt(w) and
    x^+ = w^(-1/2) u^dag on the kept columns.
    """
    w = np.empty(len(v))
    u = np.zeros_like(v)
    for idx in blocks:
        b = v[np.ix_(idx, idx)]
        w[idx], u[np.ix_(idx, idx)] = np.linalg.eigh(0.5 * (b + b.conj().T))
    keep = np.flatnonzero(w > floor * w.max())
    u, s = u[:, keep], np.sqrt(w[keep])
    return u * s[None, :], (1.0 / s)[:, None] * u.conj().T, keep


def _charge_blocks(v_r, v_l, q):
    """Indices of each non-empty charge block of the (B,A) bond.

    An unlabelled bond (``q`` None) is one block. A labelled one raises
    DegenerateTransferError if either fixed point has an off-block entry
    above OFF_BLOCK_TOL times its largest entry.
    """
    if q is None:
        return [np.arange(len(v_r))]
    for side, v in (("right", v_r), ("left", v_l)):
        off, scale = kernels._off_block(v, q)
        if off > kernels.OFF_BLOCK_TOL * scale:
            raise DegenerateTransferError(
                f"{side} transfer fixed point couples Z2 charge sectors of a "
                f"labelled cell: largest off-block entry {off:.3e} "
                f"(max |entry| {scale:.3e})")
    return [idx for idx in (np.flatnonzero(q == g) for g in (0, 1)) if idx.size]


def reorthogonalize(state: kernels.Chain, chi, cutoff):
    """Restore the canonical form of the infinite unit cell.

    Each split raises ``max_restore_trunc_weight`` to its weight over the
    norm of the matrix it splits. Fuses the cell C (chi, 16, chi) across
    the outer (B,A) bond for its left/right transfer fixed points (each
    power-iteration step is two matmuls) and gauges that bond from them.

    The gauge cut is the kernel's split: with the fixed points factored
    as v_r = x x^dag and v_l = y y^dag, ``kernels._split_theta`` splits
    y^dag lambda x = U lambda_new V^dag (physical dimension 1) by the one
    truncation rule, and P = (y^+)^dag U, Q = V^dag x^+ gauge the site
    tensors, Gamma_A <- Q Gamma_A and Gamma_B <- Gamma_B P, at O(4 chi^3)
    each. The inner (A,B) bond is then restored by two one-site pushes
    (Schollwoeck, Ann. Phys. 326, 96 (2011)): an exact push right makes
    lambda_BA Gamma_A an isometry U', so theta = U' m_2, and the left push's
    split of m_2 is the split of theta by the one truncation rule. Both
    pushes add their kept norms to ``log_scale``. The cell's scale is
    arbitrary, so the left push's weight, recorded by the kernel, is
    divided by ||m_2|| = ||theta||; the push itself splits m_2 unscaled.
    On a labelled cell both fixed points are block-diagonal in the (B,A)
    bond's charges, so x and y are factored per charge block, their columns
    carry the block's charge, and the gauge cut runs per block; the pushes
    are the kernel's block splits. The cell keeps its labels. An unlabelled
    cell is one block.
    Raises DegenerateTransferError if power iteration stalls or a labelled
    cell's fixed point couples charge sectors.
    """
    if not state.cell:
        raise ValueError("reorthogonalize applies to infinite states")
    ga, gb = state.tensors
    lam_ab, lam_ba = state.lambdas
    cell = np.tensordot(ga * lam_ab[None, None, :], gb, axes=(2, 0))
    chi_ba = cell.shape[0]
    cell = cell.reshape(chi_ba, 16, chi_ba)

    right_mats = np.ascontiguousarray(
        (cell * lam_ba[None, None, :]).transpose(1, 0, 2))   # (s, chi, chi)
    v_r, _ = _transfer_fixed_point(right_mats, _TRANSFER_TOL, _TRANSFER_MAX_ITER)
    left_mats = np.ascontiguousarray(
        (cell * lam_ba[:, None, None]).transpose(1, 2, 0)).conj()
    v_l, _ = _transfer_fixed_point(left_mats, _TRANSFER_TOL, _TRANSFER_MAX_ITER)

    q_ba = None if state.charges is None else state.charges[1]
    blocks = _charge_blocks(v_r, v_l, q_ba)
    x, x_pinv, cols_x = _psd_factor(v_r, blocks)
    y, y_pinv, cols_y = _psd_factor(v_l, blocks)
    labels = None if q_ba is None else (q_ba[cols_y], np.zeros(1, np.int64),
                                        q_ba[cols_x])
    u, lam_ba_new, vh, kept, gauge_tw, q_ba_new = kernels._split_theta(
        y.conj().T @ (lam_ba[:, None] * x), len(cols_y), 1, len(cols_x),
        chi, cutoff, labels, state.modulus)
    keep = len(lam_ba_new)
    p_mat = y_pinv.conj().T @ u.reshape(-1, keep)
    q_mat = vh.reshape(keep, -1) @ x_pinv
    state.tensors = [(q_mat @ ga.reshape(chi_ba, -1)).reshape(keep, 4, -1),
                     (gb.reshape(-1, chi_ba) @ p_mat).reshape(-1, 4, keep)]
    state.lambdas[1] = lam_ba_new
    if q_ba is not None:
        state.charges[1] = q_ba_new

    # restore the inner bond: an exact push right, then the truncating left
    # push, whose split is that of the two-site theta; the kernel records
    # the push's weight alone, which is then taken over ||m_2||
    kernels.apply_schedule(state, [(0, "right")], len(lam_ab), 0.0)
    lam_ab, lam_ba = state.lambdas
    m_2_norm = np.linalg.norm(
        state.tensors[1] * lam_ab[:, None, None] * lam_ba[None, None, :])
    before, state.max_restore_trunc_weight = state.max_restore_trunc_weight, 0.0
    kernels.apply_schedule(state, [(0, "left")], chi, cutoff)
    state.max_restore_trunc_weight = float(max(
        before, gauge_tw / np.hypot(kept, gauge_tw),
        state.max_restore_trunc_weight / m_2_norm))


def itebd_fixed_points(state: kernels.Chain):
    """(eta, l, r) of the cell's trace transfer matrix, from one eig.

    eta is the leading eigenvalue, Tr rho per cell; with tm = V diag(w) V^-1,
    r is column k of V and l row k of V^-1, so l tm = eta l and l @ r = 1.
    ``itebd_renormalize`` and ``itebd_sz`` read them; a caller that needs
    both passes one result to each.
    """
    ma, mb = _site_matrices(state, _trace_vector(state.basis))
    tm = (ma * state.lambdas[0][None, :]) @ (mb * state.lambdas[1][None, :])
    evals, vecs = np.linalg.eig(tm)
    k = int(np.argmax(np.abs(evals)))
    eta = float(np.real(evals[k]))
    if eta <= 0.0:
        raise FloatingPointError(f"infinite-chain trace eigenvalue {eta}")
    l = np.linalg.solve(vecs.T, np.eye(len(evals))[k])
    return eta, l, vecs[:, k]


def itebd_renormalize(state: kernels.Chain, fixed_points=None):
    """Rescale the cell so the per-cell trace transfer eigenvalue is one.

    Returns that eigenvalue before the rescale; ``fixed_points`` is the
    cell's ``itebd_fixed_points``, computed here if None.
    """
    eta, _, _ = fixed_points or itebd_fixed_points(state)
    state.tensors[0] = state.tensors[0] / np.sqrt(eta)
    state.tensors[1] = state.tensors[1] / np.sqrt(eta)
    return eta


def itebd_sz(state: kernels.Chain, fixed_points=None):
    """(<sz_A>, <sz_B>) of the infinite chain from the trace fixed points.

    ``fixed_points`` is the cell's ``itebd_fixed_points``, computed here if
    None; the reading does not depend on the cell's scale.
    """
    eta, l, r = fixed_points or itebd_fixed_points(state)
    ma, mb = _site_matrices(state, _trace_vector(state.basis))
    wa, wb = _site_matrices(state, _op_vector(SZ, state.basis))
    lam_ab, lam_ba = state.lambdas[0][None, :], state.lambdas[1][None, :]
    za = l @ ((wa * lam_ab) @ (mb * lam_ba)) @ r
    zb = l @ ((ma * lam_ab) @ (wb * lam_ba)) @ r
    return float(np.real(za)) / eta, float(np.real(zb)) / eta
