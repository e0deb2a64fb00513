"""Matrix-product density operator engine.

The vectorized density matrix is stored in Vidal form with physical dimension
4 (the operator-basis index). In the pauli flavor all tensors are real
float64. The represented operator is exp(log_scale) times the network, so
lambda renormalization never loses the physical trace; the trace itself is
pinned back to one after every Trotter step.

Finite chains use gate sweeps over all bonds; the translation-invariant
infinite chain keeps a two-site unit cell with tensors (A, B) and bonds
lambdas[0] = (A,B) inside the cell, lambdas[1] = (B,A) between cells, and is
periodically re-orthogonalized from the transfer-operator fixed points.
``reorthogonalize`` and ``mpdo_from_dense`` split with the bond kernel's
split and truncation rule, like every gate, so the floored division by
lambdas lives only in the kernel.

Charge labels: the XXZ Hamiltonian and the jumps sigma+, sigma-, sigma-z all
commute with the Z2 map rho -> (prod sz) rho (prod sz), under which every
basis element has a definite parity (``OperatorBasis.parities``: I, Z and the
diagonal matrix units even, X, Y and the off-diagonal units odd). An MPDO
may therefore carry ``charges``: one int array per bond, aligned with
``lambdas``, holding the Z2 parity of the part of the chain left of each bond
index (outer bonds of a finite chain count as 0; on the infinite cell the
(B,A) bond carries the parity left of a cell boundary, which an even cell
keeps the same in every cell). Every gate layer, canonicalization, single
gate and ``reorthogonalize`` keeps them up to date, and the bond kernel then
SVDs the two charge blocks of each theta separately; ``reorthogonalize``
also takes its square roots and gauge SVD per block. ``neel_mpdo`` and
``product_mpdo`` label their bonds, finite chain and cell alike, when every
site has a definite parity and the total is even; otherwise, and for
``mpdo_from_dense``, ``charges`` is None and the dense kernel runs (an
unlabelled cell is one block). Checkpoints keep the labels:
``save_checkpoint`` stores one ``charge_<k>`` array per bond of a labelled
chain and ``load_checkpoint`` restores them (a file without them loads
unlabelled).
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .models import ID2, ModelParams, OperatorBasis, SZ, build_super_gates, \
    linearized_basis, pauli_basis

__all__ = [
    "MpdoState", "DegenerateTransferError",
    "product_mpdo", "neel_mpdo", "mpdo_from_dense",
    "apply_super_gate", "canonicalize", "operator_entanglement", "entropies",
    "trace", "local_expectation", "all_sz", "renormalize_trace",
    "TROTTER4_SEQUENCE", "TROTTER4_LAYERS", "build_trotter4_gates", "trotter4_step",
    "itebd_trotter4_step", "reorthogonalize", "itebd_trace_eigenvalue",
    "itebd_sz", "itebd_renormalize",
    "save_checkpoint", "load_checkpoint",
]


class DegenerateTransferError(RuntimeError):
    """Transfer-operator fixed point did not separate; try a smaller dt."""


@dataclass
class MpdoState:
    tensors: list = field(repr=False)   # rank-3 (chi_l, 4, chi_r)
    lambdas: list = field(repr=False)
    basis: OperatorBasis = field(repr=False, default=None)
    log_scale: float = 0.0
    cell: str = "finite"                # "finite" | "infinite"
    # per-bond Z2 labels, aligned with lambdas (finite chain and cell), or None
    charges: list = field(repr=False, default=None)

    @property
    def n_sites(self):
        return len(self.tensors)

    def bond_dims(self):
        return [len(l) for l in self.lambdas]

    def max_bond(self):
        return max(self.bond_dims(), default=1)

    def copy(self):
        return MpdoState(
            tensors=[t.copy() for t in self.tensors],
            lambdas=[l.copy() for l in self.lambdas],
            basis=self.basis, log_scale=self.log_scale, cell=self.cell,
            charges=None if self.charges is None else
            [q.copy() for q in self.charges])

    def _labels(self):
        """The Z2 labels for the bond kernel, or None if unlabelled."""
        if self.charges is None:
            return None
        return kernels.ChainLabels(self.charges, self.basis.parities(), 2)


def _coeffs(rho2, basis):
    """Expansion coefficients Tr(e_i^dag rho) of a single-site 2x2 operator."""
    c = np.array([np.trace(e.conj().T @ rho2) for e in basis.elements])
    if basis.flavor == "pauli":
        if np.max(np.abs(c.imag)) > 1e-12:
            raise ValueError("pauli coefficients of a non-Hermitian operator")
        return np.ascontiguousarray(c.real)
    return c


def _product_charges(coeffs, basis):
    """Bond labels of a product state, or None without definite even parity."""
    parity = basis.parities()
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
    return MpdoState(tensors=tensors, lambdas=lambdas, basis=basis,
                     charges=_product_charges(coeffs, basis))


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
        state.cell = "infinite"
        state.lambdas = [np.ones(1), np.ones(1)]
        if state.charges is not None:
            state.charges.append(np.zeros(1, dtype=np.int64))
        return state
    if n < 2 or n % 2 != 0:
        raise ValueError(f"Neel state needs an even number of sites, got {n}")
    return product_mpdo([_UP if i % 2 == 0 else _DOWN for i in range(n)], basis)


def _dense_to_vidal(vec, d, n, chi, cutoff):
    """Split a dense (d^n,) coefficient vector into Vidal tensors/lambdas.

    Each cut is one bond-kernel split with the previous lambda on the left and
    unit lambdas on the right; the last site's tensor is the last split's
    right tensor.
    """
    tensors, lambdas = [], []
    log_scale = 0.0
    rest = np.asarray(vec)
    gam_r = rest.reshape(1, d, -1)
    lam = np.ones(1)
    for k in range(n - 1):
        dl, dr = len(lam), d ** (n - k - 2)
        gam_l, lam, gam_r, kept, _, _ = kernels._split_theta(
            rest.reshape(dl * d, d * dr), dl, d, dr, lam, np.ones(dr), chi,
            cutoff)
        log_scale += np.log(kept)
        tensors.append(gam_l)
        lambdas.append(lam)
        rest = lam[:, None, None] * gam_r
    tensors.append(gam_r)
    return tensors, lambdas, log_scale


def mpdo_from_dense(rho, basis, chi=256, cutoff=1e-14):
    """Exact-to-truncation MPDO decomposition of a dense density matrix."""
    rho = np.asarray(rho, dtype=complex)
    n = int(round(np.log2(rho.shape[0])))
    if n > 8:
        raise ValueError(f"mpdo_from_dense capped at 8 sites, got {n}")
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
    tensors, lambdas, log_scale = _dense_to_vidal(coefs, 4, n, chi, cutoff)
    return MpdoState(tensors=tensors, lambdas=lambdas, basis=basis,
                     log_scale=log_scale)


def apply_super_gate(state: MpdoState, gate, bond, chi, cutoff):
    """Two-site superoperator gate at ``bond``; returns the truncation weight."""
    ln, tw = kernels.apply_bond_gate(state.tensors, state.lambdas, gate, bond,
                                     chi, cutoff, state._labels())
    state.log_scale += ln
    return tw


def canonicalize(state: MpdoState, chi, cutoff):
    state.log_scale += kernels.canonicalize_chain(
        state.tensors, state.lambdas, chi, cutoff, labels=state._labels())


def operator_entanglement(state: MpdoState, bond):
    return kernels.schmidt_entropy(state.lambdas[bond])


def entropies(state: MpdoState):
    return np.array([kernels.schmidt_entropy(l) for l in state.lambdas])


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


def trace(state: MpdoState):
    """Tr rho of a finite-chain MPDO (includes the tracked scale)."""
    return local_expectation(state, ID2, 0)


def local_expectation(state: MpdoState, op, site):
    """Tr(op_site rho) for a finite chain."""
    tvec = _trace_vector(state.basis)
    mats = _site_matrices(state, tvec)
    mats[site] = np.tensordot(_op_vector(op, state.basis), state.tensors[site],
                              axes=(0, 1))
    acc = mats[0]
    for k in range(1, state.n_sites):
        acc = (acc * state.lambdas[k - 1][None, :]) @ mats[k]
    return float(np.real(acc[0, 0])) * float(np.exp(state.log_scale))


def all_sz(state: MpdoState):
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


def renormalize_trace(state: MpdoState):
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


def _fuse_sweeps(sweeps):
    """Compile (fraction, transposed) sweeps into fused (parity, fraction) layers.

    A normal sweep is the parity-0 layer then the parity-1 layer; a transposed
    sweep is the reverse. Adjacent layers on the same bonds apply
    exp(L_b a) exp(L_b b) with one bond generator L_b, which is exactly
    exp(L_b (a + b)), so they merge into one layer.
    """
    layers = []
    for frac, transposed in sweeps:
        for parity in ((1, 0) if transposed else (0, 1)):
            if layers and layers[-1][0] == parity:
                layers[-1] = (parity, layers[-1][1] + frac)
            else:
                layers.append((parity, frac))
    return tuple(layers)


# TROTTER4_SEQUENCE as 25 gate layers (36 before fusion): (parity, multiple of
# dt/12), alternating parity and starting with parity 1; fractions 1, 2, -1.
TROTTER4_LAYERS = _fuse_sweeps(TROTTER4_SEQUENCE)
_TROTTER4_FRACTIONS = sorted({frac for _, frac in TROTTER4_LAYERS})


def build_trotter4_gates(p: ModelParams, basis, dt):
    """Per-bond gate tables for the step fractions used by TROTTER4_LAYERS."""
    return {frac: build_super_gates(p, basis, frac * dt / 12.0)
            for frac in _TROTTER4_FRACTIONS}


def _run_trotter4(state: MpdoState, gates, n_gates, chi, cutoff):
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
    ln, tw = kernels.apply_layers(state.tensors, state.lambdas, layers, chi,
                                  cutoff, state._labels())
    state.log_scale += ln
    return tw


def trotter4_step(state: MpdoState, gates, chi, cutoff):
    """One step dt of the fourth-order decomposition on a finite chain.

    Runs the 25 fused layers of TROTTER4_LAYERS through the shared layer
    executor; returns the largest truncation weight. ``gates`` comes from
    build_trotter4_gates for the same chain and holds one gate per bond.
    """
    return _run_trotter4(state, gates, len(state.lambdas), chi, cutoff)


# ----------------------------------------------------------------------------
# infinite chain (two-site unit cell)
# ----------------------------------------------------------------------------

def itebd_trotter4_step(state: MpdoState, gates, chi, cutoff):
    """Fourth-order step on the unit cell; returns the largest truncation weight.

    Runs TROTTER4_LAYERS with parity = cell bond (0 = (A,B), 1 = (B,A)).
    ``gates`` holds the bulk tables of an infinite chain, one gate each.
    """
    return _run_trotter4(state, gates, 1, chi, cutoff)


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


def _herm_sqrt(blocks, floor=1e-14):
    """PSD square-root factors of the diagonal blocks of one PSD matrix.

    Returns (f, u, sqrt(w)) per block, with block = f f^dag; eigen-directions
    at or below ``floor`` times the largest eigenvalue of all blocks are
    dropped, as for the whole matrix.
    """
    eigs = [np.linalg.eigh(0.5 * (v + v.conj().T)) for v in blocks]
    top = max(w[-1] for w, _ in eigs)
    out = []
    for w, u in eigs:
        keep = w > floor * top
        out.append((u[:, keep] * np.sqrt(w[keep])[None, :], u[:, keep],
                    np.sqrt(w[keep])))
    return out


def _charge_blocks(v_r, v_l, q):
    """(label, indices) of each non-empty charge block of the (B,A) bond.

    An unlabelled bond (``q`` None) is one block. A labelled one raises
    DegenerateTransferError if either fixed point has an off-block entry
    above OFF_BLOCK_TOL times its largest entry.
    """
    if q is None:
        return [(0, np.arange(len(v_r)))]
    for side, v in (("right", v_r), ("left", v_l)):
        off, scale = kernels._off_block(v, q)
        if off > kernels.OFF_BLOCK_TOL * scale:
            raise DegenerateTransferError(
                f"{side} transfer fixed point couples Z2 charge sectors of a "
                f"labelled cell: largest off-block entry {off:.3e} "
                f"(max |entry| {scale:.3e})")
    blocks = [(g, np.flatnonzero(q == g)) for g in (0, 1)]
    return [(g, idx) for g, idx in blocks if idx.size]


def reorthogonalize(state: MpdoState, chi=None, cutoff=1e-14, tol=1e-10,
                    max_iter=4000):
    """Restore the canonical form of the infinite unit cell.

    Fuses the cell across the outer (B,A) bond, gauges that bond from the
    left/right transfer fixed points, then re-splits the inner bond with the
    bond kernel's split. The gauge Q C P of the fused cell C (chi, 16, chi)
    is two matmuls, (Q @ C.reshape(chi, 16 chi)).reshape(16 chi', chi) @ P,
    at O(16 chi^3); each power-iteration step of a fixed point is likewise
    two matmuls.

    On a labelled cell both fixed points are block-diagonal in the (B,A)
    bond's charges, so the square roots and the gauge SVD run per charge
    block; the block spectra are merged by a stable descending sort and cut
    by the one truncation rule, P and Q are filled block by block, and the
    inner re-split is the kernel's block split. The cell keeps its labels.
    An unlabelled cell is one block.
    Raises ValueError if ``max_iter`` < 1 and DegenerateTransferError if
    power iteration stalls or a labelled cell's fixed point couples charge
    sectors.
    """
    if state.cell != "infinite":
        raise ValueError("reorthogonalize applies to infinite states")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    chi = max(state.max_bond(), 1) if chi is None else chi
    ga, gb = state.tensors
    lam_ab, lam_ba = state.lambdas
    cell = np.tensordot(ga * lam_ab[None, None, :], gb, axes=(2, 0))
    chi_ba = cell.shape[0]
    cell = cell.reshape(chi_ba, 16, chi_ba)

    right_mats = np.ascontiguousarray(
        (cell * lam_ba[None, None, :]).transpose(1, 0, 2))   # (s, chi, chi)
    v_r, eta_r = _transfer_fixed_point(right_mats, tol, max_iter)
    left_mats = np.ascontiguousarray(
        (cell * lam_ba[:, None, None]).transpose(1, 2, 0)).conj()
    v_l, eta_l = _transfer_fixed_point(left_mats, tol, max_iter)

    q_ba = None if state.charges is None else state.charges[1]
    blocks = _charge_blocks(v_r, v_l, q_ba)
    xs = _herm_sqrt([v_r[np.ix_(idx, idx)] for _, idx in blocks])  # v_r = x x^dag
    ys = _herm_sqrt([v_l[np.ix_(idx, idx)] for _, idx in blocks])  # v_l = y^dag y
    svds = [np.linalg.svd(y_f.conj().T @ (lam_ba[idx, None] * x_f))
            for (_, idx), (x_f, _, _), (y_f, _, _) in zip(blocks, xs, ys)]
    s, q = kernels._merge_spectra([b[1] for b in svds],
                                  [g for g, _ in blocks])
    keep = kernels._keep_count(s, chi, cutoff)
    q_ba_new = q[:keep]
    lam_ba_new = s[:keep] / float(np.linalg.norm(s[:keep]))
    # gauge matrices: lambda_old = P lambda_new Q with P = y^+ u, Q = vh x^+;
    # a block's kept values are its leading ones, in order
    p_mat = np.zeros((chi_ba, keep), dtype=cell.dtype)
    q_mat = np.zeros((keep, chi_ba), dtype=cell.dtype)
    for (g, idx), (_, xu, xw), (_, yu, yw), (u, _, vh) in zip(blocks, xs, ys,
                                                              svds):
        pos = np.flatnonzero(q_ba_new == g)
        p_mat[np.ix_(idx, pos)] = (yu * (1.0 / yw)[None, :]) @ u[:, :len(pos)]
        q_mat[np.ix_(pos, idx)] = vh[:len(pos), :] @ ((1.0 / xw)[:, None]
                                                      * xu.conj().T)
    cell_new = (q_mat @ cell.reshape(chi_ba, -1)).reshape(-1, chi_ba) @ p_mat

    # re-split the fused cell at the inner bond
    theta = cell_new.reshape(keep, 4, 4, keep)
    theta = theta * lam_ba_new[:, None, None, None]
    theta = theta * lam_ba_new[None, None, None, :]
    labels = (None if q_ba is None else
              (q_ba_new, state.basis.parities(), q_ba_new))
    ga_new, lam_ab_new, gb_new, _, _, q_ab_new = kernels._split_theta(
        theta.reshape(keep * 4, 4 * keep), keep, 4, keep, lam_ba_new,
        lam_ba_new, chi, cutoff, labels)

    if state.basis.flavor == "pauli":
        for arr in (ga_new, gb_new):
            if np.max(np.abs(np.imag(arr))) > 1e-9:
                raise DegenerateTransferError("re-orthogonalization left the real sector")
        ga_new = np.ascontiguousarray(ga_new.real)
        gb_new = np.ascontiguousarray(gb_new.real)
    state.tensors = [ga_new, gb_new]
    state.lambdas = [lam_ab_new, lam_ba_new]
    if q_ba is not None:
        state.charges = [q_ab_new, q_ba_new]
    return state


def _trace_transfer(state: MpdoState):
    tvec = _trace_vector(state.basis)
    ma, mb = _site_matrices(state, tvec)
    return (ma * state.lambdas[0][None, :]) @ (mb * state.lambdas[1][None, :])


def itebd_trace_eigenvalue(state: MpdoState):
    """Leading eigenvalue of the cell's trace transfer matrix: Tr rho per cell."""
    evals = np.linalg.eigvals(_trace_transfer(state))
    eta = float(np.real(evals[np.argmax(np.abs(evals))]))
    if eta <= 0.0:
        raise FloatingPointError(f"infinite-chain trace eigenvalue {eta}")
    return eta


def itebd_renormalize(state: MpdoState):
    """Rescale the cell so the per-cell trace transfer eigenvalue is one."""
    eta = itebd_trace_eigenvalue(state)
    state.tensors[0] = state.tensors[0] / np.sqrt(eta)
    state.tensors[1] = state.tensors[1] / np.sqrt(eta)
    return eta


def itebd_sz(state: MpdoState):
    """(<sz_A>, <sz_B>) of the infinite chain from the trace fixed points."""
    tm = _trace_transfer(state)
    evals, vr = np.linalg.eig(tm)
    k = int(np.argmax(np.abs(evals)))
    r = vr[:, k]
    evals_l, vl = np.linalg.eig(tm.T)
    kl = int(np.argmax(np.abs(evals_l)))
    l = vl[:, kl]
    norm = l @ (evals[k] * r)
    tvec = _trace_vector(state.basis)
    wvec = _op_vector(SZ, state.basis)
    ma, mb = _site_matrices(state, tvec)
    wa, wb = (np.tensordot(wvec, t, axes=(0, 1)) for t in state.tensors)
    za = l @ ((wa * state.lambdas[0][None, :]) @ (mb * state.lambdas[1][None, :])) @ r
    zb = l @ ((ma * state.lambdas[0][None, :]) @ (wb * state.lambdas[1][None, :])) @ r
    return float(np.real(za / norm)), float(np.real(zb / norm))


# ----------------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------------

def save_checkpoint(path, state: MpdoState, params: ModelParams = None, t=None):
    """Self-describing .npz: tensors, lambdas, basis flavor, params, time.

    A labelled chain also stores its charges, one ``charge_<k>`` per bond.
    """
    meta = {
        "format": "openchain-mpdo-checkpoint",
        "version": 1,
        "cell": state.cell,
        "basis": state.basis.flavor,
        "n_sites": state.n_sites,
        "log_scale": state.log_scale,
        "time": t,
        "params": None if params is None else {
            "j": params.j, "delta": params.delta,
            "gamma_plus": params.gamma_plus, "gamma_minus": params.gamma_minus,
            "gamma_z": params.gamma_z, "n_sites": params.n_sites,
        },
    }
    arrays = {"meta": np.bytes_(json.dumps(meta, sort_keys=True))}
    for k, tsr in enumerate(state.tensors):
        arrays[f"tensor_{k}"] = tsr
    for k, lam in enumerate(state.lambdas):
        arrays[f"lambda_{k}"] = lam
    for k, q in enumerate(state.charges or ()):
        arrays[f"charge_{k}"] = q
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Returns (MpdoState, params dict or None, time or None)."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        tensors = [data[f"tensor_{k}"] for k in range(meta["n_sites"])]
        n_lams = meta["n_sites"] - 1 if meta["cell"] == "finite" else 2
        lambdas = [data[f"lambda_{k}"] for k in range(n_lams)]
        charges = ([data[f"charge_{k}"] for k in range(n_lams)]
                   if "charge_0" in data.files else None)
    basis = pauli_basis() if meta["basis"] == "pauli" else linearized_basis()
    state = MpdoState(tensors=tensors, lambdas=lambdas, basis=basis,
                      log_scale=meta["log_scale"], cell=meta["cell"],
                      charges=charges)
    return state, meta.get("params"), meta.get("time")
