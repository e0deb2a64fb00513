"""Hot numeric kernels for gate layers on matrix-product chains.

The two-site bond update (theta assembly, gate contraction, SVD re-split,
guarded lambda division) dominates runtime for every engine, so it lives here
as one plain numpy kernel. Its split, ``_split_theta``, is the one truncated
SVD of the package and ``_keep_count`` the one truncation rule: the bond
updates, the infinite cell's re-orthogonalization and the dense-to-MPDO
decomposition all split with them. ``perfbench/run.py`` measures end-to-end
runs and, with ``--trace 1``, the time spent in each public function here; its
per-update readings (bond dimension, call counts) come from ``bond_update``
and ``bond_update_nogate``, which return the new lambda at index 1 and the
new bond's charge labels last. Callers reach both through the module
globals, which the tracer rebinds.

Charge labels (Singh, Pfeifer & Vidal, PRB 83, 115125 (2011), with dense
tensors and integer labels): a chain may carry ``charges``, one int array per
bond holding the Z2 parity (0 or 1) of the part of the chain left of each
bond index, and ``site_parity``, the parity of each physical index. Outer
bonds of a finite chain have charge 0. A symmetric state has
Gamma_k[a, s, c] = 0 unless q_a + p_s + q_c is even, so every theta is
block-diagonal: its rows group by (q_l + p_s1) mod 2 and its columns by
(p_s2 + q_r) mod 2. ``_split_theta`` SVDs each block, merges the spectra by
a stable descending sort, applies the one truncation rule
(``_keep_count``) to the merged spectrum and returns the kept values'
groups as the new bond's labels. An unlabelled chain is one group: the SVD
runs on theta itself and the arithmetic is that of a plain dense split.

Sweep conventions (shared by the pure-state and density-operator engines):
bond ``b`` joins sites ``b`` and ``b + 1``. Every gate sweep and Trotter step
runs through one layer executor, ``apply_layers``, which takes a list of
``(parity, per-bond gate table)`` layers and applies ``table[b]`` at each bond
``b`` of that parity. Bonds of one parity share no site, so the order within a
layer does not change the arithmetic. A chain with as many bonds as sites is a
periodic cell (the infinite-chain unit cell): its last bond wraps around to
site 0. A normal sweep is the layer of parity 0 then the layer of parity 1; a
transposed sweep is the reverse, so it is the exact reverse-ordered product of
the normal one.
"""

import numpy as np

__all__ = [
    "JIT_ENABLED",
    "LAMBDA_FLOOR",
    "bond_update",
    "bond_update_nogate",
    "apply_bond_gate",
    "apply_layers",
    "sweep_bond_order",
    "sweep_chain",
    "canonicalize_chain",
    "schmidt_entropy",
]

# Entries of a Schmidt vector at or below this floor are never divided by;
# the corresponding rows/columns are zeroed instead.
LAMBDA_FLOOR = 1e-10

# Read by perfbench/measure.py for its environment stamp; there is no jit lane.
JIT_ENABLED = False


def _keep_count(s, chi_max, cutoff):
    """The one truncation rule: how many leading values of ``s`` to keep.

    ``s`` is sorted descending. Counts the leading s >= cutoff * s[0], caps
    the count at ``chi_max`` and keeps at least one (exactly one if
    s[0] <= 0).
    """
    if s[0] <= 0.0:
        return 1
    keep = int((-s).searchsorted(-cutoff * s[0], side="right"))
    return max(1, min(keep, chi_max, len(s)))


def _split_theta(theta, dl, d, dr, lam_l, lam_r, chi_max, cutoff, labels=None):
    """SVD re-split of a two-site theta, truncating and rebuilding the gammas.

    theta is (dl*d, d*dr). Returns (gam_l, lam_new, gam_r, kept_norm,
    trunc_weight, q_new); the new lambda is normalized and the boundary
    lambdas are divided out of the returned gammas with a floor guard.

    ``labels`` is None or (q_l, parity, q_r): the Z2 charges of the outer
    bonds and of the physical index. Rows then fall into the groups
    (q_l + parity) mod 2 and columns into (parity + q_r) mod 2; theta is zero
    between different groups, so each group is gathered and SVD'd on its own.
    The spectra are merged by a stable descending sort, truncated as one, and
    q_new holds the group of every kept value. Without labels there is one
    group, theta itself, and q_new is None.
    """
    if labels is None:
        u, s, vh = np.linalg.svd(theta, full_matrices=False)
    else:
        q_l, parity, q_r = labels
        row_q = ((q_l[:, None] + parity[None, :]) % 2).ravel()
        col_q = ((parity[:, None] + q_r[None, :]) % 2).ravel()
        rows = [np.flatnonzero(row_q == g) for g in (0, 1)]
        cols = [np.flatnonzero(col_q == g) for g in (0, 1)]
        blocks = [np.linalg.svd(theta.take(r, axis=0).take(c, axis=1),
                                full_matrices=False) for r, c in zip(rows, cols)]
        s = np.concatenate([b[1] for b in blocks])
        q = np.repeat((0, 1), [len(b[1]) for b in blocks])
        order = np.argsort(-s, kind="stable")
        s, q = s[order], q[order]
    keep = _keep_count(s, chi_max, cutoff)
    w2 = 0.0
    for k in range(keep, s.shape[0]):
        w2 += s[k] * s[k]
    kept2 = 0.0
    for k in range(keep):
        kept2 += s[k] * s[k]
    kept = np.sqrt(kept2)
    if kept > 0.0:
        lam_new = s[:keep] / kept
    else:
        lam_new = s[:keep].copy()

    if labels is None:
        u_keep, vh_keep, q_new = u[:, :keep], vh[:keep, :], None
    else:
        # a block's kept values are its leading ones, in order
        q_new = q[:keep]
        u_keep = np.zeros((dl * d, keep), dtype=theta.dtype)
        vh_keep = np.zeros((keep, d * dr), dtype=theta.dtype)
        for g, (u, _, vh) in enumerate(blocks):
            pos = np.flatnonzero(q_new == g)
            u_keep[np.ix_(rows[g], pos)] = u[:, :len(pos)]
            vh_keep[np.ix_(pos, cols[g])] = vh[:len(pos), :]

    inv_l = np.zeros(dl, dtype=np.float64)
    for a in range(dl):
        if lam_l[a] > LAMBDA_FLOOR:
            inv_l[a] = 1.0 / lam_l[a]
    inv_r = np.zeros(dr, dtype=np.float64)
    for b in range(dr):
        if lam_r[b] > LAMBDA_FLOOR:
            inv_r[b] = 1.0 / lam_r[b]

    gam_l = np.ascontiguousarray(u_keep).reshape(dl, d, keep)
    gam_l = gam_l * inv_l.reshape(dl, 1, 1)
    gam_r = np.ascontiguousarray(vh_keep).reshape(keep, d, dr)
    gam_r = gam_r * inv_r.reshape(1, 1, dr)
    return gam_l, lam_new, gam_r, kept, np.sqrt(w2), q_new


def _assemble_theta(lam_l, gam_l, lam_c, gam_r, lam_r):
    """lam_l . gam_l . lam_c . gam_r . lam_r as a (dl*d, d*dr) matrix."""
    dl, d, dc = gam_l.shape
    dr = gam_r.shape[2]
    t1 = gam_l * lam_l.reshape(dl, 1, 1)
    t1 = t1 * lam_c.reshape(1, 1, dc)
    t2 = gam_r * lam_r.reshape(1, 1, dr)
    m1 = np.ascontiguousarray(t1).reshape(dl * d, dc)
    m2 = np.ascontiguousarray(t2).reshape(dc, d * dr)
    return m1 @ m2


def bond_update(lam_l, gam_l, lam_c, gam_r, lam_r, gate, chi_max, cutoff,
                labels=None):
    """Gated two-site update: returns (gam_l, lam, gam_r, kept, tw, q_new)."""
    dl, d, _ = gam_l.shape
    dr = gam_r.shape[2]
    theta = _assemble_theta(lam_l, gam_l, lam_c, gam_r, lam_r)
    # (d*d, d*d) x (d*d, dl*dr)
    th = theta.reshape(dl, d, d, dr)
    th = np.ascontiguousarray(th.transpose(1, 2, 0, 3)).reshape(d * d, dl * dr)
    th = gate @ th
    th = th.reshape(d, d, dl, dr)
    theta = np.ascontiguousarray(th.transpose(2, 0, 1, 3)).reshape(dl * d, d * dr)
    return _split_theta(theta, dl, d, dr, lam_l, lam_r, chi_max, cutoff, labels)


def bond_update_nogate(lam_l, gam_l, lam_c, gam_r, lam_r, chi_max, cutoff,
                       labels=None):
    """Gate-free two-site re-split (canonical-form restores); as bond_update."""
    dl, d, _ = gam_l.shape
    theta = _assemble_theta(lam_l, gam_l, lam_c, gam_r, lam_r)
    return _split_theta(theta, dl, d, gam_r.shape[2], lam_l, lam_r, chi_max,
                        cutoff, labels)


_ONE = np.ones(1, dtype=np.float64)
_ZERO_CHARGE = np.zeros(1, dtype=np.int64)

# A gate entry between different pair-parity sectors larger than this
# fraction of the largest entry would be lost by the block SVD.
OFF_BLOCK_TOL = 1e-12


def _boundary(lambdas, bond, n_sites, edge=_ONE):
    """(right site, left entry, right entry) of a per-bond list around ``bond``.

    A finite chain's ends take ``edge``.
    """
    n_bonds = len(lambdas)
    right = (bond + 1) % n_sites
    if n_bonds == n_sites:   # periodic cell: the outer lambdas wrap around
        return right, lambdas[bond - 1], lambdas[right]
    lam_l = lambdas[bond - 1] if bond > 0 else edge
    lam_r = lambdas[bond + 1] if bond < n_bonds - 1 else edge
    return right, lam_l, lam_r


def _check_gate_sectors(gate, site_parity, bond):
    """Raise ValueError if ``gate`` couples different pair-parity sectors."""
    pair = ((site_parity[:, None] + site_parity[None, :]) % 2).ravel()
    off = np.abs(gate[pair[:, None] != pair[None, :]])
    off_max = float(off.max()) if off.size else 0.0
    scale = float(np.max(np.abs(gate)))
    if off_max > OFF_BLOCK_TOL * scale:
        raise ValueError(
            f"gate at bond {bond} couples Z2 charge sectors of a labelled "
            f"chain: largest off-block entry {off_max:.3e} "
            f"(max |gate| {scale:.3e}); the block SVD would drop it")


def apply_bond_gate(tensors, lambdas, gate, bond, chi_max, cutoff,
                    charges=None, site_parity=None):
    """Apply a two-site gate at ``bond`` in place; returns (log_norm, trunc_weight).

    ``gate`` may be None (identity, used for canonical-form restores). The
    kept norm of the updated bond is divided out of the chain and returned as
    a log so callers can track either discarded norm (trajectories) or the
    overall scale (density operators). A vanishing kept norm raises
    FloatingPointError.

    ``charges`` (one int array per bond, updated in place with ``lambdas``)
    and ``site_parity`` (the Z2 parity of each physical index) label the
    chain; the kernel then SVDs each charge block separately. A gate that
    couples different pair-parity sectors of a labelled chain raises
    ValueError.
    """
    right, lam_l, lam_r = _boundary(lambdas, bond, len(tensors))
    labels = None
    if charges is not None:
        _, q_l, q_r = _boundary(charges, bond, len(tensors), _ZERO_CHARGE)
        labels = (q_l, site_parity, q_r)
    if gate is None:
        gl, lam, gr, kept, tw, q = bond_update_nogate(
            lam_l, tensors[bond], lambdas[bond], tensors[right], lam_r,
            chi_max, cutoff, labels)
    else:
        dtype = tensors[bond].dtype
        if gate.dtype != dtype:
            if dtype == np.complex128:
                gate = np.ascontiguousarray(gate, dtype=np.complex128)
            else:
                raise TypeError("complex gate applied to a real-valued chain; "
                                "gate flavor does not match the state")
        if labels is not None:
            _check_gate_sectors(gate, site_parity, bond)
        gl, lam, gr, kept, tw, q = bond_update(
            lam_l, tensors[bond], lambdas[bond], tensors[right], lam_r,
            gate, chi_max, cutoff, labels)
    tensors[bond] = gl
    tensors[right] = gr
    lambdas[bond] = lam
    if charges is not None:
        charges[bond] = q
    if kept <= 0.0:
        raise FloatingPointError(f"vanishing norm in bond update at bond {bond}")
    return float(np.log(kept)), float(tw)


def apply_layers(tensors, lambdas, layers, chi_max, cutoff, charges=None,
                 site_parity=None):
    """Apply gate layers in order; returns (log_norm, max_trunc_weight).

    ``layers`` is a sequence of ``(parity, gates)``: each layer applies
    ``gates[bond]`` at every bond of that parity, left to right. ``gates`` is
    a per-bond list (entries may repeat the same matrix). ``charges`` and
    ``site_parity`` are the optional labels of apply_bond_gate.
    """
    n_bonds = len(lambdas)
    log_norm = 0.0
    max_tw = 0.0
    for parity, gates in layers:
        for bond in range(parity, n_bonds, 2):
            ln, tw = apply_bond_gate(tensors, lambdas, gates[bond], bond,
                                     chi_max, cutoff, charges, site_parity)
            log_norm += ln
            if tw > max_tw:
                max_tw = tw
    return log_norm, max_tw


def sweep_bond_order(n_bonds, transposed):
    """Bond order of one sweep as a gate product (parity 0 bonds, then parity 1).

    The transposed order is the exact reverse. The dense mirror of the
    conditional trajectory scheme applies its gates in this order.
    """
    odd = list(range(0, n_bonds, 2))
    even = list(range(1, n_bonds, 2))
    if transposed:
        return even[::-1] + odd[::-1]
    return odd + even


def sweep_chain(tensors, lambdas, gates, chi_max, cutoff, transposed=False):
    """One gate sweep over the whole chain; returns (log_norm, max_trunc_weight).

    ``gates`` is a per-bond list (entries may repeat the same matrix).
    """
    layers = [(1, gates), (0, gates)] if transposed else [(0, gates), (1, gates)]
    return apply_layers(tensors, lambdas, layers, chi_max, cutoff)


def canonicalize_chain(tensors, lambdas, chi_max, cutoff, start_bond=0,
                       charges=None, site_parity=None):
    """Restore Vidal canonical form with a double identity sweep.

    A left-to-right pass (starting at ``start_bond``, for locality after a
    single-site modification) left-orthonormalizes; the full right-to-left
    pass then produces true Schmidt vectors at every bond. Exact up to the
    requested truncation. Returns the accumulated log-norm. ``charges`` and
    ``site_parity`` are the optional labels of apply_bond_gate.
    """
    n_bonds = len(lambdas)
    log_norm = 0.0
    for bond in range(start_bond, n_bonds):
        ln, _ = apply_bond_gate(tensors, lambdas, None, bond, chi_max, cutoff,
                                charges, site_parity)
        log_norm += ln
    for bond in range(n_bonds - 1, -1, -1):
        ln, _ = apply_bond_gate(tensors, lambdas, None, bond, chi_max, cutoff,
                                charges, site_parity)
        log_norm += ln
    return log_norm


def schmidt_entropy(lam):
    """Von Neumann entropy in bits of a normalized Schmidt vector."""
    p = np.asarray(lam, dtype=np.float64) ** 2
    p = p[p > 0.0]
    if p.size == 0:
        return 0.0
    return float(-np.sum(p * np.log2(p)))
