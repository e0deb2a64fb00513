"""Hot numeric kernels for gate layers on matrix-product chains.

The two-site bond update (theta assembly, gate contraction, SVD re-split,
guarded lambda division) dominates runtime for every engine, so it lives here
as one plain numpy kernel. Its split, ``_split_theta``, is the one truncated
SVD of the package and ``_keep_count`` the one truncation rule, called only
from that split: the bond updates, the infinite cell's gauge cut and inner
re-split and the dense-to-MPDO decomposition all split with it.
``perfbench/run.py`` measures end-to-end runs and, with ``--trace 1``, the
time spent in each public function here; its per-update readings (bond
dimension, call counts) come from ``bond_update`` and ``bond_update_nogate``,
which return the new lambda at index 1 and the new bond's charge labels
last. Callers reach both through the module globals, which the tracer
rebinds.

The chain (``Chain``): Gamma tensors and per-bond Schmidt vectors in Vidal
form, the same type for the pure state (physical dimension 2) and the
vectorized density operator (dimension 4), finite chain or periodic cell.
The object is exp(``log_scale``) times the network; every kernel entry point
(``apply_schedule``, ``sweep_chain``, ``canonicalize_chain``) updates the
chain in place, divides the kept norm of each bond update out of it, adds
the summed log of those norms to ``log_scale`` once per call and returns
the largest truncation weight of the call. ``entropies`` reads the Schmidt
entropy (``schmidt_entropy``) of every bond of any chain: the trajectory
entanglement of a pure state and the operator entanglement of an MPDO.

Charge labels (Singh, Pfeifer & Vidal, PRB 83, 115125 (2011), with dense
tensors and integer labels) are read from the chain: ``charges``, one int
array per bond holding the charge of the part of the chain left of each bond
index (None: unlabelled), ``site_charge``, the charge of each physical index,
and ``modulus``, the group. The MPDO and the infinite cell are Z2 (parities,
modulus 2); the trajectory MPS is U(1) (the number of down spins, no
modulus). The engines' constructors set them. The left outer bond of a
finite chain has charge 0 and the right outer bond ``total_charge`` (0 for
the MPDO). A symmetric state has Gamma_k[a, s, c] = 0 unless
q_a + p_s = q_c (mod 2 for Z2), so every theta is block-diagonal: its rows
group by q_l + p_s1 and its columns by q_r - p_s2, and the groups are the
charges that occur on both sides. ``_split_theta`` SVDs each block, merges
the spectra by a stable descending sort, applies the one truncation rule
(``_keep_count``) to the merged spectrum and returns the kept values' groups
as the new bond's labels. An unlabelled chain is one group: the SVD runs on
theta itself and the arithmetic is that of a plain dense split.

Sweep conventions (shared by the pure-state and density-operator engines):
bond ``b`` joins sites ``b`` and ``b + 1``. One executor, ``apply_schedule``,
runs every bond update: it takes a schedule, a list of ``(bond, gate)``
pairs applied in order (gate None: a gate-free restore), and prepares each
distinct gate once before the first update (sector check on a labelled
chain, cast to the chain's dtype). ``layer_schedule`` builds the schedule
of ``(parity, per-bond gate table)`` layers: each layer applies ``table[b]``
at every bond ``b`` of that parity, left to right. Bonds of one parity share
no site, so the order within a layer does not change the arithmetic. A
normal sweep is the layer of parity 0 then the layer of parity 1; a
transposed sweep is the reverse (``SWEEP_PARITIES``), so it is the exact
reverse-ordered product of the normal one. Every time step is built from
one layer-fusion rule, ``fuse_sweeps``: it lays a sequence of
``(fraction, transposed)`` sweeps out as ``(parity, fraction)`` layers and
merges adjacent layers of one parity by adding their fractions. The MPDO's
fourth-order step is 25 such layers and a trajectory's n Strang substeps
are 2n + 1; the dense mirror of the conditional trajectory scheme walks the
same schedule. A chain with as many bonds as sites is a periodic cell
(``Chain.cell``, the infinite-chain unit cell): its last bond wraps around
to site 0, and the outer lambdas and charge labels of every bond update
wrap with it, so a labelled cell takes the same block SVD as a finite
chain.
"""

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "JIT_ENABLED",
    "Chain",
    "LAMBDA_FLOOR",
    "bond_update",
    "bond_update_nogate",
    "SWEEP_PARITIES",
    "fuse_sweeps",
    "apply_schedule",
    "layer_schedule",
    "sweep_chain",
    "canonicalize_chain",
    "schmidt_entropy",
    "entropies",
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


def _merge_spectra(spectra, groups):
    """Block spectra merged by a stable descending sort: (values, group of each).

    Each spectrum is sorted descending, so a block's values keep their order
    and any leading run of the merge holds each block's leading values.
    """
    s = np.concatenate(spectra)
    q = np.repeat(groups, [len(x) for x in spectra])
    order = np.argsort(-s, kind="stable")
    return s[order], q[order]


def _group_indices(q, groups):
    """Indices of the entries of ``q`` equal to each group, in order."""
    order = np.argsort(q, kind="stable")
    q = q[order]
    starts = q.searchsorted(groups).tolist()
    stops = q.searchsorted(groups, "right").tolist()
    return [order[a:b] for a, b in zip(starts, stops)]


def _sectors(labels, modulus):
    """(groups, row indices, column indices) of a labelled theta's blocks.

    Rows take the charge q_l + p_s and columns q_r - p_s, reduced by
    ``modulus`` unless it is None; a group is a charge found on both sides.
    """
    q_l, site_q, q_r = labels
    row_q = (q_l[:, None] + site_q[None, :]).ravel()
    col_q = (q_r[None, :] - site_q[:, None]).ravel()
    if modulus is not None:
        row_q %= modulus
        col_q %= modulus
    groups = np.intersect1d(row_q, col_q)
    return groups, _group_indices(row_q, groups), _group_indices(col_q, groups)


def _split_theta(theta, dl, d, dr, lam_l, lam_r, chi_max, cutoff, labels=None,
                 modulus=2):
    """SVD re-split of a two-site theta, truncating and rebuilding the Gammas.

    theta is (dl*d, d*dr). Returns (gam_l, lam_new, gam_r, kept_norm,
    trunc_weight, q_new); the new lambda is normalized and the boundary
    lambdas are divided out of the returned Gammas with a floor guard.

    ``labels`` is None or (q_l, site charge, q_r): the charges of the outer
    bonds and of the physical index, in the group of ``modulus`` (2 for Z2,
    None for U(1)). theta is zero between different groups (``_sectors``),
    so each group is gathered and SVD'd on its own. The spectra are merged by
    a stable descending sort, truncated as one, and q_new holds the group of
    every kept value. Without labels there is one group, theta itself, and
    q_new is None.
    """
    if labels is None:
        u, s, vh = np.linalg.svd(theta, full_matrices=False)
    else:
        groups, rows, cols = _sectors(labels, modulus)
        blocks = [np.linalg.svd(theta.take(r, axis=0).take(c, axis=1),
                                full_matrices=False) for r, c in zip(rows, cols)]
        s, block_of = _merge_spectra([b[1] for b in blocks],
                                     np.arange(len(blocks)))
    keep = _keep_count(s, chi_max, cutoff)
    # running sums add in order; np.sum adds pairwise and rounds differently
    s2 = s * s
    kept = np.sqrt(np.cumsum(s2[:keep])[-1])
    w2 = np.cumsum(s2[keep:])[-1] if keep < len(s) else 0.0
    if kept > 0.0:
        lam_new = s[:keep] / kept
    else:
        lam_new = s[:keep].copy()

    if labels is None:
        u_keep, vh_keep, q_new = u[:, :keep], vh[:keep, :], None
    else:
        # a block's kept values are its leading ones, in order
        block_of = block_of[:keep]
        q_new = groups[block_of]
        u_keep = np.zeros((dl * d, keep), dtype=theta.dtype)
        vh_keep = np.zeros((keep, d * dr), dtype=theta.dtype)
        pos = np.argsort(block_of, kind="stable")   # kept positions by block
        ends = np.cumsum(np.bincount(block_of, minlength=len(blocks))).tolist()
        for r, c, (u, _, vh), k0, k1 in zip(rows, cols, blocks, [0] + ends, ends):
            if k1 == k0:
                continue
            u_keep[r[:, None], pos[k0:k1]] = u[:, :k1 - k0]
            vh_keep[pos[k0:k1, None], c] = vh[:k1 - k0, :]

    gam_l = np.ascontiguousarray(u_keep).reshape(dl, d, keep)
    gam_l = gam_l * _floored_inverse(lam_l).reshape(dl, 1, 1)
    gam_r = np.ascontiguousarray(vh_keep).reshape(keep, d, dr)
    gam_r = gam_r * _floored_inverse(lam_r).reshape(1, 1, dr)
    return gam_l, lam_new, gam_r, kept, np.sqrt(w2), q_new


def _floored_inverse(lam):
    """1 / lam, with 0 where lam is at or below LAMBDA_FLOOR."""
    return np.divide(1.0, lam, out=np.zeros(len(lam)), where=lam > LAMBDA_FLOOR)


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
                labels=None, modulus=2):
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
    return _split_theta(theta, dl, d, dr, lam_l, lam_r, chi_max, cutoff, labels,
                        modulus)


def bond_update_nogate(lam_l, gam_l, lam_c, gam_r, lam_r, chi_max, cutoff,
                       labels=None, modulus=2):
    """Gate-free two-site re-split (canonical-form restores); as bond_update."""
    dl, d, _ = gam_l.shape
    theta = _assemble_theta(lam_l, gam_l, lam_c, gam_r, lam_r)
    return _split_theta(theta, dl, d, gam_r.shape[2], lam_l, lam_r, chi_max,
                        cutoff, labels, modulus)


@dataclass
class Chain:
    """A chain in Vidal form: the one state type of every engine.

    ``tensors`` are the Gammas, legs (left bond, physical, right bond), and
    ``lambdas`` the per-bond Schmidt vectors: N - 1 of them for a finite
    chain, as many as tensors for a periodic cell. The object is
    exp(``log_scale``) times the network. ``charges`` (None: unlabelled),
    ``site_charge``, ``modulus`` and ``total_charge`` are the charge labels
    of the module docstring; the engines' constructors set them, and the
    kernel keeps ``charges`` aligned with ``lambdas``. ``basis`` is the
    operator basis of a density operator (None for a pure state); the kernel
    never reads it.
    """
    tensors: list = field(repr=False)
    lambdas: list = field(repr=False)
    log_scale: float = 0.0
    charges: list = field(repr=False, default=None)
    site_charge: np.ndarray = field(repr=False, default=None)
    modulus: int | None = None
    total_charge: int = 0
    basis: object = field(repr=False, default=None)

    @property
    def n_sites(self):
        return len(self.tensors)

    @property
    def cell(self):
        """True for a periodic cell: as many bonds as sites."""
        return len(self.lambdas) == len(self.tensors)

    def bond_dims(self):
        return [len(l) for l in self.lambdas]

    def max_bond(self):
        return max(self.bond_dims(), default=1)

    def copy(self):
        return replace(
            self, tensors=[t.copy() for t in self.tensors],
            lambdas=[l.copy() for l in self.lambdas],
            charges=None if self.charges is None else
            [q.copy() for q in self.charges])


_ONE = np.ones(1, dtype=np.float64)
_ZERO_CHARGE = np.zeros(1, dtype=np.int64)

# An entry between different charge sectors (of a gate, or of the infinite
# cell's transfer fixed points) larger than this fraction of the largest
# entry would be lost by the block SVD.
OFF_BLOCK_TOL = 1e-12


def _boundary(lambdas, bond, n_sites, edges=(_ONE, _ONE)):
    """(right site, left entry, right entry) of a per-bond list around ``bond``.

    A finite chain's ends take ``edges`` (left, right); a periodic cell's
    entries wrap around, for lambdas and charge labels alike.
    """
    n_bonds = len(lambdas)
    right = (bond + 1) % n_sites
    if n_bonds == n_sites:   # periodic cell: the outer lambdas wrap around
        return right, lambdas[bond - 1], lambdas[right]
    lam_l = lambdas[bond - 1] if bond > 0 else edges[0]
    lam_r = lambdas[bond + 1] if bond < n_bonds - 1 else edges[1]
    return right, lam_l, lam_r


def _off_block(m, q):
    """(largest |m[i, j]| with q[i] != q[j], largest |m[i, j]|) of a square m."""
    off = np.abs(m[q[:, None] != q[None, :]])
    return (float(off.max()) if off.size else 0.0), float(np.max(np.abs(m)))


def _check_gate_sectors(gate, chain, bond):
    """Raise ValueError if ``gate`` couples different pair-charge sectors.

    The pair charge p1 + p2 is reduced by the chain's modulus (Z2) or not
    at all (U(1)).
    """
    pair = (chain.site_charge[:, None] + chain.site_charge[None, :]).ravel()
    if chain.modulus is not None:
        pair %= chain.modulus
    off_max, scale = _off_block(gate, pair)
    if off_max > OFF_BLOCK_TOL * scale:
        group = "U(1)" if chain.modulus is None else f"Z{chain.modulus}"
        raise ValueError(
            f"gate at bond {bond} couples {group} charge sectors of a "
            f"labelled chain: largest off-block entry {off_max:.3e} "
            f"(max |gate| {scale:.3e}); the block SVD would drop it")


def _update_bond(chain, gate, bond, chi_max, cutoff):
    """One bond update with a cast gate, or None; (log_norm, tw)."""
    tensors, lambdas = chain.tensors, chain.lambdas
    right, lam_l, lam_r = _boundary(lambdas, bond, len(tensors))
    block_labels = None
    if chain.charges is not None:
        edges = (_ZERO_CHARGE, np.full(1, chain.total_charge, dtype=np.int64))
        _, q_l, q_r = _boundary(chain.charges, bond, len(tensors), edges)
        block_labels = (q_l, chain.site_charge, q_r)
    if gate is None:
        gl, lam, gr, kept, tw, q = bond_update_nogate(
            lam_l, tensors[bond], lambdas[bond], tensors[right], lam_r,
            chi_max, cutoff, block_labels, chain.modulus)
    else:
        gl, lam, gr, kept, tw, q = bond_update(
            lam_l, tensors[bond], lambdas[bond], tensors[right], lam_r,
            gate, chi_max, cutoff, block_labels, chain.modulus)
    tensors[bond] = gl
    tensors[right] = gr
    lambdas[bond] = lam
    if chain.charges is not None:
        chain.charges[bond] = q
    if kept <= 0.0:
        raise FloatingPointError(f"vanishing norm in bond update at bond {bond}")
    return float(np.log(kept)), float(tw)


def apply_schedule(chain, schedule, chi_max, cutoff):
    """Run a schedule of bond updates in place; returns the max truncation weight.

    ``schedule`` is a list of ``(bond, gate)`` pairs applied in order; a
    gate of None is a gate-free re-split. Before the first update each
    distinct gate is checked once, at the bond of its first use: on a
    labelled chain a gate that couples pair-charge sectors raises
    ValueError, and a complex gate on a real chain TypeError; a gate on a
    complex chain is cast to complex128. Each update's kept norm is divided
    out of the chain and the summed log added to ``chain.log_scale``; a
    vanishing kept norm raises FloatingPointError.
    """
    ready = {}   # id of each distinct gate: the gate as _update_bond takes it
    for bond, gate in schedule:
        if gate is None or id(gate) in ready:
            continue
        if chain.charges is not None:
            _check_gate_sectors(gate, chain, bond)
        dtype = chain.tensors[bond].dtype
        if gate.dtype == dtype:
            ready[id(gate)] = gate
        elif dtype == np.complex128:
            ready[id(gate)] = np.ascontiguousarray(gate, dtype=np.complex128)
        else:
            raise TypeError("complex gate applied to a real-valued chain; "
                            "gate flavor does not match the state")
    log_norm = 0.0
    max_tw = 0.0
    for bond, gate in schedule:
        # a restore's gate, None, has no entry and stays None
        ln, tw = _update_bond(chain, ready.get(id(gate)), bond, chi_max, cutoff)
        log_norm += ln
        if tw > max_tw:
            max_tw = tw
    chain.log_scale += log_norm
    return max_tw


def layer_schedule(layers, n_bonds):
    """The ``(bond, gate)`` schedule of a sequence of gate layers.

    ``layers`` is a sequence of ``(parity, gates)``: each layer applies
    ``gates[bond]`` at every bond of that parity, left to right. ``gates``
    is a per-bond list (entries may repeat the same matrix).
    """
    return [(bond, gates[bond]) for parity, gates in layers
            for bond in range(parity, n_bonds, 2)]


# Layer parities of a sweep, indexed by its ``transposed`` flag: a normal
# sweep runs parity 0 then parity 1, a transposed sweep the reverse.
SWEEP_PARITIES = ((0, 1), (1, 0))


def fuse_sweeps(sweeps):
    """The one layer-fusion rule: (fraction, transposed) sweeps as layers.

    Returns a tuple of ``(parity, fraction)`` layers. A sweep's layers take
    the parities of ``SWEEP_PARITIES``. Adjacent layers on the same bonds
    apply exp(G_b a) exp(G_b b) with one bond generator G_b, which is
    exactly exp(G_b (a + b)), so they merge into one layer whose fraction
    is the sum. A Strang pair, ``(1, False), (1, True)``, is three layers
    with fractions 1, 2, 1; n pairs are 2n + 1 layers, 1, 2, ..., 2, 1.
    """
    layers = []
    for frac, transposed in sweeps:
        for parity in SWEEP_PARITIES[transposed]:
            if layers and layers[-1][0] == parity:
                layers[-1] = (parity, layers[-1][1] + frac)
            else:
                layers.append((parity, frac))
    return tuple(layers)


def sweep_chain(chain, gates, chi_max, cutoff, transposed=False):
    """One gate sweep over the whole chain; returns the max truncation weight.

    ``gates`` is a per-bond list (entries may repeat the same matrix); the
    chain is updated as by apply_schedule.
    """
    layers = [(parity, gates) for parity, _ in fuse_sweeps([(1, transposed)])]
    return apply_schedule(chain, layer_schedule(layers, len(chain.lambdas)),
                          chi_max, cutoff)


def canonicalize_chain(chain, chi_max, cutoff, site=None):
    """Restore Vidal canonical form by identity bond updates, in place.

    Exact up to the requested truncation; the summed log of the kept norms
    is added to ``chain.log_scale`` and the largest truncation weight of
    the restore is returned. Without ``site``, a left-to-right pass
    left-orthonormalizes, then a right-to-left pass produces true Schmidt
    vectors at every bond (2(N-1) updates). With ``site``, the chain must be
    canonical but for that one site's tensor: a right-to-left pass over
    bonds site-1 .. 0 makes them Schmidt bonds against the untouched right
    part, then a left-to-right pass over bonds site .. N-2 does the same for
    the rest (N-1 updates).
    """
    n_bonds = len(chain.lambdas)
    if site is None:
        order = [*range(n_bonds), *range(n_bonds - 1, -1, -1)]
    else:
        order = [*range(site - 1, -1, -1), *range(site, n_bonds)]
    return apply_schedule(chain, [(bond, None) for bond in order], chi_max,
                          cutoff)


def schmidt_entropy(lam):
    """Von Neumann entropy in bits of a normalized Schmidt vector."""
    p = np.asarray(lam, dtype=np.float64) ** 2
    p = p[p > 0.0]
    if p.size == 0:
        return 0.0
    return float(-np.sum(p * np.log2(p)))


def entropies(chain):
    """Von Neumann entropy in bits of every bond's Schmidt vector, in bond order."""
    return np.array([schmidt_entropy(lam) for lam in chain.lambdas])
