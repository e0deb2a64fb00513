"""Pure-state MPS in Vidal form: gammas plus per-bond Schmidt vectors.

Gamma tensors have legs (left bond, physical=2, right bond); the chain reads
gamma[0] . diag(lambda[0]) . gamma[1] . ... . gamma[N-1] with boundary bonds
of dimension one. All gate application goes through the shared bond kernel
in ``kernels``.

Charge labels: the XXZ Hamiltonian conserves S^z, and the jumps sigma+ and
sigma- move it by one. A chain may therefore carry U(1) ``charges``: one int
array per bond, aligned with ``lambdas``, holding the number of down spins
left of each bond index, with ``total_charge`` the number in the whole chain
(the kernel's right outer bond). ``label_charges`` labels a product of basis
states such as Neel; ``apply_gate``, ``sweep`` and ``canonicalize`` then keep
the labels and the kernel SVDs one block per magnetization sector, and
``apply_site_op`` shifts them by the op's charge. ``neel_mps`` and
``product_mps`` return unlabelled chains (``charges`` None), on which any
gate runs as one dense block.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels

__all__ = [
    "MpsState", "neel_mps", "product_mps", "label_charges",
    "apply_gate", "sweep", "canonicalize", "apply_site_op",
    "bond_entropy", "entropies", "local_expectation", "all_sz",
    "sz_any_gauge", "check_canonical", "to_dense",
]


@dataclass
class MpsState:
    gammas: list = field(repr=False)   # rank-3 complex tensors
    lambdas: list = field(repr=False)  # N-1 descending normalized Schmidt vectors
    norm_log: float = 0.0              # accumulated log-norm removed by renormalization
    # per-bond down-spin counts left of each bond index (U(1)), or None
    charges: list = field(repr=False, default=None)
    total_charge: int = 0              # down spins in the whole chain

    @property
    def n_sites(self):
        return len(self.gammas)

    def bond_dims(self):
        return [len(l) for l in self.lambdas]

    def max_bond(self):
        return max(self.bond_dims(), default=1)

    def copy(self):
        return MpsState(
            gammas=[g.copy() for g in self.gammas],
            lambdas=[l.copy() for l in self.lambdas],
            norm_log=self.norm_log,
            charges=None if self.charges is None else
            [q.copy() for q in self.charges],
            total_charge=self.total_charge,
        )

    def _labels(self):
        """The U(1) labels for the bond kernel, or None if unlabelled."""
        if self.charges is None:
            return None
        return kernels.ChainLabels(self.charges, _SITE_CHARGE, None,
                                   self.total_charge)


# charge of each physical index: the number of down spins (up = 0, down = 1)
_SITE_CHARGE = np.array([0, 1], dtype=np.int64)


def product_mps(local_kets):
    """Bond-dimension-1 product state from a list of normalized 2-vectors."""
    gammas = []
    for v in local_kets:
        v = np.asarray(v, dtype=complex)
        v = v / np.linalg.norm(v)
        gammas.append(v.reshape(1, 2, 1))
    lambdas = [np.ones(1) for _ in range(len(gammas) - 1)]
    return MpsState(gammas=gammas, lambdas=lambdas)


def neel_mps(n):
    """|up down up down ...> for even n."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"Neel state needs an even number of sites, got {n}")
    up = np.array([1.0, 0.0])
    down = np.array([0.0, 1.0])
    return product_mps([up if i % 2 == 0 else down for i in range(n)])


def label_charges(state: MpsState):
    """Label a product of basis states (such as Neel) with U(1) charges, in place.

    Every site must be a bond-dimension-1 up or down spin; raises ValueError
    otherwise. Returns the state.
    """
    down = []
    for k, g in enumerate(state.gammas):
        nonzero = np.flatnonzero(g)
        if g.shape != (1, 2, 1) or len(nonzero) != 1:
            raise ValueError(f"site {k} is not a basis state of a product chain")
        down.append(int(_SITE_CHARGE[nonzero[0]]))
    left = np.cumsum(down)
    state.charges = [np.array([q], dtype=np.int64) for q in left[:-1]]
    state.total_charge = int(left[-1])
    return state


def apply_gate(state: MpsState, gate, bond, chi, cutoff):
    """Two-site gate at ``bond`` (in place); returns the truncation weight.

    The kept norm after the SVD is divided out and accumulated in norm_log,
    which keeps trajectory states normalized.
    """
    ln, tw = kernels.apply_bond_gate(
        state.gammas, state.lambdas, gate, bond, chi, cutoff, state._labels())
    state.norm_log += ln
    return tw


def sweep(state: MpsState, gate, chi, cutoff, transposed=False):
    """One sweep of the same gate over all bonds; returns max truncation weight."""
    gates = [gate] * len(state.lambdas)
    ln, tw = kernels.sweep_chain(state.gammas, state.lambdas, gates, chi, cutoff,
                                 transposed=transposed, labels=state._labels())
    state.norm_log += ln
    return tw


def canonicalize(state: MpsState, chi, cutoff, site=None):
    """Restore canonical form (and normalization).

    With ``site``, the chain must be canonical but for that site's tensor
    (after ``apply_site_op``), and N-1 bond updates restore it; without, the
    full double pass runs (see ``kernels.canonicalize_chain``).
    """
    state.norm_log += kernels.canonicalize_chain(
        state.gammas, state.lambdas, chi, cutoff, site=site,
        labels=state._labels())


def apply_site_op(state: MpsState, op, site):
    """Apply a single-site operator to gamma[site]; no canonical-form repair.

    Safe on its own only for unitary diagonal ops (sz); anything else should
    be followed by canonicalize(). On a labelled chain the op must move the
    charge by one amount (sigma+ by -1, sigma- by +1, a diagonal op by 0);
    every bond charge right of the site and the total shift by it. An op that
    mixes sectors, such as a Hadamard, raises ValueError.
    """
    op = np.asarray(op, dtype=complex)
    if state.charges is not None:
        out_idx, in_idx = np.nonzero(op)
        shifts = set((_SITE_CHARGE[out_idx] - _SITE_CHARGE[in_idx]).tolist())
        if len(shifts) > 1:
            raise ValueError(f"op at site {site} mixes U(1) charge sectors "
                             f"(charge shifts {sorted(shifts)})")
        shift = shifts.pop() if shifts else 0
        if shift:
            for bond in range(site, len(state.charges)):
                state.charges[bond] = state.charges[bond] + shift
            state.total_charge += shift
    state.gammas[site] = np.einsum("st,atb->asb", op, state.gammas[site])


def bond_entropy(state: MpsState, bond):
    """Von Neumann entropy in bits across ``bond``; 0 for bond dimension 1."""
    return kernels.schmidt_entropy(state.lambdas[bond])


def entropies(state: MpsState):
    return np.array([kernels.schmidt_entropy(l) for l in state.lambdas])


def _site_theta(state: MpsState, site):
    g = state.gammas[site]
    th = g.copy()
    if site > 0:
        th = th * state.lambdas[site - 1].reshape(-1, 1, 1)
    if site < state.n_sites - 1:
        th = th * state.lambdas[site].reshape(1, 1, -1)
    return th


def local_expectation(state: MpsState, op, site):
    """<psi|op_site|psi> / <psi|psi> of a canonical chain; the real part.

    Reads the one-site theta lambda_{site-1} Gamma_site lambda_site, which
    holds the whole expectation only in canonical form. Callers: the
    trajectory recorder (through ``all_sz``) and the exact-jump-times scheme
    (channel selection and ``apply_jump``). A chain in any other gauge is
    read by ``sz_any_gauge``.
    """
    th = _site_theta(state, site)
    val = np.einsum("asb,st,atb->", th.conj(), np.asarray(op, dtype=complex), th)
    nrm = np.einsum("asb,asb->", th.conj(), th)
    return float((val / nrm).real)


def all_sz(state: MpsState):
    """<sigma^z> of every site of a canonical chain (see local_expectation)."""
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    return np.array([local_expectation(state, sz, i) for i in range(state.n_sites)])


def sz_any_gauge(state: MpsState):
    """<sigma^z> of every site over the chain's norm, in any gauge.

    With A_k = Gamma_k lambda_k (the last site without lambda), suffix
    transfer matrices R_k contract sites k..N-1 and a prefix L walks from
    the left; site k reads tr(L_k^{sz} R_{k+1}) / tr(L_k^{1} R_{k+1}).
    O(N chi^3), every contraction a 2-D matmul. Unlike all_sz it needs no
    canonical form, so a chain after non-unitary gates is read as it stands.
    """
    n = state.n_sites
    a = [g * lam.reshape(1, 1, -1) for g, lam in zip(state.gammas, state.lambdas)]
    a.append(state.gammas[-1])
    ac = [x.conj() for x in a]
    # right[k][b, b']: sites k..n-1 contracted, ket index b and bra index b'
    right = [None] * (n + 1)
    right[n] = np.ones((1, 1))
    for k in range(n - 1, 0, -1):
        dl, d, dr = a[k].shape
        z = a[k].reshape(dl * d, dr) @ right[k + 1]
        right[k] = z.reshape(dl, d * dr) @ ac[k].reshape(dl, d * dr).T
    sz = np.empty(n)
    left = np.ones((1, 1))
    for k in range(n):
        dl, d, dr = a[k].shape
        x = (left.T @ a[k].reshape(dl, d * dr)).reshape(dl * d, dr)
        y = (x @ right[k + 1]).reshape(dl, d, dr)
        up, down = (ac[k] * y).sum(axis=(0, 2)).real
        sz[k] = (up - down) / (up + down)
        left = x.T @ ac[k].reshape(dl * d, dr)
    return sz


def check_canonical(state: MpsState):
    """Max deviation of the left/right canonical-form identities over all sites."""
    worst = 0.0
    n = state.n_sites
    for k in range(n):
        g = state.gammas[k]
        a = g * state.lambdas[k - 1].reshape(-1, 1, 1) if k > 0 else g
        left = np.einsum("asb,asc->bc", a.conj(), a)
        worst = max(worst, float(np.max(np.abs(left - np.eye(left.shape[0])))))
        b = g * state.lambdas[k].reshape(1, 1, -1) if k < n - 1 else g
        right = np.einsum("asb,csb->ac", b, b.conj())
        worst = max(worst, float(np.max(np.abs(right - np.eye(right.shape[0])))))
    return worst


def to_dense(state: MpsState, max_sites=14):
    """Dense state vector (sites fused left to right); small chains only."""
    n = state.n_sites
    if n > max_sites:
        raise ValueError(f"refusing to densify {n} > {max_sites} sites")
    vec = state.gammas[0]
    for k in range(1, n):
        lam = state.lambdas[k - 1]
        vec = vec * lam.reshape((1,) * (vec.ndim - 1) + (-1,))
        vec = np.tensordot(vec, state.gammas[k], axes=(vec.ndim - 1, 0))
    return vec.reshape(-1)
