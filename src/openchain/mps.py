"""Pure-state MPS: a ``kernels.Chain`` with physical dimension 2.

Tensors have legs (left bond, physical=2, right bond); the chain reads
Gamma[0] . diag(lambda[0]) . Gamma[1] . ... . Gamma[N-1] with boundary bonds
of dimension one. The chain's ``log_scale`` is the log-norm that the bond
kernel has divided out, which keeps trajectory states normalized. All gate
application goes through the shared bond kernel in ``kernels``; this module
holds the physics: initial states, observables and jumps.

Two readers give <sigma^z> of every site. ``all_sz`` reads each site's
one-site theta and is valid only on a canonical chain: the trajectory
recorder and the exact-jump-times scheme's channel weights and jumps call
it. ``sz_any_gauge`` contracts transfer matrices from both ends and reads a
chain in any gauge: the per-step-conditional scheme calls it on the chain
its non-unitary gates left. Bond entropies are read by
``kernels.entropies``.

Charge labels: the XXZ Hamiltonian conserves S^z, and the jumps sigma+ and
sigma- move it by one. A chain may therefore carry U(1) ``charges``: one int
array per bond, aligned with ``lambdas``, holding the number of down spins
left of each bond index, with ``total_charge`` the number in the whole chain
(the kernel's right outer bond). ``label_charges`` labels a product of basis
states such as Neel and sets the chain's site charges (up 0, down 1) and its
group (no modulus); ``sweep``, ``canonicalize`` and every kernel call then
keep the labels and the kernel SVDs one block per magnetization sector, and
``apply_site_op`` shifts them by the op's charge. ``neel_mps`` and
``product_mps`` return unlabelled chains (``charges`` None), on which any
gate runs as one dense block.
"""

import numpy as np

from . import kernels

__all__ = [
    "neel_mps", "product_mps", "label_charges",
    "sweep", "canonicalize", "apply_site_op",
    "all_sz", "sz_any_gauge", "check_canonical", "to_dense",
]


# charge of each physical index: the number of down spins (up = 0, down = 1)
_SITE_CHARGE = np.array([0, 1], dtype=np.int64)

_DENSE_MAX_SITES = 14   # to_dense refuses longer chains


def product_mps(local_kets):
    """Bond-dimension-1 product state from a list of normalized 2-vectors."""
    tensors = []
    for v in local_kets:
        v = np.asarray(v, dtype=complex)
        v = v / np.linalg.norm(v)
        tensors.append(v.reshape(1, 2, 1))
    lambdas = [np.ones(1) for _ in range(len(tensors) - 1)]
    return kernels.Chain(tensors, lambdas)


def neel_mps(n):
    """|up down up down ...> for even n."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"Neel state needs an even number of sites, got {n}")
    up = np.array([1.0, 0.0])
    down = np.array([0.0, 1.0])
    return product_mps([up if i % 2 == 0 else down for i in range(n)])


def label_charges(state: kernels.Chain):
    """Label a product of basis states (such as Neel) with U(1) charges, in place.

    Every site must be a bond-dimension-1 up or down spin; raises ValueError
    otherwise. Returns the state.
    """
    down = []
    for k, g in enumerate(state.tensors):
        nonzero = np.flatnonzero(g)
        if g.shape != (1, 2, 1) or len(nonzero) != 1:
            raise ValueError(f"site {k} is not a basis state of a product chain")
        down.append(int(_SITE_CHARGE[nonzero[0]]))
    left = np.cumsum(down)
    state.charges = [np.array([q], dtype=np.int64) for q in left[:-1]]
    state.site_charge = _SITE_CHARGE
    state.modulus = None
    state.total_charge = int(left[-1])
    return state


def sweep(state: kernels.Chain, gate, chi, cutoff, transposed=False):
    """One sweep of the same gate over all bonds; returns max truncation weight."""
    return kernels.sweep_chain(state, [gate] * len(state.lambdas), chi, cutoff,
                               transposed)


def canonicalize(state: kernels.Chain, chi, cutoff, site=None):
    """Restore canonical form and norm; returns the max truncation weight.

    With ``site``, the chain must be canonical but for that site's tensor
    (after ``apply_site_op``), and N-1 bond updates restore it; without, the
    full double pass runs (see ``kernels.canonicalize_chain``).
    """
    return kernels.canonicalize_chain(state, chi, cutoff, site=site)


def apply_site_op(state: kernels.Chain, op, site):
    """Apply a single-site operator to Gamma[site]; no canonical-form repair.

    Safe on its own only for unitary diagonal ops (sz); anything else should
    be followed by canonicalize(). On a labelled chain the op must move the
    charge by one amount (sigma+ by -1, sigma- by +1, a diagonal op by 0);
    every bond charge right of the site and the total shift by it. An op that
    mixes sectors, such as a Hadamard, raises ValueError.
    """
    op = np.asarray(op, dtype=complex)
    if state.charges is not None:
        out_idx, in_idx = np.nonzero(op)
        q = state.site_charge
        shifts = set((q[out_idx] - q[in_idx]).tolist())
        if len(shifts) > 1:
            raise ValueError(f"op at site {site} mixes U(1) charge sectors "
                             f"(charge shifts {sorted(shifts)})")
        shift = shifts.pop() if shifts else 0
        if shift:
            for bond in range(site, len(state.charges)):
                state.charges[bond] = state.charges[bond] + shift
            state.total_charge += shift
    state.tensors[site] = np.einsum("st,atb->asb", op, state.tensors[site])


def all_sz(state: kernels.Chain):
    """<sigma^z> of every site of a canonical chain.

    Site k reads its one-site theta lambda_{k-1} Gamma_k lambda_k (outer
    bonds weight 1), which in canonical form holds the site's whole reduced
    state: (|theta_up|^2 - |theta_down|^2) / |theta|^2. A chain in any other
    gauge is read by ``sz_any_gauge``.
    """
    n = state.n_sites
    sz = np.empty(n)
    for k, g in enumerate(state.tensors):
        th = g * state.lambdas[k - 1].reshape(-1, 1, 1) if k > 0 else g
        if k < n - 1:
            th = th * state.lambdas[k].reshape(1, 1, -1)
        up, down = np.einsum("asb,asb->s", th.conj(), th).real
        sz[k] = (up - down) / (up + down)
    return sz


def sz_any_gauge(state: kernels.Chain):
    """<sigma^z> of every site over the chain's norm, in any gauge.

    With A_k = Gamma_k lambda_k (the last site without lambda), suffix
    transfer matrices R_k contract sites k..N-1 and a prefix L walks from
    the left; site k reads tr(L_k^{sz} R_{k+1}) / tr(L_k^{1} R_{k+1}).
    O(N chi^3), every contraction a 2-D matmul. Unlike all_sz it needs no
    canonical form, so a chain after non-unitary gates is read as it stands;
    on a canonical chain all_sz reads the same values at a fraction of the
    cost.
    """
    n = state.n_sites
    a = [g * lam.reshape(1, 1, -1) for g, lam in zip(state.tensors, state.lambdas)]
    a.append(state.tensors[-1])
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


def check_canonical(state: kernels.Chain):
    """Largest lambda-weighted deviation from canonical form over all sites.

    With A_k = lambda_{k-1} Gamma_k and B_k = Gamma_k lambda_k (outer bonds
    weight 1), reads max |lambda_k (sum_s A^dag A - I) lambda_k| and
    max |lambda_{k-1} (sum_s B B^dag - I) lambda_{k-1}|. The weights keep
    directions whose lambda sits near the cutoff, where Gamma = U / lambda
    amplifies rounding, from reading as a broken gauge.
    """
    worst = 0.0
    n = state.n_sites
    one = np.ones(1)
    for k, g in enumerate(state.tensors):
        lam_l = state.lambdas[k - 1] if k > 0 else one
        lam_r = state.lambdas[k] if k < n - 1 else one
        a = g * lam_l.reshape(-1, 1, 1)
        left = np.einsum("asb,asc->bc", a.conj(), a) - np.eye(len(lam_r))
        b = g * lam_r.reshape(1, 1, -1)
        right = np.einsum("asb,csb->ac", b, b.conj()) - np.eye(len(lam_l))
        for dev, lam in ((left, lam_r), (right, lam_l)):
            worst = max(worst, float(np.max(np.abs(lam[:, None] * dev * lam))))
    return worst


def to_dense(state: kernels.Chain):
    """Dense state vector (sites fused left to right); small chains only."""
    n = state.n_sites
    if n > _DENSE_MAX_SITES:
        raise ValueError(f"refusing to densify {n} > {_DENSE_MAX_SITES} sites")
    vec = state.tensors[0]
    for k in range(1, n):
        lam = state.lambdas[k - 1]
        vec = vec * lam.reshape((1,) * (vec.ndim - 1) + (-1,))
        vec = np.tensordot(vec, state.tensors[k], axes=(vec.ndim - 1, 0))
    return vec.reshape(-1)
