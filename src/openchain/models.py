"""Physical model builders: XXZ gates, jump operators, superoperator gates.

Local basis ordering is (up, down); two-site operators act on the fused index
(s_left * 2 + s_right), i.e. the basis {uu, ud, du, dd}. All couplings are in
units of the exchange J unless passed explicitly.

Gate exponentials: the XXZ propagator exp(-i h2 t) comes from one cached
eigendecomposition of the Hermitian bond term (``xxz_propagator``), so a
trajectory builds a gate per substep length for the price of a 4x4 product.
Every other gate, the 16x16 superoperator gates of the MPDO and the
non-Hermitian 4x4 gates of the conditional trajectory, goes through
``expm``: scaling and squaring with the [13/13] Pade approximant (Higham,
SIAM J. Matrix Anal. Appl. 26, 1179 (2005)) in plain numpy. The package's
only runtime dependency is numpy.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SX", "SY", "SZ", "SP", "SM", "ID2",
    "ModelParams", "OperatorBasis", "JumpOp",
    "pauli_basis", "linearized_basis",
    "expm", "two_site_hamiltonian", "xxz_propagator", "build_xxz_gate",
    "build_jump_ops",
    "site_dissipator_matrix", "two_site_generator", "two_site_superop",
    "build_super_gate", "bond_weights", "build_super_gates",
]

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |up><down|
SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |down><up|
ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class ModelParams:
    """XXZ chain with local emission/absorption/dephasing rates.

    ``n_sites=None`` marks the translation-invariant infinite chain (two-site
    unit cell); finite chains must have an even number of sites so the Neel
    state exists.
    """

    j: float = 1.0
    delta: float = 1.0
    gamma_plus: float = 0.0
    gamma_minus: float = 0.0
    gamma_z: float = 0.0
    n_sites: int | None = None

    def validate(self):
        if self.gamma_plus < 0 or self.gamma_minus < 0 or self.gamma_z < 0:
            raise ValueError("dissipation rates must be non-negative")
        if self.n_sites is not None:
            if self.n_sites < 2 or self.n_sites % 2 != 0:
                raise ValueError(f"n_sites must be even and >= 2, got {self.n_sites}")
        return self


@dataclass(frozen=True)
class OperatorBasis:
    """Orthonormal single-site operator basis, Tr(e_i e_j^dag) = delta_ij."""

    elements: np.ndarray = field(repr=False)  # (4, 2, 2) complex
    flavor: str = "pauli"

    def parities(self):
        """Z2 parity of each element under rho -> (sz) rho (sz), or None.

        Diagonal elements are even (0) and off-diagonal ones odd (1); both
        shipped bases give [0, 1, 1, 0]. None if some element is neither.
        """
        diag = np.abs(self.elements[:, [0, 1], [0, 1]]).max(axis=1) > 0.0
        off = np.abs(self.elements[:, [0, 1], [1, 0]]).max(axis=1) > 0.0
        if np.any(diag & off):
            return None
        return off.astype(np.int64)

    def orthonormality_defect(self):
        g = np.array([[np.trace(a @ b.conj().T) for b in self.elements]
                      for a in self.elements])
        return float(np.max(np.abs(g - np.eye(4))))


def pauli_basis():
    """Hermitian basis 1/sqrt2, sx/sqrt2, sy/sqrt2, sz/sqrt2 (real MPDO data)."""
    els = np.stack([ID2, SX, SY, SZ]) / np.sqrt(2.0)
    return OperatorBasis(elements=els, flavor="pauli")


def linearized_basis():
    """Matrix-unit basis |0><0|, |0><1|, |1><0|, |1><1| (complex MPDO data)."""
    els = np.zeros((4, 2, 2), dtype=complex)
    els[0, 0, 0] = 1.0
    els[1, 0, 1] = 1.0
    els[2, 1, 0] = 1.0
    els[3, 1, 1] = 1.0
    return OperatorBasis(elements=els, flavor="linearized")


# numerator coefficients b_0 .. b_13 of the [13/13] Pade approximant of exp;
# the denominator takes the same with alternating signs
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
# largest 1-norm for which [13/13] Pade is exp to double precision (Higham)
_THETA13 = 5.371920351148152


def expm(a):
    """Matrix exponential of a square array by [13/13] Pade, scaled and squared.

    ``a`` is divided by 2^s so that its 1-norm is at most _THETA13, the Pade
    approximant r = (V - U)^-1 (V + U) is formed from the even (V) and odd
    (U) parts, and r is squared s times.
    """
    a = np.asarray(a)
    norm = np.linalg.norm(a, 1)
    s = max(0, int(np.ceil(np.log2(norm / _THETA13)))) if norm > 0 else 0
    a = a / 2.0 ** s
    b = _PADE13
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def two_site_hamiltonian(p: ModelParams):
    """Bond term -J/4 (sx sx + sy sy) + Delta/4 sz sz on the fused basis."""
    h = (-p.j / 4.0) * (np.kron(SX, SX) + np.kron(SY, SY))
    h += (p.delta / 4.0) * np.kron(SZ, SZ)
    return h


def xxz_propagator(p: ModelParams):
    """t -> exp(-i h2 t) as a 4x4 array, from one eigendecomposition of h2."""
    evals, evecs = np.linalg.eigh(two_site_hamiltonian(p))
    evecs_h = evecs.conj().T

    def gate(t):
        return (evecs * np.exp(-1j * evals * t)[None, :]) @ evecs_h
    return gate


def build_xxz_gate(p: ModelParams, dt: float):
    """Two-site propagator exp(-i h2 dt) as a 4x4 array; dt may be negative."""
    return xxz_propagator(p)(dt)


@dataclass(frozen=True)
class JumpOp:
    site: int
    channel: str            # "+", "-" or "z"
    matrix: np.ndarray = field(repr=False)  # sqrt(rate) * sigma, 2x2
    rate: float = 0.0


def _jump_channels(p: ModelParams):
    """(channel, sqrt(rate) * sigma, rate) for every nonzero rate, order (+, -, z).

    The one jump-channel table: the MPS jump operators, the MPDO site
    dissipator and the dense oracle all build on it.
    """
    channels = []
    if p.gamma_plus > 0:
        channels.append(("+", np.sqrt(p.gamma_plus) * SP, p.gamma_plus))
    if p.gamma_minus > 0:
        channels.append(("-", np.sqrt(p.gamma_minus) * SM, p.gamma_minus))
    if p.gamma_z > 0:
        channels.append(("z", np.sqrt(p.gamma_z) * SZ, p.gamma_z))
    return channels


def build_jump_ops(p: ModelParams):
    """Per-site jump operators for every nonzero rate, site-major order."""
    if p.n_sites is None:
        raise ValueError("jump operators need a finite chain")
    return [JumpOp(site=i, channel=ch, matrix=m, rate=r)
            for i in range(p.n_sites) for (ch, m, r) in _jump_channels(p)]


def _dissipator(ls, x):
    out = np.zeros_like(x)
    for l in ls:
        ldag = l.conj().T
        out += l @ x @ ldag - 0.5 * (ldag @ l @ x + x @ ldag @ l)
    return out


def site_dissipator_matrix(p: ModelParams, basis: OperatorBasis):
    """4x4 expansion of the single-site Lindblad dissipator in the basis."""
    ls = [m for _, m, _ in _jump_channels(p)]
    els = basis.elements
    mat = np.zeros((4, 4), dtype=complex)
    for k in range(4):
        dx = _dissipator(ls, els[k])
        for i in range(4):
            mat[i, k] = np.trace(els[i].conj().T @ dx)
    return mat


def two_site_superop(fn, basis: OperatorBasis):
    """16x16 expansion of an arbitrary two-site superoperator X -> fn(X)."""
    els = basis.elements
    products = [np.kron(els[i], els[j]) for i in range(4) for j in range(4)]
    duals = np.array([x.conj().T for x in products])
    fxs = np.array([fn(x) for x in products], dtype=complex)
    # mat[r, c] = Tr(duals[r] @ fxs[c]), every trace in one contraction
    return np.einsum("rab,cba->rc", duals, fxs)


def two_site_generator(p: ModelParams, basis: OperatorBasis,
                       w_left=0.5, w_right=0.5):
    """Bond generator: Hamiltonian commutator plus weighted site dissipators.

    Single-site Lindblad terms are split half/half onto the two bonds that
    touch a bulk site; chain ends take full weight so each site's dissipator
    is applied exactly once per sweep.
    """
    h2 = two_site_hamiltonian(p)
    ham = two_site_superop(lambda x: -1j * (h2 @ x - x @ h2), basis)
    lmat = site_dissipator_matrix(p, basis)
    gen = ham + w_left * np.kron(lmat, np.eye(4)) + w_right * np.kron(np.eye(4), lmat)
    return gen


def build_super_gate(p: ModelParams, basis: OperatorBasis, dt_fraction: float,
                     w_left=0.5, w_right=0.5):
    """exp(generator * dt_fraction) on the fused two-site operator index.

    Returns the 16x16 array, real in the pauli flavor.
    """
    gate = expm(two_site_generator(p, basis, w_left, w_right) * dt_fraction)
    if basis.flavor == "pauli":
        im = float(np.max(np.abs(gate.imag)))
        if im > 1e-12:
            raise ValueError(f"pauli-flavor super gate has imaginary part {im}")
        gate = np.ascontiguousarray(gate.real)
    return gate


def bond_weights(n_sites):
    """(w_left, w_right) of the site dissipators for each bond of a finite chain."""
    n_bonds = n_sites - 1
    weights = []
    for b in range(n_bonds):
        wl = 1.0 if b == 0 else 0.5
        wr = 1.0 if b == n_bonds - 1 else 0.5
        weights.append((wl, wr))
    return weights


def build_super_gates(p: ModelParams, basis: OperatorBasis, dt_fraction: float):
    """Per-bond super gates for a finite chain (or the bulk gate if infinite).

    Bonds with equal dissipator weights share one gate, so a chain of any
    length builds at most three.
    """
    if p.n_sites is None:
        return [build_super_gate(p, basis, dt_fraction)]
    weights = bond_weights(p.n_sites)
    gates = {w: build_super_gate(p, basis, dt_fraction, *w)
             for w in dict.fromkeys(weights)}
    return [gates[w] for w in weights]
