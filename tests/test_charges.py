"""Charge labels and the block SVD of the bond kernel: Z2 on the MPDO, U(1)
on the trajectory MPS."""

import numpy as np
import pytest

from openchain import kernels, mpdo, mps
from openchain.models import ModelParams, build_xxz_gate, linearized_basis, \
    pauli_basis
from openchain.kernels import _keep_count

BASES = [pauli_basis(), linearized_basis()]
RATES = dict(gamma_plus=0.3, gamma_minus=0.5, gamma_z=0.2)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
UP = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def evolve(st, p, dt, steps, chi, cutoff):
    gates = mpdo.build_trotter4_gates(p, st.basis, dt)
    for _ in range(steps):
        mpdo.trotter4_step(st, gates, chi, cutoff)
        mpdo.renormalize_trace(st)
    return st


def unlabelled(st):
    out = st.copy()
    out.charges = None
    return out


# -- the one truncation rule ---------------------------------------------------

def old_kernel_keep(s, chi_max, cutoff):
    """The loop of the bond kernel before it called _keep_count."""
    keep = 1
    if s[0] > 0.0:
        keep = 0
        for k in range(min(chi_max, s.shape[0])):
            if s[k] >= cutoff * s[0]:
                keep = k + 1
            else:
                break
        keep = max(keep, 1)
    return keep


def old_reorth_keep(s, chi, cutoff):
    """The inline rule of reorthogonalize before it called _keep_count."""
    return max(1, min(int(np.sum(s >= cutoff * s[0])), chi)) if s[0] > 0 else 1


def spectra(rng):
    for n in (1, 2, 7, 40):
        yield np.sort(rng.random(n))[::-1]
        yield np.sort(rng.random(n) ** 8)[::-1]          # wide dynamic range
    yield np.zeros(5)                                     # s0 = 0
    yield np.array([1.0, 0.5, 0.5, 0.5, 0.1])             # ties across the cap
    yield np.array([1.0, 1e-3, 1e-3, 1e-4])               # ties at the cutoff
    yield np.array([2.0, 2.0, 0.0, 0.0])                  # trailing zeros


def test_keep_count_matches_the_three_old_rules():
    rng = np.random.default_rng(5)
    for s in spectra(rng):
        for chi in (1, 2, 3, 64):
            for cutoff in (0.0, 1e-14, 1e-3, 0.5, 1.0):
                new = _keep_count(s, chi, cutoff)
                assert new == old_kernel_keep(s, chi, cutoff), (s, chi, cutoff)
                assert new == old_reorth_keep(s, chi, cutoff), (s, chi, cutoff)


# -- labels --------------------------------------------------------------------

@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.flavor)
def test_site_parities_are_even_odd_odd_even(basis):
    assert basis.parities().tolist() == [0, 1, 1, 0]


def test_neel_labels_and_copy():
    st = mpdo.neel_mpdo(6, BASES[0])
    assert [q.tolist() for q in st.charges] == [[0]] * 5
    dup = st.copy()
    assert dup.charges is not st.charges
    assert all(a is not b and np.array_equal(a, b)
               for a, b in zip(dup.charges, st.charges))
    cell = mpdo.neel_mpdo(None, BASES[0])
    assert [q.tolist() for q in cell.charges] == [[0], [0]]


def test_mixed_parity_product_is_unlabelled():
    assert mpdo.product_mpdo([PLUS, UP, UP, UP], BASES[0]).charges is None
    assert mpdo.product_mpdo([UP, UP, UP, UP], BASES[1]).charges is not None


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.flavor)
def test_labels_hold_after_fused_steps(basis):
    p = ModelParams(n_sites=8, **RATES)
    st = evolve(mpdo.neel_mpdo(8, basis), p, 0.1, 4, chi=32, cutoff=1e-12)
    mpdo.canonicalize(st, 32, 1e-12)
    parity = basis.parities()
    edge = np.zeros(1, dtype=np.int64)
    qs = [edge] + st.charges + [edge]
    assert max(st.bond_dims()) == 32
    for k, gam in enumerate(st.tensors):
        odd = (qs[k][:, None, None] + parity[None, :, None]
               + qs[k + 1][None, None, :]) % 2 == 1
        assert odd.any()
        assert np.all(gam[odd] == 0.0)
    for q, lam in zip(st.charges, st.lambdas):
        assert len(q) == len(lam)


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.flavor)
def test_labelled_run_matches_unlabelled_without_truncation(basis):
    p = ModelParams(n_sites=6, **RATES)
    chi, cutoff = 256, 0.0
    lab = mpdo.neel_mpdo(6, basis)
    plain = unlabelled(lab)
    for st in (lab, plain):
        evolve(st, p, 0.2, 3, chi, cutoff)
        mpdo.canonicalize(st, chi, cutoff)
    assert lab.charges is not None and plain.charges is None
    assert lab.bond_dims() == plain.bond_dims() == [4, 16, 64, 16, 4]
    assert np.max(np.abs(mpdo.all_sz(lab) - mpdo.all_sz(plain))) <= 1e-10
    for a, b in zip(lab.lambdas, plain.lambdas):
        assert np.max(np.abs(np.sort(a) - np.sort(b))) <= 1e-10


def test_sector_coupling_gate_raises_on_labelled_chain_only():
    p = ModelParams(n_sites=6, **RATES)
    st = evolve(mpdo.neel_mpdo(6, BASES[0]), p, 0.2, 1, chi=64, cutoff=1e-12)
    gate = np.random.default_rng(3).standard_normal((16, 16))
    with pytest.raises(ValueError, match=r"bond 2 .*off-block entry \d"):
        kernels.apply_schedule(st.copy(), [(2, gate)], 64, 1e-12)
    plain = unlabelled(st)
    kernels.apply_schedule(plain, [(2, gate)], 64, 1e-12)
    assert plain.max_trunc_weight >= 0.0 and plain.charges is None


def test_layers_check_each_distinct_gate_once(monkeypatch):
    p = ModelParams(n_sites=8, **RATES)
    st = mpdo.neel_mpdo(8, BASES[0])
    gates = mpdo.build_trotter4_gates(p, st.basis, 0.1)
    checked = []
    check = kernels._check_gate_sectors

    def counting_check(gate, site_parity, bond):
        checked.append(id(gate))
        check(gate, site_parity, bond)

    monkeypatch.setattr(kernels, "_check_gate_sectors", counting_check)
    mpdo.trotter4_step(st, gates, 16, 1e-12)
    mpdo.trotter4_step(unlabelled(st), gates, 16, 1e-12)
    distinct = {id(g) for table in gates.values() for g in table}
    assert sorted(checked) == sorted(distinct)


def test_sector_coupling_gate_in_a_layer_raises_before_any_update():
    p = ModelParams(n_sites=6, **RATES)
    st = evolve(mpdo.neel_mpdo(6, BASES[0]), p, 0.2, 1, chi=64, cutoff=1e-12)
    gates = mpdo.build_trotter4_gates(p, st.basis, 0.2)
    bad = np.random.default_rng(3).standard_normal((16, 16))
    gates[2] = [bad if b == 3 else g for b, g in enumerate(gates[2])]
    before = st.copy()
    with pytest.raises(ValueError, match=r"bond 3 .*off-block entry \d"):
        mpdo.trotter4_step(st, gates, 64, 1e-12)
    assert all(np.array_equal(a, b) for a, b in zip(st.tensors, before.tensors))


def test_kernel_returns_labels_last():
    rng = np.random.default_rng(8)
    st = evolve(mpdo.neel_mpdo(4, BASES[0]), ModelParams(n_sites=4, **RATES),
                0.2, 1, chi=16, cutoff=1e-12)
    lam_l, lam_r = st.lambdas[0], st.lambdas[2]
    labels = (st.charges[0], BASES[0].parities(), st.charges[2])
    args = (lam_l, st.tensors[1], st.lambdas[1], st.tensors[2], lam_r)
    for push in ("right", "left"):
        out = kernels.bond_update_nogate(*args, push, 16, 1e-12, labels, 2,
                                         st.charges[1])
        plain = kernels.bond_update_nogate(*args, push, 16, 1e-12)
        assert len(out) == len(plain) == 6 and plain[5] is None
        assert len(out[5]) == len(out[1]) == len(plain[1])
        assert np.max(np.abs(out[1] - plain[1])) <= 1e-12
    gate = rng.standard_normal((16, 16))
    assert len(kernels.bond_update(*args, gate, 16, 1e-12)) == 6


# -- U(1) labels of the trajectory MPS -------------------------------------------

UP_KET, DOWN_KET = [1.0, 0.0], [0.0, 1.0]


def u1_theta(rng, q_l, q_r):
    """Random complex two-site theta that is zero between U(1) sectors."""
    site = np.array([0, 1])
    row_q = (q_l[:, None] + site[None, :]).ravel()
    col_q = (q_r[None, :] - site[:, None]).ravel()
    shape = (len(row_q), len(col_q))
    theta = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return theta * (row_q[:, None] == col_q[None, :])


def test_u1_split_equals_unlabelled_split_without_truncation():
    rng = np.random.default_rng(21)
    q_l = np.array([0, 1, 1, 2, 0, 1])
    for q_r in (np.array([1, 2, 2, 3, 1, 0, 2]),   # an inner bond
                np.array([3])):                     # a right outer bond, odd total
        dl, dr = len(q_l), len(q_r)
        theta = u1_theta(rng, q_l, q_r)
        plain = kernels._split_theta(theta, dl, 2, dr, 64, 0.0)
        lab = kernels._split_theta(theta, dl, 2, dr, 64, 0.0,
                                   (q_l, np.array([0, 1]), q_r), modulus=None)
        nonzero = plain[1] > 1e-12
        assert np.max(np.abs(lab[1] - plain[1][:len(lab[1])])) <= 1e-12
        assert np.max(plain[1][len(lab[1]):], initial=0.0) <= 1e-12
        assert len(lab[1]) >= nonzero.sum()
        assert abs(lab[3] - plain[3]) <= 1e-12 and lab[4] == 0.0
        rebuilt = (lab[0].reshape(dl * 2, -1) * lab[1][None, :]) \
            @ lab[2].reshape(-1, 2 * dr)
        assert np.max(np.abs(lab[3] * rebuilt - theta)) <= 1e-12
        assert sorted(set(lab[5].tolist())) == sorted(
            set((q_l[:, None] + [0, 1]).ravel()) & set((q_r[None, :] - [[0], [1]]).ravel()))


def test_u1_chain_with_odd_total_matches_unlabelled_chain():
    # five sites, three down spins: the last bond's right edge carries 3
    kets = [UP_KET, DOWN_KET, DOWN_KET, UP_KET, DOWN_KET]
    lab = mps.label_charges(mps.product_mps(kets))
    plain = mps.product_mps(kets)
    assert lab.total_charge == 3
    assert [q.tolist() for q in lab.charges] == [[0], [1], [2], [2]]
    gate = build_xxz_gate(ModelParams(n_sites=5, delta=0.7), 0.3)
    for st in (lab, plain):
        for transposed in (False, True, False, True):
            mps.sweep(st, gate, 64, 0.0, transposed=transposed)
    for a, b in zip(lab.lambdas, plain.lambdas):
        assert np.max(np.abs(a - b[:len(a)])) <= 1e-12
        assert np.max(b[len(a):], initial=0.0) <= 1e-12
    vec_l = mps.to_dense(lab) * np.exp(lab.log_scale)
    vec_p = mps.to_dense(plain) * np.exp(plain.log_scale)
    assert np.max(np.abs(vec_l - vec_p)) <= 1e-12
    assert abs(lab.log_scale - plain.log_scale) <= 1e-12


def test_u1_gate_check_has_no_modulus():
    # |uu> <-> |dd> keeps the pair parity but moves S^z by two
    flip = np.eye(4, dtype=complex)
    flip[[0, 3], [0, 3]] = 0.0
    flip[0, 3] = flip[3, 0] = 1.0
    lab = mps.label_charges(mps.product_mps([UP_KET, UP_KET]))
    with pytest.raises(ValueError, match=r"bond 0 couples U\(1\) charge sectors"):
        kernels.apply_schedule(lab, [(0, flip)], 8, 0.0)
    z2 = kernels.Chain([], [], charges=[], site_charge=np.array([0, 1]),
                       modulus=2)
    kernels._check_gate_sectors(flip, z2, 0)   # the Z2 pair parity allows it
