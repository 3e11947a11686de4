import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconvex.algebra import HermitianTuple
from freeconvex.corpus import ex_no_tracial_extension, sigma_x, sigma_y, sigma_z
from freeconvex.cp import (ChoiMatrix, InterpolationMode, KrausDecomposition,
                           NotCompletelyPositive, apply_choi, choi_of_kraus,
                           interpolate, kraus_of_choi)
from freeconvex.rand import rng, rand_hermitian, rand_kraus, rand_psd, rand_unitary
from freeconvex.sdp import SolveStatus


def test_identity_map_choi():
    c = choi_of_kraus(KrausDecomposition([np.eye(3, dtype=complex)]))
    w = np.linalg.eigvalsh(c.C)
    assert abs(np.trace(c.C).real - 3.0) < 1e-12
    assert int((w > 1e-10).sum()) == 1
    x = rand_hermitian(rng(0), 3)
    assert np.abs(apply_choi(c, x) - x).max() < 1e-12


def test_zero_map():
    c = choi_of_kraus(KrausDecomposition([], n=2, m=3))
    assert np.abs(c.C).max() == 0.0
    assert len(kraus_of_choi(c)) == 0


def test_conjugation_choi_entries():
    v = np.diag([np.sqrt(0.5), np.sqrt(1.5)]).astype(complex)
    c = choi_of_kraus(KrausDecomposition([v]))
    s32 = np.sqrt(3) / 2
    assert abs(c.block(0, 0)[0, 0] - 0.5) < 1e-12
    assert abs(c.block(1, 1)[1, 1] - 1.5) < 1e-12
    assert abs(c.block(0, 1)[0, 1] - s32) < 1e-12
    assert abs(c.block(0, 1)[1, 0]) < 1e-12
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    assert np.abs(apply_choi(c, e12) - s32 * e12).max() < 1e-12


def test_depolarizing_kills_sigma_z():
    kd = KrausDecomposition([p.astype(complex) / 2
                             for p in (np.eye(2), sigma_x, sigma_y, sigma_z)])
    c = choi_of_kraus(kd)
    assert np.abs(c.C - np.eye(4) / 2).max() < 1e-12
    assert np.abs(apply_choi(c, sigma_z)).max() < 1e-12


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_choi_kraus_round_trip(seed):
    gen = rng(seed)
    n = int(gen.integers(1, 5))
    m = int(gen.integers(1, 5))
    count = int(gen.integers(1, 7))
    c = choi_of_kraus(KrausDecomposition(rand_kraus(gen, n, m, count)))
    c2 = choi_of_kraus(kraus_of_choi(c))
    assert np.abs(c2.C - c.C).max() <= 1e-8


def test_kraus_of_choi_rejects_negative():
    with pytest.raises(NotCompletelyPositive):
        kraus_of_choi(ChoiMatrix(2, 2, np.diag([1.0, -0.1, 1.0, 1.0])))


def _ampliate(c: ChoiMatrix, x: np.ndarray, ell: int) -> np.ndarray:
    n, m = c.n, c.m
    out = np.zeros((ell * m, ell * m), dtype=complex)
    for a in range(ell):
        for b in range(ell):
            out[a * m:(a + 1) * m, b * m:(b + 1) * m] = \
                apply_choi(c, x[a * n:(a + 1) * n, b * n:(b + 1) * n])
    return out


def test_psd_choi_iff_ampliation_positive():
    gen = rng(23)
    for _ in range(10):
        n = int(gen.integers(1, 4))
        m = int(gen.integers(1, 4))
        c = ChoiMatrix(n, m, rand_psd(gen, n * m))
        for _ in range(5):
            x = rand_psd(gen, 2 * n)
            lam = np.linalg.eigvalsh(_ampliate(c, x, 2))[0]
            assert lam >= -1e-8
    # a non-PSD Choi fails complete positivity at the entangled witness
    bad = ChoiMatrix(2, 2, np.diag([1.0, 1.0, 1.0, -0.5]))
    ent = np.zeros((4, 4), dtype=complex)
    for p in range(2):
        for q in range(2):
            ent[p * 2 + p, q * 2 + q] = 1.0    # sum E_pq (x) E_pq, PSD
    lam = np.linalg.eigvalsh(_ampliate(bad, ent, 2))[0]
    assert lam < -1e-8


def test_interpolate_identity_unital():
    a = HermitianTuple([sigma_z])
    r = interpolate(a, a, InterpolationMode.UNITAL)
    assert bool(r)
    w = r.choi.block_sum_diag()
    assert np.abs(w - np.eye(2)).max() <= 1e-6


def test_interpolate_depolarize_channel():
    a = HermitianTuple([sigma_z])
    b = HermitianTuple([np.zeros((1, 1))])
    r = interpolate(a, b, "channel")
    assert bool(r)
    assert np.abs(r.choi.trace_matrix() - np.eye(2)).max() <= 1e-6


def test_interpolate_trace_obstruction():
    a = HermitianTuple([np.diag([1.0, 0.0])])
    b = HermitianTuple([np.diag([0.5, -0.5])])
    assert not bool(interpolate(a, b, "channel"))


def test_operator_system_example_modes():
    a, b = ex_no_tracial_extension()
    r = interpolate(a, b, InterpolationMode.CP)
    assert bool(r)
    c4 = r.choi.as_tensor()
    for aj, bj in zip(a, b):
        out = np.einsum("pq,piqj->ij", aj, c4)
        assert np.abs(out - bj).max() <= 1e-6
    r = interpolate(a, b, InterpolationMode.OPERATION)
    assert not bool(r)
    assert r.margin <= -1e-7


def test_mode_monotonicity():
    # CHANNEL-feasible implies OPERATION-feasible implies CP-feasible
    gen = rng(31)
    for _ in range(6):
        n, m, g = 2, 2, 2
        ops = rand_kraus(gen, n, m, 3, normalize="channel")
        a = HermitianTuple([rand_hermitian(gen, n) for _ in range(g)])
        b = HermitianTuple([sum(v.conj().T @ aj @ v for v in ops) for aj in a])
        chan = interpolate(a, b, "channel")
        oper = interpolate(a, b, "operation")
        cp = interpolate(a, b, "cp")
        assert bool(chan) and bool(oper) and bool(cp)


def test_mode_constraints_on_witnesses():
    gen = rng(37)
    a = HermitianTuple([rand_hermitian(gen, 2) for _ in range(2)])
    # unital witness
    ops = rand_kraus(gen, 2, 3, 3, normalize="unital")
    b = HermitianTuple([sum(v.conj().T @ aj @ v for v in ops) for aj in a])
    r = interpolate(a, b, "unital")
    assert bool(r)
    assert np.abs(r.choi.block_sum_diag() - np.eye(3)).max() <= 1e-6
    # channel witness preserves traces of random inputs
    ops = rand_kraus(gen, 2, 3, 3, normalize="channel")
    b = HermitianTuple([sum(v.conj().T @ aj @ v for v in ops) for aj in a])
    r = interpolate(a, b, "channel")
    assert bool(r)
    for _ in range(5):
        x = rand_hermitian(gen, 2)
        out = apply_choi(r.choi, x)
        assert abs(np.trace(out).real - np.trace(x).real) <= 1e-6
    # operation witness never increases the trace of PSD inputs
    ops = rand_kraus(gen, 2, 3, 3, normalize="operation")
    b = HermitianTuple([sum(v.conj().T @ aj @ v for v in ops) for aj in a])
    r = interpolate(a, b, "operation")
    assert bool(r)
    for _ in range(5):
        p = rand_psd(gen, 2)
        out = apply_choi(r.choi, p)
        assert np.trace(out).real <= np.trace(p).real + 1e-6


def test_interpolate_status_unitary_invariance():
    gen = rng(41)
    a, b = ex_no_tracial_extension()
    for mode, expect in (("cp", True), ("operation", False)):
        for _ in range(3):
            u = rand_unitary(gen, 2)
            w = rand_unitary(gen, 2)
            au = a.conjugate(u)
            bw = b.conjugate(w)
            assert bool(interpolate(au, bw, mode)) == expect


def test_subunital_with_annihilation():
    from freeconvex.algebra import monic_tuple
    from freeconvex.corpus import scalar_tuple, tv_monic_lift

    # a point of the TV screen's polar dual: Phi(W_j) = X_j, Phi(G) = 0
    omega, gamma = monic_tuple(tv_monic_lift())
    x = scalar_tuple(0.5, 0.5)
    r = interpolate(omega, x, "subunital", annihilate=gamma)
    assert r.status is SolveStatus.FEASIBLE
    assert r.mode is InterpolationMode.SUBUNITAL
    assert r.choi.lambda_min() >= -1e-8
    phi_i = r.choi.block_sum_diag()
    assert np.linalg.eigvalsh(np.eye(phi_i.shape[0]) - phi_i)[0] >= -1e-8
    for gk in gamma:
        assert np.abs(apply_choi(r.choi, gk)).max() <= 1e-6
    for wj, xj in zip(omega, x):
        assert np.abs(apply_choi(r.choi, wj) - xj).max() <= 1e-6
    # {x >= -1} is unbounded: -1/2 is in its polar dual [-1, 0] through a
    # contraction Phi(1) = 1/2 only, so unital fails where subunital holds
    w = HermitianTuple([np.array([[-1.0]])])
    half = HermitianTuple([np.array([[-0.5]])])
    assert interpolate(w, half, "unital").status is SolveStatus.INFEASIBLE
    r = interpolate(w, half, "subunital")
    assert r.status is SolveStatus.FEASIBLE
    assert abs(r.choi.block_sum_diag()[0, 0].real - 0.5) <= 1e-6
