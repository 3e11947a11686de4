import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconvex.algebra import HermitianTuple
from freeconvex.corpus import ex_no_tracial_extension, sigma_x, sigma_y, sigma_z
import freeconvex.sdp as S
from freeconvex.cp import (ChoiMatrix, InterpolationMode, KrausDecomposition,
                           NotCompletelyPositive, apply_choi, choi_of_kraus,
                           interpolate, interpolation_problem, kraus_of_choi)
from freeconvex.rand import (rng, rand_hermitian, rand_kraus, rand_psd,
                             rand_tuple, rand_unitary)
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


def _nt_points(problem, gen):
    """An NT scaling factor R for each block, from random positive definite
    Z and S of the block's kind."""
    out = []
    for (_, n), herm in zip(problem.blocks, problem.herm):
        z, s = (rand_hermitian(gen, n, real=not herm) for _ in range(2))
        z, s = (x @ x.conj().T + np.eye(n) for x in (z, s))
        if not herm:
            z, s = z.real, s.real
        out.append(S._nt_scaling(z, s)[0])
    return out


def _assert_routes_agree(problem, pre, gen):
    """On the presolve ``pre`` of ``problem``, the Schur complement with the
    factored route on every block that has a factor form equals the dense
    one to rtol 1e-12."""
    if pre.traceless:          # no core rows are made
        return
    assert any(form is not None for form in pre.forms)
    if not len(pre.scale):
        return
    R = _nt_points(problem, gen)
    factored = [pre.factored(k) if form is not None else None
                for k, form in enumerate(pre.forms)]
    fac = S._schur(pre.A_mats, R, factored)
    ref = S._schur(pre.A_mats, R, [None] * len(pre.A_mats))
    assert np.abs(fac - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(list(InterpolationMode)), st.integers(1, 4),
       st.integers(1, 4), st.integers(1, 3), st.booleans(), st.booleans(),
       st.booleans(), st.integers(0, 10_000))
def test_factored_schur_matches_dense(mode, n, m, g, annihilate, bound, real,
                                      seed):
    """On the same presolved rows, the Schur complement assembled from the
    Kronecker factors of the Choi rows equals the dense one to rtol 1e-12:
    every mode, with and without annihilated matrices and the trace bound
    (a row of m units), n != m, real-path and Hermitian data, and a kept
    presolve reused with a new rhs."""
    gen = rng(seed)
    a = rand_tuple(gen, g, n, real=real)
    b, b2 = (rand_tuple(gen, g, m, real=real) for _ in range(2))
    gamma = rand_tuple(gen, 1, n, real=real) if annihilate else None
    trace = 2.0 * n * m if bound else None
    hp = interpolation_problem(a, b, mode, annihilate=gamma,
                               extra_psd_choi_trace=trace)
    problem = hp.build()
    assert not (real and any(problem.herm))
    rows = S._Rows(problem)
    if rows.consistent and rows.keep.size:
        _assert_routes_agree(problem, S._Presolve(rows), gen)
    # a new rhs on the kept presolve: the same Schur complement, and the
    # answer of a fresh problem
    hp.solve()
    again = hp.solve(rhs=dict(enumerate(b2)))
    fresh = interpolation_problem(a, b2, mode, annihilate=gamma,
                                  extra_psd_choi_trace=trace).solve()
    assert again.status is fresh.status
    assert again.info.get("schur") == fresh.info.get("schur")
    if again.info["presolve_reused"]:
        built = hp._op.rows[2]
        _assert_routes_agree(built, built._memo["presolve"], gen)


def test_schur_route_rule():
    """The route is read from the data: the TV grids' drop and polar blocks
    and a 3 x 3 channel map stay dense, channel maps from n = m = 4 up are
    factored, also with the ex situ trace bound, and the route shows in
    info["schur"]."""
    from freeconvex.algebra import monic_tuple
    from freeconvex.corpus import scalar_tuple, tv_lift, tv_monic_lift
    from freeconvex.spectra import (Spectrahedrop, drop_membership,
                                    drop_polar_membership)
    x = scalar_tuple(0.3, -0.2)
    assert drop_membership(Spectrahedrop(tv_lift()), x).info["schur"] == ("dense",)
    tvm = Spectrahedrop(tv_monic_lift())
    for bounded in (True, False):
        res = drop_polar_membership(tvm, x, bounded=bounded)
        assert set(res.info["schur"]) == {"dense"}
        problem = tvm._memo["polar", bounded, 1]
        assert problem.build().kron[0] is not None   # factored form, dense route
    omega, gamma = monic_tuple(tv_monic_lift())
    assert interpolate(omega, x, "subunital", annihilate=gamma).info["schur"] \
        == ("dense", "dense")
    gen = rng(5)
    for n, route in [(3, "dense"), (4, "factored"), (5, "factored")]:
        ops = rand_kraus(gen, n, n, 3, normalize="channel")
        a = rand_tuple(gen, 3, n)
        b = HermitianTuple([sum(v.conj().T @ aj @ v for v in ops) for aj in a])
        res = interpolate(a, b, "channel")
        assert res.feasible and res.info["schur"] == (route,)
    # the trace bound is a row of the Choi block's factor form; its slack
    # block is a dense 1 x 1
    res = interpolate(a, b, "channel", extra_psd_choi_trace=10.0)
    assert res.feasible and res.info["schur"] == ("factored", "dense")


def _choi_rows(groups, n, m, seed, real=False):
    """A feasibility problem over one n m x n m Choi block with the
    add_matrix_eq term lists ``groups`` and random rhs."""
    gen = rng(seed)
    hp = S.HermitianProblem()
    hp.add_block("C", n * m)
    for terms in groups:
        k = m if terms[0][0] == "apply" else n
        hp.add_matrix_eq(terms, rand_hermitian(gen, k, real=real))
    return hp


def test_factor_form_needs_one_kind_of_term():
    """A block keeps its factor form only when every group's terms on it are
    of one kind: "apply" with a Hermitian A, or "blocktrace" with one real
    nonzero scale throughout."""
    a = rand_tuple(rng(6), 2, 3)
    apply0 = [("apply", "C", a[0], 2)]
    for groups, form in [
            ([apply0], True),
            ([apply0, [("blocktrace", "C", 2, 2.5)]], True),
            ([apply0, [("apply", "C", a[0], 2), ("apply", "C", a[1], 2)]], True),
            ([apply0, [("apply", "C", a[0] + 0.1j * np.eye(3), 2)]], False),
            ([apply0, [("blocktrace", "C", 2, 1j)]], False),
            ([apply0, [("blocktrace", "C", 2, 1.0)],
              [("blocktrace", "C", 2, 2.0)]], False),
            ([apply0, [("blocktrace", "C", 2, 0.0)]], False),
            ([apply0, [("apply", "C", a[1], 2), ("blocktrace", "C", 2, 1.0)]],
             False)]:
        problem = _choi_rows(groups, 3, 2, 0).build()
        assert (problem.kron[0] is not None) is form


@pytest.mark.parametrize("real", [True, False])
def test_factored_schur_with_scaled_trace_rows(real):
    """Trace rows with a scale other than 1 and summed apply terms: the
    factored Schur complement equals the dense one."""
    gen = rng(7)
    a = rand_tuple(gen, 3, 3, real=real)
    hp = _choi_rows([[("apply", "C", a[0], 4)],
                     [("apply", "C", a[1], 4), ("apply", "C", a[2], 4)],
                     [("blocktrace", "C", 4, -2.5)]], 3, 4, 1, real)
    problem = hp.build()
    assert not (real and any(problem.herm)) and problem.kron[0] is not None
    _assert_routes_agree(problem, S._Presolve(S._Rows(problem)), gen)


def _sum_form_problem(A, perm, gen):
    """A 2 x 3 factor form on one 6 x 6 block: four rows of one, two, one
    and two units, the last row naming one cell twice."""
    row = np.array([0, 1, 1, 2, 3, 3])
    unit = np.array([0, 4, 9 + 5, 9 + 3, 7, 9 + 7])
    hp = S.HermitianProblem()
    hp.add_block("C", 6)
    hp.add_complex_row({}, gen.normal(size=4) + 1j * gen.normal(size=4),
                       kron={"C": (A, perm, row, unit)})
    ref = np.zeros((4, 6, 6), dtype=complex)
    for p, u in zip(row, unit):
        k, rs = divmod(u, 9)
        ref[p][np.ix_(perm, perm)] += np.kron(A[k], np.eye(9)[rs].reshape(3, 3))
    return hp, ref


def test_add_complex_row_factor_form():
    """add_complex_row makes a block's rows from their factor form, F_p the
    sum of A_k (x) E_rs over row p's units in the permuted basis; it keeps
    the form, with perm None for the block's own order (as for Choi rows),
    only when every A_k is Hermitian, and the factored Schur complement
    equals the dense one.  A malformed form, or a block given as data and
    as factors, raises."""
    gen = rng(9)
    A = np.array([rand_hermitian(gen, 2) for _ in range(2)])
    perm = gen.permutation(6)
    hp, ref = _sum_form_problem(A, perm, gen)
    assert np.allclose(hp._groups[0][0]["C"], ref, rtol=0, atol=1e-15)
    problem = hp.build()
    assert np.array_equal(problem.kron[0].perm, perm)
    _assert_routes_agree(problem, S._Presolve(S._Rows(problem)), gen)
    assert _sum_form_problem(A, np.arange(6), gen)[0].build().kron[0].perm is None
    assert _choi_rows([[("apply", "C", A[0], 3)]], 2, 3, 0).build().kron[0].perm is None
    skew = A + np.array([[[0, 1], [0, 0]]])
    hp, ref = _sum_form_problem(skew, perm, gen)
    assert np.allclose(hp._groups[0][0]["C"], ref, rtol=0, atol=1e-15)
    assert hp.build().kron[0] is None
    for bad in [(A, perm, [0, 1, 1, 3], [0, 1, 2, 3]),     # row 2 has no unit
                (A, perm, [0, 1, 2, 3], [0, 1, 2, 18]),    # no A_2
                (A, perm[:5], [0, 1, 2, 3], [0, 1, 2, 3]),
                (A[:, :1], perm, [0, 1, 2, 3], [0, 1, 2, 3])]:
        with pytest.raises(ValueError, match="malformed factor form"):
            hp.add_complex_row({}, np.zeros(4), kron={"C": bad})
    with pytest.raises(ValueError, match="as data and as factors"):
        hp.add_complex_row({"C": np.zeros((4, 6, 6))}, np.zeros(4),
                           kron={"C": (A, perm, [0, 1, 2, 3], [0, 1, 2, 3])})
