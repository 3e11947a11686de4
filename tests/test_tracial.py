import numpy as np
import pytest

from freeconvex.algebra import HermitianTuple
from freeconvex.corpus import (ex_nocon_pair, ex_nocon_single, interval_tuple,
                               scalar_tuple)
from freeconvex import tracial
from freeconvex.cp import (InterpolationMode, InterpolationResult,
                           kraus_of_choi)
from freeconvex.rand import rng, rand_complex, rand_hermitian, rand_unitary
from freeconvex.sdp import SolveStatus
from freeconvex.spectra import polar_membership
from freeconvex.tracial import (cthull_membership, exsitu_dual_membership,
                                insitu_dual_check, opp_tracial_membership,
                                thull_membership, tracial_membership)

B_SCALAR = scalar_tuple(1.0)


def positive_part_trace(m):
    return float(np.clip(np.linalg.eigvalsh(m), 0, None).sum())


def test_zero_tuple_member():
    y = HermitianTuple([np.zeros((2, 2))] * 2)
    assert bool(tracial_membership(scalar_tuple(1.0, -2.0), y))


def test_scalar_fixed_positive_part_oracle():
    res = tracial_membership(B_SCALAR, HermitianTuple([np.diag([0.6, -5.0])]))
    assert bool(res)
    t = res.witness["T"]
    assert np.trace(t).real <= 1 + 1e-8
    assert np.linalg.eigvalsh(t)[0] >= -1e-8
    assert not bool(tracial_membership(B_SCALAR,
                                       HermitianTuple([np.diag([0.6, 0.6])])))


def test_scalar_oracle_sweep():
    gen = rng(11)
    for _ in range(20):
        m = int(gen.integers(1, 4))
        y = rand_hermitian(gen, m)
        plus = positive_part_trace(y)
        if abs(plus - 1.0) < 1e-6:
            continue
        got = bool(tracial_membership(B_SCALAR, HermitianTuple([y])))
        assert got == (plus <= 1.0), (plus, got)


def test_opp_scalar_fixed_largest_eigenvalue_oracle():
    # with the fixed tuple scalar the witness is a scalar on its leg, so
    # membership asks for the largest eigenvalue of the query to be <= 1
    y_fixed = scalar_tuple(1.0)
    assert bool(opp_tracial_membership(y_fixed,
                                       HermitianTuple([np.diag([0.6, -5.0])])))
    assert bool(opp_tracial_membership(y_fixed,
                                       HermitianTuple([np.diag([0.6, 0.6])])))
    assert not bool(opp_tracial_membership(y_fixed,
                                           HermitianTuple([np.diag([1.5, 0.0])])))
    assert bool(opp_tracial_membership(y_fixed,
                                       HermitianTuple([np.zeros((2, 2))])))
    gen = rng(2)
    for _ in range(10):
        b = rand_hermitian(gen, 3)
        lmax = float(np.linalg.eigvalsh(b)[-1])
        if abs(lmax - 1.0) < 1e-6:
            continue
        got = bool(opp_tracial_membership(y_fixed, HermitianTuple([b])))
        assert got == (lmax <= 1.0)


def test_contractive_traciality_invariant():
    gen = rng(5)
    checked = 0
    while checked < 12:
        k = int(gen.integers(1, 3))
        m = int(gen.integers(1, 4))
        gv = int(gen.integers(1, 3))
        b = HermitianTuple([rand_hermitian(gen, k) for _ in range(gv)])
        y = HermitianTuple([rand_hermitian(gen, m, scale=0.4)
                            for _ in range(gv)])
        if not tracial_membership(b, y).feasible:
            continue
        nops = int(gen.integers(1, 4))
        mp = int(gen.integers(1, 4))
        cs = [rand_complex(gen, mp, m, 0.5) for _ in range(nops)]
        s = sum(c.conj().T @ c for c in cs)
        lam = float(np.linalg.eigvalsh(s)[-1])
        if lam > 1.0:
            cs = [c / np.sqrt(lam * 1.0001) for c in cs]
        y2 = HermitianTuple([sum(c @ yj @ c.conj().T for c in cs) for yj in y])
        assert tracial_membership(b, y2).feasible
        checked += 1


def test_levelwise_convexity_invariant():
    gen = rng(6)
    checked = 0
    while checked < 8:
        b = HermitianTuple([rand_hermitian(gen, 2) for _ in range(2)])
        y1 = HermitianTuple([rand_hermitian(gen, 2, scale=0.3)
                             for _ in range(2)])
        y2 = HermitianTuple([rand_hermitian(gen, 2, scale=0.3)
                             for _ in range(2)])
        r1 = tracial_membership(b, y1)
        r2 = tracial_membership(b, y2)
        if not (r1.feasible and r2.feasible):
            continue
        s = float(gen.uniform(0.0, 1.0))
        mid = HermitianTuple([s * a + (1 - s) * c for a, c in zip(y1, y2)])
        assert tracial_membership(b, mid).feasible
        # the averaged witness certifies directly
        t = s * r1.witness["T"] + (1 - s) * r2.witness["T"]
        assert np.trace(t).real <= 1 + 1e-7
        checked += 1


def test_thull_identity_and_unitary():
    gen = rng(7)
    a = HermitianTuple([rand_hermitian(gen, 2) for _ in range(2)])
    assert bool(thull_membership(a, a))
    u = rand_unitary(gen, 2)
    assert bool(thull_membership(a, a.conjugate(u)))


def test_thull_trace_obstruction():
    a, b = ex_nocon_single()
    assert not bool(thull_membership(a, b))


def test_cthull_examples():
    gen = rng(8)
    a = HermitianTuple([rand_hermitian(gen, 2) for _ in range(2)])
    assert bool(cthull_membership(a, HermitianTuple([0.5 * m for m in a])))
    assert bool(cthull_membership(
        a, HermitianTuple([np.zeros((2, 2))] * 2)))


def test_cthull_midpoint_escapes_union():
    a, b, d = ex_nocon_pair()
    res = cthull_membership([a, b], d)
    assert not bool(res)
    assert all(m <= -1e-7 for m in res.detail["margins"])


def test_hull_margin_is_the_largest_generator_margin():
    a, b, d = ex_nocon_pair()
    for gens, inside in (([a, b], False), ([b, a], False), ([a, b, d], True)):
        res = cthull_membership(gens, d)
        assert res.margin == max(res.detail["margins"])
        assert res.feasible is inside


@pytest.mark.parametrize("forced, want", [
    ((None, "ERROR"), "ERROR"), (("ERROR", "ERROR"), "ERROR"),
    (("MARGINAL", "ERROR"), "ERROR"), ((None, "MARGINAL"), "MARGINAL")],
    ids=["infeasible-error", "error-error", "marginal-error",
         "infeasible-marginal"])
def test_hull_status_precedence(monkeypatch, forced, want):
    """No FEASIBLE generator: an ERROR one decides before a MARGINAL one,
    and both before the INFEASIBLE ones (None runs the real solve)."""
    a, b, d = ex_nocon_pair()
    solve = tracial.interpolate
    answers = iter(forced)

    def interpolate(*args, **kwargs):
        status = next(answers)
        if status is None:
            return solve(*args, **kwargs)
        return InterpolationResult(SolveStatus(status),
                                   mode=InterpolationMode.OPERATION)
    monkeypatch.setattr(tracial, "interpolate", interpolate)
    res = cthull_membership([a, b], d)
    assert res.status is SolveStatus(want)
    assert list(res.detail["per_generator"]) == [s or "INFEASIBLE"
                                                 for s in forced]


def test_hull_nesting():
    # trace preserving maps are trace non-increasing
    gen = rng(9)
    for _ in range(6):
        a = HermitianTuple([rand_hermitian(gen, 2) for _ in range(2)])
        from freeconvex.rand import rand_kraus
        ops = rand_kraus(gen, 2, 2, 2, normalize="channel")
        b = HermitianTuple([sum(v.conj().T @ m @ v for v in ops) for m in a])
        assert bool(thull_membership(a, b))
        assert bool(cthull_membership(a, b))


def test_exsitu_scalar_oracle():
    om = interval_tuple(-1.0, 1.0)
    assert bool(exsitu_dual_membership(om, scalar_tuple(0.0)))
    r = exsitu_dual_membership(om, scalar_tuple(0.5))
    assert bool(r)
    assert np.trace(r.choi.C).real <= 1 + 1e-6
    assert not bool(exsitu_dual_membership(om, scalar_tuple(1.5)))


def test_exsitu_sms_factorization():
    # every member factors as S M S with tr S^2 <= 1 and M in the polar dual
    om = interval_tuple(-1.0, 1.0)
    gen = rng(10)
    checked = 0
    while checked < 5:
        y = HermitianTuple([rand_hermitian(gen, int(gen.integers(1, 4)),
                                           scale=0.3)])
        res = exsitu_dual_membership(om, y)
        if not res.feasible:
            continue
        kd = kraus_of_choi(res.choi, rank_tol=1e-8)
        s2 = sum(v.conj().T @ v for v in kd.ops) if len(kd) else \
            np.zeros((y.dim, y.dim))
        assert np.trace(s2).real <= 1 + 1e-6
        w, vecs = np.linalg.eigh(s2)
        keep = w > 1e-7
        if not keep.any():
            assert y.norm() <= 1e-6
            checked += 1
            continue
        s_half_inv = (vecs[:, keep] * (w[keep] ** -0.5)) @ vecs[:, keep].conj().T
        m = HermitianTuple([s_half_inv @ yj @ s_half_inv for yj in y])
        assert bool(polar_membership(om, m, bounded=True))
        # reconstruct Y = S M S on the retained range
        s_half = (vecs[:, keep] * (w[keep] ** 0.5)) @ vecs[:, keep].conj().T
        rec = s_half @ m[0] @ s_half
        assert np.abs(rec - y[0]).max() <= 1e-5
        checked += 1


def test_thull_invariance_under_unitaries():
    a, b = ex_nocon_single()
    gen = rng(12)
    for _ in range(5):
        u = rand_unitary(gen, 2)
        w = rand_unitary(gen, 2)
        assert not bool(thull_membership(a.conjugate(u), b.conjugate(w)))


def test_insitu_check_is_necessary_only():
    sample = [HermitianTuple([np.diag([0.3, -1.0])])]
    assert insitu_dual_check(sample, B_SCALAR)
    bad = [HermitianTuple([np.diag([2.0, 0.0])])]
    assert not insitu_dual_check(bad, B_SCALAR)
