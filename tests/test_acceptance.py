"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured quantities.  Tolerances are pinned here, not configurable."""

import json
import time

import numpy as np
import pytest

from freeconvex.algebra import (HermitianTuple, LinearPencil, NCPolynomial,
                                lambda_min, monic_tuple, pencil_from_tuple)
from freeconvex.corpus import (DUAL_GRID, MEMBER_GRID, corpus_problems,
                               dual_curve_distance, ex_fails,
                               ex_no_tracial_extension, ex_nocon_pair,
                               ex_nocon_single, grid_points, interval_tuple,
                               linear_form_poly, scalar_tuple,
                               screen_curve_distance, tv_dual_boundary,
                               tv_dual_support, tv_lift, tv_monic_lift,
                               tv_screen_value)
from freeconvex.cp import (InterpolationMode, KrausDecomposition, apply_choi,
                           choi_of_kraus, interpolate, kraus_of_choi)
from freeconvex.io import (decode_certificate, decode_pencil,
                           decode_polynomial, decode_tuple, parse_problem,
                           run)
from freeconvex.possatz import search_certificate, verify_certificate
from freeconvex.rand import rand_hermitian, rand_kraus, rand_psd, rand_unitary, rng
from freeconvex.sdp import SolveStatus
from freeconvex.spectra import (Spectrahedrop, dominates, drop_membership,
                                drop_polar_membership, hull_of_union,
                                polar_dual_lift, polar_membership)
from freeconvex.tracial import (cthull_membership, thull_membership,
                                tracial_membership)

TV = Spectrahedrop(tv_lift())
TVM = Spectrahedrop(tv_monic_lift())


def test_criterion_1_halfline_domination():
    t0 = time.perf_counter()
    la, lb = ex_fails()
    res = dominates(la, lb)
    assert res.status is SolveStatus.FEASIBLE
    vv = res.certificate.V.conj().T @ res.certificate.V
    dev = float(np.abs(vv - 0.5).max())
    assert dev <= 1e-6
    iso = dominates(la, lb, isometry=True)
    assert iso.status is SolveStatus.INFEASIBLE
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: domination FEASIBLE (|V*V-1/2| = {dev:.2e}), "
          f"isometry variant INFEASIBLE, {elapsed:.3f} s")


def test_criterion_2_operator_system_interpolation():
    t0 = time.perf_counter()
    a, b = ex_no_tracial_extension()
    cp = interpolate(a, b, InterpolationMode.CP)
    assert cp.status is SolveStatus.FEASIBLE
    oper = interpolate(a, b, InterpolationMode.OPERATION)
    assert oper.status is SolveStatus.INFEASIBLE
    assert oper.margin <= -1e-7
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: cp FEASIBLE, trace-non-increasing INFEASIBLE "
          f"(margin {oper.margin:.3e}), {elapsed:.3f} s")


def test_criterion_3_tracial_hull_rejections():
    t0 = time.perf_counter()
    a1, b1 = ex_nocon_single()
    th = thull_membership(a1, b1)
    assert th.status is SolveStatus.INFEASIBLE
    a2, b2, d = ex_nocon_pair()
    ct = cthull_membership([a2, b2], d)
    assert ct.status is SolveStatus.INFEASIBLE
    assert ct.detail["per_generator"] == ["INFEASIBLE", "INFEASIBLE"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 3: channel hull and both contractive-hull "
          f"generators INFEASIBLE, {elapsed:.3f} s")


def test_criterion_4_tv_grids():
    t0 = time.perf_counter()
    xs = grid_points(MEMBER_GRID)
    checked = excluded = 0
    for a in xs:
        for b in xs:
            if screen_curve_distance(a, b) <= MEMBER_GRID["band"]:
                excluded += 1
                continue
            want = tv_screen_value(a, b) > 0
            got = bool(drop_membership(TV, scalar_tuple(a, b)))
            assert got == want, (a, b)
            checked += 1
    t_member = time.perf_counter() - t0
    cs = grid_points(DUAL_GRID)
    checked_d = excluded_d = 0
    for a in cs:
        for b in cs:
            if dual_curve_distance(a, b) <= DUAL_GRID["band"]:
                excluded_d += 1
                continue
            want = tv_dual_boundary(a, b) > 0
            got = bool(drop_polar_membership(TVM, scalar_tuple(a, b),
                                             bounded=True))
            assert got == want, (a, b)
            checked_d += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nPASS criterion 4: membership grid {checked} points "
          f"({excluded} excluded, {t_member:.0f} s), dual grid {checked_d} "
          f"points ({excluded_d} excluded), total {elapsed:.0f} s")


def _dual_boundary_polyline(samples=1536):
    thetas = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
    pts = []
    for th in thetas:
        w = (np.cos(th), np.sin(th))
        r = 1.0 / tv_dual_support(*w)
        pts.append((r * w[0], r * w[1]))
    return np.asarray(pts)


def test_criterion_5_r0_exactness():
    gen = rng(2024)
    boundary = _dual_boundary_polyline()

    def distance(c):
        return float(np.hypot(*(boundary - np.asarray(c)).T).min())

    samples = []
    while len([s for s in samples if s[1]]) < 25 or \
            len([s for s in samples if not s[1]]) < 25:
        th = float(gen.uniform(0, 2 * np.pi))
        w = (np.cos(th), np.sin(th))
        r = 1.0 / tv_dual_support(*w)
        inside = len([s for s in samples if s[1]]) < 25
        u = float(gen.uniform(0.15, 0.85)) if inside else \
            float(gen.uniform(1.15, 1.45))
        c = (u * r * w[0], u * r * w[1])
        if distance(c) < 1e-2:
            continue
        samples.append((c, inside))
    samples = samples[:50]
    n_checked = 0
    worst_resid = 0.0
    for c, inside in samples:
        assert (tv_dual_boundary(*c) > 0) == inside
        res = search_certificate(linear_form_poly(*c), TVM.lift, 0)
        assert bool(res) == inside, c
        if res.feasible:
            ok, resid = verify_certificate(linear_form_poly(*c),
                                           res.certificate, TVM.lift)
            assert ok and resid <= 1e-6
            worst_resid = max(worst_resid, resid)
        n_checked += 1
    print(f"\nPASS criterion 5: degree-0 certificate search agreed on "
          f"{n_checked} sampled points (worst verified residual "
          f"{worst_resid:.2e})")


def _ampliate(choi, x, ell):
    n, m = choi.n, choi.m
    out = np.zeros((ell * m, ell * m), dtype=complex)
    for a in range(ell):
        for b in range(ell):
            out[a * m:(a + 1) * m, b * m:(b + 1) * m] = \
                apply_choi(choi, x[a * n:(a + 1) * n, b * n:(b + 1) * n])
    return out


def test_criterion_6_choi_kraus_suite():
    gen = rng(6)
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(1, 5))
        m = int(gen.integers(1, 5))
        count = int(gen.integers(1, 7))
        c = choi_of_kraus(KrausDecomposition(rand_kraus(gen, n, m, count)))
        c2 = choi_of_kraus(kraus_of_choi(c))
        worst = max(worst, float(np.abs(c2.C - c.C).max()))
    assert worst <= 1e-8
    # PSD Choi maps PSD ampliations to PSD outputs
    from freeconvex.cp import ChoiMatrix
    for _ in range(10):
        n = int(gen.integers(1, 4))
        m = int(gen.integers(1, 4))
        c = ChoiMatrix(n, m, rand_psd(gen, n * m))
        for _ in range(10):
            x = rand_psd(gen, 2 * n)
            assert np.linalg.eigvalsh(_ampliate(c, x, 2))[0] >= -1e-8
    # mode constraints of interpolation witnesses
    a = HermitianTuple([rand_hermitian(gen, 2) for _ in range(2)])
    modes = []
    ops = rand_kraus(gen, 2, 3, 3, normalize="unital")
    b = HermitianTuple([sum(v.conj().T @ aj @ v for v in ops) for aj in a])
    r = interpolate(a, b, "unital")
    assert r.feasible
    assert np.abs(r.choi.block_sum_diag() - np.eye(3)).max() <= 1e-6
    modes.append("unital")
    ops = rand_kraus(gen, 2, 3, 3, normalize="channel")
    b = HermitianTuple([sum(v.conj().T @ aj @ v for v in ops) for aj in a])
    r = interpolate(a, b, "channel")
    assert r.feasible
    for _ in range(5):
        x = rand_hermitian(gen, 2)
        assert abs(np.trace(apply_choi(r.choi, x)).real
                   - np.trace(x).real) <= 1e-6
    modes.append("channel")
    ops = rand_kraus(gen, 2, 3, 3, normalize="operation")
    b = HermitianTuple([sum(v.conj().T @ aj @ v for v in ops) for aj in a])
    r = interpolate(a, b, "operation")
    assert r.feasible
    for _ in range(5):
        p = rand_psd(gen, 2)
        assert np.trace(apply_choi(r.choi, p)).real <= \
            np.trace(p).real + 1e-6
    modes.append("operation")
    print(f"\nPASS criterion 6: 100 round trips (worst {worst:.2e}), "
          f"ampliation spot checks, witness modes {modes}")


# ---------------------------------------------------------------------------
# criterion 7: conjugation invariance of every corpus decision
# ---------------------------------------------------------------------------


def _unitary(gen, n):
    if gen.uniform() < 0.5:
        return rand_unitary(gen, n, real=True).real.astype(complex)
    return rand_unitary(gen, n)


def _cpencil(p, u):
    a0 = np.eye(p.d) if p.monic else u.conj().T @ p.A0 @ u
    return LinearPencil(a0,
                        [u.conj().T @ c @ u for c in p.x_coeffs],
                        [u.conj().T @ c @ u for c in p.y_coeffs])


def _conjugated_payload(kind, payload, gen):
    from freeconvex import io as fio
    p = dict(payload)
    if kind == "membership":
        pe = decode_pencil(p["pencil"])
        x = decode_tuple(p["X"])
        p["pencil"] = fio.encode_pencil(_cpencil(pe, _unitary(gen, pe.d)))
        p["X"] = fio.encode_tuple(x.conjugate(_unitary(gen, x.dim)))
    elif kind == "interpolate":
        a = decode_tuple(p["A"])
        b = decode_tuple(p["B"])
        p["A"] = fio.encode_tuple(a.conjugate(_unitary(gen, a.dim)))
        p["B"] = fio.encode_tuple(b.conjugate(_unitary(gen, b.dim)))
    elif kind == "dominate":
        la = decode_pencil(p["LA"])
        lb = decode_pencil(p["LB"])
        p["LA"] = fio.encode_pencil(_cpencil(la, _unitary(gen, la.d)))
        p["LB"] = fio.encode_pencil(_cpencil(lb, _unitary(gen, lb.d)))
    elif kind == "polar":
        om = decode_tuple(p["Omega"])
        x = decode_tuple(p["X"])
        p["Omega"] = fio.encode_tuple(om.conjugate(_unitary(gen, om.dim)))
        p["X"] = fio.encode_tuple(x.conjugate(_unitary(gen, x.dim)))
    elif kind in ("drop", "drop-polar"):
        pe = decode_pencil(p["lift"])
        p["lift"] = fio.encode_pencil(_cpencil(pe, _unitary(gen, pe.d)))
        key = "X" if kind == "drop" else "A"
        x = decode_tuple(p[key])
        p[key] = fio.encode_tuple(x.conjugate(_unitary(gen, x.dim)))
    elif kind == "tracial":
        b = decode_tuple(p["B"])
        y = decode_tuple(p["Y"])
        p["B"] = fio.encode_tuple(b.conjugate(_unitary(gen, b.dim)))
        p["Y"] = fio.encode_tuple(y.conjugate(_unitary(gen, y.dim)))
    elif kind in ("thull", "cthull"):
        gens = [decode_tuple(t) for t in p["generators"]]
        p["generators"] = [fio.encode_tuple(t.conjugate(_unitary(gen, t.dim)))
                           for t in gens]
        b = decode_tuple(p["B"])
        p["B"] = fio.encode_tuple(b.conjugate(_unitary(gen, b.dim)))
    elif kind == "exsitu":
        om = decode_tuple(p["Omega"])
        y = decode_tuple(p["Y"])
        p["Omega"] = fio.encode_tuple(om.conjugate(_unitary(gen, om.dim)))
        p["Y"] = fio.encode_tuple(y.conjugate(_unitary(gen, y.dim)))
    elif kind == "possatz-search":
        pe = decode_pencil(p["pencil"])
        p["pencil"] = fio.encode_pencil(_cpencil(pe, _unitary(gen, pe.d)))
    elif kind == "possatz-verify":
        pe = decode_pencil(p["pencil"])
        cert = decode_certificate(p["certificate"])
        u = _unitary(gen, pe.d)
        p["pencil"] = fio.encode_pencil(_cpencil(pe, u))
        n_words = cert.S.shape[0] // cert.mu
        w = np.kron(np.eye(n_words), np.kron(u, np.eye(cert.mu)))
        g2 = w.conj().T @ cert.G @ w
        p["certificate"] = {**p["certificate"], "G": fio.encode_matrix(g2)}
    elif kind == "bounded":
        pe = decode_pencil(p["pencil"])
        p["pencil"] = fio.encode_pencil(_cpencil(pe, _unitary(gen, pe.d)))
    elif kind == "monicize":
        pe = decode_pencil(p["pencil"])
        p["pencil"] = fio.encode_pencil(_cpencil(pe, _unitary(gen, pe.d)))
    elif kind == "hull-union":
        lifts = [decode_pencil(q) for q in p["lifts"]]
        p["lifts"] = [fio.encode_pencil(_cpencil(q, _unitary(gen, q.d)))
                      for q in lifts]
        if "X" in p:
            x = decode_tuple(p["X"])
            p["X"] = fio.encode_tuple(x.conjugate(_unitary(gen, x.dim)))
    return p


TRIALS_7 = 20


def test_criterion_7_conjugation_invariance():
    gen = rng(777)
    heavy = {"hull-union-intervals"}
    total = 0
    for item in corpus_problems():
        trials = 3 if item.name in heavy else TRIALS_7
        base = parse_problem(json.dumps(item.problem))
        expect = item.expect
        for _ in range(trials):
            payload = _conjugated_payload(item.problem["kind"],
                                          item.problem["payload"], gen)
            pf = parse_problem(json.dumps({**item.problem,
                                           "payload": payload}))
            rep = run(pf)
            assert rep.status == expect, (item.name, rep.status, rep.margin)
            total += 1
    print(f"\nPASS criterion 7: {total} conjugated corpus decisions "
          f"unchanged")


def test_criterion_8_tracial_suite():
    gen = rng(88)
    b_scalar = scalar_tuple(1.0)
    # contractive traciality and convexity on 50 randomized instances
    checked = 0
    while checked < 50:
        k = int(gen.integers(1, 4))
        m = int(gen.integers(1, 4))
        gv = int(gen.integers(1, 3))
        b = HermitianTuple([rand_hermitian(gen, k) for _ in range(gv)])
        y = HermitianTuple([rand_hermitian(gen, m, scale=0.35)
                            for _ in range(gv)])
        r = tracial_membership(b, y)
        if not r.feasible:
            continue
        # contractive image stays a member
        from freeconvex.rand import rand_complex
        mp = int(gen.integers(1, 4))
        cs = [rand_complex(gen, mp, m, 0.5)
              for _ in range(int(gen.integers(1, 4)))]
        s = sum(c.conj().T @ c for c in cs)
        lam = float(np.linalg.eigvalsh(s)[-1])
        if lam > 1.0:
            cs = [c / np.sqrt(lam * 1.0001) for c in cs]
        y2 = HermitianTuple([sum(c @ yj @ c.conj().T for c in cs)
                             for yj in y])
        assert tracial_membership(b, y2).feasible
        # convex combination with a second member stays a member
        y3 = HermitianTuple([0.5 * m_ for m_ in y])
        assert tracial_membership(b, y3).feasible
        lamb = float(gen.uniform(0.0, 1.0))
        mid = HermitianTuple([lamb * p + (1 - lamb) * q
                              for p, q in zip(y, y3)])
        assert tracial_membership(b, mid).feasible
        checked += 1
    # scalar-fixed oracle sweep outside a 1e-6 band
    agree = 0
    for _ in range(40):
        m = int(gen.integers(1, 4))
        ym = rand_hermitian(gen, m)
        plus = float(np.clip(np.linalg.eigvalsh(ym), 0, None).sum())
        if abs(plus - 1.0) <= 1e-6:
            continue
        got = bool(tracial_membership(b_scalar, HermitianTuple([ym])))
        assert got == (plus <= 1.0)
        agree += 1
    print(f"\nPASS criterion 8: invariants held on {checked} instances, "
          f"scalar oracle agreed on {agree} sweeps")


def test_criterion_9_dual_lift_cross_oracle():
    gen = rng(99)
    interval = interval_tuple(-1.0, 1.0)
    omega_tv, gamma_tv = monic_tuple(TVM.lift)
    cases = [
        ("interval", interval, None,
         lambda x: polar_membership(interval, x, bounded=True)),
        ("padded half-space", HermitianTuple([np.diag([1.0, 0.0])]), None,
         lambda x: polar_membership(HermitianTuple([np.array([[1.0]])]), x,
                                    bounded=False)),
        ("tv", omega_tv, gamma_tv,
         lambda x: drop_polar_membership(TVM, x, bounded=True)),
    ]
    total = 0
    for name, omega, gamma, direct in cases:
        lift = polar_dual_lift(omega, gamma)
        for i in range(20):
            if omega.g == 1:
                if i % 3 == 2:
                    x = HermitianTuple([rand_hermitian(gen, 2, scale=0.9)])
                else:
                    x = scalar_tuple(float(gen.uniform(-1.6, 1.6)))
            else:
                x = scalar_tuple(*gen.uniform(-1.4, 1.4, size=omega.g))
            via = bool(drop_membership(lift, x))
            ref = bool(direct(x))
            assert via == ref, (name, x.matrices)
            total += 1
    print(f"\nPASS criterion 9: constructed dual lifts agreed with the "
          f"direct procedure on {total} points across 3 coefficient pairs")
