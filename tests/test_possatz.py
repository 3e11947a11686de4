import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconvex.algebra import (HermitianTuple, LinearPencil, NCPolynomial,
                                lambda_min, pencil_from_tuple, word_key)
from freeconvex.corpus import (_tv_arc, interval_tuple, linear_form_poly,
                               scalar_tuple, tv_dual_boundary, tv_dual_support,
                               tv_monic_lift)
from freeconvex.possatz import (Certificate, WordBasis, certificate_problem,
                                expand_certificate, extract_weights,
                                search_certificate, verify_certificate)
from freeconvex.rand import rand_hermitian, rand_psd, rng
from freeconvex.sdp import (HermitianProblem, SolveStatus, _Presolve, _Rows,
                            hvec, svec)
from freeconvex.spectra import (Spectrahedrop, dominates, drop_membership,
                                drop_polar_membership)
from test_cp import _assert_routes_agree

TVM = tv_monic_lift()
HALF = LinearPencil(np.eye(1), [2.0 * np.eye(1)])   # 1 + 2x
# a random complex monic pencil in two x and two y variables, one y
# coefficient zero
_G = rng(8)
CPLX = LinearPencil(np.eye(3), [rand_hermitian(_G, 3), rand_hermitian(_G, 3)],
                    [rand_hermitian(_G, 3), np.zeros((3, 3))])


def reference_problem(p, pencil, r):
    """The certificate SDP built one word at a time: mu^2 complex rows for
    every word, and for each y coefficient and left word a the N mu^2 rows
    (b, i, j), conjugate pairs included."""
    g, d, mu = pencil.g, pencil.d, p.rows
    basis = WordBasis(g, r).words
    n = len(basis)
    prods = {}
    for a, wa in enumerate(basis):
        for b, wb in enumerate(basis):
            for k in range(g + 1):
                prods.setdefault(wa[::-1] + (k,)[:k] + wb, []).append((k, a, b))
    coeffs = np.conj(np.array([pencil.A0, *pencil.x_coeffs], dtype=complex))
    i, j = np.ix_(range(mu), range(mu))
    hp = HermitianProblem()
    hp.add_block("S", mu * n)
    hp.add_block("G", n * d * mu)
    for v in sorted(prods, key=word_key):
        k, a, b = (np.array(t)[:, None, None] for t in zip(*prods[v]))
        s = np.zeros((mu, mu, n, mu, n, mu))
        gm = np.zeros((mu, mu, n, d, mu, n, d, mu), dtype=complex)
        one = k[:, 0, 0] == 0
        s[i, j, a[one], i, b[one], j] = 1.0
        gm[i, j, a, :, i, b, :, j] = coeffs[k]
        hp.add_complex_row({"S": s.reshape(mu * mu, mu * n, mu * n),
                            "G": gm.reshape(mu * mu, n * d * mu, -1)},
                           p.coeff(v).ravel())
    b = np.arange(n)[:, None, None]
    for coeff in pencil.y_coeffs:
        for a in range(n):
            gm = np.zeros((n, mu, mu, n, d, mu, n, d, mu), dtype=complex)
            gm[b, i, j, a, :, i, b, :, j] = np.conj(coeff)
            hp.add_complex_row({"G": gm.reshape(n * mu * mu, n * d * mu, -1)},
                               np.zeros(n * mu * mu))
    return hp


def _rows_up_to_sign(problem):
    """The rows [A | b] of a built problem, each with its first nonzero
    entry made positive, as a list of tuples."""
    rows = np.hstack([*problem.A_blocks, problem.rhs[:, None]]) + 0.0
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    return [tuple(row) for row in rows * np.where(lead < 0, -1.0, 1.0)[:, None]]


def _symmetric_poly(gen, g, mu, degree):
    """A random symmetric polynomial whose self-adjoint words carry exactly
    Hermitian coefficients."""
    p = NCPolynomial(g, mu, mu, {w: gen.normal(size=(mu, mu))
                                 + 1j * gen.normal(size=(mu, mu))
                                 for w in WordBasis(g, degree).words})
    return (p + p.adjoint()) * 0.5


@pytest.mark.parametrize("pencil, mu, r", [
    (TVM, 1, 0), (TVM, 1, 1), (TVM, 1, 2), (TVM, 1, 3), (TVM, 2, 1),
    (CPLX, 1, 1), (CPLX, 2, 1), (CPLX, 1, 2)],
    ids=["tv-r0", "tv-r1", "tv-r2", "tv-r3", "tv-mu2", "complex-r1",
         "complex-mu2", "complex-r2"])
def test_rows_are_reference_rows_distinct_up_to_sign(pencil, mu, r):
    """certificate_problem keeps exactly one of every set of reference rows
    equal up to sign, and all of them are independent."""
    p = _symmetric_poly(rng(r), pencil.g, mu, 2 * r + 1)
    if pencil is TVM:
        p = NCPolynomial(p.g, mu, mu, {w: c.real for w, c in p.terms.items()})
    problem = certificate_problem(p, pencil, r).build()
    ref = reference_problem(p, pencil, r).build()
    rows = _rows_up_to_sign(problem)
    assert len(set(rows)) == len(rows)
    assert set(rows) == set(_rows_up_to_sign(ref))
    assert _Rows(problem).keep.size == problem.m
    if pencil is TVM and mu == 1:
        assert problem.m == {0: 4, 1: 18, 2: 70, 3: 270}[r]


def test_complex_self_adjoint_round_off_is_dropped():
    """p expanded from a strictly feasible certificate on the complex pencil
    carries imaginary round-off on the diagonal of its self-adjoint words.
    The reference rows split it into zero rows with rhs about 1e-16, which
    the build drops like any |rhs| <= 1e-12 (kept, they would read 0 = 1
    once scaled, and make the problem inconsistent); certificate_problem
    matches only the real part.  Both searches find a certificate."""
    gen = rng(0)
    n, d = len(WordBasis(CPLX.g, 1)), CPLX.d
    # Q = conj(u) u^T is PSD, and u* Y u = 0 makes Y cancel against it
    lam, vec = np.linalg.eigh(CPLX.y_coeffs[0])
    u = np.sqrt(-lam[0]) * vec[:, -1] + np.sqrt(lam[-1]) * vec[:, 0]
    cert = Certificate(CPLX.g, d, 1, 1, rand_psd(gen, n) + np.eye(n),
                       np.kron(rand_psd(gen, n), np.outer(u.conj(), u)))
    p = expand_certificate(cert, CPLX)
    assert max(abs(p.coeff(w)[0, 0].imag) for w in p.terms
               if w == w[::-1]) > 0
    ref_hp = reference_problem(p, CPLX, 1)
    ref = ref_hp.build()
    assert np.hstack(ref.A_blocks).any(axis=1).all()
    assert ref_hp.solve().status is SolveStatus.FEASIBLE
    problem = certificate_problem(p, CPLX, 1).build()
    assert np.hstack(problem.A_blocks).any(axis=1).all()
    assert _Rows(problem).keep.size == problem.m
    assert bool(search_certificate(p, CPLX, 1))


@pytest.mark.parametrize("r", [1, 2])
def test_margins_match_reference(r):
    """At criterion-5-style points, three inside the TV screen's polar dual
    and three outside, the status and margin match the reference build."""
    for th, u in [(0.3, 0.5), (2.0, 0.8), (4.4, 0.2),
                  (1.1, 1.2), (3.0, 1.4), (5.5, 1.3)]:
        w = (np.cos(th), np.sin(th))
        c = u * np.asarray(w) / tv_dual_support(*w)
        p = linear_form_poly(*c)
        new = certificate_problem(p, TVM, r).solve()
        ref = reference_problem(p, TVM, r).solve()
        assert new.status == ref.status
        assert new.status == (SolveStatus.FEASIBLE if u < 1 else
                              SolveStatus.INFEASIBLE)
        assert abs(new.margin - ref.margin) <= 1e-10


def _assert_same_search(got, want):
    """Bitwise the same search: status, margin, residual and Gram bytes."""
    assert got.status == want.status
    assert repr(got.margin) == repr(want.margin)
    assert repr(got.detail.get("residual")) == repr(want.detail.get("residual"))
    assert (got.certificate is None) == (want.certificate is None)
    if got.certificate is not None:
        assert got.certificate.S.tobytes() == want.certificate.S.tobytes()
        assert got.certificate.G.tobytes() == want.certificate.G.tobytes()


WARM = tv_monic_lift()


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 2), st.floats(0.0, 2 * np.pi),
       st.one_of(st.floats(0.15, 0.85), st.floats(1.15, 1.45)))
def test_kept_certificate_problems_match_fresh_pencils(r, th, u):
    """Searches on one pencil, which keeps a certificate problem per degree,
    return exactly what a fresh pencil per search returns, at linear forms
    inside and outside the TV screen's polar dual."""
    w = (np.cos(th), np.sin(th))
    p = linear_form_poly(*(u * np.asarray(w) / tv_dual_support(*w)))
    _assert_same_search(search_certificate(p, WARM, r),
                        search_certificate(p, tv_monic_lift(), r))


def _support_direct(c1, c2, samples):
    """tv_dual_support's scan with the arc rebuilt on every call."""
    t = np.linspace(-1.0, 1.0, samples)
    vals = abs(c1) * np.sqrt(np.clip(1.0 - t ** 4, 0.0, None)) + c2 * t
    return float(vals.max())


@pytest.mark.parametrize("samples", [4001, 1001])
def test_tv_dual_support_matches_the_direct_scan_bitwise(samples):
    # 720 directions, then the exact axes (cos(pi/2) is 6e-17 in floats)
    for th in np.linspace(0.0, 2 * np.pi, 720, endpoint=False):
        w = (float(np.cos(th)), float(np.sin(th)))
        got = tv_dual_support(*w, samples=samples)
        assert repr(got) == repr(_support_direct(*w, samples)), th
    for w in [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]:
        assert repr(tv_dual_support(*w, samples=samples)) == \
            repr(_support_direct(*w, samples))
    t, arc = _tv_arc(samples)
    assert t.shape == arc.shape == (samples,)
    assert not t.flags.writeable and not arc.flags.writeable
    with pytest.raises(ValueError):
        arc[0] = 1.0


def test_certificate_searches_reuse_the_presolve():
    lift = tv_monic_lift()
    first = search_certificate(linear_form_poly(0.3, 0.2), lift, 1)
    second = search_certificate(linear_form_poly(-0.4, 1.1), lift, 1)
    assert first.feasible and not second.feasible
    assert first.info["presolve_reused"] is False
    assert second.info["presolve_reused"] is True


def test_kept_problems_follow_the_real_path_and_mu():
    """A complex mu = 2 polynomial leaves the real path of the kept problem,
    the real one after it returns to it; both match fresh pencils, and each
    mu has its own kept problem."""
    lift = tv_monic_lift()
    search_certificate(linear_form_poly(0.3, 0.2), lift, 1)
    cplx = _symmetric_poly(rng(11), 2, 2, 3) * 0.05 + NCPolynomial(
        2, 2, 2, {(): 2.0 * np.eye(2)})
    real = NCPolynomial(2, 2, 2, {w: c.real for w, c in cplx.terms.items()})
    for p, reused in [(cplx, False), (real, False), (real * 0.5, True)]:
        got = search_certificate(p, lift, 1)
        _assert_same_search(got, search_certificate(p, tv_monic_lift(), 1))
        assert got.feasible and got.info["presolve_reused"] is reused
        cert = got.certificate
        assert (max(np.abs(cert.S.imag).max(), np.abs(cert.G.imag).max()) > 0) \
            == (p is cplx)
    assert sorted(lift._memo) == [(1, 1), (1, 2)]


def test_kept_certificate_problem_is_small():
    """A kept r = 2 problem on the TV lift holds the stored rows, the built
    rows and the presolve, but no split copy of the rows."""
    import tracemalloc
    lift = tv_monic_lift()
    tracemalloc.start()
    try:
        search_certificate(linear_form_poly(0.3, 0.2), lift, 2)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 3.5 * 2 ** 20


def test_presolve_keeps_no_row_copies():
    """The kept presolve of an r = 2 problem keeps no copy of the built
    problem's rows, of one block's or of their stack (t is recovered from
    the objective row): the kept problem holds at most 2.2 MiB."""
    import tracemalloc
    lift = tv_monic_lift()
    tracemalloc.start()
    try:
        search_certificate(linear_form_poly(0.3, 0.2), lift, 2)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    hp, _ = lift._memo[(2, 1)]
    problem = hp._op.rows[2]
    pre = problem._memo["presolve"]
    widths = {Ab.shape[1] for Ab in problem.A_blocks}
    widths.add(sum(widths))
    assert not any(a.shape[-1] in widths for a in vars(pre).values()
                   if isinstance(a, np.ndarray) and a.ndim == 2)
    assert kept <= 2.2 * 2 ** 20


def _random_pencil(gen, real):
    """A random monic 3 x 3 pencil in two x and one y variable, real or
    complex."""
    coeffs = [rand_hermitian(gen, 3, real=real) for _ in range(3)]
    return LinearPencil(np.eye(3), coeffs[:2], coeffs[2:])


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2), st.integers(1, 2), st.booleans(),
       st.integers(0, 10_000))
def test_factored_certificate_schur_matches_dense(r, mu, real, seed):
    """On the same presolved rows, the G block's Schur complement assembled
    from its Kronecker factors (each row's units summed, the basis
    permuted to the factor order) equals the dense one to rtol 1e-12: r = 0
    to 2, mu = 1 and 2, real and complex pencils, and a kept presolve
    reused with a new p."""
    gen = rng(seed)
    pencil = _random_pencil(gen, real)
    p, q = (_symmetric_poly(gen, 2, mu, 2 * r + 1) for _ in range(2))
    if real:
        p, q = (NCPolynomial(2, mu, mu, {w: c.real for w, c in f.terms.items()})
                for f in (p, q))
    problem = certificate_problem(p, pencil, r).build()
    assert problem.kron[0] is None and problem.kron[1] is not None
    assert not (real and any(problem.herm))
    rows = _Rows(problem)
    if rows.consistent:
        _assert_routes_agree(problem, _Presolve(rows), gen)
    search_certificate(p, pencil, r)
    again = search_certificate(q, pencil, r)
    if again.info.get("presolve_reused"):
        built = pencil._memo[r, mu][0]._op.rows[2]
        _assert_routes_agree(built, built._memo["presolve"], gen)


def test_certificate_schur_route():
    """On the TV lift the G block is dense at r <= 1 and factored at r = 2
    and 3 (built and presolved only at r = 3); S has no factor form."""
    p = linear_form_poly(0.3, 0.2)
    for r in (0, 1, 2):
        res = search_certificate(p, tv_monic_lift(), r)
        assert res.feasible
        assert res.info["schur"] == ("dense", "dense" if r <= 1 else "factored")
    problem = certificate_problem(p, TVM, 3).build()
    assert problem.kron[0] is None
    assert _Presolve(_Rows(problem)).routes == ("dense", "factored")


def test_warm_searches_still_check_their_input():
    lift = tv_monic_lift()
    search_certificate(linear_form_poly(0.1, 0.1), lift, 0)
    search_certificate(linear_form_poly(0.1, 0.1), lift, 1)
    one = np.array([[1.0]])
    for p, r, match in [
            (NCPolynomial(2, 1, 1, {(1, 2): one}), 1, "must be symmetric"),
            (NCPolynomial(2, 1, 1, {(1, 1): one}), 0, "exceeds 2r\\+1"),
            (NCPolynomial(3, 1, 1, {(3,): one}), 0, "variable counts")]:
        with pytest.raises(ValueError, match=match):
            search_certificate(p, lift, r)
    assert sorted(lift._memo) == [(0, 1), (1, 1)]
    from freeconvex.corpus import tv_lift
    pencil = tv_lift()
    with pytest.raises(ValueError, match="monic pencil"):
        search_certificate(linear_form_poly(0.1, 0.1), pencil, 0)
    assert not pencil._memo


def test_word_basis_counts_and_order():
    basis = WordBasis(2, 2)
    assert len(basis) == 1 + 2 + 4
    assert basis.words[:4] == ((), (1,), (2,), (1, 1))


@settings(deadline=None, max_examples=4)
@given(st.integers(0, 10_000))
@pytest.mark.parametrize("pencil, real", [(TVM, True), (CPLX, False)],
                         ids=["tv", "complex"])
@pytest.mark.parametrize("mu, r", [(mu, r) for mu in (1, 2) for r in (0, 1, 2)])
def test_certificate_rows_meet_expansion(pencil, real, mu, r, seed):
    """Every row of the certificate SDP holds, to 1e-10 relative, at the
    Gram data of a certificate whose expansion is p.  G = K (x) Q (x) M
    with Q trace-orthogonal to every y coefficient, so every y word
    cancels; real symmetric data on the real pencil, Hermitian otherwise."""
    gen = rng(seed)
    n, d = len(WordBasis(pencil.g, r)), pencil.d
    q = rand_hermitian(gen, d, real=real)
    ys = np.array([m.ravel() for m in pencil.y_coeffs]).reshape(-1, d * d)
    # sum_ce Y_ce Q_ce = 0 for every y coefficient Y
    alpha = np.linalg.lstsq(ys @ ys.conj().T, ys @ q.ravel(), rcond=None)[0]
    q = q - (alpha @ ys.conj()).reshape(d, d)
    gm = np.kron(rand_psd(gen, n, real=real),
                 np.kron(q, rand_psd(gen, mu, real=real)))
    cert = Certificate(pencil.g, d, mu, r, rand_psd(gen, mu * n, real=real), gm)
    p = expand_certificate(cert, pencil)
    problem = certificate_problem(p, pencil, r).build()
    assert (problem.hermitian == ()) == real
    vec = svec if real else hvec
    x = np.concatenate([vec(cert.S.real if real else cert.S),
                        vec(cert.G.real if real else cert.G)])
    a = np.hstack(problem.A_blocks)
    scale = max(1.0, float(np.abs(problem.rhs).max()),
                float((np.abs(a) @ np.abs(x)).max()))
    assert np.abs(a @ x - problem.rhs).max() <= 1e-10 * scale


def reference_expansion(cert, pencil):
    """(sigma + sum q_l* L q_l, largest y coefficient) expanded word by
    word: one mu x mu contraction of the Gram data per pair (a, b) and
    pencil coefficient, added into a dict of words."""
    basis = WordBasis(cert.g, cert.r).words
    terms = {}
    for a, wa in enumerate(basis):
        for b, wb in enumerate(basis):
            for word, mat in [(wa[::-1] + wb, cert.s_block(a, b)),
                              (wa[::-1] + wb,
                               cert.pencil_contraction(pencil.A0, a, b))] + [
                    (wa[::-1] + (j + 1,) + wb, cert.pencil_contraction(c, a, b))
                    for j, c in enumerate(pencil.x_coeffs)]:
                terms[word] = terms.get(word, 0) + mat
    y_resid = max([float(np.abs(cert.pencil_contraction(c, a, b)).max())
                   for c in pencil.y_coeffs for a in range(len(basis))
                   for b in range(len(basis))] + [0.0])
    return NCPolynomial(cert.g, cert.mu, cert.mu,
                        {w: m for w, m in terms.items()
                         if np.abs(m).max() > 1e-14}), y_resid


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([("tv", TVM, True), ("complex", CPLX, False),
                        ("halfline", HALF, True)]),
       st.integers(1, 2), st.integers(0, 2), st.booleans(),
       st.integers(0, 10_000))
def test_expansion_matches_word_by_word_reference(case, mu, r, annihilate, seed):
    """expand_certificate equals the word-by-word expansion on random
    certificates: the same words, coefficients to 1e-12, and the same
    annihilation failure when a y coefficient survives."""
    _, pencil, real = case
    gen = rng(seed)
    n, d = len(WordBasis(pencil.g, r)), pencil.d
    q = rand_hermitian(gen, d, real=real)
    if annihilate and pencil.h:
        ys = np.array([m.ravel() for m in pencil.y_coeffs]).reshape(-1, d * d)
        alpha = np.linalg.lstsq(ys @ ys.conj().T, ys @ q.ravel(), rcond=None)[0]
        q = q - (alpha @ ys.conj()).reshape(d, d)
    gm = np.kron(rand_psd(gen, n, real=real),
                 np.kron(q, rand_psd(gen, mu, real=real)))
    cert = Certificate(pencil.g, d, mu, r, rand_psd(gen, mu * n, real=real), gm)
    want, y_resid = reference_expansion(cert, pencil)
    if y_resid > 1e-9:
        assert not annihilate or not pencil.h
        with pytest.raises(ValueError, match="annihilation violated") as err:
            expand_certificate(cert, pencil)
        assert f"{y_resid:.3e}" in str(err.value)
        return
    got = expand_certificate(cert, pencil)
    assert set(got.terms) == set(want.terms)
    scale = max(1.0, max(np.abs(m).max() for m in want.terms.values()))
    assert got.max_coeff_diff(want) <= 1e-12 * scale


def test_expand_halfline_certificate():
    cert = Certificate(1, 1, 1, 0, np.array([[0.5]]), np.array([[0.5]]))
    out = expand_certificate(cert, HALF)
    want = NCPolynomial(1, 1, 1, {(): np.array([[1.0]]),
                                  (1,): np.array([[1.0]])})
    assert out.max_coeff_diff(want) < 1e-14


def test_expand_trivial_certificates():
    one = Certificate(1, 1, 1, 0, np.eye(1), np.zeros((1, 1)))
    assert expand_certificate(one, HALF).max_coeff_diff(
        NCPolynomial.scalar(1.0, 1)) < 1e-14
    zero = Certificate(1, 1, 1, 0, np.zeros((1, 1)), np.zeros((1, 1)))
    assert not expand_certificate(zero, HALF).terms


def test_verify_halfline():
    want = NCPolynomial(1, 1, 1, {(): np.array([[1.0]]),
                                  (1,): np.array([[1.0]])})
    cert = Certificate(1, 1, 1, 0, np.array([[0.5]]), np.array([[0.5]]))
    ok, resid = verify_certificate(want, cert, HALF)
    assert ok and resid < 1e-12
    zero = Certificate(1, 1, 1, 0, np.zeros((1, 1)), np.zeros((1, 1)))
    ok, resid = verify_certificate(want, zero, HALF)
    assert not ok and abs(resid - 1.0) < 1e-12


def test_expand_rejects_surviving_y():
    cert = Certificate(2, 5, 1, 0, np.zeros((1, 1)), np.eye(5))
    with pytest.raises(ValueError):
        expand_certificate(cert, TVM)


def test_search_constant_one():
    res = search_certificate(NCPolynomial.scalar(1.0, 2), TVM, 0)
    assert bool(res) and res.detail["residual"] <= 1e-6


def test_search_linear_forms_on_tv():
    res = search_certificate(linear_form_poly(0.5, 0.5), TVM, 0)
    assert bool(res) and res.detail["residual"] <= 1e-6
    res = search_certificate(linear_form_poly(1.2, 0.0), TVM, 0)
    assert not bool(res)


def test_search_requires_monic():
    from freeconvex.corpus import tv_lift
    with pytest.raises(ValueError):
        search_certificate(linear_form_poly(0.1, 0.1), tv_lift(), 0)


def test_degree_bound_enforced():
    p = NCPolynomial(2, 1, 1, {(1, 1): np.array([[1.0]])})
    with pytest.raises(ValueError):
        search_certificate(p, TVM, 0)


def test_search_degree_one_quadratics():
    strict = NCPolynomial(2, 1, 1, {(): np.array([[1.1]]),
                                    (1, 1): np.array([[-1.0]])})
    res = search_certificate(strict, TVM, 1)
    assert bool(res) and res.detail["residual"] <= 1e-6
    assert expand_certificate(res.certificate, TVM).degree <= 3
    false = NCPolynomial(2, 1, 1, {(): np.array([[1.0]]),
                                   (1, 1): np.array([[-3.0]])})
    assert not bool(search_certificate(false, TVM, 1))


def test_boundary_polynomial_reports_honestly():
    # touches zero on the drop: the Gram problem sits on the cone boundary
    boundary = NCPolynomial(2, 1, 1, {(): np.array([[1.0]]),
                                      (1, 1): np.array([[-1.0]])})
    res = search_certificate(boundary, TVM, 1)
    assert res.status in (SolveStatus.FEASIBLE, SolveStatus.MARGINAL)


def test_extraction_identity():
    strict = NCPolynomial(2, 1, 1, {(): np.array([[1.1]]),
                                    (1, 1): np.array([[-1.0]])})
    res = search_certificate(strict, TVM, 1)
    sos, weights = extract_weights(res.certificate)
    l3 = NCPolynomial(3, 5, 5, {(): np.asarray(TVM.A0),
                                (1,): np.asarray(TVM.x_coeffs[0]),
                                (2,): np.asarray(TVM.x_coeffs[1]),
                                (3,): np.asarray(TVM.y_coeffs[0])})

    def promote(q):
        return NCPolynomial(3, q.rows, q.cols, dict(q.terms))

    total = NCPolynomial(3, 1, 1, {})
    for h in sos:
        h3 = promote(h)
        total = total + h3.adjoint() * h3
    for q in weights:
        q3 = promote(q)
        total = total + q3.adjoint() * (l3 * q3)
    assert total.max_coeff_diff(promote(strict)) <= 1e-6


def test_r0_agrees_with_drop_polar():
    gen = rng(3)
    drop = Spectrahedrop(TVM)
    for _ in range(10):
        c = gen.uniform(-1.3, 1.3, size=2)
        if abs(tv_dual_boundary(*c)) < 1e-2:
            continue
        via_cert = bool(search_certificate(linear_form_poly(*c), TVM, 0))
        via_dual = bool(drop_polar_membership(drop, scalar_tuple(*c),
                                              bounded=True))
        assert via_cert == via_dual


def test_no_y_reduction_matches_domination():
    om = pencil_from_tuple(interval_tuple(-1.0, 1.0))
    for c, expect in [(0.8, True), (1.3, False)]:
        p = NCPolynomial(1, 1, 1, {(): np.array([[1.0]]),
                                   (1,): np.array([[-c]])})
        res = search_certificate(p, om, 0)
        la = pencil_from_tuple(HermitianTuple([np.array([[c]])]))
        assert bool(res) == bool(dominates(la, om)) == expect


def test_soundness_on_drop_samples():
    # FEASIBLE certificates mean p is PSD at actual drop points
    gen = rng(14)
    drop = Spectrahedrop(TVM)
    p = linear_form_poly(0.4, 0.4)
    res = search_certificate(p, TVM, 0)
    assert bool(res)
    found = 0
    while found < 8:
        n = int(gen.integers(1, 4))
        x = HermitianTuple([np.asarray(m) * 0.6
                            for m in (np.diag(gen.uniform(-1, 1, n)),
                                      np.diag(gen.uniform(-1, 1, n)))])
        if not drop_membership(drop, x).feasible:
            continue
        val = lambda_min(p.evaluate(x))
        assert val >= -1e-6
        found += 1
