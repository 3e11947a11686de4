import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconvex.algebra import (HermitianTuple, LinearPencil, NCPolynomial,
                                ball_pencil, direct_sum, evaluate_pencil,
                                evaluate_polynomial, involution, kron,
                                lambda_min, monic_tuple, pencil_from_tuple,
                                realify, require_hermitian)
from freeconvex.rand import rng, rand_hermitian, rand_tuple, rand_unitary


def scalar_tuple(*vals):
    return HermitianTuple([np.array([[float(v)]]) for v in vals])


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_hand_expansion():
    out = kron(np.diag([1.0, -1.0]), np.diag([1.0, 2.0]))
    assert np.array_equal(out, np.diag([1.0, 2.0, -1.0, -2.0]))


def test_kron_unit_factor():
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    assert np.array_equal(kron(e12, np.eye(1)), e12)


def test_realify_identity():
    assert np.array_equal(realify(np.eye(2)), np.eye(4))


def test_realify_sigma_y_spectrum():
    sy = np.array([[0, -1j], [1j, 0]])
    w = np.linalg.eigvalsh(realify(sy))
    assert np.allclose(w, [-1, -1, 1, 1])


def test_realify_real_input_duplicates():
    out = realify(np.diag([2.0, 3.0]))
    assert np.allclose(np.sort(np.linalg.eigvalsh(out)), [2, 2, 3, 3])


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 5), st.integers(0, 10_000))
def test_realify_doubles_spectrum(n, seed):
    h = rand_hermitian(rng(seed), n)
    a = np.sort(np.linalg.eigvalsh(h))
    b = np.sort(np.linalg.eigvalsh(realify(h)))
    assert np.allclose(b, np.repeat(a, 2), atol=1e-10)
    assert np.array_equal(realify(h), np.block([[h.real, -h.imag],
                                                [h.imag, h.real]]))


def test_hermiticity_policy():
    noisy = np.array([[1.0, 1e-12], [0.0, 2.0]])
    out = require_hermitian(noisy)
    assert np.allclose(out, out.conj().T)
    with pytest.raises(ValueError):
        require_hermitian(np.array([[1.0, 0.5], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        require_hermitian(np.array([[1.0 + 0.1j]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_entries_are_rejected(bad):
    mat = np.eye(2, dtype=complex)
    mat[1, 1] = bad
    with pytest.raises(ValueError, match="not finite"):
        HermitianTuple([np.eye(2), mat])
    with pytest.raises(ValueError, match="not finite"):
        LinearPencil(mat, [np.eye(2)])


def test_involution_rule():
    p = NCPolynomial(2, 1, 1, {(1, 2): np.array([[1j]])})
    q = involution(p)
    assert set(q.terms) == {(2, 1)}
    assert q.terms[(2, 1)][0, 0] == -1j


def test_involution_matrix_coeff():
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    p = NCPolynomial(2, 2, 2, {(1, 2, 1): e12})
    q = involution(p)
    assert np.array_equal(q.terms[(1, 2, 1)], e12.T)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(0, 3))
def test_involution_is_involution(seed, g, nterms):
    gen = rng(seed)
    terms = {}
    for _ in range(nterms):
        w = tuple(int(v) for v in gen.integers(1, g + 1,
                                               size=int(gen.integers(0, 4))))
        terms[w] = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
    p = NCPolynomial(g, 2, 2, terms)
    assert p.max_coeff_diff(involution(involution(p))) == 0.0


def test_symmetric_fixed_point():
    p = NCPolynomial(1, 1, 1, {(): np.array([[2.0]]),
                               (1, 1): np.array([[-1.0]])})
    assert p.is_symmetric()
    assert p.max_coeff_diff(involution(p)) == 0.0


def test_evaluate_polynomial_tv_point():
    p = NCPolynomial(2, 1, 1, {(): np.array([[1.0]]),
                               (1, 1): np.array([[-1.0]]),
                               (2, 2, 2, 2): np.array([[-1.0]])})
    val = evaluate_polynomial(p, scalar_tuple(1.0, 1.0))
    assert np.allclose(val, [[-1.0]])


def test_evaluate_polynomial_constant():
    p = NCPolynomial.constant(np.eye(2), g=1)
    out = evaluate_polynomial(p, HermitianTuple([rand_hermitian(rng(0), 3)]))
    assert np.allclose(out, np.eye(6))


def test_commutator_on_commuting_arguments():
    p = NCPolynomial(2, 1, 1, {(1, 2): np.array([[1.0]]),
                               (2, 1): np.array([[-1.0]])})
    x = HermitianTuple([np.diag([1.0, 2.0]), np.diag([3.0, -1.0])])
    assert np.abs(evaluate_polynomial(p, x)).max() < 1e-14


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_symmetric_polynomial_evaluates_hermitian(seed):
    gen = rng(seed)
    w = tuple(int(v) for v in gen.integers(1, 3, size=2))
    coeff = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
    p = NCPolynomial(2, 2, 2, {w: coeff})
    p = p + involution(p)
    x = rand_tuple(gen, 2, 3)
    val = evaluate_polynomial(p, x)
    assert np.abs(val - val.conj().T).max() <= 1e-10


def test_pencil_halfline_boundary():
    pencil = LinearPencil(np.eye(1), [2.0 * np.eye(1)])
    assert np.allclose(evaluate_pencil(pencil, scalar_tuple(-0.5)), [[0.0]])


def test_pencil_monic_at_origin():
    pencil = pencil_from_tuple(HermitianTuple([rand_hermitian(rng(3), 3)]))
    out = evaluate_pencil(pencil, HermitianTuple([np.zeros((2, 2))]))
    assert np.allclose(out, np.eye(6))


def test_pencil_tv_block_form_at_origin():
    from freeconvex.corpus import tv_lift
    out = evaluate_pencil(tv_lift(), scalar_tuple(0.0, 0.0),
                          scalar_tuple(0.0))
    assert np.allclose(out, np.diag([1.0, 1, 1, 1, 0]))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_unitary_invariance_of_pencil_spectrum(seed):
    gen = rng(seed)
    pencil = LinearPencil(rand_hermitian(gen, 3), [rand_hermitian(gen, 3)
                                                   for _ in range(2)])
    x = rand_tuple(gen, 2, 3)
    u = rand_unitary(gen, 3)
    a = lambda_min(evaluate_pencil(pencil, x))
    b = lambda_min(evaluate_pencil(pencil, x.conjugate(u)))
    assert abs(a - b) <= 1e-9


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_direct_sum_merges_pencil_spectra(seed):
    gen = rng(seed)
    pencil = LinearPencil(rand_hermitian(gen, 2), [rand_hermitian(gen, 2)])
    x = rand_tuple(gen, 1, 2)
    y = rand_tuple(gen, 1, 3)
    merged = np.sort(np.concatenate([
        np.linalg.eigvalsh(evaluate_pencil(pencil, x)),
        np.linalg.eigvalsh(evaluate_pencil(pencil, y))]))
    both = np.sort(np.linalg.eigvalsh(evaluate_pencil(pencil,
                                                      direct_sum(x, y))))
    assert np.allclose(merged, both, atol=1e-9)


def test_direct_sum_neutral_and_scalars():
    x = rand_tuple(rng(1), 2, 2)
    empty = HermitianTuple([np.zeros((0, 0))] * 2, dim=0)
    assert direct_sum(x, empty).isclose(x)
    s = direct_sum(scalar_tuple(1.0), scalar_tuple(-1.0))
    assert np.array_equal(s[0], np.diag([1.0, -1.0]))


def test_word_order_is_graded_lex():
    p = NCPolynomial(2, 1, 1, {(2,): np.array([[1.0]]),
                               (1, 1): np.array([[1.0]]),
                               (1,): np.array([[1.0]])})
    assert p.words() == [(1,), (2,), (1, 1)]


def test_monic_tuple_round_trip():
    om = HermitianTuple([rand_hermitian(rng(5), 2) for _ in range(2)])
    pencil = pencil_from_tuple(om)
    back, gam = monic_tuple(pencil)
    assert back.isclose(om) and gam.g == 0


def test_ball_pencil_cuts_out_the_ball():
    pencil = ball_pencil(2, 0.5)
    gen = rng(9)
    for _ in range(10):
        x = rand_tuple(gen, 2, 2, scale=0.4)
        member = lambda_min(evaluate_pencil(pencil, x)) >= -1e-9
        s = sum(m @ m for m in x)
        exact = np.linalg.eigvalsh(s)[-1] <= 0.25 + 1e-9
        assert member == exact
