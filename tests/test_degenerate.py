"""Degenerate inputs: badly scaled data, exact boundary points, an unbounded
drop, duplicated and nearly dependent interpolation pairs, a rank-one Choi
matrix, and the real versus realified and unitarily conjugated forms of one
question.

Each answer is checked against an oracle that does not run the solver: the
closed forms in ``corpus``, a direct ``eigvalsh`` of L(X, Y), or the Choi map
applied to the data.  Scaling a pencil by c > 0 leaves its spectrahedron
unchanged, so the status must stay and the margin must scale by c.
"""

import numpy as np
import pytest

from freeconvex.algebra import HermitianTuple, LinearPencil, evaluate_pencil
from freeconvex.cli import main
from freeconvex.corpus import (ex_no_tracial_extension, interval_tuple,
                               scalar_tuple, sigma_x, sigma_y, sigma_z,
                               tv_lift, tv_screen_value)
from freeconvex.cp import (InterpolationMode, apply_choi, interpolate,
                           interpolation_problem)
from freeconvex.io import dumps, encode_pencil, encode_tuple
from freeconvex.rand import rand_unitary, rng
from freeconvex.sdp import SolveStatus, build_from_complex, solve
from freeconvex.spectra import (Spectrahedrop, drop_level1_bounded,
                                drop_membership, polar_membership)

EIG_TOL = 1e-8
MAP_TOL = 1e-6
# inside, near the curve, outside (tv_screen_value 0.88, 0.0198, -0.47)
TV_POINTS = [(0.3, 0.4), (0.99, 0.1), (0.9, 0.9)]
# a real symmetric pair at matrix level 2, scaled inside and outside
_X = HermitianTuple([np.diag([0.3, -0.5]),
                    np.array([[0.2, 0.3], [0.3, -0.4]])])
MATRIX_POINTS = [_X.scale(0.5), _X.scale(2.0)]


def scaled(pencil, c):
    return LinearPencil(c * np.asarray(pencil.A0),
                        [c * np.asarray(a) for a in pencil.x_coeffs],
                        [c * np.asarray(a) for a in pencil.y_coeffs])


def assert_drop_witness(lift, x, res, floor=-EIG_TOL):
    """FEASIBLE, and L(X, Y) of the returned Y is PSD by a direct eigvalsh."""
    assert res.status is SolveStatus.FEASIBLE
    lam = np.linalg.eigvalsh(evaluate_pencil(lift, x, res.y_witness))[0]
    assert lam >= floor


def assert_choi(res, sources, targets, mode):
    """The Choi witness maps sources to targets and meets the mode's
    condition, checked through the Choi map itself."""
    choi = res.choi
    for src, tgt in zip(sources, targets):
        assert np.abs(apply_choi(choi, src) - tgt).max() <= MAP_TOL
    assert choi.lambda_min() >= -EIG_TOL
    if mode is InterpolationMode.CHANNEL:
        assert np.abs(choi.trace_matrix() - np.eye(choi.n)).max() <= MAP_TOL
    elif mode is InterpolationMode.UNITAL:
        assert np.abs(choi.block_sum_diag() - np.eye(choi.m)).max() <= MAP_TOL


@pytest.mark.parametrize("c", [1e-6, 1e-4, 1e4, 1e6])
def test_tv_lift_scaling(c):
    tv = Spectrahedrop(tv_lift())
    big = Spectrahedrop(scaled(tv_lift(), c))
    for x1, x2 in TV_POINTS:
        x = scalar_tuple(x1, x2)
        ref = drop_membership(tv, x)
        res = drop_membership(big, x)
        assert bool(res) is (tv_screen_value(x1, x2) > 0)
        assert res.status is ref.status
        assert abs(res.margin - c * ref.margin) <= 1e-6 * c * abs(ref.margin)
        if res.feasible:
            assert_drop_witness(big.lift, x, res, floor=-EIG_TOL * max(1.0, c))


@pytest.mark.parametrize("x", [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0),
                               (0.0, -1.0)])
def test_tv_boundary_points(x):
    # tv_screen_value is exactly 0: the answer comes from a verified
    # boundary witness
    assert tv_screen_value(*x) == 0.0
    tv = Spectrahedrop(tv_lift())
    res = drop_membership(tv, scalar_tuple(*x))
    assert abs(res.margin) <= 1e-7
    assert_drop_witness(tv.lift, scalar_tuple(*x), res)


@pytest.mark.parametrize("v", [1.0, -1.0])
def test_interval_polar_endpoints(v):
    # the polar dual of [-1, 1] is [-1, 1]; its endpoints need a unital map
    # sending diag(1, -1) to v, i.e. a state on the boundary of the cone
    omega, x = interval_tuple(-1.0, 1.0), scalar_tuple(v)
    res = polar_membership(omega, x, bounded=True)
    assert res.status is SolveStatus.FEASIBLE
    assert res.certificate.reconstruction_residual(x, omega) <= MAP_TOL
    assert res.certificate.contraction_defect() <= EIG_TOL


def test_parabola_drop():
    # [[y, x], [x, 1]] >= 0 iff y >= x^2: every x is in the projection, which
    # is unbounded; at x = 3 the phase-I supremum t* = 1 is not attained
    drop = Spectrahedrop(LinearPencil(np.diag([0.0, 1.0]),
                                      [np.array([[0.0, 1.0], [1.0, 0.0]])],
                                      [np.diag([1.0, 0.0])]))
    x = scalar_tuple(3.0)
    res = drop_membership(drop, x)
    assert_drop_witness(drop.lift, x, res)
    assert res.info["attempts"] == 1
    assert drop_level1_bounded(drop) is False


@pytest.mark.parametrize("mode", [InterpolationMode.CP,
                                  InterpolationMode.UNITAL,
                                  InterpolationMode.CHANNEL,
                                  InterpolationMode.OPERATION])
def test_duplicated_interpolation_pairs(mode):
    # repeating a pair repeats its rows: presolve must drop them and decide
    # the same question
    a, b = ex_no_tracial_extension()
    a2 = HermitianTuple(list(a) + [a[1], a[2]])
    b2 = HermitianTuple(list(b) + [b[1], b[2]])
    ref = interpolate(a, b, mode)
    res = interpolate(a2, b2, mode)
    assert res.status is ref.status
    assert res.status in (SolveStatus.FEASIBLE, SolveStatus.INFEASIBLE)
    assert res.margin == pytest.approx(ref.margin, abs=1e-6)
    if res.feasible:
        assert_choi(res, a2, b2, mode)


def test_nearly_dependent_interpolation_rows():
    """W_1, W_2 and I are nearly dependent (least singular value of their
    svecs 6e-4), so the unital interpolation's rows are too and the Schur
    solves miss the primal rows by about 3e-10 from the first iteration;
    against a solution 2,000 times the data that held the primal residual
    at 1.3e-7, above the 1e-7 test, until the iterate left the cone
    (ERROR).  Refined Schur solves reach the test; the realified form,
    which does not stall, is the oracle for the margin."""
    omega = HermitianTuple([
        np.array([[1.0370565435880381, -0.012501379086537534],
                  [-0.012501379086537534, 0.30241844992465877]]),
        np.array([[-1.1795041608711272, 0.059131851130850344],
                  [0.059131851130850344, 2.1489626110280424]])])
    x = HermitianTuple([
        np.array([[-0.905951907540997, 2.066357701739839],
                  [2.066357701739839, 0.13902913218380109]]),
        np.array([[-0.8977046180453383, 0.16747044433619193],
                  [0.16747044433619193, 0.4941726479635219]])])
    res = polar_membership(omega, x, bounded=True)
    assert res.status is SolveStatus.INFEASIBLE
    ref = solve(build_from_complex(interpolation_problem(
        omega, x, InterpolationMode.UNITAL)))
    assert ref.status is SolveStatus.INFEASIBLE
    assert res.margin == pytest.approx(ref.margin, rel=1e-6)


def test_rank_one_channel():
    # B = U A U* for a tuple spanning M_2: the only channel is conjugation by
    # U, whose Choi matrix has rank one and sits on the boundary of the cone
    u = rand_unitary(rng(3), 2)
    a = HermitianTuple([sigma_x, sigma_y, sigma_z])
    b = HermitianTuple([u @ aj @ u.conj().T for aj in a])
    res = interpolate(a, b, InterpolationMode.CHANNEL)
    assert res.status is SolveStatus.FEASIBLE
    assert_choi(res, a, b, InterpolationMode.CHANNEL)
    w = np.linalg.eigvalsh(res.choi.C)
    assert abs(w[-1] - 2.0) <= MAP_TOL and np.abs(w[:-1]).max() <= MAP_TOL


def test_realified_path_agrees():
    # real data, a matrix point against the pencil tuple of the square
    # |x1|, |x2| <= 1: the half-size real path and the forced realification
    # decide the same status with the same margin, inside and outside
    square = HermitianTuple([np.diag([1.0, -1.0, 0.0, 0.0]),
                             np.diag([0.0, 0.0, 1.0, -1.0])])
    for x in MATRIX_POINTS:
        hp = interpolation_problem(square, x, InterpolationMode.UNITAL)
        assert hp.build().hermitian == ()
        real = hp.solve()
        forced = solve(build_from_complex(hp))
        assert real.status is forced.status
        assert abs(real.margin - forced.margin) <= 1e-6


def test_unitary_conjugation_invariance():
    # L(U X U*, U Y U*) = (I (x) U) L(X, Y) (I (x) U)*: the complex,
    # conjugated point has the status and margin of the real one
    tv = Spectrahedrop(tv_lift())
    u = rand_unitary(rng(11), 2)
    for x in MATRIX_POINTS:
        ref = drop_membership(tv, x)
        res = drop_membership(tv, x.conjugate(u.conj().T))
        assert res.status is ref.status
        assert abs(res.margin - ref.margin) <= 1e-6
        if res.feasible:
            assert_drop_witness(tv.lift, x.conjugate(u.conj().T), res)


def test_cli_scaled_drop_file(tmp_path, capsys):
    # the TV lift times 1e4 at a point near the curve, through the CLI
    doc = {"version": "1", "kind": "drop",
           "payload": {"lift": encode_pencil(scaled(tv_lift(), 1e4)),
                       "X": encode_tuple(scalar_tuple(0.99, 0.1))},
           "options": {}}
    path = tmp_path / "tv-drop-scaled.json"
    path.write_text(dumps(doc))
    assert main(["run", str(path), "--format", "text"]) == 0
    assert "FEASIBLE" in capsys.readouterr().out
