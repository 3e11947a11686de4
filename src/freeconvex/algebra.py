"""Hermitian tuples, free polynomials and linear pencils.

Everything here is plain dense complex numpy; the real-coefficient case is
just the Im = 0 special case.  All containers are frozen dataclasses holding
read-only arrays, so values can be shared freely between threads; a
pencil's certificate searches are the one exception (see LinearPencil).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "HermitianTuple",
    "LinearPencil",
    "NCPolynomial",
    "NormBall",
    "NCWord",
    "kron",
    "realify",
    "direct_sum",
    "evaluate_pencil",
    "evaluate_polynomial",
    "involution",
    "hermitian_part",
    "psd_part",
    "require_hermitian",
    "lambda_min",
    "ball_pencil",
    "monic_tuple",
    "pencil_from_tuple",
]

# Constructors symmetrize inputs whose asymmetry is below this, reject above.
HERMITICITY_TOL = 1e-10

# A word in the free variables x_1..x_g: tuple of 1-based letters, () = identity.
NCWord = tuple


def _asarray(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


def _memoized(owner, key, make):
    """``owner._memo[key]``, made by ``make()`` on first use: the one memo
    of the frozen objects (a pencil, a tuple, a spectrahedrop) that keep
    what their queries share.  Not locked: an owner's queries must not run
    concurrently."""
    if key not in owner._memo:
        owner._memo[key] = make()
    return owner._memo[key]


def hermitian_part(m) -> np.ndarray:
    m = _asarray(m)
    return 0.5 * (m + m.conj().T)


def psd_part(m: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to a Hermitian (or real symmetric) m: its negative
    eigenvalues are set to zero.  Keeps the dtype of m."""
    w, v = np.linalg.eigh(m)
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def require_hermitian(m, tol: float = HERMITICITY_TOL, what: str = "matrix") -> np.ndarray:
    """Symmetrize round-trip noise below `tol`; reject genuine asymmetry
    and entries that are not finite."""
    m = _asarray(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} is not square: shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has an entry that is not finite")
    asym = np.abs(m - m.conj().T).max() if m.size else 0.0
    scale = max(1.0, np.abs(m).max()) if m.size else 1.0
    if asym > tol * scale:
        raise ValueError(f"{what} is not Hermitian (asymmetry {asym:.3e})")
    return hermitian_part(m)


def lambda_min(m) -> float:
    m = require_hermitian(m)
    if m.shape[0] == 0:
        return np.inf
    return float(np.linalg.eigvalsh(m)[0])


def kron(a, b) -> np.ndarray:
    """Kronecker product, coefficient-first convention used throughout."""
    return np.kron(_asarray(a), _asarray(b))


def realify(h) -> np.ndarray:
    """Real symmetric embedding [[Re H, -Im H], [Im H, Re H]] of Hermitian H.

    Preserves positive semidefiniteness and doubles every eigenvalue's
    multiplicity.
    """
    h = require_hermitian(h)
    re, im = h.real, h.imag
    return np.block([[re, -im], [im, re]])


@dataclass(frozen=True)
class HermitianTuple:
    """A g-tuple of n x n complex Hermitian matrices; ``_memo`` keeps the
    boundedness answer that :func:`~freeconvex.spectra.polar_membership`
    reads, made on first use."""

    matrices: tuple
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __init__(self, matrices: Iterable, dim: Optional[int] = None):
        mats = tuple(_freeze(require_hermitian(m, what=f"tuple entry {i}"))
                     for i, m in enumerate(matrices))
        if mats:
            d = mats[0].shape[0]
            if any(m.shape[0] != d for m in mats):
                raise ValueError("all tuple entries must share one size")
        else:
            if dim is None:
                dim = 0
            d = dim
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "_dim", d)
        object.__setattr__(self, "_memo", {})

    @property
    def g(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self._dim  # type: ignore[attr-defined]

    def __getitem__(self, j: int) -> np.ndarray:
        return self.matrices[j]

    def __iter__(self):
        return iter(self.matrices)

    def conjugate(self, v) -> "HermitianTuple":
        """Simultaneous conjugation V* X V (V any dim x k matrix)."""
        v = _asarray(v)
        return HermitianTuple([v.conj().T @ m @ v for m in self.matrices],
                              dim=v.shape[1])

    def scale(self, t: float) -> "HermitianTuple":
        return HermitianTuple([t * m for m in self.matrices], dim=self.dim)

    def norm(self) -> float:
        """max_j ||X_j|| (spectral)."""
        if not self.matrices:
            return 0.0
        return max(float(np.linalg.norm(m, 2)) for m in self.matrices)

    def isclose(self, other: "HermitianTuple", tol: float = 1e-9) -> bool:
        if self.g != other.g or self.dim != other.dim:
            return False
        return all(np.abs(a - b).max() <= tol for a, b in zip(self, other))


def direct_sum(x: HermitianTuple, y: HermitianTuple) -> HermitianTuple:
    """Componentwise block-diagonal sum; the empty 0-dim tuple is neutral."""
    if x.g != y.g:
        raise ValueError(f"variable counts differ: {x.g} vs {y.g}")
    nx, ny = x.dim, y.dim
    mats = []
    for a, b in zip(x, y):
        m = np.zeros((nx + ny, nx + ny), dtype=complex)
        m[:nx, :nx] = a
        m[nx:, nx:] = b
        mats.append(m)
    if x.g == 0:
        return HermitianTuple([], dim=nx + ny)
    return HermitianTuple(mats)


@dataclass(frozen=True)
class LinearPencil:
    """Affine pencil A0 + sum_j A_j x_j + sum_k G_k y_k with Hermitian d x d
    coefficients.  h = 0 is the plain one-variable-class case.

    ``_memo`` keeps the certificate SDP of
    :func:`~freeconvex.possatz.search_certificate` for each degree r and
    polynomial size mu, made on first use; the coefficients are frozen, so
    an entry never goes stale.  The kept problems are not locked, so
    searches on one pencil must not run concurrently.
    """

    A0: np.ndarray
    x_coeffs: tuple
    y_coeffs: tuple = ()
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __init__(self, A0, x_coeffs: Iterable, y_coeffs: Iterable = ()):
        A0 = _freeze(require_hermitian(A0, what="A0"))
        xs = tuple(_freeze(require_hermitian(m, what=f"x coefficient {j}"))
                   for j, m in enumerate(x_coeffs))
        ys = tuple(_freeze(require_hermitian(m, what=f"y coefficient {k}"))
                   for k, m in enumerate(y_coeffs))
        d = A0.shape[0]
        if any(m.shape[0] != d for m in xs + ys):
            raise ValueError("pencil coefficients must all be d x d")
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "x_coeffs", xs)
        object.__setattr__(self, "y_coeffs", ys)
        object.__setattr__(self, "_memo", {})

    @property
    def d(self) -> int:
        return self.A0.shape[0]

    @property
    def g(self) -> int:
        return len(self.x_coeffs)

    @property
    def h(self) -> int:
        return len(self.y_coeffs)

    @property
    def monic(self) -> bool:
        return bool(np.array_equal(self.A0, np.eye(self.d, dtype=complex)))

    def as_x_pencil(self) -> "LinearPencil":
        """Forget the x/y split: all g + h variables become x variables."""
        return LinearPencil(self.A0, self.x_coeffs + self.y_coeffs)

    def __call__(self, x: HermitianTuple, y: Optional[HermitianTuple] = None) -> np.ndarray:
        return evaluate_pencil(self, x, y)


def evaluate_pencil(pencil: LinearPencil, x: HermitianTuple,
                    y: Optional[HermitianTuple] = None) -> np.ndarray:
    """L(X) = A0 (x) I_n + sum A_j (x) X_j (+ sum G_k (x) Y_k)."""
    if x.g != pencil.g:
        raise ValueError(f"pencil takes {pencil.g} x-variables, point has {x.g}")
    if pencil.h == 0:
        if y is not None and y.g != 0:
            raise ValueError("pencil has no y-variables")
        y = None
    else:
        if y is None:
            raise ValueError(f"pencil takes {pencil.h} y-variables")
        if y.g != pencil.h:
            raise ValueError(f"pencil takes {pencil.h} y-variables, point has {y.g}")
        if x.g and y.g and y.dim != x.dim:
            raise ValueError("x and y evaluation points must share one size")
    n = x.dim or (y.dim if y is not None else 0) or 1
    out = np.kron(pencil.A0, np.eye(n, dtype=complex))
    for coeff, xj in zip(pencil.x_coeffs, x):
        out = out + np.kron(coeff, xj)
    if y is not None:
        for coeff, yk in zip(pencil.y_coeffs, y):
            out = out + np.kron(coeff, yk)
    return hermitian_part(out)


def monic_tuple(pencil: LinearPencil):
    """Coefficient tuples (W, G) with pencil = I - sum W_j x_j - sum G_k y_k.

    The monic normal form used by the polar-dual and tracial procedures.
    """
    if not pencil.monic:
        raise ValueError("pencil is not monic; monicize it first")
    om = HermitianTuple([-m for m in pencil.x_coeffs], dim=pencil.d)
    ga = HermitianTuple([-m for m in pencil.y_coeffs], dim=pencil.d)
    return om, ga


def pencil_from_tuple(omega: HermitianTuple,
                      gamma: Optional[HermitianTuple] = None) -> LinearPencil:
    """Monic pencil I - sum W_j x_j (- sum G_k y_k) from coefficient tuples."""
    d = omega.dim if omega.g else (gamma.dim if gamma is not None and gamma.g else 1)
    ys = [-m for m in gamma] if gamma is not None else []
    return LinearPencil(np.eye(d), [-m for m in omega], ys)


@dataclass(frozen=True)
class NormBall:
    """Operator-norm ball { X : ||X|| <= epsilon } in g variables."""

    g: int
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    def contains(self, x: HermitianTuple, tol: float = 0.0) -> bool:
        return x.norm() <= self.epsilon + tol

    def pencil(self) -> LinearPencil:
        return ball_pencil(self.g, self.epsilon)


def ball_pencil(g: int, epsilon: float) -> LinearPencil:
    """Monic (g+1) x (g+1) pencil whose solution set is the epsilon ball.

    Schur complement of [[eps, x^T], [x, eps I]] gives eps^2 I - sum X_j^2 >= 0.
    """
    d = g + 1
    coeffs = []
    for j in range(g):
        c = np.zeros((d, d), dtype=complex)
        c[0, j + 1] = 1.0 / epsilon
        c[j + 1, 0] = 1.0 / epsilon
        coeffs.append(c)
    return LinearPencil(np.eye(d), coeffs)


# ---------------------------------------------------------------------------
# free polynomials
# ---------------------------------------------------------------------------


def word_key(w: NCWord):
    """Graded lexicographic sort key."""
    return (len(w), w)


def _clean_terms(terms: Mapping, rows: int, cols: int, g: int):
    out = {}
    for w, c in terms.items():
        w = tuple(int(l) for l in w)
        if any(l < 1 or l > g for l in w):
            raise ValueError(f"word {w} has letters outside 1..{g}")
        c = _asarray(c)
        if c.shape != (rows, cols):
            raise ValueError(f"coefficient of {w} has shape {c.shape}, want {(rows, cols)}")
        if np.abs(c).max() > 0.0:
            out[w] = _freeze(c)
    return out


@dataclass(frozen=True)
class NCPolynomial:
    """Free matrix polynomial sum_w B_w w with B_w in C^{rows x cols}.

    Words are tuples of 1-based letters; zero coefficients are never stored.
    """

    g: int
    rows: int
    cols: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           _clean_terms(self.terms, self.rows, self.cols, self.g))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(m, g: int) -> "NCPolynomial":
        m = _asarray(m)
        return NCPolynomial(g, m.shape[0], m.shape[1], {(): m})

    @staticmethod
    def scalar(value: complex, g: int) -> "NCPolynomial":
        return NCPolynomial.constant(np.array([[value]]), g)

    @staticmethod
    def variable(j: int, g: int) -> "NCPolynomial":
        """The scalar polynomial x_j (1-based j)."""
        if not 1 <= j <= g:
            raise ValueError(f"variable index {j} outside 1..{g}")
        return NCPolynomial(g, 1, 1, {(j,): np.array([[1.0]])})

    # -- data access -------------------------------------------------------

    @property
    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def coeff(self, w: NCWord) -> np.ndarray:
        w = tuple(w)
        if w in self.terms:
            return self.terms[w]
        return np.zeros((self.rows, self.cols), dtype=complex)

    def words(self):
        return sorted(self.terms, key=word_key)

    # -- arithmetic --------------------------------------------------------

    def _check_compat(self, other: "NCPolynomial"):
        if self.g != other.g:
            raise ValueError("polynomials over different variable counts")

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        self._check_compat(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in polynomial sum")
        terms = {w: np.array(c) for w, c in self.terms.items()}
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return NCPolynomial(self.g, self.rows, self.cols, terms)

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + (other * (-1.0))

    def __mul__(self, other):
        if np.isscalar(other):
            return NCPolynomial(self.g, self.rows, self.cols,
                                {w: other * c for w, c in self.terms.items()})
        self._check_compat(other)
        if self.cols != other.rows:
            raise ValueError("inner shapes do not chain in polynomial product")
        terms: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                terms[w] = terms.get(w, 0) + c1 @ c2
        return NCPolynomial(self.g, self.rows, other.cols, terms)

    __rmul__ = __mul__

    def adjoint(self) -> "NCPolynomial":
        """Word reversal plus conjugate transpose of every coefficient."""
        return NCPolynomial(self.g, self.cols, self.rows,
                            {w[::-1]: c.conj().T for w, c in self.terms.items()})

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        if self.rows != self.cols:
            return False
        return self.max_coeff_diff(self.adjoint()) <= tol

    def max_coeff_diff(self, other: "NCPolynomial") -> float:
        words = set(self.terms) | set(other.terms)
        if not words:
            return 0.0
        return max(float(np.abs(self.coeff(w) - other.coeff(w)).max()) for w in words)

    def evaluate(self, x: HermitianTuple) -> np.ndarray:
        return evaluate_polynomial(self, x)


def involution(p: NCPolynomial) -> NCPolynomial:
    return p.adjoint()


def _word_value(w: NCWord, x: HermitianTuple, n: int) -> np.ndarray:
    out = np.eye(n, dtype=complex)
    for letter in w:
        out = out @ x[letter - 1]
    return out


def evaluate_polynomial(p: NCPolynomial, x: HermitianTuple) -> np.ndarray:
    """P(X) = sum_w B_w (x) w(X); Hermitian whenever P is symmetric."""
    if x.g != p.g:
        raise ValueError(f"polynomial takes {p.g} variables, point has {x.g}")
    n = x.dim or 1
    out = np.zeros((p.rows * n, p.cols * n), dtype=complex)
    for w, c in p.terms.items():
        out += np.kron(c, _word_value(w, x, n))
    return out
