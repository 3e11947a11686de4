"""Sum-of-squares certificates of positivity on spectrahedrops.

A symmetric free polynomial p of degree <= 2r+1 is PSD on the x projection
of a monic pencil L(x, y) exactly when it decomposes as

    p = sigma + sum_l q_l* L q_l,

with sigma a sum of Hermitian squares of degree-r polynomials, the weights
q_l degree-r polynomial columns in the x variables only, and every
y coefficient cancelling.  Both parts are Gram matrices over the N graded
words w_a of degree <= r: S for sigma, indexed (a, i) -> a*mu + i, and G
for the pencil part, indexed (a, c, i) -> (a*d + c)*mu + i for pencil
coordinate c and polynomial column i < mu, so the number of weights l is
absorbed into the rank of G.  The degree bound is exact: top-degree words
2r+1 arise only from pencil cross terms.

The certificate SDP matches the coefficient of every word, zero for a word
with a y letter, entry by entry.  The row of rev(w), entry (j, i), is the
conjugate of that of w, entry (i, j), so only words w <= rev(w), entries
i <= j of a self-adjoint w and the real part of its diagonal are kept: the
rows are independent.  x words and y words each fill one stack of rows.

Every G row is a sum of Kronecker products E_ab (x) conj(M_k) (x) E_ij, one
per product rev(w_a) x_k w_b of its word (M_k the pencil coefficient of
letter k, M_0 = A0).  In G's basis reordered to (c, a, i) each is
conj(M_k) (x) E_(a,i),(b,j), so each stack gives the engine its G rows in
that factor form alone: the coefficients it uses (A0 and the x
coefficients, or the y coefficients), the reordering, and each row's
units.  The engine makes G's data from them, and may assemble G's part of
the Schur complement from the factors (see the README Notes).

The rows depend only on the pencil, r and the size mu of p; p enters only
the rhs of the x rows.  So :func:`search_certificate` keeps the SDP on the
pencil, in its private memo, one per (r, mu), made by the first search.
Every search checks p as :func:`certificate_problem` does and solves the
kept problem with p's coefficients as the rhs of the x rows, the y rows
staying 0: the stored rows, the built rows and the presolve are made once
per pencil and degree.  Only an rhs that changes the real path or the kept
rows (a p with complex coefficients on a real pencil, and the real p after
it) builds the rows and the presolve again.  A kept problem retains its
stored row stacks (real on a real pencil), built rows and presolve, about
1.9 MiB at r = 2 and 32 MiB at r = 3 on the TV-screen lift, and goes with
the pencil.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .algebra import (LinearPencil, NCPolynomial, _memoized, hermitian_part,
                      word_key)
from .sdp import Decision, HermitianProblem, SolveStatus

__all__ = [
    "WordBasis",
    "Certificate",
    "CertificateSearch",
    "expand_certificate",
    "verify_certificate",
    "certificate_problem",
    "search_certificate",
    "extract_weights",
]

Y_RESIDUAL_TOL = 1e-9
COEFF_TOL = 1e-6


@dataclass(frozen=True)
class WordBasis:
    """All words of degree <= r in letters 1..g, graded lexicographic."""

    g: int
    r: int

    @property
    def words(self) -> Tuple[tuple, ...]:
        out = [()]
        for k in range(1, self.r + 1):
            out.extend(itertools.product(range(1, self.g + 1), repeat=k))
        return tuple(sorted(out, key=word_key))

    def __len__(self):
        return sum(self.g ** k for k in range(self.r + 1))


@dataclass(frozen=True)
class Certificate:
    """Gram data (S, G) for p = sigma + sum q_l* L q_l, Hermitian PSD of
    sizes mu*N and N*d*mu in the index layout of the module docstring."""

    g: int
    d: int
    mu: int
    r: int
    S: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        n = len(WordBasis(self.g, self.r))
        s = hermitian_part(self.S) if np.asarray(self.S).size else \
            np.zeros((0, 0), dtype=complex)
        gm = hermitian_part(self.G) if np.asarray(self.G).size else \
            np.zeros((0, 0), dtype=complex)
        if s.shape[0] != self.mu * n:
            raise ValueError(f"S must have size mu*N = {self.mu * n}")
        if gm.shape[0] != n * self.d * self.mu:
            raise ValueError(f"G must have size N*d*mu = {n * self.d * self.mu}")
        s.setflags(write=False)
        gm.setflags(write=False)
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "G", gm)

    def pencil_contraction(self, m: np.ndarray, a: int, b: int) -> np.ndarray:
        """mu x mu matrix sum_ce M_ce G[(a,c,.),(b,e,.)]."""
        d, mu = self.d, self.mu
        blk = self.G[a * d * mu:(a + 1) * d * mu, b * d * mu:(b + 1) * d * mu]
        t = blk.reshape(d, mu, d, mu)
        return np.einsum("ce,ciej->ij", np.asarray(m, dtype=complex), t)

    def s_block(self, a: int, b: int) -> np.ndarray:
        mu = self.mu
        return self.S[a * mu:(a + 1) * mu, b * mu:(b + 1) * mu]

    def min_eig(self) -> float:
        vals = []
        if self.S.size:
            vals.append(float(np.linalg.eigvalsh(self.S)[0]))
        if self.G.size:
            vals.append(float(np.linalg.eigvalsh(self.G)[0]))
        return min(vals) if vals else 0.0


def expand_certificate(cert: Certificate, pencil: LinearPencil,
                       y_tol: float = Y_RESIDUAL_TOL) -> NCPolynomial:
    """Symbolic expansion of sigma + sum q_l* L q_l over the word basis.

    The result is a polynomial in the x variables of degree <= 2r+1; any
    surviving y coefficient above `y_tol` is an annihilation failure.

    One contraction of G with every pencil coefficient M_k (A0, the x and
    the y coefficients) gives the mu x mu blocks sum_ce M_k,ce
    G[(a,c,.),(b,e,.)] of all pairs (a, b); block (k, a, b) of an x or
    A0 coefficient is the coefficient of rev(w_a) x_k w_b, indexed by the
    words' codes in base g+1 (x_0 = A0 adds no letter).  Only the word
    basis enters, not the rows of the certificate SDP.
    """
    if pencil.d != cert.d or pencil.g != cert.g:
        raise ValueError("certificate and pencil shapes disagree")
    g, d, mu = cert.g, cert.d, cert.mu
    basis = WordBasis(g, cert.r).words
    n = len(basis)
    coeffs = np.array([pencil.A0, *pencil.x_coeffs, *pencil.y_coeffs],
                      dtype=complex).reshape(-1, d * d)
    blocks = (coeffs @ cert.G.reshape(n, d, mu, n, d, mu).transpose(
        1, 4, 0, 3, 2, 5).reshape(d * d, -1)).reshape(-1, n, n, mu, mu)
    y_resid = float(np.abs(blocks[g + 1:]).max(initial=0.0))
    if y_resid > y_tol:
        raise ValueError(f"annihilation violated: y coefficients survive "
                         f"at {y_resid:.3e}")
    blocks = blocks[:g + 1]
    blocks[0] += cert.S.reshape(n, mu, n, mu).transpose(0, 2, 1, 3)
    # code(rev(w_a) k w_b) = (code(rev w_a) B + k) B^|w_b| + code(w_b) for a
    # letter k, and code(rev w_a) B^|w_b| + code(w_b) without one
    base = g + 1
    size = base ** np.array([len(w) for w in basis])
    code = np.array([sum(l * base ** i for i, l in enumerate(w[::-1]))
                     for w in basis])
    rcode = np.array([sum(l * base ** i for i, l in enumerate(w))
                      for w in basis])
    letter = np.arange(base)[:, None, None]
    left = np.where(letter > 0, rcode[:, None] * base + letter, rcode[:, None])
    words, first, index = np.unique((left * size + code).reshape(-1),
                                    return_index=True, return_inverse=True)
    sums = np.zeros((words.size, mu, mu), dtype=complex)
    np.add.at(sums, index, blocks.reshape(-1, mu, mu))
    big = np.abs(sums).reshape(words.size, -1).max(axis=1, initial=0.0) > 1e-14
    k, a, b = (i[big].tolist() for i in np.unravel_index(first, (base, n, n)))
    return NCPolynomial(g, mu, mu, {
        basis[a][::-1] + (k,)[:k] + basis[b]: m
        for k, a, b, m in zip(k, a, b, sums[big])})


def verify_certificate(p: NCPolynomial, cert: Certificate,
                       pencil: LinearPencil):
    """Check a certificate against p: coefficientwise match of the
    expansion to COEFF_TOL, PSD Gram matrices, and the annihilation
    conditions at the certificate invariant tolerance 1e-7.

    Returns (ok, max coefficient residual).
    """
    if not p.is_symmetric(1e-10):
        raise ValueError("p must be symmetric")
    try:
        expanded = expand_certificate(cert, pencil, y_tol=1e-7)
    except ValueError:
        return False, np.inf
    resid = p.max_coeff_diff(expanded)
    ok = resid <= COEFF_TOL and cert.min_eig() >= -1e-8
    return ok, resid


@dataclass
class CertificateSearch(Decision):
    """A solved search ships ``witness["certificate"]`` and its coefficient
    residual as ``detail["residual"]``."""

    @property
    def certificate(self) -> Optional[Certificate]:
        return self.witness.get("certificate")


def _check(p: NCPolynomial, pencil: LinearPencil, r: int):
    if not pencil.monic:
        raise ValueError("certificate search needs a monic pencil")
    if not p.is_symmetric(1e-10):
        raise ValueError("p must be symmetric")
    if p.degree > 2 * r + 1:
        raise ValueError(f"degree {p.degree} exceeds 2r+1 = {2 * r + 1}")
    if p.g != pencil.g:
        raise ValueError("variable counts disagree")


def _coefficients(p: NCPolynomial, rows) -> np.ndarray:
    """p's coefficient for every x row (v, i, j): the real part on the
    diagonal of a self-adjoint word."""
    return np.array([p.coeff(v)[i, j].real if v == v[::-1] and i == j
                     else p.coeff(v)[i, j] for v, i, j in rows], dtype=complex)


def _problem(p: NCPolynomial, pencil: LinearPencil, r: int):
    """(the certificate SDP for p, its x rows (v, i, j) in group 0)."""
    g, d, mu = pencil.g, pencil.d, p.rows
    basis = WordBasis(g, r).words
    n = len(basis)
    # prods[y][word]: the products rev(w_a) x_k w_b equal to word, k = 0 the
    # A0 (and S) term, which adds no letter, and k > g a y letter (y = True);
    # every x word of degree <= 2r+1 has at least one, every y word one
    prods: Tuple[dict, dict] = ({}, {})
    for a, wa in enumerate(basis):
        for b, wb in enumerate(basis):
            for k in range(g + pencil.h + 1):
                word = wa[::-1] + (k,)[:k] + wb
                prods[k > g].setdefault(word, []).append((k, a, b))
    coeffs = np.conj([pencil.A0, *pencil.x_coeffs, *pencil.y_coeffs])
    if not coeffs.imag.any():       # a real pencil's rows are stored real
        coeffs = coeffs.real
    hp = HermitianProblem()
    hp.add_block("S", mu * n)
    hp.add_block("G", n * d * mu)
    # the G data in Kronecker factor form: in the basis order (c, a, i),
    # which is index (a d + c) mu + i of G, the product (k, a, b) of entry
    # (i, j) is conj(M_k) (x) E_(a,i),(b,j); each table's units use its own
    # coefficients, A0 and the x coefficients or the y coefficients
    perm = np.arange(n * d * mu).reshape(n, d, mu).transpose(1, 0, 2).reshape(-1)
    # per table (none for y words without y letters), one stack with a
    # complex row for each entry (i, j) of a word v <= rev(v), i <= j when
    # v = rev(v), since rev(v) and (j, i) give the conjugate row; the
    # imaginary part of a self-adjoint diagonal entry is round-off, so its
    # rhs is real and that row's imaginary part reads 0 = 0
    row_lists = []
    for y, table in enumerate(prods):
        if not table:
            continue
        rows = [(v, i, j) for v in sorted(table, key=word_key) if v <= v[::-1]
                for i in range(mu) for j in range(mu)
                if i <= j or v != v[::-1]]
        row_lists.append(rows)
        t, k, a, b, i, j = np.array([(t, *prod, i, j) for t, (v, i, j)
                                     in enumerate(rows) for prod in table[v]]).T
        # the S data axes read (a, i, b, j)
        s = np.zeros((len(rows), n, mu, n, mu))
        one = k == 0
        s[t[one], a[one], i[one], b[one], j[one]] = 1.0
        first, count = (g + 1, pencil.h) if y else (0, g + 1)
        units = ((k - first) * n * mu + a * mu + i) * n * mu + b * mu + j
        hp.add_complex_row({"S": s.reshape(len(rows), mu * n, -1)},
                           _coefficients(p, rows),
                           kron={"G": (coeffs[first:first + count], perm, t, units)})
    return hp, row_lists[0]


def certificate_problem(p: NCPolynomial, pencil: LinearPencil,
                        r: int) -> HermitianProblem:
    """The Gram feasibility problem of a degree-r certificate for p.

    Coefficient matching runs over every word of degree <= 2r+1 in the x
    variables; words containing a y letter must cancel, which pins the
    pencil Gram against each y coefficient pairwise.
    """
    _check(p, pencil, r)
    return _problem(p, pencil, r)[0]


def search_certificate(p: NCPolynomial, pencil: LinearPencil, r: int,
                       tol: float = 1e-8,
                       max_iter: int = 200) -> CertificateSearch:
    """Solve :func:`certificate_problem` for a degree-r certificate, on the
    pencil's kept problem for (r, mu) with p's coefficients as the rhs.

    FEASIBLE results are re-verified through :func:`verify_certificate`
    before they are returned.
    """
    _check(p, pencil, r)
    hp, rows = _memoized(pencil, (r, p.rows), lambda: _problem(p, pencil, r))
    sol = hp.solve(tol=tol, max_iter=max_iter, rhs={0: _coefficients(p, rows)})
    if not sol.feasible:
        return CertificateSearch(sol.status, sol.margin, info=sol.info)
    cert = Certificate(pencil.g, pencil.d, p.rows, r, sol.witness["S"],
                       sol.witness["G"])
    ok, resid = verify_certificate(p, cert, pencil)
    info = sol.info if ok else \
        {**sol.info, "reason": "certificate failed re-verification"}
    return CertificateSearch(SolveStatus.FEASIBLE if ok else SolveStatus.ERROR,
                             sol.margin, {"certificate": cert},
                             {"residual": resid}, info)


def extract_weights(cert: Certificate):
    """Eigendecomposition of the Gram matrices into explicit polynomials,
    one per eigenvalue above 1e-10 times the largest.

    Returns (sos_factors, pencil_weights): lists of mu x mu and d x mu
    polynomials h_i and q_l with sigma = sum h_i* h_i and pencil part
    sum q_l* L q_l.
    """
    basis = WordBasis(cert.g, cert.r).words

    def factors(gram, rows):
        # sqrt(lam) vec of each eigenpair, read as the (rows, mu)
        # coefficients Q_a[c, i] = conj(vec[(a, c, i)]) of a polynomial
        out = []
        if gram.size:
            w, vecs = np.linalg.eigh(gram)
            top = max(float(w[-1]), 0.0)
            for lam, vec in zip(w, vecs.T):
                if lam > 1e-10 * max(top, 1e-300):
                    h = np.sqrt(lam) * vec.reshape(len(basis), rows, cert.mu)
                    terms = {wa: h[a].conj() for a, wa in enumerate(basis)
                             if np.abs(h[a]).max() > 1e-14}
                    if terms:
                        out.append(NCPolynomial(cert.g, rows, cert.mu, terms))
        return out

    return factors(cert.S, 1), factors(cert.G, cert.d)
