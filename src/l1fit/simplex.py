"""The l1 vertex simplex: min ||A x - b||_1 over n interpolated rows.

An l1-optimal x interpolates n rows of A x = b, so the basis is a set Z of
n independent rows and x = A_Z^-1 b_Z (Barrodale & Roberts 1973; the
``br`` method of Koenker & d'Orey 1987).  With sigma the sign of the
residual off Z, the vector s = A_Z^-T A_S^T sigma_S certifies the vertex
when ||s||_inf <= 1.  Otherwise the row k with the largest |s_k| > 1
leaves: x moves along d = -sign(s_k) A_Z^-1 e_k, on which the cost falls
at rate |s_k| - 1, and the entering row is the weighted median of the
breakpoints -r_i / (A d)_i, where the slope has risen to zero.

A row swap changes A_Z^-1 by one rank-one term (Sherman-Morrison).  The
terms are not applied to the n x n inverse one by one: A_Z^-1 is held as
a factor F less the terms of the steps since the last fold, the product
form of the inverse (Dantzig & Orchard-Hays 1954), and every
``_FOLD_EVERY`` steps one matmul folds them into F.  F is stored
transposed, so the column A_Z^-1 e_k along which x moves is a contiguous
row.  A_Z^-1 is refactored from A_Z every ``_REFACTOR_EVERY`` steps and
before a verdict, unless no step was taken since it was last factored.

The first phase runs on a graded perturbation of b, on which no residual
off Z vanishes.  The second starts from its rows on the original b: a
residual within the tie tolerance of zero takes the sign of the perturbed
residual of the same basis.  Ties in the line search go to the lowest
row index.  After ``_STALL_LIMIT`` zero-length steps in a row the
lowest-index leaving row is taken (Bland's rule) until a step moves
again.

The descent starts at the caller's rows, or by default at the first n
independent rows.  A start basis is factored once: the inverse the
descent needs is also its independence test.  Row k of A_Z^-T is
orthogonal to every other row of A_Z and has inner product 1 with a_k, so
1 / ||row k|| is the distance from a_k to the span of the others; the
basis is taken when every such distance exceeds ``default_rank_tol(A)``,
read from the largest entry of A_Z^-T (``_basis_inverse``).  When the
caller's rows and then the first n rows fail, the start takes rows one at
a time, by Gram-Schmidt (``_start_rows``).

Before either phase the start vertex is tested on its tied rows T, the
residuals within the tie tolerance of zero, when there are more than n:
a degenerate optimum, which the n-row test cannot prove (the simplex
would walk many zero-cost steps).  With S the other rows, the vertex is
optimal when some u_T in [-1, 1]^|T| has A_T^T u_T = -A_S^T sign(r_S),
the subgradient condition 0 in A^T d||r||_1.  u_T starts at the
minimum-norm solution, taken through the inverse of the n x n Gram
A_T^T A_T, and is moved into the box by Douglas-Rachford rounds (Bauschke,
Combettes & Luke 2004); the test gives up early when a round's step
toward the affine set proves, by Farkas' lemma, that no such u_T exists
(``_tied_optimal``).  A vertex certified so takes no step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _EPS, default_rank_tol, norm1, norm_inf

__all__ = ["L1Vertex", "l1_vertex"]

# consecutive zero-length steps before the leaving row goes by lowest index
_STALL_LIMIT = 30
# steps between refactorizations of A_Z^-1
_REFACTOR_EVERY = 200
# rank-one terms held beside the factor of A_Z^-1 before they are folded into it
_FOLD_EVERY = 32
# step budget per row plus column of A
_STEPS_PER_DIM = 50
# the first phase's right-hand side is b + _PERTURB (1 + ||b||_inf) (1 + (i+1)/m)
_PERTURB = 1e-7
# a residual is tied at zero when |r_i| <= _TIE_TOL (1 + ||b||_inf)
_TIE_TOL = 1e-9
# the vertex is certified when ||s||_inf <= 1 + _CERT_TOL
_CERT_TOL = 1e-10
# the tied-row test clips to +-_TIED_CLIP in each of at most _TIED_PROJECTIONS
# Douglas-Rachford rounds; A_T^T u_T = c must hold to _TIED_TOL (1 + ||c||_inf)
_TIED_CLIP = 0.999
_TIED_PROJECTIONS = 50
_TIED_TOL = 1e-9


@dataclass(frozen=True)
class L1Vertex:
    """x = A_Z^-1 b_Z for the basis rows Z; ``certified`` is ||s||_inf <= 1 + 1e-10 on b.

    A start vertex that passes the tied-row test is certified with ``steps`` 0.
    """

    x: np.ndarray
    rows: np.ndarray
    steps: int
    certified: bool


def _start_rows(A: np.ndarray) -> np.ndarray:
    """The first n rows that are independent, taken in row order.

    A row joins when its part orthogonal to the rows already taken exceeds
    ``default_rank_tol(A)``, so a nonsingular A[:n] is taken whole.  A is
    scaled by a power of two (``_unit_shift``) so no norm overflows or vanishes.
    """
    m, n = A.shape
    A = np.ldexp(A, _unit_shift(A))
    tol = default_rank_tol(A)
    Q = np.zeros((n, n))
    rows = []
    for i in range(m):
        if len(rows) == n:
            break
        q = Q[: len(rows)]
        v = A[i] - (A[i] @ q.T) @ q
        v -= (v @ q.T) @ q  # second pass keeps Q orthonormal
        norm = float(np.linalg.norm(v))
        if norm > tol:
            Q[len(rows)] = v / norm
            rows.append(i)
    if len(rows) < n:
        raise ValueError("A has column rank below n; the l1 fit is not unique")
    return np.array(rows, dtype=int)


def _smallest_rows(r, k):
    """The k rows of smallest |r|, sorted: the rows a point names.

    An optimal residual vanishes on as many rows as the fit has unknowns,
    so the smallest entries of a point near it name a start basis.
    """
    return np.sort(np.abs(r).argpartition(k - 1)[:k])


def _unit_shift(M):
    """The exponent e that puts max|2^e M| in [1/2, 1), for np.ldexp(M, e).

    The scaling is exact, and the Gram of the scaled M cannot overflow or
    vanish when M is far out of range.
    """
    return -math.frexp(norm_inf(M))[1]


def _least_squares_rows(A, b):
    """The n rows of smallest least-squares residual |A x - b|, sorted.

    Only the order of |r| matters, so x comes from the normal equations of
    A scaled by a power of two (``_unit_shift``), which leaves r as it is:
    0.65 ms at 256 x 128 against 3.4 ms for a reduced QR, 25 against 48 us
    at 12 x 3 (medians, one x86_64 core, one BLAS thread).  None when A^T A
    is singular in floating point, which a full-rank but ill-conditioned A
    can make it.
    """
    A_s = np.ldexp(A, _unit_shift(A))
    try:
        x_s = np.linalg.solve(A_s.T @ A_s, A_s.T @ b)
    except np.linalg.LinAlgError:
        return None
    return _smallest_rows(A_s @ x_s - b, A.shape[1])


def _basis_inverse(A, rows, tol):
    """A_Z^-T for Z = ``rows`` when A_Z passes the independence test, else None.

    Row k of A_Z^-T is the w_k with a_j^T w_k = delta_jk, so 1 / ||w_k||_2 is
    the distance from a_k to the span of the other rows of A_Z, at most the
    |R_kk| of a QR of A_Z^T.  The test asks every such distance to exceed
    ``tol`` through the bound ||w_k||_2 <= sqrt(n) max|w_k|, which squares
    nothing and so cannot overflow.  A singular or non-finite inverse fails.
    """
    try:
        inv_T = np.linalg.inv(A[rows].T)
    except np.linalg.LinAlgError:
        return None
    size = norm_inf(inv_T)  # nan or inf fail the test
    return inv_T if A.shape[1] ** 0.5 * size * tol < 1.0 else None


def _tied_optimal(A, b, x) -> bool:
    """Whether x passes the tied-row test; False when at most n rows are tied.

    T is the rows with |r_i| <= _TIE_TOL (1 + ||b||_inf) for r = A x - b.
    When c = -A_S^T sign(r_S) is zero, u_T = 0 passes with no factorization.
    Otherwise u_T starts at the minimum-norm solution A_T G^-1 c of
    A_T^T u_T = c, with G = A_T^T A_T the n x n Gram (one inverse), and
    Douglas-Rachford rounds (averaged alternating reflections, Bauschke,
    Combettes & Luke 2004) search the box [-1, 1]^|T| and that affine set
    for a common point.  A round from z clips p = clip(z), projects
    u = P(2 p - z) onto A_T^T u = c and moves z by u - p, until u lies in
    the box.  The test also fails at once when y = G^-1 (c - A_T^T p),
    the part of u - p in range(A_T), proves that no u_T in the box fits:
    |c^T y| > ||A_T y||_1 (Farkas).  A singular G fails the test.  Only the
    final check certifies, so an inaccurate G^-1 can fail the test but not
    pass a vertex that is not optimal.
    """
    n = A.shape[1]
    r = A @ x - b
    tied = np.abs(r) <= _TIE_TOL * (1.0 + norm_inf(b))
    t = np.count_nonzero(tied)
    if t <= n:
        return False
    A_T = A[tied]
    c = -(np.sign(r[~tied]) @ A[~tied])
    if not c.any():
        return True  # u_T = 0 certifies; every row is tied on a consistent system
    # the rounds run on A_T and c scaled by s = 2^shift, with s max|A_T| < 1
    shift = _unit_shift(A_T)
    A_s, c_s = np.ldexp(A_T, shift), np.ldexp(c, shift)
    try:
        G_inv = np.linalg.inv(A_s.T @ A_s)
    except np.linalg.LinAlgError:
        return False
    c_max = norm_inf(c)
    tol = _TIED_TOL * (1.0 + c_max)
    # Giving up is proven.  A u that passes the final check has |u_i| <= 1 and
    # A_T^T u = c + e, |e_j| <= tol + (t + 1) eps (t max|A_T| + ||c||_inf) with
    # the check's own rounding, so for every y
    # |c_s^T y| = |u^T A_s y - s e^T y| <= ||A_s y||_1 + s ||e||_inf ||y||_1.
    # Forming c_s^T y and ||A_s y||_1 errs by (t + n) eps (t + ||c_s||_inf) ||y||_1
    # more, to first order.  The slack below exceeds the sum of both terms by
    # s tol + (n + 1) eps (t + ||c_s||_inf), room for the second-order ones.
    slack = 2.0 * (math.ldexp(tol, shift) + (t + n + 1) * _EPS * (t + math.ldexp(c_max, shift)))
    u = z = A_s @ (G_inv @ c_s)
    for _ in range(_TIED_PROJECTIONS):
        if norm_inf(u) <= 1.0:
            break
        p = z.clip(-_TIED_CLIP, _TIED_CLIP)
        y = G_inv @ (c_s - p @ A_s)
        if abs(y @ c_s) > norm1(A_s @ y) + slack * norm1(y):
            return False
        v = 2.0 * p - z
        u = v - A_s @ (G_inv @ (v @ A_s - c_s))
        z += u - p
    return norm_inf(u) <= 1.0 and norm_inf(A_T.T @ u - c) <= tol


def _descend(A, b, b_pert, rows, inv_T, budget):
    """Both phases from the start ``rows``; returns (rows, A_Z^-T, steps, ||s||_inf).

    ``inv_T`` is A_Z^-T at the start rows.  The first phase steps on
    ``b_pert``.  When it is certified or out of budget the second starts
    from its rows on ``b``, with ties at zero broken by the residuals on
    ``b_pert``.  Every verdict is taken again on a fresh factorization, and
    only a verdict on ``b`` ends the descent.

    Between factorizations A_Z^-1 is F - P^T Q: the factor F, held as
    ``inv_T`` = F^T, less one rank-one term p_t q_t^T per step since the
    last fold (rows t of P and Q).  Every ``_FOLD_EVERY`` terms are folded
    into F with one matmul.
    """
    n = A.shape[1]
    tol = _TIE_TOL * (1.0 + norm_inf(b))
    target = b_pert
    steps = stall = since = terms = 0  # since: steps since A_Z^-1 was factored
    P, Q = np.empty((_FOLD_EVERY, n)), np.empty((_FOLD_EVERY, n))
    r = None
    while True:
        if r is None:
            r = A @ (target[rows] @ inv_T) - target
            # in the first phase the target is b_pert, so r is its own tie-breaker
            r_tie = r if target is b_pert else A @ (b_pert[rows] @ inv_T) - b_pert
        sigma = np.sign(r if r_tie is r else np.where(np.abs(r) > tol, r, r_tie))
        sigma[rows] = 0.0
        g = sigma @ A
        s = inv_T @ g - (P[:terms] @ g) @ Q[:terms]
        size = np.abs(s)
        over = (size > 1.0 + _CERT_TOL).nonzero()[0]
        if over.size == 0 or steps >= budget:
            if since == 0 and target is b:
                return rows, inv_T, steps, float(size.max(initial=0.0))
            target, r = b, None
            if since > 0:  # at since == 0, inv_T is already a fresh factorization
                inv_T, since, terms = np.linalg.inv(A[rows].T), 0, 0
            continue
        k = int(over[rows[over].argmin()]) if stall >= _STALL_LIMIT else int(size.argmax())
        col = inv_T[k] - Q[:terms, k] @ P[:terms]  # A_Z^-1 e_k
        Ad = -np.sign(s[k]) * (A @ col)
        # a row whose residual moves toward zero is a breakpoint; the slope
        # starts at 1 - |s_k| and rises by 2 |(A d)_i| as each is passed
        cand = (sigma * Ad < 0.0).nonzero()[0]
        if cand.size == 0:
            # in exact arithmetic sigma_S^T A_S d = -|s_k| < 0, so some row is a
            # breakpoint; none is left only when rounding swamps A_Z^-1
            raise ValueError("A has column rank below n; the l1 fit is not unique")
        alpha = np.maximum(-r[cand] / Ad[cand], 0.0)
        order = alpha.argsort(kind="stable")  # ties go to the lowest row
        slope = 1.0 - size[k] + (2.0 * np.abs(Ad[cand[order]])).cumsum()
        pick = order[min(int(slope.searchsorted(0.0)), order.size - 1)]
        j, step = int(cand[pick]), float(alpha[pick])

        r += step * Ad
        if r_tie is not r:
            r_tie -= (r_tie[j] / Ad[j]) * Ad
            r_tie[j] = 0.0
        r[j] = 0.0
        # A_Z with row k replaced by a_j (Sherman-Morrison): A_Z^-1 gains the
        # term -(A_Z^-1 e_k / u_k) (u - e_k)^T, with u^T = a_j^T A_Z^-1
        u = inv_T @ A[j] - (P[:terms] @ A[j]) @ Q[:terms]
        pivot = u[k]
        u[k] -= 1.0
        P[terms], Q[terms] = col / pivot, u
        terms += 1
        rows[k] = j
        steps += 1
        stall = stall + 1 if step == 0.0 else 0
        since += 1
        if since == _REFACTOR_EVERY:
            inv_T, since, terms, r = np.linalg.inv(A[rows].T), 0, 0, None
        elif terms == _FOLD_EVERY:
            inv_T, terms = inv_T - Q.T @ P, 0  # F^T - Q^T P


def l1_vertex(A, b, rows=None) -> L1Vertex:
    """Minimize ||A x - b||_1 at a vertex: n rows of A x = b interpolated.

    A must be m x n with m >= n and column rank n (ValueError otherwise,
    also when a step finds no breakpoint, which only rounding on a
    numerically rank-deficient A allows).
    ``rows`` (n row indices) is the start basis; by default, or when
    A[rows] fails the independence test (every row farther than
    ``default_rank_tol(A)`` from the span of the others, read from the
    inverse the start needs anyway), the descent starts from the first n
    independent rows.  A basis that passes the test is factored once, and
    no start takes a QR.  Indices of another count or out of range raise
    ValueError.  The step budget is 50 (m + n) over both phases; a run
    that spends it returns its last vertex with ``certified`` False.  A
    start vertex that passes the tied-row test (see the module docstring)
    is returned certified, with ``steps`` 0.

    These input checks are for outside callers.  The package's own routes
    (``fit_linprog`` and the residual solvers) hand data they have already
    checked, and start rows of their own, to ``_l1_vertex`` and skip them.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
        raise ValueError(f"shapes do not match: A {A.shape}, b {b.shape}")
    m, n = A.shape
    if m < n:
        raise ValueError(f"need at least as many rows as columns, got {m} x {n}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("A and b must be finite")
    if rows is not None:
        rows = np.array(rows)  # a copy: _descend edits the basis in place
        if rows.shape != (n,) or (n and (rows.dtype.kind not in "iu" or rows.min() < 0
                                         or rows.max() >= m)):
            raise ValueError(f"rows must be {n} row indices in [0, {m}), got {rows!r}")
    return _l1_vertex(A, b, rows)


def _l1_vertex(A, b, rows) -> L1Vertex:
    """``l1_vertex`` without its input checks.

    A (m x n, m >= n) and b are finite float arrays, and ``rows`` is None
    or n row indices in [0, m) that the descent may edit in place.
    """
    m, n = A.shape
    tol = default_rank_tol(A)
    inv_T = None if rows is None else _basis_inverse(A, rows, tol)
    if inv_T is None:
        rows = np.arange(n)
        inv_T = _basis_inverse(A, rows, tol)
        if inv_T is None:
            rows = _start_rows(A)
            inv_T = np.linalg.inv(A[rows].T)
    x = b[rows] @ inv_T
    if _tied_optimal(A, b, x):
        return L1Vertex(x=x, rows=rows, steps=0, certified=True)
    budget = _STEPS_PER_DIM * (m + n)
    b_pert = b + _PERTURB * (1.0 + norm_inf(b)) * (1.0 + np.arange(1, m + 1) / m)
    rows, inv_T, steps, s_max = _descend(A, b, b_pert, rows, inv_T, budget)
    x = b[rows] @ inv_T
    return L1Vertex(x=x, rows=rows, steps=steps, certified=s_max <= 1.0 + _CERT_TOL)
