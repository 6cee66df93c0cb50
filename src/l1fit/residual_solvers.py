"""Solvers for the minimum-l1 residual problem  min ||r||_1  s.t.  D r = w.

Seven interchangeable routines are provided: an exact vertex simplex and
six iterative methods (gradient projection, a log-barrier interior point
whose exact Newton steps take one n x n solve on the kernel basis,
homotopy path following, iterative shrinkage, alternating directions, and
a proximity-operator scheme).

Each method is a core solver ``(D, w, N, params)`` on a pair with
orthonormal rows and a kernel basis N of D; ``RESIDUAL_METHODS`` maps the
method names to these cores.  ``fit_via_residual`` wires them into the
reduce -> solve -> recover pipeline: it hands every core the pair
D = Q2^T, w = -D b that ``reduce_problem`` builds and N = Q1 from the same
complete QR A = Q [R; 0], so nothing else is factored per fit, and it
answers a consistent system (w at rounding level) with r = 0 directly.
The public ``residual_*`` functions accept any pair (D, w): the six
iterative ones orthonormalize it with one QR of D^T
(``_orthonormal_pair``), the vertex simplex with one SVD of D, and then
run the core, whose stop rules all measure the orthonormal pair.

By the paper's equivalence theorem an optimal residual vanishes on
dim(null D) rows, so every iterative answer points at a vertex that the
simplex can finish.  All six iterative cores end through ``_Crossover``:
exactly one crossover per solve, the vertex simplex warm-started at the
rows the iterate names (``_vertex_rows``).  All but the homotopy name rows
along the way, and the crossover runs when a try names the same rows as
the previous one, or else on the point the run ends at.  ``converged`` is
the simplex's certificate; the solvers' own stop rules and the iteration
budget only decide when to stop, and an uncertified run returns its end
point, restored onto the constraints, with converged=False.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .linalg import default_rank_tol, norm1, norm2, norm_inf, soft
from .reduction import MlmProblem, ReducedSystem, SolveReport, recover, reduce_problem
from .simplex import l1_vertex

__all__ = [
    "SolverParams",
    "ResidualSolution",
    "residual_linprog",
    "residual_gpsr",
    "residual_tnipm",
    "residual_homotopy",
    "residual_ist",
    "residual_adm",
    "residual_pob",
    "fit_via_residual",
    "RESIDUAL_METHODS",
    "RESIDUAL_LABELS",
]

_ALPHA_MIN = 1e-30
_ALPHA_MAX = 1e30

# continuation grid for the quadratic-relaxation solvers: start a tenth of
# the level at which the zero vector is optimal, halve per level (gentle
# enough that warm starts keep every level cheap)
_LEVEL_START = 0.1
_LEVEL_FACTOR = 0.5
# stationarity target relative to each level's penalty weight; it must be
# tight at every level because the l1 value drifts by (slack / penalty)
# along the constraint kernel and later, smaller levels move too slowly to
# repair slop inherited from earlier ones
_LEVEL_TOL = 1e-4
# working norm of the rescaled right-hand side in the proximity scheme
_POB_W_NORM = 500.0
# relaxation factor of the alternating-directions multiplier update
_ADM_ZETA = 1.618
# the first-order solvers name vertex rows every this many iterations
_TRY_EVERY = 10
# a QR pivot of D^T at most this share of the largest marks dependent rows
_RANK_TOL = float(np.sqrt(np.finfo(float).eps))


@dataclass(frozen=True)
class SolverParams:
    """Shared knobs for the iterative solvers.

    epsilon  positive stopping / constraint tolerance (also the homotopy's
             terminal regularization level; its path cannot end at 0)
    lam      penalty weight of the quadratic relaxation solved by the
             gradient-projection, interior-point and shrinkage methods
    maxiter  iteration cap; it ends a run like the solver's own stop rule,
             and converged is then True only if the crossover from the end
             point is certified
    tau, mu  proximity-operator parameters; mu=None derives the default
             0.999 * tau / ||D||_2^2 (the alternating-directions method
             instead defaults mu to mean|w_i|)
    """

    epsilon: float = 1e-8
    lam: float = 1e-8
    maxiter: int = 10000
    tau: float = 0.02
    mu: float | None = None

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.lam >= 0:
            raise ValueError("lam must be nonnegative")
        if not self.maxiter >= 1:
            raise ValueError("maxiter must be at least 1")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.mu is not None and not self.mu > 0:
            raise ValueError("mu must be positive when given")


@dataclass(frozen=True)
class ResidualSolution:
    r: np.ndarray
    iterations: int
    converged: bool
    objective: float


def _check_dw(D, w):
    D = np.asarray(D, dtype=float)
    w = np.asarray(w, dtype=float)
    if D.ndim != 2 or w.ndim != 1 or D.shape[0] != w.size:
        raise ValueError(f"constraint shapes do not match: D {D.shape}, w {w.shape}")
    return D, w


def _orthonormal_pair(D, w):
    """Equivalent constraint pair with orthonormal rows, and a kernel basis.

    First-order, path-following and alternating-direction iterations behave
    far better when the row Gram matrix is the identity (the published
    step-size recipes assume it).  One complete QR D^T = Q R gives the pair
    R1^-T [D | w] (R1 the top k x k block of R; {r : D r = w} is unchanged)
    and the kernel basis N = Q[:, k:] of D.  Not Q1^T D: R1^-T D is the
    Cholesky pair L^-1 D up to row signs and keeps equal columns of D
    bitwise equal (a tie the homotopy must see).  Dependent rows raise
    LinAlgError (a pivot of R1 at most sqrt(eps) of the largest, about where
    that Cholesky fails), the callers' only rank check: an orthonormal basis
    of D's row space would silently drop a constraint.
    """
    D, w = _check_dw(D, w)
    k = D.shape[0]
    Q, R = np.linalg.qr(D.T, mode="complete")
    pivots = np.abs(R.diagonal())
    if pivots.size and pivots.min() <= _RANK_TOL * pivots.max():
        raise np.linalg.LinAlgError("the rows of D are linearly dependent")
    Dw = np.linalg.solve(R[:k].T, np.concatenate((D, w[:, None]), axis=1))
    return Dw[:, :-1], Dw[:, -1], Q[:, k:]


def _lambda_levels(D, w, lam_target):
    """Geometric penalty schedule from 0.1 * ||D^T w||_inf down to the target."""
    levels = []
    lam = _LEVEL_START * norm_inf(D.T @ w)
    while lam > lam_target:
        levels.append(lam)
        lam *= _LEVEL_FACTOR
    levels.append(lam_target)
    return levels


def _qp_stationarity(r, grad, lam, support_tol):
    """Max violation of the penalized problem's optimality conditions.

    ``grad`` is D^T(D r - w); optimality requires grad_i = -lam * sign(r_i)
    where r_i is nonzero and |grad_i| <= lam elsewhere.
    """
    on = np.abs(r) > support_tol
    worst = 0.0
    if np.any(on):
        worst = float(np.max(np.abs(grad[on] + lam * np.sign(r[on]))))
    if not np.all(on):
        worst = max(worst, max(float(np.max(np.abs(grad[~on]))) - lam, 0.0))
    return worst


def _restore_feasibility(r, D, w):
    """l2-minimal correction onto {r : D r = w} for orthonormal-row D."""
    return r - D.T @ (D @ r - w)


def _vertex_rows(D, w, N, r):
    """The rows Z an iterate names: the k = dim(null D) smallest |r_f|, sorted.

    For an orthonormal-row pair (D, w) and the kernel basis N of D from
    ``_orthonormal_pair``; r_f is r restored onto {r : D r = w}.  An optimal
    residual vanishes on k rows (the equivalence theorem), so Z is where
    the vertex simplex starts.
    """
    rf = _restore_feasibility(r, D, w)
    k = N.shape[1]
    return np.sort(np.argpartition(np.abs(rf), k - 1)[:k])


def _simplex_residual(D, w, N, rows=None):
    """The vertex simplex on an orthonormal pair: (r = N z + D^T w, the L1Vertex of z).

    z comes from ``l1_vertex(N, -D^T w, rows)``, started from the basis
    ``rows`` when given.
    """
    r0 = D.T @ w
    vertex = l1_vertex(N, -r0, rows=rows)
    return N @ vertex.x + r0, vertex


class _Crossover:
    """Ends one solve with exactly one simplex crossover from the rows its iterates name.

    ``attempt(r)`` names the rows Z of an iterate (``_vertex_rows``).  When
    they equal the previous try's rows, the iterate has settled on a vertex,
    and the crossover runs: the vertex simplex warm-started at Z
    (``_simplex_residual``).  The attempt then returns True, whether or not
    the simplex certified, since nothing later in the run can certify.
    ``finish(r, it)`` gives the solve's answer from the point r the run
    stops at: it runs the crossover from r's rows if none ran, and returns
    the simplex's vertex with converged=True when it is certified, else r
    with an l2-minimal feasibility restoration and converged=False.
    """

    def __init__(self, D, w, N):
        self.D, self.w, self.N = D, w, N
        self.rows = None  # Z of the last try
        self.result = None  # the crossover's (r, L1Vertex), once run

    def attempt(self, r) -> bool:
        """Whether the iterate r named the previous try's rows, so the crossover ran."""
        rows = _vertex_rows(self.D, self.w, self.N, r)
        if np.array_equal(rows, self.rows):
            self.result = _simplex_residual(self.D, self.w, self.N, rows)
        self.rows = rows
        return self.result is not None

    def finish(self, r, it) -> ResidualSolution:
        """The solve's answer when the run stops at r after ``it`` iterations."""
        if self.result is None:
            rows = _vertex_rows(self.D, self.w, self.N, r)
            self.result = _simplex_residual(self.D, self.w, self.N, rows)
        vertex_r, vertex = self.result
        if vertex.certified:
            return ResidualSolution(r=vertex_r, iterations=it, converged=True,
                                    objective=norm1(vertex_r))
        r = _restore_feasibility(r, self.D, self.w)
        return ResidualSolution(r=r, iterations=it, converged=False, objective=norm1(r))


def _continuation(D, w, p, state, step, stationarity, attempt):
    """Warm-started continuation over the penalty weight (the SpaRSA scheme).

    ``state`` is a tuple whose first entry is r.  ``step(state, lam, first)``
    returns the next state; ``first`` marks a level's first step.
    ``stationarity(state, lam)`` measures the state against the level, and
    a level ends at its target.  Every ``_TRY_EVERY`` steps ``attempt(r)``
    is called, and the run ends when it returns True.  Returns the state the
    run stopped on (the last level's target, the attempt that ran the
    crossover or the spent budget) and the iteration count; ``_Crossover``
    finishes from it.
    """
    it = 0
    for lam in _lambda_levels(D, w, p.lam):
        start = it
        while stationarity(state, lam) > _LEVEL_TOL * lam:
            if it >= p.maxiter:
                return state, it
            state = step(state, lam, it == start)
            it += 1
            if it % _TRY_EVERY == 0 and attempt(state[0]):
                return state, it
    return state, it


def _linprog(D, w, N, params: SolverParams | None = None) -> ResidualSolution:
    """The vertex simplex on an orthonormal pair: r = N z + D^T w, z from l1_vertex(N, -D^T w)."""
    r, vertex = _simplex_residual(D, w, N)
    return ResidualSolution(r=r, iterations=vertex.steps, converged=vertex.certified,
                            objective=norm1(r))


def residual_linprog(D, w, params: SolverParams | None = None) -> ResidualSolution:
    """Exact minimum-l1 residual by the vertex simplex on a basis of {r : D r = w}.

    One SVD of D gives the orthonormal pair (V1^T, S^-1 U1^T w), whose
    minimum-norm point is r0 = V1 S^-1 U1^T w, and the kernel basis N = V2
    (rank from ``default_rank_tol``, so dependent consistent rows are
    accepted); a w outside the range of D raises ValueError.  The answer
    r = N z + r0 takes z from ``l1_vertex(N, -r0)``, so at least
    dim(null D) entries of r vanish.  ``iterations`` counts basis changes;
    ``converged`` is the vertex's optimality certificate, False when the
    step budget ran out.
    """
    D, w = _check_dw(D, w)
    U, sv, Vt = np.linalg.svd(D, full_matrices=True)
    rank = int(np.count_nonzero(sv > default_rank_tol(D)))
    wt = (U[:, :rank].T @ w) / sv[:rank]
    if norm2(D @ (Vt[:rank].T @ wt) - w) > 1e-9 * (1.0 + norm2(w)):
        raise ValueError("w is not in the range of D; the constraints D r = w are inconsistent")
    return _linprog(Vt[:rank], wt, Vt[rank:].T, params)


def residual_gpsr(D, w, params: SolverParams | None = None) -> ResidualSolution:
    """Gradient projection on the split-variable quadratic program.

    Projected Barzilai-Borwein steps on r = u - v (u, v >= 0) with an exact
    line search, step lengths clipped to [1e-30, 1e30], run on the
    row-orthonormal pair from one QR inside ``_continuation``; each level is
    left once the stationarity residual drops below _LEVEL_TOL times the
    level, the last level being ``lam``.  Every 10 steps the iterate names
    its vertex rows, and a repeat of the previous rows ends the run.  The
    run ends through ``_Crossover`` (one warm-started simplex crossover),
    and ``converged`` means certified.
    """
    return _gpsr(*_orthonormal_pair(D, w), params)


def _gpsr(D, w, N, params: SolverParams | None = None) -> ResidualSolution:
    """``residual_gpsr``'s iteration on an orthonormal pair with kernel basis N."""
    p = params or SolverParams()
    if not p.lam > 0:
        raise ValueError("gradient projection requires lam > 0")
    r = np.zeros(D.shape[1])
    Dr = D @ r

    def step(state, lam, first):
        # shifting u and v by min(u, v) after each step leaves exactly
        # u = max(r, 0) and v = max(-r, 0), so r alone carries the split
        r, Dr, grad0, alpha = state
        if first:
            alpha = 1.0  # stale step estimates from the previous level stall
        u = np.maximum(r, 0.0)
        v = np.maximum(-r, 0.0)
        grad_u = grad0 + lam
        grad_v = -grad_u + 2.0 * lam
        du = np.maximum(u - alpha * grad_u, 0.0) - u
        dv = np.maximum(v - alpha * grad_v, 0.0) - v
        Ddr = D @ (du - dv)
        gamma = float(Ddr @ Ddr)
        if np.isfinite(gamma) and gamma > 0.0:
            beta = min(-(float(grad_u @ du) + float(grad_v @ dv)) / gamma, 1.0)
        elif gamma <= 0.0:
            beta = 1.0
        else:  # gamma overflowed; the line search rejects the step
            beta = 0.0
        r = (u + beta * du) - (v + beta * dv)
        delta = float(du @ du) + float(dv @ dv)
        if gamma <= 0.0:
            alpha = _ALPHA_MAX
        elif np.isfinite(delta / gamma):
            alpha = min(_ALPHA_MAX, max(_ALPHA_MIN, delta / gamma))
        Dr = Dr + beta * Ddr
        return r, Dr, D.T @ (Dr - w), alpha

    def stationarity(state, lam):
        r, _, grad0, _ = state
        return _qp_stationarity(r, grad0, lam, 1e-12 * (1.0 + norm2(r)))

    crossover = _Crossover(D, w, N)
    with np.errstate(over="ignore", invalid="ignore"):
        state, it = _continuation(D, w, p, (r, Dr, D.T @ (Dr - w), 1.0), step, stationarity,
                                  crossover.attempt)
    return crossover.finish(state[0], it)


def residual_tnipm(D, w, params: SolverParams | None = None) -> ResidualSolution:
    """Primal log-barrier interior point (the truncated-Newton model) with exact Newton steps.

    Each Newton system of the log-barrier formulation is solved exactly by
    one n x n solve on the kernel basis N (``_newton_direction``); on the
    row-orthonormal pair from one QR, D^T D = I - N N^T.  The duality gap is
    tested relative to the dual objective (only once that is positive).
    After every accepted step the iterate names its vertex rows, and a
    repeat of the previous rows ends the run.  The run also ends when the
    gap closes, backtracking stalls, the accepted step stops moving the
    point or the budget runs out.  The run ends through ``_Crossover`` (one
    warm-started simplex crossover), and ``converged`` means certified.
    """
    return _tnipm(*_orthonormal_pair(D, w), params)


def _newton_direction(N, grad, q1, q2, t):
    """The exact Newton step (dr, du), stacked, of ``_tnipm``'s barrier problem.

    The Hessian [[D^T D + diag(b1), diag(b2)], [diag(b2), diag(b1)]] is
    M - U U^T, with M its 2 x 2-block diagonal at D^T D = I and U = [N; 0],
    since D^T D = I - N N^T.  Woodbury takes y = M^-1(-grad) and corrects it
    by one n x n solve with the Schur complement N^T diag(e) N, where
    e = 1 - b1/det = 4 q1^2 q2^2 / (t^2 det) is formed without cancellation.
    """
    m = N.shape[0]
    b1, b2 = (q1 * q1 + q2 * q2) / t, (q1 * q1 - q2 * q2) / t
    cross = 4.0 * (q1 * q2 / t) ** 2  # b1^2 - b2^2
    det = b1 + cross
    y_top = (b2 * grad[m:] - b1 * grad[:m]) / det
    y_bot = (b2 * grad[:m] - (1.0 + b1) * grad[m:]) / det
    c = N @ np.linalg.solve(N.T @ ((cross / det)[:, None] * N), N.T @ y_top)
    return np.concatenate([y_top + b1 / det * c, y_bot - b2 / det * c])


def _tnipm(D, w, N, params: SolverParams | None = None) -> ResidualSolution:
    """``residual_tnipm``'s iteration on an orthonormal pair with kernel basis N."""
    p = params or SolverParams()
    if not p.lam > 0:
        raise ValueError("interior-point method requires lam > 0")
    m = D.shape[1]

    mu_t, ls_alpha, ls_beta = 2.0, 0.01, 0.5
    r = np.zeros(m)
    u = np.ones(m)
    f = np.concatenate([u - r, u + r])
    step = np.inf
    dobj = -np.inf
    t = min(max(1.0, 1.0 / p.lam), 2.0 * m / p.epsilon)

    crossover = _Crossover(D, w, N)
    it = 0
    while it < p.maxiter:
        it += 1
        z = D @ r - w
        nu = z.copy()
        dual_scale = norm_inf(D.T @ nu)
        if dual_scale > p.lam:
            nu *= p.lam / dual_scale
        pobj = 0.5 * float(z @ z) + p.lam * norm1(r)
        dobj = max(-0.5 * float(nu @ nu) - float(nu @ w), dobj)
        eta = pobj - dobj
        if eta <= 0.0 or (dobj > 0.0 and eta / dobj < p.epsilon):
            break
        if step >= 0.5:
            t = max(mu_t * min(2.0 * m / eta, t), t)

        q1 = 1.0 / (u + r)
        q2 = 1.0 / (u - r)
        grad = np.concatenate([D.T @ z - (q1 - q2) / t, p.lam - (q1 + q2) / t])
        df = _newton_direction(N, grad, q1, q2, t)
        dr, du = df[:m], df[m:]

        fval = 0.5 * float(z @ z) + p.lam * float(np.sum(u)) - float(np.sum(np.log(f))) / t
        gtd = float(grad @ df)
        step = 1.0
        for _ in range(100):
            r_new = r + step * dr
            u_new = u + step * du
            f_new = np.concatenate([u_new - r_new, u_new + r_new])
            if np.min(f_new) > 0.0:
                z_new = D @ r_new - w
                f_cand = (
                    0.5 * float(z_new @ z_new)
                    + p.lam * float(np.sum(u_new))
                    - float(np.sum(np.log(f_new))) / t
                )
                if f_cand - fval <= ls_alpha * step * gtd:
                    break
            step *= ls_beta
        else:
            break  # backtracking found no acceptable step
        if step * norm2(df) <= 1e-14 * (1.0 + norm2(r) + norm2(u)):
            break  # accepted step moves nothing; numerical floor reached
        r, u, f = r_new, u_new, f_new
        if crossover.attempt(r):
            break
    return crossover.finish(r, it)


def _homotopy_step(support, r_k, v, pvec, dk, level, m):
    """Smallest positive step changing the support, per the path rules.

    Returns (delta, entering index, leaving index, removing?) where unused
    indices are -1.  ``level`` is the current regularization level.
    """
    mask = np.ones(m, dtype=bool)
    mask[support] = False
    comp = np.flatnonzero(mask)

    delta_add = np.inf
    i_add = -1
    if comp.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            cand1 = (level - pvec[comp]) / (1.0 + dk[comp])
            cand2 = (level + pvec[comp]) / (1.0 - dk[comp])
        pos1 = np.flatnonzero(cand1 > 0.0)
        pos2 = np.flatnonzero(cand2 > 0.0)
        d1 = np.inf
        d2 = np.inf
        if pos1.size:
            k1 = pos1[int(np.argmin(cand1[pos1]))]
            d1 = float(cand1[k1])
        if pos2.size:
            k2 = pos2[int(np.argmin(cand2[pos2]))]
            d2 = float(cand2[k2])
        if d1 > d2:
            delta_add, i_add = d2, int(comp[k2])
        elif np.isfinite(d1):
            delta_add, i_add = d1, int(comp[k1])

    with np.errstate(divide="ignore", invalid="ignore"):
        cand3 = -r_k[support] / v[support]
    pos3 = np.flatnonzero(cand3 > 0.0)
    if pos3.size:
        k3 = pos3[int(np.argmin(cand3[pos3]))]
        d3 = float(cand3[k3])
        if d3 <= delta_add:
            return d3, -1, int(support[k3]), True
    return delta_add, i_add, -1, False


def residual_homotopy(D, w, params: SolverParams | None = None, support_trace=None):
    """Follow the regularization path from ||D^T w||_inf down to epsilon.

    Runs on the row-orthonormal pair from one QR, where the correlations keep
    the signs the path rules assume; on the paper's D = [-C I] they drift and
    the path can end off the optimum.  Maintains the active support and its
    Gram matrix, re-solving the small direction system densely at each
    breakpoint.  ``support_trace`` (a list, if given) records the support
    size at every step.  The path end, the budget's end or the start point
    r = 0 when ||D^T w||_inf <= epsilon goes through ``_Crossover``, one
    simplex crossover warm-started at the rows it names; ``converged``
    means certified.
    """
    return _homotopy(*_orthonormal_pair(D, w), params, support_trace)


def _homotopy(D, w, N, params: SolverParams | None = None, support_trace=None):
    """``residual_homotopy``'s path on an orthonormal pair with kernel basis N."""
    p = params or SolverParams()
    m = D.shape[1]
    lam = p.epsilon  # terminal level of the path

    r = np.zeros(m)
    pvec = -(D.T @ w)
    pmax = norm_inf(pvec)
    crossover = _Crossover(D, w, N)
    if pmax <= lam:
        return crossover.finish(r, 0)

    xi = np.flatnonzero(np.abs(pvec) == pmax)
    z = np.zeros(m)
    z[xi] = -np.sign(pvec[xi])
    pvec[xi] = pmax * np.sign(pvec[xi])
    B = D[:, xi].T @ D[:, xi]

    it = 0
    while it < p.maxiter:
        it += 1
        if support_trace is not None:
            support_trace.append(int(xi.size))
        gamma = xi
        v = np.zeros(m)
        try:
            v[gamma] = np.linalg.solve(B, z[gamma])
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"degenerate support system for indices {sorted(int(i) for i in gamma)}"
            ) from exc
        dk = D.T @ (D @ v)
        delta, i_add, i_del, removing = _homotopy_step(gamma, r, v, pvec, dk, pmax, m)

        if pmax - delta <= lam:
            r = r + (pmax - lam) * v
            break
        r = r + delta * v
        pvec = pvec + delta * dk
        pmax = pmax - delta

        if removing:
            pos = int(np.flatnonzero(gamma == i_del)[0])
            xi = np.delete(gamma, pos)
            B = np.delete(np.delete(B, pos, axis=0), pos, axis=1)
            r[i_del] = 0.0
            pin = gamma  # the leaving index stays pinned this once
        else:
            cvec = D[:, gamma].T @ D[:, i_add]
            dd = float(D[:, i_add] @ D[:, i_add])
            B = np.block([[B, cvec[:, None]], [cvec[None, :], np.array([[dd]])]])
            r[i_add] = 0.0
            xi = np.append(gamma, i_add)
            pin = xi
        z = np.zeros(m)
        z[xi] = -np.sign(pvec[xi])
        pvec[pin] = pmax * np.sign(pvec[pin])
    return crossover.finish(r, it)


def residual_ist(D, w, params: SolverParams | None = None) -> ResidualSolution:
    """Iterative shrinkage-thresholding with Barzilai-Borwein curvature.

    Runs on the row-orthonormal pair from one QR inside ``_continuation``,
    like the gradient-projection solver; within a level each shrinkage step
    must not increase the penalized objective (the curvature estimate is
    doubled until it does not), which keeps the non-monotone
    Barzilai-Borwein choice from blowing up.  Every 10 steps the iterate
    names its vertex rows, and a repeat of the previous rows ends the run.
    The run ends through ``_Crossover`` (one warm-started simplex
    crossover), and ``converged`` means certified.
    """
    return _ist(*_orthonormal_pair(D, w), params)


def _ist(D, w, N, params: SolverParams | None = None) -> ResidualSolution:
    """``residual_ist``'s iteration on an orthonormal pair with kernel basis N."""
    p = params or SolverParams()
    if not p.lam > 0:
        raise ValueError("iterative shrinkage requires lam > 0")
    r = np.zeros(D.shape[1])
    s = D @ r - w

    def step(state, lam, first):
        # f, the penalized objective at (r, s), is carried within a level
        r_prev, s_prev, grad, alpha, f_prev = state
        if first:
            f_prev = 0.5 * float(s_prev @ s_prev) + lam * norm1(r_prev)
        for _ in range(200):
            r = soft(r_prev - grad / alpha, lam / alpha)
            dr = r - r_prev
            z = D @ dr
            s = s_prev + z
            f = 0.5 * float(s @ s) + lam * norm1(r)
            if f <= f_prev + 1e-12 * abs(f_prev):
                break
            alpha = min(2.0 * alpha, _ALPHA_MAX)
        delta = float(dr @ dr)
        gamma = float(z @ z)
        if delta > 0.0 and gamma > 0.0:
            alpha = min(_ALPHA_MAX, max(_ALPHA_MIN, gamma / delta))
        return r, s, D.T @ s, alpha, f

    def stationarity(state, lam):
        return _qp_stationarity(state[0], state[2], lam, 0.0)

    crossover = _Crossover(D, w, N)
    state, it = _continuation(D, w, p, (r, s, D.T @ s, 1.0, None), step, stationarity,
                              crossover.attempt)
    return crossover.finish(state[0], it)


def residual_adm(D, w, params: SolverParams | None = None) -> ResidualSolution:
    """Alternating-directions method on the dual of the residual problem.

    Runs on the row-orthonormal pair from one QR, where the unit dual gradient
    step is the exact subproblem minimizer (the published step-size formula
    ||s||^2 / ||D^T s||^2 is 1 there) and the 1.618 relaxation factor is
    inside its convergence range.  Penalty mu defaults to mean|w_i|; the
    stopping ratio is measured on the orthonormal pair.  Every 10
    iterations the iterate names its vertex rows, and a repeat of the
    previous rows ends the run.  The run ends through ``_Crossover`` (one
    warm-started simplex crossover), and ``converged`` means certified.  A
    zero w is answered immediately with r = 0, which is exactly optimal.
    """
    return _adm(*_orthonormal_pair(D, w), params)


def _adm(D, w, N, params: SolverParams | None = None) -> ResidualSolution:
    """``residual_adm``'s iteration on an orthonormal pair with kernel basis N."""
    p = params or SolverParams()
    wnorm = norm2(w)
    mn, m = D.shape
    if wnorm == 0.0:
        return ResidualSolution(r=np.zeros(m), iterations=0, converged=True, objective=0.0)
    mu = p.mu if p.mu is not None else float(np.mean(np.abs(w)))

    r = D.T @ w
    z = np.zeros(m)
    y = np.zeros(mn)
    g = np.zeros(m)

    crossover = _Crossover(D, w, N)
    it = 0
    while it < p.maxiter:
        it += 1
        s = D @ (g - z + r / mu) - w / mu
        y = y - s
        g = D.T @ y
        z = np.clip(g + r / mu, -1.0, 1.0)
        dr = _ADM_ZETA * mu * (g - z)
        r = r + dr
        # feasibility alone can be reached while the multiplier is still
        # moving; also require the update itself to have settled
        if norm2(D @ r - w) <= p.epsilon * wnorm and norm2(dr) <= p.epsilon * (1.0 + norm2(r)):
            break
        if it % _TRY_EVERY == 0 and crossover.attempt(r):
            break
    return crossover.finish(r, it)


def residual_pob(D, w, params: SolverParams | None = None) -> ResidualSolution:
    """Proximity-operator scheme: shrinkage step plus a ball projection.

    Requires tau > mu * ||D||_2^2 > 0; by default mu = 0.999 tau / ||D||_2^2.
    The iteration runs on the row-orthonormal pair from one QR, w rescaled to
    a fixed working norm (the solution is scaled back afterwards; the
    problem is positively homogeneous), which puts the data on the scale
    the fixed shrinkage threshold 1/tau was tuned for.  The 1e-6 relative
    internal stop only counts once the unscaled constraint is met to
    max(epsilon, 1e-6 * (1 + ||w||_2)) on the orthonormal pair; every 10
    iterations the iterate names its vertex rows, and a repeat of the
    previous rows ends the run.  The run ends through ``_Crossover`` (one
    warm-started simplex crossover, on the rescaled pair), and
    ``converged`` means certified; a zero w returns r = 0 directly.
    """
    return _pob(*_orthonormal_pair(D, w), params)


def _pob(D, w, N, params: SolverParams | None = None) -> ResidualSolution:
    """``residual_pob``'s iteration on an orthonormal pair with kernel basis N."""
    p = params or SolverParams()
    mn, m = D.shape
    wnorm = norm2(w)
    if mn == 0 or wnorm == 0.0:
        return ResidualSolution(r=np.zeros(m), iterations=0, converged=True, objective=0.0)
    scale = _POB_W_NORM / wnorm
    w0, w = w, scale * w
    # the rows are orthonormal, so ||D||_2 = 1
    mu = p.mu if p.mu is not None else 0.999 * p.tau
    if not p.tau > mu > 0.0:
        raise ValueError(f"need tau > mu * ||D||_2^2 > 0, got tau={p.tau}, mu*||D||^2={mu}")
    feas_gate = max(p.epsilon, 1e-6 * (1.0 + wnorm))

    y = np.zeros(mn)
    r = np.zeros(m)
    zdual = y - (D @ r - w)
    crossover = _Crossover(D, w, N)
    it = 0
    while it < p.maxiter:
        it += 1
        s = r
        r = soft(s - (mu / p.tau) * (D.T @ (2.0 * y - zdual)), 1.0 / p.tau)
        ns = norm2(s)
        if ns > 0.0 and norm2(r - s) < 1e-6 * ns and norm2(D @ (r / scale) - w0) <= feas_gate:
            break
        if it % _TRY_EVERY == 0 and crossover.attempt(r):
            break
        zdual = y
        t = D @ r + zdual - w
        nt = norm2(t)
        if nt <= p.epsilon:
            y = np.zeros(mn)
        else:
            y = (1.0 - p.epsilon / nt) * t
    res = crossover.finish(r, it)
    r = res.r / scale
    return ResidualSolution(r=r, iterations=it, converged=res.converged, objective=norm1(r))


# the core solvers (D, w, N, params) on an orthonormal pair, by method name
RESIDUAL_METHODS = {
    "linprog": _linprog,
    "gpsr": _gpsr,
    "tnipm": _tnipm,
    "homotopy": _homotopy,
    "ist": _ist,
    "adm": _adm,
    "pob": _pob,
}

RESIDUAL_LABELS = {
    "linprog": "L1-RES",
    "gpsr": "L1-GPSR",
    "tnipm": "L1-TNIPM",
    "homotopy": "L1-HP",
    "ist": "L1-IST",
    "adm": "L1-ADM",
    "pob": "L1-POB",
}


def fit_via_residual(
    problem: MlmProblem,
    method: str = "linprog",
    params: SolverParams | None = None,
    reduced: ReducedSystem | None = None,
) -> SolveReport:
    """Solve min ||A x - b||_1 by the reduce -> solve -> recover pipeline.

    ``method`` picks the residual solver; a precomputed ``reduced`` system
    of A (from ``reduce_problem``) may be passed to amortize the reduction
    over several right-hand sides.  The solver runs on the reduction's
    orthonormal pair D = Q2^T, w = -D b and the kernel basis Q1; w is taken
    from ``problem.b`` (every residual A x - b satisfies D r = -D b), not
    from ``reduced.w``.  A ``reduced`` of other shapes, with Q1 R v off A v
    for the probe v = (1, ..., n) (distinct entries, so permuted columns
    show), or with D (A v) off zero, does not fit the problem and raises
    ValueError.  When |w| <= m eps |D| |b| holds in every row (no
    constraints, or w is rounding noise), r = 0 is optimal and no solver
    runs.
    """
    if method not in RESIDUAL_METHODS:
        raise ValueError(
            f"unknown residual method {method!r}; valid names: "
            + ", ".join(sorted(RESIDUAL_METHODS))
        )
    params = params or SolverParams()
    m, n = problem.m, problem.n
    t0 = time.perf_counter()
    rs = reduced if reduced is not None else reduce_problem(problem)
    if rs.D.shape != (m - n, m) or rs.Q.shape != (m, m) or rs.R.shape != (n, n):
        raise ValueError(f"reduced system has D {rs.D.shape}, Q {rs.Q.shape} and R {rs.R.shape}; "
                         f"the problem needs ({m - n}, {m}), ({m}, {m}) and ({n}, {n})")
    if reduced is not None:
        v = np.arange(1.0, n + 1.0)
        Av, scale = problem.A @ v, 1e-8 * np.linalg.norm(problem.A) * norm2(v)
        if norm2(rs.Q[:, :n] @ (rs.R @ v) - Av) > scale:
            raise ValueError("reduced system is not a QR factorization of the problem's A")
        if norm2(rs.D @ Av) > scale:
            raise ValueError("reduced system's D does not annihilate the problem's A")
    w = -(rs.D @ problem.b)
    rounding = m * np.finfo(float).eps * (np.abs(rs.D) @ np.abs(problem.b))
    if np.all(np.abs(w) <= rounding):
        # consistent system (w is rounding noise, or no constraints remain):
        # r = 0 is optimal
        res = ResidualSolution(r=np.zeros(m), iterations=0, converged=True, objective=0.0)
    else:
        res = RESIDUAL_METHODS[method](rs.D, w, rs.Q[:, :n], params)
    x = recover(problem, rs, res.r)
    residual = problem.A @ x - problem.b
    elapsed = time.perf_counter() - t0
    return SolveReport(
        x=x,
        residual=residual,
        cost=norm1(residual),
        iterations=res.iterations,
        runtime_s=elapsed,
        method=RESIDUAL_LABELS[method],
        converged=res.converged,
    )
