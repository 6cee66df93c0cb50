"""Solvers for the minimum-l1 residual problem  min ||r||_1  s.t.  D r = w.

Seven interchangeable routines are provided: an exact vertex simplex and
six iterative methods (gradient projection, a log-barrier interior point
whose exact Newton steps take one n x n solve on the kernel basis,
homotopy path following on an n x n inverse kept by rank-one updates,
iterative shrinkage, alternating directions, and a proximity-operator
scheme).

Each method is a core solver ``(N, r0, params)`` on the kernel pair of the
constraint set {r : D r = w} = r0 + range(N): N is an orthonormal basis of
null(D) and r0 the set's minimum-norm point.  No core touches D or w.  With
P v = v - N (N^T v), the projection onto the complement of range(N), every
step the methods take on an orthonormal-row pair reads D^T (D r - w) =
P r - r0, ||D r - w|| = ||P r - r0||, and restoring feasibility maps r to
r0 + N (N^T r) = r - (P r - r0); the multipliers D^T y of the dual methods
live in range(P).
``RESIDUAL_METHODS`` maps the method names to these cores.
``fit_via_residual`` wires them into the reduce -> solve -> recover
pipeline: from the thin factors A = Q R that ``reduce_problem`` builds it hands
every core N = Q and r0 = Q (Q^T b) - b, the projection of -b off
range(A), so nothing else is factored per fit and no D is formed, and it
sets an r0 at rounding level (a consistent system) to zero.  Every method
answers r = 0 in 0 iterations, with converged=True, before any core or
crossover runs when r0 is zero or N is square (no constraints remain):
r = 0 is then feasible, and optimal (``_zero_answer``).
The public ``residual_*`` functions accept any pair (D, w) and take
(N, r0) from one SVD of D (``_kernel_pair``), so dependent rows are
accepted when w agrees with them.

By the paper's equivalence theorem an optimal residual vanishes on
dim(null D) rows, so every iterative answer points at a vertex that the
simplex can finish.  Each of the six iterative cores is a generator that
only iterates: it yields every point it moves to once, as (r_f, tries),
with r_f that point restored onto r0 + range(N) from the P r - r0 the core
carries (no product by N), and tries whether rows are named there, and it
returns where its own stop rule fires.  One loop,
``_run``, drives every core and owns the rest: the iteration count (one per
yield), the ``maxiter`` budget, the tries and the answer.  A try names the
k = dim(null D) smallest |r_f| (``_smallest_rows``), and a try that
names the previous try's rows ends the run.  Then exactly one crossover
runs: the vertex simplex warm-started at the repeated rows, or else at the
rows of the point the run ends at.  The interior-point and dual methods try
after every iteration, the gradient-projection and shrinkage methods on the
sparser ``_tries_at`` schedule, and the homotopy not at all.  Those two run
a warm-started continuation over the penalty weight (the SpaRSA scheme):
each steps on ``_lambda_levels`` in turn until its stationarity residual
drops below ``_LEVEL_TOL`` times the level.  ``converged`` is
the simplex's certificate; the solvers' own stop rules and the iteration
budget only decide when to stop, and an uncertified run returns its last
r_f with converged=False.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import _EPS, default_rank_tol, norm1, norm2, norm_inf, soft
from .reduction import MlmProblem, ReducedSystem, SolveReport, recover, reduce_problem
from .simplex import _l1_vertex, _smallest_rows

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
# the continuation solvers name vertex rows after iterations 1, 2, 4 and 8,
# then every this many iterations (``_tries_at``)
_TRY_EVERY = 10
# the homotopy refactors its n x n inverse after this many rank-one updates
_HP_REFACTOR_EVERY = 50


@dataclass(frozen=True)
class SolverParams:
    """Shared knobs for the iterative solvers; ValueError outside their ranges.

    epsilon  positive finite stopping / constraint tolerance (also the
             homotopy's terminal regularization level; its path cannot end
             at 0)
    lam      positive finite penalty weight of the quadratic relaxation
             solved by the gradient-projection, interior-point and
             shrinkage methods
    maxiter  integer iteration cap, at least 1; it ends a run like the
             solver's own stop rule, and converged is then True only if the
             crossover from the end point is certified
    tau, mu  positive finite proximity-operator parameters; mu=None derives
             the default 0.999 * tau / ||D||_2^2 (the alternating-directions
             method instead defaults mu to ||r0||_2 / sqrt(rank D), the RMS
             of w on any orthonormal-row pair, so it does not depend on which
             basis of D's rows is given)
    """

    epsilon: float = 1e-8
    lam: float = 1e-8
    maxiter: int = 10000
    tau: float = 0.02
    mu: float | None = None

    def __post_init__(self):
        for name in ("epsilon", "lam", "tau") + (() if self.mu is None else ("mu",)):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not isinstance(self.maxiter, numbers.Integral) or self.maxiter < 1:
            raise ValueError(f"maxiter must be an integer of at least 1, got {self.maxiter!r}")


# what ``_run`` reads when no params are given; frozen, so one serves every call
_DEFAULT_PARAMS = SolverParams()


@dataclass(frozen=True)
class ResidualSolution:
    r: np.ndarray
    iterations: int
    converged: bool
    objective: float


def _kernel_pair(D, w):
    """The kernel pair (N, r0) of {r : D r = w} = r0 + range(N), from one SVD of D.

    N = V2 is an orthonormal basis of null(D) and r0 = V1 S^-1 U1^T w the
    minimum-norm point, with the rank from ``default_rank_tol``, so
    dependent consistent rows are accepted; a non-finite entry in D or w,
    or a w outside the range of D, raises ValueError.  w is in the range
    when ||D r0 - w|| <= 1e-9 ||w|| + max(D.shape) eps sigma_max(D) ||r0||,
    the rounding of the product D r0 included: a bound that scales with
    D and w, so a contradiction is caught at any scale of either.
    """
    D = np.asarray(D, dtype=float)
    w = np.asarray(w, dtype=float)
    if D.ndim != 2 or w.ndim != 1 or D.shape[0] != w.size:
        raise ValueError(f"constraint shapes do not match: D {D.shape}, w {w.shape}")
    if not (np.isfinite(D).all() and np.isfinite(w).all()):
        raise ValueError("D and w must be finite")
    U, sv, Vt = np.linalg.svd(D, full_matrices=True)
    rank = int(np.count_nonzero(sv > default_rank_tol(D)))
    r0 = Vt[:rank].T @ ((U[:, :rank].T @ w) / sv[:rank])
    rounding = max(D.shape) * _EPS * sv.max(initial=0.0) * norm2(r0)
    if norm2(D @ r0 - w) > 1e-9 * norm2(w) + rounding:
        raise ValueError("w is not in the range of D; the constraints D r = w are inconsistent")
    return Vt[rank:].T, r0


def _project(N, v):
    """P v = v - N (N^T v): v without its part in range(N)."""
    return v - N @ (N.T @ v)


def _lambda_levels(r0, lam_target):
    """Geometric penalty schedule from 0.1 * ||r0||_inf down to the target."""
    levels = []
    lam = _LEVEL_START * norm_inf(r0)
    while lam > lam_target:
        levels.append(lam)
        lam *= _LEVEL_FACTOR
    levels.append(lam_target)
    return levels


def _qp_stationarity(r, grad, lam, support_tol):
    """Max violation of the penalized problem's optimality conditions.

    ``grad`` is P r - r0; optimality requires grad_i = -lam * sign(r_i)
    where r_i is nonzero and |grad_i| <= lam elsewhere.
    """
    on = np.abs(r) > support_tol
    worst_on = float(np.abs(grad[on] + lam * np.sign(r[on])).max(initial=0.0))
    return max(worst_on, float(np.abs(grad[~on]).max(initial=lam)) - lam)


def _zero_answer(N, r0) -> ResidualSolution | None:
    """r = 0 in 0 iterations, certified, when r0 is zero or N is square; else None.

    Either way r = 0 lies in r0 + range(N), and no r has a smaller l1 norm.
    """
    m, k = N.shape
    if m == k or not r0.any():
        return ResidualSolution(r=np.zeros(m), iterations=0, converged=True, objective=0.0)
    return None


def _run(N, r0, params: SolverParams | None = None, *, core) -> ResidualSolution:
    """Run the iterative core ``core(N, r0, p)`` and end it with exactly one crossover.

    When r0 is zero or N is square, ``_zero_answer`` answers instead, and
    neither runs.  The core is a generator: each yield is one iteration,
    (r_f, tries), the point it moved to restored onto r0 + range(N) and
    whether to try there; its last yield is its end point.  A try names the
    k smallest rows of r_f (``_smallest_rows``), and a try that names the
    previous try's rows has settled on a vertex and ends the run.  The run
    also ends where the core returns (its own stop rule; a core that
    returns before its first iteration ends at r = 0, restored to r0) or
    after ``maxiter`` iterations.  The crossover then runs once: the vertex
    simplex ``l1_vertex(N, -r0)``, warm-started at the repeated rows, or
    else at the rows of the last r_f.  A certified vertex z gives
    r = N z + r0, the one product by N here, and converged=True; otherwise
    the answer is the last r_f, with converged=False.
    """
    if (zero := _zero_answer(N, r0)) is not None:
        return zero
    p = params or _DEFAULT_PARAMS
    k = N.shape[1]
    r_f, it, tried, rows = r0, 0, None, None  # r = 0 restored is r0
    for r_f, tries in core(N, r0, p):
        it += 1
        if tries:
            named = _smallest_rows(r_f, k)
            if tried is not None and (named == tried).all():
                rows = named
                break
            tried = named
        if it >= p.maxiter:
            break
    if rows is None:
        rows = _smallest_rows(r_f, k)
    vertex = _l1_vertex(N, -r0, rows)
    r = N @ vertex.x + r0 if vertex.certified else r_f
    return ResidualSolution(r=r, iterations=it, converged=bool(vertex.certified),
                            objective=norm1(r))


def _tries_at(it) -> bool:
    """Whether a continuation solver names vertex rows after iteration ``it``.

    After iterations 1, 2, 4 and 8, so that a run already at its vertex
    crosses over at iteration 2, then every ``_TRY_EVERY``.  The sparse
    schedule is for ``_gpsr`` and ``_ist`` alone: at their high penalty levels
    consecutive iterates often name the same rows while still off the
    optimum, and each such repeat would start a long crossover.
    """
    return it in (1, 2, 4, 8) or it % _TRY_EVERY == 0


def _linprog(N, r0, params: SolverParams | None = None) -> ResidualSolution:
    """The vertex simplex on the kernel pair: r = N z + r0, z from l1_vertex(N, -r0).

    The simplex starts at the k = dim(null D) rows of smallest |r0|
    (``_smallest_rows``): r0 is the least-squares residual, whose small
    entries name most of the rows an l1 optimum interpolates.  When r0 is
    zero or N is square, ``_zero_answer`` answers r = 0 with no walk.
    """
    if (zero := _zero_answer(N, r0)) is not None:
        return zero
    vertex = _l1_vertex(N, -r0, _smallest_rows(r0, N.shape[1]))
    r = N @ vertex.x + r0
    return ResidualSolution(r=r, iterations=vertex.steps, converged=vertex.certified,
                            objective=norm1(r))


def residual_linprog(D, w, params: SolverParams | None = None) -> ResidualSolution:
    """Exact minimum-l1 residual by the vertex simplex on a basis of {r : D r = w}.

    The kernel pair (N, r0) comes from one SVD of D (``_kernel_pair``).  The
    answer r = N z + r0 takes z from ``l1_vertex(N, -r0)``, started at the
    dim(null D) rows of smallest |r0|, so at least that many entries of r
    vanish.  ``iterations`` counts basis changes; ``converged`` is the
    vertex's optimality certificate, False when the step budget ran out.
    """
    return _linprog(*_kernel_pair(D, w), params)


def residual_gpsr(D, w, params: SolverParams | None = None) -> ResidualSolution:
    """Gradient projection on the split-variable quadratic program.

    Projected Barzilai-Borwein steps on r = u - v (u, v >= 0) with an exact
    line search, step lengths clipped to [1e-30, 1e30], run on the kernel
    pair over the continuation levels, each restarting the step length at
    1; a level is left once the stationarity residual drops below
    _LEVEL_TOL times the level, the last level being ``lam``.  After steps
    1, 2, 4 and 8, then every 10, the iterate names its vertex rows.
    ``_run`` drives the iteration: it ends the run at a repeat of the
    previous rows or at the budget, crosses over once, and ``converged``
    means certified.
    """
    return _run(*_kernel_pair(D, w), params, core=_gpsr)


def _gpsr(N, r0, p):
    """``residual_gpsr``'s iteration on the kernel pair (N, r0), a core for ``_run``."""
    # shifting u and v by min(u, v) after each step leaves exactly
    # u = max(r, 0) and v = max(-r, 0), so r alone carries the split
    r = Pr = np.zeros(N.shape[0])
    grad0 = -r0  # P r - r0
    steps = 0  # for the try schedule
    for lam in _lambda_levels(r0, p.lam):
        alpha = 1.0  # stale step estimates from the previous level stall
        while _qp_stationarity(r, grad0, lam, 1e-12 * (1.0 + norm2(r))) > _LEVEL_TOL * lam:
            # numpy's error state is a context variable: held across a
            # yield it would leak into _run and the crossover
            with np.errstate(over="ignore", invalid="ignore"):
                u = np.maximum(r, 0.0)
                v = np.maximum(-r, 0.0)
                grad_u = grad0 + lam
                grad_v = -grad_u + 2.0 * lam
                du = np.maximum(u - alpha * grad_u, 0.0) - u
                dv = np.maximum(v - alpha * grad_v, 0.0) - v
                Pdr = _project(N, du - dv)
                gamma = float(Pdr @ Pdr)
                if math.isfinite(gamma) and gamma > 0.0:
                    beta = min(-(float(grad_u @ du) + float(grad_v @ dv)) / gamma, 1.0)
                elif gamma <= 0.0:
                    beta = 1.0
                else:  # gamma overflowed; the line search rejects the step
                    beta = 0.0
                r = (u + beta * du) - (v + beta * dv)
                delta = float(du @ du) + float(dv @ dv)
                if gamma <= 0.0:
                    alpha = _ALPHA_MAX
                elif math.isfinite(delta / gamma):
                    alpha = min(_ALPHA_MAX, max(_ALPHA_MIN, delta / gamma))
                Pr = Pr + beta * Pdr
                grad0 = Pr - r0
            steps += 1
            yield r - grad0, _tries_at(steps)


def residual_tnipm(D, w, params: SolverParams | None = None) -> ResidualSolution:
    """Primal log-barrier interior point (the truncated-Newton model) with exact Newton steps.

    Each Newton system of the log-barrier formulation is solved exactly by
    one n x n solve on the kernel basis N (``_newton_direction``), where
    D^T D = I - N N^T on an orthonormal-row pair.  The duality gap is
    tested relative to the dual objective (only once that is positive).
    After every accepted step the iterate names its vertex rows.  The
    iteration stops when the gap closes, backtracking stalls or the
    accepted step stops moving the point.  ``_run`` drives it: it also ends
    the run at a repeat of the previous rows or at the budget, crosses over
    once, and ``converged`` means certified.
    """
    return _run(*_kernel_pair(D, w), params, core=_tnipm)


def _newton_direction(N, grad, q1, q2, t):
    """The exact Newton step (dr, du), stacked, of ``_tnipm``'s barrier problem.

    The Hessian [[P + diag(b1), diag(b2)], [diag(b2), diag(b1)]], with
    P = I - N N^T, is M - U U^T, with M its 2 x 2-block diagonal at P = I
    and U = [N; 0].  Woodbury takes y = M^-1(-grad) and corrects it by one
    n x n solve with the Schur complement N^T diag(e) N, where
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


def _tnipm(N, r0, p):
    """``residual_tnipm``'s iteration on the kernel pair (N, r0), a core for ``_run``."""
    m = N.shape[0]

    mu_t, ls_alpha, ls_beta = 2.0, 0.01, 0.5
    r = np.zeros(m)
    u = np.ones(m)
    f = np.concatenate([u - r, u + r])
    g = -r0  # P r - r0 = D^T (D r - w)
    step = np.inf
    dobj = -np.inf
    t = min(max(1.0, 1.0 / p.lam), 2.0 * m / p.epsilon)

    while True:
        nu = g.copy()  # D^T of the dual point
        dual_scale = norm_inf(nu)
        if dual_scale > p.lam:
            nu *= p.lam / dual_scale
        pobj = 0.5 * float(g @ g) + p.lam * norm1(r)
        dobj = max(-0.5 * float(nu @ nu) - float(nu @ r0), dobj)
        eta = pobj - dobj
        if eta <= 0.0 or (dobj > 0.0 and eta / dobj < p.epsilon):
            return
        if step >= 0.5:
            t = max(mu_t * min(2.0 * m / eta, t), t)

        q1 = 1.0 / (u + r)
        q2 = 1.0 / (u - r)
        grad = np.concatenate([g - (q1 - q2) / t, p.lam - (q1 + q2) / t])
        df = _newton_direction(N, grad, q1, q2, t)
        dr, du = df[:m], df[m:]
        Pdr = _project(N, dr)

        fval = 0.5 * float(g @ g) + p.lam * float(u.sum()) - float(np.log(f).sum()) / t
        gtd = float(grad @ df)
        step = 1.0
        for _ in range(100):
            r_new = r + step * dr
            u_new = u + step * du
            f_new = np.concatenate([u_new - r_new, u_new + r_new])
            if f_new.min() > 0.0:
                g_new = g + step * Pdr
                f_cand = (
                    0.5 * float(g_new @ g_new)
                    + p.lam * float(u_new.sum())
                    - float(np.log(f_new).sum()) / t
                )
                if f_cand - fval <= ls_alpha * step * gtd:
                    break
            step *= ls_beta
        else:
            return  # backtracking found no acceptable step
        if step * norm2(df) <= 1e-14 * (1.0 + norm2(r) + norm2(u)):
            return  # accepted step moves nothing; numerical floor reached
        r, u, f, g = r_new, u_new, f_new, g_new
        yield r - g, True


def _homotopy_step(support, r_k, v, pvec, dk, level, m):
    """Smallest positive step changing the support, per the path rules.

    Returns (delta, entering index, leaving index, removing?) where unused
    indices are -1.  ``level`` is the current regularization level.  Ties go
    to a removal, then to the lower index on the (level - pvec) side, then
    on the (level + pvec) side; delta is inf when no step changes the support.
    """
    add = np.empty((2, m))  # both entry sides over all m rows; the support cannot enter
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(level - pvec, 1.0 + dk, out=add[0])
        np.divide(level + pvec, 1.0 - dk, out=add[1])
        drop = -r_k[support] / v[support]
    add[:, support] = np.inf
    add[~(add > 0.0)] = np.inf
    drop = np.where(drop > 0.0, drop, np.inf)
    i_add = int(add.argmin())
    delta_add = float(add.flat[i_add])
    delta_drop = float(drop.min(initial=np.inf))
    if delta_drop <= delta_add and delta_drop < np.inf:
        return delta_drop, -1, int(support[drop.argmin()]), True
    if delta_add < np.inf:
        return delta_add, i_add % m, -1, False
    return np.inf, -1, -1, False


def residual_homotopy(D, w, params: SolverParams | None = None):
    """Follow the regularization path from ||r0||_inf down to epsilon.

    Runs on the kernel pair, which is the path on an orthonormal-row pair,
    where the correlations keep the signs the path rules assume; on the
    paper's D = [-C I] they drift and the path can end off the optimum.
    Maintains the active support S and the inverse of the n x n complement
    Gram G = I - N_S^T N_S by a rank-one term per breakpoint, kept beside
    the last factorization, which is redone every ``_HP_REFACTOR_EVERY``
    updates; the direction on S is Woodbury's
    z_S + N_S G^-1 N_S^T z_S.  An entering row that would make G singular
    (S outgrowing rank D) ends the path there, at the vertex S names.  The
    path names no rows on the way; ``_run`` drives it and crosses over once
    from the path end, the budget's end or the start point r = 0 when
    ||r0||_inf <= epsilon, and ``converged`` means certified.
    """
    return _run(*_kernel_pair(D, w), params, core=_homotopy)


def _homotopy(N, r0, p):
    """``residual_homotopy``'s path on the kernel pair (N, r0), a core for ``_run``."""
    m, n = N.shape
    lam = p.epsilon  # terminal level of the path

    r = np.zeros(m)
    pvec = -r0  # P r - r0, held at +-pmax on the support
    pmax = norm_inf(pvec)
    if pmax <= lam:
        return

    xi = (np.abs(pvec) == pmax).nonzero()[0]
    z = np.zeros(m)
    z[xi] = -np.sign(pvec[xi])
    pvec[xi] = pmax * np.sign(pvec[xi])
    # G^-1 = F - U^T diag(coef) U: the last refactor F less the Sherman-Morrison
    # terms since, kept apart so that an update costs two thin products, not n^2
    U, coef = np.empty((_HP_REFACTOR_EVERY, n)), np.empty(_HP_REFACTOR_EVERY)
    updates = _HP_REFACTOR_EVERY  # F is factored at the first breakpoint

    while True:
        if updates == _HP_REFACTOR_EVERY:
            F, updates = np.linalg.inv(np.eye(n) - N[xi].T @ N[xi]), 0
        Uk, ck = U[:updates], coef[:updates]
        # B v_S = z_S with B = I - N_S N_S^T, by Woodbury on G; N^T v = y
        c = N.T @ z
        y = F @ c - Uk.T @ (ck * (Uk @ c))
        Ny = N @ y
        v = np.zeros(m)
        v[xi] = z[xi] + Ny[xi]
        dk = v - Ny  # P v
        delta, i_add, i_del, removing = _homotopy_step(xi, r, v, pvec, dk, pmax, m)

        if pmax - delta <= lam:
            # the path's end r + s v, s = pmax - lam, where P r - r0 has
            # moved to pvec + s P v = pvec + s (v - Ny)
            yield r - pvec + (pmax - lam) * Ny, False
            return
        r = r + delta * v
        pvec = pvec + delta * dk
        pmax = pmax - delta

        # G gains a a^T when a leaves S and loses it when a enters (Sherman-Morrison)
        a = N[i_del if removing else i_add]
        g = F @ a - Uk.T @ (ck * (Uk @ a))
        sign = 1.0 if removing else -1.0
        denom = 1.0 + sign * float(a @ g)
        if denom <= 0.0:  # G would turn singular (S outgrowing rank D)
            yield r - pvec, False  # r vanishes off S: a vertex, where the path ends
            return
        U[updates], coef[updates] = g, sign / denom
        updates += 1
        if removing:
            r[i_del] = z[i_del] = 0.0
            pin = xi  # the leaving index stays pinned this once
            xi = xi[xi != i_del]  # in entry order, which breaks ties among leaving rows
        else:
            xi = np.append(xi, i_add)
            r[i_add] = 0.0
            z[i_add] = -np.sign(pvec[i_add])
            pin = xi
        pvec[pin] = pmax * np.sign(pvec[pin])
        yield r - pvec, False


def residual_ist(D, w, params: SolverParams | None = None) -> ResidualSolution:
    """Iterative shrinkage-thresholding with Barzilai-Borwein curvature.

    Runs on the kernel pair over the continuation levels, like the
    gradient-projection solver; within a level each shrinkage step must not
    increase the penalized objective (the curvature estimate is doubled
    until it does not), which keeps the non-monotone Barzilai-Borwein
    choice from blowing up.  After steps 1, 2, 4 and 8, then every 10, the
    iterate names its vertex rows.  ``_run`` drives the iteration: it ends
    the run at a repeat of the previous rows or at the budget, crosses over
    once, and ``converged`` means certified.
    """
    return _run(*_kernel_pair(D, w), params, core=_ist)


def _ist(N, r0, p):
    """``residual_ist``'s iteration on the kernel pair (N, r0), a core for ``_run``."""
    # g = P r - r0 is both the gradient and, in norm, the constraint
    # violation; f, the penalized objective at r, is carried within a level
    r, g, alpha = np.zeros(N.shape[0]), -r0, 1.0
    steps = 0  # for the try schedule
    for lam in _lambda_levels(r0, p.lam):
        f = 0.5 * float(g @ g) + lam * norm1(r)
        while _qp_stationarity(r, g, lam, 0.0) > _LEVEL_TOL * lam:
            r_prev, g_prev, f_prev = r, g, f
            for _ in range(200):
                r = soft(r_prev - g_prev / alpha, lam / alpha)
                dr = r - r_prev
                Pdr = _project(N, dr)
                g = g_prev + Pdr
                f = 0.5 * float(g @ g) + lam * norm1(r)
                if f <= f_prev + 1e-12 * abs(f_prev):
                    break
                alpha = min(2.0 * alpha, _ALPHA_MAX)
            delta = float(dr @ dr)
            gamma = float(Pdr @ Pdr)
            if delta > 0.0 and gamma > 0.0:
                alpha = min(_ALPHA_MAX, max(_ALPHA_MIN, gamma / delta))
            steps += 1
            yield r - g, _tries_at(steps)


def residual_adm(D, w, params: SolverParams | None = None) -> ResidualSolution:
    """Alternating-directions method on the dual of the residual problem.

    Runs on the kernel pair, which is the method on an orthonormal-row
    pair, where the unit dual gradient step is the exact subproblem
    minimizer (the published step-size formula ||s||^2 / ||D^T s||^2 is 1
    there) and the 1.618 relaxation factor is inside its convergence range.
    The multiplier is carried as g = D^T y in range(P).  Penalty mu
    defaults to ||r0||_2 / sqrt(rank D), the same for every basis of D's
    rows.  After every iteration the iterate names its vertex rows, and
    ``_run`` ends the run at a repeat of the previous iteration's rows: the
    dual iterates settle slowly, so rows a few iterations apart keep
    differing long after consecutive ones agree.  ``_run`` also ends it at
    the budget and crosses over once, and ``converged`` means certified.
    ``_run`` answers a zero r0 or a square N before the core starts, so mu
    and its sqrt(rank D) are only formed with rank D > 0.
    """
    return _run(*_kernel_pair(D, w), params, core=_adm)


def _adm(N, r0, p):
    """``residual_adm``'s iteration on the kernel pair (N, r0), a core for ``_run``."""
    m, n = N.shape
    r0norm = norm2(r0)
    mu = p.mu if p.mu is not None else r0norm / math.sqrt(m - n)

    # P r0 = r0, so r and P r start equal; z and P z start at zero
    r = Pr = r0
    z = Pz = np.zeros(m)

    while True:
        g = Pz - (Pr - r0) / mu  # the multiplier after its dual step
        z = (g + r / mu).clip(-1.0, 1.0)
        Pz = _project(N, z)
        dr = _ADM_ZETA * mu * (g - z)
        r = r + dr
        Pr = Pr + _ADM_ZETA * mu * (g - Pz)
        yield r - Pr + r0, True
        # feasibility alone can be reached while the multiplier is still
        # moving; also require the update itself to have settled
        if norm2(Pr - r0) <= p.epsilon * r0norm and norm2(dr) <= p.epsilon * (1.0 + norm2(r)):
            return


def residual_pob(D, w, params: SolverParams | None = None) -> ResidualSolution:
    """Proximity-operator scheme: shrinkage step plus a ball projection.

    Requires tau > mu * ||D||_2^2 > 0; by default mu = 0.999 tau / ||D||_2^2.
    The iteration runs on the kernel pair, which is the scheme on an
    orthonormal-row pair (||D||_2 = 1), r0 rescaled to a fixed working norm
    (the solution is scaled back afterwards; the problem is positively
    homogeneous), which puts the data on the scale the fixed shrinkage
    threshold 1/tau was tuned for.  The multipliers are carried as D^T y in
    range(P).  The 1e-6 relative internal stop only counts once the
    unscaled constraint is met to max(epsilon, 1e-6 * (1 + ||r0||_2)); after
    every iteration the iterate names its vertex rows, and ``_run`` ends
    the run at a repeat of the previous iteration's rows, as in
    ``residual_adm``, or at the budget.  It yields r unscaled, so the one
    crossover runs on the unscaled pair, whose tie tolerance the rescaling
    would put below the rounding of the scaled data; ``converged`` means
    certified.  ``_run`` answers a zero r0 before the core starts, as in
    ``residual_adm``, so the working scale is finite.
    """
    return _run(*_kernel_pair(D, w), params, core=_pob)


def _pob(N, r0, p):
    """``residual_pob``'s iteration on the kernel pair (N, r0), a core for ``_run``."""
    m = N.shape[0]
    r0norm = norm2(r0)
    scale = _POB_W_NORM / r0norm
    scaled = scale * r0
    mu = p.mu if p.mu is not None else 0.999 * p.tau
    if not p.tau > mu > 0.0:
        raise ValueError(f"need tau > mu * ||D||_2^2 > 0, got tau={p.tau}, mu*||D||^2={mu}")
    feas_gate = max(p.epsilon, 1e-6 * (1.0 + r0norm))

    # y and zdual are carried as D^T y and D^T zdual; at r = 0, zdual = w
    y = np.zeros(m)
    r = np.zeros(m)
    zdual = scaled
    while True:
        s = r
        r = soft(s - (mu / p.tau) * (2.0 * y - zdual), 1.0 / p.tau)
        Pr = _project(N, r)
        yield (r - Pr) / scale + r0, True  # r / scale, restored
        ns = norm2(s)
        if ns > 0.0 and norm2(r - s) < 1e-6 * ns and norm2(Pr / scale - r0) <= feas_gate:
            return
        zdual = y
        t = Pr + zdual - scaled
        nt = norm2(t)
        if nt <= p.epsilon:
            y = np.zeros(m)  # the block shrinkage of a t inside the epsilon-ball
        else:
            y = (1.0 - p.epsilon / nt) * t


# the core solvers (N, r0, params) on the kernel pair, by method name
RESIDUAL_METHODS = {
    "linprog": _linprog,
    "gpsr": partial(_run, core=_gpsr),
    "tnipm": partial(_run, core=_tnipm),
    "homotopy": partial(_run, core=_homotopy),
    "ist": partial(_run, core=_ist),
    "adm": partial(_run, core=_adm),
    "pob": partial(_run, core=_pob),
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
    over several right-hand sides.  The solver runs on the kernel pair
    (N, r0) = (Q, Q (Q^T b) - b) of the thin factors A = Q R, with b taken
    from ``problem``; nothing reads ``reduced.w`` or ``reduced.D``.  A
    ``reduced`` of other shapes, with Q R v off A v for the probe
    v = (1, ..., n) (distinct entries, so permuted columns show), or with
    Q^T (Q v) off v (a Q whose columns are not orthonormal), does not fit
    the problem and raises ValueError.  When
    |r0| <= m eps (|b| + |Q| |Q|^T |b|) holds in every row, r0 is rounding
    noise (a consistent system) and is set to zero; the method then answers
    r = 0 in 0 iterations, as it does when m = n (``_zero_answer``).
    """
    if method not in RESIDUAL_METHODS:
        raise ValueError(
            f"unknown residual method {method!r}; valid names: "
            + ", ".join(sorted(RESIDUAL_METHODS))
        )
    m, n = problem.m, problem.n
    b = problem.b
    t0 = time.perf_counter()
    rs = reduced if reduced is not None else reduce_problem(problem)
    Q = rs.Q
    if Q.shape != (m, n) or rs.R.shape != (n, n):
        raise ValueError(f"reduced system has Q {Q.shape} and R {rs.R.shape}; "
                         f"the problem needs ({m}, {n}) and ({n}, {n})")
    if reduced is not None:
        v = np.arange(1.0, n + 1.0)
        if norm2(Q @ (rs.R @ v) - problem.A @ v) > 1e-8 * np.linalg.norm(problem.A) * norm2(v):
            raise ValueError("reduced system is not a QR factorization of the problem's A")
        if norm2(Q.T @ (Q @ v) - v) > 1e-8 * norm2(v):
            raise ValueError("reduced system's Q does not have orthonormal columns")
    r0 = Q @ (Q.T @ b) - b
    # Q has unit columns and rows of norm at most 1, so (|Q|^T |b|)_j <= sqrt(m)
    # ||b||_inf and (|Q| |Q|^T |b|)_i <= sqrt(n) sqrt(m) ||b||_inf: the row test
    # below asks ||r0||_inf <= m eps (1 + sqrt(m n)) ||b||_inf at least.  Twice
    # that covers the rounding of Q's norms and of the test itself, and above
    # it the row test cannot pass, so skipping it changes no decision.
    if norm_inf(r0) <= 2.0 * m * _EPS * (1.0 + math.sqrt(m * n)) * norm_inf(b):
        absQ, absb = np.abs(Q), np.abs(b)
        if (np.abs(r0) <= m * _EPS * (absb + absQ @ (absQ.T @ absb))).all():
            r0 = np.zeros(m)
    res = RESIDUAL_METHODS[method](Q, r0, params)
    x = recover(problem, rs, res.r)
    return SolveReport.of(problem, x, t0, iterations=res.iterations,
                          method=RESIDUAL_LABELS[method], converged=res.converged)
