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
r0 + N (N^T r); the multipliers D^T y of the dual methods live in range(P).
``RESIDUAL_METHODS`` maps the method names to these cores.
``fit_via_residual`` wires them into the reduce -> solve -> recover
pipeline: from the thin QR A = Q R that ``reduce_problem`` builds it hands
every core N = Q and r0 = Q (Q^T b) - b, the projection of -b off
range(A), so nothing else is factored per fit and no D is formed, and it
answers a consistent system (r0 at rounding level) with r = 0 directly.
The public ``residual_*`` functions accept any pair (D, w) and take
(N, r0) from one SVD of D (``_kernel_pair``), so dependent rows are
accepted when w agrees with them.

By the paper's equivalence theorem an optimal residual vanishes on
dim(null D) rows, so every iterative answer points at a vertex that the
simplex can finish.  All six iterative cores end through ``_Crossover``:
exactly one crossover per solve, the vertex simplex warm-started at the
rows the iterate names (``_vertex_rows``: the k smallest entries of the
iterate restored onto the constraints).  All but the homotopy name rows
along the way (the interior-point and dual methods after every iteration,
the continuation solvers on the sparser ``_tries_at`` schedule), and the
crossover runs when a try names the same rows as the previous one, or else
on the point the run ends at.  ``converged`` is
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
# the continuation solvers name vertex rows after iterations 1, 2, 4 and 8,
# then every this many iterations (``_tries_at``)
_TRY_EVERY = 10
# the homotopy refactors its n x n inverse after this many rank-one updates
_HP_REFACTOR_EVERY = 50


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
             instead defaults mu to ||r0||_2 / sqrt(rank D), the RMS of w on
             any orthonormal-row pair, so it does not depend on which basis
             of D's rows is given)
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


def _kernel_pair(D, w):
    """The kernel pair (N, r0) of {r : D r = w} = r0 + range(N), from one SVD of D.

    N = V2 is an orthonormal basis of null(D) and r0 = V1 S^-1 U1^T w the
    minimum-norm point, with the rank from ``default_rank_tol``, so
    dependent consistent rows are accepted; a w outside the range of D
    raises ValueError.
    """
    D = np.asarray(D, dtype=float)
    w = np.asarray(w, dtype=float)
    if D.ndim != 2 or w.ndim != 1 or D.shape[0] != w.size:
        raise ValueError(f"constraint shapes do not match: D {D.shape}, w {w.shape}")
    U, sv, Vt = np.linalg.svd(D, full_matrices=True)
    rank = int(np.count_nonzero(sv > default_rank_tol(D)))
    r0 = Vt[:rank].T @ ((U[:, :rank].T @ w) / sv[:rank])
    if norm2(D @ r0 - w) > 1e-9 * (1.0 + norm2(w)):
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
    worst = 0.0
    if np.any(on):
        worst = float(np.max(np.abs(grad[on] + lam * np.sign(r[on]))))
    if not np.all(on):
        worst = max(worst, max(float(np.max(np.abs(grad[~on]))) - lam, 0.0))
    return worst


def _restore_feasibility(N, r0, r):
    """l2-minimal correction of r onto r0 + range(N): r0 + N (N^T r)."""
    return r0 + N @ (N.T @ r)


def _vertex_rows(N, r0, r):
    """The rows Z an iterate names: the k = dim(null D) smallest |r_f|, sorted.

    r_f is r restored onto r0 + range(N).  An optimal residual vanishes on
    k rows (the equivalence theorem), so Z is where the vertex simplex
    starts.
    """
    return _smallest_rows(_restore_feasibility(N, r0, r), N.shape[1])


def _smallest_rows(r, k):
    """The k rows of smallest |r|, sorted."""
    return np.sort(np.argpartition(np.abs(r), k - 1)[:k])


def _simplex_residual(N, r0, rows=None):
    """The vertex simplex on the kernel pair: (r = N z + r0, the L1Vertex of z).

    z comes from ``l1_vertex(N, -r0, rows)``, started from the basis
    ``rows`` when given.
    """
    vertex = l1_vertex(N, -r0, rows=rows)
    return N @ vertex.x + r0, vertex


class _Crossover:
    """Ends one solve with exactly one simplex crossover from the rows its iterates name.

    ``attempt(r_f)`` names the rows Z of an iterate from r_f, the iterate
    already restored onto r0 + range(N) (the dual methods hold it without a
    product by N), as its k smallest |r_f| (``_smallest_rows``).  When they
    equal the previous try's rows, the iterate has settled on a vertex,
    and the crossover runs: the vertex simplex warm-started at Z
    (``_simplex_residual``).  The attempt then returns True, whether or not
    the simplex certified, since nothing later in the run can certify.
    ``finish(r, it)`` gives the solve's answer from the point r the run
    stops at: it runs the crossover from r's rows if none ran, and returns
    the simplex's vertex with converged=True when it is certified, else r
    with an l2-minimal feasibility restoration and converged=False.
    """

    def __init__(self, N, r0):
        self.N, self.r0 = N, r0
        self.rows = None  # Z of the last try
        self.result = None  # the crossover's (r, L1Vertex), once run

    def attempt(self, r_f) -> bool:
        """Whether the restored iterate r_f named the previous try's rows, so the crossover ran."""
        rows = _smallest_rows(r_f, self.N.shape[1])
        if np.array_equal(rows, self.rows):
            self.result = _simplex_residual(self.N, self.r0, rows)
        self.rows = rows
        return self.result is not None

    def finish(self, r, it) -> ResidualSolution:
        """The solve's answer when the run stops at r after ``it`` iterations."""
        if self.result is None:
            rows = _vertex_rows(self.N, self.r0, r)
            self.result = _simplex_residual(self.N, self.r0, rows)
        vertex_r, vertex = self.result
        if vertex.certified:
            return ResidualSolution(r=vertex_r, iterations=it, converged=True,
                                    objective=norm1(vertex_r))
        r = _restore_feasibility(self.N, self.r0, r)
        return ResidualSolution(r=r, iterations=it, converged=False, objective=norm1(r))


def _tries_at(it) -> bool:
    """Whether a continuation solver names vertex rows after iteration ``it``.

    After iterations 1, 2, 4 and 8, so that a run already at its vertex
    crosses over at iteration 2, then every ``_TRY_EVERY``.  The sparse
    schedule is for ``_continuation`` alone: at its high penalty levels
    consecutive iterates often name the same rows while still off the
    optimum, and each such repeat would start a long crossover.
    """
    return it in (1, 2, 4, 8) or it % _TRY_EVERY == 0


def _continuation(r0, p, state, step, stationarity, attempt):
    """Warm-started continuation over the penalty weight (the SpaRSA scheme).

    ``state`` is a tuple whose first entry is r.  ``step(state, lam, first)``
    returns the next state; ``first`` marks a level's first step.
    ``stationarity(state, lam)`` measures the state against the level, and
    a level ends at its target.  After the steps ``_tries_at`` names,
    ``attempt(r)`` is called, and the run ends when it returns True.
    Returns the state the run stopped on (the last level's target, the
    attempt that ran the crossover or the spent budget) and the iteration
    count; ``_Crossover`` finishes from it.
    """
    it = 0
    for lam in _lambda_levels(r0, p.lam):
        start = it
        while stationarity(state, lam) > _LEVEL_TOL * lam:
            if it >= p.maxiter:
                return state, it
            state = step(state, lam, it == start)
            it += 1
            if _tries_at(it) and attempt(state[0]):
                return state, it
    return state, it


def _linprog(N, r0, params: SolverParams | None = None) -> ResidualSolution:
    """The vertex simplex on the kernel pair: r = N z + r0, z from l1_vertex(N, -r0).

    The simplex starts at the k = dim(null D) rows of smallest |r0|
    (``_vertex_rows`` of r = 0): r0 is the least-squares residual, whose
    small entries name most of the rows an l1 optimum interpolates.
    """
    r, vertex = _simplex_residual(N, r0, _smallest_rows(r0, N.shape[1]))
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
    pair inside ``_continuation``; each level is left once the stationarity
    residual drops below _LEVEL_TOL times the level, the last level being
    ``lam``.  After steps 1, 2, 4 and 8, then every 10, the iterate names
    its vertex rows, and a repeat of the previous rows ends the run.  The
    run ends through ``_Crossover`` (one warm-started simplex crossover),
    and ``converged`` means certified.
    """
    return _gpsr(*_kernel_pair(D, w), params)


def _gpsr(N, r0, params: SolverParams | None = None) -> ResidualSolution:
    """``residual_gpsr``'s iteration on the kernel pair (N, r0)."""
    p = params or SolverParams()
    if not p.lam > 0:
        raise ValueError("gradient projection requires lam > 0")
    r = np.zeros(N.shape[0])

    def step(state, lam, first):
        # shifting u and v by min(u, v) after each step leaves exactly
        # u = max(r, 0) and v = max(-r, 0), so r alone carries the split
        r, Pr, grad0, alpha = state
        if first:
            alpha = 1.0  # stale step estimates from the previous level stall
        u = np.maximum(r, 0.0)
        v = np.maximum(-r, 0.0)
        grad_u = grad0 + lam
        grad_v = -grad_u + 2.0 * lam
        du = np.maximum(u - alpha * grad_u, 0.0) - u
        dv = np.maximum(v - alpha * grad_v, 0.0) - v
        Pdr = _project(N, du - dv)
        gamma = float(Pdr @ Pdr)
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
        Pr = Pr + beta * Pdr
        return r, Pr, Pr - r0, alpha

    def stationarity(state, lam):
        r, _, grad0, _ = state
        return _qp_stationarity(r, grad0, lam, 1e-12 * (1.0 + norm2(r)))

    crossover = _Crossover(N, r0)
    with np.errstate(over="ignore", invalid="ignore"):
        state, it = _continuation(r0, p, (r, np.zeros_like(r), -r0, 1.0), step, stationarity,
                                  lambda r: crossover.attempt(_restore_feasibility(N, r0, r)))
    return crossover.finish(state[0], it)


def residual_tnipm(D, w, params: SolverParams | None = None) -> ResidualSolution:
    """Primal log-barrier interior point (the truncated-Newton model) with exact Newton steps.

    Each Newton system of the log-barrier formulation is solved exactly by
    one n x n solve on the kernel basis N (``_newton_direction``), where
    D^T D = I - N N^T on an orthonormal-row pair.  The duality gap is
    tested relative to the dual objective (only once that is positive).
    After every accepted step the iterate names its vertex rows, and a
    repeat of the previous rows ends the run.  The run also ends when the
    gap closes, backtracking stalls, the accepted step stops moving the
    point or the budget runs out.  The run ends through ``_Crossover`` (one
    warm-started simplex crossover), and ``converged`` means certified.
    """
    return _tnipm(*_kernel_pair(D, w), params)


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


def _tnipm(N, r0, params: SolverParams | None = None) -> ResidualSolution:
    """``residual_tnipm``'s iteration on the kernel pair (N, r0)."""
    p = params or SolverParams()
    if not p.lam > 0:
        raise ValueError("interior-point method requires lam > 0")
    m = N.shape[0]

    mu_t, ls_alpha, ls_beta = 2.0, 0.01, 0.5
    r = np.zeros(m)
    u = np.ones(m)
    f = np.concatenate([u - r, u + r])
    g = -r0  # P r - r0 = D^T (D r - w)
    step = np.inf
    dobj = -np.inf
    t = min(max(1.0, 1.0 / p.lam), 2.0 * m / p.epsilon)

    crossover = _Crossover(N, r0)
    it = 0
    while it < p.maxiter:
        it += 1
        nu = g.copy()  # D^T of the dual point
        dual_scale = norm_inf(nu)
        if dual_scale > p.lam:
            nu *= p.lam / dual_scale
        pobj = 0.5 * float(g @ g) + p.lam * norm1(r)
        dobj = max(-0.5 * float(nu @ nu) - float(nu @ r0), dobj)
        eta = pobj - dobj
        if eta <= 0.0 or (dobj > 0.0 and eta / dobj < p.epsilon):
            break
        if step >= 0.5:
            t = max(mu_t * min(2.0 * m / eta, t), t)

        q1 = 1.0 / (u + r)
        q2 = 1.0 / (u - r)
        grad = np.concatenate([g - (q1 - q2) / t, p.lam - (q1 + q2) / t])
        df = _newton_direction(N, grad, q1, q2, t)
        dr, du = df[:m], df[m:]
        Pdr = _project(N, dr)

        fval = 0.5 * float(g @ g) + p.lam * float(np.sum(u)) - float(np.sum(np.log(f))) / t
        gtd = float(grad @ df)
        step = 1.0
        for _ in range(100):
            r_new = r + step * dr
            u_new = u + step * du
            f_new = np.concatenate([u_new - r_new, u_new + r_new])
            if np.min(f_new) > 0.0:
                g_new = g + step * Pdr
                f_cand = (
                    0.5 * float(g_new @ g_new)
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
        r, u, f, g = r_new, u_new, f_new, g_new
        if crossover.attempt(_restore_feasibility(N, r0, r)):
            break
    return crossover.finish(r, it)


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
    i_add = int(np.argmin(add))
    delta_add = float(add.flat[i_add])
    delta_drop = float(np.min(drop, initial=np.inf))
    if delta_drop <= delta_add and delta_drop < np.inf:
        return delta_drop, -1, int(support[np.argmin(drop)]), True
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
    path end, the budget's end or the start point r = 0 when
    ||r0||_inf <= epsilon goes through ``_Crossover``, one simplex
    crossover warm-started at the rows it names; ``converged`` means
    certified.
    """
    return _homotopy(*_kernel_pair(D, w), params)


def _homotopy(N, r0, params: SolverParams | None = None):
    """``residual_homotopy``'s path on the kernel pair (N, r0)."""
    p = params or SolverParams()
    m, n = N.shape
    lam = p.epsilon  # terminal level of the path

    r = np.zeros(m)
    pvec = -r0
    pmax = norm_inf(pvec)
    crossover = _Crossover(N, r0)
    if pmax <= lam:
        return crossover.finish(r, 0)

    xi = np.flatnonzero(np.abs(pvec) == pmax)
    z = np.zeros(m)
    z[xi] = -np.sign(pvec[xi])
    pvec[xi] = pmax * np.sign(pvec[xi])
    in_support = np.zeros(m, dtype=bool)
    in_support[xi] = True
    # G^-1 = F - U^T diag(coef) U: the last refactor F less the Sherman-Morrison
    # terms since, kept apart so that an update costs two thin products, not n^2
    U, coef = np.empty((_HP_REFACTOR_EVERY, n)), np.empty(_HP_REFACTOR_EVERY)
    updates = _HP_REFACTOR_EVERY  # F is factored at the first breakpoint

    it = 0
    while it < p.maxiter:
        it += 1
        if updates == _HP_REFACTOR_EVERY:
            F, updates = np.linalg.inv(np.eye(n) - N[xi].T @ N[xi]), 0
        Uk, ck = U[:updates], coef[:updates]
        # B v_S = z_S with B = I - N_S N_S^T, by Woodbury on G; N^T v = y
        c = N.T @ z
        y = F @ c - Uk.T @ (ck * (Uk @ c))
        Ny = N @ y
        v = np.where(in_support, z + Ny, 0.0)
        dk = v - Ny  # P v
        delta, i_add, i_del, removing = _homotopy_step(xi, r, v, pvec, dk, pmax, m)

        if pmax - delta <= lam:
            r = r + (pmax - lam) * v
            break
        r = r + delta * v
        pvec = pvec + delta * dk
        pmax = pmax - delta

        # G gains a a^T when a leaves S and loses it when a enters (Sherman-Morrison)
        a = N[i_del if removing else i_add]
        g = F @ a - Uk.T @ (ck * (Uk @ a))
        sign = 1.0 if removing else -1.0
        denom = 1.0 + sign * float(a @ g)
        if denom <= 0.0:
            break  # G would turn singular (S outgrowing rank D): r vanishes off S, a vertex
        U[updates], coef[updates] = g, sign / denom
        updates += 1
        if removing:
            in_support[i_del] = False
            r[i_del] = z[i_del] = 0.0
            pin = xi  # the leaving index stays pinned this once
            xi = xi[xi != i_del]  # in entry order, which breaks ties among leaving rows
        else:
            in_support[i_add] = True
            xi = np.append(xi, i_add)
            r[i_add] = 0.0
            z[i_add] = -np.sign(pvec[i_add])
            pin = xi
        pvec[pin] = pmax * np.sign(pvec[pin])
    return crossover.finish(r, it)


def residual_ist(D, w, params: SolverParams | None = None) -> ResidualSolution:
    """Iterative shrinkage-thresholding with Barzilai-Borwein curvature.

    Runs on the kernel pair inside ``_continuation``, like the
    gradient-projection solver; within a level each shrinkage step must not
    increase the penalized objective (the curvature estimate is doubled
    until it does not), which keeps the non-monotone Barzilai-Borwein
    choice from blowing up.  After steps 1, 2, 4 and 8, then every 10, the
    iterate names its vertex rows, and a repeat of the previous rows ends
    the run.  The run ends through ``_Crossover`` (one warm-started simplex
    crossover), and ``converged`` means certified.
    """
    return _ist(*_kernel_pair(D, w), params)


def _ist(N, r0, params: SolverParams | None = None) -> ResidualSolution:
    """``residual_ist``'s iteration on the kernel pair (N, r0)."""
    p = params or SolverParams()
    if not p.lam > 0:
        raise ValueError("iterative shrinkage requires lam > 0")

    def step(state, lam, first):
        # g = P r - r0 is both the gradient and, in norm, the constraint
        # violation; f, the penalized objective at r, is carried within a level
        r_prev, g_prev, alpha, f_prev = state
        if first:
            f_prev = 0.5 * float(g_prev @ g_prev) + lam * norm1(r_prev)
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
        return r, g, alpha, f

    def stationarity(state, lam):
        return _qp_stationarity(state[0], state[1], lam, 0.0)

    crossover = _Crossover(N, r0)
    state, it = _continuation(r0, p, (np.zeros(N.shape[0]), -r0, 1.0, None), step, stationarity,
                              lambda r: crossover.attempt(_restore_feasibility(N, r0, r)))
    return crossover.finish(state[0], it)


def residual_adm(D, w, params: SolverParams | None = None) -> ResidualSolution:
    """Alternating-directions method on the dual of the residual problem.

    Runs on the kernel pair, which is the method on an orthonormal-row
    pair, where the unit dual gradient step is the exact subproblem
    minimizer (the published step-size formula ||s||^2 / ||D^T s||^2 is 1
    there) and the 1.618 relaxation factor is inside its convergence range.
    The multiplier is carried as g = D^T y in range(P).  Penalty mu
    defaults to ||r0||_2 / sqrt(rank D), the same for every basis of D's
    rows.  After every iteration the iterate names its vertex rows, and a
    repeat of the previous iteration's rows ends the run: the dual iterates
    settle slowly, so rows a few iterations apart keep differing long after
    consecutive ones agree.  The run ends through ``_Crossover`` (one
    warm-started simplex crossover), and ``converged`` means certified.  A
    zero r0 is answered immediately with r = 0, which is exactly optimal.
    """
    return _adm(*_kernel_pair(D, w), params)


def _adm(N, r0, params: SolverParams | None = None) -> ResidualSolution:
    """``residual_adm``'s iteration on the kernel pair (N, r0)."""
    p = params or SolverParams()
    m, n = N.shape
    r0norm = norm2(r0)
    if r0norm == 0.0:
        return ResidualSolution(r=np.zeros(m), iterations=0, converged=True, objective=0.0)
    mu = p.mu if p.mu is not None else r0norm / float(np.sqrt(m - n))

    # P r0 = r0, so r and P r start equal; z and P z start at zero
    r = Pr = r0
    z = Pz = np.zeros(m)

    crossover = _Crossover(N, r0)
    it = 0
    while it < p.maxiter:
        it += 1
        g = Pz - (Pr - r0) / mu  # the multiplier after its dual step
        z = np.clip(g + r / mu, -1.0, 1.0)
        Pz = _project(N, z)
        dr = _ADM_ZETA * mu * (g - z)
        r = r + dr
        Pr = Pr + _ADM_ZETA * mu * (g - Pz)
        # feasibility alone can be reached while the multiplier is still
        # moving; also require the update itself to have settled
        if norm2(Pr - r0) <= p.epsilon * r0norm and norm2(dr) <= p.epsilon * (1.0 + norm2(r)):
            break
        if crossover.attempt(r - Pr + r0):  # r restored onto r0 + range(N)
            break
    return crossover.finish(r, it)


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
    every iteration the iterate names its vertex rows, and a repeat of the
    previous iteration's rows ends the run, as in ``residual_adm``.  The run ends
    through ``_Crossover`` (one warm-started simplex crossover, on the
    unscaled pair, whose tie tolerance the rescaling would put below the
    rounding of the scaled data), and ``converged`` means certified; a zero
    r0 returns r = 0 directly.
    """
    return _pob(*_kernel_pair(D, w), params)


def _pob(N, r0, params: SolverParams | None = None) -> ResidualSolution:
    """``residual_pob``'s iteration on the kernel pair (N, r0)."""
    p = params or SolverParams()
    m = N.shape[0]
    r0norm = norm2(r0)
    if r0norm == 0.0:
        return ResidualSolution(r=np.zeros(m), iterations=0, converged=True, objective=0.0)
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
    crossover = _Crossover(N, r0)
    it = 0
    while it < p.maxiter:
        it += 1
        s = r
        r = soft(s - (mu / p.tau) * (2.0 * y - zdual), 1.0 / p.tau)
        Pr = _project(N, r)
        ns = norm2(s)
        if ns > 0.0 and norm2(r - s) < 1e-6 * ns and norm2(Pr / scale - r0) <= feas_gate:
            break
        if crossover.attempt((r - Pr) / scale + r0):  # r / scale, restored
            break
        zdual = y
        t = Pr + zdual - scaled
        nt = norm2(t)
        if nt <= p.epsilon:
            y = np.zeros(m)
        else:
            y = (1.0 - p.epsilon / nt) * t
    return crossover.finish(r / scale, it)


# the core solvers (N, r0, params) on the kernel pair, by method name
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
    over several right-hand sides.  The solver runs on the kernel pair
    (N, r0) = (Q, Q (Q^T b) - b) of the thin factors A = Q R, with b taken
    from ``problem``; nothing reads ``reduced.w`` or ``reduced.D``.  A
    ``reduced`` of other shapes, with Q R v off A v for the probe
    v = (1, ..., n) (distinct entries, so permuted columns show), or with
    Q^T (Q v) off v (a Q whose columns are not orthonormal), does not fit
    the problem and raises ValueError.  When
    |r0| <= m eps (|b| + |Q| |Q|^T |b|) holds in every row (no
    constraints, or r0 is rounding noise), r = 0 is optimal and no solver
    runs.
    """
    if method not in RESIDUAL_METHODS:
        raise ValueError(
            f"unknown residual method {method!r}; valid names: "
            + ", ".join(sorted(RESIDUAL_METHODS))
        )
    params = params or SolverParams()
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
    absQ, absb = np.abs(Q), np.abs(b)
    rounding = m * np.finfo(float).eps * (absb + absQ @ (absQ.T @ absb))
    if np.all(np.abs(r0) <= rounding):
        # consistent system (r0 is rounding noise, or no constraints remain):
        # r = 0 is optimal
        res = ResidualSolution(r=np.zeros(m), iterations=0, converged=True, objective=0.0)
    else:
        res = RESIDUAL_METHODS[method](Q, r0, params)
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
