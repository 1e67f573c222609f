"""Box-constrained minimization of the pooled least-squares cost.

Constraint handling is by smooth reparameterization plus projection:

* box ordering: b = a + gap_min + exp(s), optimized in s;
* Cholesky diagonal floors: l = l_floor + exp(s);
* the simple lower bounds on a1 and a2 are enforced by projecting the
  trial point after each step.

Search directions come from a Powell-damped BFGS matrix on the working
coordinates; the backtracking line search accepts a step only when the
cost strictly decreases, and any model-layer failure (degenerate
density, singular operator, divergence) just fails the trial step so the
search can shorten it.  ``minimize_bfgs`` takes one ``evaluate(x)``
returning ``(cost, gradient_fn)``: each trial point is evaluated once,
and the gradient function of the start and of each accepted trial is
called, so the accepted point is never assembled or simulated again.
A rejected trial's evaluation is dropped before the next one.  There is
no randomness anywhere: identical inputs give identical traces.

Termination status:

* ``converged``: the projected gradient ``||x - project(x - g)||`` fell
  below ``gtol * (1 + |cost|)``, the first-order test for a
  bound-constrained minimum;
* ``stalled-step``: an accepted step was shorter than ``xtol`` while the
  projected gradient still failed that test (typically the line search
  halved the step against a model-layer veto or a bound);
* ``max-iterations``: ``max_iter`` steps were taken without either;
* ``line-search-failure``: neither the quasi-Newton nor the steepest-
  descent direction gave a cost decrease;
* ``degenerate-density``: the starting point itself was vetoed.

The per-episode single-q fits behind ``initialize`` do not use this
search: their output is linear in the gain, so ``fit_deterministic``
solves for the gain in closed form and searches q1 alone (variable
projection, Golub & Pereyra 1973).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .density import L_FLOOR, QPoint, RhoParams, _as_point
from .errors import DegenerateDensityError, PopdiffError
from .forward import Episode, simulate_deterministic, simulate_deterministic_batch
from .grid import Q1_FLOOR, GridSpec
from .objective import evaluate as evaluate_objective

# Line search: at most this many halvings, from a first trial step of at
# most this norm in working coordinates.
MAX_BACKTRACKS = 45
STEP_CAP = 1.0


@dataclass
class FitOptions:
    gtol: float = 1e-6
    xtol: float = 1e-9
    max_iter: int = 200
    quad_order: int = 8
    norm_quad_order: int = 24
    gap_min: float = 1e-3


@dataclass
class FitResult:
    rho_hat: RhoParams
    cost_trace: list[tuple[int, float, float, float]]  # (iter, cost, |grad|, |step|)
    # converged (projected-gradient test passed) | stalled-step (step fell
    # below xtol first) | max-iterations | line-search-failure |
    # degenerate-density; see the module docstring.
    status: str
    n_cost_evals: int
    n_grad_evals: int

    @property
    def cost(self) -> float:
        return self.cost_trace[-1][1] if self.cost_trace else np.inf


@dataclass
class CoreResult:
    x: np.ndarray
    cost: float
    trace: list[tuple[int, float, float, float]]
    status: str
    n_cost_evals: int
    n_grad_evals: int


def minimize_bfgs(evaluate, x0, project, gtol=1e-6, xtol=1e-9,
                  max_iter=200) -> CoreResult:
    """Projected-backtracking quasi-Newton descent on any dimension.

    ``evaluate(x)`` returns the cost at x and a function of no arguments
    that returns the gradient there; it may raise PopdiffError to veto a
    trial point (the search then shortens the step).  The gradient
    function is called only at the start and at each accepted point, so
    an evaluation that keeps its forward pass never repeats it.  When the
    quasi-Newton direction fails its whole line search, the curvature
    model is discarded and one steepest-descent line search is attempted
    before giving up.
    """
    n = x0.size
    x = project(np.asarray(x0, dtype=float))
    n_cost = n_grad = 0
    try:
        c, gradient = evaluate(x)
    except DegenerateDensityError:
        return CoreResult(x, np.inf, [], "degenerate-density", n_cost, n_grad + 1)
    g = gradient()
    n_grad += 1
    del gradient  # holds the start's forward pass
    trace = [(0, c, float(np.linalg.norm(g)), 0.0)]
    B = np.eye(n)
    scaled = False
    status = "max-iterations"

    def stationary(x, c, g):
        return float(np.linalg.norm(x - project(x - g))) < gtol * (1 + abs(c))

    def line_search(d):
        nonlocal n_cost, n_grad
        alpha = min(1.0, STEP_CAP / max(float(np.linalg.norm(d)), 1e-300))
        for _ in range(MAX_BACKTRACKS):
            x_try = project(x + alpha * d)
            step = x_try - x
            if step.any():
                n_cost += 1
                try:
                    c_try, gradient = evaluate(x_try)
                except PopdiffError:
                    pass
                else:
                    if c_try < c:
                        g_try = gradient()
                        n_grad += 1
                        return x_try, c_try, step, g_try
                    del gradient  # drop this trial's forward pass before the next
            alpha *= 0.5
        return None

    for it in range(1, max_iter + 1):
        if stationary(x, c, g):
            status = "converged"
            break
        try:
            d = -np.linalg.solve(B, g)
        except np.linalg.LinAlgError:
            d = -g
        if d @ g >= 0:
            d = -g
        is_steepest = np.array_equal(d, -g)

        accepted = line_search(d)
        if accepted is None and not is_steepest:
            # Quasi-Newton direction is blocked (often by the feasibility
            # veto); restart from a plain gradient step.
            B = np.eye(n)
            scaled = False
            accepted = line_search(-g)
        if accepted is None:
            status = "line-search-failure"
            break

        x_new, c_new, s, g_new = accepted
        y = g_new - g
        sy = s @ y
        if not scaled and sy > 0:
            # Shanno-Phua: size the initial metric from the first
            # curvature pair before any update.
            B = ((y @ y) / sy) * np.eye(n)
            scaled = True
        sBs = s @ B @ s
        # Powell damping keeps B positive definite on non-convex stretches.
        if sy < 0.2 * sBs:
            theta = 0.8 * sBs / (sBs - sy)
            y = theta * y + (1 - theta) * (B @ s)
            sy = s @ y
        Bs = B @ s
        B = B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy

        x, c, g = x_new, c_new, g_new
        step_norm = float(np.linalg.norm(s))
        trace.append((it, c, float(np.linalg.norm(g)), step_norm))
        if step_norm < xtol:
            # A short step alone is no minimum: the line search may have
            # halved it against a veto while the gradient is still large.
            status = "converged" if stationary(x, c, g) else "stalled-step"
            break

    return CoreResult(x, c, trace, status, n_cost, n_grad)


# --------------------------------------------------------------- 9-D transform

_GAP_EPS = 1e-12


def rho_to_working(rho: RhoParams, gap_min: float) -> np.ndarray:
    r = rho.as_array()
    z = np.empty(9)
    z[0] = r[0]
    z[1] = np.log(max(r[1] - r[0] - gap_min, _GAP_EPS))
    z[2] = r[2]
    z[3] = np.log(max(r[3] - r[2] - gap_min, _GAP_EPS))
    z[4:6] = r[4:6]
    z[6] = np.log(max(r[6] - L_FLOOR, _GAP_EPS))
    z[7] = r[7]
    z[8] = np.log(max(r[8] - L_FLOOR, _GAP_EPS))
    return z


def working_to_rho(z: np.ndarray, gap_min: float) -> RhoParams:
    # Overflowing exp on a wild trial point yields a non-finite vector,
    # which the parameter validation turns into a rejected step.
    with np.errstate(over="ignore"):
        r = np.empty(9)
        r[0] = z[0]
        r[1] = z[0] + gap_min + np.exp(z[1])
        r[2] = z[2]
        r[3] = z[2] + gap_min + np.exp(z[3])
        r[4:6] = z[4:6]
        r[6] = L_FLOOR + np.exp(z[6])
        r[7] = z[7]
        r[8] = L_FLOOR + np.exp(z[8])
    return RhoParams.from_array(r)


def chain_gradient(grad_rho: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Pull a rho-space gradient back through the working transform."""
    g = np.empty(9)
    g[0] = grad_rho[0] + grad_rho[1]
    g[1] = grad_rho[1] * np.exp(z[1])
    g[2] = grad_rho[2] + grad_rho[3]
    g[3] = grad_rho[3] * np.exp(z[3])
    g[4:6] = grad_rho[4:6]
    g[6] = grad_rho[6] * np.exp(z[6])
    g[7] = grad_rho[7]
    g[8] = grad_rho[8] * np.exp(z[8])
    return g


def _project_working(z: np.ndarray) -> np.ndarray:
    out = z.copy()
    out[0] = max(out[0], Q1_FLOOR)
    out[2] = max(out[2], 0.0)
    return out


def fit(
    episodes: list[Episode],
    spec: GridSpec,
    init: RhoParams,
    options: FitOptions | None = None,
) -> FitResult:
    """Minimize the pooled cost over all nine parameters."""
    opt = options or FitOptions()

    def evaluate(z):
        trial = evaluate_objective(working_to_rho(z, opt.gap_min), spec, episodes,
                                   opt.quad_order, opt.norm_quad_order)
        return trial.cost, lambda: chain_gradient(trial.gradient().grad, z)

    z0 = rho_to_working(init, opt.gap_min)
    core = minimize_bfgs(evaluate, z0, _project_working,
                         opt.gtol, opt.xtol, opt.max_iter)
    if core.status == "degenerate-density" or not core.trace:
        rho_hat = init
    elif len(core.trace) == 1:
        rho_hat = init  # no accepted steps: hand back the exact input
    else:
        rho_hat = working_to_rho(core.x, opt.gap_min)
    return FitResult(
        rho_hat=rho_hat,
        cost_trace=core.trace,
        status=core.status,
        n_cost_evals=core.n_cost_evals,
        n_grad_evals=core.n_grad_evals,
    )


# ------------------------------------------------- single-q variable projection

# Log-spaced q1 grid on which fit_deterministic brackets the profile
# minimum, six decades around the diffusivities of interest (about 0.1-2);
# a minimum at either end raises, it is never clipped.
Q1_GRID = np.logspace(-3.0, 3.0, 25)
# Relative q1 tolerance floor: below it the profile's rounding noise dominates.
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))
_GOLDEN = 0.3819660112501051  # (3 - sqrt(5)) / 2
_BRENT_MAX_ITER = 100


def _project_gain(g: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best gains q2 >= 0 and profile costs ||q2 g - y||^2 for rows of g."""
    gy = g @ y
    gg = np.einsum("kt,kt->k", g, g)
    # A zero row has gy = 0 too, so it gets q2 = 0 and cost ||y||^2.
    q2 = np.maximum(gy, 0.0) / np.where(gg > 0, gg, 1.0)
    r = q2[:, None] * g - y
    return q2, np.einsum("kt,kt->k", r, r)


def _brent(f, a: float, b: float, x: float, fx: float, tol: float):
    """Minimize f on (a, b) from an interior x with f(x) = fx (Brent 1973).

    Parabolic steps through the three best points, golden-section steps
    when those fail, no step shorter than ``tol``; stops once the bracket
    around the best point is within about ``2 tol`` of it.  Returns the
    best point evaluated and its value.
    """
    w = v = x
    fw = fv = fx
    d = e = 0.0
    for _ in range(_BRENT_MAX_ITER):
        m = 0.5 * (a + b)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                golden = False
                if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                    d = tol if m > x else -tol
        if golden:
            e = (a if x >= m else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else (tol if d > 0 else -tol))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def fit_deterministic(
    episode: Episode,
    spec: GridSpec,
    init: QPoint | tuple = QPoint(1.0, 1.0),
    options: FitOptions | None = None,
) -> tuple[QPoint, float]:
    """Least-squares fit of a single (q1, q2 >= 0) to one episode.

    The output is linear in the gain, y = q2 g(q1) with g the output at
    q2 = 1, so for each q1 the best gain has the closed form
    q2* = max(<g, y> / <g, g>, 0) and the fit is a 1-D search of the
    profile cost ||q2* g(q1) - y||^2 (variable projection).  The profile
    is evaluated on ``Q1_GRID`` with one batched solve; a bounded Brent
    search in log q1 then refines the best grid point inside the bracket
    of its two neighbours.

    Of ``options`` only ``xtol`` applies, as the relative tolerance on q1,
    floored at sqrt(machine epsilon).  When the best grid point is an end
    of ``Q1_GRID`` the minimum is not bracketed and PopdiffError is
    raised (``initialize`` then falls back to its default box).  When the
    best response is identically zero (zero input, or data with no
    positive correlation to any grid response) q1 is not determined:
    ``init`` is returned, with q2 = 0 in the second case, and the cost is
    ||y||^2.
    """
    opt = options or FitOptions()
    q1_init, q2_init = _as_point(init)
    y = episode.y_obs
    grid = np.column_stack([Q1_GRID, np.ones_like(Q1_GRID)])
    g_grid = simulate_deterministic_batch(grid, spec.n, spec.tau, episode.u)
    q2_grid, c_grid = _project_gain(g_grid, y)
    if not q2_grid.any():
        q2 = q2_init if not g_grid.any() else 0.0
        return QPoint(q1_init, q2), float(y @ y)
    i = int(np.argmin(c_grid))
    if i in (0, len(Q1_GRID) - 1):
        raise PopdiffError(
            f"profile minimum at q1 = {Q1_GRID[i]:g}, the end of the q1 grid: "
            "q1 is not bracketed"
        )

    gains = {}

    def profile(s):
        g = simulate_deterministic((np.exp(s), 1.0), spec.n, spec.tau, episode.u)
        q2, c = _project_gain(g[None], y)
        gains[s] = float(q2[0])
        return float(c[0])

    s0 = float(np.log(Q1_GRID[i]))
    s, c = _brent(profile, float(np.log(Q1_GRID[i - 1])), float(np.log(Q1_GRID[i + 1])),
                  s0, profile(s0), max(opt.xtol, _SQRT_EPS))
    return QPoint(float(np.exp(s)), gains[s]), c


DEFAULT_BOX = (0.1, 2.0, 0.1, 2.0)


def initialize(
    episodes: list[Episode],
    spec: GridSpec,
    default_box: tuple[float, float, float, float] = DEFAULT_BOX,
    options: FitOptions | None = None,
) -> RhoParams:
    """Moment-based starting point from per-episode deterministic fits.

    Each episode is fit on its own by ``fit_deterministic`` (closed-form
    gain, 1-D search in q1; of ``options`` only ``xtol`` and ``gap_min``
    apply); the means of the fitted pairs seed the location, the fitted
    spread (plus a margin of 10% or ``gap_min``) seeds the box, and the
    spreads start independent with standard deviation one sixth of the
    box edge.  If any per-episode fit fails (raises PopdiffError, for
    instance because its q1 minimum lies beyond the q1 grid, or is not
    finite), the configured default box is used instead and a warning is
    issued.
    """
    if len(episodes) < 2:
        raise ValueError("moment initialization needs at least 2 episodes")
    opt = options or FitOptions()
    fitted = []
    failed = None
    for ep in episodes:
        try:
            q_hat, c = fit_deterministic(ep, spec, options=options)
            if not (np.isfinite(q_hat.q1) and np.isfinite(q_hat.q2) and np.isfinite(c)):
                raise PopdiffError(f"non-finite deterministic fit for {ep.id}")
            fitted.append([q_hat.q1, q_hat.q2])
        except PopdiffError as exc:
            failed = (ep.id, exc)
            break

    if failed is not None:
        warnings.warn(
            f"deterministic fit failed on episode {failed[0]} ({failed[1]}); "
            f"falling back to default box {default_box}"
        )
        a1, b1, a2, b2 = default_box
        return RhoParams(
            a1, b1, a2, b2, 0.5 * (a1 + b1), 0.5 * (a2 + b2),
            max((b1 - a1) / 6, L_FLOOR), 0.0, max((b2 - a2) / 6, L_FLOOR),
        )

    q = np.array(fitted)
    lo = q.min(axis=0)
    hi = q.max(axis=0)
    margin = np.maximum(0.1 * (hi - lo), opt.gap_min)
    a1 = max(lo[0] - margin[0], Q1_FLOOR)
    a2 = max(lo[1] - margin[1], 0.0)
    b1 = hi[0] + margin[0]
    b2 = hi[1] + margin[1]
    mu = q.mean(axis=0)
    return RhoParams(
        a1, b1, a2, b2, float(mu[0]), float(mu[1]),
        max((b1 - a1) / 6, L_FLOOR), 0.0, max((b2 - a2) / 6, L_FLOOR),
    )
