"""Box-constrained least squares on the pooled cost.

Constraint handling is by smooth reparameterization plus projection:

* box ordering: b = a + GAP_MIN + exp(s), optimized in s;
* Cholesky diagonal floors: l = l_floor + exp(s);
* the simple lower bounds on a1 and a2 are enforced by projecting the
  trial point after each step.

``fit`` minimizes |r(z)|^2 + alpha |z - z0|^2 in these working
coordinates z: r stacks the N residuals of all episodes, z0 is the
start, and alpha = PULL * min |r|^2 / N, over the points accepted so far,
weighs a Tikhonov pull toward z0 (iteratively regularized Gauss-Newton,
Kaltenbacher, Neubauer & Scherzer 2008).  |r|^2 / N estimates the noise
variance, so the pull is a prior of standard deviation 1/sqrt(PULL)
relative to the noise, whatever the start's misfit.  alpha only falls,
so the cost falls at every accepted step.  The search is
projected Levenberg-Marquardt (More 1978) on the residual Jacobian J of
``objective.evaluate``, through its normal equations alone: each trial
is project(z + d) with

    (J^T J + alpha I + lam (tr(J^T J) / n) I) d = -(J^T r + alpha (z - z0)),

where ``objective`` forms J^T J and J^T r in rho from the episodes'
input Gram matrix (``objective.input_gram``, built once per fit) and
``chain_gradient`` carries them to z on both sides, C^T (J^T J) C and
C^T (J^T r); J itself is never formed.

A trial that lowers the cost divides lam by 10; a higher cost or a
model-layer veto (degenerate density, singular operator, divergence)
multiplies it by 10.  The damping is isotropic: Marquardt's diag(J^T J)
scaling lets directions that the data barely determine take huge steps.
Each trial point is evaluated once, and only the start and accepted
points form their normal equations, from the same forward pass.  Identical
inputs give identical traces.

Termination status:

* ``converged``: the projected gradient ``||x - project(x - g)||`` of
  the penalized cost fell below ``GTOL * (1 + |cost|)``, the first-order
  test for a bound-constrained minimum;
* ``stalled-step``: an accepted step was shorter than ``XTOL`` while the
  projected gradient still failed that test (typically the damping grew
  against a model-layer veto or a bound);
* ``max-iterations``: ``max_iter`` steps were accepted without either
  (``FitOptions.max_iter``, the search's one setting);
* ``damping-exhausted``: lam passed ``LAMBDA_MAX`` with no trial
  accepted (so ends a point on the edge of a veto whose descent points
  across it, after about 20 vetoed trials, each a forward pass);
* ``degenerate-density``: the starting point itself was vetoed.

The per-episode single-q fits behind ``initialize`` do not use this
search: their output is linear in the gain, so ``fit_deterministic``
solves for the gain in closed form and searches q1 alone (variable
projection, Golub & Pereyra 1973), by Brent's method (Brent 1973).  The
episodes' searches are independent, so ``initialize`` runs them in
lockstep: each round solves the trial q1 of every pending search in one
stack, and each search takes the steps, and ends at the bits, that it
would alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .density import L_FLOOR, QPoint, RhoParams, _as_point
from .errors import DegenerateDensityError, PopdiffError, SimulationDivergenceError
from .forward import Episode, convolve, simulate_deterministic, unit_responses
from .grid import Q1_FLOOR, GridSpec
from .objective import evaluate as evaluate_objective, input_gram

# Levenberg-Marquardt damping: its start, the factor by which an accepted
# trial divides it and a rejected one multiplies it, and the value past
# which the search gives up.
LAMBDA_START = 1e-3
LAMBDA_FACTOR = 10.0
LAMBDA_MAX = 1e16
# Weight of the pull over the noise estimate; of 3, 5 and 10, the least
# at which all three benchmark fits converge (with 3 and 5 fit-n16m8 stalls).
PULL = 10.0
# Termination: the relative projected-gradient tolerance and the step length
# below which the search stops (see the module docstring).
GTOL = 1e-6
XTOL = 1e-9
# Least box edge b - a of the working transform and of initialize's margin.
GAP_MIN = 1e-3


@dataclass
class FitOptions:
    max_iter: int = 200


@dataclass
class FitResult:
    rho_hat: RhoParams
    # (iter, cost, projected |grad|, |step|) of the penalized cost
    cost_trace: list[tuple[int, float, float, float]]
    # converged | stalled-step | max-iterations | damping-exhausted |
    # degenerate-density; see the module docstring.
    status: str
    n_cost_evals: int
    n_grad_evals: int
    penalty: float = 0.0  # the pull term alpha |z - z0|^2 at rho_hat

    @property
    def cost(self) -> float:
        """The minimized cost: least squares plus the pull."""
        return self.cost_trace[-1][1] if self.cost_trace else np.inf

    @property
    def least_squares(self) -> float:
        return self.cost - self.penalty


@dataclass
class CoreResult:
    x: np.ndarray
    cost: float
    trace: list[tuple[int, float, float, float]]
    status: str
    n_cost_evals: int
    n_grad_evals: int
    penalty: float


def minimize_lm(evaluate, x0, project, pull=0.0, max_iter=200) -> CoreResult:
    """Projected Levenberg-Marquardt on |r(x)|^2 + alpha |x - x0|^2.

    ``evaluate(x)`` returns the residual vector r at x and a function of
    no arguments that returns the normal equations (J^T J, J^T r) of the
    residual Jacobian J there; it may raise PopdiffError to veto a trial
    point (the damping then grows).  x0 is projected first, and alpha =
    pull * min |r|^2 / r.size over the start and the accepted points so
    far.  The normal-equations function is called only at the start and
    at each accepted point, so an evaluation that keeps its forward pass
    never repeats it.
    """
    x0 = project(np.asarray(x0, dtype=float))
    eye = np.eye(x0.size)
    try:
        r, normal = evaluate(x0)
    except DegenerateDensityError:
        return CoreResult(x0, np.inf, [], "degenerate-density", 0, 0, 0.0)
    alpha = pull * float(r @ r) / r.size
    n_cost = 0

    def penalty(x):
        return alpha * float((x - x0) @ (x - x0))

    def linearize(x, normal):
        """J^T J, half gradient and projected gradient norm at x."""
        jtj, jtr = normal()
        half = jtr + alpha * (x - x0)
        return jtj, half, float(np.linalg.norm(x - project(x - 2.0 * half)))

    x, c = x0, float(r @ r)
    jtj, half, pg = linearize(x, normal)
    trace = [(0, c, pg, 0.0)]
    lam = LAMBDA_START
    status = "max-iterations"

    for it in range(1, max_iter + 1):
        if pg < GTOL * (1 + abs(c)):
            status = "converged"
            break
        damping = np.trace(jtj) / x0.size * eye
        normal = None  # the last accepted point's forward pass goes now
        while lam <= LAMBDA_MAX:
            x_try = project(x - np.linalg.solve(jtj + alpha * eye + lam * damping, half))
            c_try = np.inf
            if (x_try - x).any():
                n_cost += 1
                try:
                    r_try, normal = evaluate(x_try)
                except PopdiffError:
                    pass
                else:
                    c_try = float(r_try @ r_try) + penalty(x_try)
            if c_try < c:
                break
            normal = None  # a rejected trial's forward pass goes now
            lam *= LAMBDA_FACTOR
        else:
            status = "damping-exhausted"
            break
        lam /= LAMBDA_FACTOR
        step_norm = float(np.linalg.norm(x_try - x))
        x, r = x_try, r_try
        alpha = min(alpha, pull * float(r @ r) / r.size)
        c = float(r @ r) + penalty(x)
        jtj, half, pg = linearize(x, normal)
        trace.append((it, c, pg, step_norm))
        if step_norm < XTOL:
            # A short step alone is no minimum: the damping may have grown
            # against a veto while the gradient is still large.
            status = "converged" if pg < GTOL * (1 + abs(c)) else "stalled-step"
            break

    # One linearization per trace row: the start and each accepted point.
    return CoreResult(x, c, trace, status, n_cost, len(trace), penalty(x))


# --------------------------------------------------------------- 9-D transform

_GAP_EPS = 1e-12


def rho_to_working(rho: RhoParams) -> np.ndarray:
    r = rho.as_array()
    z = np.empty(9)
    z[0] = r[0]
    z[1] = np.log(max(r[1] - r[0] - GAP_MIN, _GAP_EPS))
    z[2] = r[2]
    z[3] = np.log(max(r[3] - r[2] - GAP_MIN, _GAP_EPS))
    z[4:6] = r[4:6]
    z[6] = np.log(max(r[6] - L_FLOOR, _GAP_EPS))
    z[7] = r[7]
    z[8] = np.log(max(r[8] - L_FLOOR, _GAP_EPS))
    return z


def working_to_rho(z: np.ndarray) -> RhoParams:
    # Overflowing exp on a wild trial point yields a non-finite vector,
    # which the parameter validation turns into a rejected step.
    with np.errstate(over="ignore"):
        r = np.empty(9)
        r[0] = z[0]
        r[1] = z[0] + GAP_MIN + np.exp(z[1])
        r[2] = z[2]
        r[3] = z[2] + GAP_MIN + np.exp(z[3])
        r[4:6] = z[4:6]
        r[6] = L_FLOOR + np.exp(z[6])
        r[7] = z[7]
        r[8] = L_FLOOR + np.exp(z[8])
    return RhoParams.from_array(r)


def chain_gradient(grad_rho: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Pull a rho-space gradient (or each row of an array, along its last
    axis: J^T J takes it on both sides) back through the working
    transform."""
    g = np.empty_like(grad_rho)
    g[..., 0] = grad_rho[..., 0] + grad_rho[..., 1]
    g[..., 1] = grad_rho[..., 1] * np.exp(z[1])
    g[..., 2] = grad_rho[..., 2] + grad_rho[..., 3]
    g[..., 3] = grad_rho[..., 3] * np.exp(z[3])
    g[..., 4:6] = grad_rho[..., 4:6]
    g[..., 6] = grad_rho[..., 6] * np.exp(z[6])
    g[..., 7] = grad_rho[..., 7]
    g[..., 8] = grad_rho[..., 8] * np.exp(z[8])
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
    """Minimize the pooled cost plus the pull toward ``init`` over all
    nine parameters (see the module docstring)."""
    opt = options or FitOptions()
    gram = input_gram(episodes)

    def evaluate(z):
        trial = evaluate_objective(working_to_rho(z), spec, episodes)

        def normal_equations():
            jtj, jtr = trial.normal_equations(gram)
            return chain_gradient(chain_gradient(jtj, z).T, z), chain_gradient(jtr, z)

        return trial.residuals, normal_equations

    core = minimize_lm(evaluate, rho_to_working(init), _project_working, PULL,
                       opt.max_iter)
    # A vetoed start or no accepted step hands back the exact input.
    rho_hat = init if len(core.trace) <= 1 else working_to_rho(core.x)
    return FitResult(rho_hat, core.trace, core.status, core.n_cost_evals,
                     core.n_grad_evals, core.penalty)


# ------------------------------------------------- single-q variable projection

# Log-spaced q1 grid on which fit_deterministic brackets the profile
# minimum, six decades around the diffusivities of interest (about 0.1-2);
# a minimum at either end raises, it is never clipped.
Q1_GRID = np.logspace(-3.0, 3.0, 25)
# Relative q1 tolerance of the Brent search.  The profile cost is flat to
# second order at its minimum, so a finer search buys no accuracy: its steps
# would compare costs that differ by rounding, and its number of solves would
# follow the last bits of the outputs.
_Q1_RTOL = 1e-6
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


def _brent(a: float, b: float, x: float, tol: float):
    """Minimize a function on (a, b) from an interior x (Brent 1973).

    A generator: it yields each trial point, x first, and is sent the
    function's value there, so its caller decides how and when values are
    computed.  Parabolic steps through the three best points,
    golden-section steps when those fail, no step shorter than ``tol``;
    stops once the bracket around the best point is within about ``2 tol``
    of it, and returns (as ``StopIteration.value``) the best point
    evaluated and its value.
    """
    fx = yield x
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
        fu = yield u
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


def _q1_search(episode: Episode, spec: GridSpec, grid: np.ndarray, init: QPoint | tuple):
    """The search of ``fit_deterministic`` for one episode, as a generator.

    ``grid`` holds the ``unit_responses`` at ``Q1_GRID``, at least
    ``episode.steps`` long.  The generator yields each trial log q1 and is
    sent that trial's unit response, at least ``episode.steps`` long, for
    ``simulate_deterministic``; it returns (as ``StopIteration.value``)
    the fitted point and its cost, or raises PopdiffError.
    """
    q1_init, q2_init = _as_point(init)
    y = episode.y_obs
    g_grid = convolve(grid[:, :episode.steps], episode.u)
    if not np.all(np.isfinite(g_grid)):
        raise SimulationDivergenceError("output is not finite")
    q2_grid, c_grid = _project_gain(g_grid, y)
    if not q2_grid.any():
        q2 = q2_init if not g_grid.any() else 0.0
        return QPoint(q1_init, q2), float(y @ y)
    del g_grid  # every pending search would hold its (25, steps + 1) profile
    i = int(np.argmin(c_grid))
    if i in (0, len(Q1_GRID) - 1):
        raise PopdiffError(
            f"profile minimum at q1 = {Q1_GRID[i]:g}, the end of the q1 grid: "
            "q1 is not bracketed"
        )

    gains = {}
    brent = _brent(float(np.log(Q1_GRID[i - 1])), float(np.log(Q1_GRID[i + 1])),
                   float(np.log(Q1_GRID[i])), _Q1_RTOL)
    s = next(brent)
    while True:
        h = yield s
        g = simulate_deterministic((np.exp(s), 1.0), spec.n, spec.tau, episode.u, h)
        q2, c = _project_gain(g[None], y)
        gains[s] = float(q2[0])
        try:
            s = brent.send(float(c[0]))
        except StopIteration as stop:
            s, c = stop.value
            return QPoint(float(np.exp(s)), gains[s]), c


def _fit_lockstep(episodes: list[Episode], spec: GridSpec, init: QPoint | tuple) -> list:
    """Run the ``_q1_search`` of every episode in lockstep rounds.

    One ``unit_responses`` at ``Q1_GRID`` serves every episode's grid
    profile; then each round makes one ``unit_responses`` of the pending
    searches' trial q1 values (one per search), at the longest pending
    episode's length, and each search passes its row to
    ``simulate_deterministic`` with its own input.  A row of a stack is
    the bits that row would be alone, so each search takes the steps it
    would take alone.  Returns, in list order, each episode's (QPoint,
    cost) or the PopdiffError its search raised.
    """
    grid = unit_responses(Q1_GRID, spec.n, spec.tau, max(ep.steps for ep in episodes))
    searches = [_q1_search(ep, spec, grid, init) for ep in episodes]
    results: list = [None] * len(episodes)

    def advance(sends: dict) -> dict:
        """Send each search its response (None to start it); return the
        next trial log q1 of each search that goes on."""
        trials = {}
        for k, h in sends.items():
            try:
                trials[k] = searches[k].send(h)
            except StopIteration as stop:
                results[k] = stop.value
            except PopdiffError as exc:
                results[k] = exc
        return trials

    trials = advance(dict.fromkeys(range(len(episodes))))
    while trials:
        h = unit_responses(np.exp(list(trials.values())), spec.n, spec.tau,
                           max(episodes[k].steps for k in trials))
        trials = advance(dict(zip(trials, h)))
    return results


def fit_deterministic(
    episode: Episode,
    spec: GridSpec,
    init: QPoint | tuple = QPoint(1.0, 1.0),
) -> tuple[QPoint, float]:
    """Least-squares fit of a single (q1, q2 >= 0) to one episode.

    The output is linear in the gain, y = q2 g(q1) with g the output at
    q2 = 1, so for each q1 the best gain has the closed form
    q2* = max(<g, y> / <g, g>, 0) and the fit is a 1-D search of the
    profile cost ||q2* g(q1) - y||^2 (variable projection).  The profile
    is evaluated on ``Q1_GRID`` by convolving the input with the
    ``unit_responses`` there; a bounded Brent search in log q1 then
    refines the best grid point inside the bracket of its two neighbours,
    to the relative q1 tolerance ``_Q1_RTOL``, with one single-q output
    (``simulate_deterministic``) per trial point.  This is the one-episode
    case of the lockstep search that ``initialize`` runs over all its
    episodes.

    When the best grid point is an end of ``Q1_GRID`` the minimum is not
    bracketed and PopdiffError is raised (``initialize`` then falls back
    to its default box).  When the best response is identically zero
    (zero input, or data with no positive correlation to any grid
    response) q1 is not determined: ``init`` is returned, with q2 = 0 in
    the second case, and the cost is ||y||^2.
    """
    (result,) = _fit_lockstep([episode], spec, init)
    if isinstance(result, PopdiffError):
        raise result
    return result


DEFAULT_BOX = (0.1, 2.0, 0.1, 2.0)


def initialize(
    episodes: list[Episode],
    spec: GridSpec,
    default_box: tuple[float, float, float, float] = DEFAULT_BOX,
) -> RhoParams:
    """Moment-based starting point from per-episode deterministic fits.

    Each episode is fit on its own as ``fit_deterministic`` fits it
    (closed-form gain, 1-D search in q1), to the same bits, but the
    searches run in lockstep: one ``unit_responses`` at ``Q1_GRID`` at the
    longest episode's length, then one stacked single-q solve per round
    for the trial points of all pending searches.  The means of the fitted
    pairs seed the location, the fitted spread (plus a margin of 10% or
    ``GAP_MIN``) seeds the box, and the spreads start independent with
    standard deviation one sixth of the box edge.  If any per-episode fit
    fails (raises PopdiffError, for instance because its q1 minimum lies
    beyond the q1 grid, or is not finite), the configured default box is
    used instead and a warning names the first failed episode in list
    order.
    """
    if len(episodes) < 2:
        raise ValueError("moment initialization needs at least 2 episodes")
    fitted = []
    failed = None
    for ep, result in zip(episodes, _fit_lockstep(episodes, spec, QPoint(1.0, 1.0))):
        if not isinstance(result, PopdiffError):
            q_hat, c = result
            if np.isfinite([q_hat.q1, q_hat.q2, c]).all():
                fitted.append([q_hat.q1, q_hat.q2])
                continue
            result = PopdiffError(f"non-finite deterministic fit for {ep.id}")
        failed = (ep.id, result)
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
    margin = np.maximum(0.1 * (hi - lo), GAP_MIN)
    a1 = max(lo[0] - margin[0], Q1_FLOOR)
    a2 = max(lo[1] - margin[1], 0.0)
    b1 = hi[0] + margin[0]
    b2 = hi[1] + margin[1]
    mu = q.mean(axis=0)
    return RhoParams(
        a1, b1, a2, b2, float(mu[0]), float(mu[1]),
        max((b1 - a1) / 6, L_FLOOR), 0.0, max((b2 - a2) / 6, L_FLOOR),
    )
