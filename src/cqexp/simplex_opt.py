"""Maximization over the probability simplex through a convex surrogate.

Every prior problem here maximizes phi(f(p)) with f convex on the simplex
and phi strictly decreasing: the Holevo quantity is -f for the convex
f = -chi, and the Renyi information is a/(a-1) log2 f for the convex
f(p) = tr[(sum_x p_x rho_x^a)^(1/a)]. The solver minimizes f for a stack
of such problems, one start each, by an active-set Newton method whose
rows go in lockstep, one evaluation of the live rows per round; each row
keeps its own active set, backtrack, certificate and iteration count:

* each iteration takes f, its gradient and its Hessian at the current
  prior, and minimizes the quadratic model of f, regularized by
  delta = the Frank-Wolfe gap of f, over the whole simplex. That inner
  problem is solved by a primal active-set loop: an equality-constrained
  Newton step on the current support, capped by a ratio test at the
  simplex boundary, and a letter is admitted only when its multiplier in
  the model is negative. The model is fixed while the support changes,
  and it is strictly convex, so each change lowers it and no support
  repeats: the loop cannot cycle;
* the step to the model's minimizer is backtracked on f, one evaluation
  (f and its gradient) per trial point. Near the optimum the decrease it
  predicts falls below the rounding of f itself, so there a step that
  keeps f within that rounding level is taken when it lowers the gap.

A run stops on the Frank-Wolfe gap of the maximand,
max_x g_x - p.g for g = grad phi(f(p)), which vanishes only at the optimum
and, for a concave objective, bounds the distance to it (Jaggi,
"Revisiting Frank-Wolfe", ICML 2013). The gap cannot be resolved below
the rounding of the gradient it is taken from, so that level is a floor
under the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

_EPS = float(np.finfo(float).eps)
# Multiple of machine epsilon, times the magnitude of a quantity, taken as
# that quantity's rounding level (the gap floor, the slack of the descent
# test and the multiplier test of the inner loop).
_ROUNDING = 64.0
# Armijo fraction of the predicted decrease a step must achieve.
_ARMIJO = 1e-4
# Stopping rule of a run: the Frank-Wolfe gap of the maximand, in its units
# (bits for the channel quantities), and the Newton iteration cap.
GAP_TOL = 1e-9
MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class ConvexSurrogate:
    """A stack of maximands phi(f(p)), each given through the convex f and
    the decreasing phi of its row.

    ``derivatives(points, rows)``, the one evaluation, takes one prior per
    row of ``rows`` (an index array into the stack, or ``...`` for all of
    it) and gives f at each, the gradients, a function forming the Hessians
    (called only when a Newton step is taken) and a function giving a
    per-row quantity that the solve hands back at each row's last iterate,
    or None. Where a one-sided derivative of f is -inf, on a face of the
    simplex, the gradient must hold a large negative stand-in: the gap test
    reads it. ``maximand(f, rows)`` is (phi(f), -phi'(f)) elementwise, by
    default (-f, 1).
    """

    derivatives: Callable[..., tuple]
    maximand: Callable[..., tuple[np.ndarray, np.ndarray]] = lambda f, rows=...: (-f, 1.0)


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of a simplex maximization.

    ``value`` is phi(f) at ``prior``, or 0 within the rounding floor, as at
    a vertex: both maximands here are at least 0. ``gap`` is phi(f - G) -
    phi(f), with G the Frank-Wolfe gap of f there: f is convex, so f* >= f - G,
    and phi is decreasing, so ``gap`` bounds the distance of ``value`` to the
    optimum (G itself for phi(f) = -f; +inf where phi(f - G) is unbounded).
    ``converged`` means the Frank-Wolfe gap of phi(f), -phi'(f) G, met the
    tolerance, or the rounding floor under it; the iteration cap and a
    failed descent leave it False.
    ``start_count`` is always 1.
    """

    value: float
    prior: np.ndarray
    iterations: int
    converged: bool
    start_count: int
    gap: float


def _model_minimizer(point: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Minimizer over the simplex of grad.(q - p) + (q - p).hess.(q - p)/2.

    ``hess`` is positive definite. The working set W holds the letters fixed
    at 0, first those with p_x = 0. Each pass solves the bordered system of
    the equality-constrained step on the free letters; a step that leaves
    the simplex is cut at the first coordinate to reach 0, which joins W,
    and a step that stays inside releases the letter of W with the most
    negative multiplier, if any.
    """
    q = point.copy()
    fixed = q <= 0.0
    dim = len(q)
    # Each pass fixes or releases one letter, and a strictly convex model
    # ends this in a few passes; the cap only bounds rounding effects.
    for _ in range(4 * dim + 4):
        model_grad = grad + hess @ (q - point)
        free = np.flatnonzero(~fixed)
        m = len(free)
        kkt, rhs = np.ones((m + 1, m + 1)), np.zeros(m + 1)
        kkt[:m, :m], kkt[m, m] = hess[free][:, free], 0.0
        rhs[:m] = -model_grad[free]
        step = np.linalg.solve(kkt, rhs)[:m]
        shrinking = step < 0.0
        ratios = np.full(m, np.inf)
        ratios[shrinking] = q[free][shrinking] / -step[shrinking]
        block = int(np.argmin(ratios))
        if ratios[block] < 1.0:
            q[free] += ratios[block] * step
            q[free[block]] = 0.0
            fixed[free[block]] = True
            continue
        q[free] += step
        if not fixed.any():
            break
        model_grad = grad + hess @ (q - point)
        multipliers = model_grad - model_grad[free].mean()
        scale = _ROUNDING * _EPS * float(np.abs(model_grad).max())
        candidates = np.flatnonzero(fixed & (multipliers < -scale))
        if candidates.size == 0:
            break
        fixed[candidates[np.argmin(multipliers[candidates])]] = False
    q = np.clip(q, 0.0, None)
    return q / q.sum()


def _rounding(f, pg, grad: np.ndarray):
    """Rounding level of f, and of the Frank-Wolfe gap p.g - min g, in f's units,
    from f, pg = p.g and g; for one prior or a stack of them."""
    return _ROUNDING * _EPS * (np.abs(f) + np.abs(pg) + np.abs(grad).max(axis=-1))


def _certify(point: np.ndarray, f, grad: np.ndarray, slope):
    """(gap, floor, gap_f) at one prior or a stack of them (last axis the
    letters): gap_f is the Frank-Wolfe gap p.g - min g of f, and the gap of
    phi(f) and its rounding floor are gap_f and the rounding level of f
    times -phi'(f) = ``slope``."""
    pg = (point[..., None, :] @ grad[..., :, None])[..., 0, 0]
    gap_f = np.maximum(pg - grad.min(axis=-1), 0.0)
    return slope * gap_f, slope * _rounding(f, pg, grad), gap_f


def _certified(gap, floor):
    """The stop rule: the gap meets ``GAP_TOL``, or the rounding floor under it."""
    return (gap <= GAP_TOL) | (gap <= floor)


def start_point(dim: int, start: np.ndarray | None = None) -> np.ndarray:
    """``start``, nonnegative with a finite positive sum, divided by it; or the uniform prior."""
    if start is None:
        return np.full(dim, 1.0 / dim)
    start = np.asarray(start, dtype=float)
    with np.errstate(over="ignore"):
        total = start.sum()
    if start.shape != (dim,) or start.min() < 0 or not 0.0 < total < np.inf:
        raise ValueError(f"start must be a finite nonnegative nonzero vector of length {dim}")
    return start / total


def maximize_rows(
    surrogate: ConvexSurrogate, starts: np.ndarray, leaders=None
) -> tuple[list[OptimizationReport], np.ndarray]:
    """Active-set Newton descent on f for each row of the stack from its row
    of ``starts`` (priors), in lockstep: one report per row, and the
    surrogate's extra quantity at each row's last iterate (nan without one,
    or where the row stopped on a failed descent). ``leaders[r] >= 0`` names
    an earlier row, itself without a leader, whose final prior row r starts
    from instead: row r is evaluated at the leader's start with it, and only
    if the leader takes a step does row r wait for it and start again from
    its final prior.

    Each round evaluates the live rows at their trial points, at first their
    starts. A trial that makes progress (a start always does) becomes the
    row's iterate, which stops when the gap of phi(f) meets ``GAP_TOL`` or
    its rounding floor, or after ``MAX_ITERATIONS`` iterations, and else
    takes its Hessian and, as its next trial, the minimizer of its model
    regularized by delta = the Frank-Wolfe gap of f. A trial that makes no
    progress halves the row's step; a step that no longer moves the prior
    fails.

    A trial makes progress when it lowers f by more than the rounding level
    of f and by the Armijo fraction of the decrease the model predicts, or
    when it keeps f within that rounding level and lowers the gap. The
    second kind serves full Newton steps near the optimum, whose decrease
    rounding hides, and the boundary where the gradient of f is nearly
    discontinuous (t^(1/a - 1) at a near 1, for a letter that alone spans an
    eigendirection of A): there f changes by no more than rounding over the
    range of weights that certify the optimum. No step trades the
    certificate for a change in f that rounding can produce, so a run cannot
    cycle at rounding level.
    """
    starts = np.asarray(starts, dtype=float)
    count, dim = starts.shape
    eye = np.eye(dim)
    # Per row: its iterate with (f, phi(f), gap, floor, gap_f) there, its
    # trial point, and the direction, predicted decrease, rounding slack and
    # step length of its backtrack. A live row at 0 iterations has its start
    # as its trial. ``settled`` holds the rows that stopped at their start,
    # ``waiting`` the followers of each leader that took a step.
    leaders = [-1] * count if leaders is None else list(leaders)
    point, direction = list(starts), [None] * count
    trial = [starts[r if k < 0 else k] for r, k in enumerate(leaders)]
    f, value, gap, floor, gap_f, predicted, slack, t, reach = ([0.0] * count for _ in range(9))
    iterations, extras = [0] * count, np.full(count, np.nan)
    live, settled, waiting = list(range(count)), set(), {}
    while live:
        rows = ... if len(live) == count else np.array(live)
        points = np.array([trial[r] for r in live])
        at_f, grad, hessian, extra = surrogate.derivatives(points, rows)
        at_value, slope = surrogate.maximand(at_f, rows)
        at_gap, at_floor, at_gap_f = _certify(points, at_f, grad, slope)
        evaluated = zip(at_f.tolist(), at_value.tolist(), at_gap.tolist(), at_floor.tolist(), at_gap_f.tolist())
        certified = _certified(at_gap, at_floor).tolist()
        stopped, stepping, going = [], [], []
        for j, (r, at) in enumerate(zip(live, evaluated)):
            if leaders[r] >= 0:
                k, leaders[r] = leaders[r], -1
                if k not in settled:
                    waiting.setdefault(k, []).append(r)
                    continue
            took = (
                iterations[r] == 0
                or at[0] < f[r] - slack[r] and at[0] <= f[r] + _ARMIJO * t[r] * predicted[r]
                or at[0] <= f[r] + slack[r] and at[2] < gap[r]
            )
            if took:
                point[r], (f[r], value[r], gap[r], floor[r], gap_f[r]) = points[j], at
                if certified[j] or iterations[r] >= MAX_ITERATIONS:
                    stopped.append(j)
                    if iterations[r] == 0:
                        settled.add(r)
                else:
                    stepping.append(j)
            else:
                # Halve until the step no longer moves the prior.
                t[r] *= 0.5
                if t[r] * reach[r] > _EPS:
                    trial[r] = point[r] + t[r] * direction[r]
                    going.append(r)
        if extra is not None and stopped:
            extras[rows if len(stopped) == len(live) else [live[j] for j in stopped]] = extra()[stopped]
        if stepping:
            for j, hess in zip(stepping, hessian()[stepping] if len(stepping) < len(live) else hessian()):
                r, g = live[j], grad[j]
                iterations[r] += 1
                delta = max(gap_f[r], _ROUNDING * _EPS * float(np.abs(hess).max()))
                trial[r] = _model_minimizer(point[r], g, hess + delta * eye)
                direction[r] = trial[r] - point[r]
                predicted[r] = float(g @ direction[r])
                slack[r] = float(_rounding(f[r], point[r] @ g, g))
                t[r], reach[r] = 1.0, float(np.abs(direction[r]).max())
                if reach[r] > _EPS:
                    going.append(r)
        for k in [k for k in waiting if k not in going]:
            for r in waiting.pop(k):
                trial[r] = point[k]
                going.append(r)
        live = sorted(going)

    f, value, gap, floor, gap_f = np.array([f, value, gap, floor, gap_f])
    bound = surrogate.maximand(f - gap_f)[0] - value
    reports = [
        OptimizationReport(value=float(v), prior=p, iterations=i, converged=bool(c), start_count=1, gap=float(b))
        for v, p, i, c, b in zip(np.where(value > floor, value, 0.0), point, iterations, _certified(gap, floor), bound)
    ]
    return reports, extras


def maximize_on_simplex(
    surrogate: ConvexSurrogate,
    dim: int,
    *,
    start: np.ndarray | None = None,
) -> OptimizationReport:
    """The one-row case of ``maximize_rows``, from ``start`` (see
    ``start_point``), or from the uniform prior. The Hessian is formed only
    after the gap test has failed, so a start that is already optimal costs
    one gradient."""
    return maximize_rows(surrogate, start_point(dim, start)[None])[0][0]
