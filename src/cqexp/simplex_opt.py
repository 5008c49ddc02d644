"""Maximization over the probability simplex through a convex surrogate.

Every prior problem here maximizes phi(f(p)) with f convex on the simplex
and phi strictly decreasing: the Holevo quantity is -f for the convex
f = -chi, and the Renyi information is a/(a-1) log2 f for the convex
f(p) = tr[(sum_x p_x rho_x^a)^(1/a)]. So the solver minimizes f, once,
from one start, by an active-set Newton method:

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

The run stops on the Frank-Wolfe gap of the maximand,
max_x g_x - p.g for g = grad phi(f(p)), which vanishes only at the optimum
and, for a concave objective, bounds the distance to it (Jaggi,
"Revisiting Frank-Wolfe", ICML 2013). The gap cannot be resolved below
the rounding of the gradient it is taken from, so that level is a floor
under the tolerance. The gap and its floor are taken for one prior or a
stack of them, so ``certified_starts`` tests many starts at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

Derivatives = tuple[float, np.ndarray, Callable[[], np.ndarray]]

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


def _negate(f: float) -> tuple[float, float]:
    return -f, 1.0


@dataclass(frozen=True)
class ConvexSurrogate:
    """A maximand phi(f(p)), given through the convex f and the decreasing phi.

    ``derivatives(p)``, the one evaluation at a prior, is f(p), its gradient
    and a function forming its Hessian, called only when a Newton step is
    taken. Where a one-sided derivative of f is -inf, on a face of the
    simplex, the gradient must hold a large negative stand-in: the gap test
    reads it. ``maximand(f)`` is (phi(f), -phi'(f)), by default (-f, 1).
    """

    derivatives: Callable[[np.ndarray], Derivatives]
    maximand: Callable[[float], tuple[float, float]] = _negate


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of a simplex maximization.

    ``value`` is phi(f) at ``prior``. ``gap`` is phi(f - G) - phi(f), with G
    the Frank-Wolfe gap of f there: f is convex, so f* >= f - G, and phi is
    decreasing, so ``gap`` bounds the distance of ``value`` to the optimum
    (G itself for phi(f) = -f; +inf where phi(f - G) is unbounded).
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
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = hess[free][:, free]
        kkt[:m, m] = kkt[m, :m] = 1.0
        rhs = np.append(-model_grad[free], 0.0)
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


class _Iterate(NamedTuple):
    """A prior with the derivatives of f there and its certificate."""

    point: np.ndarray
    f: float
    grad: np.ndarray
    hessian: Callable[[], np.ndarray]
    value: float  # phi(f)
    gap: float  # Frank-Wolfe gap of phi(f), in its units
    floor: float  # rounding level of that gap
    gap_f: float  # Frank-Wolfe gap of f


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


def certified_starts(points: np.ndarray, f: np.ndarray, grad: np.ndarray, maximand):
    """For a stack of starts, with f and its gradient at each and ``maximand``
    the elementwise (phi(f), -phi'(f)), the report ``maximize_on_simplex``
    returns where the start already meets the stop rule (0 iterations), and
    None where Newton steps are needed."""
    value, slope = maximand(f)
    gap, floor, gap_f = _certify(points, f, grad, slope)
    bound = maximand(f - gap_f)[0] - value
    return [
        OptimizationReport(
            value=float(v), prior=p.copy(), iterations=0, converged=True, start_count=1, gap=float(g)
        ) if ok else None
        for p, v, g, ok in zip(points, value, bound, _certified(gap, floor))
    ]


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


def _iterate(surrogate: ConvexSurrogate, point: np.ndarray) -> _Iterate:
    f, grad, hessian = surrogate.derivatives(point)
    value, slope = surrogate.maximand(f)
    gap, floor, gap_f = _certify(point, f, grad, slope)
    return _Iterate(point, f, grad, hessian, value, float(gap), float(floor), float(gap_f))


def _newton_step(surrogate: ConvexSurrogate, at: _Iterate) -> _Iterate | None:
    """One backtracked step toward the minimizer of the model regularized by
    delta = the Frank-Wolfe gap of f; None if no step makes progress.

    A step makes progress when it lowers f by more than the rounding level
    of f and by the Armijo fraction of the decrease the model predicts, or
    when it keeps f within that rounding level and lowers the gap. The
    second kind serves full Newton steps near the optimum, whose decrease
    rounding hides, and the boundary where the gradient of f is nearly
    discontinuous (t^(1/a - 1) at a near 1, for a letter that alone spans
    an eigendirection of A): there f changes by no more than rounding over
    the range of weights that certify the optimum. No step trades the
    certificate for a change in f that rounding can produce, so the run
    cannot cycle at rounding level.
    """
    hess = at.hessian()
    delta = max(at.gap_f, _ROUNDING * _EPS * float(np.abs(hess).max()))
    target = _model_minimizer(at.point, at.grad, hess + delta * np.eye(len(at.point)))
    direction = target - at.point
    predicted = float(at.grad @ direction)
    slack = float(_rounding(at.f, at.point @ at.grad, at.grad))
    t, point = 1.0, target
    # Halve until the step no longer moves the prior.
    while t * float(np.abs(direction).max()) > _EPS:
        trial = _iterate(surrogate, point)
        descent = trial.f < at.f - slack and trial.f <= at.f + _ARMIJO * t * predicted
        if descent or (trial.f <= at.f + slack and trial.gap < at.gap):
            return trial
        t *= 0.5
        point = at.point + t * direction
    return None


def maximize_on_simplex(
    surrogate: ConvexSurrogate,
    dim: int,
    *,
    start: np.ndarray | None = None,
) -> OptimizationReport:
    """Active-set Newton descent on f from ``start`` (see ``start_point``),
    or from the uniform prior.

    The run stops when the Frank-Wolfe gap of phi(f) reaches ``GAP_TOL``
    or its rounding floor, when no step along the Newton direction makes
    progress, or after ``MAX_ITERATIONS`` iterations. The Hessian is formed
    only after the gap test has failed, so a start that is already optimal
    costs one gradient.
    """
    at = _iterate(surrogate, start_point(dim, start))
    iterations = 0
    while not _certified(at.gap, at.floor) and iterations < MAX_ITERATIONS:
        iterations += 1
        stepped = _newton_step(surrogate, at)
        if stepped is None:
            break
        at = stepped

    return OptimizationReport(
        value=at.value,
        prior=at.point.copy(),
        iterations=iterations,
        converged=bool(_certified(at.gap, at.floor)),
        start_count=1,
        gap=surrogate.maximand(at.f - at.gap_f)[0] - at.value,
    )
