"""Maximization of smooth objectives over the probability simplex.

The workhorse is exponentiated-gradient (mirror) ascent with a monotone
line search, run once from a single start. The objectives maximized here
have no spurious stationary points: the Holevo quantity is concave in the
prior, and the Renyi information is a decreasing transform of a convex
function of it. So the run stops on the Frank-Wolfe gap
max_x g_x - p.g, which vanishes only at the optimum and, for a concave
objective, bounds the distance to it (Jaggi, "Revisiting Frank-Wolfe",
ICML 2013).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import RunConfig

ValueFn = Callable[[np.ndarray], np.ndarray]
ValueGradFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

_STEP_GROW = 1.25
_STEP_MIN = 1e-14
_MAX_HALVINGS = 12
# Weight of the uniform prior mixed into a warm start. The multiplicative
# update cannot revive an exactly zero coordinate, so without it a stale
# warm start would pin the run to a face of the simplex.
_WARM_MIX = 1e-9


@dataclass(frozen=True)
class SimplexMaximum:
    """Outcome of a simplex maximization.

    ``gap`` is the Frank-Wolfe gap of the objective at ``point``.
    ``converged`` means the run stopped on the gap tolerance or on a
    line-search stall, not at the iteration cap. ``start_count`` is
    always 1.
    """

    value: float
    point: np.ndarray
    iterations: int
    converged: bool
    start_count: int
    gap: float


def _frank_wolfe_gap(point: np.ndarray, grad: np.ndarray) -> float:
    """max_x g_x - p.g: zero exactly at the simplex-constrained optima."""
    return max(float(grad.max() - point @ grad), 0.0)


def _line_search(
    value_fn: ValueFn, point: np.ndarray, value: float, direction: np.ndarray, eta: float
) -> tuple[np.ndarray | None, float]:
    """Halve eta until the EG step improves the value; None if no step does."""
    for _ in range(_MAX_HALVINGS):
        trial = point * np.exp(eta * direction)
        trial /= trial.sum()
        if float(value_fn(trial[None, :])[0]) > value + 1e-15:
            return trial, eta
        eta *= 0.5
        if eta < _STEP_MIN:
            break
    return None, eta


def maximize_on_simplex(
    value_fn: ValueFn,
    value_grad_fn: ValueGradFn,
    dim: int,
    config: RunConfig,
    *,
    warm_starts: Sequence[np.ndarray] = (),
) -> SimplexMaximum:
    """EG ascent from the first warm start, or from the uniform prior.

    The objective callbacks take a batch of priors, one per row. Steps are
    multiplicative, p' = p * exp(eta * g) renormalized; eta is halved until
    the value improves and grown gently on success. The run stops when the
    Frank-Wolfe gap drops to ``config.eg_grad_tol``, when no step of any
    usable size improves the value (numerically stationary), or after
    ``config.eg_max_iters`` iterations.
    """
    uniform = np.full(dim, 1.0 / dim)
    point = uniform
    if warm_starts:
        warm = np.asarray(warm_starts[0], dtype=float)
        if warm.shape != (dim,) or warm.min() < 0 or not warm.sum() > 0:
            raise ValueError(f"warm start must be a nonnegative nonzero vector of length {dim}")
        point = (1.0 - _WARM_MIX) * warm / warm.sum() + _WARM_MIX * uniform
    values, grads = value_grad_fn(point[None, :])
    value, grad = float(values[0]), grads[0]
    gap = _frank_wolfe_gap(point, grad)
    # Scale-free initial step.
    eta = 1.0 / (1.0 + np.ptp(grad))
    iterations = 0
    stalled = False

    while gap > config.eg_grad_tol and iterations < config.eg_max_iters:
        iterations += 1
        # Shift before exponentiating: the update is shift-invariant and
        # unshifted gradients can overflow near alpha = 1.
        trial, eta = _line_search(value_fn, point, value, grad - grad.max(), eta)
        if trial is None:
            # No usable step improves the value: the point sits at its
            # numerical optimum.
            stalled = True
            break
        point = trial
        eta *= _STEP_GROW
        values, grads = value_grad_fn(point[None, :])
        value, grad = float(values[0]), grads[0]
        gap = _frank_wolfe_gap(point, grad)

    return SimplexMaximum(
        value=value,
        point=point.copy(),
        iterations=iterations,
        converged=stalled or gap <= config.eg_grad_tol,
        start_count=1,
        gap=gap,
    )
