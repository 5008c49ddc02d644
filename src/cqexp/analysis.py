"""Channel-level quantities: optimized Renyi information, capacity, and
the error-exponent bounds built from them.

The alpha-parametrized objective ((1-a)/a) * (I_a(N) - r) is maximized
over two ranges of one alpha grid: [1/2, 1] for the achievability (lower)
bound and [0.01, 1] for the sphere-packing (upper) bound, whose supremum
over (0, 1] is truncated there. With s = (1-a)/a it is E0(s) - s r, E0(s) =
s I_{1/(1+s)}(N); the critical rate E0'(1) and the root of E0'(s) = r that
refines each bound come from the closed-form slope at the optimal prior
(Danskin's theorem); E0'(0) is the capacity. Each evaluation of I_a(N) is
itself a maximization over priors, so a :class:`ChannelAnalysis` session
caches those inner optimizations and warm-starts nearby ones. It solves
them as stacks of (alpha, start) rows, all rows of a stack in lockstep
(``simplex_opt.maximize_rows``): each round is one ``eigh`` of the live
rows, a row whose start is already optimal costs that one evaluation, and
each row's E0' slope comes from the decomposition of its last iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CQChannel, pure_letter_overlaps
from .config import CHUNK_ENTRIES, DEFAULT_CONFIG, LN_BASE, RunConfig
from .divergences import _per_row, check_alpha, letter_power_logs, letter_powers
from .errors import InvalidGrid, NumericalInstability, RateAboveCapacity, TooLarge
from .linalg import _support_clip, gram_stack, mat_power, spectral_entropy, tensor_all
from .simplex_opt import ConvexSurrogate, OptimizationReport, maximize_on_simplex, maximize_rows, start_point
from .typeclasses import TypeClass, enumerate_sequences, type_count, type_counts, type_index

# The paper's alpha floors: achievability maximizes over s in [0, 1], alpha in
# [1/2, 1]; the sphere-packing supremum over (0, 1] is cut off at 0.01 (warned).
ACHIEVABILITY_ALPHA_MIN = 0.5
SPHERE_PACKING_ALPHA_MIN = 0.01
# The one alpha grid of both bounds, 0.01, 0.02, ..., 1, with both floors as
# exact points; and the alpha bracket that ends a root search.
ALPHA_GRID = np.arange(1, 101) / 100
ALPHA_TOL = 1e-8


@dataclass(frozen=True)
class BoundResult:
    """One exponent bound: its value, optimizing alpha, and whether the
    alpha search saturated at the truncated lower endpoint."""

    value: float
    alpha: float
    saturated: bool = False


@dataclass(frozen=True)
class ReliabilityResult:
    """Reliability-function output: exact value or a bounding interval."""

    kind: str  # "exact" | "interval"
    lower: float
    upper: float


@dataclass(frozen=True)
class ExponentRow:
    rate: float
    lower: float
    upper: float
    equal: bool
    alpha_lower: float
    alpha_upper: float
    upper_saturated: bool = False


@dataclass(frozen=True)
class ExponentCurve:
    rows: tuple[ExponentRow, ...]
    critical_rate: float
    capacity: float

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        slack = 1e-8
        for row in rows:
            if row.lower > row.upper + slack:
                raise NumericalInstability(
                    f"lower bound exceeds upper at r={row.rate}: {row.lower} > {row.upper}"
                )
        for a, b in zip(rows, rows[1:]):
            if b.rate <= a.rate:
                raise InvalidGrid("curve rates must be strictly increasing")
            if b.lower > a.lower + slack or b.upper > a.upper + slack:
                raise NumericalInstability("exponent bounds must be non-increasing in rate")


# ---------------------------------------------------------------------------
# Convex surrogates of the prior objectives. Each formula takes one prior or
# a stack of (alpha, prior) rows: the leading axes are the rows.


_EPS = float(np.finfo(float).eps)


def _mix(prior: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_x p_x M_x: (..., X) weights against (..., X, d, d) or (X, d, d) matrices."""
    out = prior[..., None, :] @ mats.reshape(mats.shape[:-2] + (-1,))
    return out.reshape(out.shape[:-2] + mats.shape[-2:])


def _noise_floor(lam: np.ndarray) -> np.ndarray:
    """The eigensolver's noise floor, d eps lambda_max, taken as the edge of supp(A),
    of ascending eigenvalues (last axis), as ``eigh`` returns them.

    The floor, not ``SUPPORT_CUTOFF``, is the cut: a letter of tiny weight
    contributes eigenvalues far below the relative cutoff of the matrix
    powers, and the Newton step needs their curvature.
    """
    return (lam.shape[-1] * _EPS) * lam[..., -1:]


def _divided_differences(lam: np.ndarray, fn, dfn) -> np.ndarray:
    """Gamma_ij = (fn(l_i) - fn(l_j)) / (l_i - l_j) on supp(A), zero off it, for one
    spectrum or a stack of them (last axis).

    The eigenvalues ascend, as ``eigh`` returns them. fn has a singular
    derivative at 0, so Gamma is taken on supp(A) only. Where two
    eigenvalues agree to about sqrt(eps) the quotient loses its digits, so
    dfn at their midpoint, a (..., d, d) array, stands in for it.
    """
    top = lam[..., -1:]
    on = lam > _noise_floor(lam)
    lam = np.where(on, lam, top)
    diff = lam[..., :, None] - lam[..., None, :]
    close = np.abs(diff) <= 1e-8 * top[..., None]
    values = fn(lam)
    quotient = (values[..., :, None] - values[..., None, :]) / np.where(close, 1.0, diff)
    gamma = np.where(close, dfn((lam[..., :, None] + lam[..., None, :]) / 2), quotient)
    return np.where(on[..., :, None] & on[..., None, :], gamma, 0.0)


def _letter_derivatives(mats: np.ndarray, lam: np.ndarray, vec: np.ndarray, fn, dfn, scale):
    """Gradient scale * sum_i (P_x)_ii fn(l_i), P_x = V^dagger M_x V, of
    scale * tr[F(A)] with F' = fn, and its Hessian (Daleckii-Krein; Bhatia,
    Matrix Analysis, V.3): scale * Re sum_ij Gamma_ij (P_x)_ij (P_y)_ji, with
    Gamma the divided differences of fn.

    fn is called on every eigenvalue, so it also sets the derivative off
    supp(A). Both are taken for one row or a stack of them, with ``scale``
    broadcast against the gradient; only the diagonals of P_x enter it. The
    Hessian, which forms the full P_x, is taken when a Newton step asks for
    it.
    """
    rotated = mats @ vec[..., None, :, :]
    grad = scale * np.einsum("...ai,...xai,...i->...x", vec.conj(), rotated, fn(lam)).real

    def hessian() -> np.ndarray:
        flat = (np.swapaxes(vec.conj(), -1, -2)[..., None, :, :] @ rotated).reshape(rotated.shape[:-2] + (-1,))
        gamma = _divided_differences(lam, fn, dfn)
        weighted = gamma.reshape(gamma.shape[:-2] + (1, -1)) * flat
        return np.asarray(scale)[..., None] * (weighted @ np.swapaxes(flat.conj(), -1, -2)).real

    return grad, hessian


def _renyi_derivatives(powers: np.ndarray, alpha, prior: np.ndarray):
    """f(p) = tr[A^b], A = sum_x p_x rho_x^a, b = 1/a, its gradient, a
    function forming its Hessian and one giving E0' at p, from one ``eigh``
    of A; ``powers`` holds rho_x^a, (..., X, d, d) against ``alpha`` (...)
    and ``prior`` (..., X)."""
    beta = 1.0 / _per_row(alpha, 1)
    lam, vec = np.linalg.eigh(_mix(prior, powers))
    lam = np.clip(lam, 0.0, None)

    def slope(t: np.ndarray) -> np.ndarray:
        # Off supp(A) the derivative is 0: an eigenvalue that grows from 0
        # like t enters f like t^b, b > 1.
        return np.where(t > _noise_floor(t), t, 0.0) ** (beta - 1.0)

    def curvature(t: np.ndarray) -> np.ndarray:
        pair_beta = 1.0 / _per_row(alpha, 2)  # against pairs of eigenvalues
        return (pair_beta - 1.0) * t ** (pair_beta - 2.0)

    def e0_slope(power_logs: np.ndarray) -> np.ndarray:
        """d/ds E0(s, p) in bits at s = 1/a - 1, for E0 = -log2 tr[A^(1+s)],
        from ``power_logs`` = rho_x^a log2 rho_x, shaped as ``powers``.

        A' = -a^2 sum_x p_x rho_x^a ln rho_x gives d/ds tr[A^(1+s)] =
        sum mu^(1+s) ln mu + (1+s) sum mu^s (V^dagger A' V)_ii on supp(A);
        in log2 the ln 2 of E0 cancels. At a = 1 it is the Holevo quantity of p.
        """
        s = 1.0 / _per_row(alpha, 1) - 1.0
        a_prime = -_per_row(alpha, 2) ** 2 * _mix(prior, power_logs)
        on = _support_clip(lam) > 0
        mu = np.where(on, lam, 1.0)
        a_pow = np.where(on, mu ** (1.0 + s), 0.0)
        diag = np.einsum("...ij,...ij->...j", vec.conj(), a_prime @ vec).real
        tilted = np.where(on, mu ** s * diag, 0.0).sum(axis=-1, keepdims=True)
        d_trace = (a_pow * np.log(mu)).sum(axis=-1, keepdims=True) / LN_BASE + (1.0 + s) * tilted
        return (-d_trace / a_pow.sum(axis=-1, keepdims=True))[..., 0]

    grad, hessian = _letter_derivatives(powers, lam, vec, slope, curvature, beta)
    return (lam ** beta).sum(axis=-1), grad, hessian, e0_slope


def _renyi_maximand(alpha, f):
    """(I_a, -dI_a/df) with I_a = a/(a-1) log2 f, elementwise; I_a = +inf at f <= 0."""
    with np.errstate(divide="ignore"):
        return (
            alpha / (alpha - 1.0) * np.log(np.maximum(f, 0.0)) / LN_BASE,
            alpha / ((1.0 - alpha) * LN_BASE * f),
        )


def _renyi_surrogate(channel: CQChannel, alpha, *, slopes: bool = False) -> ConvexSurrogate:
    """f(p) = tr[A^b], A = sum_x p_x rho_x^a, b = 1/a, I_a = a/(a-1) log2 f, for
    one alpha or a stack of them, one per row; with ``slopes``, a row's
    extra quantity is its E0' slope."""
    powers = letter_powers(channel, alpha)
    power_logs = letter_power_logs(channel, alpha) if slopes else None

    def derivatives(prior: np.ndarray, rows=...):
        a = alpha if rows is ... else alpha[rows]
        f, grad, hessian, e0_slope = _renyi_derivatives(powers[rows], a, prior)
        return f, grad, hessian, None if power_logs is None else lambda: e0_slope(power_logs[rows])

    return ConvexSurrogate(derivatives, lambda f, rows=...: _renyi_maximand(alpha if rows is ... else alpha[rows], f))


def _holevo_surrogate(channel: CQChannel) -> ConvexSurrogate:
    """f(p) = -chi(p) = sum_x p_x S(rho_x) - S(A), A = sum_x p_x rho_x, in bits."""
    outputs = channel.outputs
    letter_entropy = spectral_entropy(channel.spectra[0])

    def log(lam: np.ndarray) -> np.ndarray:
        # Off supp(A) the derivative is -inf: a letter with weight there
        # raises S(A) like -t ln t. The log of the noise floor stands in for
        # it, far below every finite value, so the Frank-Wolfe gap and the
        # multiplier test admit that letter.
        return np.log(np.maximum(lam, _noise_floor(lam)))

    def derivatives(prior: np.ndarray, rows=...):
        lam, vec = np.linalg.eigh(_mix(prior, outputs))
        lam = np.clip(lam, 0.0, None)
        traces, hessian = _letter_derivatives(outputs, lam, vec, log, np.reciprocal, 1.0 / LN_BASE)
        plogp = np.where(lam > 0, lam * np.log(np.maximum(lam, 1e-300)), 0.0)
        chi = -plogp.sum(axis=-1) / LN_BASE - prior @ letter_entropy
        return -chi, traces + 1.0 / LN_BASE + letter_entropy, hessian, None

    return ConvexSurrogate(derivatives)


def _check_alphabet(channel: CQChannel) -> None:
    """TooLarge unless the |X| x |X| Hessian and KKT system of a Newton step, the one
    cost of a prior solve that grows with |X| alone, fit in ``CHUNK_ENTRIES``."""
    if channel.size ** 2 > CHUNK_ENTRIES:
        raise TooLarge(f"{channel.size ** 2} Hessian entries of alphabet {channel.size} exceed ceiling {CHUNK_ENTRIES}")


def _check_order(alpha: float) -> float:
    """alpha as a float, if it lies in (0, 1]."""
    alpha = check_alpha(alpha, hi=1.0)
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    return alpha


def holevo_capacity(channel: CQChannel, *, start: np.ndarray | None = None) -> OptimizationReport:
    """Classical capacity: maximize the Holevo quantity over input priors."""
    _check_alphabet(channel)
    return maximize_on_simplex(_holevo_surrogate(channel), channel.size, start=start)


def renyi_mi_channel(channel: CQChannel, alpha: float, *, start: np.ndarray | None = None) -> OptimizationReport:
    """I_alpha(N): maximize the channel Renyi information over priors.

    Requires alpha in (0, 1]; alpha = 1 dispatches to the capacity
    maximization of the Holevo quantity.
    """
    alpha = _check_order(alpha)
    if alpha == 1.0:
        return holevo_capacity(channel, start=start)
    _check_alphabet(channel)
    return maximize_on_simplex(_renyi_surrogate(channel, alpha), channel.size, start=start)


# ---------------------------------------------------------------------------
# Stacks of (alpha, prior) rows.


def _row_stacks(channel: CQChannel, count: int):
    """Slices of ``count`` (alpha < 1, prior) rows, in stacks of ``CHUNK_ENTRIES``
    entries: |X| d^2 of letter functions and |X|^2 of Hessian per row."""
    _check_alphabet(channel)
    step = max(1, CHUNK_ENTRIES // (channel.size * channel.dim ** 2 + channel.size ** 2))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _renyi_solve(channel: CQChannel, alphas, starts, leaders=None):
    """The ``renyi_mi_channel`` report and E0' slope at each (alpha < 1, start
    prior) row, one lockstep solve per stack of ``_row_stacks``; ``leaders``
    as in ``maximize_rows``, where a leader in an earlier stack gives its
    prior as the start. Each start is divided by its sum, as in ``start_point``."""
    alphas = np.asarray(alphas, dtype=float)
    points = np.array(starts, dtype=float)
    points /= points.sum(axis=1, keepdims=True)
    leaders = np.full(len(alphas), -1) if leaders is None else np.asarray(leaders)
    reports, slopes = [], []
    for rows in _row_stacks(channel, len(alphas)):
        lead = leaders[rows] - rows.start
        for i in np.flatnonzero((lead < 0) & (leaders[rows] >= 0)):
            points[rows.start + i] = reports[leaders[rows.start + i]].prior
        stack_reports, stack_slopes = maximize_rows(
            _renyi_surrogate(channel, alphas[rows], slopes=True), points[rows], np.maximum(lead, -1)
        )
        reports += stack_reports
        slopes += stack_slopes.tolist()
    return reports, slopes


def _inverse_cubic_root(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x at g = 0 on the cubic x(g) through the four (g, x) points of each
    row of ``g`` and ``x``, in Lagrange form; not finite where two g agree."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return sum(
            x[:, k] * np.prod([g[:, j] / (g[:, j] - g[:, k]) for j in range(4) if j != k], axis=0)
            for k in range(4)
        )


class ChannelAnalysis:
    """Session object caching the inner prior optimizations of one channel.

    Each solved alpha is cached with its report and its E0' slope. Both
    bounds and the critical rate read one solve of ``ALPHA_GRID``: the
    capacity, then the other 99 points as one stack from the capacity prior,
    each of 0.98, 0.96, ..., 0.02 following the point above it, as in a
    sequential chain. E0' is first order in the error of the prior, and a near
    start leaves the last Newton step less of it: the critical rate is E0' at
    alpha = 1/2. Off-grid alpha values are warm-started from the grid only.
    The grid overwrites a grid point that ``mutual_info`` solved before it,
    so no call order moves a bound, the critical rate or a curve row.
    """

    def __init__(self, channel: CQChannel):
        self.channel = channel
        self._mi_cache: dict[float, tuple[OptimizationReport, float]] = {}
        self._grid_rows: list[tuple[OptimizationReport, float]] = []

    # -- inner optimizations -------------------------------------------------

    def _solve(self, alphas, starts, leaders=None) -> None:
        """Solve the (alpha, start) rows, alpha < 1 (``leaders`` as in
        ``maximize_rows``), and cache each (report, E0' slope); raise, caching
        none, if any row did not converge."""
        reports, slopes = _renyi_solve(self.channel, alphas, starts, leaders)
        for alpha, rep in zip(alphas, reports):
            if not rep.converged:
                raise NumericalInstability(f"prior optimization did not converge at alpha={alpha}")
        self._mi_cache.update(zip(alphas, zip(reports, slopes)))

    def _points(self, alphas, starts=None) -> list[tuple[OptimizationReport, float]]:
        """(report, E0' slope) at each alpha in (0, 1]: the cached one, or
        solved from its start prior (by default the uniform one), every fresh
        alpha below 1 in one stack. E0' at alpha = 1 is the capacity."""
        keys = [_check_order(a) for a in alphas]
        if 1.0 in keys and 1.0 not in self._mi_cache:
            rep = holevo_capacity(self.channel)
            if not rep.converged:
                raise NumericalInstability("prior optimization did not converge at alpha=1.0")
            self._mi_cache[1.0] = (rep, rep.value)
        fresh: dict[float, np.ndarray] = {}
        for key, start in zip(keys, starts or [start_point(self.channel.size)] * len(keys)):
            if key not in self._mi_cache:
                fresh.setdefault(key, start)
        if fresh:
            self._solve(list(fresh), list(fresh.values()))
        return [self._mi_cache[key] for key in keys]

    def _grid(self) -> list[tuple[OptimizationReport, float]]:
        """(report, E0' slope) at the ``ALPHA_GRID`` points, in grid order."""
        if not self._grid_rows:
            cap = self._points([1.0])[0]
            down = ALPHA_GRID[-2::-1].tolist()  # 0.99, 0.98, ..., 0.01
            followed = [i - 1 if i % 2 else -1 for i in range(len(down))]
            self._solve(down, [cap[0].prior] * len(down), followed)
            self._grid_rows = [self._mi_cache[alpha] for alpha in ALPHA_GRID[:-1].tolist()] + [cap]
        return self._grid_rows

    def mutual_info(self, alpha: float) -> OptimizationReport:
        """Cached I_alpha(N) report (alpha = 1 gives the capacity report)."""
        return self._points([alpha])[0][0]

    def capacity(self) -> OptimizationReport:
        return self._points([1.0])[0][0]

    # -- exponent machinery ---------------------------------------------------

    def _bound(self, floors, rates) -> list[BoundResult]:
        """Maximum of E0(s) - s r over the grid points alpha at or above the
        floor, refined to the root of E0'(s) = r, at each (floor, r) row of
        ``floors`` and ``rates``.

        The sign of E0' - r at the grid maximum picks the neighbouring cell
        (the objective rises toward larger s where E0' > r), which must not
        leave the floor. If the sign changes across it, a pair search shrinks
        that alpha bracket: each round probes c -/+ ``ALPHA_TOL`` / 4 about a
        center c, and the bracket closes when the pair straddles the root.
        The first center is the inverse cubic interpolation of E0' - r
        through the four grid points around the cell; each later one is the
        secant through the last pair. A center outside the bracket falls
        back to the bracket's Illinois point (regula falsi halving the stale
        end), and every pair is kept inside the bracket. The brackets of all
        rows, of both bound kinds, move in lockstep: each round takes the
        pairs of every open bracket, with their slopes, as one stack
        (``_points``), each probe warm-started from its nearest grid point.
        A probe is cached by alpha, so rows that take the same cell share
        every probe. The value is the best of the grid point and the probes;
        alpha is the end of the final bracket with the smaller |E0' - r|. A
        bound is saturated when its alpha ends within 10 ``ALPHA_TOL`` of
        the sphere-packing floor.
        """
        alphas, grid = ALPHA_GRID, self._grid()
        mis = np.asarray([rep.value for rep, _ in grid])
        slopes = np.asarray([slope for _, slope in grid])
        r = np.asarray(rates, dtype=float)
        lo = np.searchsorted(alphas, floors)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(alphas >= 1.0, 0.0, (1.0 - alphas) / alphas * (mis - r[:, None]))
        vals[np.arange(len(alphas)) < lo[:, None]] = -np.inf
        best = np.argmax(vals, axis=1)
        alpha_star, val_star = alphas[best], vals[np.arange(len(r)), best]
        a, ga = alpha_star.copy(), slopes[best] - r
        other = np.where(ga > 0, best - 1, best + 1)
        inside = (ga != 0.0) & (other >= lo) & (other < len(alphas))
        other = np.clip(other, 0, len(alphas) - 1)
        b = np.where(inside, alphas[other], a)
        gb = np.where(inside, slopes[other] - r, 0.0)
        # a is the retained end, its slope weighted by `stale` (halved each
        # round it is kept) in the Illinois point; b is the latest end.
        stale, opened = np.ones_like(a), ga * gb < 0.0
        cell = np.clip(np.minimum(best, other) - 1, 0, len(alphas) - 4)[:, None] + np.arange(4)
        guess = _inverse_cubic_root(alphas[cell], slopes[cell] - r[:, None])
        delta = ALPHA_TOL / 4.0
        while (live := np.flatnonzero((ga * gb < 0.0) & (np.abs(b - a) > ALPHA_TOL))).size:
            al, bl, gal, gbl, rl = a[live], b[live], ga[live], gb[live], r[live]
            lower, upper = np.minimum(al, bl), np.maximum(al, bl)
            illinois = (al * gbl - bl * gal * stale[live]) / (gbl - gal * stale[live])
            c = np.where((guess[live] > lower) & (guess[live] < upper), guess[live], illinois)
            # A pair that would leave the bracket takes its end, a cached probe.
            pair = np.stack([
                np.clip(c - delta, lower, upper - 2.0 * delta), np.clip(c + delta, lower + 2.0 * delta, upper)
            ])
            starts = [grid[i][0].prior for i in np.argmin(np.abs(pair.reshape(-1, 1) - alphas), axis=1)]
            probes = self._points(pair.ravel().tolist(), starts)
            values = np.array([rep.value for rep, _ in probes]).reshape(pair.shape)
            gp = np.array([slope for _, slope in probes]).reshape(pair.shape) - rl
            val_star[live] = np.maximum(val_star[live], np.max((1.0 - pair) / pair * (values - rl), axis=0))
            closes = gp[0] * gp[1] <= 0.0
            # Otherwise both probes lie on one side of the root, and the one
            # nearer it becomes b. If it shares the sign of b, a is kept and
            # its weight halved; else the old b becomes a.
            inner = (gal * gp[0] > 0.0) == (al < bl)
            xn, gn = np.where(inner, pair[1], pair[0]), np.where(inner, gp[1], gp[0])
            flip = gn * gbl < 0.0
            stale[live] = np.where(closes | flip, 1.0, stale[live] / 2.0)
            a[live] = np.where(closes, pair[0], np.where(flip, bl, al))
            ga[live] = np.where(closes, gp[0], np.where(flip, gbl, gal))
            b[live], gb[live] = np.where(closes, pair[1], xn), np.where(closes, gp[1], gn)
            with np.errstate(divide="ignore", invalid="ignore"):
                guess[live] = pair[0] - gp[0] * (pair[1] - pair[0]) / (gp[1] - gp[0])
        alpha_star = np.where(opened, np.where(np.abs(gb) < np.abs(ga), b, a), alpha_star)
        saturated = alpha_star <= SPHERE_PACKING_ALPHA_MIN + ALPHA_TOL * 10
        return [
            BoundResult(value=float(v), alpha=float(x), saturated=bool(s))
            for v, x, s in zip(val_star, alpha_star, saturated)
        ]

    def lower_bound(self, r: float) -> BoundResult:
        """Achievability (random-coding style) exponent bound at rate r."""
        if not 0 <= r < math.inf:
            raise ValueError(f"rate must be finite and nonnegative, got {r}")
        return self._bound([ACHIEVABILITY_ALPHA_MIN], [r])[0]

    def upper_bound(self, r: float) -> BoundResult:
        """Sphere-packing exponent bound at rate r."""
        if not 0 < r < math.inf:
            raise ValueError(f"rate must be finite and positive, got {r}")
        return self._bound([SPHERE_PACKING_ALPHA_MIN], [r])[0]

    def critical_rate(self) -> float:
        """r_c = E0'(1), the slope of s * I_{1/(1+s)}(N) at s = 1, in closed form
        at the prior maximizing I_{1/2} (Danskin's theorem): the slope of the
        alpha = 1/2 point of the alpha grid, with no solve of its own. E0 is
        nondecreasing in s, so a slope that rounding takes below 0 reads 0."""
        return max(0.0, float(self._grid()[int(np.searchsorted(ALPHA_GRID, 0.5))][1]))

    def reliability(self, r: float) -> ReliabilityResult:
        """Exact exponent for r >= r_c, bounding interval below r_c."""
        if not 0 < r < math.inf:
            raise ValueError(f"rate must be finite and positive, got {r}")
        c = self.capacity().value
        if r >= c:
            raise RateAboveCapacity(f"rate {r} is not below capacity {c}")
        row = self._rows([float(r)], self.critical_rate())[0]
        kind = "exact" if row.equal else "interval"
        return ReliabilityResult(kind=kind, lower=row.lower, upper=row.upper)

    def _rows(self, rates, rc: float) -> tuple[ExponentRow, ...]:
        """Both bounds at each rate, from one search over both floors; at or
        above the critical rate rc they must agree within 1e-7, and the row is
        exact."""
        n = len(rates)
        floors = np.repeat([ACHIEVABILITY_ALPHA_MIN, SPHERE_PACKING_ALPHA_MIN], n)
        bounds = self._bound(floors, np.tile(rates, 2))
        rows = []
        for r, low, up in zip(rates, bounds[:n], bounds[n:]):
            equal = r >= rc - 1e-9
            if equal and abs(low.value - up.value) > 1e-7:
                raise NumericalInstability(
                    f"bounds differ above the critical rate at r={r}: {low.value} vs {up.value}"
                )
            rows.append(ExponentRow(
                rate=float(r), lower=low.value, upper=low.value if equal else up.value, equal=equal,
                alpha_lower=low.alpha, alpha_upper=up.alpha, upper_saturated=up.saturated,
            ))
        return tuple(rows)

    def curve(self, rates) -> ExponentCurve:
        """Exponent bounds on a strictly increasing rate grid inside (0, C)."""
        rates = np.asarray(rates, dtype=float)
        if rates.ndim != 1 or rates.size == 0:
            raise InvalidGrid("rate grid must be a nonempty vector")
        if not np.isfinite(rates).all():
            raise InvalidGrid("rate grid must be finite")
        if np.any(np.diff(rates) <= 0):
            raise InvalidGrid("rate grid must be strictly increasing")
        c = self.capacity().value
        if rates[0] <= 0 or rates[-1] >= c:
            raise InvalidGrid(f"rates must lie strictly inside (0, {c:.6g})")
        rc = self.critical_rate()
        return ExponentCurve(rows=self._rows(rates, rc), critical_rate=rc, capacity=c)


# ---------------------------------------------------------------------------
# Type-restricted channel information.


def _log_factorials(n: int) -> np.ndarray:
    """ln j! for j = 0..n."""
    return np.array([math.lgamma(j + 1.0) for j in range(n + 1)])


def _logsumexp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """ln sum exp x along ``axis``; -inf where every entry is -inf. Overwrites ``x``."""
    top = np.max(x, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    x -= top
    with np.errstate(divide="ignore"):
        return np.log(np.exp(x, out=x).sum(axis=axis)) + np.squeeze(top, axis)


def _pure_pair_log_traces(overlap: complex, ns: np.ndarray, small: np.ndarray, alpha: float) -> np.ndarray:
    """ln tr[rho_T^(1/alpha)] for the classes of two pure letters of
    ``overlap`` <psi_0|psi_1>, one per row: blocklength ``ns``, and ``small``
    = min(k, n - k) for k the count of either letter.

    rho_T has the nonzero spectrum of G_T/|T|, and G_T, a function of the
    Hamming distance alone, lies in the Bose-Mesner algebra of the Johnson
    scheme J(n, k) (Delsarte, Philips Res. Rep. Suppl. 10, 1973). Its
    eigenvalue on the i-th eigenspace, of multiplicity C(n, i) - C(n, i-1),
    i <= min(k, n - k), is the positive sum
    theta_i = (1 - c2)^i sum_m C(k-i, m) C(n-k-i, m) c2^m,
    taken here in log space. Rows of equal (n, min(k, n - k)) are one row,
    and the rows go in stacks of at most ``CHUNK_ENTRIES`` table entries.
    """
    lf = _log_factorials(int(ns.max()))
    span = int(ns.max()) + 1
    keys, back = np.unique(ns * span + small, return_inverse=True)
    c2 = min(float(abs(overlap) ** 2), 1.0)
    with np.errstate(divide="ignore"):
        log_c2, log_s2 = np.log(c2), np.log1p(-c2)
    out = np.empty(len(keys))
    lo = 0
    while lo < len(keys):
        hi, side = lo + 1, keys[lo] % span + 1
        while hi < len(keys) and (hi + 1 - lo) * max(side, keys[hi] % span + 1) ** 2 <= CHUNK_ENTRIES:
            side = max(side, keys[hi] % span + 1)
            hi += 1
        n, k = (keys[lo:hi, None] // span), (keys[lo:hi, None] % span)
        j = np.arange(side)
        a, m = j[:, None], j[None, :]
        with np.errstate(invalid="ignore"):
            tilt = np.where(j == 0, 0.0, j * log_c2), np.where(j == 0, 0.0, j * log_s2)
        # ln C(a, m) C(b, m) c2^m = pair[a, m] + ln b! - ln (b - m)!, b = a + n - 2k
        pair = np.where(m <= a, lf[a] - 2 * lf[m] - lf[np.maximum(a - m, 0)] + tilt[0], -np.inf)
        b = np.minimum(a + (n - 2 * k)[:, :, None], n[:, :, None])  # a > k is never read
        log_sums = _logsumexp(pair + lf[b] - lf[np.maximum(b - m, 0)])  # ln sum_m at a = k - i
        log_theta = tilt[1] + np.take_along_axis(log_sums, np.maximum(k - j, 0), axis=1)
        on = j <= k
        i = np.where(on, j, 0)
        log_mult = lf[n] - lf[i] - lf[n - i] + np.log((n - 2 * i + 1) / (n - i + 1))
        log_count = lf[n] - lf[k] - lf[n - k]
        out[lo:hi] = _logsumexp(np.where(on, log_mult + (log_theta - log_count) / alpha, -np.inf))
        lo = hi
    return out[back]


def _commuting_levels(w: np.ndarray, n_max: int, alpha: float):
    """Yield, for m = 1..``n_max``, the types of blocklength m in ``type_counts``
    order and ln tr[rho_T^(1/alpha)] of the class of each, for commuting
    letters; ``w`` (|X|, d) holds W, the letters' spectra in their common
    eigenbasis.

    rho_T is diagonal there, and its entry g_P(Q) at an output sequence depends
    on the sequence's type Q alone. A share P_x/m of the class ends in letter
    x, so for b the last letter of Q,
    g_P(Q) = sum_x (P_x/m) W(b|x)^alpha g_{P-e_x}(Q-e_b), g = 1 at m = 0, and
    tr[rho_T^(1/alpha)] = sum_Q |T_Q| g_P(Q)^(1/alpha). Level m, every (P, Q)
    cell of blocklength m with its rows P the types that it yields, is built
    once, from level m - 1: |X| terms per cell, in stacks of at most
    ``CHUNK_ENTRIES`` terms, but at least one cell.
    """
    size, d = w.shape
    with np.errstate(divide="ignore"):
        log_w = alpha * np.log(w)
    lf = _log_factorials(n_max)
    log_g = np.zeros((1, 1))  # level 0
    for m in range(1, n_max + 1):
        p, q = type_counts([m], size), type_counts([m], d)
        last = d - 1 - np.argmax(q[:, ::-1] > 0, axis=1)
        # Column Q - e_b of the previous level, then row P - e_x of that (0 where P_x = 0).
        log_g = log_g[:, type_index(q - np.eye(d, dtype=np.int64)[last], m - 1)]
        rows = np.zeros((size, len(p)), dtype=np.int64)
        for x in range(size):
            has = p[:, x] > 0
            rows[x, has] = type_index(p[has] - np.eye(size, dtype=np.int64)[x], m - 1)
        # Stacks of whole P rows, or of Q columns of one row past CHUNK_ENTRIES.
        height, width = max(1, CHUNK_ENTRIES // (size * len(q))), max(1, CHUNK_ENTRIES // size)
        level = np.empty((len(p), len(q)))
        for lo in range(0, len(p), height):
            for left in range(0, len(q), width):
                cols = slice(left, left + width)
                terms = log_g[:, cols][rows[:, lo:lo + height]]
                with np.errstate(divide="ignore"):
                    terms += np.log(p[lo:lo + height].T / m)[:, :, None]
                terms += log_w[:, last[cols]][:, None]
                level[lo:lo + height, cols] = _logsumexp(terms, axis=0)
        log_g = level
        yield p, _logsumexp(lf[m] - lf[q].sum(axis=1) + log_g / alpha)


def _decomposed_trace(channel: CQChannel, t: TypeClass, alpha: float, overlaps, config: RunConfig) -> float:
    """tr[rho_T^(1/a)] from the class's sequences, for letters that neither
    symmetric path takes: the |T| x |T| Gram matrix of pure letters while
    |T| <= d^n, capped at |T|, else the d^n x d^n average, capped at d^n."""
    full_dim = channel.dim ** t.n
    count = t.sequence_count()
    if overlaps is not None and count <= full_dim:
        config.check(count)
        avg = gram_stack(overlaps, np.asarray(list(enumerate_sequences(t)))[None])[0] / count
        return float(np.trace(mat_power(avg, 1.0 / alpha)).real)
    config.check(full_dim)
    powers = letter_powers(channel, alpha)
    avg = np.zeros((full_dim, full_dim), dtype=complex)
    for seq in enumerate_sequences(t):
        avg += tensor_all([powers[x] for x in seq])
    return float(np.trace(mat_power(avg / count, 1.0 / alpha)).real)


def _symmetric_path(channel: CQChannel, overlaps) -> str | None:
    """"pair" for two pure letters, "commuting" for commuting letters, or
    None for letters that the decomposed bodies take."""
    if overlaps is not None and channel.size == 2:
        return "pair"
    return "commuting" if channel.is_classical() else None


def _class_entries(path: str, n: int, size: int, d: int) -> int:
    """Table entries that ``path`` builds for every class of blocklength n:
    a (min(k, n - k) + 1)^2 table of binomial logs per class of two pure
    letters, sum_k (min(k, n - k) + 1)^2 = 2 S(m) - [n even] m^2 with
    m = n // 2 + 1 and S(m) = m (m + 1) (2m + 1) / 6; or, for commuting
    letters, the |X| terms of each (P, Q) cell of level n of the recurrence
    over output positions, C(n + |X| - 1, |X| - 1) input types P by
    C(n + d - 1, d - 1) output types Q."""
    if path == "pair":
        m = n // 2 + 1
        return m * (m + 1) * (2 * m + 1) // 3 - (m * m if n % 2 == 0 else 0)
    return size * type_count(n, size) * type_count(n, d)


def _check_classes(channel: CQChannel, path: str, n: int, counts: np.ndarray, config: RunConfig) -> None:
    """``config.check_classes`` on the classes of the rows of ``counts``, at
    blocklength n: the distinct eigenvalues of the largest class average, and
    the table entries of blocklength n."""
    eigenvalues = int(counts.min(axis=1).max()) + 1 if path == "pair" else type_count(n, channel.dim)
    config.check_classes(eigenvalues, _class_entries(path, n, channel.size, channel.dim))


def _check_class_order(alpha: float) -> float:
    """alpha as a float, if it lies in (0, 2] and is not 1."""
    alpha = check_alpha(alpha, allow_one=False)
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    return alpha


def constant_composition_mi(
    channel: CQChannel, t: TypeClass, alpha: float, config: RunConfig = DEFAULT_CONFIG
) -> float:
    """Per-use Renyi information of the n-fold channel under the uniform
    distribution over the type class of ``t``.

    Evaluates (a/(a-1)) (1/n) log2 tr[rho_T^(1/a)], rho_T the mean over T of
    rho_xn^a. rho_T commutes with every permutation of the n positions, so
    two paths take its spectrum from counts alone, in time polynomial in n,
    and decompose nothing:

    * two pure letters: the Johnson-scheme eigenvalues of the class's Gram
      matrix (``_pure_pair_log_traces``), min(k, n - k) + 1 distinct ones;
    * commuting letters, any |X|: the diagonal of rho_T in the common
      eigenbasis, one value per output type, C(n + d - 1, d - 1) distinct
      ones, read from level n of one recurrence over output positions
      (``_commuting_levels``), which builds each level up to n once.

    ``config.check_classes`` caps both paths before they build anything:
    ``max_sim_dim`` bounds the distinct eigenvalues of the class average, and
    ``MAX_CLASS_ENTRIES`` the table entries of blocklength n, those of its
    classes or of level n of the recurrence (``_class_entries``), which
    bounds the work at n whatever ``max_sim_dim`` is. Other pure letters
    take the |T| x |T| Gram matrix of the class of ``t`` alone while
    |T| <= d^n, capped at |T|; everything else takes its d^n x d^n average,
    capped at d^n; both are also held to ``MAX_TENSOR_DIM`` before any of it
    is built.

    A class of one sequence is exactly 0 on every path, with nothing built:
    its average is a product state, and tr[(rho_xn^a)^(1/a)] = 1.
    """
    if t.alphabet_size != channel.size:
        raise InvalidGrid(f"type alphabet {t.alphabet_size} != channel alphabet {channel.size}")
    alpha = _check_class_order(alpha)
    if max(t.counts) == t.n:
        return 0.0
    overlaps = pure_letter_overlaps(channel)
    path = _symmetric_path(channel, overlaps)
    counts = np.array([t.counts])
    if path is not None:
        _check_classes(channel, path, t.n, counts, config)
    if path == "pair":
        log_trace = _pure_pair_log_traces(overlaps[0, 1], np.array([t.n]), counts.min(axis=1), alpha)[0]
    elif path == "commuting":
        for _, log_traces in _commuting_levels(channel.induced_stochastic_matrix(), t.n, alpha):
            pass
        log_trace = log_traces[type_index(counts, t.n)[0]]
    else:
        log_trace = math.log(_decomposed_trace(channel, t, alpha, overlaps, config))
    # + 0.0 turns a -0.0 (trace exactly 1) into 0.0.
    return float(alpha / (alpha - 1.0) / t.n * log_trace / LN_BASE + 0.0)


def _best_types(
    channel: CQChannel, blocklengths, alpha: float, config: RunConfig
) -> list[tuple[TypeClass, float]]:
    """The type maximizing the constant-composition information at each of
    the increasing ``blocklengths``, the first in ``type_counts`` order among
    equal values. On a symmetric path the caps are checked at the largest
    blocklength before any type is built. The values then come one
    blocklength at a time: a level of the one run of the commuting
    recurrence as the run passes it, a slice of one stack of every type for
    two pure letters, or each class of one blocklength for other letters.
    Only the winners become ``TypeClass`` objects.
    """
    alpha = _check_class_order(alpha)
    n_max, size = max(blocklengths, default=0), channel.size
    if n_max < 2 or size < 2:  # every class is one sequence: the first type of each n wins with 0
        return [(TypeClass(n, (n,) + (0,) * (size - 1)), 0.0) for n in blocklengths]
    overlaps = pure_letter_overlaps(channel)
    path = _symmetric_path(channel, overlaps)
    if path is not None:
        balanced = np.array([[n_max // size + (x < n_max % size) for x in range(size)]])
        _check_classes(channel, path, n_max, balanced, config)
    if path == "commuting":
        levels = _commuting_levels(channel.induced_stochastic_matrix(), n_max, alpha)
        levels = (level for m, level in enumerate(levels, start=1) if m in blocklengths)
    elif path == "pair":
        sizes = [n + 1 for n in blocklengths]
        counts = type_counts(blocklengths, size)
        log_traces = _pure_pair_log_traces(overlaps[0, 1], np.repeat(blocklengths, sizes), counts.min(axis=1), alpha)
        ends = np.cumsum(sizes)[:-1]
        levels = zip(np.split(counts, ends), np.split(log_traces, ends))
    else:
        def decomposed(n: int):
            counts = type_counts([n], size)
            return counts, np.array([
                math.log(_decomposed_trace(channel, TypeClass(n, tuple(row)), alpha, overlaps, config))
                if max(row) < n else 0.0
                for row in counts.tolist()
            ])

        levels = map(decomposed, blocklengths)
    out = []
    for n, (counts, log_traces) in zip(blocklengths, levels):
        values = np.where(counts.max(axis=1) == n, 0.0, alpha / (alpha - 1.0) / n * log_traces / LN_BASE + 0.0)
        best = int(np.argmax(values))
        out.append((TypeClass(n, tuple(counts[best].tolist())), float(values[best])))
    return out


def best_type(
    channel: CQChannel, n: int, alpha: float, config: RunConfig = DEFAULT_CONFIG
) -> tuple[TypeClass, float]:
    """Type of blocklength n maximizing the constant-composition information."""
    return _best_types(channel, [n], alpha, config)[0]


def best_type_up_to(
    channel: CQChannel, n_max: int, alpha: float, config: RunConfig = DEFAULT_CONFIG
) -> list[tuple[int, TypeClass, float]]:
    """Running best over blocklengths m <= n, one row per n in 1..n_max.

    The exact per-blocklength maximum oscillates with parity (a balanced
    composition may not exist at odd n), so reports expose the best value
    achieved by any blocklength up to n; this sequence is non-decreasing
    and still converges to I_alpha(N) from below.
    """
    rows: list[tuple[int, TypeClass, float]] = []
    best_t: TypeClass | None = None
    best_v = -math.inf
    for n, (t, v) in enumerate(_best_types(channel, range(1, n_max + 1), alpha, config), start=1):
        if v > best_v:
            best_t, best_v = t, v
        rows.append((n, best_t, best_v))
    return rows
