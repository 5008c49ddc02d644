"""Petz Renyi divergence and the Renyi mutual-information family.

Conventions:
  * order ``alpha`` lives in [0, 2]; the formulas are singular at
    ``alpha = 1``, which is served by a dedicated von Neumann path rather
    than a numerical limit;
  * all values are in bits;
  * fractional powers act on supports only;
  * a violated support condition yields an infinite divergence value
    instead of an exception, so sweeps over alpha stay total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import LN_BASE, SUPPORT_CONTAINMENT_TOL
from .errors import DimensionError, InfiniteDivergence
from .linalg import (
    CQState,
    herm_eig,
    hermitize,
    log_base_psd,
    mat_power,
    partial_trace,
    spectral_entropy,
    spectral_map,
    tensor,
    validate_prior,
    von_neumann_entropy,
)


def check_alpha(alpha: float, *, hi: float = 2.0, allow_one: bool = True) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= hi:
        raise ValueError(f"alpha must lie in [0.0, {hi}], got {alpha}")
    if not allow_one and alpha == 1.0:
        raise ValueError("alpha = 1 is not valid for this operation")
    return alpha


@dataclass(frozen=True)
class DivergenceResult:
    """Divergence value in bits; ``finite`` is False for support violations."""

    value: float
    finite: bool = True

    @staticmethod
    def infinite() -> "DivergenceResult":
        return DivergenceResult(value=math.inf, finite=False)


def _kernel_projector(sigma: np.ndarray) -> np.ndarray | None:
    """Projector onto the kernel of a PSD matrix, or None for full support."""
    w, v = herm_eig(sigma)
    top = max(float(w.max()), 0.0) if w.size else 0.0
    cut = SUPPORT_CONTAINMENT_TOL * max(top, 1e-300)
    ker = w <= cut
    if not ker.any():
        return None
    vk = v[:, ker]
    return vk @ vk.conj().T


def support_contained(rho: np.ndarray, sigma: np.ndarray) -> bool:
    """Whether supp(rho) is contained in supp(sigma), up to eigen-cutoff."""
    proj = _kernel_projector(sigma)
    if proj is None:
        return True
    leak = float(np.trace(proj @ rho).real)
    return leak <= SUPPORT_CONTAINMENT_TOL * max(1.0, float(np.trace(rho).real))


def quantum_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> DivergenceResult:
    """tr rho (log2 rho - log2 sigma), infinite on support violation."""
    if not support_contained(rho, sigma):
        return DivergenceResult.infinite()
    w, _ = herm_eig(rho)
    w = np.clip(w, 0.0, None)
    on = w > 0
    ent = float((w[on] * np.log(w[on])).sum() / LN_BASE)
    cross = float(np.trace(rho @ log_base_psd(sigma)).real)
    return DivergenceResult(value=ent - cross)


def petz_divergence(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> DivergenceResult:
    """Petz Renyi divergence (1/(alpha-1)) log2 tr[rho^a sigma^(1-a)].

    ``sigma`` may be subnormalized; ``rho`` is expected to be a state.
    """
    alpha = check_alpha(alpha)
    if alpha == 1.0:
        return quantum_relative_entropy(rho, sigma)
    if not support_contained(rho, sigma):
        return DivergenceResult.infinite()
    overlap = float(np.trace(mat_power(rho, alpha) @ mat_power(sigma, 1.0 - alpha)).real)
    if overlap <= 0.0:
        return DivergenceResult.infinite()
    return DivergenceResult(value=math.log(overlap) / ((alpha - 1.0) * LN_BASE))


def _as_bipartite(rho, dims) -> tuple[np.ndarray, tuple[int, int]]:
    if isinstance(rho, CQState):
        return rho.to_matrix(), (rho.alphabet_size, rho.dim)
    if dims is None:
        raise DimensionError("bipartite dims (dA, dB) are required for raw matrices")
    da, db = int(dims[0]), int(dims[1])
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (da * db, da * db):
        raise DimensionError(f"state of shape {rho.shape} does not match dims {(da, db)}")
    return rho, (da, db)


def sibson_minimizer(rho_ab, tau_a: np.ndarray, alpha: float, dims=None) -> np.ndarray:
    """The unique state on B minimizing D_alpha(rho_AB || tau_A (x) sigma_B).

    Closed form: normalize (tr_A tau_A^(1-a) rho_AB^a)^(1/a). Raises
    InfiniteDivergence when supp(rho_A) is not contained in supp(tau_A).
    Requires alpha in (0, 2].
    """
    alpha = check_alpha(alpha)
    if alpha <= 0.0:
        raise ValueError("alpha must be positive for the minimizer")
    rho, (da, db) = _as_bipartite(rho_ab, dims)
    rho_a = partial_trace(rho, [da, db], keep=[0])
    if not support_contained(rho_a, tau_a):
        raise InfiniteDivergence("supp(rho_A) not contained in supp(tau_A)")
    if alpha == 1.0:
        return partial_trace(rho, [da, db], keep=[1])
    half = tensor(mat_power(tau_a, (1.0 - alpha) / 2.0), np.eye(db))
    core = hermitize(half @ mat_power(rho, alpha) @ half)
    reduced = hermitize(partial_trace(core, [da, db], keep=[1]))
    powered = mat_power(reduced, 1.0 / alpha)
    norm = float(np.trace(powered).real)
    if norm <= 0.0:
        raise InfiniteDivergence("degenerate minimizer: zero normalization")
    return powered / norm


def renyi_mutual_info_state(rho_ab, tau_a: np.ndarray, alpha: float, dims=None) -> float:
    """min over sigma_B of D_alpha(rho_AB || tau_A (x) sigma_B), in bits."""
    alpha = check_alpha(alpha)
    rho, (da, db) = _as_bipartite(rho_ab, dims)
    sigma = sibson_minimizer(rho, tau_a, alpha, dims=(da, db))
    return petz_divergence(rho, tensor(tau_a, sigma), alpha).value


def conditional_renyi_up(rho_ab, alpha: float, dims=None) -> float:
    """H^up_alpha(A|B) = -min_sigma D_alpha(rho_AB || 1_A (x) sigma_B).

    Computed in closed form as (a/(1-a)) log2 tr[(tr_A rho_AB^a)^(1/a)].
    Requires alpha in (0,1) or (1,2].
    """
    alpha = check_alpha(alpha, allow_one=False)
    if alpha <= 0.0:
        raise ValueError("alpha must be positive for the conditional entropy")
    rho, (da, db) = _as_bipartite(rho_ab, dims)
    reduced = hermitize(partial_trace(mat_power(rho, alpha), [da, db], keep=[1]))
    total = float(np.trace(mat_power(reduced, 1.0 / alpha)).real)
    return alpha / (1.0 - alpha) * math.log(total) / LN_BASE


def _per_row(alpha, axes: int):
    """One order as a float, or a vector of K orders as a (K, 1, ..., 1) array
    with ``axes`` unit axes, to broadcast against K stacked rows."""
    if np.ndim(alpha) == 0:
        return float(alpha)
    return np.asarray(alpha, dtype=float).reshape((-1,) + (1,) * axes)


def letter_powers(channel, alpha) -> np.ndarray:
    """rho_x^alpha on each letter's support, from ``channel.spectra``: (|X|, d, d)
    for one alpha, (K, |X|, d, d) for a vector of K."""
    a = _per_row(alpha, 2)
    return spectral_map(*channel.spectra, lambda w: w ** a)


def letter_power_logs(channel, alpha) -> np.ndarray:
    """rho_x^alpha log2 rho_x on each letter's support, shaped as ``letter_powers``."""
    a = _per_row(alpha, 2)
    return spectral_map(*channel.spectra, lambda w: w ** a * np.log(w) / LN_BASE)


def holevo_information(channel, prior) -> float:
    """Holevo quantity S(sum p_x rho_x) - sum p_x S(rho_x), in bits."""
    p = validate_prior(prior, size=channel.size)
    avg = hermitize(np.einsum("m,mij->ij", p, channel.outputs))
    mix = von_neumann_entropy(avg)
    return mix - float(p @ spectral_entropy(channel.spectra[0]))


def renyi_mi_channel_prior(channel, prior, alpha: float) -> float:
    """Channel Renyi mutual information I_alpha(N, p) in bits.

    Closed form (a/(a-1)) log2 tr[(sum_x p_x rho_x^a)^(1/a)] for
    alpha != 1; the alpha = 1 path returns the Holevo quantity.
    """
    alpha = check_alpha(alpha)
    if alpha <= 0.0:
        raise ValueError("alpha must be positive for the channel information")
    p = validate_prior(prior, size=channel.size)
    if alpha == 1.0:
        return holevo_information(channel, p)
    avg = np.einsum("m,mij->ij", p, letter_powers(channel, alpha))
    total = (np.clip(np.linalg.eigvalsh(avg), 0.0, None) ** (1.0 / alpha)).sum()
    return float(alpha / (alpha - 1.0) * np.log(total) / LN_BASE)
