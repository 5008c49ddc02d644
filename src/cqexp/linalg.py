"""Exact dense Hermitian linear algebra on finite-dimensional spaces.

Matrices are plain complex ``numpy`` arrays; the helpers here implement
the operations everything else is built from: eigendecompositions,
fractional powers on supports, tensor products, the product Gram matrices
and output-sequence tables of blocklength n, partial traces and
classical-quantum state assembly. ``CQChannel`` checks and repairs letters.

Functions of a PSD matrix act on the support that ``_support_clip`` cuts,
through ``spectral_map``; both take stacks, so a channel's letters are
decomposed and cut once, when the channel is built (``CQChannel.spectra``).

Every function is pure; composite results are re-Hermitized to suppress
floating-point drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import LN_BASE, MAX_TENSOR_DIM, PSD_TOL, SUPPORT_CUTOFF, format_dim
from .errors import DimensionError, InvalidOperator, NotPSD, TooLarge


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dagger)/2 of a matrix or of each matrix of a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


def is_hermitian(a: np.ndarray) -> bool:
    scale = max(1.0, float(np.abs(a).max())) if a.size else 1.0
    return bool(np.abs(a - a.conj().T).max() <= 1e-10 * scale)


def herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues in descending order, matching orthonormal
    eigenvector columns). Raises InvalidOperator when the input is not
    Hermitian within tolerance.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InvalidOperator(f"expected a square matrix, got shape {h.shape}")
    if not is_hermitian(h):
        raise InvalidOperator("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(hermitize(h))
    return w[::-1].copy(), v[:, ::-1].copy()


def _support_clip(w: np.ndarray) -> np.ndarray:
    """Zero eigenvalues (last axis) at or below SUPPORT_CUTOFF times the largest, and negative ones."""
    cut = SUPPORT_CUTOFF * np.max(w, axis=-1, keepdims=True, initial=0.0)
    return np.where(w > cut, w, 0.0)


def spectral_map(w: np.ndarray, v: np.ndarray, fn) -> np.ndarray:
    """U f(lambda) U^dagger of cut eigenvalues ``w`` and eigenvectors ``v`` (or
    stacks of them), with ``fn`` applied on the support w > 0 and 0 elsewhere.

    ``fn`` receives the whole eigenvalue array, 1 off the support, and may
    broadcast it to more leading axes: a stack of K functions, such as
    lambda^alpha for K values of alpha, gives a stack of K results."""
    on = w > 0
    fw = np.where(on, fn(np.where(on, w, 1.0)), 0.0)
    return hermitize((v * fw[..., None, :]) @ v.conj().swapaxes(-1, -2))


def mat_power(a: np.ndarray, t: float) -> np.ndarray:
    """Fractional power of a PSD matrix, taken on its support.

    Eigenvalues below the relative cutoff are treated as exactly zero and
    mapped to zero even for negative exponents. Raises NotPSD when an
    eigenvalue falls below the negativity tolerance.
    """
    w, v = herm_eig(a)
    scale = max(1.0, float(w.max())) if w.size else 1.0
    if w.size and float(w.min()) < -PSD_TOL * scale:
        raise NotPSD(f"matrix has eigenvalue {w.min():.3e} below tolerance")
    return spectral_map(_support_clip(w), v, lambda x: x ** t)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def tensor_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker chain over a nonempty sequence of matrices.

    The result dimension is capped at ``MAX_TENSOR_DIM`` because chained
    products grow exponentially.
    """
    total = 1
    for m in mats:
        total *= np.asarray(m).shape[0]
    if total > MAX_TENSOR_DIM:
        raise TooLarge(f"tensor chain dimension {format_dim(total)} exceeds cap {MAX_TENSOR_DIM}")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def gram_stack(overlaps: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(B, M, M) Gram matrices G[b, m, m'] = prod_i O[w_bm,i, w_bm',i] of a (B, M, n) letter
    stack, O the overlap table of pure letters (``channel.pure_letter_overlaps``)."""
    books, size, n = words.shape
    g = np.ones((books, size, size), dtype=complex)
    for i in range(n):
        col = words[:, :, i]
        g *= overlaps[col[:, :, None], col[:, None, :]]
    return g


def _sequence_table(w: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(B, M, d^n) Kronecker products of rows of ``w`` along a (B, M, n) letter stack.

    Row (b, m) is w[x_1] (x) ... (x) w[x_n] for codeword m of codebook b: with
    w a stochastic matrix, the output-sequence probabilities of that codeword.
    It is built one position at a time for the whole stack at once: step i
    writes column k * d + y of the next table as column k of the last one
    times w[x_i, y], one multiply over all k per output letter y.
    """
    books, size, n = words.shape
    d = w.shape[1]
    q = w[words[:, :, 0]]
    for i in range(1, n):
        step = w[words[:, :, i]]
        new = np.empty(q.shape + (d,), dtype=q.dtype)
        for y in range(d):
            np.multiply(q, step[:, :, y, None], out=new[..., y])
        q = new.reshape(books, size, -1)
    return q


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    ``dims`` lists the factor dimensions; their product must equal the
    matrix dimension. Kept factors stay in their original relative order.
    """
    m = np.asarray(m, dtype=complex)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise DimensionError(f"dims {dims} do not factor a {m.shape} matrix")
    keep = sorted(set(int(i) for i in keep))
    if any(i < 0 or i >= len(dims) for i in keep):
        raise DimensionError(f"keep indices {keep} out of range for {len(dims)} factors")
    k = len(dims)
    work = m.reshape(dims + dims)
    traced = [i for i in range(k) if i not in keep]
    remaining = k
    for i in reversed(traced):
        work = np.trace(work, axis1=i, axis2=i + remaining)
        remaining -= 1
    kept_dim = int(np.prod([dims[i] for i in keep])) if keep else 1
    return work.reshape(kept_dim, kept_dim)


def permute_systems(m: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors: factor ``perm[i]`` of the input becomes factor ``i``."""
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise DimensionError(f"dims {dims} do not factor a {m.shape} matrix")
    k = len(dims)
    perm = list(perm)
    if sorted(perm) != list(range(k)):
        raise DimensionError(f"perm {perm} is not a permutation of {k} factors")
    work = m.reshape(dims + dims)
    work = work.transpose(perm + [p + k for p in perm])
    new_dims = [dims[p] for p in perm]
    return work.reshape(int(np.prod(new_dims)), int(np.prod(new_dims)))


def validate_prior(p, size: int | None = None) -> np.ndarray:
    """Check a probability vector (finite, nonnegative, sums to one)."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise InvalidOperator(f"prior must be a vector, got shape {p.shape}")
    if size is not None and p.shape[0] != size:
        raise DimensionError(f"prior length {p.shape[0]} != alphabet size {size}")
    if not np.isfinite(p).all():
        raise InvalidOperator(f"prior has a non-finite weight: {p.tolist()}")
    if float(p.min(initial=0.0)) < -PSD_TOL:
        raise InvalidOperator(f"prior has negative weight {p.min():.3e}")
    if abs(float(p.sum()) - 1.0) > PSD_TOL:
        raise InvalidOperator(f"prior sums to {p.sum()}, expected 1")
    return np.clip(p, 0.0, None)


@dataclass(frozen=True)
class CQState:
    """Classical-quantum state: classical weights with one output block each.

    Represents sum_x p_x |x><x| (x) rho_x without materializing the block
    diagonal unless asked to.
    """

    prior: np.ndarray
    states: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        p = validate_prior(self.prior, size=len(self.states))
        object.__setattr__(self, "prior", p)
        dims = {s.shape for s in self.states}
        if len(dims) != 1:
            raise DimensionError(f"CQ blocks have mixed dimensions {dims}")

    @property
    def alphabet_size(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    @property
    def blocks(self) -> tuple[tuple[float, np.ndarray], ...]:
        return tuple((float(w), s) for w, s in zip(self.prior, self.states))

    def to_matrix(self) -> np.ndarray:
        """Block-diagonal matrix on the (classical x quantum) product space."""
        k, d = self.alphabet_size, self.dim
        out = np.zeros((k * d, k * d), dtype=complex)
        for x, (w, s) in enumerate(zip(self.prior, self.states)):
            out[x * d:(x + 1) * d, x * d:(x + 1) * d] = w * s
        return out

    def b_marginal(self) -> np.ndarray:
        """Reduced state on the quantum factor: sum_x p_x rho_x."""
        return hermitize(sum(w * s for w, s in zip(self.prior, self.states)))


def cq_state(channel, prior) -> CQState:
    """Assemble the joint classical-quantum state of a channel and a prior."""
    p = validate_prior(prior, size=channel.size)
    return CQState(prior=p, states=tuple(channel.outputs))


def spectral_entropy(w: np.ndarray) -> np.ndarray:
    """Entropy in bits of cut spectra (last axis), clamped to [0, log2 d]."""
    h = -(w * np.log(np.where(w > 0, w, 1.0))).sum(axis=-1) / LN_BASE
    return np.clip(h, 0.0, np.log(w.shape[-1]) / LN_BASE)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum lambda log2 lambda in bits, with 0 log 0 = 0."""
    w = np.linalg.eigvalsh(hermitize(np.asarray(rho, dtype=complex)))
    return float(spectral_entropy(_support_clip(w)))


def log_base_psd(a: np.ndarray) -> np.ndarray:
    """Matrix log (base LOG_BASE) of a PSD matrix, restricted to its support."""
    w, v = herm_eig(a)
    return spectral_map(_support_clip(w), v, lambda x: np.log(x) / LN_BASE)
