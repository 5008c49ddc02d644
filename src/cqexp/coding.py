"""Desk-scale channel-coding simulation with exact error probabilities.

Codebooks are drawn at random (i.i.d. or constant-composition), decoded
with the pretty-good (square-root) measurement, and every error
probability is exact: no Monte-Carlo sampling of outcomes.

``estimate_exponent`` draws all codebooks of one blocklength into one
(B, M, n) letter array and evaluates the PGM error on one of three paths,
chosen by the channel's structure:

* **diagonal**, for commuting letters: a stack of (M, d^n) tables of
  output-sequence probabilities, one per codebook, gives both the PGM
  error and the exact maximum-likelihood error;
* **Gram**, for pure letters rho_x = |psi_x><psi_x| while M <= d^n: a stack
  of M x M Gram matrices of the codeword vectors, decomposed by one batched
  ``eigh``, replaces the d^n x d^n codeword states;
* **dense**, for every other channel, and for pure letters when M > d^n:
  codeword states of dimension d^n, one codebook at a time.

The stacked paths run in chunks of at most ``CHUNK_ENTRIES`` table or Gram
entries, so memory stays that of a few small codebooks; a codebook larger
than that is a chunk of its own. ``pgm_decoder``/``average_error`` build the
measurement itself and stay the reference that every fast path is checked
against. ``RunConfig.check`` holds each blocklength to its caps before the
codebooks are drawn: ``max_sim_dim`` bounds the matrix that is decomposed,
M on the Gram path and d^n on the other two (so min(M, d^n) for pure
letters), and ``MAX_TENSOR_DIM`` bounds it too on the Gram and dense paths.
M itself is held to ``MAX_TENSOR_DIM`` on every path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from typing import Sequence

import numpy as np

from .analysis import ChannelAnalysis
from .channel import CQChannel, pure_letter_overlaps
from .config import CHUNK_ENTRIES, DEFAULT_CONFIG, LN_BASE, MAX_TENSOR_DIM, RunConfig
from .errors import DimensionError, NotClassical, TooLarge
from .linalg import (
    _sequence_table, _support_clip, gram_stack, herm_eig, hermitize, spectral_map, tensor_all,
)
from .typeclasses import TypeClass, nearest_type


@dataclass(frozen=True)
class IID:
    """Codeword letters drawn independently from a prior."""

    prior: np.ndarray


@dataclass(frozen=True)
class ConstantComposition:
    """Codewords drawn uniformly from one type class."""

    composition: TypeClass


@dataclass(frozen=True)
class Codebook:
    n: int
    codewords: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1 or not self.codewords:
            raise ValueError("codebook needs n >= 1 and at least one codeword")
        for cw in self.codewords:
            if len(cw) != self.n:
                raise ValueError(f"codeword {cw} does not have length {self.n}")

    @property
    def size(self) -> int:
        return len(self.codewords)

    @property
    def rate(self) -> float:
        return math.log(self.size) / (self.n * LN_BASE)


@dataclass(frozen=True)
class POVM:
    """Measurement: PSD elements summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("POVM needs at least one element")
        dim = self.elements[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for el in self.elements:
            if el.shape != (dim, dim):
                raise DimensionError("POVM elements have mixed dimensions")
            w = np.linalg.eigvalsh(hermitize(el))
            if float(w.min()) < -1e-10:
                raise ValueError(f"POVM element has eigenvalue {w.min():.3e}")
            total += el
        gap = np.linalg.eigvalsh(hermitize(total) - np.eye(dim))
        if float(np.abs(gap).max()) > 1e-8:
            raise ValueError("POVM elements do not sum to the identity")

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


@dataclass(frozen=True)
class ErrorReport:
    pe: float
    per_message: tuple[float, ...]
    n: int
    size: int


@dataclass(frozen=True)
class TrialRecord:
    n: int
    trial: int
    mode: str  # "iid" | "cc"
    pe: float
    ml_pe: float | None = None


@dataclass(frozen=True)
class ExponentEstimate:
    n: int
    size: int
    best_pe: float
    mean_pe: float
    implied_exponent: float
    # The PGM error of each codebook drawn at this blocklength, codebook
    # b = 2 * trial + mode (mode 0 i.i.d., 1 constant-composition), and its
    # exact ML error on commuting channels (None elsewhere); empty when M = 1.
    pgm_errors: tuple[float, ...] = ()
    ml_errors: tuple[float, ...] | None = None

    @property
    def trials(self) -> tuple[TrialRecord, ...]:
        """One :class:`TrialRecord` per codebook, built when read."""
        mls = self.ml_errors or (None,) * len(self.pgm_errors)
        return tuple(
            TrialRecord(n=self.n, trial=b // 2, mode=("iid", "cc")[b % 2], pe=pe, ml_pe=ml)
            for b, (pe, ml) in enumerate(zip(self.pgm_errors, mls))
        )


def _seed_words(seed) -> np.ndarray:
    """The uint32 entropy words that ``np.random.SeedSequence`` reads from ``seed``.

    ``seed`` is a non-negative integer, a sequence of them, or a uint32
    array, which is already its words. Each integer gives its 32-bit words,
    low word first (0 gives one zero word), and the words of a sequence
    follow each other, so ``SeedSequence`` of the result seeds the same
    stream as ``SeedSequence(seed)``.
    """
    if isinstance(seed, np.ndarray) and seed.dtype == np.uint32:
        return seed
    if isinstance(seed, (int, np.integer)):
        entries = (seed,)
    elif isinstance(seed, (list, tuple, np.ndarray)):
        entries = seed
    else:
        raise TypeError(f"seed must be a non-negative integer or a sequence of them, got {seed!r}")
    words = []
    for value in entries:
        if not isinstance(value, (int, np.integer)):
            raise TypeError(f"seed entries must be integers, got {value!r}")
        value = int(value)
        if value < 0:
            raise ValueError(f"expected non-negative integer seed entries, got {value}")
        words.append(value & 0xFFFFFFFF)
        value >>= 32
        while value:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
    return np.array(words, dtype=np.uint32)


# The hash constants of numpy's ``SeedSequence`` (NumPy's bit_generator.pyx):
# hashmix multipliers of pool mixing (A) and of state generation (B), and the
# two multipliers of ``mix``.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4  # SeedSequence's default pool size, in words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^k mod 2^32 for k = 0..count: the constant that each of ``count``
    hashmix calls in a row reads, and the one after the last."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


def _hashmix(value: np.ndarray, const: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of uint32 ``value`` rows with a column of constants,
    one more than rows: row i is xored with constant i and multiplied by constant i + 1."""
    value = (value ^ const[:-1]) * const[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> 16)


def _seed_states(words: np.ndarray) -> np.ndarray:
    """(B, 4) uint64: ``SeedSequence(row).generate_state(4, np.uint64)`` for each row of a
    (B, L) uint32 word stack, in one pass over the stack.

    The pool of 4 words takes the hashmix of the first 4 words (0 for a
    missing word, which is zero-padding), then each pool word mixes in the
    hashmix of every other one, then the hashmix of each word past the
    fourth; state word j is the B-hashmix of pool word j mod 4, and pairs
    of words are read as little-endian uint64s. Every hashmix call takes
    the next constant of its chain, as ``SeedSequence`` does. The work runs
    on (word, B) rows, so every step is one operation over all B streams.
    """
    books, length = words.shape
    entropy = np.zeros((max(length, _POOL), books), dtype=np.uint32)
    entropy[:length] = words.T
    const = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(length - _POOL, 0))[:, None]
    pool = _hashmix(entropy[:_POOL], const[:_POOL + 1])
    k = _POOL
    for src in range(_POOL):  # pool word src into every other pool word, in order
        hashed = _hashmix(pool[src], const[k:k + _POOL])
        pool[:src] = _mix(pool[:src], hashed[:src])
        pool[src + 1:] = _mix(pool[src + 1:], hashed[src:])
        k += _POOL - 1
    for src in range(_POOL, length):
        pool = _mix(pool, _hashmix(entropy[src], const[k:k + _POOL + 1]))
        k += _POOL
    state = _hashmix(np.concatenate((pool, pool)), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)[:, None])
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@cache
def _seed_state_type() -> type:
    """numpy's ``ISeedSequence`` for one precomputed state row.

    ``PCG64`` seeds itself from ``generate_state(4, np.uint64)`` of its
    seed sequence; this one returns its row, so numpy does the PCG64
    seeding itself. Defined on first use, so ``import cqexp`` does not load
    ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError(f"a seed state holds 4 uint64 words, not {n_words} of {dtype}")
            return self.state

    return SeedState


def _draw_words(alphabet_size: int, n: int, size: int, mode, keys: np.ndarray) -> np.ndarray:
    """(B, size, n) letters: one random codebook per row of ``keys``, each from its own stream.

    ``keys`` is a (B, L) uint32 stack of ``SeedSequence`` words (see
    ``_seed_words``), and codebook b is drawn from
    ``Generator(PCG64(SeedSequence(keys[b])))``, the stream of
    ``np.random.default_rng(keys[b])``. cqexp computes the ``SeedSequence``
    states of all rows itself, in one pass (``_seed_states``), and hands each
    to numpy's ``PCG64`` through numpy's ``ISeedSequence`` interface; numpy
    seeds PCG64 and draws. The streams are those of numpy's stream policy
    (NEP 19), and the tests compare states and draws against numpy's own
    ``SeedSequence``.

    * i.i.d.: letter (m, i) is the inverse CDF of the prior (negative
      weights clipped to 0, then normalised) at draw (m, i) of the stream's
      ``random((size, n))``. One ``searchsorted`` serves the whole stack.
    * constant-composition: codeword m is row m of the stream's
      ``permuted`` of the (size, n) array whose rows are the sorted type,
      so each row is an independent uniform permutation.

    The prior and the composition are checked before any stream is built.
    """
    if size < 1 or n < 1:
        raise ValueError("need size >= 1 and n >= 1")
    if isinstance(mode, IID):
        prior = np.asarray(mode.prior, dtype=float)
        if prior.shape != (alphabet_size,):
            raise DimensionError(f"prior length {prior.shape} != alphabet {alphabet_size}")
        prior = np.clip(prior, 0.0, None)
        total = prior.sum()
        if not (np.isfinite(total) and total > 0.0):
            raise ValueError(f"prior must be finite with a positive weight, got {mode.prior!r}")
        cdf = np.cumsum(prior / total)
        cdf /= cdf[-1]
    elif isinstance(mode, ConstantComposition):
        t = mode.composition
        if t.n != n:
            raise ValueError(f"composition blocklength {t.n} != n {n}")
        if t.alphabet_size != alphabet_size:
            raise DimensionError("composition alphabet does not match")
        rows = np.broadcast_to(np.repeat(np.arange(alphabet_size), t.counts), (size, n))
    else:
        raise TypeError(f"unknown codebook mode {mode!r}")
    states = _seed_states(keys)
    # numpy loads np.random on first use; looked up here, it stays out of `import cqexp`.
    rnd, seeded = np.random, _seed_state_type()
    # One stream at a time: a stream lives only while it fills its codebook.
    streams = (rnd.Generator(rnd.PCG64(seeded(state))) for state in states)
    if isinstance(mode, IID):
        u = np.empty((len(states), size, n))
        for book, rng in zip(u, streams):
            rng.random(out=book)
        return cdf.searchsorted(u, side="right")
    words = np.empty((len(states), size, n), dtype=np.intp)
    for book, rng in zip(words, streams):
        rng.permuted(rows, axis=1, out=book)
    return words


def _as_codebook(words: np.ndarray) -> Codebook:
    return Codebook(n=words.shape[1], codewords=tuple(map(tuple, words.tolist())))


def generate_codebook(alphabet_size: int, n: int, size: int, mode, seed) -> Codebook:
    """Random codebook, deterministic given the seed; duplicates allowed."""
    return _as_codebook(_draw_words(alphabet_size, n, size, mode, _seed_words(seed)[None])[0])


def codeword_state(channel: CQChannel, codeword: Sequence[int]) -> np.ndarray:
    """Joint output state of one codeword: the tensor chain of letters."""
    return tensor_all([channel.outputs[x] for x in codeword])


def pgm_decoder(channel: CQChannel, codebook: Codebook, config: RunConfig = DEFAULT_CONFIG) -> POVM:
    """Pretty-good measurement for the codeword states.

    Elements are S^(-1/2) rho_m S^(-1/2) with S the codeword-state sum and
    the inverse square root taken on supp(S). The projector onto ker(S) is
    added to the first element so the POVM is complete; codeword states
    carry no weight there, so per-message errors are unaffected.
    """
    dim = config.check(channel.dim ** codebook.n)
    states = [codeword_state(channel, cw) for cw in codebook.codewords]
    total = hermitize(reduce(np.add, states, np.zeros((dim, dim), dtype=complex)))
    w, v = herm_eig(total)
    w = _support_clip(w)
    half = spectral_map(w, v, lambda x: x ** -0.5)
    elements = [hermitize(half @ rho @ half) for rho in states]
    if (w == 0).any():
        vk = v[:, w == 0]
        elements[0] = hermitize(elements[0] + vk @ vk.conj().T)
    return POVM(elements=tuple(elements))


def average_error(channel: CQChannel, codebook: Codebook, povm: POVM) -> ErrorReport:
    """Exact average decoding error 1 - (1/M) sum_m tr[Lambda_m rho_m]."""
    if povm.size != codebook.size:
        raise DimensionError(f"{povm.size} POVM elements for {codebook.size} codewords")
    if povm.dim != channel.dim ** codebook.n:
        raise DimensionError("POVM dimension does not match the codeword space")
    per = []
    for cw, el in zip(codebook.codewords, povm.elements):
        rho = codeword_state(channel, cw)
        ok = float(np.trace(el @ rho).real)
        per.append(min(max(1.0 - ok, 0.0), 1.0))
    per_tuple = tuple(per)
    return ErrorReport(
        pe=float(np.mean(per_tuple)), per_message=per_tuple, n=codebook.n, size=codebook.size
    )


def _pgm_error_dense(channel: CQChannel, codebook: Codebook, config: RunConfig) -> float:
    """PGM average error without materializing the POVM.

    One codeword state is held at a time: each is built once for the sum S
    and again for its own success term.
    """
    dim = config.check(channel.dim ** codebook.n)
    total = np.zeros((dim, dim), dtype=complex)
    for cw in codebook.codewords:
        total += codeword_state(channel, cw)
    w, v = herm_eig(hermitize(total))
    half = spectral_map(_support_clip(w), v, lambda x: x ** -0.5)
    success = 0.0
    for cw in codebook.codewords:
        x = half @ codeword_state(channel, cw)
        success += float((x * x.T).sum().real)  # tr[(S^-1/2 rho)^2]
    return min(max(1.0 - success / codebook.size, 0.0), 1.0)


def _gram_errors(overlaps: np.ndarray, words: np.ndarray) -> np.ndarray:
    """PGM errors of a (B, M, n) stack of pure-letter codebooks, one per Gram matrix.

    With Psi the matrix of codeword vectors, Psi^dagger S^(-1/2) Psi is
    (Psi^dagger Psi)^(1/2) = G^(1/2), so message m is decoded with
    probability ((G^(1/2))_mm)^2 (Hausladen, Jozsa, Schumacher, Westmoreland
    and Wootters, PRA 54, 1869, 1996). G and S share their nonzero spectrum,
    so the root on supp(G), cut per matrix as ``mat_power`` cuts, drops what
    S^(-1/2) drops on the dense path; this holds for duplicate codewords
    (singular G) too. Only the diagonal (G^(1/2))_mm = sum_k |V_mk|^2
    sqrt(lambda_k) is formed, from one batched ``eigh`` of the stack.
    """
    lam, vec = np.linalg.eigh(gram_stack(overlaps, words))
    root = np.sqrt(_support_clip(lam))
    diag = ((vec.real ** 2 + vec.imag ** 2) * root[:, None, :]).sum(axis=2)
    return np.clip(1.0 - (diag ** 2).mean(axis=1), 0.0, 1.0)


def _table_errors(q: np.ndarray) -> np.ndarray:
    """(2, B) PGM errors, then ML errors, of a (B, M, d^n) table stack; squares ``q`` in place."""
    size = q.shape[1]
    ml = 1.0 - q.max(axis=1).sum(axis=1) / size
    s = q.sum(axis=1, keepdims=True)
    s[s == 0] = 1.0  # every q is 0 where its column sums to 0
    q *= q
    q /= s
    pgm = 1.0 - q.sum(axis=2).mean(axis=1)
    return np.clip(np.stack((pgm, ml)), 0.0, 1.0)


def ml_error_classical(
    channel: CQChannel, codebook: Codebook, config: RunConfig = DEFAULT_CONFIG
) -> float:
    """Exact minimum average error for commuting outputs (ML decoding)."""
    w = channel.induced_stochastic_matrix()
    config.check(channel.dim ** codebook.n, table=True)
    return float(_table_errors(_sequence_table(w, np.asarray(codebook.codewords)[None]))[1, 0])


def _in_chunks(kernel, words: np.ndarray, entries_per_book: int) -> np.ndarray:
    """``kernel`` over a (B, M, n) letter stack, at most ``CHUNK_ENTRIES`` entries at a time.

    ``kernel`` maps a slice of the stack to an array whose last axis runs
    over its codebooks; the pieces are joined in stack order.
    """
    step = max(1, CHUNK_ENTRIES // entries_per_book)
    return np.concatenate([kernel(words[i:i + step]) for i in range(0, len(words), step)], axis=-1)


def estimate_exponent(
    channel: CQChannel,
    rate: float,
    n_list: Sequence[int],
    trials_per_n: int,
    seed: int,
    config: RunConfig = DEFAULT_CONFIG,
    analysis=None,
) -> list[ExponentEstimate]:
    """Best-of-trials error exponents at a fixed rate.

    For each blocklength the simulation draws ``trials_per_n`` codebooks in
    both modes: i.i.d. from the prior optimizing the achievability bound at
    this rate, and constant-composition at the nearest type. The reported
    statistic is the minimum exact PGM error over all draws, mirroring the
    infimum over codes; the mean is kept for diagnostics. ``seed`` is a
    non-negative integer; a negative one raises ``ValueError`` before any
    work. Codebook ``trial`` of mode m (0 i.i.d., 1 constant-composition)
    is drawn by ``_draw_words`` from the stream of ``[seed, n, trial, m]``,
    numpy's ``Generator(PCG64(SeedSequence([seed, n, trial, m])))``. cqexp
    computes the ``SeedSequence`` states of all streams of a blocklength
    itself, in one pass, and hands them to numpy's ``PCG64`` through
    ``ISeedSequence``; numpy's stream policy (NEP 19) keeps the streams
    stable, and the tests fail loudly if numpy's seeding drifts. i.i.d.
    letters are the prior's inverse CDF at the stream's ``random((M, n))``,
    and constant-composition codewords are the rows of the sorted type,
    each permuted by the stream. All 2 x ``trials_per_n``
    codebooks of one blocklength are drawn into one letter stack and
    evaluated together on the diagonal or Gram path of the module docstring,
    in chunks of at most ``CHUNK_ENTRIES`` entries; the dense path takes them
    one codebook at a time. The path is chosen per blocklength, and
    ``config.check`` holds M on the Gram path and d^n on the others to the
    caps of the module docstring.

    Returns one :class:`ExponentEstimate` per blocklength, carrying the
    PGM error of each codebook (and its exact ML error on commuting
    channels); its ``trials`` property builds one
    :class:`TrialRecord` per codebook when read.
    """
    if trials_per_n < 1:
        raise ValueError("trials_per_n must be >= 1")
    _seed_words(seed)  # a bad seed fails before any work, even when no codebook is drawn
    if analysis is None:
        analysis = ChannelAnalysis(channel)
    low = analysis.lower_bound(rate)
    prior = analysis.mutual_info(low.alpha).prior
    try:
        w = channel.induced_stochastic_matrix()
    except NotClassical:
        w = None
    overlaps = None if w is not None else pure_letter_overlaps(channel)

    def errors(words: np.ndarray, gram: bool) -> tuple[tuple[float, ...], tuple[float, ...] | None]:
        """PGM and ML errors (None off the diagonal path) of a (B, M, n) letter stack."""
        size, n = words.shape[1:]
        if w is not None:
            pe, ml = _in_chunks(
                lambda part: _table_errors(_sequence_table(w, part)), words, size * w.shape[1] ** n
            )
            return tuple(pe.tolist()), tuple(ml.tolist())
        if gram:
            pe = _in_chunks(lambda part: _gram_errors(overlaps, part), words, size * size)
            return tuple(pe.tolist()), None
        return tuple(_pgm_error_dense(channel, _as_codebook(book), config) for book in words), None

    estimates: list[ExponentEstimate] = []
    for n in n_list:
        n = int(n)
        # 2^(nR) overflows a float from nR = 1024 on, far past every cap.
        size = int(round(2.0 ** (n * rate))) if n * rate < 1024 else math.inf
        # The Gram matrix is the smaller one only while M <= d^n.
        gram = overlaps is not None and size <= channel.dim ** n
        config.check(size if gram else channel.dim ** n, table=w is not None)
        if size > MAX_TENSOR_DIM:  # every path draws M codewords first
            raise TooLarge(f"codebook size 2^{n * rate:.6g} exceeds ceiling {MAX_TENSOR_DIM}")
        if size < 2:
            # A single message is always decoded correctly.
            estimates.append(
                ExponentEstimate(n=n, size=size, best_pe=0.0, mean_pe=0.0, implied_exponent=math.inf)
            )
            continue
        modes = (IID(prior=prior), ConstantComposition(nearest_type(prior, n)))
        # keys[mode, trial] holds the SeedSequence words of [seed, n, trial, mode];
        # trial and mode are below 2^32, so each is one word.
        prefix = _seed_words([seed, n])
        keys = np.zeros((2, trials_per_n, len(prefix) + 2), dtype=np.uint32)
        keys[..., :-2] = prefix
        keys[..., -2] = np.arange(trials_per_n)
        keys[1, :, -1] = 1
        # (trials, mode, M, n), flattened so that codebook b is trial b // 2 in mode b % 2.
        words = np.stack(
            [_draw_words(channel.size, n, size, mode, keys[m]) for m, mode in enumerate(modes)], axis=1
        ).reshape(-1, size, n)
        pes, mls = errors(words, gram)
        best = min(pes)
        implied = math.inf if best <= 0.0 else -math.log(best) / (n * LN_BASE)
        estimates.append(
            ExponentEstimate(
                n=n, size=size, best_pe=best, mean_pe=float(np.mean(pes)), implied_exponent=implied,
                pgm_errors=pes, ml_errors=mls,
            )
        )
    return estimates
