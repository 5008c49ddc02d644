"""Method-of-types combinatorics: empirical distributions of sequences.

Types are stored as exact integer count vectors so that set sizes and
probabilities involve no rounding beyond the final float product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .config import format_dim
from .errors import InvalidSequence, TooLarge

ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True)
class TypeClass:
    """Empirical distribution of a length-n sequence, as letter counts."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"blocklength must be positive, got {self.n}")
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if any(c < 0 for c in counts):
            raise ValueError(f"negative count in {counts}")
        if sum(counts) != self.n:
            raise ValueError(f"counts {counts} do not sum to n={self.n}")

    @property
    def alphabet_size(self) -> int:
        return len(self.counts)

    def frequencies(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.n

    def sequence_count(self) -> int:
        """Number of sequences with this type: the multinomial coefficient."""
        out = math.factorial(self.n)
        for c in self.counts:
            out //= math.factorial(c)
        return out


def type_of(letters: Sequence[int], alphabet_size: int) -> TypeClass:
    """Empirical type of a sequence over {0, ..., alphabet_size-1}."""
    counts = [0] * alphabet_size
    for x in letters:
        x = int(x)
        if x < 0 or x >= alphabet_size:
            raise InvalidSequence(f"letter {x} outside alphabet of size {alphabet_size}")
        counts[x] += 1
    if not letters:
        raise InvalidSequence("empty sequence has no type")
    return TypeClass(n=len(letters), counts=tuple(counts))


def type_count(n: int, alphabet_size: int) -> int:
    """Number of types of length-n sequences: C(n+|X|-1, |X|-1)."""
    return math.comb(n + alphabet_size - 1, alphabet_size - 1)


def type_counts(blocklengths: Sequence[int], alphabet_size: int) -> np.ndarray:
    """Every composition of each n of ``blocklengths`` into |X| nonnegative
    parts, one row each, stacked in the order of ``blocklengths``; within
    one n, first letter descending: the types of ``enumerate_types``."""
    blocklengths = list(blocklengths)
    if alphabet_size < 1 or min(blocklengths, default=1) < 1:
        raise ValueError("need n >= 1 and alphabet_size >= 1")
    for n in blocklengths:
        if type_count(n, alphabet_size) > ENUMERATION_CAP:
            raise TooLarge(f"{type_count(n, alphabet_size)} types exceeds cap {ENUMERATION_CAP}")
    totals = np.array(blocklengths, dtype=np.int64)
    cols = np.empty((0, len(totals)), dtype=np.int64)  # built one letter per row, transposed at the end
    for _ in range(alphabet_size - 1):
        reps = totals + 1
        ramp = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        cols = np.vstack([np.repeat(cols, reps, axis=1), np.repeat(totals, reps) - ramp])
        totals = ramp
    return np.vstack([cols, totals]).T


def type_index(counts: np.ndarray, n: int) -> np.ndarray:
    """Row of each type in ``counts`` (rows of |X| counts summing to n) in the
    order of ``type_counts([n], |X|)``.

    The types ahead of one are those that agree with it before letter a and
    have more of letter a; with r letters left after a and p = |X| - a - 1
    letters to fill, they number C(r - 1 + p, p) (hockey stick).
    """
    size = counts.shape[1]
    left = np.full(len(counts), n)
    index = np.zeros(len(counts), dtype=np.int64)
    for a in range(size - 1):
        p = size - a - 1
        left = left - counts[:, a]
        ahead = np.array([math.comb(r - 1 + p, p) if r > 0 else 0 for r in range(n + 1)], dtype=np.int64)
        index += ahead[left]
    return index


def enumerate_types(n: int, alphabet_size: int) -> list[TypeClass]:
    """All compositions of n into |X| nonnegative parts, first letter descending."""
    return [TypeClass(n=n, counts=tuple(row)) for row in type_counts([n], alphabet_size).tolist()]


def enumerate_sequences(t: TypeClass) -> Iterator[tuple[int, ...]]:
    """Lazily yield every sequence of type ``t`` in lexicographic order."""
    if t.sequence_count() > ENUMERATION_CAP:
        raise TooLarge(f"{format_dim(t.sequence_count())} sequences exceeds cap {ENUMERATION_CAP}")

    def rec(counts: list[int], prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == t.n:
            yield tuple(prefix)
            return
        for a, c in enumerate(counts):
            if c > 0:
                counts[a] -= 1
                prefix.append(a)
                yield from rec(counts, prefix)
                prefix.pop()
                counts[a] += 1

    return rec(list(t.counts), [])


def type_probability(prior, t: TypeClass) -> float:
    """Probability that an i.i.d. draw from ``prior`` lands in T_n^t.

    Equals |T_n^t| * prod_a p_a^{count_a}; zero when the type uses a letter
    outside the prior's support.
    """
    p = np.asarray(prior, dtype=float)
    if p.shape[0] != t.alphabet_size:
        raise InvalidSequence(f"prior length {p.shape[0]} != type alphabet {t.alphabet_size}")
    prod = 1.0
    for pa, c in zip(p, t.counts):
        if c == 0:
            continue
        if pa <= 0.0:
            return 0.0
        prod *= float(pa) ** c
    return t.sequence_count() * prod


def nearest_type(prior, n: int) -> TypeClass:
    """Type of denominator n closest to ``prior`` (largest-remainder rounding)."""
    p = np.asarray(prior, dtype=float)
    scaled = n * p
    counts = np.floor(scaled).astype(int)
    shortfall = n - int(counts.sum())
    if shortfall > 0:
        remainders = scaled - counts
        # Stable tie-break: larger remainder first, then lower letter index.
        order = sorted(range(len(p)), key=lambda i: (-remainders[i], i))
        for i in order[:shortfall]:
            counts[i] += 1
    return TypeClass(n=n, counts=tuple(int(c) for c in counts))
