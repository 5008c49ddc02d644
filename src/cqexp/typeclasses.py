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


def enumerate_types(n: int, alphabet_size: int) -> list[TypeClass]:
    """All compositions of n into |X| nonnegative parts, first letter descending."""
    if alphabet_size < 1 or n < 1:
        raise ValueError("need n >= 1 and alphabet_size >= 1")
    if type_count(n, alphabet_size) > ENUMERATION_CAP:
        raise TooLarge(f"{type_count(n, alphabet_size)} types exceeds cap {ENUMERATION_CAP}")

    out: list[TypeClass] = []

    def rec(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(TypeClass(n=n, counts=tuple(prefix + [remaining])))
            return
        for c in range(remaining, -1, -1):
            rec(prefix + [c], remaining - c, slots - 1)

    rec([], n, alphabet_size)
    return out


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
