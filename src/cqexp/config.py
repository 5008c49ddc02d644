"""Numeric conventions and the run's one setting.

All rates, entropies and divergences are reported in units of log base
``LOG_BASE`` (bits). The CLI ``--nats`` flag converts on output only.
The tolerances and caps that the paper or the solver fixes are constants
next to the code that reads them; ``RunConfig`` holds what a caller chooses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TooLarge

# Logarithm base used everywhere; 2.0 means bits.
LOG_BASE = 2.0
LN_BASE = math.log(LOG_BASE)

# Relative eigenvalue cutoff below which spectrum is treated as exactly zero
# when taking fractional powers (power on the support only).
SUPPORT_CUTOFF = 1e-12

# Eigenvalues above -PSD_TOL are accepted as nonnegative.
PSD_TOL = 1e-10

# Relative cutoff used when testing supp(rho) <= supp(sigma).
SUPPORT_CONTAINMENT_TOL = 1e-10

# Outputs count as commuting (a classical channel) when one unitary brings
# every one of them to diagonal form up to off-diagonal entries this small;
# the diagonal coding path drops those entries.
CLASSICAL_TOL = 1e-10

# Tolerance of the structural checks on a channel's letters, made when a
# ``CQChannel`` is built: Hermiticity, positivity and unit trace.
LOAD_TOL = 1e-8

# Ceiling on the dimension of a Kronecker chain (``linalg.tensor_all``), and
# so on every matrix decomposed at blocklength n, d^n x d^n states and Gram
# matrices alike: one 4096 x 4096 complex matrix is 256 MiB. ``simulate``
# holds the codebook size M to it on every path.
MAX_TENSOR_DIM = 2 ** 12

# Most table or Gram-matrix entries a stacked blocklength evaluation holds at once.
CHUNK_ENTRIES = 2 ** 16

# Ceiling on the table entries that a symmetric type-class path builds for the
# classes of one blocklength: as many as one MAX_TENSOR_DIM x MAX_TENSOR_DIM
# matrix holds. For two pure letters that is the sum of each class's table;
# for commuting letters, the terms of that blocklength's level of the
# recurrence over output positions, which builds every class at once. It
# bounds the work at one blocklength whatever ``max_sim_dim`` is.
MAX_CLASS_ENTRIES = MAX_TENSOR_DIM ** 2


def format_dim(dim: int) -> str:
    """A size for an error message: in full up to 10^15, else "about 10^k".

    k = floor(log10 dim); ``math.log10`` reads an integer's bit length and
    leading bits, while str() refuses an integer past 4300 digits.
    """
    if dim <= 10 ** 15:
        return str(dim)
    return f"about 10^{math.floor(math.log10(dim))}"


@dataclass(frozen=True)
class RunConfig:
    """The cap on the matrix decomposed at blocklength n (``--max-dim``).

    ``max_sim_dim`` bounds M codewords or |T| sequences for pure letters
    while that is at most d^n, d^n otherwise; every decomposed matrix stays
    within ``MAX_TENSOR_DIM`` whatever it is; ``check`` applies both. The
    symmetric type-class paths decompose nothing: ``max_sim_dim`` bounds the
    number of distinct eigenvalues of a class average, and the table entries
    that they build for the classes of one blocklength (the terms of its
    level, for the commuting recurrence) stay within ``MAX_CLASS_ENTRIES``;
    ``check_classes`` applies both.
    """

    max_sim_dim: int = 256

    def __post_init__(self) -> None:
        if self.max_sim_dim < 1:
            raise ValueError(f"max_sim_dim must be >= 1, got {self.max_sim_dim}")

    def check(self, dim: int, *, table: bool = False) -> int:
        """``dim``, the side of the matrix built at blocklength n (M or |T| on the Gram
        paths, d^n otherwise), or TooLarge past ``max_sim_dim``, or past
        ``MAX_TENSOR_DIM`` unless it is a ``table`` (the diagonal path: never decomposed)."""
        cap = self.max_sim_dim if table else min(self.max_sim_dim, MAX_TENSOR_DIM)
        if dim > cap:
            raise TooLarge(f"dimension {format_dim(dim)} exceeds simulation cap {cap}")
        return dim

    def check_classes(self, eigenvalues: int, entries: int) -> None:
        """TooLarge unless a symmetric type-class path may sum ``eigenvalues``
        distinct eigenvalues of one class average, at most ``max_sim_dim``,
        and build ``entries`` table entries for the classes of one
        blocklength, at most ``MAX_CLASS_ENTRIES``."""
        if eigenvalues > self.max_sim_dim:
            raise TooLarge(f"eigenvalue count {format_dim(eigenvalues)} exceeds cap {self.max_sim_dim}")
        if entries > MAX_CLASS_ENTRIES:
            raise TooLarge(
                f"{format_dim(entries)} table entries at one blocklength exceed ceiling {MAX_CLASS_ENTRIES}"
            )


DEFAULT_CONFIG = RunConfig()
