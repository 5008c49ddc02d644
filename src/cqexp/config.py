"""Numeric conventions and the run-wide configuration record.

All rates, entropies and divergences are reported in units of log base
``LOG_BASE`` (bits). The CLI ``--nats`` flag converts on output only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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

# Default cap on the dimension of a Kronecker chain (``linalg.tensor_all``).
MAX_TENSOR_DIM = 2 ** 14


@dataclass(frozen=True)
class RunConfig:
    """Knobs for optimization, sweeps and resource caps.

    Defaults implement the documented algorithm choices; every cap and
    tolerance can be overridden per call.
    """

    # Prior solves: active-set Newton iterations from one start (the names
    # are kept from the exponentiated-gradient solver this replaced).
    # eg_max_iters caps the Newton iterations; the run stops when the
    # Frank-Wolfe gap, in bits, reaches eg_grad_tol or its rounding floor.
    eg_max_iters: int = 10_000
    eg_grad_tol: float = 1e-9

    # Alpha sweeps for the exponent bounds: a coarse grid, then the root of
    # E0'(s) = r bracketed to alpha_tol in alpha.
    alpha_grid_points: int = 64
    alpha_tol: float = 1e-8
    sphere_packing_alpha_min: float = 0.01
    achievability_alpha_min: float = 0.5

    # Resource caps. max_sim_dim bounds the matrix decomposed at blocklength
    # n: M codewords or |T| sequences for pure letters while that is at
    # most d^n, d^n otherwise.
    max_sim_dim: int = 256
    max_opt_alphabet: int = 8
    max_type_count: int = 1_000_000

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name.startswith("max_") or f.name in ("eg_max_iters", "alpha_grid_points"):
                if v < 1:
                    raise ValueError(f"{f.name} must be >= 1, got {v}")
            elif f.name in ("eg_grad_tol", "alpha_tol"):
                if v <= 0:
                    raise ValueError(f"{f.name} must be > 0, got {v}")
        if not 0 < self.sphere_packing_alpha_min < 1:
            raise ValueError("sphere_packing_alpha_min must lie in (0, 1)")
        if not 0 < self.achievability_alpha_min <= 1:
            raise ValueError("achievability_alpha_min must lie in (0, 1]")


DEFAULT_CONFIG = RunConfig()
