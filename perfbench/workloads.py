"""Workload definitions: the CLI commands each benchmark run executes.

Every workload is a closed loop with one client: the next command starts
only after the previous one has returned. A *pass* is one run through a
workload's command list; a benchmark run repeats passes while time remains.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (|X|, d) of the random channels in the `priors` workload. Each letter has
# rank ceil(d/2), so fractional powers act on a proper support.
PRIOR_SHAPES = ((3, 2), (8, 2), (4, 8), (8, 16), (6, 32))
PRIOR_ALPHAS = ("0.3", "0.7")
# Generator seed of the base draw that every workload seed rotates; the
# first draw, 0.
BASE_DRAW = 0

BSC = "channels/bsc01.json"
PURE_PAIR = "channels/pure_pair.json"


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``cqexp <command> <channel> <args...>``."""

    command: str
    channel: str
    args: tuple[str, ...]
    label: str  # stable name for per-op metrics, e.g. "exponent_bsc01"

    def argv(self) -> list[str]:
        return [self.command, self.channel, *self.args]


def _curve_ops() -> list[Op]:
    grid = ("--rmin", "0.05", "--rmax", "0.5", "--steps", "10")
    return [
        Op("exponent", BSC, grid, "exponent_bsc01"),
        Op("exponent", PURE_PAIR, grid, "exponent_pure_pair"),
    ]


def _blocklength_ops(seed: int) -> list[Op]:
    sim = ("--rate", "0.3", "--n-list", "2,4,6,8")
    return [
        Op("simulate", PURE_PAIR, sim + ("--trials", "50", "--seed", str(seed)),
           "simulate_pure_pair"),
        Op("simulate", BSC, sim + ("--trials", "200", "--seed", str(seed)),
           "simulate_bsc01"),
        Op("besttype", PURE_PAIR, ("--alpha", "0.5", "--nmax", "8"), "besttype_pure_pair"),
    ]


def _priors_ops(files: list[str]) -> list[Op]:
    ops = []
    for path in files:
        ops += [Op("renyi", path, ("--alpha", a), "renyi") for a in PRIOR_ALPHAS]
        ops.append(Op("capacity", path, (), "capacity"))
    return ops


WORKLOADS = ("curve", "priors", "blocklength")
# Ops on the fixed channel files, each reported as its own per-op time.
FIXED_OP_LABELS = tuple(op.label for op in _curve_ops() + _blocklength_ops(0))


def random_letters(size: int, dim: int, rng):
    """``size`` random states of rank ceil(dim/2): G G^dagger / tr, G complex Gaussian."""
    rank = math.ceil(dim / 2)
    g = rng.normal(size=(size, dim, rank)) + 1j * rng.normal(size=(size, dim, rank))
    rho = g @ g.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def haar_unitary(dim: int, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def channel_doc(letters) -> dict:
    letters = (letters + letters.conj().transpose(0, 2, 1)) / 2
    outputs = [[[[float(z.real), float(z.imag)] for z in row] for row in rho] for rho in letters]
    return {"cqspec": 1, "dim": int(letters.shape[1]), "outputs": outputs}


def natural_letters(draw: int) -> list:
    """Letters of every PRIOR_SHAPES channel, drawn independently from ``draw``."""
    rng = np.random.default_rng([draw, 0x9E1])
    return [random_letters(k, d, rng) for k, d in PRIOR_SHAPES]


def prior_channel_docs(seed: int) -> list[dict]:
    """The `priors` channels of a workload seed.

    The seed draws one Haar-random unitary U per channel and the channel is
    U rho_x U^dagger over a fixed base draw (BASE_DRAW). The inputs differ
    per seed, but every quantity the CLI reports, and the work to compute
    it, is invariant under a common unitary. Independent draws per seed
    would let the seed set the timing: the EG iteration count of one solve
    differs by orders of magnitude between draws.
    """
    rng = np.random.default_rng([seed, 0x0A7])
    docs = []
    for letters in natural_letters(BASE_DRAW):
        u = haar_unitary(letters.shape[1], rng)
        docs.append(channel_doc(u @ letters @ u.conj().T))
    return docs


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's generated inputs under ``workdir``; return its ops."""
    if workload == "curve":
        return _curve_ops()
    if workload == "blocklength":
        return _blocklength_ops(seed)
    if workload == "priors":
        files = []
        for (k, d), doc in zip(PRIOR_SHAPES, prior_channel_docs(seed)):
            path = workdir / f"prior_{k}x{d}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            files.append(str(path))
        return _priors_ops(files)
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Import the CLI, generate the workload's inputs and load every channel once."""
    from cqexp.channel_io import load_channel
    import cqexp.cli  # noqa: F401  (the entry point every op runs through)

    ops = build_ops(workload, seed, workdir)
    for path in sorted({op.channel for op in ops}):
        load_channel(path)
    return ops
