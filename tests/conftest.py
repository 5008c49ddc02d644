import math

import numpy as np
import pytest

from cqexp import CQChannel


def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state from a Ginibre square."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_channel(k: int, d: int, rng: np.random.Generator) -> CQChannel:
    return CQChannel.from_states([random_density_matrix(d, rng) for _ in range(k)])


def random_pure_channel(k: int, d: int, rng: np.random.Generator) -> CQChannel:
    """Letters |psi><psi| with psi a normalized complex Gaussian vector."""
    states = []
    for _ in range(k):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        states.append(np.outer(psi, psi.conj()))
    return CQChannel.from_states(states)


# (|X|, d) of the seeded random pure channels the Gram paths are checked on.
PURE_SHAPES = ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3))


def pure_pair_channel() -> CQChannel:
    """Nonorthogonal pure outputs: the computational |0> and the diagonal |+>."""
    zero = np.array([[1, 0], [0, 0]], dtype=complex)
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    return CQChannel.from_states([zero, plus])


def pure_channels() -> list[CQChannel]:
    """pure_pair, then the seeded random pure channels of PURE_SHAPES."""
    return [pure_pair_channel()] + [
        random_pure_channel(k, d, np.random.default_rng([4242, i]))
        for i, (k, d) in enumerate(PURE_SHAPES)
    ]


# (|X|, d) of the random channels of one prior-benchmark draw, in the order
# its generator draws them.
DRAW_SHAPES = ((3, 2), (8, 2), (4, 8), (8, 16), (6, 32))


def draw_letters(draw: int) -> list[np.ndarray]:
    """Letters of every DRAW_SHAPES channel of an independent prior-benchmark
    draw: states G G^dagger / tr of rank ceil(d/2), G complex Gaussian."""
    rng = np.random.default_rng([draw, 0x9E1])
    letters = []
    for k, d in DRAW_SHAPES:
        g = rng.normal(size=(k, d, math.ceil(d / 2))) + 1j * rng.normal(size=(k, d, math.ceil(d / 2)))
        rho = g @ g.conj().transpose(0, 2, 1)
        letters.append(rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None])
    return letters


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250808)


@pytest.fixture
def bsc_channel() -> CQChannel:
    return CQChannel.from_stochastic_matrix([[0.9, 0.1], [0.1, 0.9]])


@pytest.fixture
def orthogonal_pair() -> CQChannel:
    zero = np.array([[1, 0], [0, 0]], dtype=complex)
    one = np.array([[0, 0], [0, 1]], dtype=complex)
    return CQChannel.from_states([zero, one])


@pytest.fixture
def pure_pair() -> CQChannel:
    return pure_pair_channel()


@pytest.fixture
def identical_outputs(rng) -> CQChannel:
    rho = random_density_matrix(2, rng)
    return CQChannel.from_states([rho, rho.copy()])
