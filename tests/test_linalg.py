import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqexp import (
    CQChannel,
    cq_state,
    herm_eig,
    hermitize,
    mat_power,
    partial_trace,
    permute_systems,
    tensor,
    von_neumann_entropy,
)
from cqexp.errors import DimensionError, InvalidOperator, NotPSD
from cqexp.linalg import _sequence_table

from conftest import random_density_matrix, random_unitary


def random_hermitian(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return hermitize(g)


class TestHermEig:
    def test_identity(self):
        w, _ = herm_eig(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])

    def test_already_diagonal(self):
        w, v = herm_eig(np.diag([3.0, 1.0]))
        assert np.allclose(w, [3.0, 1.0])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_descending_order(self, rng):
        w, _ = herm_eig(random_hermitian(5, rng))
        assert np.all(np.diff(w) <= 0)

    def test_reconstruction(self, rng):
        h = random_hermitian(4, rng)
        w, v = herm_eig(h)
        back = (v * w) @ v.conj().T
        assert np.linalg.norm(back - h, ord=2) <= 1e-9

    def test_orthonormal_columns(self, rng):
        _, v = herm_eig(random_hermitian(6, rng))
        assert np.allclose(v.conj().T @ v, np.eye(6), atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidOperator):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_unitary_invariance_of_spectrum(self, rng):
        h = random_hermitian(4, rng)
        u = random_unitary(4, rng)
        w1, _ = herm_eig(h)
        w2, _ = herm_eig(hermitize(u @ h @ u.conj().T))
        assert np.allclose(w1, w2, atol=1e-8)


class TestMatPower:
    def test_identity(self):
        assert np.allclose(mat_power(np.eye(3), 0.7), np.eye(3))

    def test_support_convention(self):
        out = mat_power(np.diag([4.0, 0.0]), 0.5)
        assert np.allclose(out, np.diag([2.0, 0.0]))

    def test_negative_power_on_support(self):
        out = mat_power(np.diag([4.0, 0.0]), -0.5)
        assert np.allclose(out, np.diag([0.5, 0.0]))

    def test_square_root_squares_back(self, rng):
        a = random_density_matrix(4, rng)
        root = mat_power(a, 0.5)
        assert np.linalg.norm(root @ root - a, ord=2) <= 1e-9

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSD):
            mat_power(np.diag([1.0, -1e-6]), 0.5)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        s=st.floats(0.1, 3.0),
        t=st.floats(0.1, 3.0),
    )
    def test_power_composition(self, seed, s, t):
        a = random_density_matrix(3, np.random.default_rng(seed))
        left = mat_power(mat_power(a, s), t)
        right = mat_power(a, s * t)
        assert np.linalg.norm(left - right, ord=2) <= 1e-8


class TestTensorAndPartialTrace:
    def test_tensor_identities(self):
        assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))
        out = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_trace_factorizes(self, rng):
        a = random_hermitian(3, rng)
        b = random_hermitian(2, rng)
        lhs = np.trace(tensor(a, b))
        rhs = np.trace(a) * np.trace(b)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_product_state_marginal(self, rng):
        rho = random_density_matrix(2, rng)
        sig = random_density_matrix(3, rng)
        assert np.allclose(partial_trace(tensor(rho, sig), [2, 3], keep=[0]), rho, atol=1e-12)
        assert np.allclose(partial_trace(tensor(rho, sig), [2, 3], keep=[1]), sig, atol=1e-12)

    def test_entangled_marginal(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        state = np.outer(bell, bell.conj())
        assert np.allclose(partial_trace(state, [2, 2], keep=[0]), np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self, rng):
        m = random_hermitian(12, rng)
        out = partial_trace(m, [2, 3, 2], keep=[1])
        assert abs(np.trace(out) - np.trace(m)) <= 1e-9

    def test_either_factor_scaling(self, rng):
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        m = tensor(a, b)
        assert np.allclose(partial_trace(m, [2, 3], keep=[0]), a * np.trace(b), atol=1e-9)
        assert np.allclose(partial_trace(m, [2, 3], keep=[1]), b * np.trace(a), atol=1e-9)

    def test_dims_mismatch(self, rng):
        with pytest.raises(DimensionError):
            partial_trace(np.eye(6), [2, 2], keep=[0])

    def test_permute_systems_roundtrip(self, rng):
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        swapped = permute_systems(tensor(a, b), [2, 3], [1, 0])
        assert np.allclose(swapped, tensor(b, a), atol=1e-12)


class TestCQState:
    def test_uniform_identical_states(self, rng):
        rho = random_density_matrix(2, rng)
        ch = CQChannel.from_states([rho, rho.copy()])
        st_ = cq_state(ch, [0.5, 0.5])
        assert np.allclose(st_.b_marginal(), rho, atol=1e-12)

    def test_deterministic_prior(self, rng):
        ch = CQChannel.from_states([random_density_matrix(2, rng) for _ in range(2)])
        st_ = cq_state(ch, [1.0, 0.0])
        assert np.allclose(st_.b_marginal(), ch.outputs[0], atol=1e-12)

    def test_marginal_is_weighted_sum(self, rng):
        ch = CQChannel.from_states([random_density_matrix(3, rng) for _ in range(3)])
        p = np.array([0.2, 0.5, 0.3])
        st_ = cq_state(ch, p)
        direct = sum(w * rho for w, rho in zip(p, ch.outputs))
        assert np.allclose(st_.b_marginal(), direct, atol=1e-12)

    def test_block_weights_exact(self, rng):
        ch = CQChannel.from_states([random_density_matrix(2, rng) for _ in range(2)])
        p = np.array([0.25, 0.75])
        st_ = cq_state(ch, p)
        assert [w for w, _ in st_.blocks] == [0.25, 0.75]

    @pytest.mark.parametrize("bad", [[np.nan, 0.5], [np.inf, 0.5], [0.5, -np.inf]])
    def test_non_finite_prior_rejected(self, bad):
        ch = CQChannel.from_stochastic_matrix([[0.9, 0.1], [0.1, 0.9]])
        with pytest.raises(InvalidOperator, match="non-finite"):
            cq_state(ch, bad)

    def test_block_diagonal_matrix(self, rng):
        ch = CQChannel.from_states([random_density_matrix(2, rng) for _ in range(2)])
        p = np.array([0.4, 0.6])
        st_ = cq_state(ch, p)
        full = st_.to_matrix()
        assert np.allclose(
            partial_trace(full, [2, 2], keep=[1]), st_.b_marginal(), atol=1e-12
        )
        assert np.allclose(partial_trace(full, [2, 2], keep=[0]), np.diag(p), atol=1e-12)


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_binary_entropy_value(self):
        # h2(0.25) computed from the scalar formula.
        expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert von_neumann_entropy(np.diag([0.75, 0.25])) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_range(self, rng):
        rho = random_density_matrix(4, rng)
        h = von_neumann_entropy(rho)
        assert 0.0 <= h <= 2.0


def _broadcast_table(w, words):
    """The sequence table with one broadcast multiply per position: the reference for
    ``_sequence_table``, whose products and column order it shares."""
    books, size, n = words.shape
    q = w[words[:, :, 0]]
    for i in range(1, n):
        q = (q[:, :, :, None] * w[words[:, :, i]][:, :, None, :]).reshape(books, size, -1)
    return q


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", range(1, 9))
def test_sequence_table_matches_broadcast(d, n):
    rng = np.random.default_rng([d, n])
    w = rng.dirichlet(np.ones(d), size=3)
    for books, size in [(3, 4), (1, 4), (3, 1), (1, 1)]:
        words = rng.integers(0, 3, size=(books, size, n))
        table = _sequence_table(w, words)
        assert table.shape == (books, size, d ** n)
        assert np.array_equal(table, _broadcast_table(w, words))
