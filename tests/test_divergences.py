import math

import numpy as np
import pytest

from cqexp import (
    CQChannel,
    conditional_renyi_up,
    cq_state,
    holevo_information,
    mat_power,
    partial_trace,
    permute_systems,
    petz_divergence,
    quantum_relative_entropy,
    renyi_mi_channel,
    renyi_mi_channel_prior,
    renyi_mutual_info_state,
    sibson_minimizer,
    tensor,
)
from cqexp.errors import InfiniteDivergence

from conftest import random_channel, random_density_matrix
from oracles import (
    classical_channel_renyi_mi,
    classical_conditional_renyi_up,
    classical_renyi_divergence,
    classical_sibson_distribution,
    duality_renyi_mi,
    gallager_e0,
)

ALPHAS = [0.0, 0.3, 0.5, 0.9, 1.0, 1.3, 2.0]


class TestPetzDivergence:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_zero_on_equal_states(self, alpha, rng):
        rho = random_density_matrix(3, rng)
        res = petz_divergence(rho, rho.copy(), alpha)
        assert res.finite
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_classical_commuting_case(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.75, 0.25])
        got = petz_divergence(np.diag(p).astype(complex), np.diag(q).astype(complex), 0.5)
        assert got.value == pytest.approx(classical_renyi_divergence(p, q, 0.5), abs=1e-12)

    def test_pure_against_maximally_mixed(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        got = petz_divergence(rho, np.eye(2) / 2, 0.5)
        assert got.value == pytest.approx(1.0, abs=1e-12)

    def test_support_violation_is_infinite(self):
        rho = np.eye(2) / 2
        sigma = np.diag([1.0, 0.0]).astype(complex)
        res = petz_divergence(rho, sigma, 0.5)
        assert not res.finite and math.isinf(res.value)

    def test_alpha_one_matches_classical_kl(self, rng):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        got = quantum_relative_entropy(np.diag(p).astype(complex), np.diag(q).astype(complex))
        assert got.value == pytest.approx(classical_renyi_divergence(p, q, 1.0), abs=1e-10)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_nonnegative_on_random_pairs(self, alpha, rng):
        for _ in range(10):
            rho = random_density_matrix(3, rng)
            sigma = random_density_matrix(3, rng)
            assert petz_divergence(rho, sigma, alpha).value >= -1e-9

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_monotone_in_second_argument(self, alpha, rng):
        # sigma' = sigma + PSD perturbation; subnormalized arguments allowed.
        for _ in range(5):
            rho = random_density_matrix(3, rng)
            sigma = random_density_matrix(3, rng)
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            bigger = sigma + 0.3 * (g @ g.conj().T)
            assert (
                petz_divergence(rho, bigger, alpha).value
                <= petz_divergence(rho, sigma, alpha).value + 1e-10
            )

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_data_processing_under_partial_trace(self, alpha, rng):
        for _ in range(5):
            rho = random_density_matrix(4, rng)
            sigma = random_density_matrix(4, rng)
            full = petz_divergence(rho, sigma, alpha).value
            reduced = petz_divergence(
                partial_trace(rho, [2, 2], keep=[0]),
                partial_trace(sigma, [2, 2], keep=[0]),
                alpha,
            ).value
            assert reduced <= full + 1e-9

    def test_commuting_reduction_dense_basis(self, rng):
        # Diagonal in a rotated basis still reduces to the classical formula.
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(g)
        rho = u @ np.diag(p).astype(complex) @ u.conj().T
        sigma = u @ np.diag(q).astype(complex) @ u.conj().T
        for alpha in (0.4, 1.0, 1.7):
            got = petz_divergence(rho, sigma, alpha).value
            assert got == pytest.approx(classical_renyi_divergence(p, q, alpha), abs=1e-10)


class TestSibsonMinimizer:
    def test_product_fixed_point(self, rng):
        tau = random_density_matrix(2, rng)
        sig = random_density_matrix(3, rng)
        got = sibson_minimizer(tensor(tau, sig), tau, 0.6, dims=(2, 3))
        assert np.allclose(got, sig, atol=1e-9)

    def test_classical_blocks_match_classical_sibson(self, rng):
        w = rng.dirichlet(np.ones(3), size=2)
        p = np.array([0.4, 0.6])
        ch = CQChannel.from_stochastic_matrix(w)
        state = cq_state(ch, p)
        for alpha in (0.5, 0.8, 1.3):
            got = sibson_minimizer(state.to_matrix(), np.diag(p).astype(complex), alpha, dims=(2, 3))
            expected = classical_sibson_distribution(p, w, alpha)
            assert np.allclose(np.diag(got).real, expected, atol=1e-10)

    @pytest.mark.parametrize("alpha", [0.7])
    def test_beats_random_probes(self, alpha, rng):
        rho = random_density_matrix(4, rng)
        tau = partial_trace(rho, [2, 2], keep=[0])
        sig = sibson_minimizer(rho, tau, alpha, dims=(2, 2))
        at_min = petz_divergence(rho, tensor(tau, sig), alpha).value
        for _ in range(200):
            probe = random_density_matrix(2, rng)
            probed = petz_divergence(rho, tensor(tau, probe), alpha).value
            assert probed >= at_min - 1e-10

    def test_support_violation_raises(self, rng):
        rho = random_density_matrix(4, rng)
        tau = np.diag([1.0, 0.0]).astype(complex)  # rho_A has full support
        with pytest.raises(InfiniteDivergence):
            sibson_minimizer(rho, tau, 0.5, dims=(2, 2))

    @pytest.mark.parametrize("fn", [sibson_minimizer, renyi_mutual_info_state])
    def test_alpha_zero_rejected(self, rng, fn):
        # The closed form takes the 1/alpha power; alpha = 0 has no minimizer.
        rho = random_density_matrix(4, rng)
        tau = partial_trace(rho, [2, 2], keep=[0])
        with pytest.raises(ValueError):
            fn(rho, tau, 0.0, dims=(2, 2))


class TestRenyiMutualInfoState:
    def test_product_state_gives_zero(self, rng):
        rho_a = random_density_matrix(2, rng)
        rho_b = random_density_matrix(2, rng)
        got = renyi_mutual_info_state(tensor(rho_a, rho_b), rho_a, 0.7, dims=(2, 2))
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_additive_over_two_copies(self, rng):
        rho = random_density_matrix(4, rng)
        tau = partial_trace(rho, [2, 2], keep=[0])
        single = renyi_mutual_info_state(rho, tau, 0.6, dims=(2, 2))
        joint = permute_systems(tensor(rho, rho), [2, 2, 2, 2], [0, 2, 1, 3])
        double = renyi_mutual_info_state(joint, tensor(tau, tau), 0.6, dims=(4, 4))
        assert double == pytest.approx(2 * single, abs=1e-8)

    def test_classical_joint_matches_oracle(self, rng):
        w = rng.dirichlet(np.ones(3), size=2)
        p = np.array([0.3, 0.7])
        ch = CQChannel.from_stochastic_matrix(w)
        state = cq_state(ch, p)
        for alpha in (0.5, 1.4):
            got = renyi_mutual_info_state(
                state.to_matrix(), np.diag(p).astype(complex), alpha, dims=(2, 3)
            )
            assert got == pytest.approx(classical_channel_renyi_mi(w, p, alpha), abs=1e-10)


class TestConditionalRenyiUp:
    def test_decoupled_maximally_mixed(self, rng):
        sig = random_density_matrix(3, rng)
        rho = tensor(np.eye(4) / 4, sig)
        for alpha in (0.5, 1.5):
            assert conditional_renyi_up(rho, alpha, dims=(4, 3)) == pytest.approx(2.0, abs=1e-9)

    def test_classical_oracle(self, rng):
        joint = rng.dirichlet(np.ones(6)).reshape(2, 3)
        rho = np.diag(joint.reshape(-1)).astype(complex)
        for alpha in (0.4, 0.9, 1.6):
            got = conditional_renyi_up(rho, alpha, dims=(2, 3))
            assert got == pytest.approx(classical_conditional_renyi_up(joint, alpha), abs=1e-10)

    def test_rejects_alpha_one(self, rng):
        with pytest.raises(ValueError):
            conditional_renyi_up(np.eye(4) / 4, 1.0, dims=(2, 2))

    def test_pure_entangled_against_grid_minimization(self):
        t = 0.6
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[3] = np.cos(t), np.sin(t)
        rho = np.outer(psi, psi.conj())
        alpha = 0.5
        closed = conditional_renyi_up(rho, alpha, dims=(2, 2))

        # Independent oracle: direct minimization of D_1/2(rho || 1 (x) sigma)
        # over a Bloch-ball grid with one local refinement pass.
        rho_a = mat_power(rho, alpha)

        def div(bloch):
            x, y, z = bloch
            sig = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])
            part = mat_power(sig, 1 - alpha)
            val = np.trace(rho_a @ np.kron(np.eye(2), part)).real
            return np.log2(val) / (alpha - 1)

        def scan(center, radius, steps=17):
            best, arg = np.inf, None
            axes = [np.linspace(c - radius, c + radius, steps) for c in center]
            for x in axes[0]:
                for y in axes[1]:
                    for z in axes[2]:
                        if x * x + y * y + z * z >= 1.0:
                            continue
                        v = div((x, y, z))
                        if v < best:
                            best, arg = v, (x, y, z)
            return best, arg

        best, arg = scan((0.0, 0.0, 0.0), 0.999)
        for radius in (0.15, 0.02):
            best, arg = scan(arg, radius)
        assert -best == pytest.approx(closed, abs=1e-4)


class TestChannelPriorInformation:
    def test_identical_outputs_give_zero(self, identical_outputs):
        for alpha in (0.3, 0.8, 1.0, 1.6):
            got = renyi_mi_channel_prior(identical_outputs, [0.4, 0.6], alpha)
            assert got == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_pure_uniform_is_one_bit(self, orthogonal_pair):
        for alpha in (0.2, 0.5, 0.9):
            got = renyi_mi_channel_prior(orthogonal_pair, [0.5, 0.5], alpha)
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_gallager_relation_on_bsc(self, bsc_channel):
        w = np.array([[0.9, 0.1], [0.1, 0.9]])
        p = np.array([0.5, 0.5])
        for s in (0.25, 0.5, 1.0):
            alpha = 1.0 / (1.0 + s)
            mi = renyi_mi_channel_prior(bsc_channel, p, alpha)
            assert (1 - alpha) / alpha * mi == pytest.approx(gallager_e0(s, p, w), abs=1e-12)

    def test_alpha_one_is_holevo(self, rng):
        ch = random_channel(3, 2, rng)
        p = rng.dirichlet(np.ones(3))
        assert renyi_mi_channel_prior(ch, p, 1.0) == pytest.approx(
            holevo_information(ch, p), abs=1e-12
        )

    def test_continuity_at_alpha_one(self, rng):
        for _ in range(5):
            ch = random_channel(2, 2, rng)
            p = rng.dirichlet(np.ones(2))
            chi = holevo_information(ch, p)
            assert abs(renyi_mi_channel_prior(ch, p, 1.0 - 1e-4) - chi) <= 1e-3
            # alpha slightly above 1 uses the same closed form
            assert abs(renyi_mi_channel_prior(ch, p, 1.0 + 1e-4) - chi) <= 1e-3

    def test_sibson_consistency_with_state_route(self, rng):
        ch = random_channel(3, 2, rng)
        p = rng.dirichlet(np.ones(3))
        state = cq_state(ch, p)
        for alpha in (0.5, 0.8, 1.3):
            closed = renyi_mi_channel_prior(ch, p, alpha)
            via_state = renyi_mutual_info_state(
                state.to_matrix(), np.diag(p).astype(complex), alpha, dims=(3, 2)
            )
            assert closed == pytest.approx(via_state, abs=1e-8)

    def test_classical_channels_match_oracle(self, rng):
        for _ in range(5):
            w = rng.dirichlet(np.ones(3), size=2)
            p = rng.dirichlet(np.ones(2))
            ch = CQChannel.from_stochastic_matrix(w)
            for alpha in (0.3, 0.6, 0.9):
                got = renyi_mi_channel_prior(ch, p, alpha)
                assert got == pytest.approx(classical_channel_renyi_mi(w, p, alpha), abs=1e-10)

    def test_pure_state_input_against_hand_value(self, pure_pair):
        # <0|+> overlap 1/2; alpha = 1/2 admits a short closed form:
        # sum p rho^(1/2) = (rho0 + rho1)/2 for pure outputs, square and trace.
        avg = (pure_pair.outputs[0] + pure_pair.outputs[1]) / 2
        expected = -np.log2(np.trace(avg @ avg).real)
        got = renyi_mi_channel_prior(pure_pair, [0.5, 0.5], 0.5)
        assert got == pytest.approx(expected, abs=1e-12)


class TestDualityOracle:
    """Mixed letters that do not commute, against the purification oracle,
    which takes no power rho_x^a: seeded full-rank Ginibre channels (|X|, d)."""

    SHAPES = ((2, 2), (3, 3), (4, 2), (2, 4), (4, 4))
    ALPHAS = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)

    @staticmethod
    def _channel(case):
        k, d = TestDualityOracle.SHAPES[case]
        rng = np.random.default_rng([1212, case])
        channel = random_channel(k, d, rng)
        assert not channel.is_classical()
        return channel, rng

    @pytest.mark.parametrize("case", range(len(SHAPES)))
    def test_prior_information_matches(self, case):
        ch, rng = self._channel(case)
        for alpha in self.ALPHAS:
            p = rng.dirichlet(np.ones(ch.size))
            oracle = duality_renyi_mi(ch.outputs, p, alpha)
            assert renyi_mi_channel_prior(ch, p, alpha) == pytest.approx(oracle, rel=0, abs=1e-12)
            state = cq_state(ch, p).to_matrix()
            got = renyi_mutual_info_state(state, np.diag(p).astype(complex), alpha, dims=(ch.size, ch.dim))
            assert got == pytest.approx(oracle, rel=0, abs=1e-12)

    @pytest.mark.parametrize("case", range(len(SHAPES)))
    def test_channel_information_bounds_every_prior(self, case):
        # The optimum is the oracle at its own prior, and no seeded prior
        # beats it by more than its certified gap.
        ch, rng = self._channel(case)
        for alpha in self.ALPHAS:
            rep = renyi_mi_channel(ch, alpha)
            assert rep.converged
            assert rep.value == pytest.approx(duality_renyi_mi(ch.outputs, rep.prior, alpha), rel=0, abs=1e-12)
            for p in rng.dirichlet(np.ones(ch.size), size=4):
                assert rep.value >= duality_renyi_mi(ch.outputs, p, alpha) - rep.gap - 1e-12
