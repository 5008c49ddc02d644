import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqexp import (
    CQChannel,
    ChannelAnalysis,
    DEFAULT_CONFIG,
    TypeClass,
    best_type,
    best_type_up_to,
    constant_composition_mi,
    enumerate_types,
    holevo_capacity,
    holevo_information,
    renyi_mi_channel,
    renyi_mi_channel_prior,
)
from cqexp import analysis, linalg, typeclasses
from cqexp.analysis import (
    _holevo_surrogate, _renyi_derivatives, _renyi_maximand, _renyi_surrogate, _row_stacks,
)
from cqexp.channel_io import load_channel
from cqexp.config import LN_BASE
from cqexp.divergences import letter_power_logs, letter_powers
from cqexp.errors import InvalidGrid, NumericalInstability, RateAboveCapacity, TooLarge
from cqexp.linalg import log_base_psd, mat_power, spectral_map
from cqexp.simplex_opt import GAP_TOL, ConvexSurrogate, maximize_on_simplex, maximize_rows

from cqexp.channel import pure_letter_overlaps
from conftest import draw_letters, pure_channels, random_channel, random_pure_channel, random_unitary
from oracles import (
    best_prior_e0,
    channel_dispersion,
    classical_channel_renyi_mi,
    classical_critical_rate,
    classical_random_coding_exponent,
    classical_sphere_packing_exponent,
    pure_state_random_coding_exponent,
    pure_state_sphere_packing_exponent,
    renyi_half_prior,
    type_class_table_mi,
)

W_BSC = np.array([[0.9, 0.1], [0.1, 0.9]])
CHANNELS_DIR = Path(__file__).resolve().parent.parent / "channels"


@pytest.fixture(scope="module")
def bsc_session():
    channel = CQChannel.from_stochastic_matrix(W_BSC)
    return ChannelAnalysis(channel)


class TestRenyiMIChannel:
    def test_single_letter(self, rng):
        from conftest import random_density_matrix

        ch = CQChannel.from_states([random_density_matrix(2, rng)])
        rep = renyi_mi_channel(ch, 0.5)
        assert rep.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(rep.prior, [1.0])

    def test_orthogonal_pair_one_bit(self, orthogonal_pair):
        for alpha in (0.3, 0.6, 0.9):
            rep = renyi_mi_channel(orthogonal_pair, alpha)
            assert rep.value == pytest.approx(1.0, abs=1e-9)
            assert np.allclose(rep.prior, [0.5, 0.5], atol=1e-6)

    def test_bsc_against_dense_grid_oracle(self, bsc_channel):
        alpha = 2.0 / 3.0
        rep = renyi_mi_channel(bsc_channel, alpha)
        grid = np.linspace(0.0, 1.0, 1001)
        oracle = max(
            classical_channel_renyi_mi(W_BSC, np.array([p, 1 - p]), alpha) for p in grid
        )
        assert rep.value >= oracle - 1e-9
        assert rep.value == pytest.approx(oracle, abs=1e-5)

    def test_report_value_matches_prior(self, rng):
        ch = random_channel(3, 2, rng)
        rep = renyi_mi_channel(ch, 0.7)
        assert rep.value == pytest.approx(
            renyi_mi_channel_prior(ch, rep.prior, 0.7), abs=1e-7
        )
        assert rep.converged

    def test_beats_uniform_and_vertices(self, rng):
        ch = random_channel(3, 2, rng)
        rep = renyi_mi_channel(ch, 0.6)
        assert rep.value >= renyi_mi_channel_prior(ch, np.ones(3) / 3, 0.6) - 1e-10
        for x in range(3):
            vertex = np.zeros(3)
            vertex[x] = 1.0
            assert rep.value >= renyi_mi_channel_prior(ch, vertex, 0.6) - 1e-10

    def test_alphabet_cap(self):
        # The |X| x |X| Hessian of a Newton step is held to CHUNK_ENTRIES =
        # 2^16 entries, checked before any letter function is built.
        ch = CQChannel.from_states([np.ones((1, 1))] * 257)
        message = "^66049 Hessian entries of alphabet 257 exceed ceiling 65536$"
        for solve in (lambda: renyi_mi_channel(ch, 0.5), lambda: holevo_capacity(ch), lambda: _row_stacks(ch, 1)):
            with pytest.raises(TooLarge, match=message):
                solve()

    def test_alphabet_at_the_cap(self):
        # 256 letters fill the 2^16 entries with their Hessian alone, so each
        # stacked row takes a stack of its own.
        ch = CQChannel.from_states([np.ones((1, 1))] * 256)
        for rep in (renyi_mi_channel(ch, 0.5), holevo_capacity(ch)):
            assert rep.converged and rep.value == 0.0
        assert _row_stacks(ch, 3) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_vertex_prior_reports_zero(self):
        # The only prior is a vertex, where I_alpha and chi are exactly 0, but
        # (lambda^a)^(1/a) rounds the trace to 1 + eps, as at alpha = 1/2, or
        # to 1 - eps, which a/(a-1) = -9 took to 1.4e-15 at alpha = 0.9: a
        # value within its rounding floor reads 0, and the gap is that of the
        # unrounded one.
        ch = CQChannel.from_states([np.diag([0.5, 0.5])])
        for rep in (renyi_mi_channel(ch, a) for a in (0.1, 0.5, 0.9)):
            assert rep.converged and rep.value == 0.0 and rep.gap == 0.0
        rep = holevo_capacity(ch)
        assert rep.converged and rep.value == 0.0 and rep.gap == 0.0

    def test_permutation_invariance(self, rng):
        ch = random_channel(3, 2, rng)
        value = renyi_mi_channel(ch, 0.5).value
        value_perm = renyi_mi_channel(ch.permuted([2, 0, 1]), 0.5).value
        assert value == pytest.approx(value_perm, abs=1e-9)

    def test_unitary_conjugation_invariance(self, rng):
        ch = random_channel(2, 2, rng)
        u = random_unitary(2, rng)
        rotated = CQChannel.from_states([u @ rho @ u.conj().T for rho in ch.outputs])
        assert renyi_mi_channel(ch, 0.5).value == pytest.approx(
            renyi_mi_channel(rotated, 0.5).value, abs=1e-8
        )

    def test_gradient_matches_finite_differences(self, rng):
        ch = random_channel(3, 2, rng)
        alpha = 0.6
        surrogate = _renyi_surrogate(ch, alpha)

        def mi(prior):
            return surrogate.maximand(surrogate.derivatives(prior)[0])[0]

        p = rng.dirichlet(np.ones(3))
        f, grad_f, *_ = surrogate.derivatives(p)
        grad = -surrogate.maximand(f)[1] * grad_f
        h = 1e-6
        for x in range(3):
            bump = np.zeros(3)
            bump[x] = h
            fd = (mi(p + bump) - mi(p - bump)) / (2 * h)
            assert grad[x] == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    def test_surrogate_derivatives_match_finite_differences(self, rng, alpha):
        ch = random_channel(4, 3, rng)
        if alpha == 1.0:
            surrogate = analysis._holevo_surrogate(ch)
        else:
            surrogate = _renyi_surrogate(ch, alpha)
        p = rng.dirichlet(np.ones(4))
        f, grad, hessian, _ = surrogate.derivatives(p)
        # The value of the maximand against the reference evaluator.
        reference = holevo_information(ch, p) if alpha == 1.0 else renyi_mi_channel_prior(ch, p, alpha)
        assert surrogate.maximand(f)[0] == pytest.approx(reference, rel=1e-13)
        hess = hessian()
        np.testing.assert_allclose(hess, hess.T, atol=1e-12)
        h = 1e-6
        for y in range(4):
            bump = np.zeros(4)
            bump[y] = h
            plus, minus = surrogate.derivatives(p + bump), surrogate.derivatives(p - bump)
            assert grad[y] == pytest.approx((plus[0] - minus[0]) / (2 * h), rel=1e-7)
            np.testing.assert_allclose(hess[:, y], (plus[1] - minus[1]) / (2 * h), rtol=1e-6)


class TestHolevoCapacity:
    def test_identical_outputs(self, identical_outputs):
        assert holevo_capacity(identical_outputs).value == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_pair(self, orthogonal_pair):
        rep = holevo_capacity(orthogonal_pair)
        assert rep.value == pytest.approx(1.0, abs=1e-9)

    def test_bsc_capacity(self, bsc_channel):
        h2 = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
        assert holevo_capacity(bsc_channel).value == pytest.approx(1 - h2, abs=1e-9)

    def test_pure_pair_against_dense_grid(self, pure_pair):
        # Pure outputs: chi(p) = S(p rho0 + (1-p) rho1); 1-D dense grid oracle.
        rep = holevo_capacity(pure_pair)
        ps = np.linspace(0.0, 1.0, 100001)
        mats = (
            ps[:, None, None] * pure_pair.outputs[0][None]
            + (1 - ps)[:, None, None] * pure_pair.outputs[1][None]
        )
        lam = np.clip(np.linalg.eigvalsh(mats), 1e-300, None)
        chi = -(lam * np.log2(lam)).sum(axis=1)
        assert rep.value == pytest.approx(float(chi.max()), abs=1e-6)

    def test_cross_check_against_renyi_near_one(self, rng):
        ch = random_channel(2, 2, rng)
        cap = holevo_capacity(ch).value
        near = renyi_mi_channel(ch, 1.0 - 1e-4).value
        assert abs(cap - near) <= 1e-3


def _letters_of_mixed_rank(k: int, d: int, rng) -> CQChannel:
    """k random states on C^d, each of a random rank in 1..d."""
    states = []
    for _ in range(k):
        rank = int(rng.integers(1, d + 1))
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        rho = g @ g.conj().T
        states.append(rho / np.trace(rho).real)
    return CQChannel.from_states(states)


def _mi_of_priors(channel: CQChannel, priors: np.ndarray, alpha: float) -> np.ndarray:
    """I_alpha(N, p) in bits for each row of ``priors``, from plain eigendecompositions."""
    outputs = channel.outputs
    if alpha == 1.0:
        def entropy(mats):
            w = np.clip(np.linalg.eigvalsh(mats), 1e-300, None)
            return -(w * np.log2(w)).sum(axis=-1)

        return entropy(np.einsum("km,mij->kij", priors, outputs)) - priors @ entropy(outputs)
    lam, vec = np.linalg.eigh(outputs)
    lam_a = np.where(lam > 1e-12, np.clip(lam, 1e-300, None) ** alpha, 0.0)
    powers = np.einsum("xij,xj,xkj->xik", vec, lam_a, vec.conj())
    w = np.clip(np.linalg.eigvalsh(np.einsum("km,mij->kij", priors, powers)), 0.0, None)
    return alpha / (alpha - 1.0) * np.log2((w ** (1.0 / alpha)).sum(axis=-1))


class TestPriorCertificate:
    """Single-start Newton solves certified by the Frank-Wolfe gap."""

    @pytest.mark.parametrize("case", range(20))
    def test_gap_bounds_every_probe(self, case):
        rng = np.random.default_rng([4021, case])
        k, d = int(rng.integers(2, 9)), int(rng.integers(2, 5))
        alpha = (0.2, 0.5, 0.8, 1.0)[case % 4]
        ch = _letters_of_mixed_rank(k, d, rng)
        rep = renyi_mi_channel(ch, alpha)
        assert rep.converged
        assert 0.0 <= rep.gap <= 1e-6
        probes = np.vstack([np.eye(k), rng.dirichlet(np.ones(k), size=2000)])
        # The gap is a bound on I* - I(p); 1e-12 absorbs rounding in the probes.
        assert _mi_of_priors(ch, probes, alpha).max() <= rep.value + rep.gap + 1e-12

    @pytest.mark.parametrize("case", range(5))
    @pytest.mark.parametrize("cap", [1, None])
    def test_gap_matches_the_log1p_bound(self, monkeypatch, case, cap):
        # The reported phi(f - G) - phi(f) against its closed form from the
        # Frank-Wolfe gap G_phi = -phi'(f) G of the maximand: G_phi at
        # alpha = 1, -a/(1-a) log2(1 - (1-a) ln2 G_phi / a) below. A run cut
        # after one iteration leaves gaps far above the tolerance.
        if cap is not None:
            monkeypatch.setattr("cqexp.simplex_opt.MAX_ITERATIONS", cap)
        rng = np.random.default_rng([4099, case])
        ch = _letters_of_mixed_rank(int(rng.integers(2, 6)), int(rng.integers(2, 4)), rng)
        for alpha in (0.05, 0.3, 0.7, 0.99, 1.0):
            rep = renyi_mi_channel(ch, alpha)
            surrogate = _holevo_surrogate(ch) if alpha == 1.0 else _renyi_surrogate(ch, alpha)
            f, grad, *_ = surrogate.derivatives(rep.prior)
            gap = surrogate.maximand(f)[1] * max(rep.prior @ grad - grad.min(), 0.0)
            if alpha < 1.0:
                shrink = (1.0 - alpha) * LN_BASE * gap / alpha
                gap = -alpha / (1.0 - alpha) * math.log1p(-shrink) / LN_BASE if shrink < 1.0 else math.inf
            assert rep.gap == pytest.approx(gap, rel=0, abs=1e-15)

    def test_gap_past_the_zero_of_f_is_infinite(self):
        # f - G <= 0 bounds nothing: I_a = +inf there, and so is the gap.
        assert _renyi_maximand(0.5, np.array([0.0, -1e-3]))[0].tolist() == [math.inf, math.inf]

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_warm_start_off_the_optimal_support(self, rng, alpha):
        ch = random_channel(3, 2, rng)
        cold = renyi_mi_channel(ch, alpha)
        used = int(np.argmax(cold.prior))
        warm_start = np.zeros(3)
        warm_start[(used + 1) % 3] = 1.0
        warm = renyi_mi_channel(ch, alpha, start=warm_start)
        assert warm.converged
        assert warm.value == pytest.approx(cold.value, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 0.99, 1.0])
    @pytest.mark.parametrize("vertex", [0, 1])
    def test_vertex_start_with_a_letter_off_its_support(self, orthogonal_pair, pure_pair, alpha, vertex):
        # At a vertex, A is one pure letter and the other letter has weight
        # outside supp(A); at alpha = 1 its derivative there is -inf.
        start = np.eye(2)[vertex]
        for ch in (orthogonal_pair, pure_pair):
            cold = renyi_mi_channel(ch, alpha)
            warm = renyi_mi_channel(ch, alpha, start=start)
            assert warm.converged
            assert warm.gap <= GAP_TOL
            assert warm.value == pytest.approx(cold.value, abs=1e-9)
        if alpha == 1.0:
            assert holevo_capacity(orthogonal_pair, start=start).value == pytest.approx(1.0, abs=1e-9)
            # Two pure states of overlap 1/2: chi = h((1 - 1/sqrt 2) / 2).
            e = (1.0 - math.sqrt(0.5)) / 2.0
            chi = -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)
            assert holevo_capacity(pure_pair, start=start).value == pytest.approx(chi, abs=1e-9)

    @pytest.mark.parametrize("case", range(6))
    def test_every_vertex_start_on_letters_of_mixed_rank(self, case):
        rng = np.random.default_rng([4077, case])
        k, d = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        ch = _letters_of_mixed_rank(k, d, rng)
        for alpha in (0.5, 1.0):
            cold = renyi_mi_channel(ch, alpha)
            for start in np.eye(k):
                warm = renyi_mi_channel(ch, alpha, start=start)
                assert warm.converged
                assert warm.value == pytest.approx(cold.value, abs=cold.gap + warm.gap + 1e-12)

    @pytest.mark.parametrize("bad", [
        np.zeros(3), np.array([0.5, 0.5]), np.array([1.5, -0.5, 0.0]),
        np.array([math.inf, 1.0, 0.0]), np.array([1e308, 1e308, 0.0]), np.array([math.nan, 1.0, 0.0]),
    ])
    def test_malformed_warm_start_rejected(self, rng, bad):
        ch = random_channel(3, 2, rng)
        with pytest.raises(ValueError):
            renyi_mi_channel(ch, 0.5, start=bad)
        with pytest.raises(ValueError):
            holevo_capacity(ch, start=bad)

    def test_iteration_cap_is_not_convergence(self, rng, monkeypatch):
        ch = random_channel(4, 2, rng)
        monkeypatch.setattr("cqexp.simplex_opt.MAX_ITERATIONS", 1)
        rep = renyi_mi_channel(ch, 0.5)
        assert rep.iterations == 1
        assert not rep.converged
        assert rep.gap > GAP_TOL

    def test_one_start(self):
        target = np.array([0.1, 0.2, 0.3, 0.4])

        def derivatives(points, rows):
            hessian = np.broadcast_to(2.0 * np.eye(4), (len(points), 4, 4))
            return ((points - target) ** 2).sum(axis=1), 2.0 * (points - target), lambda: hessian, None

        result = maximize_on_simplex(ConvexSurrogate(derivatives), 4)
        assert result.start_count == 1
        assert result.converged
        assert result.gap <= 1e-6
        np.testing.assert_allclose(result.prior, target, atol=1e-6)

    def test_line_search_rejects_full_steps(self):
        # f = log sum_x exp(c w_x p_x) / c + sum_x p_x^4 is convex and far from
        # quadratic, so some full Newton steps overshoot and are halved.
        w, c = np.array([3.0, -1.0, 0.5, 2.0]), 20.0
        calls = 0

        def derivatives(points, rows):
            # One start, so one row per evaluation.
            nonlocal calls
            calls += 1
            (point,) = points
            z = c * w * point
            soft = np.exp(z - z.max())
            f = (math.log(soft.sum()) + z.max()) / c + (point ** 4).sum()
            sw = soft / soft.sum() * w

            def hessian():
                return (c * (np.diag(sw * w) - np.outer(sw, sw)) + np.diag(12.0 * point ** 2))[None]

            return np.array([f]), (sw + 4.0 * point ** 3)[None], hessian, None

        points = []
        for start in (np.array([0.97, 0.01, 0.01, 0.01]), None, np.eye(4)[3]):
            calls = 0
            result = maximize_on_simplex(ConvexSurrogate(derivatives), 4, start=start)
            assert result.converged
            assert result.gap <= GAP_TOL
            # One evaluation at the start and one per accepted step, plus at
            # least one for a rejected trial.
            assert calls > result.iterations + 1
            points.append(result.prior)
        for point in points[1:]:
            np.testing.assert_allclose(point, points[0], rtol=0, atol=1e-6)


    @pytest.mark.parametrize("case", range(3))
    def test_lockstep_rows_are_one_row_runs(self, case):
        # Rows of different alphas and starts, one certified at its start and
        # the others taking Newton steps, each run as it would run alone, with
        # E0' from its last decomposition.
        rng = np.random.default_rng([4111, case])
        ch = _letters_of_mixed_rank(int(rng.integers(2, 6)), int(rng.integers(2, 4)), rng)
        cap = holevo_capacity(ch).prior
        alphas = [0.05, 0.3, 0.5, 0.7, 0.99]
        starts = [cap, rng.dirichlet(np.ones(ch.size)), renyi_mi_channel(ch, 0.5).prior, np.full(ch.size, 1.0), cap]
        reports, slopes = analysis._renyi_solve(ch, alphas, starts)
        assert reports[2].iterations == 0
        for alpha, start, got, slope in zip(alphas, starts, reports, slopes):
            want = renyi_mi_channel(ch, alpha, start=start)
            np.testing.assert_allclose(got.prior, want.prior, rtol=0, atol=1e-12)
            assert (got.iterations, got.converged) == (want.iterations, want.converged)
            assert got.value == pytest.approx(want.value, rel=0, abs=got.gap + want.gap + 1e-12)
            assert slope == pytest.approx(_row_slopes(ch, [alpha], [got.prior])[0], rel=0, abs=1e-12)

    def test_followers_start_from_their_leaders(self):
        # Rows 1 and 3 follow rows 0 and 2. Row 0 moves from its start, so
        # row 1 starts again from its final prior; row 2 stops at its start,
        # which is then row 3's start as well.
        targets = np.array([[0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.35, 0.35], [0.25] * 4, [0.4, 0.2, 0.2, 0.2]])

        def stack(rows):
            def derivatives(points, at=...):
                d = points - targets[rows][at]
                hessian = np.broadcast_to(2.0 * np.eye(4), (len(points), 4, 4))
                return (d ** 2).sum(axis=1), 2.0 * d, lambda: hessian, None

            return ConvexSurrogate(derivatives)

        starts = np.full((4, 4), 0.25)
        reports, _ = maximize_rows(stack(slice(None)), starts, [-1, 0, -1, 2])
        assert reports[0].iterations > 0 and reports[2].iterations == 0
        for row, start in ((1, reports[0].prior), (3, starts[2])):
            want = maximize_on_simplex(stack([row]), 4, start=start)
            np.testing.assert_allclose(reports[row].prior, want.prior, rtol=0, atol=1e-12)
            assert (reports[row].iterations, reports[row].converged) == (want.iterations, want.converged)


def _seeded_channel(seed: int, case: int, full_rank: bool = False) -> CQChannel:
    """|X| in 2..4 and d in 2..3 from default_rng([seed, case]); letters of
    mixed rank, or full rank."""
    rng = np.random.default_rng([seed, case])
    k, d = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    return random_channel(k, d, rng) if full_rank else _letters_of_mixed_rank(k, d, rng)


class TestConvergenceRegressions:
    """Channels on which exponentiated-gradient ascent stopped at its
    iteration cap or on a line-search stall short of the tolerance."""

    @pytest.mark.parametrize("draw", [34, 38])
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    def test_eight_letter_qubit_draws(self, draw, alpha):
        channel = CQChannel.from_states(list(draw_letters(draw)[1]))
        rep = renyi_mi_channel(channel, alpha)
        assert rep.converged
        assert rep.gap <= GAP_TOL

    @pytest.mark.parametrize(
        "seed, case", [(999, i) for i in range(25)] + [(555, i) for i in range(20)]
    )
    def test_full_session(self, seed, case):
        session = ChannelAnalysis(_seeded_channel(seed, case, full_rank=seed == 555))
        cap = session.capacity().value
        # Raises NumericalInstability on any unconverged solve.
        session.curve(np.linspace(0.1, 0.9, 4) * cap)
        for rep, _ in session._mi_cache.values():
            assert rep.converged
            assert rep.gap <= GAP_TOL


class TestExponentBounds:
    def test_bsc_matches_gallager_form(self, bsc_session):
        # ((1-a)/a) I_a with a = 1/2 is E0(1) at the best prior.
        got = bsc_session.mutual_info(0.5).value
        assert got == pytest.approx(best_prior_e0(1.0, W_BSC), abs=1e-9)

    def test_lower_zero_at_and_above_capacity(self, bsc_session):
        cap = bsc_session.capacity().value
        for r in (cap, cap + 0.2):
            res = bsc_session.lower_bound(r)
            assert res.value == pytest.approx(0.0, abs=1e-10)
            assert res.alpha == pytest.approx(1.0, abs=1e-6)

    def test_upper_zero_at_and_above_capacity(self, bsc_session):
        cap = bsc_session.capacity().value
        for r in (cap, cap + 0.2):
            res = bsc_session.upper_bound(r)
            assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_zero_rate_orthogonal_pair(self, orthogonal_pair):
        session = ChannelAnalysis(orthogonal_pair)
        res = session.lower_bound(0.0)
        assert res.value == pytest.approx(1.0, abs=1e-8)
        assert res.alpha == pytest.approx(0.5, abs=1e-8)

    def test_bsc_random_coding_oracle(self, bsc_session):
        got = bsc_session.lower_bound(0.3)
        oracle = classical_random_coding_exponent(W_BSC, 0.3)
        assert got.value == pytest.approx(oracle, abs=1e-5)

    def test_bsc_sphere_packing_oracle(self, bsc_session):
        got = bsc_session.upper_bound(0.3)
        oracle = classical_sphere_packing_exponent(W_BSC, 0.3)
        assert got.value == pytest.approx(oracle, abs=1e-5)

    def test_upper_dominates_lower(self, rng):
        for _ in range(2):
            session = ChannelAnalysis(random_channel(2, 2, rng))
            cap = session.capacity().value
            for frac in (0.2, 0.5, 0.9):
                r = frac * cap
                assert (
                    session.lower_bound(r).value
                    <= session.upper_bound(r).value + 1e-8
                )

    def test_unconverged_solve_raises(self, rng, monkeypatch):
        monkeypatch.setattr("cqexp.simplex_opt.MAX_ITERATIONS", 1)
        session = ChannelAnalysis(random_channel(4, 2, rng))
        with pytest.raises(NumericalInstability, match="did not converge"):
            session.lower_bound(0.1)
        assert not session._mi_cache

    @pytest.mark.parametrize("name", ["bsc01", "pure_pair"])
    def test_near_capacity_dispersion(self, name):
        # E(r) = (C - r)^2 / (2 V ln 2) (1 + O(C - r)) as r -> C, V the
        # channel dispersion at the capacity prior, in bits^2.
        channel = load_channel(CHANNELS_DIR / f"{name}.json")
        session = ChannelAnalysis(channel)
        cap = session.capacity()
        v = channel_dispersion(channel.outputs, cap.prior)
        for eps in (0.1, 0.01, 0.001):
            r = cap.value * (1.0 - eps)
            ratio = session.lower_bound(r).value * 2.0 * v * math.log(2.0) / (cap.value - r) ** 2
            assert abs(ratio - 1.0) <= 0.5 * eps

    @pytest.mark.parametrize("case", ["bsc01", "pure_pair", 0, 1, 2])
    def test_refinement_solves_per_bound(self, case):
        # Past the alpha grid, each bound is a short root search on
        # E0'(s) = r: two rounds of two warm-started probes, not dozens.
        if isinstance(case, str):
            channel = load_channel(CHANNELS_DIR / f"{case}.json")
        else:
            rng = np.random.default_rng([5303, case])
            channel = _letters_of_mixed_rank(int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
        session = ChannelAnalysis(channel)
        cap = session.capacity().value
        session._grid()
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            for bound in (session.lower_bound, session.upper_bound):
                before = len(session._mi_cache)
                bound(frac * cap)
                assert len(session._mi_cache) - before <= 4

    def test_alpha_floors_are_grid_points(self):
        grid = analysis.ALPHA_GRID.tolist()
        assert analysis.ACHIEVABILITY_ALPHA_MIN in grid
        assert analysis.SPHERE_PACKING_ALPHA_MIN in grid
        assert grid[-1] == 1.0

    @pytest.mark.parametrize("case, most", [("bsc01", 128), ("pure_pair", 120)])
    def test_curve_session_solve_count(self, monkeypatch, case, most):
        # The README exponent session: one 100-point alpha grid for both
        # bounds, and two rounds of root-search probe pairs, each round one
        # stack of the pairs of every open bracket (the bounds' _points calls
        # are the ones that pass starts).
        session = ChannelAnalysis(load_channel(CHANNELS_DIR / f"{case}.json"))
        points, rounds = session._points, []

        def counting(alphas, starts=None):
            rounds.append(starts)
            return points(alphas, starts)

        monkeypatch.setattr(session, "_points", counting)
        session.curve(np.linspace(0.05, 0.5, 10))
        assert len(session._mi_cache) <= most
        assert sum(starts is not None for starts in rounds) <= 2

    @pytest.mark.parametrize("case", ["bsc01", "pure_pair", 0, 1, 2])
    def test_bounds_identical_above_critical_rate(self, case):
        # Above r_c both maxima lie in alpha >= 1/2: the same grid cell and the
        # same cached probes, so the sphere-packing bound is the achievability
        # bound bit for bit, at no extra solve.
        if isinstance(case, str):
            channel = load_channel(CHANNELS_DIR / f"{case}.json")
        else:
            channel = _seeded_channel(999, case)
        session = ChannelAnalysis(channel)
        rc, cap = session.critical_rate(), session.capacity().value
        rates = [r for r in np.linspace(0.05, 0.95, 19) * cap if r >= rc + 1e-3]
        assert rates
        for r in rates:
            low = session.lower_bound(r)
            before = len(session._mi_cache)
            up = session.upper_bound(r)
            assert len(session._mi_cache) == before
            assert (up.value, up.alpha) == (low.value, low.alpha)


class TestPureLetterBounds:
    """Both bounds against the Burnashev-Holevo closed form of E0 for pure letters."""

    @pytest.mark.parametrize(
        "index", [i for i, ch in enumerate(pure_channels()) if ch.size <= 3]
    )
    @pytest.mark.parametrize("frac", [0.3, 0.7])
    def test_against_burnashev_holevo(self, index, frac):
        channel = pure_channels()[index]
        overlaps = pure_letter_overlaps(channel)
        session = ChannelAnalysis(channel)
        r = frac * session.capacity().value
        assert session.lower_bound(r).value == pytest.approx(
            pure_state_random_coding_exponent(overlaps, r), abs=1e-5
        )
        assert session.upper_bound(r).value == pytest.approx(
            pure_state_sphere_packing_exponent(overlaps, r), abs=1e-5
        )


def _row_slopes(channel: CQChannel, alphas, priors) -> np.ndarray:
    """E0' at each (alpha < 1, prior) row, from one evaluation per stack of the session's chunker."""
    alphas, priors = np.asarray(alphas, dtype=float), np.asarray(priors, dtype=float)
    return np.concatenate([
        _renyi_surrogate(channel, alphas[rows], slopes=True).derivatives(priors[rows])[3]()
        for rows in _row_stacks(channel, len(alphas))
    ])


class TestEnvelopeSlope:
    """E0'(s) at a fixed prior, from the closed form of the s-derivative."""

    @pytest.mark.parametrize("case", range(4))
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_matches_central_difference(self, case, alpha):
        rng = np.random.default_rng([6131, case])
        k, d = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        ch = _letters_of_mixed_rank(k, d, rng)
        prior = rng.dirichlet(np.ones(k))

        def e0(s: float) -> float:
            return s * renyi_mi_channel_prior(ch, prior, 1.0 / (1.0 + s))

        s, h = 1.0 / alpha - 1.0, 1e-4
        fd = (e0(s + h) - e0(s - h)) / (2.0 * h)
        assert _row_slopes(ch, [alpha], [prior])[0] == pytest.approx(fd, abs=1e-7)

    def test_alpha_one_is_holevo(self, rng):
        ch = _letters_of_mixed_rank(3, 2, rng)
        prior = rng.dirichlet(np.ones(3))
        *_, e0_slope = _renyi_derivatives(letter_powers(ch, 1.0), 1.0, prior)
        assert e0_slope(letter_power_logs(ch, 1.0)) == pytest.approx(
            renyi_mi_channel_prior(ch, prior, 1.0), abs=1e-12
        )


class TestLetterSpectra:
    """Letter functions from the one cached decomposition of the channel
    against per-letter matrix functions."""

    @staticmethod
    def _channel() -> CQChannel:
        # Ranks 1, 2 and 3 on C^3, and a letter with an eigenvalue of 1e-14
        # (relative), below the support cutoff, next to one of 1e-9 above it.
        rng = np.random.default_rng(2718)
        spectra = ([1.0, 0.0, 0.0], [0.6, 0.4, 0.0], [0.5, 0.3, 0.2], [1.0 - 1e-9 - 1e-14, 1e-9, 1e-14])
        states = []
        for lam in spectra:
            u = random_unitary(3, rng)
            states.append((u * np.asarray(lam)) @ u.conj().T)
        return CQChannel.from_states(states)

    @pytest.mark.parametrize("alpha", [0.01, 0.3, 0.99])
    def test_powers_and_power_logs_match_per_letter(self, alpha):
        ch = self._channel()
        per_letter = np.stack([mat_power(rho, alpha) for rho in ch.outputs])
        np.testing.assert_allclose(letter_powers(ch, alpha), per_letter, rtol=0, atol=1e-13)
        power_logs = spectral_map(*ch.spectra, lambda w: w ** alpha * np.log(w) / LN_BASE)
        per_letter = np.stack([mat_power(rho, alpha) @ log_base_psd(rho) for rho in ch.outputs])
        np.testing.assert_allclose(power_logs, per_letter, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.01, 0.3, 0.99])
    def test_e0_slope_matches_per_letter_formula(self, alpha):
        ch = self._channel()
        prior = np.random.default_rng(31).dirichlet(np.ones(ch.size))
        s = 1.0 / alpha - 1.0
        powers = [mat_power(rho, alpha) for rho in ch.outputs]
        a = sum(p * rho_a for p, rho_a in zip(prior, powers))
        a_prime = -alpha**2 * sum(
            p * rho_a @ log_base_psd(rho) for p, rho_a, rho in zip(prior, powers, ch.outputs)
        )
        a_pow = mat_power(a, 1.0 + s)
        d_trace = np.trace(a_pow @ log_base_psd(a) + (1.0 + s) * mat_power(a, s) @ a_prime).real
        expected = -d_trace / np.trace(a_pow).real
        assert _row_slopes(ch, [alpha], [prior])[0] == pytest.approx(expected, rel=1e-11, abs=1e-11)

    def test_curve_decomposition_cap(self, monkeypatch):
        # The capacity, one stack for the values, certificates and slopes of
        # the whole grid (r_c is its alpha = 1/2 slope), and one stack per
        # round of probe pairs of both bound kinds, two rounds on the files: a
        # certified probe is decomposed once. On an asymmetric channel each
        # round of a lockstep solve is one stack (the sequential solves took
        # 304 here).
        count = 0

        def counting(fn):
            def wrapped(*args, **kwargs):
                nonlocal count
                count += 1
                return fn(*args, **kwargs)

            return wrapped

        sessions = {
            name: ChannelAnalysis(load_channel(CHANNELS_DIR / f"{name}.json")) for name in ("bsc01", "pure_pair")
        }
        # Its 0.99 grid point takes two Newton steps from the capacity prior.
        sessions["seeded"] = ChannelAnalysis(_seeded_channel(999, 0))
        monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
        for name, most in (("bsc01", 4), ("pure_pair", 4), ("seeded", 19)):
            count = 0
            sessions[name].curve(np.linspace(0.05, 0.5, 10))
            assert count <= most, name


def _reference_channels() -> list[CQChannel]:
    """bsc01, pure_pair, noiseless_bit and five seeded channels of mixed rank."""
    files = [load_channel(CHANNELS_DIR / f"{name}.json") for name in ("bsc01", "pure_pair", "noiseless_bit")]
    return files + [_seeded_channel(999, i) for i in range(5)]


class TestStackedPaths:
    """The stacked grid, slopes and lockstep rounds against their one-row reference paths."""

    @pytest.mark.parametrize("index", range(8))
    def test_grid_is_the_sequential_chain(self, index):
        # Each grid point is the one-row solve from its start: the capacity
        # prior, or, for 0.98, 0.96, ..., 0.02, the solved point above it, a
        # link of the sequential chain down the grid.
        channel = _reference_channels()[index]
        grid = ChannelAnalysis(channel)._grid()
        cap = grid[-1][0]
        for i, alpha in enumerate(analysis.ALPHA_GRID[:-1].tolist()):
            got = grid[i][0]
            start = cap.prior if i % 2 == 0 else grid[i + 1][0].prior
            want = renyi_mi_channel(channel, alpha, start=start)
            np.testing.assert_allclose(got.prior, want.prior, rtol=0, atol=1e-12)
            assert (got.iterations, got.converged) == (want.iterations, want.converged)
            assert got.value == pytest.approx(want.value, rel=0, abs=got.gap + want.gap + 1e-12)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_grid_in_small_stacks_matches_one_stack(self, monkeypatch, rows):
        # Stacks of one row, or of three, where a point and the point it
        # follows fall into different stacks, give the grid of one stack.
        channel = _seeded_channel(999, 0)
        whole = ChannelAnalysis(channel)._grid()
        monkeypatch.setattr(analysis, "CHUNK_ENTRIES", rows * (channel.size * channel.dim ** 2 + channel.size ** 2))
        for (got, got_slope), (want, want_slope) in zip(ChannelAnalysis(channel)._grid(), whole):
            np.testing.assert_allclose(got.prior, want.prior, rtol=0, atol=1e-12)
            assert got.iterations == want.iterations
            assert got.value == pytest.approx(want.value, rel=0, abs=1e-12)
            assert got_slope == pytest.approx(want_slope, rel=0, abs=1e-12)

    @pytest.mark.parametrize("index", range(8))
    def test_stacked_slopes_match_one_row(self, index):
        channel = _reference_channels()[index]
        grid = ChannelAnalysis(channel)._grid()
        alphas = analysis.ALPHA_GRID[:-1]
        priors = [rep.prior for rep, _ in grid[:-1]]
        stacked = _row_slopes(channel, alphas, priors)
        single = [_row_slopes(channel, [a], [p])[0] for p, a in zip(priors, alphas)]
        np.testing.assert_allclose(stacked, single, rtol=0, atol=1e-12)
        # The slopes the solve returns, from its last decomposition of each row.
        np.testing.assert_allclose([slope for _, slope in grid[:-1]], stacked, rtol=0, atol=1e-12)
        # E0'(0) = chi(p*) = C.
        assert grid[-1][1] == grid[-1][0].value

    @pytest.mark.parametrize("index", range(8))
    def test_curve_matches_one_rate_at_a_time(self, index):
        channel = _reference_channels()[index]
        session = ChannelAnalysis(channel)
        rates = np.linspace(0.05, 0.95, 10) * session.capacity().value
        curve = session.curve(rates)
        single = ChannelAnalysis(channel)
        for r, row in zip(rates, curve.rows):
            low, up = single.lower_bound(r), single.upper_bound(r)
            assert row.lower == pytest.approx(low.value, rel=0, abs=1e-12)
            assert row.upper == pytest.approx(low.value if row.equal else up.value, rel=0, abs=1e-12)
            assert row.alpha_lower == pytest.approx(low.alpha, rel=0, abs=1e-12)
            assert row.alpha_upper == pytest.approx(up.alpha, rel=0, abs=1e-12)
            assert row.upper_saturated == up.saturated

    @pytest.mark.parametrize("index", range(8))
    @pytest.mark.parametrize("solve_first", [False, True])
    def test_call_order_does_not_move_results(self, index, solve_first):
        # The grid owns its points and r_c: a mutual_info at a grid point
        # before it, or bounds asked in another order, read the same grid.
        channel = _reference_channels()[index]
        session = ChannelAnalysis(channel)
        rates = np.linspace(0.05, 0.95, 10) * session.capacity().value
        curve = session.curve(rates)
        other = ChannelAnalysis(channel)
        if solve_first:
            other.mutual_info(0.5)
        ups = [other.upper_bound(r) for r in rates[::-1]][::-1]
        lows = [other.lower_bound(r) for r in rates]
        assert other.critical_rate() == pytest.approx(curve.critical_rate, rel=0, abs=1e-12)
        for row, low, up in zip(curve.rows, lows, ups):
            assert row.lower == pytest.approx(low.value, rel=0, abs=1e-12)
            assert row.upper == pytest.approx(low.value if row.equal else up.value, rel=0, abs=1e-12)
            assert row.alpha_lower == pytest.approx(low.alpha, rel=0, abs=1e-12)
            assert row.alpha_upper == pytest.approx(up.alpha, rel=0, abs=1e-12)


class TestRootSearch:
    """Each bound's pair search against a bisection of E0'(s) - r on one-row
    solves, which reads no grid, stack or cache."""

    @staticmethod
    def _reference_root(channel: CQChannel, r: float) -> tuple[float, np.ndarray]:
        """The root alpha of E0' = r by bisection on [0.01, 1] to 1e-12, or 0.01
        where E0' - r >= 0 already, and the last solved prior. E0' falls in s,
        so it rises in alpha; each solve starts from the last one's prior."""
        prior = None

        def excess(alpha: float) -> float:
            nonlocal prior
            prior = renyi_mi_channel(channel, alpha, start=prior).prior
            return _row_slopes(channel, [alpha], [prior])[0] - r

        lo, hi = analysis.SPHERE_PACKING_ALPHA_MIN, 1.0
        if excess(lo) >= 0.0:
            return lo, prior
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if excess(mid) < 0.0 else (lo, mid)
        return 0.5 * (lo + hi), prior

    @pytest.mark.parametrize("index", range(8))
    def test_bounds_match_bisection(self, monkeypatch, index):
        # Both floors at 10 rates: a refined alpha lies within ALPHA_TOL of
        # the root and ends on a sign change of E0' - r among the session's
        # probes at most ALPHA_TOL apart; the value is the objective at the
        # root, or at the floor above it. The same holds when no seed is
        # finite and every first center is the bracket's Illinois point.
        channel = _reference_channels()[index]
        rates = np.linspace(0.05, 0.95, 10) * holevo_capacity(channel).value
        floors = np.repeat([analysis.ACHIEVABILITY_ALPHA_MIN, analysis.SPHERE_PACKING_ALPHA_MIN], len(rates))
        rates = np.tile(rates, 2)
        roots = {r: self._reference_root(channel, r) for r in rates}
        wanted = []
        for floor, r in zip(floors, rates):
            root, prior = roots[r]
            at = max(root, floor)
            wanted.append((root, at, (1.0 - at) / at * (renyi_mi_channel(channel, at, start=prior).value - r)))
        for seeded in (True, False):
            if not seeded:
                monkeypatch.setattr(analysis, "_inverse_cubic_root", lambda x, g: np.full(len(x), np.nan))
            session = ChannelAnalysis(channel)
            bounds = session._bound(floors, rates)
            probes = np.array(list(session._mi_cache))
            slopes = np.array([slope for _, slope in session._mi_cache.values()])
            for got, floor, r, (root, at, value) in zip(bounds, floors, rates, wanted):
                assert got.value == pytest.approx(value, rel=0, abs=1e-10)
                assert got.alpha == pytest.approx(at, rel=0, abs=analysis.ALPHA_TOL)
                if root > floor:
                    excess = slopes[np.abs(probes - got.alpha) <= analysis.ALPHA_TOL] - r
                    assert excess.min() <= 0.0 <= excess.max()


class TestDiagonalLetters:
    """Exactly diagonal letters take their spectra uncut: an eigenvalue far
    below the relative support cutoff still counts in W^alpha at small alpha."""

    @staticmethod
    def _bsc(p: float):
        w = np.array([[1.0 - p, p], [p, 1.0 - p]])
        return w, CQChannel.from_stochastic_matrix(w)

    @pytest.mark.parametrize("p", [1e-14, 1e-13, 0.99e-12, 1e-12, 1.01e-12, 1e-11, 1e-10, 1e-9])
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.3, 0.5])
    def test_renyi_against_oracle(self, p, alpha):
        w, ch = self._bsc(p)
        uniform = np.array([0.5, 0.5])
        oracle = classical_channel_renyi_mi(w, uniform, alpha)
        assert renyi_mi_channel_prior(ch, uniform, alpha) == pytest.approx(oracle, abs=1e-12)
        assert renyi_mi_channel(ch, alpha).value == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("p", [1e-14, 1e-13, 0.99e-12, 1e-9])
    def test_sphere_packing_against_oracle(self, p):
        w, ch = self._bsc(p)
        got = ChannelAnalysis(ch).upper_bound(0.5)
        assert got.value == pytest.approx(classical_sphere_packing_exponent(w, 0.5), abs=1e-9)

    def test_spectra_exact_and_purity_test_still_cut(self):
        w, ch = self._bsc(1e-14)
        lam, vec = ch.spectra
        np.testing.assert_array_equal(lam, np.sort(w, axis=1)[:, ::-1])
        np.testing.assert_array_equal(np.einsum("xij,xj,xkj->xik", vec, lam, vec.conj()), ch.outputs)
        # The second eigenvalue is below SUPPORT_CUTOFF: the letters count as pure.
        assert pure_letter_overlaps(ch) is not None


class TestCriticalRate:
    def test_identical_outputs_zero(self, identical_outputs):
        assert ChannelAnalysis(identical_outputs).critical_rate() == pytest.approx(
            0.0, abs=1e-9
        )

    def test_bsc_matches_classical(self, bsc_session):
        got = bsc_session.critical_rate()
        assert got == pytest.approx(classical_critical_rate(W_BSC), abs=1e-4)

    def test_bsc_matches_gallager_derivative(self, bsc_session):
        # Uniform prior: E0(s) = s - (1+s) log2(p^a + q^a) with a = 1/(1+s),
        # so E0'(1) = 1 - log2(S) + a (p^a ln p + q^a ln q) / (S ln 2) at a = 1/2.
        p, q, a = 0.1, 0.9, 0.5
        total = p**a + q**a
        slope = 1.0 - np.log2(total) + a * (p**a * np.log(p) + q**a * np.log(q)) / (total * np.log(2))
        assert bsc_session.critical_rate() == pytest.approx(slope, abs=1e-12)

    def test_matches_slope_at_the_kkt_prior(self):
        # A stalled solve leaves the prior off its KKT point, and r_c inherits
        # that error to first order.
        channel = _seeded_channel(777, 0)
        assert channel.size == 4
        prior = renyi_half_prior(channel.outputs)
        assert ChannelAnalysis(channel).critical_rate() == pytest.approx(
            _row_slopes(channel, [0.5], [prior])[0], abs=1e-11
        )

    def test_below_capacity_on_random_channels(self, rng):
        for _ in range(2):
            session = ChannelAnalysis(random_channel(2, 2, rng))
            rc = session.critical_rate()
            assert -1e-7 <= rc <= session.capacity().value + 1e-7


class TestReliability:
    def test_exact_above_critical(self, bsc_session):
        rc = bsc_session.critical_rate()
        cap = bsc_session.capacity().value
        r = rc + 0.3 * (cap - rc)
        res = bsc_session.reliability(r)
        assert res.kind == "exact"
        assert res.lower == res.upper
        assert abs(bsc_session.upper_bound(r).value - res.lower) <= 1e-7

    def test_interval_below_critical(self, bsc_session):
        rc = bsc_session.critical_rate()
        res = bsc_session.reliability(0.5 * rc)
        assert res.kind == "interval"
        assert res.lower < res.upper

    def test_gap_matches_classical_oracle(self, bsc_session):
        rc = bsc_session.critical_rate()
        r = 0.5 * rc
        res = bsc_session.reliability(r)
        gap = res.upper - res.lower
        oracle_gap = classical_sphere_packing_exponent(W_BSC, r) - classical_random_coding_exponent(W_BSC, r)
        assert gap == pytest.approx(oracle_gap, abs=1e-5)

    def test_near_capacity_small_positive(self, bsc_session):
        cap = bsc_session.capacity().value
        res = bsc_session.reliability(cap - 1e-3)
        assert res.kind == "exact"
        assert 0.0 < res.lower < 1e-3

    def test_rate_above_capacity_raises(self, bsc_session):
        cap = bsc_session.capacity().value
        with pytest.raises(RateAboveCapacity):
            bsc_session.reliability(cap + 0.01)


class TestRateChecks:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_rates_rejected(self, bsc_session, rate):
        for method in (bsc_session.lower_bound, bsc_session.upper_bound, bsc_session.reliability):
            with pytest.raises(ValueError, match="finite"):
                method(rate)
        with pytest.raises(InvalidGrid, match="finite"):
            bsc_session.curve([0.1, rate] if rate > 0 else [rate, 0.1])


class TestExponentCurve:
    def test_rows_above_critical_are_equal(self, bsc_session):
        rc = bsc_session.critical_rate()
        cap = bsc_session.capacity().value
        rates = rc + np.array([0.1, 0.4, 0.7]) * (cap - rc)
        curve = bsc_session.curve(rates)
        assert all(row.equal for row in curve.rows)
        assert all(row.lower == row.upper for row in curve.rows)

    def test_reversed_grid_rejected(self, bsc_session):
        with pytest.raises(InvalidGrid):
            bsc_session.curve([0.4, 0.3, 0.2])

    def test_rows_non_increasing(self, bsc_session):
        rc = bsc_session.critical_rate()
        cap = bsc_session.capacity().value
        rates = np.linspace(0.3 * rc, 0.9 * cap, 6)
        curve = bsc_session.curve(rates)
        lowers = [row.lower for row in curve.rows]
        uppers = [row.upper for row in curve.rows]
        assert all(b <= a + 1e-8 for a, b in zip(lowers, lowers[1:]))
        assert all(b <= a + 1e-8 for a, b in zip(uppers, uppers[1:]))
        # flags flip exactly at the critical rate
        for row in curve.rows:
            assert row.equal == (row.rate >= curve.critical_rate - 1e-9)

    def test_outside_capacity_rejected(self, bsc_session):
        cap = bsc_session.capacity().value
        with pytest.raises(InvalidGrid):
            bsc_session.curve([cap / 2, cap + 0.1])


class TestConstantComposition:
    def test_single_letter_type_zero(self, pure_pair):
        for x, counts in enumerate([(1, 0), (0, 1)]):
            v = constant_composition_mi(pure_pair, TypeClass(1, counts), 0.5)
            assert v == pytest.approx(0.0, abs=1e-12)

    def test_vertex_type_matches_prior_formula(self, rng):
        ch = random_channel(2, 2, rng)
        for counts, prior in [((1, 0), [1.0, 0.0]), ((0, 1), [0.0, 1.0])]:
            assert constant_composition_mi(ch, TypeClass(1, counts), 0.5) == pytest.approx(
                renyi_mi_channel_prior(ch, prior, 0.5), abs=1e-12
            )

    def test_balanced_orthogonal_pair_half_bit_per_use(self, orthogonal_pair):
        # Uniform over {01, 10}: two orthogonal sequence states, so the
        # restricted ensemble is a noiseless bit: 1 bit over 2 uses.
        v = constant_composition_mi(orthogonal_pair, TypeClass(2, (1, 1)), 0.5)
        assert v == pytest.approx(0.5, abs=1e-12)

    def test_dimension_cap(self):
        # Mixed non-commuting letters take the dense body, capped at d^n = 16.
        ch = random_channel(2, 2, np.random.default_rng([20, 3]))
        assert not ch.is_classical() and pure_letter_overlaps(ch) is None
        tight = dataclasses.replace(DEFAULT_CONFIG, max_sim_dim=4)
        with pytest.raises(TooLarge):
            constant_composition_mi(ch, TypeClass(4, (2, 2)), 0.5, tight)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_one_sequence_classes_exactly_zero_on_every_path(self, monkeypatch, alpha):
        # A one-sequence class averages to a product state, so its trace is
        # exactly 1. The pure-pair (pure_pair), commuting (bsc01) and dense
        # (a mixed non-commuting 3-dimensional pair) paths would each give
        # rounding noise here, such as -1.4e-16 on the dense pair at
        # alpha = 0.3; none of them runs.
        channels = [
            load_channel(CHANNELS_DIR / "pure_pair.json"),
            load_channel(CHANNELS_DIR / "bsc01.json"),
            random_channel(2, 3, np.random.default_rng([20, 3])),
        ]
        assert not channels[2].is_classical() and pure_letter_overlaps(channels[2]) is None
        for name in ("gram_stack", "tensor_all", "mat_power", "_pure_pair_log_traces", "_commuting_levels"):
            monkeypatch.setattr(analysis, name, None)  # any body call fails
        for ch in channels:
            for n in (1, 3):
                for x in range(ch.size):
                    counts = tuple(n if a == x else 0 for a in range(ch.size))
                    v = constant_composition_mi(ch, TypeClass(n, counts), alpha)
                    assert v == 0.0 and math.copysign(1.0, v) == 1.0


class TestConstantCompositionGram:
    """The Gram path for pure letters against the dense d^n body."""

    @staticmethod
    def _dense(monkeypatch, channel, t, alpha):
        # With no overlap table and no common eigenbasis the function runs
        # its dense d^n body.
        with monkeypatch.context() as m:
            m.setattr(analysis, "pure_letter_overlaps", lambda ch: None)
            m.setattr(CQChannel, "is_classical", lambda self: False)
            return constant_composition_mi(channel, t, alpha)

    @pytest.mark.parametrize("idx", range(len(pure_channels())))
    def test_matches_dense_on_every_type(self, monkeypatch, idx):
        ch = pure_channels()[idx]
        worst = 0.0
        for n in range(1, 7):
            if ch.dim ** n > DEFAULT_CONFIG.max_sim_dim:
                break
            for t in enumerate_types(n, ch.size):
                for alpha in (0.3, 0.7):
                    gram = constant_composition_mi(ch, t, alpha)
                    worst = max(worst, abs(gram - self._dense(monkeypatch, ch, t, alpha)))
        assert worst <= 1e-12

    def test_one_sequence_classes_exactly_zero(self):
        for ch in pure_channels():
            for x in range(ch.size):
                for n in (1, 3):
                    counts = tuple(n if a == x else 0 for a in range(ch.size))
                    v = constant_composition_mi(ch, TypeClass(n, counts), 0.5)
                    assert v == 0.0 and math.copysign(1.0, v) == 1.0

    def test_first_enumerated_type_wins_the_n1_tie(self, pure_pair):
        t, v = best_type(pure_pair, 1, 0.5)
        assert t.counts == (1, 0) and v == 0.0

    def test_cap_is_type_class_size(self):
        ch = pure_channels()[2]  # three pure qubit letters: the Gram path
        assert ch.size == 3 and ch.dim == 2 and not ch.is_classical()
        t = TypeClass(4, (2, 1, 1))  # |T| = 12 sequences in a 16-dimensional space
        at_size = dataclasses.replace(DEFAULT_CONFIG, max_sim_dim=12)
        assert constant_composition_mi(ch, t, 0.5, at_size) == constant_composition_mi(ch, t, 0.5)
        with pytest.raises(TooLarge):
            constant_composition_mi(ch, t, 0.5, dataclasses.replace(DEFAULT_CONFIG, max_sim_dim=11))

    def test_class_larger_than_space_takes_dense_body(self, monkeypatch):
        # Three pure qubit letters, type (3, 3, 2): |T| = 560 sequences in a
        # 2^8 = 256-dimensional space, so the dense body is the smaller one
        # and the cap stays d^n.
        ch = pure_channels()[2]
        assert ch.size == 3 and ch.dim == 2
        t = TypeClass(8, (3, 3, 2))
        assert t.sequence_count() == 560
        with monkeypatch.context() as m:
            m.setattr(analysis, "gram_stack", None)  # any Gram call fails
            at_dim = dataclasses.replace(DEFAULT_CONFIG, max_sim_dim=256)
            value = constant_composition_mi(ch, t, 0.5, at_dim)
            with pytest.raises(TooLarge):
                constant_composition_mi(ch, t, 0.5, dataclasses.replace(at_dim, max_sim_dim=255))
        assert value == self._dense(monkeypatch, ch, t, 0.5)

    def test_near_pure_letter_takes_dense_path(self, monkeypatch):
        near = np.diag([1.0 - 1e-9, 1e-9]).astype(complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        ch = CQChannel.from_states([near, plus])
        t = TypeClass(3, (2, 1))
        assert constant_composition_mi(ch, t, 0.5) == self._dense(monkeypatch, ch, t, 0.5)
        # The cap is still the state dimension 2^3 = 8, not |T| = 3.
        with pytest.raises(TooLarge):
            constant_composition_mi(ch, t, 0.5, dataclasses.replace(DEFAULT_CONFIG, max_sim_dim=7))

    def test_pure_letters_past_two_keep_the_gram_path(self, monkeypatch):
        # {|0>, |1>, |+>}: pure letters that do not commute, three of them.
        zero, one = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
        ch = CQChannel.from_states([zero, one, np.full((2, 2), 0.5, dtype=complex)])
        for name in ("_commuting_levels", "tensor_all"):
            monkeypatch.setattr(analysis, name, None)  # any commuting or dense call fails
        # Uniform over {01, 10}: two orthogonal sequence states, 1 bit over 2 uses.
        assert constant_composition_mi(ch, TypeClass(2, (1, 1, 0)), 0.5) == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(TooLarge):  # the cap is still |T| = 12, not d^n = 16
            constant_composition_mi(
                ch, TypeClass(4, (2, 1, 1)), 0.5, dataclasses.replace(DEFAULT_CONFIG, max_sim_dim=11)
            )


def _rotated_classical(k: int, d: int, seed: int) -> CQChannel:
    """Commuting letters U diag(W[x]) U^dagger, neither diagonal nor pure."""
    rng = np.random.default_rng([seed, k, d])
    w = rng.dirichlet(np.ones(d), size=k)
    u = random_unitary(d, rng)
    return CQChannel.from_states([u @ np.diag(row.astype(complex)) @ u.conj().T for row in w])


class TestConstantCompositionTable:
    """The commuting-letter path, one diagonal entry per output type, against the dense d^n body."""

    # (channel, blocklengths): bsc01 and three seeded rotated binary-input
    # channels at every n <= 8, and a three-letter one where 3^n classes stay small.
    SWEEP = [(None, 8), ((2, 2, 1), 8), ((2, 2, 2), 8), ((2, 2, 3), 8), ((3, 2, 4), 6)]

    @pytest.mark.parametrize("shape, n_max", SWEEP)
    def test_matches_dense_on_every_type(self, monkeypatch, shape, n_max):
        ch = load_channel(CHANNELS_DIR / "bsc01.json") if shape is None else _rotated_classical(*shape)
        assert ch.is_classical() and pure_letter_overlaps(ch) is None
        worst = 0.0
        for n in range(1, n_max + 1):
            for t in enumerate_types(n, ch.size):
                for alpha in (0.3, 0.7):
                    table = constant_composition_mi(ch, t, alpha)
                    dense = TestConstantCompositionGram._dense(monkeypatch, ch, t, alpha)
                    worst = max(worst, abs(table - dense))
        assert worst <= 1e-12

    def test_builds_no_d_n_matrix(self, monkeypatch):
        ch = load_channel(CHANNELS_DIR / "bsc01.json")
        for name in ("tensor_all", "mat_power", "gram_stack"):
            monkeypatch.setattr(analysis, name, None)  # any call fails
        wide = dataclasses.replace(DEFAULT_CONFIG, max_sim_dim=4096)
        assert constant_composition_mi(ch, TypeClass(12, (6, 6)), 0.3, wide) == pytest.approx(0.2048273953, abs=1e-9)

    def test_chunks_match_one_table(self, monkeypatch):
        ch = _rotated_classical(3, 2, 3)
        t = TypeClass(6, (2, 2, 2))
        whole = constant_composition_mi(ch, t, 0.3)
        monkeypatch.setattr(analysis, "CHUNK_ENTRIES", 1)
        assert constant_composition_mi(ch, t, 0.3) == pytest.approx(whole, abs=1e-15)

    def test_cap_is_output_type_count(self):
        # rho_T holds one distinct value per output type: n + 1 = 10 of them
        # at n = 9, not d^n = 512, so the default cap of 256 admits it.
        ch = load_channel(CHANNELS_DIR / "bsc01.json")
        t = TypeClass(9, (5, 4))
        at_count = dataclasses.replace(DEFAULT_CONFIG, max_sim_dim=10)
        assert constant_composition_mi(ch, t, 0.3, at_count) == constant_composition_mi(ch, t, 0.3) > 0.0
        with pytest.raises(TooLarge, match="^eigenvalue count 10 exceeds cap 9$"):
            constant_composition_mi(ch, t, 0.3, dataclasses.replace(DEFAULT_CONFIG, max_sim_dim=9))


class TestSymmetricPaths:
    """The pure-pair (Johnson scheme) and commuting (output type) paths against
    the Gram body and the table oracle, at every type with n <= 10."""

    WIDE = dataclasses.replace(DEFAULT_CONFIG, max_sim_dim=4096)
    ALPHAS = (0.1, 0.5, 0.9)

    @staticmethod
    def _gram(channel, t, alpha):
        overlaps = pure_letter_overlaps(channel)
        trace = analysis._decomposed_trace(channel, t, alpha, overlaps, TestSymmetricPaths.WIDE)
        return alpha / (alpha - 1.0) / t.n * math.log(trace) / LN_BASE

    @pytest.mark.parametrize("case", ["pure_pair", "noiseless_bit", (2, 0), (2, 1), (3, 2)])
    def test_pure_pairs_match_gram(self, case):
        # (d, seed): seeded pure letter pairs in d dimensions.
        if isinstance(case, str):
            ch = load_channel(CHANNELS_DIR / f"{case}.json")
        else:
            ch = random_pure_channel(2, case[0], np.random.default_rng([4343, *case]))
        assert pure_letter_overlaps(ch) is not None and ch.size == 2
        worst = 0.0
        for n in range(2, 11):
            for t in enumerate_types(n, 2):
                for alpha in self.ALPHAS:
                    worst = max(worst, abs(constant_composition_mi(ch, t, alpha) - self._gram(ch, t, alpha)))
        assert worst <= 1e-12

    # (|X|, d, seed, n_max): bsc01, noiseless_bit (patched off the pure-pair
    # path), and seeded rotated commuting channels with |X| = 2, 3 and 4.
    @pytest.mark.parametrize("case", [
        "bsc01", "noiseless_bit", (2, 2, 5, 10), (2, 3, 6, 8), (3, 2, 7, 10), (4, 2, 8, 7), (3, 3, 9, 7),
    ])
    def test_commuting_matches_table_oracle(self, monkeypatch, case):
        if isinstance(case, str):
            ch, n_max = load_channel(CHANNELS_DIR / f"{case}.json"), 10
        else:
            ch, n_max = _rotated_classical(*case[:3]), case[3]
        monkeypatch.setattr(analysis, "pure_letter_overlaps", lambda channel: None)
        assert ch.is_classical()
        w = ch.induced_stochastic_matrix()
        worst = 0.0
        for n in range(2, n_max + 1):
            for t in enumerate_types(n, ch.size):
                if t.sequence_count() == 1:
                    continue
                for alpha in self.ALPHAS:
                    value = constant_composition_mi(ch, t, alpha, self.WIDE)
                    worst = max(worst, abs(value - type_class_table_mi(w, t.counts, alpha)))
        assert worst <= 1e-12

    def test_stack_matches_one_class_at_a_time(self):
        # best_type takes every type of every blocklength as one stack; each
        # value must be the one constant_composition_mi gives that class alone.
        for name in ("pure_pair", "bsc01"):
            ch = load_channel(CHANNELS_DIR / f"{name}.json")
            for n in range(1, 9):
                t, v = best_type(ch, n, 0.3)
                values = [constant_composition_mi(ch, u, 0.3) for u in enumerate_types(n, 2)]
                assert v == max(values) and t == enumerate_types(n, 2)[values.index(v)]

    @pytest.mark.parametrize("name", ["pure_pair", "noiseless_bit", "bsc01"])
    def test_no_sequence_is_enumerated(self, monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError("a symmetric path enumerated sequences or built a matrix")

        for module in (linalg, typeclasses, analysis):
            for attr in ("gram_stack", "_sequence_table", "tensor_all", "enumerate_sequences"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
        ch = load_channel(CHANNELS_DIR / f"{name}.json")
        target = renyi_mi_channel(ch, 0.5).value
        values = [v for _, _, v in best_type_up_to(ch, 40, 0.5)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert 0.0 < values[-1] <= target + 1e-9

    def test_gap_to_channel_information_shrinks_to_n_200(self):
        ch = load_channel(CHANNELS_DIR / "pure_pair.json")
        target = renyi_mi_channel(ch, 0.5).value
        rows = best_type_up_to(ch, 200, 0.5)
        gaps = [target - rows[n - 1][2] for n in (10, 20, 50, 100, 200)]
        assert all(0.0 < b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3
        assert rows[-1][1].counts == (100, 100)

    def test_cap_is_distinct_eigenvalue_count(self, pure_pair):
        # G_T of type (4, 2) has min(k, n - k) + 1 = 3 distinct eigenvalues.
        t = TypeClass(6, (4, 2))
        at_count = dataclasses.replace(DEFAULT_CONFIG, max_sim_dim=3)
        assert constant_composition_mi(pure_pair, t, 0.5, at_count) == constant_composition_mi(pure_pair, t, 0.5)
        with pytest.raises(TooLarge, match="^eigenvalue count 3 exceeds cap 2$"):
            constant_composition_mi(pure_pair, t, 0.5, dataclasses.replace(DEFAULT_CONFIG, max_sim_dim=2))

    @pytest.mark.parametrize("case", [("pair", 2, 2), ("commuting", 2, 2), ("commuting", 3, 2), ("commuting", 2, 3)])
    def test_class_entries_closed_form(self, monkeypatch, case):
        # Two pure letters: against the sum over the classes of
        # (min(k, n - k) + 1)^2. Commuting letters: against the terms that the
        # recurrence reduces over the input letter (axis 0) while it builds
        # level n, counted from the level before it was yielded; the reduction
        # of each level over the output types (the last axis) is not counted.
        path, size, d = case
        reduce, built = analysis._logsumexp, []

        def counting(x, axis=-1):
            if axis == 0:
                built.append(x.size)
            return reduce(x, axis)

        monkeypatch.setattr(analysis, "_logsumexp", counting)
        w = np.random.default_rng([2525, size, d]).dirichlet(np.ones(d), size=size)
        levels = analysis._commuting_levels(w, 12, 0.5)
        for n in range(1, 13):
            if path == "pair":
                want = sum((min(k, n - k) + 1) ** 2 for k in range(n + 1))
            else:
                built.clear()
                next(levels)
                want = sum(built)
            assert analysis._class_entries(path, n, size, d) == want

    @staticmethod
    def _six_letters():
        """Six seeded commuting qubit letters."""
        rng = np.random.default_rng([2207, 6])
        ch = CQChannel.from_states([np.diag(w).astype(complex) for w in rng.dirichlet(np.ones(2), size=6)])
        assert ch.is_classical() and ch.size == 6
        return ch

    def test_commuting_work_is_held_to_the_entry_ceiling(self, monkeypatch):
        # Six commuting qubit letters: 6 C(n + 5, 5) (n + 1) terms at level n
        # of the recurrence, 14 152 320 at n = 23 and 17 813 250 at n = 24,
        # past MAX_CLASS_ENTRIES = 2^24; the n + 1 output types stay far
        # inside any --max-dim.
        ch = self._six_letters()
        wide = dataclasses.replace(DEFAULT_CONFIG, max_sim_dim=10 ** 9)
        assert constant_composition_mi(ch, TypeClass(12, (2, 2, 2, 2, 2, 2)), 0.5, wide) > 0.0
        with pytest.raises(TooLarge, match="^17813250 table entries at one blocklength exceed ceiling 16777216$"):
            constant_composition_mi(ch, TypeClass(24, (4, 4, 4, 4, 4, 4)), 0.5, wide)
        monkeypatch.setattr(analysis, "_commuting_levels", None)  # nothing may be evaluated
        monkeypatch.setattr(analysis, "type_counts", None)  # nor any type built
        for n_max in (24, 10 ** 6):
            with pytest.raises(TooLarge, match="table entries at one blocklength exceed"):
                best_type_up_to(ch, n_max, 0.5, wide)

    @pytest.mark.parametrize("n_max", [16, 18])
    def test_best_type_up_to_builds_each_level_once(self, monkeypatch, n_max):
        # Six commuting qubit letters: sum_n C(n + 5, 5) types pass
        # CHUNK_ENTRIES = 2^16 at n = 16. Restarting the recurrence for every
        # stack of at most that many types built 31 levels to n = 16 (stacks
        # to 15 and 16) and 50 to n = 18 (stacks to 15, 17 and 18).
        levels, built = analysis._commuting_levels, []

        def counting(*args):
            for level in levels(*args):
                built.append(len(level[0]))
                yield level

        monkeypatch.setattr(analysis, "_commuting_levels", counting)
        rows = best_type_up_to(self._six_letters(), n_max, 0.5)
        assert built == [typeclasses.type_count(n, 6) for n in range(1, n_max + 1)]
        assert [n for n, _, _ in rows] == list(range(1, n_max + 1))

    @staticmethod
    def _all_classes(channel, counts, n_max=10):
        # Per-use information at alpha = 1/2 of the class of each row of
        # ``counts``, types of n <= n_max, read from the levels of one run of
        # the recurrence; 0 for a class of one sequence.
        ns, values = counts.sum(axis=1), np.zeros(len(counts))
        levels = analysis._commuting_levels(channel.induced_stochastic_matrix(), n_max, 0.5)
        for n, (_, log_traces) in enumerate(levels, start=1):
            at = (ns == n) & (counts.max(axis=1) < n)
            values[at] = -log_traces[typeclasses.type_index(counts[at], n)] / n / LN_BASE
        return values

    @pytest.mark.parametrize("seed", range(3))
    def test_relabelled_inputs_permute_the_class_values(self, seed):
        # Letter i of the relabelled channel is letter perm[i], so its class
        # of counts c is the class of counts c' with c'[perm] = c.
        rng = np.random.default_rng([3131, seed])
        ch = CQChannel.from_states([np.diag(w).astype(complex) for w in rng.dirichlet(np.ones(3), size=4)])
        assert ch.is_classical() and pure_letter_overlaps(ch) is None
        perm = rng.permutation(4)
        counts = typeclasses.type_counts(range(1, 11), 4)
        moved = np.empty_like(counts)
        moved[:, perm] = counts
        relabelled = self._all_classes(ch.permuted(perm), counts)
        np.testing.assert_allclose(relabelled, self._all_classes(ch, moved), rtol=0, atol=1e-12)
        assert relabelled.max() > 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_permuted_outputs_leave_the_class_values(self, seed):
        rng = np.random.default_rng([3232, seed])
        w = rng.dirichlet(np.ones(3), size=4)
        ch = CQChannel.from_states([np.diag(row).astype(complex) for row in w])
        swapped = CQChannel.from_states([np.diag(row).astype(complex) for row in w[:, rng.permutation(3)]])
        counts = typeclasses.type_counts(range(1, 11), 4)
        np.testing.assert_allclose(
            self._all_classes(swapped, counts), self._all_classes(ch, counts), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("name", ["pure_pair", "bsc01"])
    def test_caps_are_checked_before_any_type_is_built(self, monkeypatch, name):
        ch = load_channel(CHANNELS_DIR / f"{name}.json")
        monkeypatch.setattr(analysis, "type_counts", None)  # any type stack fails
        with pytest.raises(TooLarge, match="^eigenvalue count"):
            best_type_up_to(ch, 100_000, 0.5)
        with pytest.raises(TooLarge, match="table entries at one blocklength exceed ceiling 16777216$"):
            best_type_up_to(ch, 100_000, 0.5, dataclasses.replace(DEFAULT_CONFIG, max_sim_dim=10 ** 9))

    def test_one_entry_table_chunks_leave_the_winners(self, monkeypatch):
        # CHUNK_ENTRIES = 1 puts each pure-pair table, and each cell of a level
        # of the commuting recurrence, in a chunk of its own, which moves sums
        # by an ulp but no winner.
        for name in ("pure_pair", "bsc01"):
            ch = load_channel(CHANNELS_DIR / f"{name}.json")
            whole = best_type_up_to(ch, 30, 0.3)
            with monkeypatch.context() as patch:
                patch.setattr(analysis, "CHUNK_ENTRIES", 1)
                parts = best_type_up_to(ch, 30, 0.3)
            assert [row[:2] for row in parts] == [row[:2] for row in whole]
            assert [row[2] for row in parts] == pytest.approx([row[2] for row in whole], rel=0, abs=1e-15)


class TestBestType:
    def test_n1_is_vertex_maximum(self, pure_pair):
        t, v = best_type(pure_pair, 1, 0.5)
        assert v == pytest.approx(0.0, abs=1e-12)
        assert max(t.counts) == 1

    def test_orthogonal_pair_balanced_wins_at_n2(self, orthogonal_pair):
        t, v = best_type(orthogonal_pair, 2, 0.5)
        assert t.counts == (1, 1)
        values = {
            counts: constant_composition_mi(orthogonal_pair, TypeClass(2, counts), 0.5)
            for counts in [(2, 0), (1, 1), (0, 2)]
        }
        assert v == pytest.approx(max(values.values()), abs=1e-12)

    def test_bounded_by_channel_information(self, pure_pair):
        target = renyi_mi_channel(pure_pair, 0.5).value
        for n in range(1, 5):
            _, v = best_type(pure_pair, n, 0.5)
            assert v <= target + 1e-8

    def test_running_best_is_monotone(self, pure_pair):
        rows = best_type_up_to(pure_pair, 5, 0.5)
        values = [v for _, _, v in rows]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        # the exact per-n sequence dips at odd n; the running best must not
        exact = [best_type(pure_pair, n, 0.5)[1] for n in range(1, 6)]
        assert exact[2] < exact[1]  # parity dip is real
        assert values[2] >= values[1]


class TestAdditivity:
    def test_product_with_noiseless_bit(self, rng, orthogonal_pair):
        # I(N (x) noiseless bit) = I(N) + 1; joint optimization over the
        # 4-letter product alphabet.
        ch = random_channel(2, 2, rng)
        alpha = 0.5
        single = renyi_mi_channel(ch, alpha).value
        product = ch.tensor(orthogonal_pair)
        joint = renyi_mi_channel(product, alpha).value
        assert joint == pytest.approx(single + 1.0, abs=1e-3)

    @pytest.mark.parametrize("case", ["bsc01", "pure_pair", 0, 1, 2] + [
        pytest.param((k, case), id=f"{k}-letters-{case}") for k in (3, 4, 8) for case in range(3)
    ])
    def test_product_curve_is_twice_the_curve(self, case):
        # E0 of N (x) N is 2 E0 of N, so every bound, r_c and C double along
        # the whole pipeline: grid, root search and rows. The optimizing alpha
        # is the root of E0'(s) = r, the same for both, and each search pins
        # it within its final bracket. Seeded bases have 2, 3, 4 or 8 qubit
        # letters, so N (x) N has up to 64.
        if isinstance(case, str):
            channel = load_channel(CHANNELS_DIR / f"{case}.json")
        else:
            k, case = case if isinstance(case, tuple) else (2, case)
            channel = random_channel(k, 2, np.random.default_rng([6060, case]))
        session = ChannelAnalysis(channel)
        rates = np.linspace(0.05, 0.95, 10) * session.capacity().value
        one = session.curve(rates)
        two = ChannelAnalysis(channel.tensor(channel)).curve(2.0 * rates)
        assert two.critical_rate == pytest.approx(2.0 * one.critical_rate, rel=0, abs=1e-12)
        assert two.capacity == pytest.approx(2.0 * one.capacity, rel=0, abs=1e-12)
        for a, b in zip(one.rows, two.rows):
            assert b.lower == pytest.approx(2.0 * a.lower, rel=0, abs=1e-12)
            assert b.upper == pytest.approx(2.0 * a.upper, rel=0, abs=1e-12)
            assert b.equal == a.equal
            assert b.alpha_lower == pytest.approx(a.alpha_lower, rel=0, abs=analysis.ALPHA_TOL)
            assert b.alpha_upper == pytest.approx(a.alpha_upper, rel=0, abs=analysis.ALPHA_TOL)

    @pytest.mark.parametrize("case", range(3))
    def test_product_information_is_twice_the_information(self, case):
        # I_alpha and C of N (x) N, 64 letters, are twice those of N, each
        # value within its certified gap of the optimum.
        channel = random_channel(8, 2, np.random.default_rng([6060, case]))
        product = channel.tensor(channel)
        for alpha in (0.1, 0.5, 0.9, 1.0):
            one, two = renyi_mi_channel(channel, alpha), renyi_mi_channel(product, alpha)
            assert one.converged and two.converged
            assert two.value == pytest.approx(2.0 * one.value, rel=0, abs=two.gap + 2.0 * one.gap)


def test_analysis_does_not_import_coding():
    # The package __init__ re-exports every module, so a fresh interpreter
    # imports analysis under a bare cqexp package to see what it loads itself.
    code = (
        "import sys, types\n"
        f"package = types.ModuleType('cqexp'); package.__path__ = [{str(Path(analysis.__file__).parent)!r}]\n"
        "sys.modules['cqexp'] = package\n"
        "import cqexp.analysis\n"
        "print(sorted(name for name in sys.modules if name.startswith('cqexp.')))\n"
    )
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert "'cqexp.analysis'" in loaded and "'cqexp.coding'" not in loaded
