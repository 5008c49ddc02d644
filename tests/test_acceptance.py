"""Acceptance suite: one test per project criterion, each ending with a
printed PASS line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cqexp import (
    CQChannel,
    ChannelAnalysis,
    best_type_up_to,
    cq_state,
    enumerate_sequences,
    enumerate_types,
    estimate_exponent,
    holevo_information,
    load_channel,
    petz_divergence,
    renyi_mi_channel,
    renyi_mi_channel_prior,
    sibson_minimizer,
    tensor,
    type_probability,
)
from cqexp.cli import main as cli_main

from conftest import random_channel, random_density_matrix
from oracles import (
    classical_random_coding_exponent,
    classical_sphere_packing_exponent,
    gallager_e0,
)

W_BSC = np.array([[0.9, 0.1], [0.1, 0.9]])


def report(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion}] PASS: {message}")


@pytest.fixture(scope="module")
def bsc_session():
    return ChannelAnalysis(CQChannel.from_stochastic_matrix(W_BSC))


def test_criterion_1_classical_reduction_exactness():
    """I_alpha(N, p) on diagonal embeddings reproduces the Gallager form."""
    rng = np.random.default_rng(101)
    alphas = np.linspace(0.05, 0.95, 10)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        kx = int(rng.integers(2, 4))
        ky = int(rng.integers(2, 4))
        w = rng.dirichlet(np.ones(ky) * 2.0, size=kx)
        prior = rng.dirichlet(np.ones(kx))
        channel = CQChannel.from_stochastic_matrix(w)
        for alpha in alphas:
            s = (1.0 - alpha) / alpha
            mi = renyi_mi_channel_prior(channel, prior, alpha)
            e0 = gallager_e0(s, prior, w)
            worst = max(worst, abs(s * mi - e0))
            assert abs(s * mi - e0) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"20 channels x 10 alphas, worst |s*I_a - E0| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_sibson_optimality():
    """The closed-form minimizer beats 200 random probe states everywhere."""
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_margin = np.inf
    for _ in range(50):
        prior = rng.dirichlet(np.ones(2))
        channel = CQChannel.from_states([random_density_matrix(2, rng) for _ in range(2)])
        state = cq_state(channel, prior).to_matrix()
        tau = np.diag(prior).astype(complex)
        probes = [random_density_matrix(2, rng) for _ in range(200)]
        for alpha in (0.5, 0.7, 0.9, 1.3):
            sigma = sibson_minimizer(state, tau, alpha, dims=(2, 2))
            at_min = petz_divergence(state, tensor(tau, sigma), alpha).value
            probe_vals = [
                petz_divergence(state, tensor(tau, probe), alpha).value for probe in probes
            ]
            margin = min(probe_vals) - at_min
            worst_margin = min(worst_margin, margin)
            assert margin >= -1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"50 states x 4 alphas x 200 probes, worst margin = {worst_margin:.2e}, {elapsed:.1f}s")


def test_criterion_3_alpha_one_continuity():
    """I_alpha approaches the Holevo quantity as alpha -> 1."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4))
        channel = random_channel(k, d, rng)
        prior = rng.dirichlet(np.ones(k))
        chi = holevo_information(channel, prior)
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            gap = abs(renyi_mi_channel_prior(channel, prior, alpha) - chi)
            worst = max(worst, gap)
            assert gap <= 1e-3
    report(3, f"20 channels, worst |I_(1 +/- 1e-4) - chi| = {worst:.2e}")


def test_criterion_4_exponent_bound_structure(bsc_session):
    """Critical-rate ordering, bound agreement above r_c, classical gap below."""
    rng = np.random.default_rng(404)
    worst_eq = 0.0
    for _ in range(10):
        session = ChannelAnalysis(random_channel(2, 2, rng))
        cap = session.capacity().value
        rc = session.critical_rate()
        assert -1e-9 <= rc <= cap + 1e-9
        for frac in (0.0, 0.25, 0.5, 0.75, 0.95):
            r = rc + frac * (cap - rc)
            if r <= 0.0:
                continue
            low = session.lower_bound(r).value
            up = session.upper_bound(r).value
            worst_eq = max(worst_eq, abs(low - up))
            assert abs(low - up) <= 1e-7

    rc_bsc = bsc_session.critical_rate()
    worst_gap_err = 0.0
    for frac in (0.35, 0.6):
        r = frac * rc_bsc
        low = bsc_session.lower_bound(r)
        up = bsc_session.upper_bound(r)
        assert low.value < up.value
        oracle_gap = classical_sphere_packing_exponent(W_BSC, r) - classical_random_coding_exponent(W_BSC, r)
        err = abs((up.value - low.value) - oracle_gap)
        worst_gap_err = max(worst_gap_err, err)
        assert err <= 1e-5
    report(
        4,
        "10 random channels: 0 <= r_c <= C and bounds equal above r_c "
        f"(worst {worst_eq:.2e}); BSC below-r_c gap vs classical oracle "
        f"(worst {worst_gap_err:.2e})",
    )


def test_criterion_5_type_restriction_trend():
    """Running-best type values climb toward I_alpha(N) for {|0>, |+>}."""
    zero = np.array([[1, 0], [0, 0]], dtype=complex)
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    channel = CQChannel.from_states([zero, plus])
    alpha = 0.5
    start = time.perf_counter()
    target = renyi_mi_channel(channel, alpha).value
    rows = best_type_up_to(channel, 6, alpha)
    values = [v for _, _, v in rows]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-6
    for v in values:
        assert v <= target + 1e-8
    gap_n2 = target - values[1]
    gap_n6 = target - values[5]
    assert gap_n6 < gap_n2
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        5,
        f"values {['%.4f' % v for v in values]} vs target {target:.4f}; "
        f"gap n=2 {gap_n2:.4f} -> n=6 {gap_n6:.4f}, {elapsed:.1f}s",
    )


def test_criterion_6_channel_additivity():
    """Joint-prior optimization over a product channel splits into the sum."""
    rng = np.random.default_rng(606)
    worst = 0.0
    ch1 = random_channel(2, 2, rng)
    ch2 = random_channel(2, 2, rng)
    product = ch1.tensor(ch2)
    for alpha in (0.5, 0.75):
        reports = [renyi_mi_channel(ch, alpha) for ch in (ch1, ch2, product)]
        single = reports[0].value + reports[1].value
        joint = reports[2].value
        worst = max(worst, abs(joint - single))
        # Each value is within its certified gap of its optimum.
        assert abs(joint - single) <= sum(rep.gap for rep in reports) + 1e-12
    report(6, f"worst |I(N1xN2) - I(N1) - I(N2)| = {worst:.2e} at alpha in {{0.5, 0.75}}")


def test_criterion_7_coding_band(bsc_session):
    """Best-of-trials exponents sit inside the slack band of the bounds."""
    channel = bsc_session.channel
    rate = 0.3
    start = time.perf_counter()
    lower = bsc_session.lower_bound(rate).value
    upper = bsc_session.upper_bound(rate).value
    rows = estimate_exponent(channel, rate, [2, 4, 6, 8], 200, seed=1234, analysis=bsc_session)
    records = [rec for row in rows for rec in row.trials]
    for rec in records:
        assert rec.ml_pe is not None
        assert rec.pe >= rec.ml_pe - 1e-12
    summaries = []
    for row in rows:
        slack = (2 * np.log2(row.n + 1) + 2) / row.n
        assert lower - slack <= row.implied_exponent <= upper + slack
        summaries.append(f"n={row.n}: {row.implied_exponent:.3f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        7,
        f"implied exponents {summaries} inside band around [{lower:.4f}, {upper:.4f}], "
        f"PGM >= ML on all {len(records)} trials, {elapsed:.1f}s",
    )


def test_criterion_7_coding_band_pure_pair():
    """Pure letters past n = 8: the Gram path's best-of-trials exponents sit in the band too."""
    channel = load_channel(Path(__file__).resolve().parent.parent / "channels" / "pure_pair.json")
    session = ChannelAnalysis(channel)
    rate = 0.3
    start = time.perf_counter()
    lower = session.lower_bound(rate).value
    upper = session.upper_bound(rate).value
    rows = estimate_exponent(channel, rate, [4, 8, 12, 16, 20, 24], 50, seed=1234, analysis=session)
    summaries = []
    for row in rows:
        slack = (2 * np.log2(row.n + 1) + 2) / row.n
        assert lower - slack <= row.implied_exponent <= upper + slack
        summaries.append(f"n={row.n} (M={row.size}): {row.implied_exponent:.3f}")
    elapsed = time.perf_counter() - start
    report(
        7,
        f"pure_pair implied exponents {summaries} inside band around [{lower:.4f}, {upper:.4f}], "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_types_partition():
    """Type classes tile the sequence space with multinomial sizes."""
    rng = np.random.default_rng(808)
    for k in (2, 3):
        for n in range(1, 9):
            types = enumerate_types(n, k)
            assert len(types) <= (n + 1) ** k
            total = 0
            seen = set()
            for t in types:
                seqs = list(enumerate_sequences(t))
                assert len(seqs) == t.sequence_count()
                seen.update(seqs)
                total += len(seqs)
            assert total == k ** n
            assert len(seen) == k ** n
            prior = rng.dirichlet(np.ones(k))
            mass = sum(type_probability(prior, t) for t in types)
            assert abs(mass - 1.0) <= 1e-12
    report(8, "partition, multinomial counts, type-count bound and unit mass for |X|=2,3, n<=8")


def test_criterion_9_simulation_determinism(tmp_path):
    """Identical flags and seed produce byte-identical simulate output."""
    import json

    spec = tmp_path / "bsc.json"
    spec.write_text(json.dumps({
        "cqspec": 1,
        "stochastic_matrix": [[0.9, 0.1], [0.1, 0.9]],
    }), encoding="utf-8")
    runner = CliRunner()
    args = [
        "simulate", str(spec), "--rate", "0.3", "--n-list", "2,4,6",
        "--trials", "25", "--seed", "99",
    ]
    first = runner.invoke(cli_main, args)
    second = runner.invoke(cli_main, args)
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output
    assert first.output.splitlines()[0] == "n,M,best_pe,mean_pe,implied_exponent,lower_bound,upper_bound"
    report(9, "two cmd_simulate runs produced byte-identical CSV")
