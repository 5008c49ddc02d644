import dataclasses
import math
from functools import reduce

import numpy as np
import pytest

from cqexp import (
    CQChannel,
    Codebook,
    ConstantComposition,
    IID,
    POVM,
    TypeClass,
    average_error,
    estimate_exponent,
    generate_codebook,
    ml_error_classical,
    nearest_type,
    pgm_decoder,
    type_of,
)
from cqexp import coding
from cqexp.coding import (
    _pgm_error_dense,
    _pgm_error_diagonal,
    _pgm_error_from_table,
    _pgm_error_gram,
    _sequence_distributions,
    codeword_gram,
    pure_letter_overlaps,
)
from cqexp.config import DEFAULT_CONFIG
from cqexp.errors import DimensionError, NotClassical, TooLarge

from conftest import pure_channels, random_channel
from oracles import classical_ml_error

W_BSC = np.array([[0.9, 0.1], [0.1, 0.9]])


class TestGenerateCodebook:
    def test_single_codeword(self):
        book = generate_codebook(2, 3, 1, IID(prior=np.array([0.5, 0.5])), seed=0)
        assert book.size == 1 and book.n == 3

    def test_constant_composition_types(self):
        t = TypeClass(3, (2, 1))
        book = generate_codebook(2, 3, 20, ConstantComposition(t), seed=1)
        for cw in book.codewords:
            assert type_of(cw, 2) == t

    def test_rate_bookkeeping(self):
        book = generate_codebook(2, 4, 8, IID(prior=np.array([0.5, 0.5])), seed=0)
        assert book.rate == pytest.approx(0.75)
        assert round(2 ** (book.n * book.rate)) == book.size

    def test_seed_determinism(self):
        a = generate_codebook(3, 5, 10, IID(prior=np.array([0.2, 0.3, 0.5])), seed=42)
        b = generate_codebook(3, 5, 10, IID(prior=np.array([0.2, 0.3, 0.5])), seed=42)
        assert a == b
        c = generate_codebook(3, 5, 10, IID(prior=np.array([0.2, 0.3, 0.5])), seed=43)
        assert a != c

    def test_iid_letter_frequencies(self):
        counts = np.zeros(2)
        for seed in range(100):
            book = generate_codebook(2, 6, 64, IID(prior=np.array([0.5, 0.5])), seed=seed)
            for cw in book.codewords:
                for x in cw:
                    counts[x] += 1
        freq = counts / counts.sum()
        assert abs(freq[0] - 0.5) < 0.05

    def test_composition_blocklength_mismatch(self):
        with pytest.raises(ValueError):
            generate_codebook(2, 3, 4, ConstantComposition(TypeClass(4, (2, 2))), seed=0)


class TestPGMDecoder:
    def test_single_message_identity(self, bsc_channel):
        book = Codebook(n=2, codewords=((0, 1),))
        povm = pgm_decoder(bsc_channel, book)
        assert np.allclose(povm.elements[0], np.eye(4), atol=1e-10)
        report = average_error(bsc_channel, book, povm)
        assert report.pe == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_codewords_perfect(self, orthogonal_pair):
        book = Codebook(n=1, codewords=((0,), (1,)))
        povm = pgm_decoder(orthogonal_pair, book)
        report = average_error(orthogonal_pair, book, povm)
        assert report.pe == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(povm.elements[0], np.diag([1.0, 0.0]), atol=1e-10)

    def test_identical_codewords_split(self, rng):
        from conftest import random_density_matrix

        rho = random_density_matrix(2, rng)
        ch = CQChannel.from_states([rho, rho.copy()])
        book = Codebook(n=1, codewords=((0,), (1,)))
        povm = pgm_decoder(ch, book)
        report = average_error(ch, book, povm)
        assert report.per_message[0] == pytest.approx(0.5, abs=1e-10)
        assert report.per_message[1] == pytest.approx(0.5, abs=1e-10)

    def test_povm_is_complete_and_positive(self, rng):
        # POVM.__post_init__ enforces completeness and positivity; build a
        # few random codebooks and make sure construction succeeds.
        for k in range(3):
            ch = random_channel(2, 2, rng)
            book = generate_codebook(2, 3, 4, IID(prior=np.array([0.4, 0.6])), seed=k)
            povm = pgm_decoder(ch, book)
            total = sum(povm.elements)
            assert np.allclose(total, np.eye(8), atol=1e-8)

    def test_kernel_completion_goes_to_first_element(self, orthogonal_pair):
        # Codeword states span only part of the space; the missing projector
        # must land in element 0 without touching any success probability.
        book = Codebook(n=2, codewords=((0, 0), (1, 1)))
        povm = pgm_decoder(orthogonal_pair, book)
        assert np.trace(sum(povm.elements)).real == pytest.approx(4.0, abs=1e-10)
        report = average_error(orthogonal_pair, book, povm)
        assert report.pe == pytest.approx(0.0, abs=1e-12)


class TestAverageError:
    def test_label_permutation_invariance(self, rng):
        ch = random_channel(2, 2, rng)
        book = generate_codebook(2, 2, 3, IID(prior=np.array([0.5, 0.5])), seed=5)
        povm = pgm_decoder(ch, book)
        base = average_error(ch, book, povm)
        perm = [2, 0, 1]
        book2 = Codebook(n=2, codewords=tuple(book.codewords[i] for i in perm))
        povm2 = POVM(elements=tuple(povm.elements[i] for i in perm))
        swapped = average_error(ch, book2, povm2)
        assert swapped.pe == base.pe
        assert swapped.per_message == tuple(base.per_message[i] for i in perm)

    def test_pe_is_mean_of_messages(self, rng):
        ch = random_channel(2, 2, rng)
        book = generate_codebook(2, 2, 4, IID(prior=np.array([0.5, 0.5])), seed=9)
        povm = pgm_decoder(ch, book)
        report = average_error(ch, book, povm)
        assert report.pe == pytest.approx(np.mean(report.per_message), abs=1e-12)

    def test_dimension_mismatch(self, bsc_channel, orthogonal_pair):
        book = Codebook(n=1, codewords=((0,), (1,)))
        povm = pgm_decoder(orthogonal_pair, book)
        with pytest.raises(DimensionError):
            average_error(bsc_channel, Codebook(n=2, codewords=((0, 0), (1, 1))), povm)

    def test_classical_decision_rule_oracle(self, bsc_channel):
        # On a commuting channel the PGM is a randomized classical decoder
        # with weights q_m(y)/s(y); recompute its error with plain loops.
        book = Codebook(n=2, codewords=((0, 0), (0, 1), (1, 1)))
        povm = pgm_decoder(bsc_channel, book)
        got = average_error(bsc_channel, book, povm).pe
        seq_prob = {}
        for m, cw in enumerate(book.codewords):
            for y0 in range(2):
                for y1 in range(2):
                    seq_prob[(m, y0, y1)] = W_BSC[cw[0], y0] * W_BSC[cw[1], y1]
        success = 0.0
        for y0 in range(2):
            for y1 in range(2):
                s = sum(seq_prob[(m, y0, y1)] for m in range(3))
                for m in range(3):
                    success += seq_prob[(m, y0, y1)] ** 2 / s
        assert got == pytest.approx(1 - success / 3, abs=1e-10)


class TestMLError:
    def test_noiseless_bit(self, orthogonal_pair):
        book = Codebook(n=1, codewords=((0,), (1,)))
        assert ml_error_classical(orthogonal_pair, book) == pytest.approx(0.0, abs=1e-12)

    def test_repetition_code_value(self, bsc_channel):
        book = Codebook(n=3, codewords=((0, 0, 0), (1, 1, 1)))
        got = ml_error_classical(bsc_channel, book)
        assert got == pytest.approx(1 - (0.9**3 + 3 * 0.9**2 * 0.1), abs=1e-12)
        assert got == pytest.approx(0.028, abs=1e-12)

    def test_matches_independent_oracle(self, bsc_channel, rng):
        for seed in range(5):
            book = generate_codebook(2, 4, 3, IID(prior=np.array([0.5, 0.5])), seed=seed)
            got = ml_error_classical(bsc_channel, book)
            assert got == pytest.approx(classical_ml_error(W_BSC, book.codewords), abs=1e-12)

    def test_ml_beats_pgm(self, bsc_channel):
        for seed in range(10):
            book = generate_codebook(2, 4, 4, IID(prior=np.array([0.5, 0.5])), seed=seed)
            povm = pgm_decoder(bsc_channel, book)
            pgm = average_error(bsc_channel, book, povm).pe
            ml = ml_error_classical(bsc_channel, book)
            assert 0.0 <= ml <= pgm + 1e-12

    def test_rejects_noncommuting(self, pure_pair):
        book = Codebook(n=1, codewords=((0,), (1,)))
        with pytest.raises(NotClassical):
            ml_error_classical(pure_pair, book)


class TestFastPaths:
    def test_diagonal_matches_dense(self, bsc_channel):
        w = bsc_channel.induced_stochastic_matrix()
        for seed in range(5):
            book = generate_codebook(2, 3, 4, IID(prior=np.array([0.3, 0.7])), seed=seed)
            dense = _pgm_error_dense(bsc_channel, book, DEFAULT_CONFIG)
            diag = _pgm_error_diagonal(w, book)
            assert dense == pytest.approx(diag, abs=1e-12)
            povm_pe = average_error(bsc_channel, book, pgm_decoder(bsc_channel, book)).pe
            assert dense == pytest.approx(povm_pe, abs=1e-12)

    def test_dense_path_on_rotated_classical(self, rng):
        # Commuting but non-diagonal outputs: the dense route must agree with
        # the diagonal route computed in the common eigenbasis.
        from conftest import random_unitary

        u = random_unitary(2, rng)
        w = np.array([[0.8, 0.2], [0.3, 0.7]])
        states = [u @ np.diag(row.astype(complex)) @ u.conj().T for row in w]
        ch = CQChannel.from_states(states)
        book = generate_codebook(2, 3, 3, IID(prior=np.array([0.5, 0.5])), seed=3)
        dense = _pgm_error_dense(ch, book, DEFAULT_CONFIG)
        diag = _pgm_error_diagonal(ch.induced_stochastic_matrix(), book)
        assert dense == pytest.approx(diag, abs=1e-10)


class TestEstimateExponent:
    def test_noiseless_bit_at_half_rate(self, orthogonal_pair):
        rows = estimate_exponent(orthogonal_pair, 0.5, [2, 4], 20, seed=11)
        for row in rows:
            assert row.best_pe == pytest.approx(0.0, abs=1e-12)
            assert math.isinf(row.implied_exponent)

    def test_single_message_rows(self, bsc_channel):
        # n=1 at r=0.3 gives M = round(2^0.3) = 1: always decoded correctly.
        rows = estimate_exponent(bsc_channel, 0.3, [1], 5, seed=0)
        assert rows[0].size == 1
        assert rows[0].best_pe == 0.0

    def test_reproducible(self, bsc_channel):
        a = estimate_exponent(bsc_channel, 0.3, [2, 4], 10, seed=7)
        b = estimate_exponent(bsc_channel, 0.3, [2, 4], 10, seed=7)
        assert a == b

    def test_records_and_ml_dominance(self, bsc_channel):
        rows, records = estimate_exponent(
            bsc_channel, 0.3, [2, 4], 15, seed=3, return_trials=True
        )
        assert len(records) == 2 * 15 * 2  # two n values, two modes
        for rec in records:
            assert rec.ml_pe is not None
            assert rec.ml_pe <= rec.pe + 1e-12
        best = min(rec.pe for rec in records if rec.n == 2)
        assert rows[0].best_pe == pytest.approx(best, abs=0)

    def test_best_error_improves_with_blocklength(self, bsc_channel):
        rows = estimate_exponent(bsc_channel, 0.3, [2, 8], 60, seed=19)
        assert rows[1].best_pe <= rows[0].best_pe + 1e-12


class TestPackingLimit:
    def test_rate_above_capacity_floor(self, orthogonal_pair):
        # M > 2^n forces duplicated codewords, so every codebook keeps
        # pe >= 1 - 2^n / M regardless of the decoder draw.
        rate = 1.2
        rows = estimate_exponent(orthogonal_pair, rate, [2, 3], 25, seed=4)
        for row in rows:
            floor = 1.0 - (2 ** row.n) / row.size
            assert row.size > 2 ** row.n
            assert row.best_pe >= floor - 1e-12
            assert row.best_pe > 0.0

    def test_pure_rate_above_capacity_floor(self, monkeypatch, pure_pair):
        # At n = 1, M = 2 = 2^n takes the Gram path; at n = 2, 3 the M x M
        # Gram matrix would exceed the 2^n-dimensional states, so the dense
        # path runs, and the same packing floor holds.
        gram = TestPathSelection._spy(monkeypatch, "_pgm_error_gram")
        dense = TestPathSelection._spy(monkeypatch, "_pgm_error_dense")
        rows, records = estimate_exponent(pure_pair, 1.2, [1, 2, 3], 5, seed=4, return_trials=True)
        assert [row.size for row in rows] == [2, 5, 12]
        assert [out for _, out in gram] == [rec.pe for rec in records if rec.n == 1]
        assert [out for _, out in dense] == [rec.pe for rec in records if rec.n > 1]
        for row in rows[1:]:
            assert row.best_pe >= 1.0 - (2 ** row.n) / row.size - 1e-12
            assert row.best_pe > 0.0

    def test_pure_codebook_larger_than_space_keeps_state_cap(self, pure_pair):
        # n = 7 at rate 1.2: M = 338 codewords in a 128-dimensional space.
        # The cap is then d^n = 128, as on the dense path, not M.
        rows = estimate_exponent(pure_pair, 1.2, [7], 1, seed=4)
        assert rows[0].size == 338
        assert rows[0].best_pe >= 1.0 - 128 / 338 - 1e-12
        at_dim = dataclasses.replace(DEFAULT_CONFIG, max_sim_dim=128)
        assert estimate_exponent(pure_pair, 1.2, [7], 1, seed=4, config=at_dim) == rows
        with pytest.raises(TooLarge):
            estimate_exponent(pure_pair, 1.2, [7], 1, seed=4, config=dataclasses.replace(at_dim, max_sim_dim=127))


PURE_CHANNELS = pure_channels()


def _blocklengths(channel: CQChannel) -> list[int]:
    """Blocklengths up to 8 whose dense reference stays within the default cap."""
    return [n for n in (1, 2, 3, 5, 8) if channel.dim ** n <= DEFAULT_CONFIG.max_sim_dim]


class TestGramPath:
    @pytest.mark.parametrize("idx", range(len(PURE_CHANNELS)))
    def test_matches_dense_and_povm(self, idx):
        ch = PURE_CHANNELS[idx]
        overlaps = pure_letter_overlaps(ch)
        assert overlaps is not None
        prior = np.random.default_rng([17, idx]).dirichlet(np.ones(ch.size))
        for n in _blocklengths(ch):
            size = 2 + n % 3
            for mode_idx, mode in enumerate((IID(prior=prior), ConstantComposition(nearest_type(prior, n)))):
                book = generate_codebook(ch.size, n, size, mode, seed=[idx, n, mode_idx])
                gram = _pgm_error_gram(overlaps, book)
                assert gram == pytest.approx(_pgm_error_dense(ch, book, DEFAULT_CONFIG), abs=1e-12)
                povm_pe = average_error(ch, book, pgm_decoder(ch, book)).pe
                assert gram == pytest.approx(povm_pe, abs=1e-12)

    def test_duplicate_codewords_singular_gram(self, pure_pair):
        book = Codebook(n=3, codewords=((0, 1, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1)))
        overlaps = pure_letter_overlaps(pure_pair)
        assert np.linalg.matrix_rank(codeword_gram(overlaps, book.codewords)) == 3
        gram = _pgm_error_gram(overlaps, book)
        assert gram == pytest.approx(_pgm_error_dense(pure_pair, book, DEFAULT_CONFIG), abs=1e-12)
        assert gram == pytest.approx(
            average_error(pure_pair, book, pgm_decoder(pure_pair, book)).pe, abs=1e-12
        )
        assert gram >= 0.25 - 1e-12  # two identical messages share one success

    def test_orthogonal_letters_error_zero(self):
        # |0>, |1>, |+> do not commute, so this channel takes the Gram path;
        # codewords over {0, 1} alone are orthogonal product vectors.
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        ch = CQChannel.from_states([zero, one, plus])
        overlaps = pure_letter_overlaps(ch)
        book = Codebook(n=3, codewords=((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 0)))
        assert _pgm_error_gram(overlaps, book) == pytest.approx(0.0, abs=1e-14)

    def test_unit_diagonal_is_exact(self):
        for ch in PURE_CHANNELS:
            overlaps = pure_letter_overlaps(ch)
            assert np.all(np.diag(overlaps) == 1.0)
            for x, rho in enumerate(ch.outputs):
                for y, sigma in enumerate(ch.outputs):
                    # |<psi_x|psi_y>|^2 = tr[rho_x rho_y]
                    assert abs(overlaps[x, y]) ** 2 == pytest.approx(
                        np.trace(rho @ sigma).real, abs=1e-12
                    )

    def test_mixed_letters_have_no_overlap_table(self, bsc_channel, rng):
        assert pure_letter_overlaps(bsc_channel) is None
        assert pure_letter_overlaps(random_channel(2, 2, rng)) is None


class TestPathSelection:
    @staticmethod
    def _spy(monkeypatch, name):
        calls = []
        real = getattr(coding, name)

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append((args, out))
            return out

        monkeypatch.setattr(coding, name, spy)
        return calls

    def test_pure_channel_takes_gram_path(self, monkeypatch, pure_pair):
        dense = self._spy(monkeypatch, "_pgm_error_dense")
        gram = self._spy(monkeypatch, "_pgm_error_gram")
        _, records = estimate_exponent(pure_pair, 0.3, [2, 4], 3, seed=5, return_trials=True)
        assert not dense
        assert [out for _, out in gram] == [rec.pe for rec in records]
        assert all(rec.ml_pe is None for rec in records)

    def test_near_pure_letter_takes_dense_path(self, monkeypatch):
        # Second eigenvalue 1e-9 is above SUPPORT_CUTOFF: the letter is mixed.
        near = np.diag([1.0 - 1e-9, 1e-9]).astype(complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        ch = CQChannel.from_states([near, plus])
        assert pure_letter_overlaps(ch) is None
        dense = self._spy(monkeypatch, "_pgm_error_dense")
        gram = self._spy(monkeypatch, "_pgm_error_gram")
        _, records = estimate_exponent(ch, 0.3, [2, 4], 3, seed=5, return_trials=True)
        assert not gram
        assert [out for _, out in dense] == [rec.pe for rec in records]

    def test_gram_cap_is_codebook_size(self, pure_pair):
        # n = 12 at r = 0.3: M = 12 codewords in a 4096-dimensional space.
        rows = estimate_exponent(pure_pair, 0.3, [12], 1, seed=1)
        assert rows[0].size == 12
        tight = dataclasses.replace(DEFAULT_CONFIG, max_sim_dim=11)
        with pytest.raises(TooLarge):
            estimate_exponent(pure_pair, 0.3, [12], 1, seed=1, config=tight)


class TestSequenceTable:
    @staticmethod
    def _kron_rows(w, book):
        return np.asarray([reduce(np.kron, [w[x] for x in cw]) for cw in book.codewords])

    def test_bit_identical_to_kron_chain(self, rng):
        w3 = rng.dirichlet(np.ones(3), size=3)
        for w in (W_BSC, w3):
            for n in (1, 2, 5, 7):
                book = generate_codebook(len(w), n, 6, IID(prior=np.ones(len(w)) / len(w)), seed=n)
                table = _sequence_distributions(w, book)
                assert np.array_equal(table, self._kron_rows(w, book))

    def test_one_table_per_codebook(self, monkeypatch, bsc_channel):
        tables = TestPathSelection._spy(monkeypatch, "_sequence_distributions")
        _, records = estimate_exponent(bsc_channel, 0.3, [4, 6], 4, seed=2, return_trials=True)
        built = list(tables)
        assert len(built) == len(records)
        for (args, q), rec in zip(built, records):
            book = args[1]
            assert rec.pe == _pgm_error_from_table(q) == _pgm_error_diagonal(W_BSC, book)
            assert rec.ml_pe == ml_error_classical(bsc_channel, book)
            assert rec.ml_pe == pytest.approx(classical_ml_error(W_BSC, book.codewords), abs=1e-12)
