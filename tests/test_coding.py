import dataclasses
import math
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from cqexp import (
    CQChannel,
    ChannelAnalysis,
    Codebook,
    ConstantComposition,
    IID,
    POVM,
    TypeClass,
    average_error,
    constant_composition_mi,
    estimate_exponent,
    generate_codebook,
    load_channel,
    ml_error_classical,
    nearest_type,
    pgm_decoder,
    type_of,
)
from cqexp import analysis, coding, linalg
from cqexp.channel import pure_letter_overlaps
from cqexp.coding import _gram_errors, _pgm_error_dense, _sequence_table, _table_errors
from cqexp.linalg import gram_stack
from cqexp.config import DEFAULT_CONFIG, MAX_TENSOR_DIM, RunConfig
from cqexp.errors import DimensionError, NotClassical, TooLarge

from conftest import pure_channels, random_channel
from oracles import classical_ml_error

W_BSC = np.array([[0.9, 0.1], [0.1, 0.9]])


def _check_against_references(channel, rate, seed, records):
    """Every trial record against its codebook, drawn again from the record's stream.

    ``pe`` must match the dense PGM error of that one codebook within the
    fast-path tolerance. On a commuting channel ``ml_pe`` must equal the
    one-codebook ML error and match the loop-based oracle.
    """
    session = ChannelAnalysis(channel)
    prior = session.mutual_info(session.lower_bound(rate).alpha).prior
    w = channel.induced_stochastic_matrix() if channel.is_classical() else None
    for rec in records:
        size = int(round(2.0 ** (rec.n * rate)))
        mode_idx = ("iid", "cc").index(rec.mode)
        mode = IID(prior=prior) if mode_idx == 0 else ConstantComposition(nearest_type(prior, rec.n))
        book = generate_codebook(channel.size, rec.n, size, mode, seed=[seed, rec.n, rec.trial, mode_idx])
        assert rec.pe == pytest.approx(_pgm_error_dense(channel, book, DEFAULT_CONFIG), abs=1e-12)
        if w is None:
            assert rec.ml_pe is None
        else:
            assert rec.ml_pe == ml_error_classical(channel, book)
            assert rec.ml_pe == pytest.approx(classical_ml_error(w, book.codewords), abs=1e-12)


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


def _draw_with_choice(alphabet_size, n, size, mode, seeds):
    """The stream contract as numpy's own samplers state it: one ``default_rng`` per seed,
    then ``choice(p=...)`` for i.i.d. codebooks or one ``permutation`` per constant-composition word."""
    streams = [np.random.default_rng(seed if isinstance(seed, int) else list(seed)) for seed in seeds]
    words = np.empty((len(streams), size, n), dtype=np.intp)
    if isinstance(mode, IID):
        prior = np.clip(np.asarray(mode.prior, dtype=float), 0.0, None)
        prior = prior / prior.sum()
        for book, rng in zip(words, streams):
            book[:] = rng.choice(alphabet_size, size=(size, n), p=prior)
    else:
        base = np.repeat(np.arange(alphabet_size), mode.composition.counts)
        for book, rng in zip(words, streams):
            for word in book:
                word[:] = rng.permutation(base)
    return words


class TestDrawStreams:
    """``_draw_words`` draws every codebook bit for bit as ``choice``/``permutation`` on its own stream."""

    SEEDS = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3)
    MODES = [
        (2, 5, IID(prior=np.array([0.0, 1.0]))),  # zero entry
        (2, 5, IID(prior=np.array([3.0, 7.0]))),  # not normalised
        (3, 5, IID(prior=np.array([0.2, 0.3, 0.5]))),
        (3, 5, IID(prior=np.array([0.25, 0.0, 0.75]))),
        (2, 6, ConstantComposition(TypeClass(6, (2, 4)))),
        (3, 5, ConstantComposition(TypeClass(5, (2, 0, 3)))),  # zero count
        (3, 4, ConstantComposition(TypeClass(4, (1, 1, 2)))),
    ]

    @pytest.mark.parametrize("size", [1, 7])
    @pytest.mark.parametrize("alphabet_size, n, mode", MODES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_numpy_samplers(self, seed, alphabet_size, n, mode, size):
        for seeds in ([seed], [[seed, n, trial, 1] for trial in range(3)]):
            keys = np.array([coding._seed_words(s) for s in seeds])
            got = coding._draw_words(alphabet_size, n, size, mode, keys)
            assert got.shape == (len(seeds), size, n)
            assert np.array_equal(got, _draw_with_choice(alphabet_size, n, size, mode, seeds))

    def test_word_rows_are_their_seed_lists(self):
        # A uint32 row is already SeedSequence words: [seed, n, trial, mode]
        # as one row draws what the list itself draws.
        mode = IID(prior=np.array([0.4, 0.6]))
        for seed in self.SEEDS:
            keys = np.array([coding._seed_words([seed, 4, trial, 0]) for trial in range(3)])
            assert keys.dtype == np.uint32
            lists = [[seed, 4, trial, 0] for trial in range(3)]
            assert np.array_equal(coding._draw_words(2, 4, 6, mode, keys), _draw_with_choice(2, 4, 6, mode, lists))

    @pytest.mark.parametrize("seed, words", [
        (0, [0]),
        (2 ** 32 - 1, [2 ** 32 - 1]),
        (2 ** 32, [0, 1]),
        (2 ** 64 + 3, [3, 0, 1]),
        ([7, 0, 2 ** 32 + 5], [7, 0, 5, 1]),
    ])
    def test_seed_words(self, seed, words):
        assert coding._seed_words(seed).tolist() == words

    def test_no_seeds_no_codebooks(self):
        for mode in (self.MODES[0][2], self.MODES[4][2]):
            alphabet_size, n = (2, 5) if isinstance(mode, IID) else (2, 6)
            assert coding._draw_words(alphabet_size, n, 3, mode, np.zeros((0, 1), dtype=np.uint32)).shape == (0, 3, n)

    @pytest.mark.parametrize("prior", [[0.0, 0.0], [-1.0, -2.0], [np.nan, 1.0], [np.inf, 1.0]])
    def test_unusable_prior_fails_before_any_stream(self, monkeypatch, prior):
        def no_stream(*args):
            raise AssertionError("stream built for an unusable prior")

        monkeypatch.setattr(np.random, "PCG64", no_stream)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="prior must be finite with a positive weight"):
                generate_codebook(2, 3, 4, IID(prior=np.array(prior)), seed=0)

    @pytest.mark.parametrize("seed", [1.5, [1, 2.0], "7", None])
    def test_non_integer_seed_is_a_type_error(self, seed):
        with pytest.raises(TypeError, match="seed"):
            generate_codebook(2, 3, 4, IID(prior=np.array([0.5, 0.5])), seed=seed)

    @pytest.mark.parametrize("seed", [-1, [3, -1]])
    def test_negative_seed_is_a_value_error(self, seed):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            generate_codebook(2, 3, 4, IID(prior=np.array([0.5, 0.5])), seed=seed)

    def test_estimate_rejects_a_negative_seed_without_drawing(self, bsc_channel):
        # n = 1 at R = 0.3 is a single-message row, which draws no codebook.
        with pytest.raises(ValueError, match="expected non-negative integer"):
            estimate_exponent(bsc_channel, 0.3, [1], 2, seed=-1)



class TestSeedStates:
    """``_seed_states`` computes numpy's ``SeedSequence`` states, and numpy's PCG64 seeds from them
    as from the ``SeedSequence`` itself. These fail loudly if numpy's seeding drifts."""

    @staticmethod
    def _check(words, states):
        assert states.dtype == np.uint64 and states.shape == (len(words), 4)
        for row, state in zip(words, states):
            reference = np.random.SeedSequence(row)
            assert np.array_equal(state, reference.generate_state(4, np.uint64))
            seeded = coding._seed_state_type()(state)
            assert np.random.PCG64(seeded).state == np.random.PCG64(reference).state

    @pytest.mark.parametrize("length", range(1, 9))
    def test_word_rows(self, length):
        words = np.random.default_rng([77, length]).integers(0, 2 ** 32, size=(5, length), dtype=np.uint32)
        words[0], words[1] = 0, 2 ** 32 - 1
        self._check(words, coding._seed_states(words))

    def test_stream_keys_of_the_draw_seeds(self):
        for seed in TestDrawStreams.SEEDS:
            keys = [seed] + [[seed, 8, trial, mode] for trial in (0, 199) for mode in (0, 1)]
            words = [coding._seed_words(key) for key in keys]
            self._check(words, np.concatenate([coding._seed_states(row[None]) for row in words]))

    def test_mixed_word_counts_keep_seed_order(self):
        # SeedSequence hashes a missing word of its 4-word pool as 0, so seeds
        # of up to 4 words share one stack zero-padded, rows in seed order.
        seeds = [0, 2 ** 64 + 3, [1, 2, 3, 4], 2 ** 32, 9]
        words = [coding._seed_words(seed) for seed in seeds]
        padded = np.zeros((len(words), 4), dtype=np.uint32)
        for row, w in zip(padded, words):
            row[:len(w)] = w
        self._check(words, coding._seed_states(padded))

    def test_empty_stack(self):
        assert coding._seed_states(np.zeros((0, 4), dtype=np.uint32)).shape == (0, 4)

    def test_state_serves_only_the_pcg64_request(self):
        seeded = coding._seed_state_type()(np.zeros(4, dtype=np.uint64))
        with pytest.raises(ValueError, match="4 uint64 words"):
            seeded.generate_state(8, np.uint32)

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
            diag = _table_errors(_sequence_table(w, np.asarray(book.codewords)[None]))[0, 0]
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
        diag = _table_errors(_sequence_table(ch.induced_stochastic_matrix(), np.asarray(book.codewords)[None]))[0, 0]
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
        rows = estimate_exponent(bsc_channel, 0.3, [2, 4], 15, seed=3)
        records = [rec for row in rows for rec in row.trials]
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
        gram = TestPathSelection._spy(monkeypatch, "_gram_errors")
        dense = TestPathSelection._spy(monkeypatch, "_pgm_error_dense")
        rows = estimate_exponent(pure_pair, 1.2, [1, 2, 3], 5, seed=4)
        records = [rec for row in rows for rec in row.trials]
        assert [row.size for row in rows] == [2, 5, 12]
        assert [args[1].shape[2] for args, _ in gram] == [1]
        assert len(dense) == sum(rec.n > 1 for rec in records)
        _check_against_references(pure_pair, 1.2, 4, records)
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


class TestStateCeiling:
    """d^n x d^n states stay within MAX_TENSOR_DIM whatever --max-dim is,
    and the cap fires before any of them is built."""

    WIDE = RunConfig(max_sim_dim=40000)

    @staticmethod
    def _forbid_tensor_all(monkeypatch) -> list:
        calls = []

        def spy(mats):
            calls.append(len(mats))
            raise AssertionError("tensor_all called past the state ceiling")

        for module in (linalg, coding, analysis):
            monkeypatch.setattr(module, "tensor_all", spy)
        return calls

    @pytest.fixture
    def mixed_pair(self) -> CQChannel:
        ch = random_channel(2, 2, np.random.default_rng(13))
        assert pure_letter_overlaps(ch) is None and not ch.is_classical()
        return ch

    def test_ceiling_is_max_tensor_dim(self):
        assert MAX_TENSOR_DIM == 2 ** 12
        assert self.WIDE.check(MAX_TENSOR_DIM) == MAX_TENSOR_DIM
        with pytest.raises(TooLarge):
            self.WIDE.check(MAX_TENSOR_DIM + 1)
        with pytest.raises(TooLarge):
            DEFAULT_CONFIG.check(257)

    def test_type_class_average(self, monkeypatch, mixed_pair):
        calls = self._forbid_tensor_all(monkeypatch)
        with pytest.raises(TooLarge):
            constant_composition_mi(mixed_pair, TypeClass(13, (7, 6)), 0.5, self.WIDE)
        assert not calls

    def test_dense_codebooks(self, monkeypatch, mixed_pair):
        calls = self._forbid_tensor_all(monkeypatch)
        with pytest.raises(TooLarge):
            estimate_exponent(mixed_pair, 0.3, [13], 1, seed=1, config=self.WIDE)
        assert not calls

    @staticmethod
    def _forbid_gram_stack(monkeypatch) -> list:
        calls = []

        def spy(overlaps, words):
            calls.append(words.shape)
            raise AssertionError("gram_stack called past the Gram ceiling")

        for module in (linalg, coding, analysis):
            monkeypatch.setattr(module, "gram_stack", spy)
        return calls

    def test_gram_codebooks(self, monkeypatch, pure_pair):
        # n = 14 at r = 0.9: M = 6208 codewords in a 2^14-dimensional space,
        # so the Gram path is taken, and its 6208 x 6208 matrix is past the ceiling.
        calls = self._forbid_gram_stack(monkeypatch)
        with pytest.raises(TooLarge):
            estimate_exponent(pure_pair, 0.9, [14], 1, seed=1, config=RunConfig(100000))
        assert not calls

    def test_gram_type_class(self, monkeypatch):
        # Three pure qubit letters, type (9, 2, 2): |T| = 4290 sequences in a
        # 2^13-dimensional space, so the Gram path, past the ceiling.
        ch = pure_channels()[2]
        assert ch.size == 3 and ch.dim == 2 and not ch.is_classical()
        calls = self._forbid_gram_stack(monkeypatch)
        with pytest.raises(TooLarge):
            constant_composition_mi(ch, TypeClass(13, (9, 2, 2)), 0.5, RunConfig(100000))
        assert not calls


class TestCodebookCeiling:
    """M itself is held to MAX_TENSOR_DIM on every path before a codeword is drawn."""

    @staticmethod
    def _forbid_draws(monkeypatch) -> list:
        calls = []

        def spy(alphabet_size, n, size, mode, seeds):
            calls.append(size)
            raise AssertionError("codewords drawn past the codebook ceiling")

        monkeypatch.setattr(coding, "_draw_words", spy)
        return calls

    @pytest.mark.parametrize("name, rate, n", [
        ("bsc01", 0.9, 14),  # table path: M = 6208, d^n = 16384 within the cap below
        ("pure_pair", 2.0, 8),  # dense path: M = 65536 > d^n = 256
        ("bsc01", 600.0, 2),  # 2^(nR) past float range
        ("pure_pair", 600.0, 2),
    ])
    def test_no_codeword_past_the_ceiling(self, monkeypatch, name, rate, n):
        channel = load_channel(CHANNELS_DIR / f"{name}.json")
        calls = self._forbid_draws(monkeypatch)
        with pytest.raises(TooLarge, match="codebook size"):
            estimate_exponent(channel, rate, [n], 1, seed=1, config=RunConfig(2 ** 15))
        assert not calls


class TestDenseOneStateAtATime:
    def test_bit_identical_to_all_states_at_once(self, rng):
        ch = random_channel(2, 2, rng)
        for seed in range(3):
            book = generate_codebook(2, 4, 6, IID(prior=np.array([0.5, 0.5])), seed=seed)
            states = [coding.codeword_state(ch, cw) for cw in book.codewords]
            total = coding.hermitize(reduce(np.add, states, np.zeros((16, 16), dtype=complex)))
            w, v = coding.herm_eig(total)
            half = coding.spectral_map(coding._support_clip(w), v, lambda x: x ** -0.5)
            success = sum(float(((half @ rho) * (half @ rho).T).sum().real) for rho in states)
            assert _pgm_error_dense(ch, book, DEFAULT_CONFIG) == min(max(1.0 - success / 6, 0.0), 1.0)

    def test_builds_each_state_once_per_pass(self, monkeypatch, rng):
        ch = random_channel(2, 2, rng)
        book = generate_codebook(2, 3, 5, IID(prior=np.array([0.5, 0.5])), seed=1)
        real = coding.codeword_state
        built = []
        monkeypatch.setattr(coding, "codeword_state", lambda c, cw: built.append(cw) or real(c, cw))
        _pgm_error_dense(ch, book, DEFAULT_CONFIG)
        assert built == list(book.codewords) * 2


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
                gram = _gram_errors(overlaps, np.asarray(book.codewords)[None])[0]
                assert gram == pytest.approx(_pgm_error_dense(ch, book, DEFAULT_CONFIG), abs=1e-12)
                povm_pe = average_error(ch, book, pgm_decoder(ch, book)).pe
                assert gram == pytest.approx(povm_pe, abs=1e-12)

    def test_duplicate_codewords_singular_gram(self, pure_pair):
        book = Codebook(n=3, codewords=((0, 1, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1)))
        overlaps = pure_letter_overlaps(pure_pair)
        assert np.linalg.matrix_rank(gram_stack(overlaps, np.asarray(book.codewords)[None])[0]) == 3
        gram = _gram_errors(overlaps, np.asarray(book.codewords)[None])[0]
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
        assert _gram_errors(overlaps, np.asarray(book.codewords)[None])[0] == pytest.approx(0.0, abs=1e-14)

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
        gram = self._spy(monkeypatch, "_gram_errors")
        records = [rec for row in estimate_exponent(pure_pair, 0.3, [2, 4], 3, seed=5) for rec in row.trials]
        assert not dense
        assert sum(len(out) for _, out in gram) == len(records)
        _check_against_references(pure_pair, 0.3, 5, records)

    def test_near_pure_letter_takes_dense_path(self, monkeypatch):
        # Second eigenvalue 1e-9 is above SUPPORT_CUTOFF: the letter is mixed.
        near = np.diag([1.0 - 1e-9, 1e-9]).astype(complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        ch = CQChannel.from_states([near, plus])
        assert pure_letter_overlaps(ch) is None
        dense = self._spy(monkeypatch, "_pgm_error_dense")
        gram = self._spy(monkeypatch, "_gram_errors")
        records = [rec for row in estimate_exponent(ch, 0.3, [2, 4], 3, seed=5) for rec in row.trials]
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
                table = _sequence_table(w, np.asarray(book.codewords)[None])[0]
                assert np.array_equal(table, self._kron_rows(w, book))

    def test_one_table_per_codebook(self, monkeypatch, bsc_channel):
        tables = TestPathSelection._spy(monkeypatch, "_sequence_table")
        records = [rec for row in estimate_exponent(bsc_channel, 0.3, [4, 6], 4, seed=2) for rec in row.trials]
        assert sum(len(q) for _, q in tables) == len(records)
        _check_against_references(bsc_channel, 0.3, 2, records)


CHANNELS_DIR = Path(__file__).resolve().parent.parent / "channels"


def _rotated_classical(rng) -> CQChannel:
    """Commuting outputs that are not diagonal in the computational basis."""
    from conftest import random_unitary

    u = random_unitary(2, rng)
    w = np.array([[0.8, 0.2], [0.3, 0.7]])
    return CQChannel.from_states([u @ np.diag(row.astype(complex)) @ u.conj().T for row in w])


class TestBatching:
    @pytest.mark.parametrize("name, kernel", [("bsc01", "_sequence_table"), ("pure_pair", "_gram_errors")])
    def test_chunks_of_one_match_default(self, monkeypatch, name, kernel):
        channel = load_channel(CHANNELS_DIR / f"{name}.json")
        rows = estimate_exponent(channel, 0.3, [2, 4, 6, 8], 6, seed=8)
        records = [rec for row in rows for rec in row.trials]
        monkeypatch.setattr(coding, "CHUNK_ENTRIES", 1)
        calls = TestPathSelection._spy(monkeypatch, kernel)
        chunked_rows = estimate_exponent(channel, 0.3, [2, 4, 6, 8], 6, seed=8)
        chunked = [rec for row in chunked_rows for rec in row.trials]
        assert len(calls) == len(records)  # every codebook a chunk of its own
        assert [(r.n, r.trial, r.mode) for r in chunked] == [(r.n, r.trial, r.mode) for r in records]
        for a, b in zip(chunked, records):
            assert a.pe == pytest.approx(b.pe, abs=1e-14)
            assert a.ml_pe == (None if b.ml_pe is None else pytest.approx(b.ml_pe, abs=1e-14))
        assert [r.size for r in chunked_rows] == [r.size for r in rows]

    def test_default_chunks_hold_at_most_the_bound(self, monkeypatch, bsc_channel):
        tables = TestPathSelection._spy(monkeypatch, "_sequence_table")
        records = [rec for row in estimate_exponent(bsc_channel, 0.3, [8], 100, seed=3) for rec in row.trials]
        sizes = [q.size for _, q in tables]
        assert len(sizes) > 1 and max(sizes) <= coding.CHUNK_ENTRIES
        assert sum(len(q) for _, q in tables) == len(records) == 200

    def test_singular_gram_inside_a_batch(self, pure_pair):
        overlaps = pure_letter_overlaps(pure_pair)
        duplicate = Codebook(n=3, codewords=((0, 1, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1)))
        regular = [
            generate_codebook(2, 3, 4, IID(prior=np.array([0.5, 0.5])), seed=[31, k]) for k in range(3)
        ]
        books = [regular[0], duplicate, regular[1], regular[2]]
        stacked = coding._gram_errors(overlaps, np.asarray([b.codewords for b in books]))
        for book, pe in zip(books, stacked):
            assert pe == pytest.approx(_pgm_error_dense(pure_pair, book, DEFAULT_CONFIG), abs=1e-12)
            assert pe == pytest.approx(average_error(pure_pair, book, pgm_decoder(pure_pair, book)).pe, abs=1e-12)
        assert stacked[1] >= 0.25 - 1e-12

    def test_support_cut_is_per_matrix(self):
        # Letters 0 and 1 overlap in c = 1 - 1e-11, all others are orthogonal.
        # Book A (letters 0..11) has eigenvalues 1 +- c and 1: its own cut,
        # 1e-12 * (1 + c), keeps 1 - c = 1e-11. Book B (letter 2 twelve
        # times) has largest eigenvalue 12, and a cut taken over the stack
        # (1.2e-11) would drop that eigenvalue from A.
        c = 1.0 - 1e-11
        overlaps = np.eye(12, dtype=complex)
        overlaps[0, 1] = overlaps[1, 0] = c
        a = np.arange(12)[:, None]
        b = np.full((12, 1), 2)
        pe = coding._gram_errors(overlaps, np.stack([a, b]))
        diag = (np.sqrt(1 + c) + np.sqrt(1 - c)) / 2
        assert pe[0] == pytest.approx(1 - (10 + 2 * diag ** 2) / 12, abs=1e-9)
        assert pe[1] == pytest.approx(11 / 12, abs=1e-12)
        for words, got in zip((a, b), pe):
            assert got == coding._gram_errors(overlaps, words[None])[0]

    def test_zero_columns_inside_a_batch(self, monkeypatch):
        # noiseless_bit has W = I: most output sequences have probability 0
        # under every codeword of a book, so s = 0 columns sit in the stack.
        channel = load_channel(CHANNELS_DIR / "noiseless_bit.json")
        tables = TestPathSelection._spy(monkeypatch, "_sequence_table")
        rows = estimate_exponent(channel, 0.5, [2, 4, 6], 10, seed=12)
        records = [rec for row in rows for rec in row.trials]
        monkeypatch.undo()
        assert any((q.sum(axis=1) == 0).any() for _, q in tables)
        for rec in records:
            assert np.isfinite(rec.pe) and np.isfinite(rec.ml_pe)
        _check_against_references(channel, 0.5, 12, records)


class TestClassicalDetection:
    @pytest.mark.parametrize("name", ["bsc01", "noiseless_bit", "rotated"])
    def test_commuting_channels_take_diagonal_path(self, monkeypatch, rng, name):
        channel = _rotated_classical(rng) if name == "rotated" else load_channel(CHANNELS_DIR / f"{name}.json")
        assert channel.is_classical()
        tables = TestPathSelection._spy(monkeypatch, "_sequence_table")
        dense = TestPathSelection._spy(monkeypatch, "_pgm_error_dense")
        records = [rec for row in estimate_exponent(channel, 0.3, [2, 4], 3, seed=6) for rec in row.trials]
        assert not dense
        assert sum(len(q) for _, q in tables) == len(records)
        assert all(rec.ml_pe is not None for rec in records)

    def test_nearly_commuting_letters_take_dense_path(self, monkeypatch):
        # The commutator (5e-11) is tiny, but in any basis one letter keeps
        # off-diagonal entries near 5e-6: no common eigenbasis, so dense.
        eps = 5e-6
        sz = np.diag([eps, -eps]).astype(complex)
        sx = np.array([[0, eps], [eps, 0]], dtype=complex)
        channel = CQChannel.from_states([np.eye(2) / 2 + sz, np.eye(2) / 2 + sx])
        comm = channel.outputs[0] @ channel.outputs[1] - channel.outputs[1] @ channel.outputs[0]
        assert 0 < np.abs(comm).max() < 1e-10
        assert not channel.is_classical()
        with pytest.raises(NotClassical):
            channel.common_eigenbasis()
        tables = TestPathSelection._spy(monkeypatch, "_sequence_table")
        dense = TestPathSelection._spy(monkeypatch, "_pgm_error_dense")
        records = [rec for row in estimate_exponent(channel, 0.3, [2, 4], 3, seed=6) for rec in row.trials]
        assert not tables
        assert [out for _, out in dense] == [rec.pe for rec in records]

    def test_commutator_screen_rejects_without_decomposition(self, monkeypatch, pure_pair):
        # Entries of [rho, sigma] above 2 d tol (1 + d tol) rule out a basis
        # within tol, so pure_pair is rejected before any eigh.
        real = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or real(a))
        assert not pure_pair.is_classical()
        with pytest.raises(NotClassical):
            pure_pair.common_eigenbasis()
        assert not calls
