"""CQChannel as the one owner of letter checks, repair, the letter
decomposition and the commuting test."""

import numpy as np
import pytest

from cqexp import CQChannel, channel_from_dict
from cqexp.config import LOAD_TOL
from cqexp.errors import DimensionError, InvalidChannelSpec, InvalidOperator, NotPSD

from conftest import random_unitary

# Letter 0 of the loader's drift test: Hermitian, trace 1 + 3e-9.
DRIFTED = np.array([[0.5 + 3e-9, 0.1 + 1e-9j], [0.1 - 1e-9j, 0.5]])
PLUS = np.full((2, 2), 0.5, dtype=complex)


class TestRepair:
    def test_drift_is_repaired_on_every_construction(self):
        ch = CQChannel.from_states([DRIFTED])
        assert abs(np.trace(ch.outputs[0]).real - 1.0) < 1e-14
        assert np.array_equal(ch.outputs[0], ch.outputs[0].conj().T)

    def test_anti_hermitian_drift_is_removed(self):
        skew = PLUS + np.array([[0.0, 4e-9], [-4e-9, 0.0]])
        ch = CQChannel.from_states([skew])
        assert np.array_equal(ch.outputs[0], PLUS)

    def test_repair_is_the_loader_order(self):
        # Hermitian part, then division by its real trace: the bits the
        # loader produced before the checks moved here.
        raw = DRIFTED + np.array([[0.0, 2e-9], [0.0, 1e-9j]])
        herm = (raw + raw.conj().T) / 2
        ch = CQChannel.from_states([raw, PLUS])
        assert np.array_equal(ch.outputs[0], herm / float(np.trace(herm).real))

    def test_small_negative_stochastic_entries_become_zero(self):
        ch = CQChannel.from_stochastic_matrix([[1.0 + 5e-9, -5e-9], [0.2, 0.8]])
        assert ch.outputs[0, 1, 1] == 0.0
        assert np.trace(ch.outputs[0]).real == pytest.approx(1.0, abs=1e-15)

    def test_rows_are_divided_by_their_sum(self):
        ch = CQChannel.from_stochastic_matrix([[0.9 + 4e-9, 0.1], [0.3, 0.7]])
        row = np.array([0.9 + 4e-9, 0.1])
        assert np.array_equal(np.diagonal(ch.outputs[0]).real, row / row.sum())


class TestRejection:
    """Every rejection names the letter at fault, built directly or loaded."""

    CASES = [
        (np.array([[0.5, 1.0], [0.0, 0.5]]), InvalidOperator, "output 1 is not Hermitian"),
        (np.diag([1.1, -0.1]), NotPSD, "output 1 has eigenvalue -1.000e-01"),
        (np.diag([0.9, 0.3]), InvalidOperator, "output 1 has trace 1.2, expected 1"),
        (np.diag([np.nan, 1.0]), InvalidOperator, "output 1 is not Hermitian"),
    ]

    @pytest.mark.parametrize("bad, error, message", CASES)
    def test_construction_names_the_letter(self, bad, error, message):
        with pytest.raises(error, match=message):
            CQChannel.from_states([PLUS, bad])

    @pytest.mark.parametrize("bad, error, message", CASES)
    def test_loader_passes_the_message_on(self, bad, error, message):
        bad = np.asarray(bad, dtype=complex)
        pairs = [[[[z.real, z.imag] for z in row] for row in m] for m in (PLUS, bad)]
        with pytest.raises(InvalidChannelSpec, match=message):
            channel_from_dict({"cqspec": 1, "dim": 2, "outputs": pairs})

    def test_stochastic_rows_are_letters(self):
        with pytest.raises(NotPSD, match="output 1 has eigenvalue -2.000e-01"):
            CQChannel.from_stochastic_matrix([[0.5, 0.5], [1.2, -0.2]])
        with pytest.raises(InvalidOperator, match="output 0 has trace 0.9"):
            CQChannel.from_stochastic_matrix([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(InvalidChannelSpec, match="output 0 has trace 0.9"):
            channel_from_dict({"cqspec": 1, "stochastic_matrix": [[0.5, 0.4], [0.5, 0.5]]})

    def test_negative_entry_past_the_tolerance_is_kept_and_rejected(self):
        with pytest.raises(NotPSD):
            CQChannel.from_stochastic_matrix([[1.0 + 2 * LOAD_TOL, -2 * LOAD_TOL]])

    def test_label_count(self):
        with pytest.raises(DimensionError, match="1 labels for 2 outputs"):
            CQChannel.from_states([PLUS, PLUS], alphabet=["a"])

    def test_ragged_shorthand_is_a_spec_error(self):
        with pytest.raises(InvalidChannelSpec):
            channel_from_dict({"cqspec": 1, "stochastic_matrix": [[0.5, 0.5], [1.0]]})


def test_infinite_entry_is_not_hermitian():
    # An infinite entry opposite a finite one: inf <= 1e-8 * inf would pass a
    # bare tolerance test against max |rho_ij|.
    with pytest.raises(InvalidOperator, match="output 1 is not Hermitian"):
        CQChannel.from_states([PLUS, np.array([[0.5, np.inf], [0.0, 0.5]])])


class TestOneDecomposition:
    """Construction decomposes the letters once; ``spectra`` is that decomposition."""

    @staticmethod
    def _calls(monkeypatch) -> list[str]:
        """Names of the eigensolvers called from here on, in call order."""
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, _r=real: calls.append(_n) or _r(*a))
        return calls

    def test_dense_letters_take_one_eigh(self, monkeypatch, rng):
        calls = self._calls(monkeypatch)
        mixed = CQChannel.from_states([PLUS, DRIFTED, np.diag([0.5, 0.5])])
        projectors = CQChannel.from_states([np.outer(c, c.conj()) for c in random_unitary(3, rng).T])
        assert calls == ["eigh", "eigh"]
        assert mixed.spectra[0].shape == (3, 2) and projectors.spectra[1].shape == (3, 3, 3)
        assert calls == ["eigh", "eigh"]

    def test_diagonal_letters_take_none(self, monkeypatch):
        calls = self._calls(monkeypatch)
        channel = CQChannel.from_stochastic_matrix([[0.9, 0.1, 0.0], [0.2, 0.3, 0.5]])
        lam, vec = channel.spectra
        assert calls == []
        assert np.array_equal(lam, [[0.9, 0.1, 0.0], [0.5, 0.3, 0.2]])
        assert np.array_equal(vec[1], np.eye(3)[:, [2, 1, 0]])


class TestCommutingBasis:
    @staticmethod
    def _rotated(rng) -> CQChannel:
        u = random_unitary(2, rng)
        w = np.array([[0.8, 0.2], [0.3, 0.7]])
        return CQChannel.from_states([u @ np.diag(row.astype(complex)) @ u.conj().T for row in w])

    def test_decided_once_per_channel(self, monkeypatch, rng):
        channel = self._rotated(rng)
        real = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or real(a))
        assert channel.is_classical()
        first = len(calls)
        assert first >= 1
        basis = channel.common_eigenbasis()
        w = channel.induced_stochastic_matrix()
        for _ in range(2):
            assert channel.is_classical()
            assert channel.common_eigenbasis() is basis
            assert np.array_equal(channel.induced_stochastic_matrix(), w)
        assert len(calls) == first

    def test_negative_answer_is_kept_too(self, monkeypatch):
        # The commutator (5e-11) passes the screen, so the first call tries
        # all 8 random combinations and finds no basis; later calls reuse that.
        eps = 5e-6
        channel = CQChannel.from_states([
            np.eye(2) / 2 + np.diag([eps, -eps]), np.eye(2) / 2 + np.array([[0, eps], [eps, 0]]),
        ])
        real = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or real(a))
        assert not channel.is_classical()
        assert len(calls) == 8
        assert not channel.is_classical()
        assert len(calls) == 8
