import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqexp import (
    TypeClass,
    enumerate_sequences,
    enumerate_types,
    nearest_type,
    type_count,
    type_of,
    type_probability,
)
from cqexp.errors import InvalidSequence, TooLarge
from cqexp.typeclasses import type_counts, type_index


class TestTypeOf:
    def test_small_example(self):
        t = type_of((0, 0, 1), 2)
        assert t.counts == (2, 1) and t.n == 3

    def test_constant_sequence(self):
        t = type_of((1, 1, 1, 1), 3)
        assert t.counts == (0, 4, 0)

    def test_out_of_range(self):
        with pytest.raises(InvalidSequence):
            type_of((0, 2), 2)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=20))
    def test_counts_sum_to_n(self, letters):
        t = type_of(letters, 4)
        assert sum(t.counts) == len(letters)
        assert np.isclose(t.frequencies().sum(), 1.0)


class TestEnumerateTypes:
    def test_n3_binary(self):
        got = [t.counts for t in enumerate_types(3, 2)]
        assert got == [(3, 0), (2, 1), (1, 2), (0, 3)]

    def test_point_masses_at_n1(self):
        got = enumerate_types(1, 4)
        assert len(got) == 4
        assert all(max(t.counts) == 1 for t in got)

    @pytest.mark.parametrize("n", range(1, 21))
    @pytest.mark.parametrize("k", range(2, 5))
    def test_count_formula_and_bound(self, n, k):
        types = enumerate_types(n, k)
        assert len(types) == math.comb(n + k - 1, k - 1) == type_count(n, k)
        assert len(types) <= (n + 1) ** k

    def test_cap(self):
        # C(1004, 4), about 4.2e10 types, is past the cap of 1e6.
        with pytest.raises(TooLarge, match="exceeds cap 1000000"):
            enumerate_types(1000, 5)


class TestEnumerateSequences:
    def test_small_class(self):
        got = list(enumerate_sequences(TypeClass(3, (2, 1))))
        assert got == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_point_mass(self):
        got = list(enumerate_sequences(TypeClass(4, (0, 4))))
        assert got == [(1, 1, 1, 1)]

    def test_multinomial_count(self):
        got = list(enumerate_sequences(TypeClass(4, (2, 2))))
        assert len(got) == 6 == len(set(got))

    def test_lazy(self):
        it = enumerate_sequences(TypeClass(4, (2, 2)))
        assert next(it) == (0, 0, 1, 1)

    def test_cap(self):
        # C(30, 15), about 1.6e8 sequences, is past the cap of 1e6.
        with pytest.raises(TooLarge, match="exceeds cap 1000000"):
            next(enumerate_sequences(TypeClass(30, (15, 15))))

    def test_all_have_declared_type(self):
        t = TypeClass(5, (2, 2, 1))
        for seq in enumerate_sequences(t):
            assert type_of(seq, 3) == t


class TestTypeProbability:
    def test_point_mass_certain(self):
        assert type_probability([1.0, 0.0], TypeClass(3, (3, 0))) == pytest.approx(1.0)

    def test_uniform_balanced(self):
        assert type_probability([0.5, 0.5], TypeClass(2, (1, 1))) == pytest.approx(0.5)

    def test_outside_support(self):
        assert type_probability([1.0, 0.0], TypeClass(2, (1, 1))) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 10), k=st.integers(2, 3))
    def test_sums_to_one(self, seed, n, k):
        p = np.random.default_rng(seed).dirichlet(np.ones(k))
        total = sum(type_probability(p, t) for t in enumerate_types(n, k))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestPartition:
    @pytest.mark.parametrize("k,n", [(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 8)])
    def test_types_partition_all_sequences(self, k, n):
        seen = set()
        total = 0
        for t in enumerate_types(n, k):
            seqs = list(enumerate_sequences(t))
            assert len(seqs) == t.sequence_count()
            seen.update(seqs)
            total += len(seqs)
        assert total == k ** n  # no overlap and full coverage
        assert seen == set(product(range(k), repeat=n))


class TestNearestType:
    def test_exact_fraction(self):
        assert nearest_type([0.5, 0.5], 4).counts == (2, 2)

    def test_rounding(self):
        t = nearest_type([0.6, 0.4], 5)
        assert t.counts == (3, 2)

    def test_is_closest_in_l1(self):
        p = np.array([0.37, 0.63])
        t = nearest_type(p, 7)
        mine = np.abs(t.frequencies() - p).sum()
        for other in enumerate_types(7, 2):
            assert mine <= np.abs(other.frequencies() - p).sum() + 1e-12


class TestTypeCounts:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_rows_descend_and_type_index_inverts_them(self, n, k):
        counts = type_counts([n], k)
        expected = sorted((c for c in product(range(n + 1), repeat=k) if sum(c) == n), reverse=True)
        assert [tuple(row) for row in counts.tolist()] == expected
        np.testing.assert_array_equal(type_index(counts, n), np.arange(len(counts)))
        np.testing.assert_array_equal(type_index(counts[::-1], n), np.arange(len(counts))[::-1])

    def test_blocklengths_stack_in_order(self):
        counts = type_counts([3, 1, 2], 2)
        assert counts.tolist() == [[3, 0], [2, 1], [1, 2], [0, 3], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
