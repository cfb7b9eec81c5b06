import numpy as np
import pytest

from zobcd.core import ConfigurationError, RngStreams
from zobcd.blocks import block_sparsity_histogram, random_partition, reshuffle_if_due
from zobcd.sparse_recovery import SparseVector


def rng(seed=0):
    return RngStreams(seed).substream("partition")


class TestRandomPartition:
    def test_even_sizes(self):
        p = random_partition(6, 3, rng())
        assert np.array_equal(p.block_sizes, [2, 2, 2])

    def test_remainder_in_leading_blocks(self):
        p = random_partition(7, 3, rng())
        assert np.array_equal(p.block_sizes, [3, 2, 2])

    def test_large_partition_is_bijection(self):
        p = random_partition(20_000, 5, rng(1))
        assert np.all(p.block_sizes == 4000)
        assert np.array_equal(np.sort(p.perm), np.arange(20_000))

    def test_bad_block_counts(self):
        with pytest.raises(ConfigurationError):
            random_partition(5, 6, rng())
        with pytest.raises(ConfigurationError):
            random_partition(5, 0, rng())

    def test_uniformity_of_marked_coordinate(self):
        # coordinate 0's block assignment is uniform over blocks
        counts = np.zeros(2)
        gen = rng(2)
        for _ in range(100_000):
            p = random_partition(6, 2, gen)
            counts[p.block_of()[0]] += 1
        freqs = counts / counts.sum()
        assert np.all(np.abs(freqs - 0.5) <= 0.05 * 0.5)


class TestRestrictLift:
    def test_block_index_out_of_range(self):
        p = random_partition(8, 2, rng())
        with pytest.raises(IndexError):
            p.block_indices(2)


class TestSparsityHistogram:
    def test_single_block(self):
        p = random_partition(10, 1, rng())
        g = SparseVector(np.array([1, 4, 7]), np.ones(3), 10)
        assert np.array_equal(block_sparsity_histogram(g, p), [3])

    def test_zero_vector(self):
        p = random_partition(10, 2, rng())
        g = SparseVector.empty(10)
        assert np.array_equal(block_sparsity_histogram(g, p), [0, 0])

    def test_counts_sum_to_nnz(self):
        gen = rng(5)
        p = random_partition(200, 7, gen)
        idx = np.sort(gen.choice(200, size=31, replace=False))
        g = SparseVector(idx, np.ones(31), 200)
        hist = block_sparsity_histogram(g, p)
        assert hist.sum() == 31

    def test_equisparsity_bound_small_scale(self):
        # empirical failure rate vs the closed-form union bound (1000 trials)
        d, s, J, trials = 20_000, 200, 5, 1000
        gen = rng(6)
        support = np.sort(gen.choice(d, size=s, replace=False))
        g = SparseVector(support, np.ones(s), d)
        cap = 1.1 * s / J
        failures = sum(
            block_sparsity_histogram(g, random_partition(d, J, gen)).max() > cap
            for _ in range(trials)
        )
        bound = 2 * J * np.exp(-0.01 * s / (3 * J))
        rate = failures / trials
        se = np.sqrt(max(rate * (1 - rate), 1 / trials) / trials)
        assert rate <= bound + 3 * se


class TestReshuffle:
    def test_disabled(self):
        p = random_partition(12, 3, rng())
        assert reshuffle_if_due(p, 5, None, rng()) is p

    def test_not_due(self):
        p = random_partition(12, 3, rng())
        assert reshuffle_if_due(p, 3, 5, rng()) is p

    def test_due_produces_new_partition(self):
        changed = 0
        for seed in range(100):
            gen = rng(seed)
            p = random_partition(100, 5, gen)
            q = reshuffle_if_due(p, 5, 5, gen)
            assert q is not p
            if not np.array_equal(q.perm, p.perm):
                changed += 1
        assert changed == 100

