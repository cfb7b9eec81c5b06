import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zobcd.core import ConfigurationError, NoiseModel, NumericalFailure, RngStreams, make_noisy_oracle
from zobcd.blocks import random_partition
from zobcd.estimator import estimate_block_gradient, theoretical_radius
from zobcd.objectives import SparseQuadric
from zobcd.optimizer import TERM_FAILURE, ZobcdConfig, run_zobcd
from zobcd.sampling import make_partial_circulant, make_rademacher, required_rows


def make_setup(d, J, s_block, seed, b1=2.0):
    """Streams, a partition, and block 0's (Z, delta, s) estimator arguments."""
    streams = RngStreams(seed)
    p = random_partition(d, J, streams.substream("partition"))
    n = int(p.block_sizes[0])
    m = required_rows(s_block, n, b1=b1)
    Z = make_rademacher(m, n, streams.substream("directions"))
    return streams, p, (Z, 1e-2, s_block)


class TestEstimateBlockGradient:
    def test_linear_objective_recovered_exactly(self):
        d, J, s = 128, 2, 4
        streams, p, args = make_setup(d, J, s, seed=0)
        gen = streams.substream("objective")
        c = np.zeros(d)
        block0 = p.block_indices(0)
        c[gen.choice(block0, size=s, replace=False)] = gen.standard_normal(s) + 1.0
        oracle = make_noisy_oracle(lambda x: float(c @ x), NoiseModel.none(), streams)
        x = gen.standard_normal(d)
        g_hat, _ = estimate_block_gradient(oracle, x, p, 0, *args)
        np.testing.assert_allclose(g_hat.to_dense(), c[block0], atol=1e-8)

    def test_sparse_quadric_relative_accuracy(self):
        # Forward differences on a quadric carry a second-order bias of
        # magnitude delta * sum(a_i) / 2 spread over the measurements, so the
        # row count must be large enough to average it below the tolerance.
        d, J, s, m = 4000, 2, 3, 1200
        streams = RngStreams(1)
        p = random_partition(d, J, streams.substream("partition"))
        gen = streams.substream("objective")
        support = np.sort(gen.choice(p.block_indices(0), size=s, replace=False))
        q = SparseQuadric(d, support, np.ones(s))
        Z = make_rademacher(m, int(p.block_sizes[0]), streams.substream("directions"))
        oracle = make_noisy_oracle(q.eval, NoiseModel.none(), streams)
        x = gen.uniform(-1.0, 1.0, size=d)
        x[support] = np.sign(x[support])
        g_hat, _ = estimate_block_gradient(oracle, x, p, 0, Z, 1e-2, s)
        g_true = q.grad(x).to_dense()[p.block_indices(0)]
        assert np.linalg.norm(g_hat.to_dense() - g_true) <= 1e-3 * np.linalg.norm(g_true)

    def test_query_accounting(self):
        d, J, s = 64, 2, 3
        streams, p, args = make_setup(d, J, s, seed=2)
        oracle = make_noisy_oracle(lambda x: float(x.sum()), NoiseModel.none(), streams)
        x = np.zeros(d)
        for _ in range(3):
            before = oracle.query_count
            estimate_block_gradient(oracle, x, p, 0, *args)
            assert oracle.query_count - before == args[0].m + 1

    def test_input_point_unchanged(self):
        d, J, s = 64, 2, 3
        streams, p, args = make_setup(d, J, s, seed=3)
        oracle = make_noisy_oracle(lambda x: float(x @ x), NoiseModel.none(), streams)
        x = streams.substream("objective").standard_normal(d)
        x_before = x.copy()
        estimate_block_gradient(oracle, x, p, 1, *args)
        assert np.array_equal(x, x_before)

    def test_return_base(self):
        # the second return value is the base query f(x) the differences used
        d, J, s = 64, 2, 3
        streams, p, args = make_setup(d, J, s, seed=4)
        oracle = make_noisy_oracle(lambda x: 7.5, NoiseModel.gaussian(1e-2), streams)
        g_hat, base = estimate_block_gradient(oracle, np.zeros(d), p, 0, *args)
        replay = make_noisy_oracle(lambda x: 7.5, NoiseModel.gaussian(1e-2), streams)
        assert base == replay.eval(np.zeros(d)) != 7.5
        assert g_hat.dim == int(p.block_sizes[0])

    def test_dimension_mismatch_rejected(self):
        streams, p, args = make_setup(64, 2, 3, seed=5)
        oracle = make_noisy_oracle(lambda x: 0.0, NoiseModel.none(), streams)
        bad_p = random_partition(64, 4, streams.substream("partition"))
        with pytest.raises(ConfigurationError):
            estimate_block_gradient(oracle, np.zeros(64), bad_p, 0, *args)

    @pytest.mark.parametrize("delta", [0.0, -1e-2, float("nan"), float("inf")])
    def test_bad_radius_rejected(self, delta):
        streams, p, (Z, _, s) = make_setup(64, 2, 3, seed=5)
        oracle = make_noisy_oracle(lambda x: 0.0, NoiseModel.none(), streams)
        with pytest.raises(ConfigurationError, match="query radius"):
            estimate_block_gradient(oracle, np.zeros(64), p, 0, Z, delta, s)
        assert oracle.query_count == 0

    def test_sparsity_above_block_dimension_rejected(self):
        streams, p, (Z, delta, _) = make_setup(64, 2, 3, seed=5)
        oracle = make_noisy_oracle(lambda x: 0.0, NoiseModel.none(), streams)
        for s in (33, 0):  # blocks of 32 coordinates
            with pytest.raises(ConfigurationError, match="block sparsity"):
                estimate_block_gradient(oracle, np.zeros(64), p, 0, Z, delta, s)
        assert oracle.query_count == 0


class TestExactOnDiagonalQuadrics:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        J=st.integers(1, 3),
        n=st.integers(100, 300),
        s=st.integers(1, 4),
        rows=st.floats(4.0, 6.0),
        delta=st.floats(1e-3, 0.3),
        circulant=st.booleans(),
        data=st.data(),
    )
    def test_recovers_the_block_gradient(self, seed, J, n, s, rows, delta, circulant, data):
        # Along a +-1 direction z, f(x + delta z) - f(x) = delta g.z +
        # delta^2 tr(H_jj) / 2 exactly for a diagonal Hessian: every
        # measurement shares the second term, and the centred fit removes it
        # at any radius. The noiseless estimate is then exact up to rounding
        # whenever CoSaMP recovers the support, as it does at m >= 4 s ln n.
        streams = RngStreams(seed)
        gen = streams.substream("objective")
        p = random_partition(J * n, J, streams.substream("partition"))
        j = data.draw(st.integers(0, J - 1), label="block")
        block = p.block_indices(j)
        nnz = data.draw(st.integers(1, s), label="nnz in the block")
        outside = np.setdiff1d(np.arange(J * n), block)
        support = np.concatenate((gen.choice(block, size=nnz, replace=False),
                                  gen.choice(outside, size=min(5, outside.size), replace=False)))
        q = SparseQuadric(J * n, support, gen.uniform(0.5, 2.0, size=support.size))
        n_j = block.size
        m = min(math.ceil(rows * s * math.log(n_j)), n_j)
        assert m >= 4 * s * math.log(n_j)
        make = make_partial_circulant if circulant else make_rademacher
        Z = make(m, n_j, streams.substream("directions"))
        oracle = make_noisy_oracle(q.eval, NoiseModel.none(), streams)
        # |x_i| >= 1/2 keeps the block gradient well above f's rounding
        x = gen.choice([-1.0, 1.0], size=J * n) * gen.uniform(0.5, 2.0, size=J * n)
        g_hat, _ = estimate_block_gradient(oracle, x, p, j, Z, delta, s)
        g_true = q.grad(x).to_dense()[block]
        assert np.linalg.norm(g_hat.to_dense() - g_true) <= 1e-10 * np.linalg.norm(g_true)


class Blowup:
    """Finite everywhere except at probe direction k of every block."""

    def __init__(self, k, value):
        self.k, self.value = k, value

    def eval(self, x):
        return 0.0

    def eval_block(self, x, idx, Z, delta):
        out = np.zeros(Z.m)
        out[self.k] = self.value
        return out


class TestNonFiniteProbe:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("batched", [True, False], ids=["eval_block", "loop"])
    def test_names_the_direction(self, value, batched):
        d, J, s, k = 64, 2, 3, 5
        streams, p, args = make_setup(d, J, s, seed=7)
        obj = Blowup(k, value)
        if batched:
            f = obj.eval
        else:  # a plain callable: the base query is call 0, direction i is call i + 1
            calls = []

            def f(x):
                calls.append(1)
                return value if len(calls) == k + 2 else 0.0

        oracle = make_noisy_oracle(f, NoiseModel.gaussian(1e-6), streams)
        with pytest.raises(NumericalFailure, match=f"at direction {k}$"):
            estimate_block_gradient(oracle, np.zeros(d), p, 0, *args)
        assert oracle.query_count == args[0].m + 1

    def test_run_ends_in_numerical_failure(self):
        d = 40
        oracle = make_noisy_oracle(Blowup(3, np.nan).eval, NoiseModel.none(), RngStreams(0))
        cfg = ZobcdConfig(variant="R", d=d, J=2, s=2, alpha=0.5, delta=1e-2, budget=10**4)
        res = run_zobcd(oracle, np.ones(d), cfg)
        assert res.termination == TERM_FAILURE
        assert np.array_equal(res.x_final, np.ones(d))


class TestMeasurementScaling:
    def test_finite_difference_discrepancy_slope(self):
        # measurement error vs the analytic linearization decays like delta
        d, J = 200, 2
        streams = RngStreams(6)
        p = random_partition(d, J, streams.substream("partition"))
        gen = streams.substream("objective")
        s = 5
        q = SparseQuadric(d, np.sort(gen.choice(p.block_indices(0), size=s, replace=False)), np.ones(s))
        n = int(p.block_sizes[0])
        m = 60
        Z = make_rademacher(m, n, streams.substream("directions"))
        x = gen.uniform(-1.0, 1.0, size=d)
        block0 = p.block_indices(0)
        g_block = q.grad(x).to_dense()[block0]
        deltas = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
        errors = []
        for delta in deltas:
            y = np.empty(m)
            for i in range(m):
                xp = x.copy()
                xp[block0] += delta * Z.row(i)
                y[i] = (q.eval(xp) - q.eval(x)) / delta
            errors.append(np.linalg.norm(y - Z.apply(g_block)))
        slope = np.polyfit(np.log(deltas), np.log(errors), 1)[0]
        assert 0.9 <= slope <= 1.1


class TestTheoreticalRadius:
    def test_noiseless_fallback(self):
        assert theoretical_radius(0.0, 1.0) == 1e-2
        assert theoretical_radius(1e-4, None) == 1e-2

    def test_arithmetic(self):
        assert theoretical_radius(1e-4, 1.0) == pytest.approx(0.02)
        assert theoretical_radius(1.0, 4.0) == pytest.approx(1.0)

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            theoretical_radius(1.0, -2.0)
        with pytest.raises(ConfigurationError):
            theoretical_radius(-1.0, 1.0)

    @pytest.mark.parametrize(
        "sigma, H",
        [(float("nan"), 1.0), (float("inf"), 1.0), (float("nan"), None), (float("inf"), None),
         (1e-4, float("nan")), (1e-4, float("inf"))],
    )
    def test_non_finite_inputs_rejected(self, sigma, H):
        with pytest.raises(ConfigurationError):
            theoretical_radius(sigma, H)
