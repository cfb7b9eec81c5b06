"""Tests for the FDSA, SPSA, and ZO-SCD reference methods."""

import numpy as np
import pytest

from zobcd.core import ConfigurationError, NoiseModel, RngStreams, make_noisy_oracle
from zobcd.baselines import BaselineConfig, _coordinates, run_baseline, run_fdsa, run_spsa, run_zoscd
from zobcd.objectives import SparseQuadric
from zobcd.optimizer import TERM_MAX_ITERS, TERM_TARGET


def make_quadric(d, s, seed=0):
    gen = np.random.default_rng(seed + 500)
    support = np.sort(gen.choice(d, size=s, replace=False))
    q = SparseQuadric(d, support, np.ones(s))
    x0 = np.zeros(d)
    x0[support] = gen.uniform(0.5, 1.5, size=s)
    return q, x0


def noiseless_oracle(f, seed=0):
    return make_noisy_oracle(f, NoiseModel.none(), RngStreams(seed))


class TestConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            BaselineConfig(method="adam", alpha=0.1, delta=0.01, budget=10)
        with pytest.raises(ConfigurationError):  # unhashable, so no dict lookup may see it
            BaselineConfig(method=["fdsa"], alpha=0.1, delta=0.01, budget=10)

    @pytest.mark.parametrize(
        "bad",
        [dict(alpha=0.0), dict(delta=0.0), dict(budget=0),
         # integer fields take integers only, never a float or a bool
         dict(budget=10.5), dict(max_iters=2.5), dict(budget=True), dict(seed=1.5), dict(max_iters=True),
         # number fields take numbers only
         dict(alpha="0.1"), dict(delta=None), dict(target=True)],
    )
    def test_bad_numbers(self, bad):
        kwargs = dict(method="fdsa", alpha=0.1, delta=0.01, budget=10)
        kwargs.update(bad)
        with pytest.raises(ConfigurationError):
            BaselineConfig(**kwargs)


class TestFdsa:
    def test_query_cost_is_d_plus_one(self):
        q, x0 = make_quadric(40, 4)
        oracle = noiseless_oracle(q.eval)
        cfg = BaselineConfig(method="fdsa", alpha=0.9, delta=1e-5, budget=10**6, max_iters=3)
        run_fdsa(oracle, x0, cfg, report_f=q.eval)
        assert oracle.query_count == 3 * 41

    def test_budget_below_one_iteration_spends_nothing(self):
        # d + 1 = 401 queries do not fit a budget of 10, so no iteration starts
        q, x0 = make_quadric(400, 4)
        oracle = noiseless_oracle(q.eval)
        cfg = BaselineConfig(method="fdsa", alpha=0.9, delta=1e-5, budget=10)
        res = run_fdsa(oracle, x0, cfg, report_f=q.eval)
        assert oracle.query_count == 0
        assert [r.iteration for r in res.trace.records] == [0]

    def test_converges_on_quadric(self):
        q, x0 = make_quadric(100, 10)
        oracle = noiseless_oracle(q.eval)
        cfg = BaselineConfig(method="fdsa", alpha=0.9, delta=1e-5, budget=10**6, max_iters=20)
        res = run_fdsa(oracle, x0, cfg, report_f=q.eval)
        fv = res.trace.f_values()
        assert fv[-1] <= 1e-6
        # descent is monotone down to the forward-difference bias floor,
        # which is s * (delta/2)^2 / 2 for this objective
        floor = 10 * (cfg.delta / 2) ** 2 / 2
        above = fv > 10 * floor
        assert np.all(np.diff(fv[above]) <= 0)
        assert fv[-1] <= 10 * floor


class TestSpsa:
    def test_two_queries_per_iteration(self):
        q, x0 = make_quadric(40, 4)
        oracle = noiseless_oracle(q.eval)
        cfg = BaselineConfig(method="spsa", alpha=0.01, delta=1e-4, budget=10**6, max_iters=7)
        run_spsa(oracle, x0, cfg, report_f=q.eval)
        assert oracle.query_count == 14

    def test_directional_estimate_is_unbiased_on_linear(self):
        # For f(x) = c.x the central-difference SPSA update equals
        # -alpha * (c.z) z, whose mean over Rademacher z is -alpha * c.
        d = 30
        gen = np.random.default_rng(3)
        c = gen.standard_normal(d)
        f = lambda x: float(c @ x)
        alpha = 1.0
        n_draws = 10000
        cfg = BaselineConfig(method="spsa", alpha=alpha, delta=1e-3, budget=10**9, max_iters=1, seed=11)
        deltas = np.empty((n_draws, d))
        rng = RngStreams(11).substream("directions")
        for t in range(n_draws):
            z = (rng.integers(0, 2, size=d, dtype=np.int8) * 2 - 1).astype(np.float64)
            deltas[t] = -alpha * (c @ z) * z
        mean = deltas.mean(axis=0)
        se = deltas.std(axis=0, ddof=1) / np.sqrt(n_draws)
        assert np.all(np.abs(mean + alpha * c) <= 3.0 * se + 1e-12)

    def test_descends_on_quadric(self):
        q, x0 = make_quadric(50, 5)
        oracle = noiseless_oracle(q.eval)
        cfg = BaselineConfig(method="spsa", alpha=0.05, delta=1e-4, budget=10**6, max_iters=400)
        res = run_spsa(oracle, x0, cfg, report_f=q.eval)
        fv = res.trace.f_values()
        assert fv[-1] <= 0.05 * fv[0]


class TestZoscd:
    def test_two_queries_and_single_coordinate_change(self):
        q, x0 = make_quadric(40, 4)
        oracle = noiseless_oracle(q.eval)
        cfg = BaselineConfig(method="zoscd", alpha=0.9, delta=1e-6, budget=10**6, max_iters=1)
        res = run_zoscd(oracle, x0, cfg, report_f=q.eval)
        assert oracle.query_count == 2
        changed = np.nonzero(res.x_final != x0)[0]
        assert changed.size <= 1

    @pytest.mark.parametrize("d", [1, 2, 7, 20000])
    @pytest.mark.parametrize("seed", range(5))
    def test_block_draws_equal_scalar_draws(self, seed, d):
        # the coordinates ZO-SCD draws 1,024 at a time are those of one scalar
        # rng.integers(d) call per iteration, and so is any other cut of them
        n = 3000
        scalar_rng = RngStreams(seed).substream("block_choice")
        scalar = [int(scalar_rng.integers(d)) for _ in range(n)]
        coords = _coordinates(RngStreams(seed).substream("block_choice"), d)
        assert [next(coords) for _ in range(n)] == scalar
        for cuts in ([1, 2, 3, 1024, 1970], [1000, 1000, 1000], [7] * 428 + [4]):
            block_rng = RngStreams(seed).substream("block_choice")
            assert [i for c in cuts for i in block_rng.integers(d, size=c).tolist()] == scalar

    def test_descends_on_quadric(self):
        q, x0 = make_quadric(30, 6)
        oracle = noiseless_oracle(q.eval)
        cfg = BaselineConfig(method="zoscd", alpha=0.9, delta=1e-6, budget=10**6, max_iters=600)
        res = run_zoscd(oracle, x0, cfg, report_f=q.eval)
        fv = res.trace.f_values()
        assert fv[-1] <= 1e-3 * fv[0]


class TestDispatchAndTraceSchema:
    @pytest.mark.parametrize("method", ["fdsa", "spsa", "zoscd"])
    def test_trace_schema_and_termination(self, method):
        q, x0 = make_quadric(20, 3)
        oracle = noiseless_oracle(q.eval)
        cfg = BaselineConfig(method=method, alpha=0.5, delta=1e-5, budget=10**6, max_iters=4)
        res = run_baseline(oracle, x0, cfg, report_f=q.eval)
        assert res.termination == TERM_MAX_ITERS
        tr = res.trace
        assert len(tr) == 5  # initial record plus 4 iterations
        assert list(tr.queries())[0] == 0
        assert all(b > a for a, b in zip(tr.queries(), tr.queries()[1:]))

    def test_target_termination(self):
        q, x0 = make_quadric(20, 3)
        oracle = noiseless_oracle(q.eval)
        cfg = BaselineConfig(method="fdsa", alpha=0.9, delta=1e-6, budget=10**6, target=1e-8)
        res = run_baseline(oracle, x0, cfg, report_f=q.eval)
        assert res.termination == TERM_TARGET

    @pytest.mark.parametrize("method", ["fdsa", "spsa", "zoscd"])
    def test_same_seed_reproduces_trace(self, method):
        runs = []
        for _ in range(2):
            q, x0 = make_quadric(20, 3)
            oracle = noiseless_oracle(q.eval, seed=5)
            cfg = BaselineConfig(method=method, alpha=0.2, delta=1e-4, budget=10**6, seed=5, max_iters=6)
            res = run_baseline(oracle, x0, cfg, report_f=q.eval)
            runs.append(res.trace.f_values())
        assert np.array_equal(runs[0], runs[1])
