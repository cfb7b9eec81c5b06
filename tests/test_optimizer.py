"""Tests for the ZO-BCD driver: stepping, termination, accounting, determinism."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zobcd.core import ConfigurationError, NoiseModel, Oracle, RngStreams, make_noisy_oracle
from zobcd.baselines import BaselineConfig, run_baseline
from zobcd.blocks import random_partition
from zobcd.harness import METHOD_NAMES
from zobcd.objectives import SparseQuadric
from zobcd.optimizer import (
    TERM_BUDGET,
    TERM_MAX_ITERS,
    TERM_TARGET,
    ZobcdConfig,
    _make_ensembles,
    run_zobcd,
    step,
)
from zobcd.sampling import required_rows
from zobcd.sparse_recovery import SparseVector


def make_quadric_run(d, J, s, seed=0, **overrides):
    streams = RngStreams(seed + 1000)  # distinct from the solver's streams
    gen = streams.substream("objective")
    support = np.sort(gen.choice(d, size=s, replace=False))
    q = SparseQuadric(d, support, np.ones(s))
    x0 = np.zeros(d)
    x0[support] = gen.uniform(0.5, 1.5, size=s)
    kwargs = dict(
        variant="R", d=d, J=J, s=s, alpha=1.0, delta=1e-6, budget=10**6, seed=seed
    )
    kwargs.update(overrides)
    cfg = ZobcdConfig(**kwargs)
    oracle = make_noisy_oracle(q.eval, NoiseModel.none(), RngStreams(seed))
    return q, x0, cfg, oracle


class TestStep:
    def test_zero_gradient_leaves_x_unchanged(self):
        p = random_partition(10, 2, np.random.default_rng(0))
        x = np.arange(10.0)
        out = step(x, SparseVector.empty(5), 0.5, p, 0)
        assert np.array_equal(out, x)
        assert out is not x

    def test_updates_only_named_block_coordinates(self):
        p = random_partition(10, 2, np.random.default_rng(0))
        x = np.zeros(10)
        g = SparseVector(np.array([1, 3]), np.array([2.0, -4.0]), 5)
        out = step(x, g, 0.25, p, 1)
        expected = np.zeros(10)
        expected[p.block_indices(1)[[1, 3]]] = [-0.5, 1.0]
        assert np.array_equal(out, expected)


class TestConfigValidation:
    def test_bad_variant(self):
        with pytest.raises(ConfigurationError):
            ZobcdConfig(variant="X", d=10, J=2, s=1, alpha=0.1, delta=0.01, budget=10)

    @pytest.mark.parametrize(
        "bad",
        [dict(J=0), dict(J=11), dict(s=0), dict(alpha=0.0), dict(budget=0), dict(delta=0.0),
         dict(delta=-1e-3), dict(reshuffle_period=0)],
    )
    def test_bad_numbers(self, bad):
        kwargs = dict(variant="R", d=10, J=2, s=1, alpha=0.1, delta=0.01, budget=10)
        kwargs.update(bad)
        with pytest.raises(ConfigurationError):
            ZobcdConfig(**kwargs)

    def test_rc_requires_equal_blocks(self):
        q, x0, cfg, oracle = make_quadric_run(100, 3, 4, variant="RC", max_iters=1)
        with pytest.raises(ConfigurationError):
            run_zobcd(oracle, x0, cfg)

    def test_rc_rows_beyond_block_size_rejected(self):
        q, x0, cfg, oracle = make_quadric_run(64, 2, 4, variant="RC", m_override=33, max_iters=1)
        with pytest.raises(ConfigurationError):
            run_zobcd(oracle, x0, cfg)

    def test_rc_default_rows_follow_the_row_rule(self):
        # the paper's d=20000, J=4, s=200 configuration: s_block = 53 and
        # ceil(2 * 53 * ln 5000) = 903 rows, well below the block size 5000
        q, x0, cfg, oracle = make_quadric_run(
            20000, 4, 200, variant="RC", block_sparsity_factor=1.05, max_iters=1
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            streams = RngStreams(cfg.seed)
            p = random_partition(cfg.d, cfg.J, streams.substream("partition"))
            ((n, Z),) = _make_ensembles(cfg, p, streams, 53, streams.substream("omega")).items()
            res = run_zobcd(oracle, x0, cfg, report_f=q.eval)
        assert (n, Z.m) == (5000, 903)
        assert list(res.trace.queries()) == [0, 904]

    def test_x0_dimension_mismatch(self):
        q, x0, cfg, oracle = make_quadric_run(64, 2, 4, max_iters=1)
        with pytest.raises(ConfigurationError):
            run_zobcd(oracle, np.zeros(63), cfg)


class TestRunZobcd:
    def test_single_full_gradient_step_solves_quadric(self):
        # J=1 with alpha = 1/L_max on an isotropic sparse quadric: one exact
        # gradient step lands on the minimizer up to estimation error.
        q, x0, cfg, oracle = make_quadric_run(256, 1, 8, max_iters=1)
        res = run_zobcd(oracle, x0, cfg, report_f=q.eval)
        f0 = q.eval(x0)
        assert res.termination == TERM_MAX_ITERS
        assert res.trace.f_values()[-1] <= 1e-10 * f0
        assert np.linalg.norm(res.x_final[q.support]) <= 1e-5

    def test_one_iteration_touches_at_most_one_block(self):
        q, x0, cfg, oracle = make_quadric_run(120, 4, 8, max_iters=1)
        res = run_zobcd(oracle, x0, cfg)
        s_block = math.ceil(1.1 * cfg.s / cfg.J)
        changed = np.nonzero(res.x_final != x0)[0]
        assert changed.size <= s_block

    def test_query_accounting_matches_trace(self):
        q, x0, cfg, oracle = make_quadric_run(120, 4, 8, max_iters=5)
        res = run_zobcd(oracle, x0, cfg, report_f=q.eval)
        n = 120 // 4
        s_block = math.ceil(1.1 * cfg.s / cfg.J)
        m = required_rows(s_block, n, b1=cfg.b1)
        assert oracle.query_count == 5 * (m + 1)
        assert res.trace.queries()[-1] == oracle.query_count

    def test_default_factor_gives_the_exact_block_sparsity(self):
        # the paper's d=20000, J=4, s=200 at the default factor 1.1: s_block is
        # 1.1 * 200 / 4 = 55 exactly, so m = ceil(2 * 55 * ln 5000) = 937
        q, x0, cfg, oracle = make_quadric_run(20000, 4, 200, max_iters=1)
        res = run_zobcd(oracle, x0, cfg, report_f=q.eval)
        assert list(res.trace.queries()) == [0, 938]

    def test_budget_limits_iterations(self):
        q, x0, cfg, oracle = make_quadric_run(120, 4, 8)
        n = 120 // 4
        s_block = math.ceil(1.1 * cfg.s / cfg.J)
        m = required_rows(s_block, n, b1=cfg.b1)
        cfg2 = ZobcdConfig(
            variant="R", d=120, J=4, s=8, alpha=1.0, delta=1e-6, budget=m + 1, seed=cfg.seed
        )
        res = run_zobcd(oracle, x0, cfg2, report_f=q.eval)
        assert res.termination == TERM_BUDGET
        assert len(res.trace) == 2  # iteration 0 record plus one step

    def test_target_termination(self):
        q, x0, cfg, oracle = make_quadric_run(256, 1, 8, target=1e-8)
        res = run_zobcd(oracle, x0, cfg, report_f=q.eval)
        assert res.termination == TERM_TARGET
        assert res.trace.f_values()[-1] <= 1e-8

    @pytest.mark.parametrize("variant", ["R", "RC"])
    def test_descends_on_sparse_quadric(self, variant):
        q, x0, cfg, oracle = make_quadric_run(
            240, 4, 12, variant=variant, alpha=0.9, max_iters=40
        )
        res = run_zobcd(oracle, x0, cfg, report_f=q.eval)
        fv = res.trace.f_values()
        assert fv[-1] <= 1e-4 * fv[0]

    @pytest.mark.parametrize("variant", ["R", "RC"])
    def test_same_seed_reproduces_f_trace(self, variant):
        runs = []
        for _ in range(2):
            q, x0, cfg, oracle = make_quadric_run(
                120, 4, 8, variant=variant, seed=7, max_iters=6
            )
            res = run_zobcd(oracle, x0, cfg, report_f=q.eval)
            runs.append(res.trace.f_values())
        assert np.array_equal(runs[0], runs[1])

    def test_reshuffle_keeps_descending(self):
        q, x0, cfg, oracle = make_quadric_run(
            240, 4, 12, alpha=0.9, max_iters=40, reshuffle_period=4
        )
        res = run_zobcd(oracle, x0, cfg, report_f=q.eval)
        fv = res.trace.f_values()
        assert fv[-1] <= 1e-4 * fv[0]

    @pytest.mark.parametrize(
        "variant, m_override, message",
        [
            # the golden dense-fallback configuration: the 28 rows the rule asks
            # for are clamped to n = 10, and the square fits stay silent
            ("R", None, "clamped to the block size"),
            # 8 rows on 10-column blocks: the first fit takes all 10 columns
            ("RC", 8, "underdetermined"),
        ],
    )
    def test_half_dense_blocks_warn_from_the_right_place(self, variant, m_override, message):
        # s_block = 6 >= n/2 = 5 on blocks of n = 10
        q, x0, cfg, oracle = make_quadric_run(
            40, 4, 20, seed=7, variant=variant, m_override=m_override, alpha=0.9, delta=1e-2,
            max_iters=6,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_zobcd(oracle, x0, cfg, report_f=q.eval)
        assert caught
        assert {w.category for w in caught} == {UserWarning}
        assert all(message in str(w.message) for w in caught)


class TestUnequalBlocks:
    """d=121, J=4: block 0 holds 31 coordinates, blocks 1-3 hold 30.

    Smaller blocks take their directions from the largest block's master
    Rademacher rows, truncated to m_j rows and n_j columns.
    """

    d, J, s, b1 = 121, 4, 24, 1.0
    s_block = math.ceil(1.1 * s / J)

    def rows(self, n):
        return required_rows(self.s_block, n, b1=self.b1)

    def test_iteration_costs_m_j_plus_one_for_the_chosen_block(self):
        assert self.rows(31) != self.rows(30)  # otherwise the costs cannot tell the blocks apart
        iters = 16
        q, x0, cfg, oracle = make_quadric_run(self.d, self.J, self.s, b1=self.b1, max_iters=iters)
        res = run_zobcd(oracle, x0, cfg, report_f=q.eval)
        p = random_partition(self.d, self.J, RngStreams(cfg.seed).substream("partition"))
        choice = RngStreams(cfg.seed).substream("block_choice")
        blocks = [int(choice.integers(self.J)) for _ in range(iters)]
        assert {int(p.block_sizes[j]) for j in blocks} == {30, 31}
        expected = [self.rows(int(p.block_sizes[j])) + 1 for j in blocks]
        assert list(np.diff(res.trace.queries())) == expected
        assert oracle.query_count == sum(expected)

    def test_smaller_block_rows_are_prefix_of_master(self):
        cfg = ZobcdConfig(variant="R", d=self.d, J=self.J, s=self.s, alpha=1.0, delta=1e-6,
                          budget=10**6, b1=self.b1)
        streams = RngStreams(cfg.seed)
        p = random_partition(self.d, self.J, streams.substream("partition"))
        ens = _make_ensembles(cfg, p, streams, self.s_block, streams.substream("omega"))
        assert sorted(ens) == [30, 31]
        master, small = ens[31], ens[30]
        assert (master.m, master.n) == (self.rows(31), 31)
        assert (small.m, small.n) == (self.rows(30), 30)
        assert np.array_equal(small.cols, master.cols[:30, : small.m])
        assert np.shares_memory(small.cols, master.cols)  # a view, not a copy
        assert np.all(np.abs(small.cols) == 1.0)


@pytest.mark.parametrize("seed", [0, 7])
def test_circulant_draws_z_then_omega_from_their_streams(seed):
    # z is the first n signs of the directions stream and omega the sorted
    # first choice draw of the omega stream: the order fixed-seed RC traces pin
    d, J, m = 120, 4, 9
    cfg = ZobcdConfig(variant="RC", d=d, J=J, s=4, alpha=1.0, delta=1e-6, budget=10**6,
                      seed=seed, m_override=m)
    streams = RngStreams(seed)
    p = random_partition(d, J, streams.substream("partition"))
    ((n, Z),) = _make_ensembles(cfg, p, streams, 2, streams.substream("omega")).items()
    assert (n, Z.m, Z.n) == (30, m, 30)
    z = streams.substream("directions").integers(0, 2, size=n, dtype=np.int8) * 2.0 - 1.0
    omega = np.sort(streams.substream("omega").choice(n, size=m, replace=False))
    assert np.array_equal(Z.z, z)
    assert np.array_equal(Z.omega, omega)
    assert np.array_equal(Z._zf, np.fft.rfft(z))


class TestBudgetIsHardCap:
    def test_no_iteration_started_that_cannot_finish(self):
        # d=2000, J=2, s=20 costs m + 1 = 153 queries per iteration: a budget
        # of 300 fits one iteration, not two
        q, x0, cfg, oracle = make_quadric_run(2000, 2, 20, budget=300)
        res = run_zobcd(oracle, x0, cfg, report_f=q.eval)
        assert oracle.query_count == 153
        assert res.termination == TERM_BUDGET
        assert [r.cumulative_queries for r in res.trace.records] == [0, 153]

    def test_fallback_record_reports_queries_used(self):
        q, x0, cfg, oracle = make_quadric_run(120, 4, 8, budget=5)
        res = run_zobcd(oracle, x0, cfg)
        assert oracle.query_count == 0
        (rec,) = res.trace.records
        assert (rec.iteration, rec.cumulative_queries) == (0, 0)
        assert math.isnan(rec.f_value)

    @settings(max_examples=60, deadline=None)
    @given(
        method=st.sampled_from(METHOD_NAMES),
        budget=st.integers(1, 400),
        n=st.integers(8, 40),
        J=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        report=st.booleans(),
    )
    def test_every_method_stays_within_budget(self, method, budget, n, J, seed, report):
        d = n * J
        gen = np.random.default_rng(seed)
        q = SparseQuadric.random(d, 2, gen)
        x0 = gen.standard_normal(d)
        x0_before = x0.copy()
        oracle = make_noisy_oracle(q.eval, NoiseModel.gaussian(1e-6), RngStreams(seed))
        report_f = q.eval if report else None
        if method.startswith("zobcd"):
            variant = "R" if method == "zobcd-r" else "RC"
            cfg = ZobcdConfig(variant=variant, d=d, J=J, s=2, alpha=0.5, delta=1e-3, budget=budget, seed=seed)
            res = run_zobcd(oracle, x0, cfg, report_f=report_f)
        else:
            cfg = BaselineConfig(method=method, alpha=0.1, delta=1e-3, budget=budget, seed=seed)
            res = run_baseline(oracle, x0, cfg, report_f=report_f)
        assert oracle.query_count <= budget
        assert res.trace.records[-1].cumulative_queries == oracle.query_count
        assert res.termination == TERM_BUDGET
        assert np.array_equal(x0, x0_before)


class OneShotSpy:
    """Wraps ``Oracle.<name>`` on the class for one call, then puts it back.

    Built like the benchmark's first-query timer: a loop that bound the
    method once and reused it would keep calling the spy.
    """

    def __init__(self, name):
        self.name, self.calls = name, 0

    def __enter__(self):
        orig = self.orig = Oracle.__dict__[self.name]

        def once(oracle, *args):
            self.calls += 1
            setattr(Oracle, self.name, orig)
            return orig(oracle, *args)

        setattr(Oracle, self.name, once)
        return self

    def __exit__(self, *exc):
        setattr(Oracle, self.name, self.orig)


class TestQueriesGoThroughTheClass:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_one_shot_spy_fires_once_and_changes_nothing(self, method):
        def run():
            d = 60
            gen = np.random.default_rng(5)
            q = SparseQuadric.random(d, 3, gen)
            x0 = gen.standard_normal(d)
            oracle = make_noisy_oracle(q.eval, NoiseModel.gaussian(1e-6), RngStreams(5))
            if method.startswith("zobcd"):
                variant = "R" if method == "zobcd-r" else "RC"
                cfg = ZobcdConfig(variant=variant, d=d, J=3, s=3, alpha=0.5, delta=1e-3, budget=2000, seed=5)
                res = run_zobcd(oracle, x0, cfg, report_f=q.eval)
            else:
                cfg = BaselineConfig(method=method, alpha=0.1, delta=1e-3, budget=2000, seed=5)
                res = run_baseline(oracle, x0, cfg, report_f=q.eval)
            return [r[:3] for r in res.trace.records], res.x_final

        ref_records, ref_x = run()
        assert len(ref_records) > 3
        names = ["eval", "eval_block"] if method.startswith("zobcd") else ["eval"]
        for name in names:
            with OneShotSpy(name) as spy:
                records, x = run()
            assert spy.calls == 1
            assert Oracle.__dict__[name] is spy.orig
            assert records == ref_records
            assert np.array_equal(x, ref_x)
