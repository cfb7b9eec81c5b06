import inspect
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zobcd.core import (
    ConfigurationError,
    ConvergenceTrace,
    NoiseModel,
    Oracle,
    RngStreams,
    TraceRecord,
    make_noisy_oracle,
)
from zobcd.objectives import MaxSSumSquared, SparseQuadric
from zobcd.sampling import RademacherEnsemble, make_partial_circulant, make_rademacher

NOISES = [NoiseModel.none(), NoiseModel.bounded(0.1), NoiseModel.gaussian(1e-2)]


def test_noiseless_oracle_identity():
    streams = RngStreams(0)
    oracle = make_noisy_oracle(lambda x: float(x @ x), NoiseModel.none(), streams)
    assert oracle.eval(np.array([1.0, 2.0])) == 5.0
    assert oracle.query_count == 1


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_negative_master_seed_rejected(seed):
    with pytest.raises(ConfigurationError):
        RngStreams(seed)


def test_query_counter_increments_once_per_eval():
    oracle = make_noisy_oracle(lambda x: 0.0, NoiseModel.none(), RngStreams(0))
    x = np.zeros(3)
    for k in range(10):
        oracle.eval(x)
        assert oracle.query_count == k + 1


def test_bounded_noise_respects_bound():
    oracle = make_noisy_oracle(lambda x: 0.0, NoiseModel.bounded(0.1), RngStreams(3))
    x = np.zeros(2)
    values = np.array([oracle.eval(x) for _ in range(10_000)])
    assert np.all(np.abs(values) <= 0.1)


def test_gaussian_noise_sample_variance():
    # law-of-large-numbers check: sample variance of 1e5 draws near 1e-3
    oracle = make_noisy_oracle(lambda x: 0.0, NoiseModel.gaussian(1e-3), RngStreams(5))
    x = np.zeros(1)
    values = np.array([oracle.eval(x) for _ in range(100_000)])
    assert 0.8e-3 <= values.var() <= 1.2e-3


def test_noise_draws_addressed_by_query_index():
    # two oracles with the same seed see the same noise sequence
    a = make_noisy_oracle(lambda x: 0.0, NoiseModel.gaussian(1.0), RngStreams(9))
    b = make_noisy_oracle(lambda x: 0.0, NoiseModel.gaussian(1.0), RngStreams(9))
    x = np.zeros(1)
    assert [a.eval(x) for _ in range(20)] == [b.eval(x) for _ in range(20)]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    kind=st.sampled_from(["bounded", "gaussian"]),
    level=st.one_of(st.just(0.0), st.just(1), st.floats(0.0, 1e300)),
    calls=st.lists(st.one_of(st.none(), st.integers(1, 12)), max_size=12),
    circulant=st.booleans(),
)
def test_noise_is_one_stream_in_query_order(seed, kind, level, calls, circulant):
    # any mix of eval (None) and eval_block (its m) gives query i the i-th
    # draw of the "noise" substream
    noise = NoiseModel(kind, level)
    oracle = make_noisy_oracle(lambda v: 0.0, noise, RngStreams(seed))
    gen, n = np.random.default_rng(0), 12
    x, idx = np.zeros(n), np.arange(n)
    got = []
    for m in calls:
        if m is None:
            got.append(oracle.eval(x))
        else:
            Z = make_partial_circulant(m, n, gen) if circulant else make_rademacher(m, n, gen)
            got.extend(oracle.eval_block(x, idx, Z, 0.1).tolist())
    total = len(got)
    stream = RngStreams(seed).substream("noise")  # f is 0.0, so value i is 0.0 + draw i
    if kind == "bounded":
        want = 0.0 + stream.uniform(-level, level, size=total)
    else:
        want = 0.0 + stream.normal(0.0, math.sqrt(level), size=total)
    assert np.array(got, dtype=np.float64).tobytes() == want.tobytes()
    assert oracle.query_count == total


def _block_case(seed, circulant):
    gen = np.random.default_rng(seed)
    d, n, m = 60, 25, 9
    idx = gen.permutation(d)[:n]  # an unsorted block
    Z = make_partial_circulant(m, n, gen) if circulant else make_rademacher(m, n, gen)
    return gen.standard_normal(d), idx, Z


def _sequential(f, noise, x, idx, Z, delta, skip=0):
    """The values of m eval calls at the probe points, after ``skip`` other queries."""
    oracle = make_noisy_oracle(f, noise, RngStreams(3))
    for _ in range(skip):
        oracle.eval(x)
    out = []
    for i in range(Z.m):
        xw = x.copy()
        xw[idx] = x[idx] + delta * Z.row(i)
        out.append(oracle.eval(xw))
    return np.array(out)


class TestEvalBlock:
    @pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.kind)
    @pytest.mark.parametrize("operator", ["R", "RC", "R-view"])
    @pytest.mark.parametrize("objective", ["quadric", "maxsum", "callable"])
    def test_equals_sequential_evals(self, noise, operator, objective):
        x, idx, Z = _block_case(1, operator == "RC")
        if operator == "R-view":  # a smaller block's view of a master, as ZO-BCD-R builds it for unequal blocks
            master = make_rademacher(Z.m + 4, Z.n + 10, np.random.default_rng(5))
            Z = RademacherEnsemble(cols=master.cols[: Z.n, : Z.m])
        obj = {"quadric": SparseQuadric.random(60, 7, np.random.default_rng(2)), "maxsum": MaxSSumSquared(60, 5)}
        f = obj[objective].eval if objective in obj else (lambda v: float(np.sin(v).sum()))
        oracle = make_noisy_oracle(f, noise, RngStreams(3))
        oracle.eval(x)  # the block's query indices start at 1
        x_before = x.copy()
        got = oracle.eval_block(x, idx, Z, 0.05)
        assert np.array_equal(x, x_before)
        assert oracle.query_count == 1 + Z.m
        assert np.array_equal(got, _sequential(f, noise, x, idx, Z, 0.05, skip=1))

    @pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.kind)
    @pytest.mark.parametrize("circulant", [False, True], ids=["R", "RC"])
    def test_plain_callable_across_row_blocks(self, noise, circulant):
        # a long block, 20000 of the 20500 coordinates: each row's probe is
        # built from x's values on the block, not from the probe before it
        gen = np.random.default_rng(7)
        d, n, m = 20_500, 20_000, 20
        idx = gen.permutation(d)[:n]
        Z = make_partial_circulant(m, n, gen) if circulant else make_rademacher(m, n, gen)
        x = gen.standard_normal(d)
        f = lambda v: float(np.sin(v).sum())
        oracle = make_noisy_oracle(f, noise, RngStreams(3))
        oracle.eval(x)
        got = oracle.eval_block(x, idx, Z, 0.05)
        assert oracle.query_count == 1 + m
        assert np.array_equal(got, _sequential(f, noise, x, idx, Z, 0.05, skip=1))

    def test_plain_callable_with_integer_rows(self):
        # an operator whose row gives integer signs still probes in float
        x, idx, Z = _block_case(2, False)

        class IntegerRows:
            m, n = Z.m, Z.n

            def row(self, i):
                return Z.row(i).astype(np.int8)

        f = lambda v: float(np.sin(v).sum())
        got = make_noisy_oracle(f, NoiseModel.none(), RngStreams(3)).eval_block(x, idx, IntegerRows(), 0.05)
        assert np.array_equal(got, _sequential(f, NoiseModel.none(), x, idx, Z, 0.05))

    def test_objective_batch_path_is_used(self):
        # the oracle hands the batch to the objective behind a bound eval,
        # and loops over rows for any other callable
        x, idx, Z = _block_case(4, False)
        calls = []

        class Counting(SparseQuadric):
            def eval(self, v):
                calls.append(1)
                return super().eval(v)

        q = Counting(60, np.arange(5), np.ones(5))
        make_noisy_oracle(q.eval, NoiseModel.none(), RngStreams(0)).eval_block(x, idx, Z, 0.1)
        assert calls == []
        make_noisy_oracle(lambda v: q.eval(v), NoiseModel.none(), RngStreams(0)).eval_block(x, idx, Z, 0.1)
        assert len(calls) == Z.m

    def test_block_size_must_match_operator(self):
        x, idx, Z = _block_case(6, False)
        oracle = make_noisy_oracle(lambda v: 0.0, NoiseModel.none(), RngStreams(0))
        with pytest.raises(ValueError):
            oracle.eval_block(x, idx[:-1], Z, 0.1)
        assert oracle.query_count == 0

    def test_eval_nanos_cover_the_whole_call(self):
        x, idx, Z = _block_case(5, True)

        def slow(v):
            time.sleep(1e-3)
            return 0.0

        oracle = make_noisy_oracle(slow, NoiseModel.gaussian(1.0), RngStreams(0))
        t0 = time.perf_counter_ns()
        oracle.eval_block(x, idx, Z, 0.1)
        wall = time.perf_counter_ns() - t0
        assert Z.m * 1e6 <= oracle.eval_nanos <= wall


def test_query_methods_are_plain_functions_in_the_class_dict():
    # profilers and the benchmark rebind them on the class to see every query
    for name in ("eval", "eval_block"):
        assert inspect.isfunction(Oracle.__dict__[name])


def test_negative_zero_value_reads_as_zero():
    oracle = make_noisy_oracle(lambda x: -0.0, NoiseModel.none(), RngStreams(0))
    value = oracle.eval(np.zeros(1))
    assert value == 0.0 and np.copysign(1.0, value) == 1.0


def test_negative_noise_level_rejected():
    with pytest.raises(ConfigurationError):
        NoiseModel.bounded(-0.1)


@pytest.mark.parametrize("level", [float("nan"), float("inf"), "1e-6", True, 10**400])
def test_non_finite_or_non_numeric_noise_level_rejected(level):
    with pytest.raises(ConfigurationError):
        NoiseModel("gaussian", level)


def test_bounded_noise_level_needs_a_finite_range():
    # numpy's uniform(-level, level) draws over 2 * level, which must be finite
    NoiseModel.bounded(8e307)
    with pytest.raises(ConfigurationError):
        NoiseModel.bounded(9e307)


def test_substream_deterministic():
    # every call returns a fresh generator replaying the stream from its start
    streams = RngStreams(42)
    a = streams.substream("partition").standard_normal(100)
    b = streams.substream("partition").standard_normal(100)
    c = RngStreams(42).substream("partition").standard_normal(100)
    assert np.array_equal(a, b) and np.array_equal(a, c)


def test_substreams_differ_across_names_and_seeds():
    draws = RngStreams(42).substream("partition").standard_normal(1000)
    other = RngStreams(42).substream("noise").standard_normal(1000)
    assert not np.array_equal(draws, other)
    other_seed = RngStreams(1).substream("noise").standard_normal(1000)
    third = RngStreams(2).substream("noise").standard_normal(1000)
    assert not np.array_equal(other_seed, third)


def test_unknown_stream_name_rejected():
    with pytest.raises(ConfigurationError):
        RngStreams(0).substream("nonsense")


def test_trace_requires_increasing_queries():
    trace = ConvergenceTrace()
    trace.append(0, 0, 1.0, 0)
    trace.append(1, 10, 0.5, 100)
    with pytest.raises(ValueError):
        trace.append(2, 10, 0.25, 100)


def test_trace_record_fields_and_immutability():
    trace = ConvergenceTrace()
    trace.append(3, 7, np.float64(0.25), 11)
    (rec,) = trace.records
    assert TraceRecord._fields == ("iteration", "cumulative_queries", "f_value", "compute_nanos")
    assert tuple(rec) == (3, 7, 0.25, 11)
    assert (rec.iteration, rec.cumulative_queries, rec.f_value, rec.compute_nanos) == (3, 7, 0.25, 11)
    assert type(rec.f_value) is float
    for field in TraceRecord._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, 0)


def test_trace_arrays():
    trace = ConvergenceTrace()
    trace.append(0, 0, 2.0, 0)
    trace.append(1, 5, 1.0, 10)
    assert np.array_equal(trace.f_values(), [2.0, 1.0])
    assert np.array_equal(trace.queries(), [0, 5])
    assert len(trace) == 2
