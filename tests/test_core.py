import numpy as np
import pytest

from zobcd.core import (
    ConfigurationError,
    ConvergenceTrace,
    NoiseModel,
    RngStreams,
    make_noisy_oracle,
)


def test_noiseless_oracle_identity():
    streams = RngStreams(0)
    oracle = make_noisy_oracle(lambda x: float(x @ x), NoiseModel.none(), streams)
    assert oracle.eval(np.array([1.0, 2.0])) == 5.0
    assert oracle.query_count == 1


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


def test_negative_noise_level_rejected():
    with pytest.raises(ConfigurationError):
        NoiseModel.bounded(-0.1)


@pytest.mark.parametrize("level", [float("nan"), float("inf"), "1e-6", True])
def test_non_finite_or_non_numeric_noise_level_rejected(level):
    with pytest.raises(ConfigurationError):
        NoiseModel("gaussian", level)


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


def test_trace_arrays():
    trace = ConvergenceTrace()
    trace.append(0, 0, 2.0, 0)
    trace.append(1, 5, 1.0, 10)
    assert np.array_equal(trace.f_values(), [2.0, 1.0])
    assert np.array_equal(trace.queries(), [0, 5])
    assert len(trace) == 2
