"""Foundational types: seeded RNG streams, noisy oracles, and convergence traces.

Vectors are plain 1-D numpy float64 arrays throughout the package.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import NamedTuple

import numpy as np

STREAM_NAMES = ("partition", "directions", "omega", "block_choice", "noise", "objective")


class ConfigurationError(ValueError):
    """Invalid configuration (bad sizes, negative noise levels, unknown names)."""


class NumericalFailure(RuntimeError):
    """Non-finite values encountered during a numerical procedure."""


class RngStreams:
    """Named, independent PRNG substreams derived from a single master seed.

    Each substream is keyed by (master_seed, stream index), so drawing from
    one never perturbs another, and every call to ``substream`` returns a
    fresh generator reproducing the same sequence from the start.
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        if self.master_seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.master_seed}")

    def _seed_seq(self, name: str) -> np.random.SeedSequence:
        if name not in STREAM_NAMES:
            raise ConfigurationError(f"unknown stream name: {name!r}")
        idx = STREAM_NAMES.index(name)
        return np.random.SeedSequence(entropy=self.master_seed, spawn_key=(idx,))

    def substream(self, name: str) -> np.random.Generator:
        return np.random.default_rng(self._seed_seq(name))

    def counter_key(self, name: str) -> np.ndarray:
        """128-bit Philox key for counter-addressed draws (see Oracle)."""
        return self._seed_seq(name).generate_state(2, np.uint64)


@dataclass(frozen=True)
class NoiseModel:
    """Additive oracle noise: none, bounded (|xi| <= sigma), or Gaussian.

    ``level`` is the bound sigma for the bounded kind and the variance for
    the Gaussian kind. Gaussian noise is unbounded and therefore falls
    outside the bounded-noise oracle contract; it is provided because the
    synthetic benchmark experiments use it.
    """

    kind: str  # "none" | "bounded" | "gaussian"
    level: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "bounded", "gaussian"):
            raise ConfigurationError(f"unknown noise kind: {self.kind!r}")
        if isinstance(self.level, bool) or not isinstance(self.level, numbers.Real) or not 0 <= self.level < math.inf:
            raise ConfigurationError(f"noise level must be a finite number >= 0, got {self.level!r}")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls("none", 0.0)

    @classmethod
    def bounded(cls, sigma: float) -> "NoiseModel":
        return cls("bounded", sigma)

    @classmethod
    def gaussian(cls, variance: float) -> "NoiseModel":
        return cls("gaussian", variance)


class Oracle:
    """Noisy zeroth-order oracle around a deterministic objective.

    Each ``eval`` increments the query counter by exactly one, and each
    ``eval_block`` by exactly m. The noise draw is addressed by query index
    through a counter-based generator, so the value returned for query i is
    independent of call interleaving and of whether it came from ``eval`` or
    ``eval_block``. Wall time spent inside both is accumulated in
    ``eval_nanos`` so callers can report compute time excluding queries.

    When ``f`` is the bound ``eval`` method of an object that also has an
    ``eval_block(x, idx, Z, delta)`` method, ``eval_block`` hands the whole
    batch to it; any other ``f`` is called once per row.

    Profilers and the benchmark rebind ``eval`` and ``eval_block`` on the
    class to time and count queries, so both stay plain methods, and callers
    look ``oracle.eval`` up on every query instead of caching the bound method.
    """

    def __init__(self, f, noise: NoiseModel, streams: RngStreams):
        self._f = f
        owner = getattr(f, "__self__", None)
        self._f_block = getattr(owner, "eval_block", None) if f == getattr(owner, "eval", None) else None
        self._noise = noise
        self._noisy = noise.kind != "none"
        self._std = math.sqrt(noise.level)  # the Gaussian kind's level is a variance
        # One Philox, re-pointed at counter (0, i, 0, 0) for query i. The state
        # it is reset to also has the empty output buffer (buffer_pos,
        # has_uint32) of a new generator, so each draw equals that of a
        # generator freshly built at that counter.
        self._gen = np.random.Generator(np.random.Philox(key=streams.counter_key("noise")))
        self._state = self._gen.bit_generator.state
        self._count = 0
        self._eval_nanos = 0

    @property
    def query_count(self) -> int:
        return self._count

    @property
    def eval_nanos(self) -> int:
        return self._eval_nanos

    def _noise_draw(self, idx: int) -> float:
        """The noise of query ``idx``; only called on a noisy oracle."""
        self._state["state"]["counter"][1] = idx
        self._gen.bit_generator.state = self._state
        if self._noise.kind == "bounded":
            return self._gen.uniform(-self._noise.level, self._noise.level)
        return self._gen.normal(0.0, self._std)

    def eval(self, x: np.ndarray) -> float:
        t0 = perf_counter_ns()
        idx = self._count
        self._count = idx + 1
        # + 0.0 turns an f of -0.0 into 0.0, the value the trace files have always shown
        value = float(self._f(x)) + (self._noise_draw(idx) if self._noisy else 0.0)
        self._eval_nanos += perf_counter_ns() - t0
        return value

    def eval_block(self, x: np.ndarray, idx: np.ndarray, Z, delta: float) -> np.ndarray:
        """m queries in one call: row i is the value at x + delta * lift(Z.row(i)).

        ``idx`` holds the ambient coordinates of the block, in the column
        order of the m x |idx| operator ``Z``. Row i is query number
        ``query_count + i`` (counted on entry) and equals what ``eval`` at
        that point would return as that query. ``x`` is not modified.
        """
        if len(idx) != Z.n:
            raise ValueError(f"block of {len(idx)} coordinates for an operator with n={Z.n}")
        t0 = perf_counter_ns()
        i0 = self._count
        self._count += Z.m
        if self._f_block is not None:
            values = np.asarray(self._f_block(x, idx, Z, delta), dtype=np.float64)
        else:
            xw = x.copy()
            save = xw[idx]
            values = np.empty(Z.m)
            # The probes of about 1 MB of rows at a time, each save + delta * row.
            per_block = max(1, 2**17 // Z.n)
            for start in range(0, Z.m, per_block):
                probes = Z.row_block(start, min(start + per_block, Z.m)) * delta
                probes += save
                for i, probe in enumerate(probes, start):
                    xw[idx] = probe
                    values[i] = self._f(xw)
        if self._noisy:
            values = values + [self._noise_draw(i0 + i) for i in range(Z.m)]
        self._eval_nanos += perf_counter_ns() - t0
        return values


def make_noisy_oracle(f, noise: NoiseModel, streams: RngStreams) -> Oracle:
    """Wrap a pure function as a noisy, query-counting oracle."""
    return Oracle(f, noise, streams)


class TraceRecord(NamedTuple):
    """One trace row; a tuple, so a long run's records are cheap to build and hold."""

    iteration: int
    cumulative_queries: int
    f_value: float
    compute_nanos: int


@dataclass
class ConvergenceTrace:
    """Per-iteration run record; compute_nanos excludes oracle eval time."""

    records: list[TraceRecord] = field(default_factory=list)

    def append(self, iteration: int, cumulative_queries: int, f_value: float, compute_nanos: int):
        records = self.records
        if records and cumulative_queries <= records[-1].cumulative_queries:
            raise ValueError("cumulative_queries must be strictly increasing")
        records.append(TraceRecord(iteration, cumulative_queries, float(f_value), compute_nanos))

    def f_values(self) -> np.ndarray:
        return np.array([r.f_value for r in self.records])

    def queries(self) -> np.ndarray:
        return np.array([r.cumulative_queries for r in self.records])

    def __len__(self) -> int:
        return len(self.records)
