"""Foundational types: seeded RNG streams, noisy oracles, and convergence traces.

Vectors are plain 1-D numpy float64 arrays throughout the package.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter_ns
from typing import NamedTuple

import numpy as np

STREAM_NAMES = ("partition", "directions", "omega", "block_choice", "noise", "objective")
MAX_INDEX = int(np.iinfo(np.intp).max)  # the longest an array axis can be


class ConfigurationError(ValueError):
    """Invalid configuration (bad sizes, negative noise levels, unknown names)."""


class NumericalFailure(RuntimeError):
    """Non-finite values encountered during a numerical procedure."""


def finite(value) -> bool:
    """math.isfinite, False also for an integer too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class RngStreams:
    """Named, independent PRNG substreams derived from a single master seed.

    Each substream is keyed by (master_seed, stream index), so drawing from
    one never perturbs another, and every call to ``substream`` returns a
    fresh generator that replays the same sequence from its start.
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        if self.master_seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.master_seed}")

    def substream(self, name: str) -> np.random.Generator:
        if name not in STREAM_NAMES:
            raise ConfigurationError(f"unknown stream name: {name!r}")
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(STREAM_NAMES.index(name),))
        return np.random.default_rng(seq)


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
        level = self.level
        if isinstance(level, bool) or not isinstance(level, numbers.Real) or not (finite(level) and level >= 0):
            raise ConfigurationError(f"noise level must be a finite number >= 0, got {level!r}")
        if self.kind == "bounded" and not math.isfinite(2.0 * level):  # numpy's uniform draws over 2 * level
            raise ConfigurationError(f"bounded noise level must be at most half the largest float, got {level!r}")

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

    Each ``eval`` adds exactly one to ``query_count``, and each
    ``eval_block`` exactly m. The noise comes from one generator, the
    ``"noise"`` substream, in query order: ``eval`` makes one draw and
    ``eval_block`` one draw of size m, which numpy makes equal, bit for bit,
    to m single draws. So query i gets the stream's i-th draw however the
    queries are split between the two methods. Wall time spent inside both is
    accumulated in ``eval_nanos`` so callers can report compute time
    excluding queries.

    When ``f`` is the bound ``eval`` method of an object that also has an
    ``eval_block(x, idx, Z, delta)`` method, ``eval_block`` hands the whole
    batch to it; any other ``f`` is called once per row i, at
    x + delta * ``Z.row(i)`` on the block.

    The benchmark rebinds ``eval`` on the class to time and count queries
    (``eval_block`` it leaves alone), so ``eval`` stays a plain method, and
    callers look ``oracle.eval`` up on every query instead of caching the
    bound method.
    """

    def __init__(self, f, noise: NoiseModel, streams: RngStreams):
        self._f = f
        owner = getattr(f, "__self__", None)
        self._f_block = getattr(owner, "eval_block", None) if f == getattr(owner, "eval", None) else None
        gen = streams.substream("noise")
        # the draw of one query, or of m queries given size=m; None when noiseless
        if noise.kind == "bounded":
            self._draw = partial(gen.uniform, -noise.level, noise.level)
        elif noise.kind == "gaussian":
            self._draw = partial(gen.normal, 0.0, math.sqrt(noise.level))  # level is the variance
        else:
            self._draw = None
        self._count = 0
        self._eval_nanos = 0

    @property
    def query_count(self) -> int:
        return self._count

    @property
    def eval_nanos(self) -> int:
        return self._eval_nanos

    def eval(self, x: np.ndarray) -> float:
        t0 = perf_counter_ns()
        self._count += 1
        # + 0.0 turns an f of -0.0 into 0.0, the value the trace files have always shown
        value = float(self._f(x)) + (self._draw() if self._draw else 0.0)
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
        self._count += Z.m
        if self._f_block is not None:
            values = np.asarray(self._f_block(x, idx, Z, delta), dtype=np.float64)
        else:
            xw = x.copy()
            save = xw[idx]
            values = np.empty(Z.m)
            for i in range(Z.m):
                xw[idx] = save + delta * Z.row(i)
                values[i] = self._f(xw)
        if self._draw:
            values = values + self._draw(size=Z.m)
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
