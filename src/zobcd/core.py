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

from zobcd._ziggurat import KI_LOWER, WI

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


_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
# Philox4x64-10 (Salmon et al., SC'11): the round multipliers of limbs 0 and
# 2, their 32-bit halves, and the Weyl increments of the two key words.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=_U)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> _U(32)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=_U)


def _philox_first_words(key: np.ndarray, start: int, m: int) -> np.ndarray:
    """Word 0 of the Philox4x64-10 block at counter (1, i, 0, 0) under ``key``,
    for i = start, ..., start + m - 1: the first 64-bit output of numpy's
    ``Philox(key=key, counter=i << 64)``, which steps limb 0 before its first block.

    Each round maps (c0, c1, c2, c3) to (hi(M1*c2) ^ c1 ^ k0, lo(M1*c2),
    hi(M0*c0) ^ c3 ^ k1, lo(M0*c0)). Rows 0 and 1 of ``lead`` hold c0 and c2,
    of ``tail`` c1 and c3. Every operand is uint64, so no version of numpy's
    casting rules promotes to float; the products wrap mod 2**64, and the high
    halves are summed from 32-bit pieces.
    """
    key = key.reshape(2, 1)
    lead = np.empty((2, m), dtype=_U)
    # round 1: limbs 0, 2 and 3 of the counter are (1, 0, 0), so M0*1 and M1*0
    # leave (i ^ k0, 0, k1, M0)
    np.bitwise_xor(np.arange(m, dtype=_U) + _U(start), key[0], out=lead[0])
    lead[1] = key[1]
    tail = np.array([[0], [_PHILOX_M[0, 0]]], dtype=_U)
    for _ in range(9):
        key = key + _PHILOX_W
        lo = lead * _PHILOX_M
        a_lo, a_hi = lead & _LOW32, lead >> _U(32)
        carry = a_hi * _PHILOX_M_LO + ((a_lo * _PHILOX_M_LO) >> _U(32))
        mid = a_lo * _PHILOX_M_HI + (carry & _LOW32)
        hi = a_hi * _PHILOX_M_HI + (carry >> _U(32)) + (mid >> _U(32))
        lead = hi[::-1] ^ tail ^ key
        tail = lo[::-1]
    return lead[0]


class Oracle:
    """Noisy zeroth-order oracle around a deterministic objective.

    Each ``eval`` increments the query counter by exactly one, and each
    ``eval_block`` by exactly m. The noise draw is addressed by query index
    through a counter-based generator, so the value returned for query i is
    independent of call interleaving and of whether it came from ``eval`` or
    ``eval_block``. ``eval`` draws from numpy's Philox; ``eval_block`` computes
    the same draws for all m rows in one vectorized pass (``_noise_block``).
    Wall time spent inside both is accumulated in ``eval_nanos`` so callers
    can report compute time excluding queries.

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
        self._key = streams.counter_key("noise")
        # One Philox, re-pointed at counter (0, i, 0, 0) for query i. The state
        # it is reset to also has the empty output buffer (buffer_pos,
        # has_uint32) of a new generator, so each draw equals that of a
        # generator freshly built at that counter.
        self._gen = np.random.Generator(np.random.Philox(key=self._key))
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
        """The noise of query ``idx``, drawn by numpy; only called on a noisy
        oracle. ``eval`` uses it, and ``_noise_block`` for the draws it cannot
        compute itself."""
        self._state["state"]["counter"][1] = idx
        self._gen.bit_generator.state = self._state
        if self._noise.kind == "bounded":
            return self._gen.uniform(-self._noise.level, self._noise.level)
        return self._gen.normal(0.0, self._std)

    def _noise_block(self, start: int, m: int) -> np.ndarray:
        """The noise of queries start, ..., start + m - 1, each equal bit for
        bit to ``_noise_draw`` of that query.

        Every draw reads the word w = ``_philox_first_words`` of its query
        first. A bounded draw is numpy's uniform of that word,
        low + (high - low) * ((w >> 11) * 2**-53). A Gaussian draw is
        0.0 + std * z, where z comes from numpy's ziggurat fast path in the
        pinned tables of ``_ziggurat``. Where rabs is not below the pinned
        lower bound of the layer's threshold, numpy might read further words,
        so ``_noise_draw`` makes those draws (about 1.5 %): exactness never
        rests on the true threshold.
        """
        w = _philox_first_words(self._key, start, m)
        if self._noise.kind == "bounded":
            low, high = float(-self._noise.level), float(self._noise.level)
            return low + (high - low) * ((w >> _U(11)).astype(np.float64) * 2.0**-53)
        layer = (w & _U(0xFF)).astype(np.intp)
        rabs = (w >> _U(9)) & _U(2**52 - 1)
        z = rabs.astype(np.float64) * WI[layer]
        np.negative(z, out=z, where=((w >> _U(8)) & _U(1)).astype(bool))
        noise = self._std * z + 0.0
        for i in np.flatnonzero(rabs >= KI_LOWER[layer]).tolist():
            noise[i] = self._noise_draw(start + i)
        return noise

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
            values = values + self._noise_block(i0, Z.m)
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
