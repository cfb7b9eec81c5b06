"""ZO-BCD and the run driver every method shares: budget, target, traces.

Two variants: "R" (dense Rademacher sample directions) and "RC" (rows of a
random partial circulant). The J=1 configuration recovers the full-gradient
compressed-sensing method the block scheme generalizes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from zobcd.core import (
    ConfigurationError, ConvergenceTrace, NumericalFailure, Oracle, RngStreams, check_number
)
from zobcd.blocks import BlockPartition, random_partition, reshuffle_if_due
from zobcd.estimator import estimate_block_gradient
from zobcd.sampling import RademacherEnsemble, make_partial_circulant, make_rademacher, required_rows
from zobcd.sparse_recovery import SparseVector

TERM_BUDGET = "budget_exhausted"
TERM_TARGET = "target_reached"
TERM_FAILURE = "numerical_failure"
TERM_MAX_ITERS = "max_iters_reached"


@dataclass(frozen=True)
class ZobcdConfig:
    variant: str  # "R" | "RC"
    d: int
    J: int
    s: int
    alpha: float
    delta: float
    budget: int
    seed: int = 0
    b1: float = 2.0
    target: float | None = None
    reshuffle_period: int | None = None
    max_iters: int | None = None
    m_override: int | None = None  # explicit row count, bypassing the b1 rule
    block_sparsity_factor: float = 1.1

    def __post_init__(self):
        if self.variant not in ("R", "RC"):
            raise ConfigurationError(f"variant must be 'R' or 'RC', got {self.variant!r}")
        check_run_limits(self)
        if self.J > self.d:
            raise ConfigurationError(f"need 1 <= J <= d, got J={self.J}, d={self.d}")


# (integral, low) of every number a method's config may hold: an integer
# must be >= low and a real > low; a low of None bounds nothing.
RUN_LIMITS = {
    **dict.fromkeys(("d", "J", "s", "budget", "reshuffle_period", "m_override"), (True, 1)),
    **dict.fromkeys(("seed", "max_iters"), (True, 0)),
    **dict.fromkeys(("alpha", "delta", "b1", "block_sparsity_factor"), (False, 0)),
    "target": (False, None),
}


def check_run_limits(cfg):
    """Apply ``check_number`` to every field of the dataclass ``cfg`` that
    ``RUN_LIMITS`` names, as its row there says. A field that defaults to
    None may also be None."""
    for name, field in cfg.__dataclass_fields__.items():
        value = getattr(cfg, name)
        if name in RUN_LIMITS and (value is not None or field.default is not None):
            integral, low = RUN_LIMITS[name]
            check_number(name, value, integral, low, strict=not integral)


@dataclass
class RunResult:
    x_final: np.ndarray
    trace: ConvergenceTrace
    termination: str


def step(x: np.ndarray, g_hat: SparseVector, alpha: float, p: BlockPartition, j: int) -> None:
    """Negative gradient step on block j only, in place and on g_hat's nnz
    coordinates alone: x -= alpha * lift(g_hat)."""
    if g_hat.nnz:
        x[p.block_indices(j)[g_hat.indices]] -= alpha * g_hat.values


def drive(oracle: Oracle, x0: np.ndarray, iterate, limits, report_f=None) -> RunResult:
    """The run loop of every method: budget, max_iters, target, trace, failures.

    ``limits`` is the method's config (``budget``, ``max_iters``, ``target``).
    ``iterate(x, k, remaining)`` runs iteration k, steps the run's one x in
    place and returns the noisy f; or returns None, x untouched, if its whole
    cost exceeds the ``remaining`` queries: the budget is a hard cap, so an
    iteration that cannot finish is never started. An iterate that raises
    ``NumericalFailure`` leaves x as the last completed iteration left it.
    The run's termination is ``TERM_TARGET``, ``TERM_FAILURE``,
    ``TERM_MAX_ITERS`` once ``max_iters`` iterations have run, or else
    ``TERM_BUDGET``.

    ``report_f``, when given, is a noiseless evaluation channel for the trace
    and the target check, not counted as a query; a run whose x0 already meets
    the target ends there, with one trace row and no query. It must be a
    deterministic function of x, which a method may rely on: ZO-SCD calls it
    once per move and reports the kept value while x stays bit for bit the
    same. Without it the trace reports each iteration's noisy base query,
    which lags the iterate by one step.
    """
    x = x0.copy()  # the run's one x, which every iteration steps in place
    trace = ConvergenceTrace()
    append, clock = trace.append, time.perf_counter_ns
    budget, target = limits.budget, limits.target
    max_iters = math.inf if limits.max_iters is None else limits.max_iters
    q0 = oracle.query_count
    if report_f is not None:
        f0 = report_f(x)
        append(0, 0, f0, 0)
        if target is not None and f0 <= target:
            return RunResult(x_final=x, trace=trace, termination=TERM_TARGET)
    termination = TERM_BUDGET
    k = 0
    while k < max_iters:
        t0 = clock()
        en0 = oracle.eval_nanos
        try:
            noisy_f = iterate(x, k + 1, budget - (oracle.query_count - q0))
        except NumericalFailure:
            termination = TERM_FAILURE
            break
        if noisy_f is None:
            break
        k += 1
        nanos = (clock() - t0) - (oracle.eval_nanos - en0)
        f_rep = noisy_f if report_f is None else report_f(x)
        append(k, oracle.query_count - q0, f_rep, nanos)
        if target is not None and f_rep <= target:
            termination = TERM_TARGET
            break
    else:
        termination = TERM_MAX_ITERS
    if len(trace) == 0:
        # no reporting channel and no iteration completed
        trace.append(0, oracle.query_count - q0, float("nan"), 0)
    return RunResult(x_final=x, trace=trace, termination=termination)


def _make_ensembles(cfg: ZobcdConfig, p: BlockPartition, streams: RngStreams, s_block: int):
    """One measurement operator per distinct block size (equal blocks share one)."""
    dir_rng = streams.substream("directions")
    sizes = sorted(set(int(b) for b in p.block_sizes), reverse=True)
    if cfg.variant == "RC" and len(sizes) > 1:
        raise ConfigurationError("ZO-BCD-RC requires d divisible by J (equal blocks)")
    if s_block > sizes[-1]:
        raise ConfigurationError(f"block sparsity {s_block} exceeds the smallest block size {sizes[-1]}")
    rows = {n: cfg.m_override or required_rows(s_block, n, cfg.b1) for n in sizes}
    n_max = sizes[0]
    if cfg.variant == "RC":  # the omega stream draws only the rows of later reshuffles
        return {n_max: make_partial_circulant(rows[n_max], n_max, dir_rng)}
    # Dense Rademacher: draw one master block of directions at the largest
    # block size; smaller blocks use row- and column-truncated views of it
    # (prefixes of Rademacher rows are Rademacher), cols[:n, :m] in its
    # column-major storage.
    master = make_rademacher(rows[n_max], n_max, dir_rng)
    return {n: master if n == n_max else RademacherEnsemble(cols=master.cols[:n, :m]) for n, m in rows.items()}


def run_zobcd(oracle: Oracle, x0: np.ndarray, cfg: ZobcdConfig, report_f=None) -> RunResult:
    """Run ZO-BCD from x0 until the query budget, the target, or a failure.

    Each iteration draws a block j, spends m_j + 1 queries estimating its
    gradient, steps on it, and reshuffles the partition when due. See
    ``drive`` for ``report_f`` and the budget contract.
    """
    if x0.shape != (cfg.d,):
        raise ConfigurationError(f"x0 has dim {x0.shape}, config says d={cfg.d}")
    streams = RngStreams(cfg.seed)
    part_rng = streams.substream("partition")
    choice_rng = streams.substream("block_choice")

    p = random_partition(cfg.d, cfg.J, part_rng)
    # On the factor's shortest decimal form: in floats 1.1 * 200 / 4 is
    # 55.00000000000001, and its ceiling would be 56, not 55.
    s_block = max(1, math.ceil(Fraction(repr(float(cfg.block_sparsity_factor))) * cfg.s / cfg.J))
    omega_rng = streams.substream("omega")
    ensembles = _make_ensembles(cfg, p, streams, s_block)

    def iterate(x, k, remaining):
        nonlocal p, ensembles
        j = int(choice_rng.integers(cfg.J))
        Z = ensembles[int(p.block_sizes[j])]
        if remaining < Z.m + 1:
            return None
        g_hat, base = estimate_block_gradient(oracle, x, p, j, Z, cfg.delta, s_block)
        step(x, g_hat, cfg.alpha, p, j)
        new_p = reshuffle_if_due(p, k, cfg.reshuffle_period, part_rng)
        if new_p is not p and cfg.variant == "RC":  # fresh circulant rows for the new blocks
            ensembles = {n: ens.with_new_omega(omega_rng) for n, ens in ensembles.items()}
        p = new_p
        return base

    return drive(oracle, x0, iterate, cfg, report_f)
