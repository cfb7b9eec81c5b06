"""Reference zeroth-order competitors: FDSA, SPSA, and ZO-SCD.

All three run in ``optimizer.drive`` and so emit the block coordinate method's
trace schema, on a common query axis. Gains are fixed (no decaying
sequences), matching hand-tuned fixed-step comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from zobcd.core import ConfigurationError, NumericalFailure, Oracle, RngStreams
from zobcd.optimizer import RunResult, check_run_limits, drive
from zobcd.sampling import draw_signs


@dataclass(frozen=True)
class BaselineConfig:
    method: str  # a key of BASELINES
    alpha: float
    delta: float
    budget: int
    seed: int = 0
    target: float | None = None
    max_iters: int | None = None

    def __post_init__(self):
        if not isinstance(self.method, str) or self.method not in BASELINES:
            raise ConfigurationError(f"unknown baseline method: {self.method!r}")
        check_run_limits(self)


def run_fdsa(oracle: Oracle, x0: np.ndarray, cfg: BaselineConfig, report_f=None) -> RunResult:
    """Kiefer-Wolfowitz finite differences: d + 1 queries per iteration."""
    d, delta = x0.size, cfg.delta

    def iterate(x, k, remaining):
        if remaining < d + 1:
            return None
        base = oracle.eval(x)
        g = np.empty(d)
        for i in range(d):  # probe coordinate i of x in place, then restore it
            xi = x[i]
            x[i] = xi + delta
            g[i] = (oracle.eval(x) - base) / delta
            x[i] = xi
        if not np.all(np.isfinite(g)):
            raise NumericalFailure("non-finite FDSA gradient estimate")
        x -= cfg.alpha * g
        return base

    return drive(oracle, x0, iterate, cfg, report_f)


def run_spsa(oracle: Oracle, x0: np.ndarray, cfg: BaselineConfig, report_f=None) -> RunResult:
    """Simultaneous perturbation with Rademacher directions, central differences.

    Two queries per iteration. Central (not forward) differences are the
    method's canonical form, unlike the forward differences used elsewhere
    in this package.
    """
    d, alpha, delta = x0.size, cfg.alpha, cfg.delta
    rng = RngStreams(cfg.seed).substream("directions")
    z = np.empty(d)  # the +-1 direction, redrawn in place every iteration

    def iterate(x, k, remaining):
        if remaining < 2:
            return None
        draw_signs(z, rng)
        dz = delta * z
        probe = x + dz
        fp = oracle.eval(probe)
        fm = oracle.eval(np.subtract(x, dz, out=probe))
        slope = (fp - fm) / (2.0 * delta)
        if not math.isfinite(slope):
            raise NumericalFailure("non-finite SPSA directional derivative")
        x -= np.multiply(alpha * slope, z, out=dz)  # x - (alpha * slope) * z, in place
        return 0.5 * (fp + fm)

    return drive(oracle, x0, iterate, cfg, report_f)


def run_zoscd(oracle: Oracle, x0: np.ndarray, cfg: BaselineConfig, report_f=None) -> RunResult:
    """Single-coordinate descent: forward difference on one random coordinate.

    On a sparse objective most coordinates leave f as it is, so most steps
    are zero and leave x bit for bit as it was. ``report_f`` is then called
    once per move, not once per iteration: the run keeps f at the current x
    until a nonzero step clears it, which ``drive``'s contract for
    ``report_f`` (a deterministic function of x) makes exact.
    """
    alpha, delta = cfg.alpha, cfg.delta
    coords = _coordinates(RngStreams(cfg.seed).substream("block_choice"), x0.size)
    kept = None  # report_f at the current x, or None once a step has moved x

    def iterate(x, k, remaining):
        nonlocal kept
        if remaining < 2:
            return None
        i = next(coords)
        base = oracle.eval(x)
        xi = x[i]
        x[i] = xi + delta  # probe and step in place: O(1) work besides the queries
        probe = oracle.eval(x)
        gi = (probe - base) / delta
        if not math.isfinite(gi):
            x[i] = xi
            raise NumericalFailure("non-finite coordinate derivative")
        if gi:
            x[i] = xi - alpha * gi
            kept = None
        else:  # a zero step: restore x[i]'s own bits, so the kept value stays exact
            x[i] = xi
        return base

    def report(x):
        nonlocal kept
        if kept is None:
            kept = report_f(x)
        return kept

    return drive(oracle, x0, iterate, cfg, None if report_f is None else report)


def _coordinates(rng: np.random.Generator, d: int):
    """Endless uniform draws from range(d), as Python ints.

    They are drawn 1,024 at a time, which returns the same sequence as one
    scalar ``rng.integers(d)`` call per draw, at a fraction of the cost.
    """
    while True:
        yield from rng.integers(d, size=1024).tolist()


# The one list of baseline methods. Runners are looked up by name at call time,
# so run_baseline honours a rebinding of run_fdsa etc. by a profiler or tracer.
BASELINES = {"fdsa": "run_fdsa", "spsa": "run_spsa", "zoscd": "run_zoscd"}


def run_baseline(oracle: Oracle, x0: np.ndarray, cfg: BaselineConfig, report_f=None) -> RunResult:
    return globals()[BASELINES[cfg.method]](oracle, x0, cfg, report_f)
