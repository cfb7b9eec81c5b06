"""Reference zeroth-order competitors: FDSA, SPSA, and ZO-SCD.

All three run in ``optimizer.drive`` and so emit the block coordinate method's
trace schema, on a common query axis. Gains are fixed (no decaying
sequences), matching hand-tuned fixed-step comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from zobcd.core import ConfigurationError, NumericalFailure, Oracle, RngStreams
from zobcd.optimizer import RunResult, check_run_limits, drive


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
        if self.method not in BASELINES:
            raise ConfigurationError(f"unknown baseline method: {self.method!r}")
        check_run_limits(self, "alpha", "delta")


def run_fdsa(oracle: Oracle, x0: np.ndarray, cfg: BaselineConfig, report_f=None) -> RunResult:
    """Kiefer-Wolfowitz finite differences: d + 1 queries per iteration."""
    d = x0.size

    def iterate(x, k, remaining):
        if remaining < d + 1:
            return None
        base = oracle.eval(x)
        g = np.empty(d)
        for i in range(d):  # probe coordinate i of x in place, then restore it
            xi = x[i]
            x[i] = xi + cfg.delta
            g[i] = (oracle.eval(x) - base) / cfg.delta
            x[i] = xi
        if not np.all(np.isfinite(g)):
            raise NumericalFailure("non-finite FDSA gradient estimate")
        return x - cfg.alpha * g, base

    return drive(oracle, x0, iterate, cfg, report_f)


def run_spsa(oracle: Oracle, x0: np.ndarray, cfg: BaselineConfig, report_f=None) -> RunResult:
    """Simultaneous perturbation with Rademacher directions, central differences.

    Two queries per iteration. Central (not forward) differences are the
    method's canonical form, unlike the forward differences used elsewhere
    in this package.
    """
    d = x0.size
    rng = RngStreams(cfg.seed).substream("directions")

    def iterate(x, k, remaining):
        if remaining < 2:
            return None
        z = (rng.integers(0, 2, size=d, dtype=np.int8) * 2 - 1).astype(np.float64)
        fp = oracle.eval(x + cfg.delta * z)
        fm = oracle.eval(x - cfg.delta * z)
        slope = (fp - fm) / (2.0 * cfg.delta)
        if not np.isfinite(slope):
            raise NumericalFailure("non-finite SPSA directional derivative")
        return x - cfg.alpha * slope * z, 0.5 * (fp + fm)

    return drive(oracle, x0, iterate, cfg, report_f)


def run_zoscd(oracle: Oracle, x0: np.ndarray, cfg: BaselineConfig, report_f=None) -> RunResult:
    """Single-coordinate descent: forward difference on one random coordinate."""
    d = x0.size
    rng = RngStreams(cfg.seed).substream("block_choice")

    def iterate(x, k, remaining):
        if remaining < 2:
            return None
        i = int(rng.integers(d))
        base = oracle.eval(x)
        xi = x[i]
        x[i] = xi + cfg.delta  # probe and step in place: O(1) work besides the queries
        probe = oracle.eval(x)
        x[i] = xi
        gi = (probe - base) / cfg.delta
        if not np.isfinite(gi):
            raise NumericalFailure("non-finite coordinate derivative")
        x[i] -= cfg.alpha * gi
        return x, base

    return drive(oracle, x0, iterate, cfg, report_f)


# The one list of baseline methods. Runners are looked up by name at call time,
# so run_baseline honours a rebinding of run_fdsa etc. by a profiler or tracer.
BASELINES = {"fdsa": "run_fdsa", "spsa": "run_spsa", "zoscd": "run_zoscd"}


def run_baseline(oracle: Oracle, x0: np.ndarray, cfg: BaselineConfig, report_f=None) -> RunResult:
    return globals()[BASELINES[cfg.method]](oracle, x0, cfg, report_f)
