"""Block gradient estimation: finite-difference measurements plus sparse recovery.

One call issues exactly m + 1 oracle queries: a base evaluation at x, then
one ``Oracle.eval_block`` call for the m forward differences along the
sample directions. CoSaMP then recovers the s-sparse block gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from zobcd.core import ConfigurationError, NumericalFailure, Oracle
from zobcd.blocks import BlockPartition
from zobcd.sampling import MeasurementOperator
from zobcd.sparse_recovery import CosampConfig, SparseVector, cosamp


@dataclass(frozen=True)
class EstimatorConfig:
    delta: float
    cosamp: CosampConfig  # cosamp.s is the block sparsity
    ensemble: MeasurementOperator  # n == block size

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ConfigurationError(f"query radius must be finite and > 0, got {self.delta}")
        if self.cosamp.s > self.ensemble.n:
            raise ConfigurationError(f"sparsity {self.cosamp.s} exceeds block dimension {self.ensemble.n}")


def estimate_block_gradient(
    oracle: Oracle,
    x: np.ndarray,
    p: BlockPartition,
    j: int,
    cfg: EstimatorConfig,
) -> tuple[SparseVector, float]:
    """Estimate the block-j gradient at x; returns it and the noisy base value f(x)."""
    idx = p.block_indices(j)
    Z = cfg.ensemble
    if Z.n != idx.size:
        raise ConfigurationError(f"ensemble dimension {Z.n} != block size {idx.size}")
    m = Z.m
    scale = 1.0 / (math.sqrt(m) * cfg.delta)

    base = oracle.eval(x)
    if not math.isfinite(base):
        raise NumericalFailure("oracle returned non-finite base value")

    values = oracle.eval_block(x, idx, Z, cfg.delta)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericalFailure(f"oracle returned non-finite value at direction {bad[0]}")
    y = (values - base) * scale

    g_hat = cosamp(Z, y, cfg.cosamp)
    return g_hat, base


def theoretical_radius(sigma: float, H: float | None = None, fallback: float = 1e-2) -> float:
    """Query radius 2*sqrt(sigma/H); falls back when noiseless or H unknown."""
    if not 0 <= sigma < math.inf:
        raise ConfigurationError(f"noise level must be finite and >= 0, got {sigma}")
    if sigma == 0 or H is None:
        return fallback
    if not 0 < H < math.inf:
        raise ConfigurationError(f"Hessian bound must be finite and > 0, got {H}")
    return 2.0 * math.sqrt(sigma / H)
