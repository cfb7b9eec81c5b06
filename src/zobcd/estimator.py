"""Block gradient estimation: finite-difference measurements plus sparse recovery.

One call issues exactly m + 1 oracle queries: a base evaluation at x, then
one ``Oracle.eval_block`` call for the m forward differences along the
sample directions z_i, the +-1 rows of Z as stored. CoSaMP then recovers
the s-sparse block gradient from y_i = (f(x + delta z_i) - f(x)) / delta.
Every difference shares the base query's noise and, along +-1 directions,
the diagonal second-order term delta^2 tr(H_jj) / 2, so CoSaMP fits that
shared offset alongside the gradient and discards it (see README).
"""

from __future__ import annotations

import math

import numpy as np

from zobcd.core import ConfigurationError, NumericalFailure, Oracle
from zobcd.blocks import BlockPartition
from zobcd.sampling import MeasurementOperator
from zobcd.sparse_recovery import SparseVector, cosamp


def estimate_block_gradient(
    oracle: Oracle,
    x: np.ndarray,
    p: BlockPartition,
    j: int,
    Z: MeasurementOperator,
    delta: float,
    s: int,
) -> tuple[SparseVector, float]:
    """Estimate the s-sparse block-j gradient at x from Z's m directions at
    radius delta; returns it and the noisy base value f(x).

    A malformed argument is rejected before the first query.
    """
    idx = p.block_indices(j)
    if Z.n != idx.size:
        raise ConfigurationError(f"ensemble dimension {Z.n} != block size {idx.size}")
    if not 0 < delta < math.inf:
        raise ConfigurationError(f"query radius must be finite and > 0, got {delta}")
    if not 1 <= s <= Z.n:
        raise ConfigurationError(f"need 1 <= s <= n for the block sparsity, got s={s}, n={Z.n}")

    base = oracle.eval(x)
    if not math.isfinite(base):
        raise NumericalFailure("oracle returned non-finite base value")

    values = oracle.eval_block(x, idx, Z, delta)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericalFailure(f"oracle returned non-finite value at direction {bad[0]}")
    y = (values - base) / delta

    return cosamp(Z, y, s), base


def theoretical_radius(sigma: float, H: float | None = None) -> float:
    """Query radius 2*sqrt(sigma/H); 1e-2 when noiseless or H unknown.

    sigma is the noise bound for bounded noise and the standard deviation for
    Gaussian noise. It is not ``NoiseModel.level``, which for Gaussian noise
    is the variance: level 1e-6 gives sigma 1e-3.
    """
    if not 0 <= sigma < math.inf:
        raise ConfigurationError(f"sigma must be finite and >= 0, got {sigma}")
    if sigma == 0 or H is None:
        return 1e-2
    if not 0 < H < math.inf:
        raise ConfigurationError(f"Hessian bound must be finite and > 0, got {H}")
    return 2.0 * math.sqrt(sigma / H)
