"""CoSaMP sparse recovery over an abstract measurement operator.

The inner least-squares fits are exact: a Cholesky solve of the normal
equations of the gathered columns, or numpy's minimum-norm ``lstsq`` where
those equations are singular. Only the m x |support| gather is materialized,
so the partial circulant variant never forms its full matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from zobcd.core import ConfigurationError, NumericalFailure
from zobcd.sampling import MeasurementOperator, top_k_magnitude

# A Cholesky pivot of the Gram matrix below this fraction of the largest one
# marks the gathered columns as numerically dependent. The normal equations
# then have many solutions, and restricted_lsq takes lstsq's minimum-norm one.
_MIN_PIVOT_RATIO = 1e-7

# CoSaMP stops once a fit lowers the residual norm by less than this fraction
# of the previous fit's. On noisy measurements the residual reaches its noise
# floor within a fit or two, and the fits after that buy nothing.
_MIN_RESIDUAL_DROP = 0.01


@dataclass(frozen=True)
class SparseVector:
    """s-sparse vector as (sorted indices, values) over an ambient dimension."""

    indices: np.ndarray
    values: np.ndarray
    dim: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError("indices and values must be 1-D arrays of equal length")
        if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 0 or idx[-1] >= self.dim):
            raise ValueError("indices must be strictly increasing and within [0, dim)")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @classmethod
    def empty(cls, dim: int) -> "SparseVector":
        return cls(np.empty(0, dtype=np.intp), np.empty(0), dim)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out

    @property
    def nnz(self) -> int:
        return self.indices.size


@dataclass(frozen=True)
class CosampConfig:
    s: int
    n_iters: int = 10

    def __post_init__(self):
        if self.s < 1:
            raise ConfigurationError(f"sparsity target must be >= 1, got {self.s}")
        if self.n_iters < 1:
            raise ConfigurationError(f"n_iters must be >= 1, got {self.n_iters}")


def restricted_lsq(Z: MeasurementOperator, y: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Least-squares fit of y on the columns of Z selected by support.

    Solves the normal equations A^T A w = A^T y of the gathered columns A by
    Cholesky. With more columns than rows, or numerically dependent columns,
    returns the minimum-norm least-squares solution instead.
    """
    support = np.asarray(support, dtype=np.intp)
    if support.size == 0:
        return np.empty(0)
    A = Z.columns(support)
    if support.size > Z.m:
        warnings.warn(
            f"restricted least squares with |support|={support.size} > m={Z.m} is underdetermined",
            stacklevel=2,
        )
    else:
        try:
            L = np.linalg.cholesky(A.T @ A)
            pivots = np.diagonal(L) ** 2
            if pivots.min() >= _MIN_PIVOT_RATIO * pivots.max():
                return np.linalg.solve(L.T, np.linalg.solve(L, A.T @ y))
        except np.linalg.LinAlgError:  # not numerically positive definite
            pass
    return np.linalg.lstsq(A, y, rcond=None)[0]


def cosamp(Z: MeasurementOperator, y: np.ndarray, cfg: CosampConfig, on_iterate=None) -> SparseVector:
    """CoSaMP recovery of an s-sparse solution to Z v ~= y.

    Runs at most ``cfg.n_iters`` iterations and returns the latest iterate.
    It stops earlier at the first of these exits:

    - the residual stalls: fit k >= 1 leaves ||r_k|| >= (1 - eps) ||r_{k-1}||
      with eps = 0.01, the halting rule of Needell and Tropp (ACHA 2009). On
      noisy data the residual reaches its noise floor within a fit or two;
    - the residual falls to 1e-12 ||y|| or below;
    - the proxy has no nonzero entry, so there is nothing to fit.

    The proxy only ranks candidates: ``Z.top_adjoint`` picks its 2s largest
    entries, in float32 on the dense ensemble. A fit is a deterministic
    function of its support, so a fit on the last fit's support returns that
    fit bit for bit, leaves the residual as it was, and stalls.

    Every sparsity target s <= n runs this one loop. When 2s >= n, the first
    candidate set is every column with a nonzero proxy entry, so the first
    fit is the full least-squares fit, and the next iteration refits its
    support and stalls with that fit's top s. A column whose residual proxy
    rounds to zero stays out of the refit; that takes an entry that is zero
    in exact arithmetic, as small noiseless instances make.

    ``on_iterate(k, estimate, residual_norm)``, when given, observes every
    iterate in order, the one an exit fires on included: a stalled iterate
    is seen once, last, and is the estimate returned. Used by diagnostics
    and tests, never by the solver itself.
    """
    n = Z.n
    if y.shape != (Z.m,):
        raise ValueError(f"expected {Z.m} measurements, got {y.shape}")
    if cfg.s > n:
        raise ConfigurationError(f"sparsity target {cfg.s} exceeds ambient dim {n}")

    ynorm = float(np.linalg.norm(y))
    if not np.isfinite(ynorm):
        raise NumericalFailure("non-finite measurements")
    if ynorm == 0.0:
        return SparseVector.empty(n)

    estimate = SparseVector.empty(n)
    r = y.copy()  # the residual of the empty estimate, y - 0
    rnorm = ynorm
    for k in range(cfg.n_iters):
        candidates = Z.top_adjoint(r, 2 * cfg.s)  # raises NumericalFailure on a non-finite proxy
        merged = np.union1d(estimate.indices, candidates)
        if merged.size == 0:
            break
        w = restricted_lsq(Z, y, merged)
        keep_local = top_k_magnitude(w, cfg.s)
        estimate = SparseVector(merged[keep_local], w[keep_local], n)
        r = y - Z.columns(estimate.indices) @ estimate.values
        if not np.all(np.isfinite(r)):
            raise NumericalFailure(f"non-finite residual at CoSaMP iteration {k}")
        prev_rnorm, rnorm = rnorm, float(np.linalg.norm(r))
        if on_iterate is not None:
            on_iterate(k, estimate, rnorm)
        stalled = k > 0 and rnorm >= (1.0 - _MIN_RESIDUAL_DROP) * prev_rnorm
        if stalled or rnorm <= 1e-12 * ynorm:
            break
    return estimate
