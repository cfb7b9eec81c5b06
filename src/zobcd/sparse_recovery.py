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
from zobcd.sampling import MeasurementOperator

# A Cholesky pivot of the Gram matrix below this fraction of the largest one
# marks the gathered columns as numerically dependent. The normal equations
# then have many solutions, and restricted_lsq takes lstsq's minimum-norm one.
_MIN_PIVOT_RATIO = 1e-7


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

    @classmethod
    def from_dense(cls, v: np.ndarray) -> "SparseVector":
        idx = np.flatnonzero(v)
        return cls(idx, v[idx], v.shape[0])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out

    @property
    def nnz(self) -> int:
        return self.indices.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class CosampConfig:
    s: int
    n_iters: int = 10

    def __post_init__(self):
        if self.s < 1:
            raise ConfigurationError(f"sparsity target must be >= 1, got {self.s}")
        if self.n_iters < 1:
            raise ConfigurationError(f"n_iters must be >= 1, got {self.n_iters}")


def top_k_magnitude(v: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest-magnitude entries, ties broken by lowest index.

    Zero entries never qualify: with fewer than k nonzeros, all nonzero
    indices are returned.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    v = np.asarray(v, dtype=np.float64)
    if k == 0:
        return np.empty(0, dtype=np.intp)
    # NaN ranks like zero: it never qualifies and never displaces a nonzero.
    mag = np.fmax(np.abs(v), 0.0)
    if k < v.size:
        kth = np.partition(mag, v.size - k)[v.size - k]  # the k-th largest magnitude
        above = np.flatnonzero(mag > kth)
        ties = np.flatnonzero(mag == kth)[: k - above.size]  # lowest indices first
        sel = np.sort(np.concatenate((above, ties)))
    else:
        sel = np.arange(v.size)
    return sel[mag[sel] > 0]


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

    Each iteration is a deterministic function of the previous estimate
    (the residual is one too). An iteration whose merged support equals the
    previous one's would fit the same least squares again, so its estimate
    repeats its predecessor bit for bit, and so would every later one. The
    solver stops there, without that solve, and returns the estimate: the
    result is the one ``cfg.n_iters`` iterations give.

    ``on_iterate(k, estimate, residual_norm)``, when given, observes every
    iterate up to and including the repeated one; the iterations skipped
    after it would have shown it again. Used by diagnostics and tests, never
    by the solver itself.
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

    if cfg.s >= n / 2:
        warnings.warn(
            f"sparsity target s={cfg.s} >= n/2={n / 2}; falling back to full least squares",
            stacklevel=2,
        )
        w = restricted_lsq(Z, y, np.arange(n))
        keep = top_k_magnitude(w, cfg.s)
        return SparseVector(keep, w[keep], n)

    estimate = SparseVector.empty(n)
    r = y.copy()  # the residual of the empty estimate, y - 0
    rnorm = ynorm
    fitted = None  # the support of the last least-squares fit
    for k in range(cfg.n_iters):
        proxy = Z.adjoint(r)
        if not np.all(np.isfinite(proxy)):
            raise NumericalFailure(f"non-finite proxy at CoSaMP iteration {k}")
        candidates = top_k_magnitude(proxy, 2 * cfg.s)
        merged = np.union1d(estimate.indices, candidates)
        if merged.size == 0:
            break
        # A fit on the last fit's support would return that fit again, and its
        # top s is the current estimate: the estimate repeats without a solve.
        repeated = fitted is not None and np.array_equal(merged, fitted)
        if not repeated:
            fitted = merged
            w = restricted_lsq(Z, y, merged)
            keep_local = top_k_magnitude(w, cfg.s)
            estimate = SparseVector(merged[keep_local], w[keep_local], n)
            r = y - Z.columns(estimate.indices) @ estimate.values
            if not np.all(np.isfinite(r)):
                raise NumericalFailure(f"non-finite residual at CoSaMP iteration {k}")
            rnorm = float(np.linalg.norm(r))
        if on_iterate is not None:
            on_iterate(k, estimate, rnorm)
        if repeated or rnorm <= 1e-12 * ynorm:
            break
    return estimate
