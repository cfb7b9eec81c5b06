"""CoSaMP sparse recovery over an abstract measurement operator.

The inner least-squares solves run conjugate gradients on the normal
equations of the column-gathered operator, so the partial circulant variant
never materializes more than an m x |support| working block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from zobcd.core import ConfigurationError, NumericalFailure
from zobcd.sampling import MeasurementOperator


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
    residual_tol: float | None = None  # default 1e-12 * ||y||
    lsq_max_iters: int = 40
    lsq_tol: float = 1e-12

    def __post_init__(self):
        if self.s < 1:
            raise ConfigurationError(f"sparsity target must be >= 1, got {self.s}")
        if self.n_iters < 1:
            raise ConfigurationError(f"n_iters must be >= 1, got {self.n_iters}")


def top_k_magnitude(v, k: int) -> np.ndarray:
    """Indices of the k largest-magnitude entries, ties broken by lowest index.

    Zero entries never qualify: with fewer than k nonzeros, all nonzero
    indices are returned. Accepts a dense array or a SparseVector.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if isinstance(v, SparseVector):
        local = top_k_magnitude(v.values, k)
        return np.sort(v.indices[local])
    v = np.asarray(v, dtype=np.float64)
    if k == 0:
        return np.empty(0, dtype=np.intp)
    mag = np.abs(v)
    order = np.lexsort((np.arange(v.size), -mag))[:k]
    order = order[mag[order] > 0]
    return np.sort(order)


def _cg_normal_equations(A: np.ndarray, y: np.ndarray, max_iters: int, tol: float) -> np.ndarray:
    """CG on A^T A w = A^T y (CGNR). Raises NumericalFailure on divergence."""
    b = A.T @ y
    w = np.zeros(A.shape[1])
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    rs0 = rs
    if rs0 == 0.0:
        return w
    for _ in range(max_iters):
        Ap = A.T @ (A @ p)
        pAp = float(p @ Ap)
        if pAp <= 0:
            break
        a = rs / pAp
        w += a * p
        r -= a * Ap
        rs_new = float(r @ r)
        if not np.isfinite(rs_new):
            raise NumericalFailure("non-finite residual in normal-equation CG")
        if rs_new > 100.0 * rs0:  # residual grew 10x in norm
            raise NumericalFailure("normal-equation CG diverged")
        if np.sqrt(rs_new / rs0) <= tol:
            return w
        p = r + (rs_new / rs) * p
        rs = rs_new
    return w


def restricted_lsq(Z: MeasurementOperator, y: np.ndarray, support: np.ndarray, max_iters: int = 20, tol: float = 1e-8) -> np.ndarray:
    """Least-squares fit of y on the columns of Z selected by support."""
    support = np.asarray(support, dtype=np.intp)
    if support.size == 0:
        return np.empty(0)
    if support.size > Z.m:
        warnings.warn(
            f"restricted least squares with |support|={support.size} > m={Z.m} is underdetermined",
            stacklevel=2,
        )
    A = Z.columns(support)
    return _cg_normal_equations(A, y, max_iters, tol)


def cosamp(Z: MeasurementOperator, y: np.ndarray, cfg: CosampConfig, on_iterate=None) -> SparseVector:
    """CoSaMP recovery of an s-sparse solution to Z v ~= y.

    ``on_iterate(k, estimate, residual_norm)``, when given, observes every
    iterate; used by diagnostics and tests, never by the solver itself.
    """
    n = Z.n
    if y.shape != (Z.m,):
        raise ValueError(f"expected {Z.m} measurements, got {y.shape}")
    if cfg.s > n:
        raise ConfigurationError(f"sparsity target {cfg.s} exceeds ambient dim {n}")

    ynorm = float(np.linalg.norm(y))
    tol = cfg.residual_tol if cfg.residual_tol is not None else 1e-12 * ynorm
    if ynorm == 0.0:
        return SparseVector.empty(n)

    if cfg.s >= n / 2:
        warnings.warn(
            f"sparsity target s={cfg.s} >= n/2={n / 2}; falling back to full least squares",
            stacklevel=2,
        )
        w = restricted_lsq(Z, y, np.arange(n), cfg.lsq_max_iters, cfg.lsq_tol)
        keep = top_k_magnitude(w, cfg.s)
        return SparseVector(keep, w[keep], n)

    estimate = SparseVector.empty(n)
    r = y.copy()
    for k in range(cfg.n_iters):
        proxy = Z.adjoint(r)
        if not np.all(np.isfinite(proxy)):
            raise NumericalFailure(f"non-finite proxy at CoSaMP iteration {k}")
        candidates = top_k_magnitude(proxy, 2 * cfg.s)
        merged = np.union1d(estimate.indices, candidates)
        if merged.size == 0:
            break
        w = restricted_lsq(Z, y, merged, cfg.lsq_max_iters, cfg.lsq_tol)
        keep_local = top_k_magnitude(w, cfg.s)
        estimate = SparseVector(merged[keep_local], w[keep_local], n)
        r = y - Z.columns(estimate.indices) @ estimate.values
        if not np.all(np.isfinite(r)):
            raise NumericalFailure(f"non-finite residual at CoSaMP iteration {k}")
        rnorm = float(np.linalg.norm(r))
        if on_iterate is not None:
            on_iterate(k, estimate, rnorm)
        if rnorm <= tol:
            break
    return estimate
