"""CoSaMP sparse recovery over an abstract measurement operator.

The inner least-squares fits are exact: one solve of the normal equations of
the gathered columns, or numpy's minimum-norm ``lstsq`` where a Cholesky
factorization finds those equations singular. CoSaMP forms the normal
matrix from the ensemble's exact integer Gram of the +-1 signs, which
``MeasurementOperator.columns`` returns with the columns, so it does not
depend on how BLAS orders a sum. Only the m x |support| gather is
materialized, so the partial circulant variant never forms its full matrix.

Every solve also fits an offset c that every measurement shares,
y ~= Z v + c 1. It eliminates c exactly: it fits P y on P Z with
P = I - 1 1^T / m, and never forms P Z (see ``restricted_lsq``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from zobcd.core import ConfigurationError, NumericalFailure
from zobcd.sampling import MeasurementOperator, top_k_magnitude

# A Cholesky pivot of the normal matrix below this fraction of the largest
# squared column norm marks the gathered columns as numerically dependent.
# The normal equations then have many solutions, and restricted_lsq takes
# lstsq's minimum-norm one. The norms are those of the uncentred columns:
# centring zeroes a constant column, and a lone zero pivot has no larger
# pivot to be judged against.
_MIN_PIVOT_RATIO = 1e-7

# CoSaMP stops once a fit lowers the residual norm by less than this fraction
# of the previous fit's. On noisy measurements the residual reaches its noise
# floor within a fit or two, and the fits after that buy nothing.
_MIN_RESIDUAL_DROP = 0.01

# The cap on fits per solve. On noisy data the stall exit above ends a
# solve after two or three fits, well before it.
_MAX_FITS = 10


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


def restricted_lsq(A: np.ndarray, y: np.ndarray, *, gram: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Least-squares fit of y, which must have mean zero as ``cosamp`` passes
    it, on the centred columns P A, P = I - 1 1^T / m, of the gathered A.

    It never forms P A for the normal equations: their matrix is
    (m G - c c^T) / m with G = A^T A and c = A^T 1, and (P A)^T y = A^T y.
    It solves them once, after a Cholesky factorization has found them
    positive definite, with no pivot below ``_MIN_PIVOT_RATIO`` max(diag G).
    With more columns than rows, or numerically dependent columns, it returns
    ``lstsq``'s minimum-norm solution on P A instead.

    ``gram``, when given, is (G, c), as ``MeasurementOperator.columns``
    returns it with the signs A; otherwise both are formed from A. On +-1
    columns both are integers, exact in float64, so the two give the same
    fit bit for bit, and the numerator m G - c c^T is exact while m < 2**26:
    only the division by m rounds.
    """
    m, k = A.shape
    if k == 0:
        return np.empty(0)
    if k > m:
        warnings.warn(f"restricted least squares with |support|={k} > m={m} is underdetermined", stacklevel=2)
    else:
        if gram is None:
            # the column sums by a gemv: half the time of A.sum(axis=0)
            gram = A.T @ A, A.T @ np.ones(m)
        G, c = gram
        normal = m * G
        normal -= np.outer(c, c)
        normal /= m
        try:
            pivots = np.diagonal(np.linalg.cholesky(normal)) ** 2
            if pivots.min() >= _MIN_PIVOT_RATIO * G.diagonal().max():
                return np.linalg.solve(normal, A.T @ y)
        except np.linalg.LinAlgError:  # not numerically positive definite
            pass
    # Taking off the first row before the mean centres a constant column to
    # exactly zero, so lstsq gives it no weight, not its rounding error.
    A = A - A[0]
    A -= A.mean(axis=0)
    return np.linalg.lstsq(A, y, rcond=None)[0]


def cosamp(Z: MeasurementOperator, y: np.ndarray, s: int, on_iterate=None) -> SparseVector:
    """CoSaMP recovery of an s-sparse v and a free offset c with Z v + c 1 ~= y,
    for 1 <= s <= n; returns v alone.

    The loop runs on P y and P Z, P = I - 1 1^T / m. Its residual r stays
    centred, so ``Z.top_adjoint(r)`` ranks Z^T P r = (P Z)^T r, and the norms
    the exits compare are those of P y and r.

    Runs at most ``_MAX_FITS`` iterations and returns the latest iterate.
    It stops earlier at the first of these exits:

    - the residual stalls: fit k >= 1 leaves ||r_k|| >= (1 - eps) ||r_{k-1}||
      with eps = 0.01, the halting rule of Needell and Tropp (ACHA 2009). On
      noisy data the residual reaches its noise floor within a fit or two;
    - the residual falls to 1e-12 ||P y|| or below;
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
    if not 1 <= s <= n:
        raise ConfigurationError(f"need 1 <= s <= n for the sparsity target, got s={s}, n={n}")

    y = y - y.mean()
    ynorm = float(np.linalg.norm(y))
    if not np.isfinite(ynorm):
        raise NumericalFailure("non-finite measurements")
    if ynorm == 0.0:
        return SparseVector.empty(n)

    estimate = SparseVector.empty(n)
    r = y.copy()  # the residual of the empty estimate, y - 0
    rnorm = ynorm
    for k in range(_MAX_FITS):
        candidates = Z.top_adjoint(r, 2 * s)  # raises NumericalFailure on a non-finite proxy
        merged = np.union1d(estimate.indices, candidates)
        if merged.size == 0:
            break
        A, G, c = Z.columns(merged)
        w = restricted_lsq(A, y, gram=(G, c))
        keep_local = top_k_magnitude(w, s)
        estimate = SparseVector(merged[keep_local], w[keep_local], n)
        fitted = A[:, keep_local] @ estimate.values
        del A  # the next fit's gather then never holds two fits' columns at once
        fitted -= fitted.mean()
        r = y - fitted
        if not np.all(np.isfinite(r)):
            raise NumericalFailure(f"non-finite residual at CoSaMP iteration {k}")
        prev_rnorm, rnorm = rnorm, float(np.linalg.norm(r))
        if on_iterate is not None:
            on_iterate(k, estimate, rnorm)
        stalled = k > 0 and rnorm >= (1.0 - _MIN_RESIDUAL_DROP) * prev_rnorm
        if stalled or rnorm <= 1e-12 * ynorm:
            break
    return estimate
