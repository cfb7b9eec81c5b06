"""Measurement operators: dense Rademacher rows and partial circulant ensembles.

Both implement ``MeasurementOperator``. Stored data is exactly +-1; the
1/sqrt(m) factor is applied lazily at apply/adjoint/columns time, and never
by row/directions, which give the raw sample directions.
"""

from __future__ import annotations

import copy
import math
import warnings
from typing import Protocol

import numpy as np

from zobcd.core import ConfigurationError


class MeasurementOperator(Protocol):
    """An m x n ensemble, as sparse recovery and the gradient estimator use it."""

    m: int
    n: int

    def row(self, i: int) -> np.ndarray: ...  # unscaled +-1 sample direction
    def row_block(self, start: int, stop: int) -> np.ndarray: ...  # unscaled rows start..stop-1
    def directions(self, cols: np.ndarray) -> np.ndarray: ...  # unscaled m x |cols| gather
    def apply(self, v: np.ndarray) -> np.ndarray: ...  # scaled forward product
    def adjoint(self, y: np.ndarray) -> np.ndarray: ...  # scaled transpose product
    def columns(self, idx: np.ndarray) -> np.ndarray: ...  # scaled column gather


class RademacherEnsemble:
    """m x n matrix of i.i.d. +-1 entries, scaled by 1/sqrt(m) on application.

    Stored column-major: ``cols`` is the n x m array whose row c is column c
    of the matrix, so a column gather reads contiguous memory. The argument
    is keyword-only, so that a caller passing an m x n array of rows fails
    instead of getting the transposed ensemble.
    """

    def __init__(self, *, cols: np.ndarray):
        # float64 already for make_rademacher's array and the views of it,
        # which stay views; an integer sign matrix is converted once here, so
        # the scaling done in place on its gathered copies stays float.
        cols = np.asarray(cols, dtype=np.float64)
        if cols.ndim != 2:
            raise ConfigurationError("cols must be a 2-D array")
        self.cols = cols
        self.n, self.m = cols.shape
        self._scale = 1.0 / math.sqrt(self.m)

    def apply(self, v: np.ndarray) -> np.ndarray:
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of dim {self.n}, got {v.shape}")
        return (self.cols.T @ v) * self._scale

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        if y.shape != (self.m,):
            raise ValueError(f"expected vector of dim {self.m}, got {y.shape}")
        return (self.cols @ y) * self._scale

    def row(self, i: int) -> np.ndarray:
        return self.cols[:, i]

    def row_block(self, start: int, stop: int) -> np.ndarray:
        # Copy out the contiguous pieces first and transpose that small copy:
        # a transposing copy straight from ``cols`` strides across it per row.
        return self.cols[:, start:stop].copy().T.copy()

    def directions(self, cols: np.ndarray) -> np.ndarray:
        # A gather of contiguous rows of ``cols``, transposed: an F-ordered
        # m x |cols| array. Keep that order: BLAS rounds products on C- and
        # F-ordered copies of one matrix differently, and the fixed-seed
        # traces depend on it.
        return self.cols[cols].T

    def columns(self, idx: np.ndarray) -> np.ndarray:
        # Scaled in the gathered copy, which is the F-ordered directions(idx).
        out = self.cols[idx]
        out *= self._scale
        return out.T


class PartialCirculantEnsemble:
    """m rows of the circulant matrix generated by a +-1 vector z.

    Row i (0-based) is ``j -> z[(i + j) mod n]``; the stored row index set
    omega selects which circulant rows participate. Storage is O(n + m):
    z concatenated with itself, so that every row is a contiguous slice of
    it (``z`` is the view of its first half), its cached FFT, and omega.
    """

    def __init__(self, z: np.ndarray, omega: np.ndarray):
        z = np.asarray(z, dtype=np.float64)
        omega = np.asarray(omega, dtype=np.intp)
        n = z.shape[0]
        if omega.ndim != 1 or omega.size == 0 or omega.size > n:
            raise ConfigurationError("omega must hold between 1 and n indices")
        if np.unique(omega).size != omega.size or omega.min() < 0 or omega.max() >= n:
            raise ConfigurationError("omega indices must be distinct and in range")
        self._zz = np.concatenate((z, z))
        self._zz.flags.writeable = False
        self.z = self._zz[:n]
        self.omega = np.sort(omega)
        self.m = omega.size
        self.n = n
        self._scale = 1.0 / math.sqrt(self.m)
        self._zf = np.fft.rfft(z)

    def _correlate(self, v: np.ndarray) -> np.ndarray:
        # c[i] = sum_j z[(i + j) mod n] v[j], for all i in [0, n)
        return np.fft.irfft(self._zf * np.conj(np.fft.rfft(v)), self.n)

    def apply(self, v: np.ndarray) -> np.ndarray:
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of dim {self.n}, got {v.shape}")
        return self._correlate(v)[self.omega] * self._scale

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        if y.shape != (self.m,):
            raise ValueError(f"expected vector of dim {self.m}, got {y.shape}")
        u = np.zeros(self.n)
        u[self.omega] = y
        return self._correlate(u) * self._scale

    def row(self, i: int) -> np.ndarray:
        o = int(self.omega[i])
        return self._zz[o : o + self.n]

    def row_block(self, start: int, stop: int) -> np.ndarray:
        return self._zz[self.omega[start:stop, None] + np.arange(self.n)]

    def directions(self, cols: np.ndarray) -> np.ndarray:
        cols = np.asarray(cols, dtype=np.intp)
        return self._zz[self.omega[:, None] + cols[None, :]]

    def columns(self, idx: np.ndarray) -> np.ndarray:
        return self.directions(idx) * self._scale

    def with_new_omega(self, rng: np.random.Generator) -> "PartialCirculantEnsemble":
        """Fresh row subset over the same generator (used on block reshuffles).

        The copy shares the generator and its FFT with this ensemble.
        """
        out = copy.copy(self)
        out.omega = np.sort(rng.choice(self.n, size=self.m, replace=False))
        return out


def _sign_bits(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """The m x n int8 array of 0/1 that ``rng.integers(0, 2, size=(m, n), dtype=np.int8)`` returns.

    numpy draws each of those as the high bit of the next byte of its 32-bit
    outputs, lowest byte first (Lemire's multiply-shift for a range of 2).
    So the bits are the high bits of the little-endian bytes of
    ceil(m*n/4) full-range uint32 draws, read about four times faster. The
    values, and the generator state left behind, are the same for every bit
    generator; the fixed-seed traces depend on that.
    """
    words = rng.integers(0, 2**32, size=-(-m * n // 4), dtype=np.uint32)
    bits = words.astype("<u4", copy=False).view(np.int8)[: m * n]
    # In place, so the draw holds one byte per sign: an arithmetic shift
    # leaves -1 where the byte's high bit is set and 0 elsewhere.
    bits >>= 7
    return np.negative(bits, out=bits).reshape(m, n)


def make_rademacher(m: int, n: int, rng: np.random.Generator) -> RademacherEnsemble:
    """m x n Rademacher ensemble whose signs are those ``_sign_bits`` draws."""
    if m <= 0 or n <= 0:
        raise ConfigurationError(f"need m, n >= 1, got m={m}, n={n}")
    signs = _sign_bits(m, n, rng)
    signs *= 2
    signs -= 1
    cols = np.empty((n, m))
    cols[...] = signs.T
    return RademacherEnsemble(cols=cols)


def make_partial_circulant(m: int, n: int, rng: np.random.Generator) -> PartialCirculantEnsemble:
    if m <= 0 or n <= 0:
        raise ConfigurationError(f"need m, n >= 1, got m={m}, n={n}")
    if m > n:
        raise ConfigurationError(f"circulant row count m={m} cannot exceed n={n}")
    z = (rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1).astype(np.float64)
    omega = rng.choice(n, size=m, replace=False)
    return PartialCirculantEnsemble(z, omega)


def required_rows(variant: str, s: int, n: int, b1: float = 2.0, b3: float = 1.0) -> int:
    """Row count needed for s-sparse recovery, clamped to [s + 1, n].

    Natural log throughout; the constants b1 (dense) and b3 (circulant) are
    user-tunable to compensate for the hidden log base. Clamping to n warns:
    such a block costs as many queries as finite differences on every
    coordinate.
    """
    if s < 1 or s > n:
        raise ConfigurationError(f"need 1 <= s <= n, got s={s}, n={n}")
    if not (0 < b1 < math.inf and 0 < b3 < math.inf):
        raise ConfigurationError(f"b1 and b3 must be finite and > 0, got {b1}, {b3}")
    if variant == "rademacher":
        m = math.ceil(b1 * s * math.log(n))
    elif variant == "circulant":
        m = math.ceil(b3 * s * math.log(max(s, 2)) ** 2 * math.log(n) ** 2)
    else:
        raise ConfigurationError(f"unknown ensemble variant: {variant!r}")
    if m > n:
        warnings.warn(f"{variant} ensemble for s={s} needs m={m} rows, clamped to the block size n={n}", stacklevel=2)
    return min(max(m, s + 1), n)
