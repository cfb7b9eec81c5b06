"""Measurement operators: dense Rademacher rows and partial circulant ensembles.

Both implement ``MeasurementOperator``. Stored data is exactly +-1; the
1/sqrt(m) factor is applied lazily at apply/adjoint/columns time, and never
by row/directions, which give the raw sample directions. Every method
returns float64 arrays.

The dense signs are stored as float32, in which +-1 is exact; a product
converts them to float64 first, so it rounds as a float64 product would.
CoSaMP's proxy only ranks columns (``top_adjoint``), and the dense ensemble
ranks it from the float32 product, which reads half the bytes.
"""

from __future__ import annotations

import copy
import math
import warnings
from typing import Protocol

import numpy as np

from zobcd.core import MAX_INDEX, ConfigurationError, NumericalFailure


class MeasurementOperator(Protocol):
    """An m x n ensemble, as the library calls it.

    Both ensembles also have ``apply`` and ``adjoint``, the scaled forward
    and transpose products, which tests use as references; nothing calls
    them through this protocol.
    """

    m: int
    n: int

    def row(self, i: int) -> np.ndarray: ...  # unscaled +-1 sample direction
    def directions(self, cols: np.ndarray) -> np.ndarray: ...  # unscaled m x |cols| gather
    def top_adjoint(self, y: np.ndarray, k: int) -> np.ndarray: ...  # top k of adjoint(y), for ranking only
    def columns(self, idx: np.ndarray) -> np.ndarray: ...  # scaled column gather


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


class RademacherEnsemble:
    """m x n matrix of i.i.d. +-1 entries, scaled by 1/sqrt(m) on application.

    Stored column-major in float32: ``cols`` is the n x m array whose row c
    is column c of the matrix, so a column gather reads contiguous memory.
    The argument is keyword-only, so that a caller passing an m x n array of
    rows fails instead of getting the transposed ensemble.
    """

    def __init__(self, *, cols: np.ndarray):
        # float32 already for make_rademacher's array and the views of it,
        # which stay views; other sign arrays are converted once here.
        cols = np.asarray(cols, dtype=np.float32)
        if cols.ndim != 2:
            raise ConfigurationError("cols must be a 2-D array")
        if cols.strides[1] != cols.itemsize:
            cols = np.ascontiguousarray(cols)
        self.cols = cols
        self.n, self.m = cols.shape
        self._scale = 1.0 / math.sqrt(self.m)

    def apply(self, v: np.ndarray) -> np.ndarray:
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of dim {self.n}, got {v.shape}")
        return (self.cols.T.astype(np.float64) @ v) * self._scale

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        if y.shape != (self.m,):
            raise ValueError(f"expected vector of dim {self.m}, got {y.shape}")
        return (self.cols.astype(np.float64) @ y) * self._scale

    def top_adjoint(self, y: np.ndarray, k: int) -> np.ndarray:
        """The top k of the proxy, ranked from the float32 product.

        Dividing by the largest |y| keeps the float32 copy of y from
        overflowing or underflowing, and changes no ranking.
        """
        if y.shape != (self.m,):
            raise ValueError(f"expected vector of dim {self.m}, got {y.shape}")
        ymax = float(np.max(np.abs(y)))
        if not math.isfinite(ymax):
            raise NumericalFailure("non-finite CoSaMP proxy")
        if ymax == 0.0:
            return np.empty(0, dtype=np.intp)
        return top_k_magnitude(self.cols @ (y / ymax).astype(np.float32), k)

    def row(self, i: int) -> np.ndarray:
        return self.cols[:, i].astype(np.float64)

    def directions(self, cols: np.ndarray) -> np.ndarray:
        # A gather of contiguous rows of ``cols``, transposed: an F-ordered
        # m x |cols| array. Keep that order: BLAS rounds products on C- and
        # F-ordered copies of one matrix differently, and the fixed-seed
        # traces depend on it.
        return self.cols[cols].astype(np.float64).T

    def columns(self, idx: np.ndarray) -> np.ndarray:
        # Scaled in the gathered copy, which is the F-ordered directions(idx).
        out = self.cols[idx].astype(np.float64)
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

    def top_adjoint(self, y: np.ndarray, k: int) -> np.ndarray:
        # A non-finite y is rejected before its FFT, which would spread it
        # over every entry; a finite y can still overflow in the products.
        if not np.all(np.isfinite(y)):
            raise NumericalFailure("non-finite CoSaMP proxy")
        proxy = self.adjoint(y)
        if not np.all(np.isfinite(proxy)):
            raise NumericalFailure("non-finite CoSaMP proxy")
        return top_k_magnitude(proxy, k)

    def row(self, i: int) -> np.ndarray:
        o = int(self.omega[i])
        return self._zz[o : o + self.n]

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
    if 4 * m * n > MAX_INDEX:  # cols holds m * n float32s
        raise ConfigurationError(f"an m={m} x n={n} ensemble is too large to address")
    signs = _sign_bits(m, n, rng)
    signs *= 2
    signs -= 1
    cols = np.empty((n, m), dtype=np.float32)
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


def required_rows(s: int, n: int, b1: float = 2.0) -> int:
    """Row count for s-sparse recovery, ceil(b1 * s * ln n), clamped to [s + 1, n].

    One rule for both ensembles: at it the partial circulant recovers as
    often as the dense Rademacher ensemble (see README). Clamping to n warns:
    such a block costs as many queries as finite differences on every
    coordinate.
    """
    if s < 1 or s > n:
        raise ConfigurationError(f"need 1 <= s <= n, got s={s}, n={n}")
    if not 0 < b1 < math.inf:
        raise ConfigurationError(f"b1 must be finite and > 0, got {b1}")
    # Compared with n as a float: for a huge b1 the product is inf, which
    # has no ceiling, and clamps like any other product above n.
    rows = b1 * s * math.log(n)
    if rows > n:
        m = math.ceil(rows) if rows < math.inf else rows
        warnings.warn(f"s={s} needs m={m} rows, clamped to the block size n={n}", stacklevel=2)
        return n
    return min(max(math.ceil(rows), s + 1), n)
