"""Measurement operators: dense Rademacher rows and partial circulant ensembles.

Both implement ``MeasurementOperator``, and every product is one of their
+-1 signs as stored. The paper divides both the matrix and the measurements
by the square root of m; that common factor changes no least-squares fit,
no proxy ranking and no CoSaMP exit, so nothing applies it.

One storage rule serves both: signs are float32, in which +-1 is exact;
products convert them to float64 first, so they round as float64 products
would, and every method returns float64 arrays. A fit's Gram has integer
entries, which float32 sums exactly while m < 2**24. Each ensemble has only
its own gather, ``_signs``; both share ``directions`` and ``columns``, which
gives a CoSaMP fit the signs, their Gram and their column sums from one gather.

``draw_signs`` draws every sign of both ensembles, and of SPSA's
directions, one random bit a sign. ``make_rademacher`` draws them in the
order of its store and in small chunks written straight into it, so the
build holds no full-size temporary. CoSaMP's proxy only ranks columns
(``top_adjoint``): the dense ensemble ranks it from the float32 product,
which reads half the bytes, and the circulant from the float64 FFT of z.
"""

from __future__ import annotations

import copy
import math
import warnings
from typing import Protocol

import numpy as np

from zobcd.core import ConfigurationError, NumericalFailure, check_fits, check_number

# float32 holds every integer below 2**24 exactly, so a float32 product of
# +-1 vectors of fewer than this many entries is exact.
_FLOAT32_EXACT = 2**24


class MeasurementOperator(Protocol):
    """An m x n ensemble, as the library calls it.

    Both ensembles also have ``apply`` and ``adjoint``, the forward and
    transpose products, which tests use as references; nothing calls them
    through this protocol.
    """

    m: int
    n: int

    def row(self, i: int) -> np.ndarray: ...  # the +-1 sample direction i
    def directions(self, cols: np.ndarray) -> np.ndarray: ...  # the m x |cols| gather of the signs
    def top_adjoint(self, y: np.ndarray, k: int) -> np.ndarray: ...  # top k of adjoint(y), for ranking only
    # the signs S = directions(idx), and the exact S^T S and S^T 1
    def columns(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...


def top_k_magnitude(v: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest-magnitude entries, ties broken by lowest index.

    Zero entries never qualify: with fewer than k nonzeros, all nonzero
    indices are returned.
    """
    check_number("k", k, integral=True, low=0)
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
    """m x n matrix of i.i.d. +-1 entries.

    Float32 +-1 signs, float64 products, an exact float32 Gram. ``cols`` is
    the n x m array whose row c is column c of the matrix, so a column
    gather reads contiguous memory; it is keyword-only, so that an m x n
    array of rows fails instead of giving the transposed ensemble.
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

    def apply(self, v: np.ndarray) -> np.ndarray:
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of dim {self.n}, got {v.shape}")
        return self.cols.T.astype(np.float64) @ v

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        if y.shape != (self.m,):
            raise ValueError(f"expected vector of dim {self.m}, got {y.shape}")
        return self.cols.astype(np.float64) @ y

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

    def _signs(self, cols: np.ndarray) -> np.ndarray:  # the |cols| x m float32 signs
        return self.cols[cols]

    def directions(self, cols: np.ndarray) -> np.ndarray:
        # The gather transposed: an F-ordered m x |cols| array. Keep that
        # order: BLAS rounds products on C- and F-ordered copies of one
        # matrix differently, and the fixed-seed traces depend on it.
        return self._signs(cols).astype(np.float64).T

    def columns(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # One gather, and A is its F-ordered float64 copy, directions(idx).
        # G and c are integer sums of +-1 products, |G| <= m: exact in
        # float32 below 2**24, whatever order BLAS sums in, and 0.6-0.7 of
        # the time of float64. The column sums are a gemv too, a fraction of
        # S.sum's time.
        S = self._signs(idx)
        A = S.astype(np.float64).T
        if self.m >= _FLOAT32_EXACT:
            S = A.T
        return A, (S @ S.T).astype(np.float64), (S @ np.ones(self.m, S.dtype)).astype(np.float64)


class PartialCirculantEnsemble:
    """m rows of the circulant matrix generated by a +-1 vector z.

    Row i (0-based) is ``j -> z[(i + j) mod n]``; the stored row index set
    omega selects which circulant rows participate. Storage is O(n + m):
    float32 +-1 z twice over, so that every row is a contiguous slice (``z``
    is the first half), the float64 FFT of z, and omega. Float64 products and
    an exact float32 Gram come from the dense ensemble's ``columns``.
    """

    def __init__(self, z: np.ndarray, omega: np.ndarray):
        z = np.asarray(z, dtype=np.float32)
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
        self._zf = np.fft.rfft(z.astype(np.float64))

    def _correlate(self, v: np.ndarray) -> np.ndarray:
        # c[i] = sum_j z[(i + j) mod n] v[j], for all i in [0, n)
        return np.fft.irfft(self._zf * np.conj(np.fft.rfft(v)), self.n)

    def apply(self, v: np.ndarray) -> np.ndarray:
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of dim {self.n}, got {v.shape}")
        return self._correlate(v)[self.omega]

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        if y.shape != (self.m,):
            raise ValueError(f"expected vector of dim {self.m}, got {y.shape}")
        u = np.zeros(self.n)
        u[self.omega] = y
        return self._correlate(u)

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
        return self._zz[o : o + self.n].astype(np.float64)  # so delta * row rounds in float64

    def _signs(self, cols: np.ndarray) -> np.ndarray:  # the |cols| x m float32 signs
        return self._zz[np.asarray(cols, dtype=np.intp)[:, None] + self.omega]

    directions, columns = RademacherEnsemble.directions, RademacherEnsemble.columns

    def with_new_omega(self, rng: np.random.Generator) -> "PartialCirculantEnsemble":
        """Fresh row subset over the same generator (used on block reshuffles).

        The copy shares the generator and its FFT with this ensemble.
        """
        out = copy.copy(self)
        out.omega = np.sort(rng.choice(self.n, size=self.m, replace=False))
        return out


# Signs per chunk of make_rademacher's draw: a multiple of 32, so that every
# chunk draws whole uint32 words, and small, so that a chunk's temporaries
# (1.125 bytes a sign) add about 0.15 MB to the build.
_CHUNK = 2**17


def draw_signs(out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill the 1-D array ``out`` with +-1, one random bit a sign, and return it.

    Sign i is bit i of ceil(out.size / 32) full-range uint32 draws, each
    read from its little-endian bytes most significant bit first (as
    ``np.unpackbits`` reads them); a set bit is +1. The bits of the last word
    past out.size are dropped, so fills of multiples of 32 signs in a row
    give the signs of one fill of them all: the generator keeps a buffered
    32-bit half between calls.
    """
    words = rng.integers(0, 2**32, size=-(-out.size // 32), dtype=np.uint32)
    bits = np.unpackbits(words.astype("<u4", copy=False).view(np.uint8), count=out.size).view(np.int8)
    bits += bits  # 0/1 to -1/+1, in place on one byte a sign
    bits -= 1
    out[...] = bits
    return out


def make_rademacher(m: int, n: int, rng: np.random.Generator) -> RademacherEnsemble:
    """m x n Rademacher ensemble whose stored ``cols`` are ``draw_signs(cols.ravel(), rng)``.

    That is, entry (i, c) of the matrix, cols[c, i], is sign c * m + i: the
    signs are drawn in storage order, in word-aligned chunks, straight into
    the float32 store, whose 4 * m * n bytes must first pass ``check_fits``.
    """
    check_number("m", m, integral=True, low=1)
    check_number("n", n, integral=True, low=1)
    m, n = int(m), int(n)
    check_fits(4 * m * n, f"an m={m} x n={n} Rademacher store")
    cols = np.empty((n, m), dtype=np.float32)
    flat = cols.reshape(-1)
    for start in range(0, flat.size, _CHUNK):
        draw_signs(flat[start : start + _CHUNK], rng)
    return RademacherEnsemble(cols=cols)


def make_partial_circulant(m: int, n: int, rng: np.random.Generator) -> PartialCirculantEnsemble:
    """Partial circulant ensemble of generator ``draw_signs(np.empty(n, np.float32), rng)``
    and m distinct rows that ``rng`` chooses next."""
    check_number("m", m, integral=True, low=1)
    check_number("n", n, integral=True, low=1)
    m, n = int(m), int(n)
    if m > n:
        raise ConfigurationError(f"circulant row count m={m} cannot exceed n={n}")
    z = draw_signs(np.empty(n, dtype=np.float32), rng)
    omega = rng.choice(n, size=m, replace=False)
    return PartialCirculantEnsemble(z, omega)


def required_rows(s: int, n: int, b1: float = 2.0) -> int:
    """Row count for s-sparse recovery, ceil(b1 * s * ln n), clamped to [s + 1, n].

    One rule for both ensembles: at it the partial circulant recovers as
    often as the dense Rademacher ensemble (see README). Clamping to n warns:
    such a block costs as many queries as finite differences on every
    coordinate.
    """
    check_number("s", s, integral=True, low=1)
    check_number("n", n, integral=True, low=1)
    check_number("b1", b1, low=0, strict=True)
    if s > n:
        raise ConfigurationError(f"need 1 <= s <= n, got s={s}, n={n}")
    # Compared with n as a float: for a huge b1 the product is inf, which
    # has no ceiling, and clamps like any other product above n.
    rows = b1 * s * math.log(n)
    if rows > n:
        m = math.ceil(rows) if rows < math.inf else rows
        warnings.warn(f"s={s} needs m={m} rows, clamped to the block size n={n}", stacklevel=2)
        return n
    return min(max(math.ceil(rows), s + 1), n)
