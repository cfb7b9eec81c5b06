"""Synthetic benchmark objectives with analytic (sub)gradients.

Both objectives also evaluate a whole block of probes at once:
``eval_block(x, idx, Z, delta)`` returns f at x + delta * lift(Z.row(i)) for
every row i of the measurement operator Z, where idx holds the block's
ambient coordinates. Each row is reduced by the same dot product as ``eval``,
so a batched value equals ``eval`` at that point bit for bit.
``Oracle.eval_block`` calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from zobcd.core import ConfigurationError
from zobcd.sparse_recovery import SparseVector, top_k_magnitude


@dataclass(frozen=True)
class SparseQuadric:
    """f(x) = 1/2 sum_{i in support} a_i x_i^2, with fixed s-sparse gradient."""

    d: int
    support: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        support = np.sort(np.asarray(self.support, dtype=np.intp))
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if support.size != coeffs.size:
            raise ConfigurationError("support and coeffs must have equal length")
        if support.size and (np.unique(support).size != support.size or support[-1] >= self.d):
            raise ConfigurationError("support indices must be distinct and within [0, d)")
        if not np.all((coeffs > 0) & (coeffs < np.inf)):
            raise ConfigurationError("quadric coefficients must be positive and finite")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def random(cls, d: int, s: int, rng: np.random.Generator) -> "SparseQuadric":
        support = rng.choice(d, size=s, replace=False)
        return cls(d, support, np.ones(s))

    @property
    def s(self) -> int:
        return self.support.size

    @property
    def l_max(self) -> float:
        return float(self.coeffs.max())

    def eval(self, x: np.ndarray) -> float:
        v = x[self.support]  # a copy, so squaring it in place is safe
        v *= v
        return 0.5 * float(self.coeffs.dot(v))

    def eval_block(self, x: np.ndarray, idx: np.ndarray, Z, delta: float) -> np.ndarray:
        xs = np.repeat(x[self.support][None, :], Z.m, axis=0)
        # Only the support coordinates inside the block move: column cols[k]
        # of Z perturbs support position pos[k]. The -1 sentinel answers the
        # lookups that land past the last support index.
        pos = np.searchsorted(self.support, idx)
        cols = np.flatnonzero(np.append(self.support, -1)[pos] == idx)
        pos = pos[cols]
        xs[:, pos] += delta * Z.directions(cols)
        # A stack of (1 x s) @ (s x 1) products: the same dot product as eval, per row.
        return 0.5 * (xs[:, None, :] ** 2 @ self.coeffs[:, None])[:, 0, 0]

    def grad(self, x: np.ndarray) -> SparseVector:
        return SparseVector(self.support, self.coeffs * x[self.support], self.d)


@dataclass(frozen=True)
class MaxSSumSquared:
    """f(x) = 1/2 * (sum of squares of the s largest-in-magnitude entries).

    The gradient support moves with x; ties go to the lowest index.
    """

    d: int
    s: int

    def __post_init__(self):
        if not 1 <= self.s <= self.d:
            raise ConfigurationError(f"need 1 <= s <= d, got s={self.s}, d={self.d}")

    def _values(self, mags: np.ndarray) -> np.ndarray:
        # f of each row of a (rows, c) array of magnitudes, c >= s. The top s
        # are summed in sorted order, so the result does not depend on where
        # the partition left them, and a stack of (1 x s) @ (s x 1) products
        # takes each row's dot product as it would on its own.
        c = mags.shape[1]
        top = np.sort(np.partition(mags, c - self.s, axis=1)[:, c - self.s :], axis=1)
        return 0.5 * (top[:, None, :] @ top[:, :, None])[:, 0, 0]

    def eval(self, x: np.ndarray) -> float:
        return float(self._values(np.abs(x)[None, :])[0])

    def eval_block(self, x: np.ndarray, idx: np.ndarray, Z, delta: float) -> np.ndarray:
        # Block coordinate c takes one of two magnitudes, |x_c + delta| or
        # |x_c - delta|; the others keep |x_c|. Let t be the s-th largest of
        # the coordinates' smaller magnitudes. A coordinate whose larger
        # magnitude is below t is outside the top s of every probe, so only
        # the remaining candidates are partitioned per row. The comparisons
        # are written as ~(a < t), so that NaN stays a candidate and
        # propagates as it does in eval.
        a = np.abs(x)
        up, down = np.abs(x[idx] + delta), np.abs(x[idx] - delta)
        lower = a.copy()
        lower[idx] = np.minimum(up, down)
        t = np.partition(lower, self.d - self.s)[self.d - self.s]
        outside = np.ones(self.d, dtype=bool)
        outside[idx] = False
        fixed = a[outside & ~(a < t)]
        cols = np.flatnonzero(~(np.maximum(up, down) < t))
        mags = np.empty((Z.m, fixed.size + cols.size))
        mags[:, : fixed.size] = fixed
        mags[:, fixed.size :] = np.abs(x[idx[cols]] + delta * Z.directions(cols))
        return self._values(mags)

    def grad(self, x: np.ndarray) -> SparseVector:
        sel = top_k_magnitude(x, self.s)
        return SparseVector(sel, x[sel], self.d)


OBJECTIVES = ("sparse-quadric", "max-s-sum-squared")


def make_objective(name: str, d: int, s: int, rng: np.random.Generator):
    """Objective factory for CLI selection; support drawn from rng."""
    if name == "sparse-quadric":
        return SparseQuadric.random(d, s, rng)
    if name == "max-s-sum-squared":
        return MaxSSumSquared(d, s)
    raise ConfigurationError(f"unknown objective: {name!r} (choose from {OBJECTIVES})")
