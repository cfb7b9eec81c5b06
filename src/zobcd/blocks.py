"""Randomized coordinate block partitions and block/ambient transfer maps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from zobcd.core import ConfigurationError
from zobcd.sparse_recovery import SparseVector


@dataclass(frozen=True)
class BlockPartition:
    """Permutation-based split of d ambient coordinates into J blocks.

    Block j owns the ambient coordinates ``perm[offsets[j] : offsets[j] + block_sizes[j]]``.
    """

    perm: np.ndarray
    block_sizes: np.ndarray
    offsets: np.ndarray

    @property
    def d(self) -> int:
        return self.perm.size

    @property
    def J(self) -> int:
        return self.block_sizes.size

    def block_indices(self, j: int) -> np.ndarray:
        if j < 0 or j >= self.J:
            raise IndexError(f"block index {j} out of range [0, {self.J})")
        o = self.offsets[j]
        return self.perm[o : o + self.block_sizes[j]]

    def block_of(self) -> np.ndarray:
        """Ambient coordinate -> owning block index."""
        out = np.empty(self.d, dtype=np.intp)
        for j in range(self.J):
            out[self.block_indices(j)] = j
        return out


def random_partition(d: int, J: int, rng: np.random.Generator) -> BlockPartition:
    """Uniform partition into J near-equal blocks (remainder in leading blocks)."""
    if J <= 0 or J > d:
        raise ConfigurationError(f"need 1 <= J <= d, got J={J}, d={d}")
    perm = rng.permutation(d)
    base, rem = divmod(d, J)
    sizes = np.full(J, base, dtype=np.intp)
    sizes[:rem] += 1
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return BlockPartition(perm, sizes, offsets)


def restrict(x: np.ndarray, p: BlockPartition, j: int) -> np.ndarray:
    """Block-j coordinates of x, in partition order."""
    if x.shape != (p.d,):
        raise ValueError(f"expected ambient vector of dim {p.d}, got {x.shape}")
    return x[p.block_indices(j)]


def lift(t: np.ndarray, p: BlockPartition, j: int) -> np.ndarray:
    """Ambient vector with t at block j's coordinates, zeros elsewhere."""
    idx = p.block_indices(j)
    if t.shape != (idx.size,):
        raise ValueError(f"expected block vector of dim {idx.size}, got {t.shape}")
    out = np.zeros(p.d)
    out[idx] = t
    return out


def block_sparsity_histogram(g: SparseVector, p: BlockPartition) -> np.ndarray:
    """Per-block counts of g's nonzeros."""
    if g.dim != p.d:
        raise ValueError(f"ambient dims differ: {g.dim} vs {p.d}")
    if g.nnz == 0:
        return np.zeros(p.J, dtype=np.intp)
    return np.bincount(p.block_of()[g.indices], minlength=p.J).astype(np.intp)


def reshuffle_if_due(
    p: BlockPartition, k: int, period: int | None, rng: np.random.Generator
) -> BlockPartition:
    """Fresh uniform partition when k hits the reshuffle period, else p unchanged."""
    if period is None:
        return p
    if period < 1:
        raise ConfigurationError(f"reshuffle period must be >= 1, got {period}")
    if k % period != 0:
        return p
    return random_partition(p.d, p.J, rng)

