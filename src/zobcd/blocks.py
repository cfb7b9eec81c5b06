"""Randomized coordinate block partitions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from zobcd.core import ConfigurationError, check_number
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
    check_number("d", d, integral=True, low=1)
    check_number("J", J, integral=True, low=1)
    if J > d:
        raise ConfigurationError(f"need 1 <= J <= d, got J={J}, d={d}")
    perm = rng.permutation(d)
    base, rem = divmod(d, J)
    sizes = np.full(J, base, dtype=np.intp)
    sizes[:rem] += 1
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return BlockPartition(perm, sizes, offsets)


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
    if k % period != 0:
        return p
    return random_partition(p.d, p.J, rng)

