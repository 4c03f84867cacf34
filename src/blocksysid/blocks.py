"""Block partitions of the stacked parameter grid and block-level norms.

The regression parameter of an LTI system with state matrix A (n x n) and
input matrix B (n x m) is stacked as ``theta = [A B]^T`` with shape
(n+m) x n.  A :class:`BlockPartition` cuts this grid into a
(n_state_blocks + n_input_blocks) x n_state_blocks grid of rectangular
blocks: state row blocks first, then input row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

DEFAULT_ZERO_TOL = 1e-8


def _offsets(sizes) -> tuple[int, ...]:
    """Start of each block and the end of the last: (0, s0, s0+s1, ...)."""
    return tuple(accumulate(sizes, initial=0))


@dataclass(frozen=True)
class BlockPartition:
    """Row/column block sizes of the stacked parameter grid.

    ``row_sizes`` lists the sizes of the state row blocks followed by the
    input row blocks; ``col_sizes`` lists the state column block sizes, so
    the first ``len(col_sizes)`` row blocks are the state blocks.
    """

    row_sizes: tuple[int, ...]
    col_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "row_sizes", tuple(int(s) for s in self.row_sizes))
        object.__setattr__(self, "col_sizes", tuple(int(s) for s in self.col_sizes))
        if any(s <= 0 for s in self.row_sizes) or any(s <= 0 for s in self.col_sizes):
            raise ValueError("block sizes must be positive")
        if self.n_state_blocks <= 0 or self.n_input_blocks < 0:
            raise ValueError("need at least one state block and a nonnegative input block count")
        if sum(self.row_sizes[: self.n_state_blocks]) != sum(self.col_sizes):
            raise ValueError("state row blocks and column blocks must cover the same state dimension")

    @classmethod
    def from_block_sizes(cls, state_sizes, input_sizes) -> "BlockPartition":
        state_sizes = tuple(state_sizes)
        return cls(state_sizes + tuple(input_sizes), state_sizes)

    @classmethod
    def scalar(cls, n: int, m: int) -> "BlockPartition":
        """Unit-block partition of an n-state, m-input system."""
        return cls.from_block_sizes((1,) * n, (1,) * m)

    @property
    def n_state_blocks(self) -> int:
        return len(self.col_sizes)

    @property
    def n_input_blocks(self) -> int:
        return len(self.row_sizes) - len(self.col_sizes)

    @property
    def n(self) -> int:
        return sum(self.col_sizes)

    @property
    def m(self) -> int:
        return sum(self.row_sizes[self.n_state_blocks :])

    @property
    def n_row_blocks(self) -> int:
        return len(self.row_sizes)

    @property
    def n_col_blocks(self) -> int:
        return len(self.col_sizes)

    @property
    def shape(self) -> tuple[int, int]:
        """Scalar shape (n+m, n) of the parameter grid."""
        return sum(self.row_sizes), self.n

    @property
    def row_offsets(self) -> tuple[int, ...]:
        return _offsets(self.row_sizes)

    @property
    def col_offsets(self) -> tuple[int, ...]:
        return _offsets(self.col_sizes)

    @property
    def max_state_block(self) -> int:
        return max(self.row_sizes[: self.n_state_blocks])

    @property
    def max_input_block(self) -> int:
        if self.n_input_blocks == 0:
            return 0
        return max(self.row_sizes[self.n_state_blocks :])

    @property
    def max_block_size(self) -> int:
        """Element count of the largest block in the grid."""
        return max(self.row_sizes) * self.max_state_block


@dataclass(frozen=True, eq=False)
class BlockSupport:
    """Boolean grid marking which blocks of the parameter grid are nonzero."""

    mask: np.ndarray = field()

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError("support mask must be 2-D")
        object.__setattr__(self, "mask", mask)

    def matches(self, partition: BlockPartition) -> bool:
        return self.mask.shape == (partition.n_row_blocks, partition.n_col_blocks)

    def nonzero_rows(self, j: int) -> np.ndarray:
        """0-based row-block indices of the nonzero blocks in block column j (1-based)."""
        return np.flatnonzero(self.mask[:, j - 1])

    def zero_rows(self, j: int) -> np.ndarray:
        return np.flatnonzero(~self.mask[:, j - 1])

    def count(self) -> int:
        return int(self.mask.sum())


def block_range(partition: BlockPartition, i: int, j: int) -> tuple[slice, slice]:
    """Half-open scalar index ranges of block (i, j); block indices are 1-based."""
    if not 1 <= i <= partition.n_row_blocks:
        raise IndexError(f"block row {i} out of range 1..{partition.n_row_blocks}")
    if not 1 <= j <= partition.n_col_blocks:
        raise IndexError(f"block column {j} out of range 1..{partition.n_col_blocks}")
    ro, co = partition.row_offsets, partition.col_offsets
    return slice(ro[i - 1], ro[i]), slice(co[j - 1], co[j])


def block_row_indices(partition: BlockPartition, blocks) -> np.ndarray:
    """Scalar row indices of the given (0-based) row blocks, in the given order."""
    ro = partition.row_offsets
    return np.concatenate([np.arange(ro[b], ro[b + 1]) for b in blocks] or [np.empty(0, dtype=int)])


def _check_grid(theta: np.ndarray, partition: BlockPartition) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != partition.shape:
        raise ValueError(f"grid shape {theta.shape} does not match partition shape {partition.shape}")
    return theta


def block_abs_max(theta: np.ndarray, partition: BlockPartition) -> np.ndarray:
    """Per-block max-abs entries, arranged on the block grid."""
    theta = _check_grid(theta, partition)
    row_max = np.maximum.reduceat(np.abs(theta), partition.row_offsets[:-1], axis=0)
    return np.maximum.reduceat(row_max, partition.col_offsets[:-1], axis=1)


def support_pattern(
    theta: np.ndarray, partition: BlockPartition, zero_tol: float = DEFAULT_ZERO_TOL
) -> BlockSupport:
    """Mark a block as nonzero iff its max-abs entry exceeds ``zero_tol``."""
    if zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    return BlockSupport(block_abs_max(theta, partition) > zero_tol)
