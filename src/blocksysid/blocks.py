"""Block partitions of the stacked parameter grid and block-level norms.

The regression parameter of an LTI system with state matrix A (n x n) and
input matrix B (n x m) is stacked as ``theta = [A B]^T`` with shape
(n+m) x n.  A :class:`BlockPartition` cuts this grid into a
(n_col_blocks + n_input_blocks) x n_col_blocks grid of rectangular
blocks: state row blocks first, then input row blocks.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np


def _offsets(sizes) -> tuple[int, ...]:
    """Start of each block and the end of the last: (0, s0, s0+s1, ...)."""
    return tuple(accumulate(sizes, initial=0))


def _int_value(name: str, value) -> int:
    """An integer; floats and booleans are rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real_value(name: str, value):
    """A real number, as given; booleans, strings and None are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def _finite_rows(name: str, arr: np.ndarray) -> None:
    """Reject a 2-D array holding a NaN or an infinity, naming its first such row."""
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite value in {name} row {int(np.argmin(np.isfinite(arr).all(axis=1)))}")


def _int_tuple(name: str, values) -> tuple[int, ...]:
    """A list field of integers."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list of integers, got {values!r}")
    return tuple(_int_value(f"every entry of {name}", v) for v in values)


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
        for name in ("row_sizes", "col_sizes"):
            object.__setattr__(self, name, _int_tuple(name, getattr(self, name)))
        if any(s <= 0 for s in self.row_sizes) or any(s <= 0 for s in self.col_sizes):
            raise ValueError("block sizes must be positive")
        if self.n_col_blocks <= 0 or self.n_input_blocks < 0:
            raise ValueError("need at least one state block and a nonnegative input block count")
        if sum(self.row_sizes[: self.n_col_blocks]) != sum(self.col_sizes):
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
    def n_input_blocks(self) -> int:
        return len(self.row_sizes) - len(self.col_sizes)

    @property
    def n(self) -> int:
        return sum(self.col_sizes)

    @property
    def m(self) -> int:
        return sum(self.row_sizes[self.n_col_blocks :])

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
        return max(self.row_sizes[: self.n_col_blocks])

    @property
    def max_input_block(self) -> int:
        if self.n_input_blocks == 0:
            return 0
        return max(self.row_sizes[self.n_col_blocks :])

    @property
    def max_block_size(self) -> int:
        """Element count of the largest block in the grid."""
        return max(self.row_sizes) * max(self.col_sizes)


@dataclass(frozen=True, eq=False)
class BlockSupport:
    """Boolean grid marking which blocks of the parameter grid are nonzero.

    ``mask[:, j]`` marks the row blocks of block column j (0-based), and
    ``np.repeat(mask[:, j], row_sizes)`` marks their scalar rows.
    """

    mask: np.ndarray = field()

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError("support mask must be 2-D")
        object.__setattr__(self, "mask", mask)

    def matches(self, partition: BlockPartition) -> bool:
        return self.mask.shape == (partition.n_row_blocks, partition.n_col_blocks)

    def count(self) -> int:
        return int(self.mask.sum())


def block_range(partition: BlockPartition, i: int, j: int) -> tuple[slice, slice]:
    """Half-open scalar index ranges of block (i, j); block indices are 1-based."""
    i, j = _int_value("block row", i), _int_value("block column", j)
    if not 1 <= i <= partition.n_row_blocks:
        raise IndexError(f"block row {i} out of range 1..{partition.n_row_blocks}")
    if not 1 <= j <= partition.n_col_blocks:
        raise IndexError(f"block column {j} out of range 1..{partition.n_col_blocks}")
    ro, co = partition.row_offsets, partition.col_offsets
    return slice(ro[i - 1], ro[i]), slice(co[j - 1], co[j])


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


def support_pattern(theta: np.ndarray, partition: BlockPartition) -> BlockSupport:
    """A block is in the support iff it has a nonzero entry; the solver's prox sets the others to 0.0."""
    return BlockSupport(block_abs_max(theta, partition) > 0.0)
