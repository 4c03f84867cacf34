import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksysid.blocks import (
    BlockPartition,
    BlockSupport,
    block_abs_max,
    block_range,
    support_pattern,
)

from oracles import block_norm_reference


def test_partition_basic_properties():
    part = BlockPartition.from_block_sizes((2, 3), (1, 4))
    assert part.n == 5
    assert part.m == 5
    assert part.shape == (10, 5)
    assert (part.n_col_blocks, part.n_input_blocks) == (2, 2)
    assert part.row_offsets == (0, 2, 5, 6, 10)
    assert part.col_offsets == (0, 2, 5)
    assert part.max_state_block == 3
    assert part.max_input_block == 4
    assert part.max_block_size == 12
    assert BlockPartition.from_block_sizes((2,), ()).max_input_block == 0


def test_partition_validation():
    with pytest.raises(ValueError):
        BlockPartition((1, 0), (1,))
    with pytest.raises(ValueError):
        BlockPartition((1, 2), (1, 1))  # col blocks disagree with state rows
    with pytest.raises(ValueError):
        BlockPartition((2,), (1, 1))  # more column blocks than row blocks
    # sizes are integers by the sweep config's rule: not truncated, and named
    with pytest.raises(ValueError, match="^every entry of row_sizes must be an integer, got 1.5$"):
        BlockPartition((1.5, 1), (1,))
    with pytest.raises(ValueError, match="^every entry of col_sizes must be an integer, got True$"):
        BlockPartition((1, 1), (True,))
    with pytest.raises(ValueError, match="^col_sizes must be a list of integers, got 1$"):
        BlockPartition((1, 1), 1)
    assert BlockPartition([np.int64(2), 1], [2]).row_sizes == (2, 1)


@pytest.mark.parametrize(
    "row_sizes,col_sizes,i,j,rows,cols",
    [
        ((1, 1), (1,), 2, 1, (1, 2), (0, 1)),
        ((2, 3), (2,), 2, 1, (2, 5), (0, 2)),
        ((5, 5, 5), (5,), 3, 1, (10, 15), (0, 5)),
    ],
)
def test_block_range_examples(row_sizes, col_sizes, i, j, rows, cols):
    part = BlockPartition(row_sizes, col_sizes)
    rs, cs = block_range(part, i, j)
    assert (rs.start, rs.stop) == rows
    assert (cs.start, cs.stop) == cols


def test_block_range_tiles_grid():
    part = BlockPartition.from_block_sizes((2, 1, 3), (2, 2))
    seen = np.zeros(part.shape, dtype=int)
    for i in range(1, part.n_row_blocks + 1):
        for j in range(1, part.n_col_blocks + 1):
            rs, cs = block_range(part, i, j)
            seen[rs, cs] += 1
    assert (seen == 1).all()


def test_block_range_out_of_range():
    part = BlockPartition.scalar(2, 1)
    with pytest.raises(IndexError):
        block_range(part, 0, 1)
    with pytest.raises(IndexError):
        block_range(part, 4, 1)
    with pytest.raises(IndexError):
        block_range(part, 1, 3)


def block_norm(theta, part):
    """The block norm of the grid: the sum over blocks of their max-abs entries."""
    return float(block_abs_max(theta, part).sum())


def test_block_norm_sum_examples():
    part = BlockPartition.scalar(1, 1)  # 2x1 grid of unit blocks
    assert block_norm(np.zeros((2, 1)), part) == 0.0

    # unit blocks: equals the entrywise l1 norm
    part2 = BlockPartition.from_block_sizes((1, 1), ())
    theta = np.array([[1.0, -2.0], [3.0, 0.5]])
    assert block_norm(theta, part2) == pytest.approx(6.5)

    # one 2x2 block: single max-abs
    part3 = BlockPartition.from_block_sizes((2,), ())
    assert block_norm(theta, part3) == pytest.approx(3.0)


def test_block_norm_is_a_norm():
    rng = np.random.default_rng(7)
    part = BlockPartition.from_block_sizes((2, 1), (3,))
    for _ in range(50):
        a = rng.standard_normal(part.shape)
        b = rng.standard_normal(part.shape)
        c = rng.standard_normal()
        na, nb = block_norm(a, part), block_norm(b, part)
        assert block_norm(a + b, part) <= na + nb + 1e-12
        assert block_norm(c * a, part) == pytest.approx(abs(c) * na)
    assert block_norm(np.zeros(part.shape), part) == 0.0


def test_block_norm_matches_reference_on_random_partitions():
    rng = np.random.default_rng(11)
    for _ in range(20):
        state = tuple(rng.integers(1, 4, size=rng.integers(1, 4)))
        inputs = tuple(rng.integers(1, 4, size=rng.integers(1, 3)))
        part = BlockPartition.from_block_sizes(state, inputs)
        theta = rng.standard_normal(part.shape)
        assert block_norm(theta, part) == pytest.approx(
            block_norm_reference(theta, part.row_sizes, part.col_sizes)
        )


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    state_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=5),
    input_sizes=st.lists(st.integers(1, 3), max_size=3),
    seed=st.integers(0, 2**16),
)
def test_block_abs_max_matches_a_block_range_loop(state_sizes, input_sizes, seed):
    part = BlockPartition.from_block_sizes(state_sizes, input_sizes)
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(part.shape) * (rng.random(part.shape) < 0.5)
    expected = [
        [np.abs(theta[block_range(part, i, j)]).max() for j in range(1, part.n_col_blocks + 1)]
        for i in range(1, part.n_row_blocks + 1)
    ]
    assert np.array_equal(block_abs_max(theta, part), expected)


def test_support_pattern_examples():
    part = BlockPartition.from_block_sizes((1, 1), (1,))
    theta = np.zeros((3, 2))
    assert not support_pattern(theta, part).mask.any()

    theta[0, 0] = 0.3
    sup = support_pattern(theta, part)
    assert sup.mask[0, 0] and sup.count() == 1


def test_support_pattern_marks_any_nonzero():
    rng = np.random.default_rng(3)
    part = BlockPartition.from_block_sizes((2, 2), (1, 2))
    theta = np.zeros(part.shape)
    theta[3, 1] = 1e-300  # scalar row 3 is block row 1; scalar col 1 is block col 0
    sup = support_pattern(theta, part)
    assert sup.mask[1, 0] and sup.count() == 1
    dense = rng.standard_normal(part.shape)
    assert support_pattern(dense, part).mask.all()


def test_support_shape_mismatch_errors():
    part = BlockPartition.scalar(2, 1)
    with pytest.raises(ValueError):
        support_pattern(np.zeros((4, 2)), part)
    with pytest.raises(ValueError):
        block_abs_max(np.zeros((2, 2)), part)


def test_block_support_helpers():
    mask = np.array([[True, False], [False, True], [True, True]])
    sup = BlockSupport(mask)
    assert sup.count() == 4
    with pytest.raises(ValueError, match="support mask must be 2-D"):
        BlockSupport(mask.ravel())
