"""The running bid sum of :class:`~repro.accel.history.BidHistoryBuffer`.

``base()`` keeps ``sum_j (min{dual_j, nearest_j} - d(m, j))_+`` as a running
vector and re-reduces the whole history only after an opening changed a bid.
That is exact only because numpy's ``sum(axis=0)`` over a C-contiguous
``(h, n)`` float64 block with ``n > 1`` adds the rows one after another in
index order.  These tests pin that fact directly — a numpy upgrade that
changes the reduction order fails here instead of silently shifting
decisions — and pin the buffer's contract against the from-scratch
reduction with exact ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import history
from repro.accel.history import BidHistoryBuffer
from repro.metric.factories import random_euclidean_metric
from repro.metric.single_point import SinglePointMetric


def _reference(metric, entries) -> np.ndarray:
    """The reference path's bid sum: vstack the rows, reduce from scratch."""
    if not entries:
        return np.zeros(metric.num_points, dtype=np.float64)
    bids = np.array([min(dual, nearest) for _, dual, nearest in entries], dtype=np.float64)
    rows = np.vstack([metric.distances_from(point) for point, _, _ in entries])
    return np.maximum(bids[:, None] - rows, 0.0).sum(axis=0)


def _assert_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


# ----------------------------------------------------------------------
# The numpy fact the running vector rests on
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=400),
    n=st.integers(min_value=2, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_axis0_sum_adds_rows_in_index_order(h, n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.0, 2.0, size=(h, n)) * 10.0 ** rng.uniform(-3, 3, size=(h, 1))
    duals = rng.uniform(0.0, 3.0, size=h)
    duals[rng.random(h) < 0.2] = 0.0  # zero bids
    nearest = rng.uniform(0.0, 3.0, size=h)
    nearest[rng.random(h) < 0.3] = np.inf  # no facility yet
    block = np.maximum(np.minimum(duals, nearest)[:, None] - rows, 0.0)
    assert block.flags.c_contiguous

    running = block[0].copy()
    for j in range(1, h):
        running += block[j]
    _assert_identical(block.sum(axis=0), running)


@pytest.mark.parametrize("h,n", [(20_000, 256), (3_000, 4_096), (5_000, 1_024), (9, 2)])
def test_axis0_sum_adds_rows_in_index_order_at_scale(h, n):
    rng = np.random.default_rng(h + n)
    block = rng.uniform(0.0, 1.0, size=(h, n)) * 10.0 ** rng.uniform(-3, 3, size=(h, 1))
    running = block[0].copy()
    for j in range(1, h):
        running += block[j]
    _assert_identical(block.sum(axis=0), running)


def test_single_column_sum_is_not_row_by_row():
    """Why one-point buffers never keep a running sum: numpy sums an
    ``(h, 1)`` block pairwise, like a 1-D array."""
    rng = np.random.default_rng(0)
    mismatches = 0
    for _ in range(50):
        block = rng.uniform(0.0, 1.0, size=(300, 1)) * 10.0 ** rng.uniform(-3, 3, size=(300, 1))
        running = block[0].copy()
        for j in range(1, block.shape[0]):
            running += block[j]
        mismatches += not np.array_equal(block.sum(axis=0), running)
    assert mismatches > 0


# ----------------------------------------------------------------------
# The buffer contract
# ----------------------------------------------------------------------
def _random_ops(metric, seed: int, steps: int):
    """A random append / update_nearest sequence with inf nearest distances,
    zero duals and openings that may or may not change any bid."""
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        if rng.random() < 0.25:
            yield "open", int(rng.integers(metric.num_points))
        else:
            point = int(rng.integers(metric.num_points))
            dual = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 1.5))
            nearest = np.inf if rng.random() < 0.2 else float(rng.uniform(0.0, 1.5))
            yield "append", (point, dual, nearest)


@pytest.mark.parametrize("reduce_rows", [7, history._REDUCE_ROWS])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("num_points", [1, 2, 17, 64])
def test_base_equals_from_scratch_reduction_after_every_op(
    seed, num_points, reduce_rows, monkeypatch
):
    """Also with a recompute chunk smaller than the history, so the chunked
    reduction's carried total is exercised."""
    monkeypatch.setattr(history, "_REDUCE_ROWS", reduce_rows)
    metric = (
        SinglePointMetric()
        if num_points == 1
        else random_euclidean_metric(num_points, rng=np.random.default_rng(seed))
    )
    buffer = BidHistoryBuffer(metric)
    entries = []
    _assert_identical(buffer.base(), _reference(metric, entries))
    for op, arg in _random_ops(metric, seed, steps=250):
        if op == "open":
            row = metric.distances_from(arg)
            buffer.update_nearest(row)
            entries = [(p, d, min(near, float(row[p]))) for p, d, near in entries]
        else:
            buffer.append(*arg)
            entries.append(arg)
        _assert_identical(buffer.base(), _reference(metric, entries))
    # Rows are stored once per distinct point, not once per entry.
    assert buffer._table.shape[0] <= max(len({p for p, _, _ in entries}), 1) * 2


def test_opening_that_changes_no_bid_does_not_recompute(monkeypatch):
    calls = []
    reduce = BidHistoryBuffer._reduce

    def counting_reduce(self):
        calls.append(len(self))
        return reduce(self)

    monkeypatch.setattr(BidHistoryBuffer, "_reduce", counting_reduce)
    metric = random_euclidean_metric(16, rng=np.random.default_rng(3))
    buffer = BidHistoryBuffer(metric)
    entries = [(0, 0.05, np.inf), (5, 0.0, 0.2), (9, 0.02, 0.01)]
    for entry in entries:
        buffer.append(*entry)
    buffer.base()
    assert calls == []

    # Every entry's bid min(dual, nearest) is at most 0.05; an opening at a
    # point farther than that from each entry leaves every bid unchanged.
    far = next(
        m
        for m in range(metric.num_points)
        if all(metric.distances_from(m)[p] > 0.05 for p, _, _ in entries)
    )
    buffer.update_nearest(metric.distances_from(far))
    _assert_identical(buffer.base(), _reference(metric, entries))
    assert calls == []

    # Opening at an entry's own point changes its bid (distance 0 < 0.05).
    buffer.update_nearest(metric.distances_from(0))
    entries[0] = (0, 0.05, 0.0)
    _assert_identical(buffer.base(), _reference(metric, entries))
    assert calls == [3]
    buffer.base()
    assert calls == [3]


def test_base_is_read_only():
    metric = random_euclidean_metric(8, rng=np.random.default_rng(0))
    buffer = BidHistoryBuffer(metric)
    with pytest.raises(ValueError):
        buffer.base()[0] = 1.0
    buffer.append(2, 0.5, np.inf)
    base = buffer.base()
    with pytest.raises(ValueError):
        base += 1.0
    buffer.update_nearest(metric.distances_from(2))
    with pytest.raises(ValueError):
        buffer.base()[:] = 0.0


@pytest.mark.parametrize("seed", range(3))
def test_restored_buffer_base_equals_live(seed):
    metric = random_euclidean_metric(32, rng=np.random.default_rng(seed))
    live = BidHistoryBuffer(metric)
    for op, arg in _random_ops(metric, seed, steps=120):
        if op == "open":
            live.update_nearest(metric.distances_from(arg))
        else:
            live.append(*arg)
    restored = BidHistoryBuffer(metric)
    restored.load_state_dict(live.state_dict())
    _assert_identical(restored.base(), live.base())
