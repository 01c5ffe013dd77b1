"""Tests for the recursive GCD static scheduler."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.blocking import BlockingConfig
from repro.core.scheduling import (
    GridSlice,
    schedule_stats,
    stage1_grid,
    stage2_grid,
    stage3_grid,
    static_schedule,
)


def assert_exact_cover(grid, slices):
    """Every task appears in exactly one slice."""
    seen = {}
    for tid, sl in enumerate(slices):
        for task in sl.tasks():
            assert task not in seen, f"task {task} in threads {seen[task]} and {tid}"
            seen[task] = tid
    total = 1
    for p in grid:
        total *= p
    assert len(seen) == total


class TestGridSlice:
    def test_task_count(self):
        sl = GridSlice(ranges=((0, 2), (1, 4)))
        assert sl.task_count == 6
        assert list(sl.tasks())[0] == (0, 1)

    def test_contains(self):
        sl = GridSlice(ranges=((0, 2), (1, 4)))
        assert sl.contains((1, 3))
        assert not sl.contains((2, 3))

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            GridSlice(ranges=((3, 2),))


class TestStaticSchedule:
    def test_power_of_two_even(self):
        """B, C/S powers of two -> perfectly even split (the common case
        the paper designs for)."""
        grid = (64, 4, 8, 8)  # B x C/S x N_H x N_W
        slices = static_schedule(grid, 64)
        stats = schedule_stats(slices)
        assert stats.imbalance == 1.0
        assert stats.min_tasks == stats.max_tasks
        assert_exact_cover(grid, slices)

    def test_slices_most_significant_first(self):
        """With GCD available in dim 0, only dim 0 is sliced -- threads
        keep whole rows of less significant dimensions (cache locality)."""
        slices = static_schedule((8, 10), 8)
        for sl in slices:
            assert sl.ranges[1] == (0, 10)

    def test_gcd_path_multi_level(self):
        # 6 threads, grid (4, 9): gcd(4,6)=2 -> two halves x 3 threads;
        # then gcd(2,3)=1, gcd(9,3)=3 -> split dim 1.
        grid = (4, 9)
        slices = static_schedule(grid, 6)
        assert_exact_cover(grid, slices)
        assert schedule_stats(slices).imbalance == 1.0

    def test_uneven_fallback(self):
        """Coprime grid/threads: 'slightly more work to some threads'."""
        grid = (7, 5)
        slices = static_schedule(grid, 3)
        assert_exact_cover(grid, slices)
        stats = schedule_stats(slices)
        assert stats.max_tasks - stats.min_tasks <= 5  # one row of dim 1

    def test_more_threads_than_tasks(self):
        grid = (3,)
        slices = static_schedule(grid, 5)
        assert_exact_cover(grid, slices)
        assert len(slices) == 5
        assert schedule_stats(slices).min_tasks == 0

    def test_single_thread(self):
        grid = (4, 5)
        slices = static_schedule(grid, 1)
        assert len(slices) == 1
        assert slices[0].task_count == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            static_schedule((4,), 0)
        with pytest.raises(ValueError):
            static_schedule((), 2)
        with pytest.raises(ValueError):
            static_schedule((0,), 2)

    @settings(max_examples=60, deadline=None)
    @given(
        grid=st.lists(st.integers(1, 12), min_size=1, max_size=4).map(tuple),
        k=st.integers(1, 16),
    )
    @example(grid=(2, 3, 3), k=13)  # no GCD, largest dim shorter than k
    def test_cover_property(self, grid, k):
        """Exact cover and sane imbalance for arbitrary grids."""
        slices = static_schedule(grid, k)
        assert len(slices) == k
        assert_exact_cover(grid, slices)
        stats = schedule_stats(slices)
        total = stats.total_tasks
        # max cannot be worse than one "slab" above the even share along
        # any single dimension; a loose but meaningful bound:
        assert stats.max_tasks * k <= total * (1 + max(grid)) or total < k

    @settings(max_examples=30, deadline=None)
    @given(
        exp_b=st.integers(0, 4),
        exp_c=st.integers(0, 4),
        exp_k=st.integers(0, 6),
    )
    def test_power_of_two_always_even(self, exp_b, exp_c, exp_k):
        """Whenever the leading dims' product is divisible by the thread
        count, the schedule is perfectly even."""
        grid = (2**exp_b, 2**exp_c, 3)
        k = 2**exp_k
        if 2 ** (exp_b + exp_c) % k:
            return
        slices = static_schedule(grid, k)
        assert schedule_stats(slices).imbalance == 1.0


class TestStageGrids:
    def test_stage1(self):
        assert stage1_grid(64, 64, (56, 56)) == (64, 4, 56, 56)
        with pytest.raises(ValueError):
            stage1_grid(64, 60, (56, 56))

    def test_stage2(self):
        blk = BlockingConfig(n_blk=28, c_blk=64, cprime_blk=64)
        assert stage2_grid(36, 256, 3136, blk) == (36, 4, 112)
        with pytest.raises(ValueError):
            stage2_grid(36, 250, 3136, blk)

    def test_stage2_ceil_rows(self):
        blk = BlockingConfig(n_blk=30, c_blk=64, cprime_blk=64)
        assert stage2_grid(16, 64, 100, blk) == (16, 1, 4)

    def test_stage3(self):
        assert stage3_grid(64, 196, 512) == (64 * 196 * 32,)
        with pytest.raises(ValueError):
            stage3_grid(64, 196, 500)
