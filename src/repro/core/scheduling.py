"""Static scheduling of D-dimensional task grids (paper Sec. 4.5).

The total work of each pipeline stage is a D-dimensional grid of equal
tasks.  The scheduler pre-assigns a hyper-rectangular sub-grid to every
thread so a single fork-join executes the whole stage with no dynamic
load balancing:

    *"In the base case, when |K| = 1, it schedules all tasks to that
    particular thread.  Otherwise, it finds the most significant
    dimension d, such that the largest common divisor
    x_d = GCD(P_d, |K|) is greater than one.  The algorithm slices the
    grid along d into x_d equal sub-grids, and divides the set of
    threads K into x_d sub-sets ...  In the case when no GCD is greater
    than one, it divides the grid along the dimension d with the largest
    P_d as equally as possible."*

Since batch size, channel counts and thread counts are typically powers
of two, the GCD path almost always divides the work exactly; grids are
ordered most-significant-first so threads keep spatially adjacent tiles
(cache reuse along the least significant dimension, e.g. W).

One refinement of the no-GCD rule: when the largest dimension is
shorter than the thread set (``P_d < |K|``), cutting it into ``|K|``
chunks would idle ``|K| - P_d`` threads while the others each take a
whole slab.  The scheduler instead cuts it into its ``P_d`` unit parts,
shares the threads among them as equally as possible and recurses;
only a sub-grid down to a single task hands its surplus threads empty
slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, prod


@dataclass(frozen=True)
class GridSlice:
    """A hyper-rectangular sub-grid: per-dimension ``[start, stop)``."""

    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for d, (a, b) in enumerate(self.ranges):
            if a < 0 or b < a:
                raise ValueError(f"invalid range {a}..{b} in dimension {d}")

    @property
    def ndim(self) -> int:
        return len(self.ranges)

    @property
    def task_count(self) -> int:
        return prod(b - a for a, b in self.ranges)

    def tasks(self):
        """Iterate task multi-indices in row-major order."""
        return product(*(range(a, b) for a, b in self.ranges))

    def contains(self, index: tuple[int, ...]) -> bool:
        return all(a <= i < b for i, (a, b) in zip(index, self.ranges))


def static_schedule(
    grid: tuple[int, ...], n_threads: int
) -> list[GridSlice]:
    """Partition ``grid`` among ``n_threads`` threads.

    Returns one :class:`GridSlice` per thread (possibly empty when there
    are more threads than tasks).  Dimension 0 is the most significant.
    """
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    if not grid:
        raise ValueError("grid must have at least one dimension")
    if any(p < 1 for p in grid):
        raise ValueError(f"grid extents must be positive, got {grid}")

    full = GridSlice(ranges=tuple((0, p) for p in grid))
    out: list[GridSlice] = []
    _schedule_recursive(full, n_threads, out)
    return out


def _schedule_recursive(piece: GridSlice, k: int, out: list[GridSlice]) -> None:
    if k == 1:
        out.append(piece)
        return
    if piece.task_count == 1:
        # One task left: one thread takes it, the others get empty slices.
        (a, _), *rest = piece.ranges
        out.append(piece)
        out.extend([GridSlice(((a, a), *rest))] * (k - 1))
        return
    sizes = [b - a for a, b in piece.ranges]
    # Most significant dimension with GCD(P_d, |K|) > 1.
    for d, p in enumerate(sizes):
        x = gcd(p, k)
        if x > 1:
            _split(piece, d, x, k // x, out)
            return
    # No common divisor anywhere: split the largest dimension as equally
    # as possible.
    d = max(range(len(sizes)), key=lambda i: sizes[i])
    _split_uneven(piece, d, k, out)


def _split(piece: GridSlice, dim: int, parts: int, threads_each: int,
           out: list[GridSlice]) -> None:
    a, b = piece.ranges[dim]
    step = (b - a) // parts
    for i in range(parts):
        ranges = list(piece.ranges)
        ranges[dim] = (a + i * step, a + (i + 1) * step)
        _schedule_recursive(GridSlice(tuple(ranges)), threads_each, out)


def _split_uneven(piece: GridSlice, dim: int, k: int, out: list[GridSlice]) -> None:
    """Cut ``dim`` into ``min(P_d, k)`` near-equal parts and share the
    ``k`` threads among them as equally as possible: one thread per part
    when ``P_d >= k`` (some get one task more), else ``k // P_d`` per
    unit part with the first ``k % P_d`` parts taking one more."""
    a, b = piece.ranges[dim]
    parts = min(b - a, k)
    size, size_extra = divmod(b - a, parts)
    threads, threads_extra = divmod(k, parts)
    start = a
    for i in range(parts):
        n = size + (1 if i < size_extra else 0)
        ranges = list(piece.ranges)
        ranges[dim] = (start, start + n)
        _schedule_recursive(
            GridSlice(tuple(ranges)), threads + (1 if i < threads_extra else 0), out
        )
        start += n


# ----------------------------------------------------------------------
# Schedule quality metrics (used by tests and the cost model)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleStats:
    """Load-balance summary of a static schedule."""

    n_threads: int
    total_tasks: int
    min_tasks: int
    max_tasks: int

    @property
    def imbalance(self) -> float:
        """``max / mean`` -- 1.0 is a perfectly even schedule.

        The stage's parallel time is proportional to the *maximum* per
        thread, so this is the slowdown factor versus ideal.
        """
        mean = self.total_tasks / self.n_threads
        return self.max_tasks / mean if mean else 1.0


def schedule_stats(slices: list[GridSlice]) -> ScheduleStats:
    counts = [s.task_count for s in slices]
    return ScheduleStats(
        n_threads=len(slices),
        total_tasks=sum(counts),
        min_tasks=min(counts),
        max_tasks=max(counts),
    )


# ----------------------------------------------------------------------
# The paper's three per-stage grids (Sec. 4.5)
# ----------------------------------------------------------------------
def stage1_grid(batch: int, c_in: int, tile_counts: tuple[int, ...],
                simd_width: int = 16) -> tuple[int, ...]:
    """Input-transform grid ``B x (C/S) x N_D x N_H x N_W``."""
    if c_in % simd_width:
        raise ValueError(f"C={c_in} not divisible by S={simd_width}")
    return (batch, c_in // simd_width) + tuple(tile_counts)


def stage2_grid(t: int, cprime: int, nb: int, blocking) -> tuple[int, ...]:
    """GEMM grid ``T x (C'/C'_blk) x (NB/n_blk)``.

    ``NB/n_blk`` is least significant so one thread performs consecutive
    row-block multiplications against the same V (kept in cache).
    """
    if cprime % blocking.cprime_blk:
        raise ValueError(
            f"C'={cprime} not divisible by C'_blk={blocking.cprime_blk}"
        )
    row_blocks = -(-nb // blocking.n_blk)  # ceil
    return (t, cprime // blocking.cprime_blk, row_blocks)


def stage3_grid(batch: int, tiles: int, cprime: int,
                simd_width: int = 16) -> tuple[int, ...]:
    """Inverse-transform grid: 1-D of size ``B*N*C'/S`` (no overlap)."""
    if cprime % simd_width:
        raise ValueError(f"C'={cprime} not divisible by S={simd_width}")
    return (batch * tiles * (cprime // simd_width),)
