"""Experiment Q8: redistribution schedule cost (paper Sec. 2.3, ref. [19]).

Block <-> cyclic(b) redistribution is the primitive everything else pays
for.  We check the closed-form communication volume (every element whose
owner changes moves exactly once) and measure schedule construction plus
execution time across processor counts and block sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mapping import DistFormat, Mapping, ProcessorArrangement
from repro.mapping.ownership import layout_of
from repro.spmd import DistributedArray, Machine, build_schedule, redistribute


def _count_moving(n: int, src, dst, nprocs: int) -> int:
    """Closed form check: elements whose primary owner changes."""
    procs = ProcessorArrangement("P", (nprocs,))
    ls = layout_of(Mapping.simple((n,), (src,), procs))
    ld = layout_of(Mapping.simple((n,), (dst,), procs))
    return sum(
        1 for i in range(n) if ls.primary_owner((i,)) != ld.primary_owner((i,))
    )


@pytest.mark.parametrize("nprocs", [2, 4, 8])
def test_block_to_cyclic_volume(benchmark, nprocs):
    n = 1 << 12
    procs = ProcessorArrangement("P", (nprocs,))
    machine = Machine(procs)
    src = DistributedArray("a", Mapping.simple((n,), (DistFormat.block(),), procs), machine)
    dst = DistributedArray("a", Mapping.simple((n,), (DistFormat.cyclic(),), procs), machine)
    src.scatter_from_global(np.arange(float(n)))

    moving = _count_moving(n, DistFormat.block(), DistFormat.cyclic(), nprocs)

    def once():
        machine.reset_stats()
        redistribute(src, dst, machine)
        return machine.stats.bytes

    moved_bytes = benchmark(once)
    assert moved_bytes == moving * 8
    # block->cyclic on P procs moves the (P-1)/P fraction
    assert moving == pytest.approx(n * (nprocs - 1) / nprocs, rel=0.01)
    benchmark.extra_info.update(
        {"n": n, "procs": nprocs, "elements_moved": moving, "bytes": moved_bytes}
    )


@pytest.mark.parametrize("b", [1, 2, 8, 64])
def test_cyclic_block_sizes_schedule(benchmark, b):
    n = 1 << 12
    nprocs = 8
    procs = ProcessorArrangement("P", (nprocs,))
    src_l = layout_of(Mapping.simple((n,), (DistFormat.block(),), procs))
    dst_l = layout_of(Mapping.simple((n,), (DistFormat.cyclic(b),), procs))

    sched = benchmark(lambda: build_schedule(src_l, dst_l))
    total = sched.total_elements()
    assert total == n  # exact cover
    benchmark.extra_info.update(
        {
            "block_size": b,
            "messages": sched.message_count,
            "local": sched.local_count,
            "moved_elements": sched.moved_elements(),
        }
    )


def test_2d_transpose_schedule(benchmark):
    n, nprocs = 256, 8
    procs = ProcessorArrangement("P", (nprocs,))
    rows = layout_of(
        Mapping.simple((n, n), (DistFormat.block(), DistFormat.star()), procs)
    )
    cols = layout_of(
        Mapping.simple((n, n), (DistFormat.star(), DistFormat.block()), procs)
    )
    sched = benchmark(lambda: build_schedule(rows, cols))
    # all-to-all: P*(P-1) messages + P local diagonal blocks
    assert sched.message_count == nprocs * (nprocs - 1)
    assert sched.local_count == nprocs
    assert sched.total_elements() == n * n
    benchmark.extra_info.update(
        {"messages": sched.message_count, "elements": sched.total_elements()}
    )
