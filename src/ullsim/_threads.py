"""Split a trial's work over threads, with the same bits.

Outside a receiver pass, `split` and `per_matrix` cut a stack into
contiguous chunks, one per thread, each writing its own slice of one
output with the call the whole stack makes, so no result depends on the
thread count; with one thread, or too little work for two, nothing splits.
A receiver pass forks once, over its serving cells (`each`), and the code
inside a cell calls numpy directly.

Chunks write only into arrays the calling thread allocated and keep their
own temporaries small: glibc gives each thread a malloc arena that holds
on to what is freed in it (a paper-scale coded round whose decoder chunks
copied their buffers into arrays of their own peaked at 120.7 MB RSS
against 115.5 MB, 2-core VM). An `each` item allocates its own results (a
cell's filter, covariances and combining vectors) in its thread's arena,
so a fork over n items holds up to min(threads, n) items' working sets.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Multiply-adds a thread must get: about 5 ms of einsum's loop, many times a
# thread's start and join. Smaller kernels stay on the calling thread, and
# so do their temporaries (each einsum call buffers 2 x 128 KiB).
_MIN_WORK = 1_000_000


def threads_for(workers: int, cores: int | None = None) -> int:
    """Threads per trial when `workers` processes share the usable cores."""
    if cores is None:             # the usable cores; sched_getaffinity is Linux-only
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
    return max(1, cores // workers)


_count = threads_for(1)       # the harness sets it per pair from Campaign.workers


def set_workers(workers: int) -> None:
    global _count
    _count = threads_for(workers)


def chunks(n: int, t: int) -> list[slice]:
    """At most t contiguous slices, nearly equal, covering range(n) once."""
    t = max(1, min(t, n))
    return [slice(i * n // t, (i + 1) * n // t) for i in range(t)]


def parts(n: int, work: int) -> list[slice]:
    """The chunks of range(n) that split(fn, n, work) runs fn over, one per thread."""
    return chunks(n, min(_count, work // _MIN_WORK))


def _fork(fn, slices: list[slice]) -> list:
    """[fn(s) for s in slices], the first on the calling thread, each other on a helper.

    The helpers are joined before this returns, and the first failing
    slice's exception is raised.
    """
    first, *rest = slices
    if not rest:
        return [fn(first)]
    with ThreadPoolExecutor(len(rest)) as pool:
        helpers = [pool.submit(fn, s) for s in rest]
        return [fn(first)] + [h.result() for h in helpers]


def split(fn, n: int, work: int) -> None:
    """fn(s) for each s in parts(n, work), the first on the calling thread.

    work is the whole stack's multiply-adds. The helper threads are joined
    before this returns, and the first failing chunk's exception is raised.
    """
    _fork(fn, parts(n, work))


def each(fn, n: int) -> list:
    """[fn(i) for i in range(n)], contiguous items per thread, in one fork.

    The first thread's items run on the calling thread. The helpers are
    joined before this returns, and the first failing item's exception is
    raised.
    """
    return [out for part in _fork(lambda s: [fn(i) for i in range(n)[s]], chunks(n, _count))
            for out in part]


def per_matrix(fn, A: np.ndarray, *more: np.ndarray) -> None:
    """fn(idx) for each (M, M) matrix A[idx] of the stack A, split over threads.

    The work is M multiply-adds per element of A and of the stacks in more.
    """
    stack = list(np.ndindex(A.shape[:-2]))

    def part(s):
        for idx in stack[s]:
            fn(idx)

    split(part, len(stack), work=(A.size + sum(m.size for m in more)) * A.shape[-1])
