"""Split a trial's stacked numpy kernels over threads, with the same bits.

Kernels call `einsum`, which infers the split from its subscripts,
`per_matrix` and `solve` as they call numpy. Each thread writes its own
slice of one output with the call the whole stack makes, so no result
depends on the thread count. With one thread, or too little work for two,
nothing splits.

A stage whose items are independent, such as the receiver's serving cells,
runs them through `each`: one fork per call, contiguous items per thread,
and each item's kernels split over max(1, threads // items) threads of
their own (a thread-local budget), so a trial never runs more threads than
it has. With one thread per trial the items run on the calling thread.

Kernel helpers write only into arrays the calling thread allocated, and
keep their own temporaries small. glibc gives each thread its own malloc
arena, which holds on to the memory freed in it: with the decoder's chunks
copying their buffers into arrays of their own, a paper-scale coded round
peaked at 120.7 MB RSS against 115.5 MB with the caller's buffers, and at
116.5 to 118.4 MB with MALLOC_ARENA_MAX=1 (2-core VM). An `each` item is
the exception: it allocates its own results (a cell's filter, covariances
and combining vectors) in its thread's arena, so a fork over n items holds
up to min(threads, n) items' working sets at once.
"""

from __future__ import annotations

import math
import os
import threading
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
_local = threading.local()    # .count: the budget of a thread running an `each` item


def _budget() -> int:
    """Threads the calling thread's kernels may use: its item's share, else _count."""
    return getattr(_local, "count", _count)


def set_workers(workers: int) -> None:
    global _count
    _count = threads_for(workers)


def chunks(n: int, t: int) -> list[slice]:
    """At most t contiguous slices, nearly equal, covering range(n) once."""
    t = max(1, min(t, n))
    return [slice(i * n // t, (i + 1) * n // t) for i in range(t)]


def parts(n: int, work: int) -> list[slice]:
    """The chunks of range(n) that split(fn, n, work) runs fn over, one per thread."""
    return chunks(n, min(_budget(), work // _MIN_WORK))


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
    """[fn(i) for i in range(n)], the items split over the calling thread's budget.

    One fork: contiguous items per thread, the first on the calling thread.
    While an item runs, its thread's kernels get max(1, budget // n)
    threads. The helpers are joined before this returns, and the first
    failing item's exception is raised.
    """
    budget = _budget()
    inner = max(1, budget // n)

    def run(s):
        outer = getattr(_local, "count", None)
        _local.count = inner
        try:
            return [fn(i) for i in range(n)[s]]
        finally:
            if outer is None:
                del _local.count
            else:
                _local.count = outer

    return [out for part in _fork(run, chunks(n, budget)) for out in part]


def einsum(subscripts: str, *operands) -> np.ndarray:
    """np.einsum, split along axis 0 of the output's leading "...".

    That axis is also cut in each operand whose "..." is as long as the
    output's, unless it broadcasts (size 1); operands with a shorter "..."
    or none are shared, and an empty "..." makes the plain call. Each
    term's "..." must lead it, and the cut axis must not be contracted.
    """
    extent, batch = {}, []
    for term, op in zip(subscripts.split("->")[0].split(","), operands):
        labels = term.replace("...", "")
        batch.append(op.shape[:op.ndim - len(labels)])
        extent.update(zip(labels, op.shape[op.ndim - len(labels):]))
    stack = np.broadcast_shapes(*batch)
    # Work counts products: a term of n operands takes n - 1. On one thread
    # of a 2-core Xeon VM, at (B, K, M) = (11, 10, 100), a term of
    # effective_stats' intercell form took 2.7 ns, one of the LMMSE
    # estimate's two-operand form 1.3 ns.
    work = math.prod(extent.values()) * math.prod(stack) * (len(operands) - 1)
    n = stack[0] if stack else 1
    if len(parts(n, work)) < 2:
        return np.einsum(subscripts, *operands)
    cut_ops = [len(b) == len(stack) and b[0] == n for b in batch]

    def cut(s):
        return [op[s] if c else op for c, op in zip(cut_ops, operands)]

    head = np.einsum(subscripts, *cut(slice(0, 0)))       # shape and dtype, no work
    out = np.empty((n,) + head.shape[1:], dtype=head.dtype)
    split(lambda s: np.einsum(subscripts, *cut(s), out=out[s]), n, work)
    return out


def per_matrix(fn, A: np.ndarray, *more: np.ndarray) -> None:
    """fn(idx) for each (M, M) matrix A[idx] of the stack A, split over threads.

    The work is M multiply-adds per element of A and of the stacks in more.
    """
    stack = list(np.ndindex(A.shape[:-2]))

    def part(s):
        for idx in stack[s]:
            fn(idx)

    split(part, len(stack), work=(A.size + sum(m.size for m in more)) * A.shape[-1])


def solve(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.solve(A, B) on stacks of one shape, split over threads.

    One LAPACK call per matrix, the call the stacked solve makes for it.
    Returns (X, ok): ok, over the stack, is False where A's matrix is
    singular or its solution is not finite, and X is zero there.
    """
    X = np.empty(B.shape, dtype=np.result_type(A, B, float))

    def solve_one(idx):
        try:
            X[idx] = np.linalg.solve(A[idx], B[idx])
        except np.linalg.LinAlgError:
            X[idx] = np.nan

    per_matrix(solve_one, A, B)
    ok = np.all(np.isfinite(X), axis=(-2, -1))
    X[~ok] = 0
    return X, ok
