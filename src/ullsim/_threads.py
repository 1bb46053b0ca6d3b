"""Split a trial's stacked numpy kernels over threads, with the same bits.

A kernel is split along an axis it does not contract, and each thread
writes its own slice of one preallocated output with the call the whole
stack makes, so no result depends on the thread count. With one thread,
or too little work for two, a kernel makes its one whole-stack call.
"""

from __future__ import annotations

import math
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


def _parts(n: int, work: int) -> list[slice]:
    return chunks(n, min(_count, work // _MIN_WORK))


def parallel(n: int, work: int) -> bool:
    """Whether split(fn, n, work) starts threads."""
    return len(_parts(n, work)) > 1


def split(fn, n: int, work: int) -> None:
    """fn(s) over chunks of range(n), the first on the calling thread.

    work is the whole stack's multiply-adds. The helper threads are joined
    before this returns, and the first failing chunk's exception is raised.
    """
    first, *rest = _parts(n, work)
    if not rest:
        fn(first)
        return
    with ThreadPoolExecutor(len(rest)) as pool:
        helpers = [pool.submit(fn, s) for s in rest]
        fn(first)
        for h in helpers:
            h.result()


def einsum(subscripts: str, *operands, split_ops: tuple = ()) -> np.ndarray:
    """np.einsum, split along axis 0 of the output and of operands split_ops.

    That axis, axis 0 of each operand in split_ops, must not be contracted;
    the other operands are shared. Each term's "..." must lead it. Operands
    that broadcast along it run unsplit.
    """
    extent, batch = {}, []
    for term, op in zip(subscripts.split("->")[0].split(","), operands):
        labels = term.replace("...", "")
        batch.append(op.shape[:op.ndim - len(labels)])
        extent.update(zip(labels, op.shape[op.ndim - len(labels):]))
    work = math.prod(extent.values()) * math.prod(np.broadcast_shapes(*batch))
    n = operands[split_ops[0]].shape[0] if split_ops else 1
    if any(operands[i].shape[0] != n for i in split_ops) or not parallel(n, work):
        return np.einsum(subscripts, *operands)

    def cut(s):
        return [op[s] if i in split_ops else op for i, op in enumerate(operands)]

    head = np.einsum(subscripts, *cut(slice(0, 0)))       # shape and dtype, no work
    out = np.empty((n,) + head.shape[1:], dtype=head.dtype)
    split(lambda s: np.einsum(subscripts, *cut(s), out=out[s]), n, work)
    return out
