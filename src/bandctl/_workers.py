"""Worker processes for independent tasks: the polish's starts and the simulator's chunks.

Tasks run in up to one forked worker per usable CPU, the CPUs of the
process's affinity set (so `taskset -c 0` gives the serial run).  Where
Python cannot fork them cleanly they run in the calling process: without
os.sched_getaffinity, as on macOS and Windows, and from Python 3.12, where
os.fork in a multi-threaded process (numpy's BLAS threads make one) raises a
DeprecationWarning.  A worker started any other way imports the caller's
main module afresh.  Each caller's tasks give the same result in any
process, so its results do not depend on the worker count.
"""

from __future__ import annotations

import os
import sys


def usable_workers(n: int) -> int:
    """Worker processes for n tasks: up to n, one per usable CPU, where
    workers can be forked, else 1 (the tasks run in this process)."""
    if sys.version_info >= (3, 12) or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(n, len(os.sched_getaffinity(0)))


def fork_map(fn, n: int, *iterables):
    """map(fn, *iterables) over the n tasks they give, in order, run in
    usable_workers(n) forked processes when that is more than one."""
    workers = usable_workers(n)
    if workers <= 1:
        return map(fn, *iterables)
    # imported here, so that `import bandctl` does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
        return list(pool.map(fn, *iterables))
