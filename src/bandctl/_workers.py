"""Worker processes for independent tasks: the polish's starts and the simulator's chunks.

Tasks run in up to one forked worker per usable CPU, the CPUs of the
process's affinity set (so `taskset -c 0` gives the serial run).  Where
Python cannot fork them cleanly they run in the calling process: without
os.sched_getaffinity, as on macOS and Windows, and from Python 3.12, where
os.fork in a multi-threaded process (numpy's BLAS threads make one) raises a
DeprecationWarning.  Each caller's tasks give the same result in any
process, so its results do not depend on the worker count.

fork_map forks its workers directly (os.fork), with one pipe each: worker i
runs tasks i, i + w, i + 2w, ... of the w workers, pickles its results, or
the results before its first exception and that exception, into its pipe,
and leaves by os._exit.  The tasks reach a worker by the fork itself, so
only results are pickled.  A forked process starts on its parent's CPU, and
the kernel may leave every worker there for a sub-second task, each at half
speed or less; so worker i first moves itself onto the i-th CPU of the
affinity set, then gives itself the whole set back, so that it can still
leave a CPU that something else takes.
"""

from __future__ import annotations

import os
import pickle
import sys

from .errors import WorkerDied


def usable_workers(n: int) -> int:
    """Worker processes for n tasks: up to n, one per usable CPU, where
    workers can be forked, else 1 (the tasks run in this process)."""
    if sys.version_info >= (3, 12) or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(n, len(os.sched_getaffinity(0)))


def fork_map(fn, n: int, *iterables):
    """map(fn, *iterables), in order, run in usable_workers(n) forked
    processes when that is more than one.

    A task's exception is raised here, that of the first failing task in
    task order, as a serial map meets it; a worker that ends without
    returning its results raises WorkerDied.  Every worker is reaped before
    this returns or raises.
    """
    workers = usable_workers(n)
    if workers <= 1:
        return map(fn, *iterables)
    tasks = list(zip(*iterables))
    cpus = sorted(os.sched_getaffinity(0))
    pids, pipes = [], []
    try:
        for i in range(workers):
            r, w = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, tasks[i::workers], cpus[i], cpus, pipes, w)
            finally:
                os.close(w)
            pids.append(pid)
        payloads = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]

    done = []
    for i, (payload, status) in enumerate(zip(payloads, statuses)):
        code = os.waitstatus_to_exitcode(status)
        if code == 0:
            done.append(pickle.loads(payload))
        else:
            how = f"exit code {code}" if code > 0 else f"signal {-code}"
            done.append(([], WorkerDied(f"worker {i} of {workers} ended with {how}"
                                        " before returning its results")))
    results = []
    for k in range(len(tasks)):
        out, exc = done[k % workers]
        if k // workers == len(out):
            raise exc  # task k is the first in task order without a result
        results.append(out[k // workers])
    return results


def _work(fn, tasks, cpu: int, cpus, inherited, w: int):
    """A forked worker's whole life: never returns.  It places itself (an
    OSError there is ignored: the tasks run wherever they are), runs its
    tasks, writes (results, exception or None) to the pipe w, and exits 0
    only once that is written."""
    code = 1
    try:
        for pipe in inherited:
            pipe.close()
        try:
            os.sched_setaffinity(0, {cpu})
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass
        out, exc = [], None
        try:
            for args in tasks:
                out.append(fn(*args))
        except Exception as e:
            exc = e
        with open(w, "wb") as f:
            pickle.dump((out, exc), f, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)
