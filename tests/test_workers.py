"""fork_map's workers: placement, errors, deaths and reaping."""

import errno
import os
import sys

import pytest

from bandctl._workers import fork_map
from bandctl.errors import FixedPointNotContractive, WorkerDied

from .conftest import record_forks

pytestmark = pytest.mark.skipif(sys.version_info >= (3, 12),
                                reason="workers are not forked from Python 3.12")


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def assert_no_child_left():
    # not even a zombie: every worker was reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_each_worker_moves_to_its_own_cpu_then_back_to_all(two_cpus, monkeypatch):
    calls = []  # each worker appends to its own copy
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append((pid, set(cpus))))
    forks = record_forks(monkeypatch)
    got = fork_map(lambda k: (k, list(calls)), 5, range(5))
    # worker i runs tasks i, i + 2, ...; results come back in task order
    placed = [[(0, {0}), (0, {0, 1})], [(0, {1}), (0, {0, 1})]]
    assert got == [(k, placed[k % 2]) for k in range(5)]
    assert len(forks) == 2 and calls == []
    assert_no_child_left()


def test_one_cpu_forks_nothing(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    forks = record_forks(monkeypatch)
    assert list(fork_map(lambda k: (k, os.getpid()), 5, range(5))) == [
        (k, os.getpid()) for k in range(5)]
    assert forks == []


def test_a_failed_placement_still_runs_the_tasks(two_cpus, monkeypatch):
    def refuse(pid, cpus):
        raise OSError(errno.EINVAL, "stub: no such CPU")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    forks = record_forks(monkeypatch)
    assert fork_map(lambda k: k * k, 5, range(5)) == [0, 1, 4, 9, 16]
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("failing, first", [({3}, 3), ({2, 4}, 2), ({1, 2}, 1)])
def test_a_task_error_reaches_the_caller(failing, first, two_cpus):
    # the first failing task in task order, as a serial map meets it
    def task(k):
        if k in failing:
            raise FixedPointNotContractive(f"stub: task {k}")
        return k

    with pytest.raises(FixedPointNotContractive) as exc:
        fork_map(task, 5, range(5))
    assert type(exc.value) is FixedPointNotContractive
    assert str(exc.value) == f"stub: task {first}"
    assert_no_child_left()


def test_a_dying_worker_raises_worker_died(two_cpus):
    def task(k):
        if k == 1:
            os._exit(3)
        return k

    with pytest.raises(WorkerDied, match="worker 1 of 2 ended with exit code 3"):
        fork_map(task, 5, range(5))
    assert_no_child_left()


def test_a_failed_second_fork_reaps_the_first_worker(two_cpus, monkeypatch):
    real_fork, forked = os.fork, []

    def fork():
        if forked:
            raise OSError(errno.EAGAIN, "stub: no second fork")
        forked.append(True)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(OSError, match="no second fork"):
        fork_map(lambda k: k, 5, range(5))
    assert_no_child_left()
