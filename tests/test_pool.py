"""The fork pool: job order, the first failing job's error, no nesting."""

import os
import threading

import pytest

from telkit import _pool


def _square_and_pid(shared, job):
    if job in shared:
        raise ValueError(f"job {job} failed")
    return job * job, os.getpid()


def _inner_pids(shared, job):
    """The pids the jobs of a pool run inside this job ran in."""
    return os.getpid(), [pid for _, pid in _pool.run(_square_and_pid, (), [1, 2])]


@pytest.mark.parametrize("count", [1, 2])
def test_results_come_back_in_job_order(cpus, count):
    cpus(count)
    results = _pool.run(_square_and_pid, (), range(7))
    assert [square for square, _ in results] == [j * j for j in range(7)]
    pids = {pid for _, pid in results}
    assert (pids == {os.getpid()}) == (count == 1)
    assert cpus.pools == ([] if count == 1 else [2])


@pytest.mark.parametrize("count", [1, 2])
def test_first_failing_job_raises_its_own_error(cpus, count):
    cpus(count)
    with pytest.raises(ValueError, match="^job 3 failed$"):
        _pool.run(_square_and_pid, {3, 5}, range(7))


def test_no_pool_for_one_job(cpus):
    cpus(2)
    cpus.forbid_pools()
    assert _pool.run(_square_and_pid, (), [4]) == [(16, os.getpid())]


def test_no_pool_when_the_caller_does_not_pool(cpus):
    cpus(2)
    cpus.forbid_pools()
    results = _pool.run(_square_and_pid, (), range(5), pooled=False)
    assert results == [(j * j, os.getpid()) for j in range(5)]
    with pytest.raises(ValueError, match="^job 3 failed$"):
        _pool.run(_square_and_pid, {3, 4}, range(5), pooled=False)


def test_a_job_never_opens_a_pool(cpus):
    cpus(2)
    for outer, inner in _pool.run(_inner_pids, None, [0, 1]):
        assert outer != os.getpid()
        assert inner == [outer, outer]
    assert cpus.pools == [2]


def test_only_the_fork_warning_is_silenced(cpus, monkeypatch):
    # Python 3.12+ warns in the parent when a process with threads forks;
    # simulate that warning here, where the suite turns warnings into errors
    import warnings

    def fork_warning():
        warnings.warn(
            f"This process (pid={os.getpid()}) is multi-threaded, use of "
            "fork() may lead to deadlocks in the child.",
            DeprecationWarning, stacklevel=2,
        )

    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            fork_warning()
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    cpus(2)
    assert [r for r, _ in _pool.run(_square_and_pid, (), [2, 3])] == [4, 9]
    assert cpus.pools == [2]
    with pytest.raises(DeprecationWarning, match="use of fork"):
        fork_warning()  # outside the pool the warning stays an error
    # a live Python thread of the caller's may hold a lock the child
    # needs: then the pool's fork warns
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with pytest.warns(DeprecationWarning, match="use of fork"):
            results = _pool.run(_square_and_pid, (), [2, 3])
    finally:
        release.set()
        thread.join()
    assert [r for r, _ in results] == [4, 9]
    assert cpus.pools == [2, 2]
