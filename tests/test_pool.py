"""The fork pool: job order, the first failing job's error, no nesting,
and one BLAS thread in the parent and in every worker."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import telkit
from telkit import _pool


def _square_and_pid(job, failing=()):
    if job in failing:
        raise ValueError(f"job {job} failed")
    return job * job, os.getpid()


def _inner_pids(job):
    """The pids the jobs of a pool run inside this job ran in."""
    return os.getpid(), [pid for _, pid in _pool.run(_square_and_pid, [1, 2])]


@pytest.mark.parametrize("count", [1, 2])
def test_results_come_back_in_job_order(cpus, count):
    cpus(count)
    results = _pool.run(_square_and_pid, range(7))
    assert [square for square, _ in results] == [j * j for j in range(7)]
    pids = {pid for _, pid in results}
    assert (pids == {os.getpid()}) == (count == 1)
    assert cpus.pools == ([] if count == 1 else [2])


@pytest.mark.parametrize("count", [1, 2])
def test_first_failing_job_raises_its_own_error(cpus, count):
    cpus(count)
    with pytest.raises(ValueError, match="^job 3 failed$"):
        _pool.run(lambda job: _square_and_pid(job, {3, 5}), range(7))


def test_no_pool_for_one_job(cpus):
    cpus(2)
    cpus.forbid_pools()
    assert _pool.run(_square_and_pid, [4]) == [(16, os.getpid())]


def test_no_pool_when_the_caller_does_not_pool(cpus):
    cpus(2)
    cpus.forbid_pools()
    results = _pool.run(_square_and_pid, range(5), pooled=False)
    assert results == [(j * j, os.getpid()) for j in range(5)]
    with pytest.raises(ValueError, match="^job 3 failed$"):
        _pool.run(lambda job: _square_and_pid(job, {3, 4}), range(5),
                  pooled=False)


def test_a_closure_over_an_unpicklable_object_runs_pooled(cpus):
    # the job function reaches the workers through fork, never pickled:
    # only its jobs and results cross the pipe
    lock = threading.Lock()

    def locked_square(job):
        with lock:
            return job * job, os.getpid()

    serial = [square for square, _ in _pool.run(locked_square, range(5), False)]
    cpus(2)
    results = _pool.run(locked_square, range(5))
    assert [square for square, _ in results] == serial == [j * j for j in range(5)]
    assert os.getpid() not in {pid for _, pid in results}
    assert cpus.pools == [2]


def test_a_job_never_opens_a_pool(cpus):
    cpus(2)
    for outer, inner in _pool.run(_inner_pids, [0, 1]):
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
    assert [r for r, _ in _pool.run(_square_and_pid, [2, 3])] == [4, 9]
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
            results = _pool.run(_square_and_pid, [2, 3])
    finally:
        release.set()
        thread.join()
    assert [r for r, _ in results] == [4, 9]
    assert cpus.pools == [2, 2]


def _blas_threads(job):
    return os.getpid(), _pool._BLAS_THREADS()


@pytest.mark.skipif(_pool._BLAS_THREADS is None,
                    reason="no known thread setter for numpy's BLAS")
def test_one_blas_thread_in_the_parent_and_in_every_worker(cpus):
    cpus(2)
    assert _pool._BLAS_THREADS() == 1
    results = _pool.run(_blas_threads, [0, 1])
    assert [threads for _, threads in results] == [1, 1]
    assert os.getpid() not in [pid for pid, _ in results]
    assert cpus.pools == [2]


# A bagging svm config whose model file had other bytes at two BLAS
# threads than at one: PCA's products round by the thread count.
BLAS_CONFIG = {
    "dataset": {"synthetic": {"shape": [16, 16, 3], "classes": 4, "rank": [2, 2, 1],
                              "samples_per_class": 100, "noise_std": 0.05, "seed": 7}},
    "method": "bagging", "pca_dim": 64, "n_estimators": 2, "train_fraction": 0.75,
    "base_grid": [{"kind": "svm", "hyperparameters": {"kernel": "rbf", "C": 1.0}}],
    "cv_folds": 2, "seed": 7,
}

# Trains BLAS_CONFIG in a new process, on its first CPU only if asked:
# OpenBLAS sizes its thread pool from the CPUs it may use when it loads.
TRAIN = """
import json, os, sys
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from telkit.experiment import ExperimentConfig, load_dataset, train_model
from telkit.model_io import save_model
config = ExperimentConfig.from_dict(json.loads(sys.argv[2]))
save_model(train_model(config, load_dataset(config))[0], sys.argv[3])
"""


@pytest.mark.skipif(_pool._cpu_count() < 2, reason="needs 2 CPUs")
def test_model_bytes_are_the_same_at_one_cpu_and_at_all(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(telkit.__file__).parents[1]))
    models = []
    for cpus in ("one-cpu", "all-cpus"):
        path = tmp_path / f"{cpus}.json"
        subprocess.run([sys.executable, "-c", TRAIN, cpus, json.dumps(BLAS_CONFIG),
                        str(path)], check=True, env=env)
        models.append(path.read_bytes())
    assert models[0] == models[1]
