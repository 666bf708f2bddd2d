"""One batch runner for telkit's independent batches.

``run(fn, jobs, pooled)`` returns ``[fn(job) for job in jobs]``, computed
on a fork pool of one worker per CPU in this process's affinity mask, at
most one per job, or in this process by one serial loop: when ``pooled``
is False, when that is one worker or when it is itself a pool worker
(pools never nest).  ``fn``, a closure over what its batch needs, reaches
the workers through fork, never pickled; each job and each result is.
Results come back in job order, and a job's exception is raised here as
it would be serially: the first failing job's, with its own message.

Every batch whose jobs are exact on their own runs through ``run``, the
one serial loop, each but the tuner's with a work gate of its own as
``pooled``: the tuner's fold fits (``learners.grid``), ``hosvd_factors``'
chunks, ``predict_votes``' voters and the telvi and bagging fit stages
(``ensemble``).  No option selects the pool: ``taskset -c 0`` gives the
serial run.  Python 3.12's warning that a multi-threaded process forks
is hidden only while the caller has no Python thread but its own.

The only parallelism is the pool's.  Importing telkit sets numpy's
bundled OpenBLAS to one thread (``_one_blas_thread``), in the parent, so
every worker inherits it: a BLAS product may round differently on more
threads, and with one thread a result has the same bits whatever the CPU
count.  Where no known setter is found (a numpy built against another
BLAS), nothing is set.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
import warnings
from typing import Callable, Iterable

import numpy as np

# The job function in a pool worker, set by the pool initializer; under
# fork it is inherited, never pickled.  None in a process that is no worker.
_SHARED = None

# The OpenBLAS that numpy's wheels bundle, by the path from numpy's own
# directory, and the (setter, getter) of its thread count, by build.
_BLAS_LIBRARIES = ("../numpy.libs/*openblas*", ".dylibs/*openblas*")
_BLAS_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _one_blas_thread():
    """Set numpy's bundled OpenBLAS to one thread and return its thread
    count getter; None, with nothing set, where no known setter is found.
    ``ctypes`` opens the library numpy already loaded, by the same path."""
    home = os.path.dirname(np.__file__)
    for pattern in _BLAS_LIBRARIES:
        for path in sorted(glob.glob(os.path.join(home, pattern))):
            library = ctypes.CDLL(path)
            for setter, getter in _BLAS_CALLS:
                if hasattr(library, setter):
                    set_threads, get_threads = library[setter], library[getter]
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    set_threads(1)
                    return get_threads
    return None


# Once, at import and in the parent, so every fork worker inherits it.
_BLAS_THREADS = _one_blas_thread()


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the OS cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _share(fn: Callable) -> None:
    global _SHARED
    _SHARED = fn


def _call(job):
    return _SHARED(job)


def run(fn: Callable, jobs: Iterable, pooled: bool = True) -> list:
    """``fn(job)`` for every job, in job order, on a fork pool if
    ``pooled`` (its caller's work gate) and there are two workers or more."""
    jobs = list(jobs)
    workers = min(_cpu_count(), len(jobs)) if pooled else 1
    if workers <= 1 or _SHARED is not None:
        return [fn(job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_share, initargs=(fn,),
    )
    # Python 3.12+ warns when a process with threads forks.  With no
    # Python thread but this one the fork is safe: the pool forks every
    # worker at the first submit, before it starts a thread of its own,
    # and the only other threads are numpy's BLAS workers, idle between
    # calls and reset in the child by the BLAS library's own fork handler.
    # A Python thread of the caller's (a server's, a notebook kernel's) may
    # hold a lock the child needs, so then the warning is shown.
    safe_fork = threading.active_count() == 1
    try:
        with warnings.catch_warnings():
            if safe_fork:
                warnings.filterwarnings(
                    "ignore", r".*use of fork\(\) may lead to deadlocks",
                    DeprecationWarning,
                )
            results = pool.map(_call, jobs)  # submits every job
        return list(results)
    finally:  # after a failed job, the jobs still pending are cancelled
        pool.shutdown(cancel_futures=True)
