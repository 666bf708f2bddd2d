"""Shared fixtures."""

import concurrent.futures

import pytest

from telkit import _pool


class CpuPin:
    """Pin the CPU count ``telkit._pool`` reads and record the size of
    each process pool it opens.

    A count above the CPUs this process may use is skipped, so a test
    never starts more worker processes than there are cores.
    """

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.available = _pool._cpu_count()
        self.pools: list[int] = []
        pools = self.pools

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)

    def __call__(self, count: int) -> None:
        if count > self.available:
            pytest.skip(f"needs {count} CPUs, {self.available} available")
        self.monkeypatch.setattr(_pool, "_cpu_count", lambda: count)

    def forbid_pools(self) -> None:
        """Make building a process pool fail the test."""

        def forbidden(*args, **kwargs):
            raise AssertionError("a process pool was built")

        self.monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)


@pytest.fixture
def cpus(monkeypatch):
    return CpuPin(monkeypatch)
