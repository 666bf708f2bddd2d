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


@pytest.fixture()
def ppm_tree(tmp_path):
    """A writer of a directory of ``classes`` class folders, each of
    ``per_class`` P6 images of ``height`` x ``width``, whose pixel bytes
    are fixed by their place; it returns the directory."""

    def write(classes=2, per_class=4, height=3, width=5):
        root = tmp_path / "images"
        for label in range(classes):
            folder = root / f"class{label}"
            folder.mkdir(parents=True)
            for i in range(per_class):
                raster = bytes((59 * label + 17 * i + 5 * j) % 256
                               for j in range(height * width * 3))
                header = f"P6\n{width} {height}\n255\n".encode()
                (folder / f"img{i}.ppm").write_bytes(header + raster)
        return root

    return write
