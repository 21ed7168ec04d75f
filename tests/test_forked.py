"""The one fork path: ``map(fn, items)`` in input order, whichever process computed each item."""

import builtins
import os
import sys
import time

import numpy as np
import pytest

from conftest import reaped

from sleddyn import forked


def square_unless_seven(x: int) -> int:
    if x == 7:
        raise ValueError("seven")
    return x * x


def pid_and_square(x: int) -> tuple:
    return os.getpid(), square_unless_seven(x)


# expected: the process that computes each of items 0-6, 0 for the caller and k for worker k
@pytest.mark.parametrize("cpus, processes, expected", [
    # worker 1 has 1, 4, 7, 10 and stops at 7; worker 2 has 2, 5, 8, 11; the caller 0, 3, 6, 9
    (3, 12, [0, 1, 2, 0, 1, 2, 0]),
    # capped at two processes: the worker has the odd items and stops at 7
    (3, 2, [0, 1, 0, 1, 0, 1, 0]),
    # one CPU: nothing is forked; the caller computes every item, as map() does
    (1, 12, [0] * 7),
])
def test_results_in_input_order(monkeypatch, forks, cpus, processes, expected):
    # item 7 fails in its worker too; the caller computes it and raises after items 0-6
    monkeypatch.setattr(forked, "cpus", lambda: cpus)
    results = []
    with pytest.raises(ValueError, match="^seven$"):
        with forked.shares(pid_and_square, list(range(12)), processes) as iterator:
            for result in iterator:
                results.append(result)
    pids = [os.getpid(), *forks]
    assert results == [(pids[k], i * i) for i, k in enumerate(expected)]
    assert len(forks) == min(cpus, processes) - 1
    assert reaped(forks)


def test_a_worker_result_of_none_is_not_computed_again(monkeypatch, forks):
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    parent = os.getpid()

    def none_in_a_worker(x: int):
        return "caller" if os.getpid() == parent else None

    with forked.shares(none_in_a_worker, list(range(4)), 2) as results:
        assert list(results) == ["caller", None, "caller", None]
    assert len(forks) == 1 and reaped(forks)


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_no_pipe_or_process_leaves_every_item_to_the_caller(monkeypatch, call):
    # what was made for the worker that could not start is closed again
    monkeypatch.setattr(forked, "cpus", lambda: 2)

    def unavailable(*args):
        raise OSError("Too many open files")

    open_files = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, call, unavailable)
    with forked.shares(square_unless_seven, [1, 2, 3], 2) as results:
        assert len(os.listdir("/proc/self/fd")) == open_files
        assert list(results) == [1, 4, 9]


def test_a_failure_of_the_caller_stops_a_busy_worker(monkeypatch, forks):
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    parent = os.getpid()

    def fail_here_sleep_there(x: int) -> int:
        if os.getpid() == parent:
            raise ValueError("caller")
        time.sleep(60.0)
        return x

    start = time.monotonic()
    with pytest.raises(ValueError, match="^caller$"):
        with forked.shares(fail_here_sleep_there, [0, 1, 2, 3], 2) as results:
            list(results)
    assert time.monotonic() - start < 30.0
    assert len(forks) == 1 and reaped(forks)


def test_a_worker_runs_through_its_share_before_the_caller_reads(tmp_path, monkeypatch, forks):
    # each result is larger than a pipe's buffer, yet the worker does not wait for the
    # caller to read one before it computes the next
    monkeypatch.setattr(forked, "cpus", lambda: 2)

    def large(i: int) -> str:
        (tmp_path / str(i)).touch()
        return str(i) * 1_000_000

    with forked.shares(large, list(range(6)), 2) as results:
        deadline = time.monotonic() + 30.0
        while not (tmp_path / "5").exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["1", "3", "5"]
        assert list(results) == [str(i) * 1_000_000 for i in range(6)]
    assert len(forks) == 1 and reaped(forks)


def native_threads() -> int:
    return len(os.listdir("/proc/self/task"))


def openblas_mapped() -> bool:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        return any("openblas" in line and ".so" in line for line in fh)


def test_a_fork_leaves_one_blas_thread(monkeypatch, forks):
    # OpenBLAS stops its pool at a fork and, left at its default count, starts
    # a pool thread at the next LAPACK call, which busy-waits before it sleeps
    scipy_linalg = pytest.importorskip("scipy.linalg")
    if not (sys.platform.startswith("linux") and openblas_mapped()):
        pytest.skip("no OpenBLAS mapped into this process")
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    matrix = np.random.default_rng(0).standard_normal((8007, 3))
    scipy_linalg.svd(matrix, full_matrices=False)
    with forked.shares(square_unless_seven, [1, 2], 2) as results:
        assert list(results) == [1, 4]
    threads = native_threads()
    for _ in range(20):
        scipy_linalg.svd(matrix, full_matrices=False)
    assert native_threads() <= threads
    assert len(forks) == 1 and reaped(forks)

    # nothing was imported since: a second fork reads no /proc file
    opened, real_open = [], builtins.open

    def recorded_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recorded_open)
    with forked.shares(square_unless_seven, [1, 2], 2) as results:
        assert list(results) == [1, 4]
    assert len(forks) == 2 and reaped(forks)
    assert opened and not [f for f in opened if str(f).startswith("/proc")]
