"""The one fork protocol: ``map(fn, items)`` in input order, whichever process computed each item.

Process k of n computes the k-th run of consecutive items, the caller the
first. A worker spools its results and sends one byte after its last
item, so neither ``shares`` nor ``stream`` makes a worker wait for the
caller; a worker that sends nothing leaves its whole run to the caller.
"""

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
    if x == 9:
        raise ValueError("nine")
    return os.getpid(), x * x


# expected: the process that computes each of items 0-8, 0 for the caller and k for worker k
@pytest.mark.parametrize("cpus, items, expected", [
    # the caller has 0-3; worker 1 has 4-7; worker 2 has 8-11 and fails at 9, leaving 8-11 to the caller
    (3, 12, [0] * 4 + [1] * 4 + [0]),
    # two CPUs: the caller has 0-4; the worker has 5-9 and fails at 9, leaving 5-9 to the caller
    (2, 10, [0] * 9),
    # one CPU: nothing is forked; the caller computes every item, as map() does
    (1, 12, [0] * 9),
])
def test_results_in_input_order(monkeypatch, forks, cpus, items, expected):
    # item 9 fails in its worker too; the caller computes that run and raises after items 0-8
    monkeypatch.setattr(forked, "cpus", lambda: cpus)
    results = []
    with pytest.raises(ValueError, match="^nine$"):
        with forked.shares(pid_and_square, list(range(items))) as iterator:
            for result in iterator:
                results.append(result)
    pids = [os.getpid(), *forks]
    assert results == [(pids[k], i * i) for i, k in enumerate(expected)]
    assert len(forks) == cpus - 1
    assert reaped(forks)


def test_a_worker_result_of_none_is_not_computed_again(monkeypatch, forks):
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    parent = os.getpid()

    def none_in_a_worker(x: int):
        return "caller" if os.getpid() == parent else None

    with forked.shares(none_in_a_worker, list(range(4))) as results:
        assert list(results) == ["caller", "caller", None, None]
    assert len(forks) == 1 and reaped(forks)


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_no_pipe_or_process_leaves_every_item_to_the_caller(monkeypatch, call):
    # what was made for the worker that could not start is closed again
    monkeypatch.setattr(forked, "cpus", lambda: 2)

    def unavailable(*args):
        raise OSError("Too many open files")

    open_files = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, call, unavailable)
    with forked.shares(square_unless_seven, [1, 2, 3]) as results:
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
        with forked.shares(fail_here_sleep_there, [0, 1, 2, 3]) as results:
            list(results)
    assert time.monotonic() - start < 30.0
    assert len(forks) == 1 and reaped(forks)


def test_a_worker_runs_through_its_share_before_the_caller_reads(tmp_path, monkeypatch, forks):
    # each result is larger than a pipe's buffer, yet the worker does not wait for the
    # caller to read one before it computes the next; its run is items 3-5
    monkeypatch.setattr(forked, "cpus", lambda: 2)

    def large(i: int) -> str:
        (tmp_path / str(i)).touch()
        return str(i) * 1_000_000

    with forked.shares(large, list(range(6))) as results:
        deadline = time.monotonic() + 30.0
        while not (tmp_path / "5").exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["3", "4", "5"]
        assert list(results) == [str(i) * 1_000_000 for i in range(6)]
    assert len(forks) == 1 and reaped(forks)


def test_a_worker_run_of_more_places_than_a_pipe_holds(monkeypatch, forks):
    # the worker's run of 5,000 results is delivered whole: telling where each lies, at
    # 16 bytes a result, would take 80,000 bytes, more than a 64 KiB pipe holds
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    items = list(range(10_000))
    with forked.shares(str, items) as results:
        assert list(results) == list(map(str, items))
    assert len(forks) == 1 and reaped(forks)


@pytest.mark.parametrize("fault", ["exits", "unpicklable"])
def test_a_worker_that_spooled_part_of_its_run_leaves_it_all_to_the_caller(monkeypatch, forks, fault):
    # the worker's run is items 2-3: it spools item 2, then at item 3 exits without a word
    # or returns a lambda, which it cannot pickle
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    parent = os.getpid()

    def pid_and_item(x: int):
        if x == 3 and os.getpid() != parent:
            if fault == "exits":
                os._exit(1)
            return lambda: x
        return os.getpid(), x

    items = list(range(4))
    with forked.shares(pid_and_item, items) as results:
        assert list(results) == list(map(pid_and_item, items))
    assert len(forks) == 1 and reaped(forks)


def native_threads() -> int:
    return len(os.listdir("/proc/self/task"))


def openblas_mapped() -> bool:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        return any("openblas" in line and ".so" in line for line in fh)


def test_a_fork_leaves_one_blas_thread(monkeypatch, forks):
    # OpenBLAS stops its pool at a fork and, left at its default count, starts
    # a pool thread at the next LAPACK call, which busy-waits before it sleeps
    if not (sys.platform.startswith("linux") and openblas_mapped()):
        pytest.skip("no OpenBLAS mapped into this process")
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    matrix = np.random.default_rng(0).standard_normal((8007, 3))
    np.linalg.svd(matrix, full_matrices=False)
    with forked.shares(square_unless_seven, [1, 2]) as results:
        assert list(results) == [1, 4]
    threads = native_threads()
    for _ in range(20):
        np.linalg.svd(matrix, full_matrices=False)
    assert native_threads() <= threads
    assert len(forks) == 1 and reaped(forks)

    # nothing was imported since: a second fork reads no /proc file
    opened, real_open = [], builtins.open

    def recorded_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recorded_open)
    with forked.shares(square_unless_seven, [1, 2]) as results:
        assert list(results) == [1, 4]
    assert len(forks) == 2 and reaped(forks)
    assert opened and not [f for f in opened if str(f).startswith("/proc")]


def pid_and_sum_unless_three(k: int, block) -> tuple:
    if k == 3:
        raise ValueError("three")
    return os.getpid(), k, float(block.sum())


def blocks(n: int) -> list:
    return [np.arange(6.0 * k, 6.0 * k + 6 * (k + 1)).reshape(k + 1, 6) for k in range(n)]


@pytest.mark.parametrize("cpus", [2, 1])
def test_stream_results_in_order(monkeypatch, forks, cpus):
    # block 3 fails in the worker too; the caller computes every block and raises after blocks 0-2
    monkeypatch.setattr(forked, "cpus", lambda: cpus)
    results = []
    with pytest.raises(ValueError, match="^three$"):
        with forked.stream(pid_and_sum_unless_three) as stream:
            for block in blocks(6):
                stream.send(block)
            for result in stream.results():
                results.append(result)
    assert results == [(os.getpid(), k, float(block.sum())) for k, block in enumerate(blocks(3))]
    assert len(forks) == cpus - 1 and reaped(forks)


def test_stream_of_more_places_than_a_pipe_holds(monkeypatch, forks):
    # 8,192 block places of 24 bytes fill the caller's pipe thrice over, and the worker's
    # run of 8,192 results is delivered whole: had the worker sent anything but its one
    # byte as it went, it could wait for the caller to read and the caller for it to read
    # the blocks; an alarm turns such a hang into a failure
    import signal

    monkeypatch.setattr(forked, "cpus", lambda: 2)

    def hung(signum, frame):
        raise TimeoutError("the stream did not end within 30 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with forked.stream(lambda k, block: (k, float(block[0, 0]))) as stream:
            for k in range(8192):
                stream.send(np.full((1, 1), k))
            assert list(stream.results()) == [(k, float(k)) for k in range(8192)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) == 1 and reaped(forks)


def test_stream_blocks_of_a_lost_worker_are_computed_here(monkeypatch, forks):
    # the worker is lost at block 1, after it spooled block 0's result; the caller's
    # sends to it after that fail quietly, and the caller computes every block
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    parent = os.getpid()

    def sum_or_exit(k: int, block) -> tuple:
        if k == 1 and os.getpid() != parent:
            os._exit(1)
        return os.getpid(), float(block.sum())

    open_files = len(os.listdir("/proc/self/fd"))
    with forked.stream(sum_or_exit) as stream:
        for block in blocks(5):
            stream.send(block)
            time.sleep(0.05)
        assert list(stream.results()) == [(parent, float(b.sum())) for b in blocks(5)]
    assert len(os.listdir("/proc/self/fd")) == open_files
    assert len(forks) == 1 and reaped(forks)


def test_stream_worker_ignores_an_interrupt(monkeypatch, forks):
    import signal

    monkeypatch.setattr(forked, "cpus", lambda: 2)
    parent = os.getpid()

    def interrupted(k: int, block) -> int:
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGINT)
        return os.getpid()

    with forked.stream(interrupted) as stream:
        stream.send(np.zeros((2, 3)))
        assert list(stream.results()) == forks
    assert reaped(forks)


def test_a_failure_of_the_caller_stops_the_stream_worker(monkeypatch, forks):
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    open_files = len(os.listdir("/proc/self/fd"))
    start = time.monotonic()
    with pytest.raises(ValueError, match="^caller$"):
        with forked.stream(lambda k, block: time.sleep(60.0)) as stream:
            stream.send(np.zeros((2, 3)))
            raise ValueError("caller")
    assert time.monotonic() - start < 30.0
    assert len(os.listdir("/proc/self/fd")) == open_files
    assert len(forks) == 1 and reaped(forks)


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_no_pipe_or_process_leaves_every_block_to_the_caller(monkeypatch, call):
    monkeypatch.setattr(forked, "cpus", lambda: 2)

    def unavailable(*args):
        raise OSError("Too many open files")

    open_files = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, call, unavailable)
    with forked.stream(lambda k, block: (os.getpid(), block.shape)) as stream:
        assert len(os.listdir("/proc/self/fd")) == open_files + 1  # the file of the blocks sent
        for block in blocks(2):
            stream.send(block)
        assert list(stream.results()) == [(os.getpid(), (1, 6)), (os.getpid(), (2, 6))]
    assert len(os.listdir("/proc/self/fd")) == open_files
