"""Work shared out over every CPU the process may use, in forked processes.

``shares(fn, items, processes)`` is the one fork path of the package:
``fit`` and ``eval`` prepare their telemetry files through it, and
``tables.write_table`` formats the row chunks of a large table. Each
result it gives back as None is the caller's to compute in-process, so
an error is raised there exactly as in serial code.

Workers are made with ``os.fork``. Each writes its results, pickled, to
an unnamed temporary file of its own (its spool) and sends the offset and
size of each through a pipe. So a worker never waits for the caller to
read a result and goes through its whole share while the caller does its
own; through a pipe alone, a result larger than the pipe's buffer would
hold the worker until the caller reached it. A spool holds at most one
worker's share of results. ``multiprocessing`` is not used: its first
fork loads some 20 more modules (``subprocess``, ``socket``, ...), about
0.7 MB of resident memory.
"""

from __future__ import annotations

import os
import pickle
import sys
import tempfile
import threading
from contextlib import contextmanager

_LENGTH = 8  # bytes of each of the offset and the size of a result in its spool file


def cpus() -> int:
    """CPUs this process may run on: its affinity set, not the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def shares(fn, items, processes: int):
    """Context manager: an iterator over ``fn(item)`` of ``items``, in input order.

    ``n``, the process count, is the smallest of ``cpus()``, the item count
    and ``processes``. Process k of n computes items k, k + n, k + 2n, ...
    and stops at its first failure. Process 0 is the caller: the iterator
    gives None for its items, and for an item that failed or whose worker
    could not start or was lost, and the caller computes those in-process,
    stopping at its first failure as serial code would. Nothing is forked
    (every result is None) for one item, one CPU, another live Python
    thread or a platform other than Linux. A worker's result is received
    when the iterator reaches it, on the calling thread; on leaving the
    block every worker is terminated if it still runs, and waited for.
    """
    n = min(len(items), cpus(), processes)
    workers: dict = {}  # k -> (pid, receiving end of its pipe, its spool file)
    try:
        if n > 1 and sys.platform.startswith("linux") and threading.active_count() == 1:
            import signal  # loaded only when a fork happens

            # fork, not spawn: preparing the 8 runs of the season benchmark (seed 1)
            # on a 2-vCPU VM took 0.40 s serially and 0.30 s forked (median of 9),
            # but 1.81 s with spawn and 1.63 s with forkserver (median of 5),
            # because each such worker imports numpy, scipy.signal and sleddyn
            # again. Forking is safe here: no other Python thread is alive (checked
            # above), and the atfork handler of OpenBLAS stops its pool, so the
            # parent has 3 native threads before os.fork() and 1 right after it.
            for k in range(1, n):
                try:
                    spool = tempfile.TemporaryFile()
                except OSError:  # no file to be had: the items left are the caller's
                    break
                receive, send = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # no process to be had: the items left are the caller's
                    os.close(receive)
                    os.close(send)
                    spool.close()
                    break
                if pid == 0:
                    os.close(receive)
                    _share(send, spool.fileno(), fn, items[k::n])
                os.close(send)
                workers[k] = (pid, open(receive, "rb"), spool)
        yield _results(len(items), n, workers)
    finally:
        for pid, receive, spool in workers.values():
            receive.close()
            spool.close()
            os.kill(pid, signal.SIGTERM)  # no effect on a worker that has exited
            os.waitpid(pid, 0)


def _results(count: int, n: int, workers: dict):
    """Each item's result from its worker, in input order; None where there is none."""
    for i in range(count):
        yield _received(*workers[i % n][1:]) if i % n in workers else None


def _received(pipe, spool):
    """The next result in ``spool``, once ``pipe`` tells where it lies; None if the worker stopped first."""
    place = pipe.read(2 * _LENGTH)
    if len(place) < 2 * _LENGTH:  # the worker stopped at a failure or was lost
        return None
    offset, size = int.from_bytes(place[:_LENGTH], "little"), int.from_bytes(place[_LENGTH:], "little")
    data = os.pread(spool.fileno(), size, offset)
    return pickle.loads(data) if len(data) == size else None


def _share(send: int, spool: int, fn, items) -> None:
    """Worker body: ``fn`` of each item up to the first that fails, each sent as it is done; never returns."""
    try:
        import signal

        # an interrupt is the caller's to handle; it terminates the workers
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        offset = 0
        for item in items:
            data = pickle.dumps(fn(item), pickle.HIGHEST_PROTOCOL)
            if os.pwrite(spool, data, offset) != len(data):
                break
            os.write(send, offset.to_bytes(_LENGTH, "little") + len(data).to_bytes(_LENGTH, "little"))
            offset += len(data)
    finally:  # a failure leaves the item to the caller, who reports its error
        os._exit(0)
