"""Work shared out over every CPU the process may use, in forked processes.

``shares(fn, items, processes)`` is the one fork path of the package:
``fit`` and ``eval`` prepare their telemetry files through it, ``fit``
fits its front and rear runners through it, and ``tables.write_table``
formats the row chunks of a large table. Inside its ``with`` block it
acts as ``map(fn, items)``: an item that no worker delivered is computed
in-process when the iterator reaches it, so an error is raised on the
calling thread exactly as in serial code.

Workers are made with ``os.fork``. Each writes its results, pickled, to
an unnamed temporary file of its own (its spool) and sends the offset and
size of each through a pipe. So a worker never waits for the caller to
read a result and goes through its whole share while the caller does its
own; through a pipe alone, a result larger than the pipe's buffer would
hold the worker until the caller reached it. A spool holds at most one
worker's share of results. ``multiprocessing`` is not used: its first
fork loads some 20 more modules (``subprocess``, ``socket``, ...), about
0.7 MB of resident memory.

Before its first fork, a process sets every OpenBLAS mapped into it to one
thread, and it keeps one thread from then on. OpenBLAS stops its thread
pool at each fork, and the next BLAS or LAPACK call in the caller or a
worker starts a new pool thread that busy-waits, for about 0.1 s of CPU
after one SVD, before it sleeps. One thread gives the same bytes, and the
package's largest matrix, the 8,004 x 3 Jacobian of a ``fit``, gains no
wall time from more.
"""

from __future__ import annotations

import os
import pickle
import sys
import tempfile
import threading
from contextlib import contextmanager

_LENGTH = 8  # bytes of each of the offset and the size of a result in its spool file
_MISSING = object()  # a result no worker delivered; None is a result like any other
# the thread-count setters of numpy's and scipy's OpenBLAS builds and of a plain one
_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                "openblas_set_num_threads64_", "openblas_set_num_threads")
_modules_seen = 0  # len(sys.modules) when /proc/self/maps was last read


def cpus() -> int:
    """CPUs this process may run on: its affinity set, not the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def shares(fn, items, processes: int):
    """Context manager: an iterator over ``fn(item)`` of ``items``, in input order, as ``map``.

    ``n``, the process count, is the smallest of ``cpus()``, the item count
    and ``processes``. Process k of n computes items k, k + n, k + 2n, ...
    and stops at its first failure. Process 0 is the caller. The iterator
    computes in-process, when it reaches them, the caller's items, the item
    a worker failed on and the rest of that worker's share, and the share
    of a worker that could not start or was lost; so the first failing item
    raises its error on the calling thread, after every earlier result, as
    in a serial loop. Nothing is forked (every item is computed in-process)
    for one item, one CPU, another live Python thread or a platform other
    than Linux. A worker's result is received when the iterator reaches it;
    on leaving the block every worker is terminated if it still runs, and
    waited for.
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
            # That pool is not gone for good: left at its default count, OpenBLAS
            # starts a pool thread again at the next BLAS call of either process,
            # and that thread busy-waits. After this fork in the season
            # benchmark's fit (2-vCPU VM), each fit_lateral used 110-158 ms of CPU
            # for 58-85 ms of wall; with one BLAS thread, CPU equals wall.
            _one_blas_thread()
            for k in range(1, n):
                spool, pipe = None, ()
                try:
                    spool = tempfile.TemporaryFile()
                    pipe = receive, send = os.pipe()
                    pid = os.fork()
                except OSError:  # no file, pipe or process to be had: the items left are the caller's
                    for fd in pipe:
                        os.close(fd)
                    if spool is not None:
                        spool.close()
                    break
                if pid == 0:
                    os.close(receive)
                    _share(send, spool.fileno(), fn, items[k::n])
                os.close(send)
                workers[k] = (pid, open(receive, "rb"), spool)
        yield _results(fn, items, n, workers)
    finally:
        for pid, receive, spool in workers.values():
            receive.close()
            spool.close()
            os.kill(pid, signal.SIGTERM)  # no effect on a worker that has exited
            os.waitpid(pid, 0)


def _one_blas_thread() -> None:
    """Set every OpenBLAS mapped into this process to one thread.

    Reads ``/proc/self/maps`` only when ``sys.modules`` has changed since
    the last read (about 1 ms a read), since a library is loaded by an
    import. The count is never restored: a pool started again would spin
    after the next fork. Does nothing where no OpenBLAS is found.
    """
    global _modules_seen
    if len(sys.modules) == _modules_seen:
        return
    import ctypes

    _modules_seen = len(sys.modules)
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _SET_THREADS:
            set_threads = getattr(lib, name, None)
            if set_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
                break


def _results(fn, items, n: int, workers: dict):
    """``fn`` of each item, in input order: received from its worker, else computed here."""
    for i, item in enumerate(items):
        result = _received(*workers[i % n][1:]) if i % n in workers else _MISSING
        yield fn(item) if result is _MISSING else result


def _received(pipe, spool):
    """The next result in ``spool``, once ``pipe`` tells where it lies; ``_MISSING`` if the worker stopped."""
    place = pipe.read(2 * _LENGTH)
    if len(place) < 2 * _LENGTH:  # the worker stopped at a failure or was lost
        return _MISSING
    offset, size = int.from_bytes(place[:_LENGTH], "little"), int.from_bytes(place[_LENGTH:], "little")
    data = os.pread(spool.fileno(), size, offset)
    return pickle.loads(data) if len(data) == size else _MISSING


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
    finally:  # a failure leaves the item to the caller, who raises its error
        os._exit(0)
