"""Work shared out over every CPU the process may use, in forked processes.

The package forks through two context managers here, and nowhere else.
``shares(fn, items)`` splits a known list: ``fit`` and ``eval`` prepare
their telemetry files through it, and ``fit`` fits its front and rear
runners through it. Inside its ``with`` block it acts as
``map(fn, items)``: a run of items that no worker delivered whole is
computed in-process when the iterator reaches it, so an error is raised
on the calling thread exactly as in serial code. ``stream(fn)`` is its
counterpart for items that do not exist yet: ``simulate`` hands it each
block of logged rows while it integrates, and one worker formats each
block's ``truth.csv`` rows and, in a run that reaches ``t_max``, most
of its ``telemetry.csv`` rows meanwhile. It keeps the same contract:
results in order, every block computed in-process if the worker did not
deliver them all, nothing forked where ``shares`` forks nothing.

Both run one protocol. Workers are made with ``os.fork``, and each
computes a run of consecutive items (``_work``). It writes each result
to an unnamed temporary file of its own (its spool), which holds at most
its run, as an 8-byte size followed by the pickle, and sends one byte
through a pipe after its last item. A worker that sends nothing (an item
failed, a write failed, or it was lost) leaves its whole run to the
caller. So a worker never waits for the caller while it computes, and
the caller of ``stream`` may send every block before it reads a result.
``_results`` gives the results in order.
``multiprocessing`` is not used: its first fork loads some 20 more
modules (``subprocess``, ``socket``, ...), about 0.7 MB of resident memory.

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
import struct
import sys
import tempfile
import threading
from contextlib import contextmanager

import numpy as np

_SIZE = struct.Struct("<Q")  # the size of the pickle that follows it in a worker's spool
_BLOCK = struct.Struct("<QQQ")  # where a block sent to a stream lies in its file: offset, rows, columns
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
def shares(fn, items):
    """Context manager: an iterator over ``fn(item)`` of ``items``, in input order, as ``map``.

    ``n``, the process count, is the smaller of ``cpus()`` and the item
    count. ``items`` is cut into n runs of consecutive items,
    the earlier ones one longer where n does not divide the count, and
    process k computes run k. Process 0 is the caller: the iterator
    computes its run, then gives each worker's results, and computes
    in-process the whole run of a worker that failed on an item, could not
    start or was lost; so the first failing item raises its error on the
    calling thread, after every earlier result, as in a serial loop.
    Nothing is forked for one item, one CPU, another live Python thread or
    a platform other than Linux. On leaving the block every worker is
    terminated if it still runs, and waited for.
    """
    n = max(1, min(len(items), cpus()))
    bounds = [-(-k * len(items) // n) for k in range(n + 1)]
    runs = [items[start:end] for start, end in zip(bounds, bounds[1:])]
    workers: dict = {}  # k -> (pid, receiving end of its pipe, its spool file)
    try:
        if _may_fork(n):
            for k in range(1, n):
                worker = _fork(fn, runs[k])
                if worker is None:  # no file, pipe or process to be had: the runs left are the caller's
                    break
                workers[k] = worker
        yield _results(fn, runs, workers)
    finally:
        for worker in workers.values():
            _stop(*worker)


@contextmanager
def stream(fn):
    """Context manager: a ``Stream`` that hands each block it is sent to one forked worker.

    ``fn(k, block)`` is applied to block k, a 2-D float64 array, in a worker
    forked on entry while the caller goes on; ``Stream.results()`` gives
    them in order. Each block is written to an unnamed temporary file that
    the worker reads too, so the caller keeps no copy in memory; the pipe
    to the worker carries only where each block lies. If the worker did
    not deliver every block (it failed on one, or was lost), each block is
    read back and computed in-process as ``results()`` reaches it, so an
    error is raised on the calling thread. Nothing is forked,
    and ``results()`` computes every block, on one CPU, with another live
    Python thread or on a platform other than Linux. On leaving the block
    the worker is terminated if it still runs and waited for, and every
    file either process used is closed.
    """
    with tempfile.TemporaryFile() as sent:
        blocks = Stream(fn, sent.fileno())
        try:
            if _may_fork(cpus()):
                try:
                    receive, send = os.pipe()
                except OSError:  # no pipe to be had: every block is the caller's
                    pass
                else:
                    blocks.worker = _fork(blocks._compute, _places(receive, send))
                    os.close(receive)
                    if blocks.worker is None:
                        os.close(send)
                    else:
                        blocks.send_fd = send
            yield blocks
        finally:
            blocks.close()


class Stream:
    """The caller's side of ``stream``: where each block sent lies, and the worker that reads them, if any."""

    def __init__(self, fn, sent: int):
        self.fn = fn
        self.sent = sent  # the file of every block sent, one after the other, as raw float64
        self.places: list = []  # (k, offset, rows, columns) of each block k in that file
        self.size = 0  # bytes written to it
        self.worker = None  # (pid, receiving end of its pipe, its spool file)
        self.send_fd = None  # the pipe that tells the worker where each block lies, until the last one

    def send(self, block) -> None:
        """Hand ``block`` (a 2-D float array, read only during this call) on as the next block."""
        block = np.ascontiguousarray(block, dtype=float)
        place = (self.size, *block.shape)
        _pwrite_all(self.sent, block, self.size)
        self.size += block.nbytes
        self.places.append((len(self.places), *place))
        if self.send_fd is not None:
            try:  # one write of 24 bytes, at most PIPE_BUF: the worker reads it whole
                os.write(self.send_fd, _BLOCK.pack(*place))
            except BrokenPipeError:  # the worker was lost: the blocks left are the caller's
                self._end_of_blocks()

    def results(self):
        """``fn(k, block)`` of each block sent, in order: the worker's if it delivered all, else computed here."""
        self._end_of_blocks()
        return _results(self._compute, [self.places], {} if self.worker is None else {0: self.worker})

    def _compute(self, place):
        """``fn(k, block)`` of the block that ``place``, (k, offset, rows, columns), names."""
        k, offset, rows, columns = place
        block = np.frombuffer(os.pread(self.sent, 8 * rows * columns, offset), dtype=float)
        return self.fn(k, block.reshape(rows, columns))

    def close(self) -> None:
        self._end_of_blocks()
        if self.worker is not None:
            _stop(*self.worker)
            self.worker = None

    def _end_of_blocks(self) -> None:
        if self.send_fd is not None:
            os.close(self.send_fd)
            self.send_fd = None


def _may_fork(n: int) -> bool:
    """Whether to fork for ``n`` processes; if so, the process keeps one OpenBLAS thread from now on.

    Forking is safe here: no other Python thread is alive (checked), and
    the atfork handler of OpenBLAS stops its pool, so the parent has 3
    native threads before the fork and 1 right after it. That pool is not
    gone for good: left at its default count, OpenBLAS starts a pool thread
    again at the next BLAS call of either process, and that thread
    busy-waits. After a fork in the season benchmark's fit (2-vCPU VM),
    each fit_lateral used 110-158 ms of CPU for 58-85 ms of wall; with one
    BLAS thread, CPU equals wall.
    """
    # fork, not spawn: preparing the 8 runs of the season benchmark (seed 1)
    # on a 2-vCPU VM took 0.40 s serially and 0.30 s forked (median of 9),
    # but 1.81 s with spawn and 1.63 s with forkserver (median of 5, when
    # the filter still loaded scipy.signal), because each such worker
    # imports numpy and sleddyn again
    if n > 1 and sys.platform.startswith("linux") and threading.active_count() == 1:
        _one_blas_thread()
        return True
    return False


def _fork(fn, items):
    """(pid, receiving end of its pipe, spool file) of a worker running ``_work`` over ``items``.

    None, with what was made for it closed again, when no file, pipe or
    process is to be had.
    """
    spool, pipe = None, ()
    try:
        spool = tempfile.TemporaryFile()
        pipe = receive, send = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in pipe:
            os.close(fd)
        if spool is not None:
            spool.close()
        return None
    if pid == 0:
        os.close(receive)
        _work(send, spool.fileno(), fn, items)
    os.close(send)
    return pid, open(receive, "rb"), spool


def _stop(pid: int, receive, spool) -> None:
    """Close a worker's pipe and spool, terminate it if it still runs, and wait for it."""
    import signal

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


def _results(fn, runs, workers: dict):
    """``fn`` of each item of each run, in order: the worker's if it said it is done, else computed here.

    A run is read as soon as its worker's byte arrives, not after its exit.
    """
    for k, run in enumerate(runs):
        if k in workers and workers[k][1].read(1):
            spool, offset = workers[k][2].fileno(), 0
            for _ in run:
                (size,) = _SIZE.unpack(os.pread(spool, _SIZE.size, offset))
                yield pickle.loads(os.pread(spool, size, offset + _SIZE.size))
                offset += _SIZE.size + size
        else:
            yield from map(fn, run)


def _work(send: int, spool: int, fn, items) -> None:
    """Worker body: ``fn`` of each item, spooled as it is done, then one byte to ``send``; never returns.

    Nothing is sent when an item or a write fails, which leaves the whole
    run to the caller.
    """
    import signal

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's, who stops the workers
        offset = 0
        for item in items:
            data = pickle.dumps(fn(item), pickle.HIGHEST_PROTOCOL)
            _pwrite_all(spool, _SIZE.pack(len(data)), offset)
            _pwrite_all(spool, data, offset + _SIZE.size)
            offset += _SIZE.size + len(data)
        os.write(send, b"\0")
    finally:
        os._exit(0)


def _places(receive: int, caller_send: int):
    """The stream worker's items: (k, offset, rows, columns) of each block k, as read from ``receive``."""
    os.close(caller_send)  # so that the pipe ends when the caller closes its end after the last block
    with open(receive, "rb") as pipe:
        for k, place in enumerate(iter(lambda: pipe.read(_BLOCK.size), b"")):
            yield k, *_BLOCK.unpack(place)


def _pwrite_all(fd: int, data, offset: int) -> None:
    """Write all of ``data`` (bytes or a contiguous array) to the file ``fd`` from ``offset`` on."""
    view = memoryview(data).cast("B")
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written
