"""Machine-speed calibration: a fixed job timed between the benchmark's samples.

The shared VMs this benchmark runs on change speed by 20 % and more in
phases that last minutes, longer than one run; the slowdown shows in
CPU time as well as wall time, so it is slower execution, not waiting.
A run's raw times therefore mostly say which phase it landed in. Each
run also times ``job`` (about 35 ms of the same kinds of work the
program does: interpreted arithmetic and dictionaries, number
formatting and parsing as in CSV I/O, many small numpy calls and a few
large-array passes) between its samples, and reports its times scaled
to a machine on which ``job`` takes ``REFERENCE_S``. Each sample (a
pass, or one set-up interpreter) is scaled by the calibration jobs
timed next to it:

    reported = measured * REFERENCE_S / mean(job times next to the sample)

and the run reports the median of the scaled samples. The mean, not
the median, of the job times: the program's operations last long enough
to average over the machine's short slow bursts, and so does the mean.

The job never calls sleddyn, so a change to the program moves the
reported times and leaves the scale alone. The raw times and the
calibration samples are kept in the results file.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.035     # job time that defines the reported seconds (median on a 2-vCPU Xeon VM)
CHECKSUM = 150770.40689171135   # job's result; a different value means different work


def job() -> float:
    acc = 0.0
    table = {}
    for i in range(30000):
        x = i * 0.5
        acc += x * x % 7.0
        table[i & 255] = acc
    rows = [",".join(repr(i * 0.001 + j) for j in range(8)) for i in range(2000)]
    total = sum(float(v) for row in rows for v in row.split(","))
    a = np.arange(16.0)
    for _ in range(1500):
        a = np.sin(a) * 0.5 + 1.0
    b = np.linspace(0.0, 1.0, 200_000)
    for _ in range(10):
        b = np.cumsum(b) * 1e-5
    return acc + total + float(a.sum()) + float(b.sum())


def sample() -> float:
    """Wall time of one ``job``."""
    start = time.perf_counter()
    result = job()
    elapsed = time.perf_counter() - start
    if abs(result - CHECKSUM) > 1e-6 * abs(CHECKSUM):
        raise RuntimeError(f"calibration job returned {result!r}, expected {CHECKSUM!r}")
    return elapsed


def scaled(seconds: float, calibration) -> float:
    """``seconds`` measured next to the ``calibration`` job times, in reference seconds."""
    return seconds * REFERENCE_S / statistics.fmean(calibration)
