"""One reader and one writer for the package's float tables.

Telemetry, force-trace, glide-run and result CSVs share one layout:
leading ``#`` comment lines (free text or ``key = value`` metadata), a
header line naming the columns, then comma-separated float rows. The
comments and the header are read line by line; the body goes from the
open file straight to ``np.loadtxt``, so the file is never held in
memory as text.

When ``loadtxt`` rejects the body, the file is scanned once more only to
name the first bad line in the ``DataError``; that scan returns no data.

Every cell is written as ``repr(float)``. The rows of a large table are
formatted in chunks shared out over forked processes (``forked.shares``);
only the calling process opens and writes the file, so the bytes are
those of one process.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import forked
from .errors import DataError, reading

# a table with at least this many cells per process is formatted on several CPUs:
# on a 2-vCPU VM (Python 3.11) 20,000 cells take 17-20 ms to format, and a fork
# round trip from a 50 MB process takes about 4 ms
CELLS_PER_PROCESS = 20_000


@dataclass(frozen=True)
class Table:
    """Leading comments (``#`` stripped), header names, and the float body.

    ``data`` has one row per data line and one column per requested
    column, in the requested order. ``header_line`` is the 1-based file
    line of the header.
    """

    comments: list[str]
    header: list[str]
    data: np.ndarray
    header_line: int


def read_table(path, columns=None) -> Table:
    """Read a ``# comments + header + float columns`` file.

    ``columns`` names the header columns to return (all when None).
    When every header column is read, each row must have exactly as many
    fields as the header; otherwise unrequested columns are skipped
    unparsed. Raises DataError naming the file line for a missing
    header or column, an unparsable cell or a ragged row, and when the
    body has no data rows; a file that is not UTF-8 is a DataError too.
    """
    with reading(path), open(path, encoding="utf-8") as fh:
        comments: list[str] = []
        header = None
        lineno = 0
        while header is None:
            line = fh.readline()
            if not line:
                raise DataError(f"{path}: no header line")
            lineno += 1
            text = line.strip()
            if text.startswith("#"):
                comments.append(text.lstrip("#").strip())
            elif text:
                header = next(csv.reader([text]))
        width = len(header)
        names = header if columns is None else list(columns)
        missing = [c for c in names if c not in header]
        if missing:
            raise DataError(f"{path}: missing mapped columns: {', '.join(sorted(missing))}")
        idx = [header.index(c) for c in names]
        every = sorted(idx) == list(range(width))
        # loadtxt warns rather than fails on an empty body: look for a data line first
        while True:
            start = fh.tell()
            line = fh.readline()
            if not line:
                raise DataError(f"{path}: no data rows")
            if line.split("#", 1)[0].strip():
                break
        fh.seek(start)
        try:
            data = np.loadtxt(fh, delimiter=",", comments="#", quotechar='"',
                              usecols=None if every else idx, ndmin=2)
        except ValueError as exc:
            raise _locate_error(path, lineno, header, idx, every, exc) from None
        if every:
            if data.shape[1] != width:
                raise _locate_error(path, lineno, header, idx, every, None)
            if idx != list(range(width)):
                data = data[:, idx]
        return Table(comments=comments, header=header, data=data, header_line=lineno)


def write_table(path, columns: dict, comments=()) -> None:
    """Write ``columns`` (name -> 1-D array) in the layout ``read_table`` reads.

    Each of ``comments`` becomes a ``# {line}`` line; the header row goes
    through ``csv.writer``, so a name with a comma or a quote reads back.
    Rows end in a bare newline and every cell is ``repr(float)``, so
    ``read_table`` returns the columns bit for bit.

    The rows are formatted in chunks of at most 1024, which bounds the
    extra memory. A table of at least ``CELLS_PER_PROCESS`` cells per
    usable CPU has its chunks shared out by ``forked.shares``, whose
    workers are forked before the file is opened. Only this process
    opens and writes the file.
    """
    data = np.column_stack([np.asarray(col, dtype=float) for col in columns.values()])
    processes = max(1, min(forked.cpus(), data.size // CELLS_PER_PROCESS, len(data)))
    # a multiple of the process count, so that each process gets as many rows
    chunks = np.array_split(data, processes * max(1, -(-len(data) // (1024 * processes))))
    with forked.shares(_rows_text, chunks, processes) as texts, \
            open(path, "w", newline="", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        csv.writer(fh, lineterminator="\n").writerow(columns)
        fh.writelines(texts)


def _rows_text(rows: np.ndarray) -> str:
    """Each row of ``rows`` as ``repr`` cells joined by commas, one line per row."""
    return "".join([",".join(map(repr, row)) + "\n" for row in rows.tolist()])


def data_line(path, header_line: int, row: int) -> int:
    """1-based file line of data row ``row`` (0-based), counting skipped blank and ``#`` lines."""
    with open(path, encoding="utf-8") as fh:
        return next(islice(_body_lines(fh, header_line), row, None))[0]


def _body_lines(fh, header_line: int):
    """(file line, text before any ``#``) of each data line after the header in open file ``fh``."""
    for lineno, line in enumerate(fh, start=1):
        text = line.split("#", 1)[0]
        if lineno > header_line and text.strip():
            yield lineno, text


def _locate_error(path, header_line: int, header: list[str], idx: list[int],
                  every: bool, exc) -> DataError:
    """DataError naming the first body line that ``read_table`` cannot accept."""
    width = len(header)
    with open(path, encoding="utf-8") as fh:
        for lineno, text in _body_lines(fh, header_line):
            cells = next(csv.reader([text]))
            if (every and len(cells) != width) or max(idx) >= len(cells):
                return DataError(f"{path}:{lineno}: row has {len(cells)} fields, header has {width}")
            for j in idx:
                try:
                    float(cells[j])
                except ValueError:
                    return DataError(f"{path}:{lineno}: cannot parse {header[j]!r} value {cells[j]!r}")
    return DataError(f"{path}: {exc}")
