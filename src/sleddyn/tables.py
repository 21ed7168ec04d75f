"""One reader and one writer for the package's float tables.

Telemetry, force-trace, glide-run and result CSVs share one layout:
leading ``#`` comment lines (free text or ``key = value`` metadata), a
header line naming the columns, then comma-separated float rows. The
comments and the header are read line by line; the body goes from the
open file straight to ``np.loadtxt``, so the file is never held in
memory as text.

When ``loadtxt`` rejects the body, the file is scanned once more only to
name the first bad line in the ``DataError``; that scan returns no data.

Every cell is written as ``repr(float)``. ``row_texts`` is the one row
formatter: it formats rows ``CHUNK_ROWS`` at a time as the file is
written, in the calling process or (for ``simulate``'s worker) in
another one. ``write_text`` writes such texts, in the order given,
under the comment and header lines.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import DataError, reading

# most rows formatted at once: this bounds the text held
CHUNK_ROWS = 1024
# most characters handed to the text file at once: it encodes each write whole, so
# this bounds that copy
WRITE_CHARS = 1 << 16


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
                raise DataError("no header line")
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
            raise DataError(f"missing mapped columns: {', '.join(sorted(missing))}")
        idx = [header.index(c) for c in names]
        every = sorted(idx) == list(range(width))
        # loadtxt warns rather than fails on an empty body: look for a data line first
        while True:
            start = fh.tell()
            line = fh.readline()
            if not line:
                raise DataError("no data rows")
            if line.split("#", 1)[0].strip():
                break
        fh.seek(start)
        try:
            data = np.loadtxt(fh, delimiter=",", comments="#", quotechar='"',
                              usecols=None if every else idx, ndmin=2)
            if every and data.shape[1] != width:
                raise ValueError(f"rows of {data.shape[1]} fields, header has {width}")
        except ValueError as exc:
            raise _locate_error(path, lineno, header, idx, every) or exc from None
        if every and idx != list(range(width)):
            data = data[:, idx]
        return Table(comments=comments, header=header, data=data, header_line=lineno)


def write_table(path, columns: dict, comments=()) -> None:
    """Write ``columns`` (name -> 1-D array) in the layout ``read_table`` reads.

    Each of ``comments`` becomes a ``# {line}`` line; the header row goes
    through ``csv.writer``, so a name with a comma or a quote reads back.
    Rows end in a bare newline and every cell is ``repr(float)``, so
    ``read_table`` returns the columns bit for bit. The rows are formatted
    ``CHUNK_ROWS`` at a time while the file is written, which bounds the
    extra memory.
    """
    write_text(path, columns, row_texts(np.asarray(col, dtype=float) for col in columns.values()), comments)


def write_text(path, names, texts, comments=()) -> None:
    """Write the ``comments``, the header of ``names`` and the row ``texts`` (as ``row_texts`` gives them)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        csv.writer(fh, lineterminator="\n").writerow(names)
        for text in texts:
            for start in range(0, len(text), WRITE_CHARS):
                fh.write(text[start:start + WRITE_CHARS])


def row_texts(columns):
    """The text of the rows of ``columns``, equal-length 1-D float arrays, ``CHUNK_ROWS`` rows at a time."""
    columns = list(columns)
    for first in range(0, len(columns[0]), CHUNK_ROWS):
        yield _rows_text(np.column_stack([column[first:first + CHUNK_ROWS] for column in columns]))


def _rows_text(rows: np.ndarray) -> str:
    """Each row of ``rows`` as ``repr`` cells joined by commas, one line per row."""
    return "".join([",".join(map(repr, row)) + "\n" for row in rows.tolist()])


def check_rows(path, table: Table, *checks) -> None:
    """Raise DataError ``{path}: {what} at line {n}`` for the first failing ``(mask, what)`` check.

    ``mask`` flags the bad data rows of ``table``, read from ``path``; the
    checks are tried in order, and ``n`` is the file line of the first bad
    row, counting skipped blank and ``#`` lines.
    """
    for mask, what in checks:
        bad = np.flatnonzero(mask)
        if bad.size:
            with open(path, encoding="utf-8") as fh:
                line = next(islice(_body_lines(fh, table.header_line), bad[0], None))[0]
            raise DataError(f"{path}: {what} at line {line}")


def _body_lines(fh, header_line: int):
    """(file line, text before any ``#``) of each data line after the header in open file ``fh``."""
    for lineno, line in enumerate(fh, start=1):
        text = line.split("#", 1)[0]
        if lineno > header_line and text.strip():
            yield lineno, text


def _locate_error(path, header_line: int, header: list[str], idx: list[int], every: bool) -> DataError | None:
    """DataError naming the first body line that ``read_table`` cannot accept; None if no line is found."""
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
    return None
