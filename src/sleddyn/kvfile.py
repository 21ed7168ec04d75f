"""Flat key/value text files and provenance headers.

Parameter sets, fit results, and bob data are stored as plain
``key = value`` lines with ``#`` comments. Floats are written with
``repr`` so a load/save round trip is bit-exact. Output files produced
by the CLI carry a provenance header (tool version, input digests,
key parameters) as comment lines.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from . import __version__
from .errors import DataError, reading


def format_value(value) -> str:
    if isinstance(value, float):
        # float() drops numpy's repr wrapper: np.float64 is a float subclass
        return repr(float(value))
    return str(value)


def dump_kv(pairs: dict, path, header: list[str] | None = None) -> None:
    """Write a ``key = value`` file, with optional comment header lines."""
    lines = [f"# {h}" for h in (header or [])]
    lines += [f"{k} = {format_value(v)}" for k, v in pairs.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_kv(path) -> dict[str, str]:
    """Read a ``key = value`` file into a dict of raw strings.

    Raises DataError naming the file line for a line without ``=``.
    """
    out: dict[str, str] = {}
    with reading(path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: malformed key/value line: {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def load_floats(path, keys=None) -> dict[str, float]:
    """Read a ``key = value`` file whose values (those of ``keys``, when given) are numbers.

    Raises DataError naming the file and the key of a value that is not a number.
    """
    out: dict[str, float] = {}
    for key, value in load_kv(path).items():
        if keys is None or key in keys:
            with reading(path, what=f"{key} = {value!r}: "):
                out[key] = float(value)
    return out


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def provenance_lines(inputs: list, params: dict | None = None, digests: list | None = None) -> list[str]:
    """Comment lines recording tool version, input hashes and parameters.

    ``digests`` holds the ``file_digest`` of each input, when the caller
    took them as it read the files; otherwise each file is hashed here.
    """
    lines = [f"sleddyn {__version__}"]
    for p, digest in zip(inputs, map(file_digest, inputs) if digests is None else digests, strict=True):
        lines.append(f"input {Path(p).name} sha256:{digest}")
    for k, v in (params or {}).items():
        lines.append(f"param {k} = {format_value(v)}")
    return lines
