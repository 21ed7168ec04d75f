"""Exception hierarchy shared across the package, and the input boundary.

Each error class carries its exit code and its stderr label:
ConfigError -> 1 ("error"), DataError -> 2 ("data error"),
NumericalError -> 3 ("numerical failure"). The CLI prints
``f"{exc.label}: {exc}"`` on one line and returns ``exc.exit_code``.
Plain ValueError is reserved for programming errors and for records
(``BobParameters``, ``GlideRun``, ``TrackProfile``, ...) whose values are
out of range.

File loaders read inside ``reading(path, error)``: whatever the parse or
the record construction raises (a ValueError, including a non-UTF-8 byte
or bad JSON, a missing key, a value of the wrong type, a bad INI file)
leaves the block as one ``error`` whose message starts with the file
name. Config, schema and scenario files read as ConfigError; tables, kv
files and point files as DataError.
"""

import configparser
from contextlib import contextmanager


class SleddynError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1
    label = "error"


class ConfigError(SleddynError):
    """Invalid configuration, schema, or command usage."""


class DataError(SleddynError):
    """Malformed or inconsistent input data (CSV rows, tables, runs)."""

    exit_code = 2
    label = "data error"


class NumericalError(SleddynError):
    """A numerical procedure failed (rank deficiency, no convergence)."""

    exit_code = 3
    label = "numerical failure"


@contextmanager
def reading(path, error=DataError, what=""):
    """Turn what parsing ``path`` raises into ``error(f"{path}: {what}...")``.

    A package error raised inside the block passes through unchanged.
    """
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None
    except KeyError as exc:
        raise error(f"{path}: {what}missing key {exc}") from None
    except (ValueError, TypeError, IndexError, AttributeError, configparser.Error) as exc:
        raise error(f"{path}: {what}{exc}") from None
