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
leaves the block as one ``error``. Config, schema and scenario files read
as ConfigError; tables, kv files and point files as DataError.
``reading`` is built on ``naming(path)``, the one rule that starts a
message with a file's path, so code inside either block raises its
package errors without it. Processing code uses ``naming`` alone: numpy's
LinAlgError is a ValueError, which ``reading`` would turn into exit 2.
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
def naming(path):
    """Start a package error raised in the block with ``path: ``; its class stays.

    A message that starts with ``path:`` already is left alone, and so is every one when ``path`` is None.
    """
    try:
        yield
    except SleddynError as exc:
        if path is None or str(exc).startswith(f"{path}:"):
            raise
        raise type(exc)(f"{path}: {exc}") from None


@contextmanager
def reading(path, error=DataError, what=""):
    """``naming(path)``, turning what parsing ``path`` raises into ``error(f"{path}: {what}...")``."""
    with naming(path):
        try:
            yield
        except UnicodeDecodeError as exc:
            raise error(f"not UTF-8 text ({exc.reason})") from None
        except KeyError as exc:
            raise error(f"{what}missing key {exc}") from None
        except (ValueError, TypeError, IndexError, AttributeError, configparser.Error) as exc:
            raise error(f"{what}{exc}") from None
