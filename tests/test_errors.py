"""The input boundary: ``naming`` puts a file's path in front of an error once, ``reading`` also converts."""

import numpy as np
import pytest

from sleddyn.errors import ConfigError, DataError, NumericalError, naming, reading


def raised(block, fault) -> Exception:
    """The exception that leaves ``block`` (a context manager) when ``fault`` is raised inside it."""
    with pytest.raises(Exception) as info:
        with block:
            raise fault
    return info.value


@pytest.mark.parametrize("outer, inner", [(naming, naming), (naming, reading), (reading, naming), (reading, reading)],
                         ids=["naming-naming", "naming-reading", "reading-naming", "reading-reading"])
def test_nested_blocks_of_one_path_add_one_prefix(outer, inner):
    with pytest.raises(DataError) as info:
        with outer("run.csv"), inner("run.csv"):
            raise DataError("no header line")
    assert str(info.value) == "run.csv: no header line"


def test_a_message_that_names_its_line_is_left_alone():
    exc = raised(naming("run.csv"), DataError("run.csv:7: cannot parse 'v' value 'x'"))
    assert str(exc) == "run.csv:7: cannot parse 'v' value 'x'"


@pytest.mark.parametrize("error", [ConfigError, DataError, NumericalError])
def test_the_error_keeps_its_class(error):
    exc = raised(naming("scenario.json"), error("sim.dt must be positive and finite, got 0.0"))
    assert type(exc) is error
    assert str(exc) == "scenario.json: sim.dt must be positive and finite, got 0.0"


def test_no_path_names_nothing():
    exc = raised(naming(None), ConfigError("this command needs bob parameters"))
    assert str(exc) == "this command needs bob parameters"


@pytest.mark.parametrize("fault, message", [
    (KeyError("m"), "bob.kv: bad value: missing key 'm'"),
    (ValueError("m must be positive and finite"), "bob.kv: bad value: m must be positive and finite"),
    # a byte that is not UTF-8 fails before any value is read, so the message has no ``what``
    (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), "bob.kv: not UTF-8 text (invalid start byte)"),
], ids=["key", "value", "unicode"])
def test_a_converted_error_names_the_file_once(fault, message):
    with pytest.raises(ConfigError) as info:
        with naming("bob.kv"), reading("bob.kv", ConfigError, "bad value: "):
            raise fault
    assert str(info.value) == message


def test_naming_does_not_convert_a_value_error():
    # numpy's LinAlgError is a ValueError: under ``reading`` a numerical failure would become a data error
    exc = raised(naming("run.csv"), np.linalg.LinAlgError("Singular matrix"))
    assert type(exc) is np.linalg.LinAlgError
    assert str(exc) == "Singular matrix"
