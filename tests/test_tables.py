"""The shared table reader and writer and the loaders and exporters built on them."""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sleddyn.errors import DataError
from sleddyn.icehouse import load_glide_csv, save_glide_csv
from sleddyn.onetrack import AxleForceTrace, export_trace_csv, load_trace_csv
from sleddyn.tables import read_table, write_table
from sleddyn.telemetry import (
    CORE_CHANNELS,
    TelemetryRun,
    export_csv,
    identity_schema,
    ingest_csv,
)

HEADER = "t," + ",".join(CORE_CHANNELS)
ROW = "0.0,0,0,0,0,0,0,1,0,0,0"
GLIDE_META = "# m = 100\n# p_air = 94700\n# temperature = 275.15\n# cx_ax = 0.4\n# direction = up\n"

finite = st.floats(allow_nan=False, allow_infinity=False)
TRACE_FLOATS = [f.name for f in dataclasses.fields(AxleForceTrace) if f.name not in ("t", "valid")]


class TestReadTable:
    def test_comments_header_and_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# note\n#  key = value \n\na,b,c\n1,2,3\n# mid\n\n4,5,6\n")
        table = read_table(path, ["c", "a"])
        assert table.comments == ["note", "key = value"]
        assert table.header == ["a", "b", "c"]
        assert table.header_line == 4
        assert table.data.tolist() == [[3.0, 1.0], [6.0, 4.0]]

    def test_unrequested_columns_are_not_parsed(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,label\n1,first\n2,second\n")
        assert read_table(path, ["a"]).data.tolist() == [[1.0], [2.0]]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="missing mapped columns: z"):
            read_table(path, ["a", "z"])

    def test_no_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(DataError, match="no header"):
            read_table(path)

    @pytest.mark.parametrize("good_rows", [1, 3000])  # in the header's read chunk, or in loadtxt's
    def test_undecodable_byte_is_data_error(self, tmp_path, good_rows):
        path = tmp_path / "t.csv"
        path.write_bytes(b"t,v\n" + b"0.25,1.5\n" * good_rows + b"1,2\xff\n")
        with pytest.raises(DataError, match=r"t.csv: not UTF-8 text"):
            read_table(path)


class TestWriteTable:
    def test_round_trip_across_blocks_with_quoted_header(self, tmp_path):
        n = 2500  # more than two conversion blocks
        columns = {"a,b": np.linspace(-1.0, 1.0, n) / 3.0, 'say "hi"': np.arange(n) % 2 == 0}
        path = tmp_path / "t.csv"
        write_table(path, columns, ["note", "k = v"])
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        table = read_table(path)
        assert table.comments == ["note", "k = v"]
        assert table.header == list(columns)
        assert table.data.tobytes() == np.column_stack([columns["a,b"], columns['say "hi"']]).tobytes()


class TestTelemetryReader:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    @example(data=None)
    def test_export_ingest_bit_identical(self, data):
        """export_csv, export_trace_csv and save_glide_csv each read back what they wrote."""
        if data is None:
            # -0.0, 17-significant-digit values and subnormals, written by repr
            values = [-0.0, 0.1 + 0.2, 1.2345678901234567e-300, 5e-324, -1.7976931348623157e308]
            t = np.array([-0.0, 1.0, 2.0, 3.0, 4.0])
            columns = {name: np.roll(values, i) for i, name in enumerate(CORE_CHANNELS)}
            columns["v"] = np.abs(columns["v"])
            special = [np.nan, -np.inf, np.inf, *values]
            cells = np.array([np.roll(special, i)[:5] for i in range(len(TRACE_FLOATS))]).T
            valid = np.array([True, False, True, False, True])
        else:
            times = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20, unique=True))
            t = np.array(sorted(times))
            columns = {
                name: np.array(data.draw(st.lists(finite, min_size=t.size, max_size=t.size)))
                for name in CORE_CHANNELS
            }
            columns["v"] = np.abs(columns["v"])
            # NaN and infinities included
            cells = data.draw(arrays(np.float64, (t.size, len(TRACE_FLOATS))))
            valid = data.draw(arrays(np.bool_, t.size))
        run = TelemetryRun(t=t, channels=columns)
        trace = AxleForceTrace(t=t, valid=valid, **dict(zip(TRACE_FLOATS, cells.T)))
        meta = {"m": 100.0, "direction": "up"}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.csv"
            export_csv(run, path)
            back = ingest_csv(path, identity_schema())
            export_trace_csv(trace, Path(tmp) / "trace.csv", header_comments=["demo"])
            trace_back = load_trace_csv(Path(tmp) / "trace.csv")
            save_glide_csv(t, cells[:, 0], Path(tmp) / "glide.csv", meta, h=cells[:, 1])
            glide_back = read_table(Path(tmp) / "glide.csv")
        assert back.t.tobytes() == run.t.tobytes()
        for name in CORE_CHANNELS:
            assert back.channels[name].tobytes() == run.channels[name].tobytes(), name
        assert np.array_equal(trace_back.valid, valid)
        for name in ["t", *TRACE_FLOATS]:
            assert np.array_equal(getattr(trace_back, name), getattr(trace, name), equal_nan=True), name
        assert glide_back.comments == ["m = 100.0", "direction = up"]
        assert glide_back.header == ["t", "v", "h"]
        assert np.array_equal(glide_back.data, np.column_stack([t, cells[:, :2]]), equal_nan=True)

    def test_ragged_short_row_names_line(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text(f"# c\n{HEADER}\n{ROW}\n0.1,0,0\n")
        with pytest.raises(DataError, match=r"run.csv:4: row has 3 fields, header has 11"):
            ingest_csv(path, identity_schema())

    def test_row_with_extra_field_rejected(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text(f"{HEADER}\n{ROW}\n{ROW.replace('0.0', '0.1', 1)},9\n")
        with pytest.raises(DataError, match=r"run.csv:3: row has 12 fields, header has 11"):
            ingest_csv(path, identity_schema())

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text(f"# c\n{HEADER}\n# trailing comment\n\n")
        with pytest.raises(DataError, match="run.csv: no data rows"):
            ingest_csv(path, identity_schema())


class TestTraceReader:
    HEADER = ("t,s,valid,alpha_f,alpha_r,beta,f_y_f0,f_z_f0,f_y_r,f_z_r,"
              "f_x_f0,f_x_f,f_y_f,f_z_f,f_y_ext")

    def test_unparsable_cell_names_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        good = ",".join(["0.0", "0.0", "1"] + ["nan"] * 12)
        bad = ",".join(["0.1", "0.5", "1", "x1"] + ["0.0"] * 11)
        path.write_text(f"# demo\n{self.HEADER}\n{good}\n{bad}\n")
        with pytest.raises(DataError, match=r"trace.csv:4: cannot parse 'alpha_f' value 'x1'"):
            load_trace_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,s\n0,0\n")
        with pytest.raises(DataError, match="missing mapped columns"):
            load_trace_csv(path)


class TestGlideReader:
    def test_bad_row_names_line(self, tmp_path):
        path = tmp_path / "glide.csv"
        path.write_text(GLIDE_META + "t,v\n0.0,2.4\n0.01,oops\n")
        with pytest.raises(DataError, match=r"glide.csv:8: cannot parse 'v' value 'oops'"):
            load_glide_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "glide.csv"
        path.write_text(GLIDE_META + "t,v\n0.0,2.4\n0.01\n")
        with pytest.raises(DataError, match=r"glide.csv:8: row has 1 fields, header has 2"):
            load_glide_csv(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "glide.csv"
        path.write_text(GLIDE_META + "0.0,2.4\n0.01,2.39\n")
        with pytest.raises(DataError, match=r"glide.csv:6: expected a 't,v\[,h\]' header"):
            load_glide_csv(path)

    def test_height_column(self, tmp_path):
        t = np.arange(300) / 100.0
        path = tmp_path / "glide.csv"
        save_glide_csv(t, 2.4 - 0.02 * t, path, h=-0.001 * t, meta={
            "m": 100.0, "p_air": 94700.0, "temperature": 275.15, "cx_ax": 0.4, "direction": "up",
        })
        run = load_glide_csv(path)
        assert run.specimen == "glide"
        assert np.array_equal(run.h, -0.001 * t)
