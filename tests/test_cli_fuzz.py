"""Property: a mutated input file or a failed write ends in a documented exit code, never a traceback.

Each case starts from a valid input set, mutates one file (a bit flip, a
truncation, or a number replaced by a wrong-typed, negative or
non-finite value) and runs ``main()`` on it. Whatever the mutation, the
exit code is 0-3, stderr holds at most one line, and a failed command
leaves no new file or directory behind. A failure is the mutated file's:
the message after the label starts with its path and the exit code is
its class (1 for a config, schema or scenario file, 2 for the others).

The write-failure cases run each command on valid inputs with the k-th
output file failing to open, for every k up to the number of files the
command writes: exit 2, one stderr line, and the output directory absent
or exactly as it was. The ``simulate`` case formats most rows of
``telemetry.csv`` and all of ``truth.csv`` in its one forked worker, and
every output file is still opened in the parent.
"""

import builtins
import contextlib
import errno
import io
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reaped

from sleddyn import forked, icehouse
from sleddyn.cli import main

BOB = "m = 390\nj_yy = 350\nj_zz = 850\nl_f = 1.7\nl_r = 1.3\ncx_ax = 0.2\nl_x = 0.5\nl_s_f = 1.2\nl_s_r = -1.8\n"
CONFIG = ("[paths]\nbob_params = bob.kv\n[processing]\ncutoff_hz = 0\nrate_hz = 100\n"
          "[aero]\np_air = 94700\ntemperature = 275.15\n")
# the config.ini of the schema.json case, which names the schema
SCHEMA_CONFIG = CONFIG.replace("bob.kv\n", "bob.kv\nschema = schema.json\n")
# a config that keeps the default 20 Hz low-pass filter
FILTER_CONFIG = CONFIG.replace("cutoff_hz = 0\n", "")
CHANNELS = ("t", "a_x", "a_y", "a_z", "phi_dot", "theta_dot", "psi_dot", "v", "alpha_sensor", "delta", "gamma")


def scenario(t_max: float) -> str:
    t = np.linspace(0.0, t_max, 9)
    return json.dumps({
        "track": {"s": [0.0, 1000.0], "kappa": [0.07, 0.07], "inv_r_y": [0.0, 0.0], "n": [1.0, 1.5]},
        "controls": {"t": t.tolist(), "delta": (0.02 * np.sin(2.0 * t)).tolist(), "gamma": [0.0] * 9},
        "initial": {"v0": 25.0}, "sim": {"dt": 0.005, "t_max": t_max},
        "meta": {"driver": "F1", "track": "SYN", "rate_hz": 100.0}, "noise": {"a_y": 0.05},
    })


# (file to mutate, command line); a name in the command line stands for that file
CASES = [
    ("long.kv", "friction-table --long-params long.kv --lateral-params lat.kv"),
    ("lat.kv", "friction-table --long-params long.kv --lateral-params lat.kv"),
    ("bob.kv", "--config config.ini simulate scenario.json"),
    ("config.ini", "--config config.ini simulate scenario.json"),
    ("scenario.json", "--config config.ini simulate scenario.json"),
    ("schema.json", "--config schema.ini simulate scenario.json"),
    ("glide_up.csv", "icehouse glide_up.csv glide_down.csv"),
    ("points.csv", "icehouse --points points.csv"),
    ("telemetry.csv", "--config config.ini fit telemetry.csv"),
    ("telemetry.csv", "--config config.ini eval telemetry.csv --front-params lat.kv --rear-params lat.kv"),
    ("telemetry.csv", "--config filter.ini eval telemetry.csv --front-params lat.kv --rear-params lat.kv"),
]


def case_id(target: str, argv: str) -> str:
    words = argv.split()
    return target + "-eval" * ("eval" in words) + "-filtered" * ("filter.ini" in words)


# files whose faults are config errors (exit 1); a fault in any other input is a data error (exit 2)
CONFIG_FILES = ("config.ini", "schema.ini", "schema.json", "scenario.json")
NUMBER = re.compile(rb"-?\d+(?:\.\d*)?(?:e-?\d+)?")
BAD_VALUES = ("abc", "-1", "0", "nan", "inf", "-inf", "1e400", '"abc"', "null", "[]", "")


@st.composite
def mutated(draw, text: bytes) -> bytes:
    kind = draw(st.sampled_from(("flip", "truncate", "value")))
    if kind == "flip":
        i = draw(st.integers(0, len(text) - 1))
        return text[:i] + bytes([text[i] ^ (1 << draw(st.integers(0, 7)))]) + text[i + 1:]
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    start, end = draw(st.sampled_from([m.span() for m in NUMBER.finditer(text)] or [(0, 0)]))
    return text[:start] + draw(st.sampled_from(BAD_VALUES)).encode() + text[end:]


def run_main(root: Path, argv: str):
    """Exit code and stderr of ``main`` on ``argv`` with its files under ``root``."""
    args = [str(root / arg) if (root / arg).exists() else arg for arg in argv.split()]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["--out-dir", str(root / "out"), *args])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, bytes]:
    """One valid input set: every command in CASES exits 0 on it."""
    root = tmp_path_factory.mktemp("inputs")
    files = {
        "bob.kv": BOB, "config.ini": CONFIG, "schema.ini": SCHEMA_CONFIG, "filter.ini": FILTER_CONFIG,
        "scenario.json": scenario(0.2),
        "schema.json": json.dumps({"columns": {c: c.upper() for c in CHANNELS}, "angle_unit": "deg"}),
        "long.kv": "b_x = 0.088\nc_x = 2.01\nd_x = 14.66\n",
        "lat.kv": "mu_zeta_y = 2.577\nc_y = 0.024\nk_y = 10522\n",
        "points.csv": "# p, mu\n7.7,4.5e-3\n8.6 3.8e-3\n13.6,4.2e-3\n16.0,4.6e-3\n10.9,3.0e-3\n",
    }
    for name, text in files.items():
        (root / name).write_text(text)
    t = np.arange(0.0, 3.0, 0.02)
    for direction, decel in (("up", 0.05), ("down", 0.03)):
        icehouse.save_glide_csv(t, 2.4 - decel * t, root / f"glide_{direction}.csv", meta={
            "m": 100.0, "p_air": 94700.0, "temperature": 275.15, "cx_ax": 0.1,
            "direction": direction, "specimen": "S1"})
    # a short simulated run as the telemetry file, its noise seeded so that every session fuzzes the same file
    (root / "long_run.json").write_text(scenario(3.0))
    assert run_main(root, "--config config.ini --seed 1 simulate long_run.json") == (0, "")
    (root / "out" / "telemetry.csv").rename(root / "telemetry.csv")
    for _, argv in CASES:
        assert run_main(root, argv) == (0, "")
    return {path.name: path.read_bytes() for path in root.iterdir() if path.is_file()}


# a numpy warning would reach a real process's stderr as extra lines
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("target, argv", CASES, ids=[case_id(*case) for case in CASES])
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_input_fails_cleanly(inputs, target, argv, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, content in inputs.items():
            (root / name).write_bytes(data.draw(mutated(content)) if name == target else content)
        before = set(root.rglob("*"))
        code, err = run_main(root, argv)
        assert code in (0, 1, 2, 3)
        assert len(err.splitlines()) <= 1
        if code:
            assert set(root.rglob("*")) == before
            assert err.split(": ", 1)[1].startswith(f"{root / target}:"), err
            assert code == (1 if target in CONFIG_FILES else 2), err


class FailingWrites:
    """Counts files opened for writing below ``root``; the ``fail_at``-th open raises OSError.

    Both ``open`` and ``Path.open`` (behind ``Path.write_text``) are watched.
    """

    def __init__(self, monkeypatch, root: Path):
        self.root, self.fail_at, self.opened = root, None, []
        real_open, real_path_open = builtins.open, Path.open

        def watched_open(file, mode="r", *args, **kwargs):
            self.check(file, mode)
            return real_open(file, mode, *args, **kwargs)

        def watched_path_open(path, mode="r", *args, **kwargs):
            self.check(path, mode)
            return real_path_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", watched_open)
        monkeypatch.setattr(Path, "open", watched_path_open)

    def check(self, file, mode: str) -> None:
        if set(mode) & set("wax+") and isinstance(file, (str, os.PathLike)) \
                and Path(file).resolve().is_relative_to(self.root):
            self.opened.append(Path(file).name)
            if len(self.opened) == self.fail_at:
                raise OSError(errno.ENOSPC, "No space left on device", str(file))


def snapshot(root: Path) -> dict:
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


# (command, command line, files written): options that make each command write every kind of file
WRITING = [
    ("simulate", "--config config.ini simulate scenario.json", 2),
    ("fit", "--config config.ini fit --holdout HOLD telemetry.csv holdout.csv", 9),
    ("eval", "--config config.ini eval telemetry.csv holdout.csv --front-params lat.kv --rear-params lat.kv",
     3),
    ("friction-table", "friction-table --long-params long.kv --lateral-params lat.kv", 2),
    ("icehouse", "icehouse --points points.csv glide_up.csv glide_down.csv", 1),
]


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
@pytest.mark.parametrize("argv, n_files", [case[1:] for case in WRITING], ids=[case[0] for case in WRITING])
def test_failed_write_leaves_no_output(inputs, tmp_path, monkeypatch, forks, argv, n_files, existing):
    root = tmp_path.resolve()
    for name, content in inputs.items():
        (root / name).write_bytes(content)
    (root / "holdout.csv").write_bytes(inputs["telemetry.csv"].replace(b"track = SYN", b"track = HOLD"))
    forking = "simulate" in argv.split()
    if forking:
        # one worker formats the rows of both tables while the run goes on; every output file
        # must still be opened here
        monkeypatch.setattr(forked, "cpus", lambda: 2)
    writes = FailingWrites(monkeypatch, root)
    assert run_main(root, argv) == (0, "")
    if forking:
        assert len(forks) == 1
    out = root / "out"
    written = sorted(path.name for path in out.iterdir())
    assert len(written) == n_files and sorted(writes.opened) == written
    if existing:
        for path in out.iterdir():
            path.write_text(f"old {path.name}\n")
    else:
        shutil.rmtree(out)
    before = snapshot(root)
    for k in range(1, n_files + 1):
        writes.opened, writes.fail_at = [], k
        code, err = run_main(root, argv)
        assert (code, len(err.splitlines())) == (2, 1), (k, err)
        assert "No space left on device" in err
        assert snapshot(root) == before, k
        assert reaped(forks)
