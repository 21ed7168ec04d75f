"""Property: a mutated input file ends in a documented exit code, never a traceback.

Each case starts from a valid input set, mutates one file (a bit flip, a
truncation, or a number replaced by a wrong-typed, negative or
non-finite value) and runs ``main()`` on it. Whatever the mutation, the
exit code is 0-3, stderr holds at most one line, and a failed command
leaves nothing in its output directory.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleddyn import icehouse
from sleddyn.cli import main

BOB = "m = 390\nj_yy = 350\nj_zz = 850\nl_f = 1.7\nl_r = 1.3\ncx_ax = 0.2\nl_x = 0.5\nl_s_f = 1.2\nl_s_r = -1.8\n"
CONFIG = ("[paths]\nbob_params = bob.kv\n[processing]\ncutoff_hz = 0\nrate_hz = 100\n"
          "[aero]\np_air = 94700\ntemperature = 275.15\n")
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
    ("schema.json", "--config config.ini --schema schema.json simulate scenario.json"),
    ("glide_up.csv", "icehouse glide_up.csv glide_down.csv"),
    ("points.csv", "icehouse --points points.csv"),
    ("telemetry.csv", "--config config.ini fit telemetry.csv"),
]

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
        "bob.kv": BOB, "config.ini": CONFIG, "scenario.json": scenario(0.2),
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
    # a short simulated run as the telemetry file
    (root / "long_run.json").write_text(scenario(3.0))
    assert run_main(root, "--config config.ini simulate long_run.json") == (0, "")
    (root / "out" / "telemetry.csv").rename(root / "telemetry.csv")
    for _, argv in CASES:
        assert run_main(root, argv) == (0, "")
    return {path.name: path.read_bytes() for path in root.iterdir() if path.is_file()}


@pytest.mark.parametrize("target, argv", CASES, ids=[target for target, _ in CASES])
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_input_fails_cleanly(inputs, target, argv, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, content in inputs.items():
            (root / name).write_bytes(data.draw(mutated(content)) if name == target else content)
        code, err = run_main(root, argv)
        assert code in (0, 1, 2, 3)
        assert len(err.splitlines()) <= 1
        if code:
            assert not (root / "out").exists()
