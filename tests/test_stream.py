"""``simulate`` formats both tables block by block while it integrates, with the bytes of the one-pass export.

``cmd_simulate`` hands each block of ``sim.BLOCK_ROWS`` logged rows to a
forked worker (``forked.stream``), which formats the block's truth.csv
rows and, in its share of the blocks, the telemetry.csv rows that the
block alone determines. Each file must equal what ``export_trace_csv``
and ``telemetry.export_csv`` write from the whole log, forked or on one
CPU, for every export stride, however the rows fall into blocks and
however the run ends; the parent formats no more telemetry rows than
those around the block edges and those past the worker's share, unless
the worker's rows are not its own. Whatever way a run fails, the worker
is gone afterwards.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reaped, save_bob_params

from sleddyn import cli, forked, kvfile, sim, tables, telemetry
from sleddyn.cli import load_config, main
from sleddyn.errors import NumericalError
from sleddyn.friction import LateralFrictionParams
from sleddyn.onetrack import export_trace_csv

DT = 0.0025
BASE = {
    "track": {"s": [0, 300, 500, 700, 2000], "kappa": [0.07] * 5, "inv_r_y": [0, 0, 0.015, 0, 0],
              "n": [1, 1, 3.2, 1, 1]},
    "controls": {"t": [0, 1, 2, 3, 4, 5, 6], "delta": [0, 0.02, -0.02, 0.02, -0.02, 0.02, 0], "gamma": [0] * 7},
    "initial": {"v0": 25.0}, "sim": {"dt": DT, "t_max": 3.0},
    "meta": {"driver": "A1", "track": "SYN", "rate_hz": 100.0}, "noise": {"a_y": 0.05},
}


def scenario(rate_hz=100.0, t_max=3.0, **changes) -> dict:
    return {**BASE, "sim": {"dt": DT, "t_max": t_max}, "meta": {**BASE["meta"], "rate_hz": rate_hz}, **changes}


# (scenario, how the run ends, logged rows)
CASES = {
    "stride-1": (scenario(400.0), "t_max", 1201),
    "stride-2": (scenario(200.0), "t_max", 1201),
    "stride-3": (scenario(400.0 / 3.0), "t_max", 1201),  # 512 % 3 != 0: blocks start off the stride
    "stride-4": (scenario(100.0), "t_max", 1201),
    "rows-two-whole-blocks": (scenario(200.0, t_max=1023 * DT), "t_max", 2 * sim.BLOCK_ROWS),
    "rows-one-past-two-blocks": (scenario(200.0, t_max=1024 * DT), "t_max", 2 * sim.BLOCK_ROWS + 1),
    "v-stop": (scenario(200.0, t_max=30.0, track={**BASE["track"], "kappa": [-0.3] * 5},
                        initial={"v0": 5.0}), "v_stop", None),
    "track-end": (scenario(100.0, t_max=30.0, track={**BASE["track"], "s": [0, 50, 60, 70, 80]}),
                  "track_end", None),
    # 4,641 rows of 11 telemetry.csv cells, each formatted by the parent, which forks no process for them
    "track-end-500hz": (scenario(500.0, t_max=30.0, track={**BASE["track"], "s": [0, 100, 150, 200, 250]},
                                 sim={"dt": 0.002, "t_max": 30.0}), "track_end", None),
}


@pytest.fixture
def files(tmp_path, bob):
    save_bob_params(bob, tmp_path / "bob.kv")
    (tmp_path / "config.ini").write_text("[paths]\nbob_params = bob.kv\n")
    return tmp_path


def one_pass(root: Path, path: Path, seed: int) -> tuple[dict[str, bytes], str, int]:
    """Each file as ``export_trace_csv`` or ``telemetry.export_csv`` writes it from the whole log, with the stop
    reason and row count."""
    config = load_config(root / "config.ini")
    raw = sim.load_scenario(path)
    setup = sim.FrictionSetup(lateral_front=LateralFrictionParams(mu_zeta_y=2.577, c_y=0.024, k_y=10522.0),
                              lateral_rear=LateralFrictionParams(mu_zeta_y=3.288, c_y=0.076, k_y=49776.0))
    log = sim.simulate(config.bob, raw["track"], raw["controls"], setup, config.aero_model(), v0=raw["v0"],
                       dt=raw["dt"], t_max=raw["t_max"])
    run, truth = sim.export_synthetic_telemetry(log, config.bob, rate=raw["rate_hz"], noise=raw["noise"],
                                                seed=seed, meta=raw["meta"])
    header = kvfile.provenance_lines([str(path)], {"seed": seed})
    export_trace_csv(truth, root / "one_pass_truth.csv", header)
    telemetry.export_csv(run, root / "one_pass_telemetry.csv", config.schema, header)
    return {name: (root / f"one_pass_{name}").read_bytes() for name in ("truth.csv", "telemetry.csv")}, \
        log.stop, len(log)


def simulate(root: Path, path: Path, cpus: int, monkeypatch, seed: tuple[str, ...] = ("--seed", "3")) -> Path:
    """The output directory of ``simulate`` with ``seed`` of the scenario at ``path`` on ``cpus`` CPUs."""
    monkeypatch.setattr(forked, "cpus", lambda: cpus)
    out = root / f"out{cpus}"
    assert main(["--config", str(root / "config.ini"), *seed, "--out-dir", str(out), "simulate", str(path)]) == 0
    return out


@pytest.mark.parametrize("case", CASES)
def test_streamed_truth_has_the_one_pass_bytes(files, monkeypatch, forks, case):
    raw, stop, rows = CASES[case]
    path = files / "scenario.json"
    path.write_text(json.dumps(raw))
    expected, ended, logged = one_pass(files, path, 3)
    assert ended == stop and logged == (rows or logged)
    for cpus in (2, 1):
        assert (simulate(files, path, cpus, monkeypatch) / "truth.csv").read_bytes() == expected["truth.csv"], cpus
    # the stream worker is the one process that simulate forks
    assert len(forks) == 1 and reaped(forks)


UNIFORM = {"t": [0, 1, 2, 3, 4], "delta": [0, 0.02, -0.02, 0.02, 0], "gamma": [0, 0.01, -0.01, 0.02, 0]}
# telemetry.csv: every CASES row, a schema in degrees, and a run on a uniform time grid, where np.gradient
# takes its uniform formula: with a spacing of 2^-8 s the written-out non-uniform formula gives the same bits,
# with 3 * 2^-10 s it does not, so the parent rejects every block
TELEMETRY_CASES = {
    **{name: (raw, "rad") for name, (raw, _, _) in CASES.items()},
    "deg-schema": (scenario(400.0 / 3.0, controls=UNIFORM), "deg"),
    "uniform-2^-8": ({**scenario(256.0, t_max=4.0, controls=UNIFORM), "sim": {"dt": 2.0 ** -8, "t_max": 4.0}}, "rad"),
    "uniform-3*2^-10": ({**scenario(1024.0 / 3.0, t_max=4.0, controls=UNIFORM),
                         "sim": {"dt": 3.0 * 2.0 ** -10, "t_max": 4.0}}, "rad"),
}


def with_schema(root: Path, unit: str) -> None:
    """Make ``root/config.ini`` read telemetry columns in ``unit``."""
    (root / "schema.json").write_text(json.dumps({"columns": telemetry.identity_schema().columns,
                                                  "angle_unit": unit}))
    (root / "config.ini").write_text("[paths]\nbob_params = bob.kv\nschema = schema.json\n")


@pytest.mark.parametrize("case", TELEMETRY_CASES)
def test_streamed_telemetry_has_the_one_pass_bytes(files, monkeypatch, forks, case):
    raw, unit = TELEMETRY_CASES[case]
    with_schema(files, unit)
    path = files / "scenario.json"
    path.write_text(json.dumps(raw))
    expected = one_pass(files, path, 3)[0]["telemetry.csv"]
    for cpus in (2, 1):
        assert (simulate(files, path, cpus, monkeypatch) / "telemetry.csv").read_bytes() == expected, cpus
    assert len(forks) == 1 and reaped(forks)


def parent_rows(root: Path, path: Path, monkeypatch, seed: tuple[str, ...] = ("--seed", "3")) -> tuple[int, int]:
    """(rows the parent formats, telemetry.csv rows) of ``simulate`` with ``seed`` on two CPUs."""
    parent, real, formatted = os.getpid(), tables._rows_text, []

    def rows_text(rows):
        if os.getpid() == parent:
            formatted.append(len(rows))
        return real(rows)

    monkeypatch.setattr(tables, "_rows_text", rows_text)
    out = simulate(root, path, 2, monkeypatch, seed)
    return sum(formatted), len(telemetry.ingest_csv(out / "telemetry.csv", telemetry.identity_schema()))


@pytest.mark.parametrize("seed", [("--seed", "3"), ()], ids=["seeded", "unseeded"])
@pytest.mark.parametrize("case", [name for name, (_, stop, _) in CASES.items() if stop == "t_max"])
def test_the_worker_formats_its_share_but_the_edge_rows(files, monkeypatch, case, seed):
    # a fallback that formats every row here would keep the bytes and lose the second CPU
    path = files / "scenario.json"
    raw, _, logged = CASES[case]
    path.write_text(json.dumps(raw))
    formatted, rows = parent_rows(files, path, monkeypatch, seed)
    shared = round(cli.WORKER_SHARE * -(-logged // sim.BLOCK_ROWS))
    stride = sim.export_stride(raw["meta"]["rate_hz"], raw["sim"]["dt"])
    # the first two, two each side of an edge between the worker's blocks, two before its share ends, the rest
    assert 0 < formatted <= 4 * shared + rows + (-shared * sim.BLOCK_ROWS // stride) < rows


def test_rows_the_worker_computed_otherwise_are_formatted_here(files, monkeypatch):
    path = files / "scenario.json"
    path.write_text(json.dumps(TELEMETRY_CASES["uniform-3*2^-10"][0]))
    formatted, rows = parent_rows(files, path, monkeypatch)
    assert formatted == rows


def test_a_run_too_long_to_draw_ahead_is_formatted_here(files, monkeypatch):
    monkeypatch.setattr(cli, "NOISE_AHEAD_ROWS", 1200)  # one sample fewer than the run exports
    raw = CASES["stride-1"][0]
    path = files / "scenario.json"
    path.write_text(json.dumps(raw))
    expected = one_pass(files, path, 3)[0]["telemetry.csv"]
    formatted, rows = parent_rows(files, path, monkeypatch)
    assert formatted == rows == 1201
    assert (files / "out2" / "telemetry.csv").read_bytes() == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(-1e3, 1e3)), min_size=3, max_size=40))
def test_written_out_gradient_is_np_gradient_on_a_non_uniform_grid(samples):
    spacing, f = (np.array(column) for column in zip(*samples))
    t = np.cumsum(spacing)
    dx = np.diff(t)
    if (dx == dx[0]).all() or not (dx > 0).all():  # np.gradient's uniform formula, or no grid
        return
    assert sim._interior_gradient(f, t).tobytes() == np.gradient(f, t)[1:-1].tobytes()


def fail_at_step(monkeypatch, n: int, fault):
    """Make step ``n`` of ``sim.simulate`` (after its first block was handed on) end with ``fault``."""
    real, calls = sim.step, []

    def step(state, *args):
        calls.append(None)
        new = real(state, *args)
        return fault(new) if len(calls) == n else new

    monkeypatch.setattr(sim, "step", step)


def raise_(exc):
    raise exc


FAILURES = {
    "non-finite-state": (3, lambda mp: fail_at_step(mp, 600, lambda new: new[:4] + (float("nan"),)), {}),
    "math-domain-error": (3, lambda mp: fail_at_step(mp, 600, lambda new: raise_(ValueError("math domain error"))),
                          {}),
    "one-sample": (1, None, {"track": {**BASE["track"], "s": [0, 0.01, 0.02, 0.03, 0.04]}}),
    "noise-overflow": (1, None, {"noise": {"a_y": 1e308}}),
    "interrupt": (None, lambda mp: fail_at_step(mp, 600, lambda new: raise_(KeyboardInterrupt)), {}),
}


@pytest.mark.parametrize("failure", FAILURES)
def test_a_failed_run_leaves_no_worker(files, monkeypatch, forks, capsys, failure):
    code, patch, changes = FAILURES[failure]
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    if patch is not None:
        patch(monkeypatch)
    path = files / "scenario.json"
    path.write_text(json.dumps(scenario(t_max=3.0, **changes)))
    argv = ["--config", str(files / "config.ini"), "--seed", "1", "--out-dir", str(files / "out"),
            "simulate", str(path)]
    if code is None:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == code
        assert len(capsys.readouterr().err.splitlines()) == 1
    assert len(forks) == 1 and reaped(forks)
    assert not (files / "out").exists()


def test_blocks_are_handed_on_as_the_run_goes(bob, friction_setup):
    # whole blocks during the run, the rest before simulate returns; their rows make up the log
    blocks = []
    log = sim.simulate(bob, sim.TrackProfile(**{k: BASE["track"][k] for k in ("s", "kappa", "inv_r_y", "n")}),
                       sim.ControlTrace(t=[0, 10], delta=[0, 0], gamma=[0, 0]), friction_setup,
                       dt=DT, t_max=3.0, on_block=lambda block: blocks.append(block.copy()))
    assert [len(b) for b in blocks] == [sim.BLOCK_ROWS, sim.BLOCK_ROWS, 1201 - 2 * sim.BLOCK_ROWS]
    t = [row[0] for block in blocks for row in block.tolist()]
    assert t == log.t.tolist()


def test_a_run_that_fails_hands_on_no_last_block(bob, friction_setup, monkeypatch):
    fail_at_step(monkeypatch, 600, lambda new: new[:4] + (float("nan"),))
    blocks = []
    with pytest.raises(NumericalError):
        sim.simulate(bob, sim.TrackProfile(s=[0, 2000], kappa=[0.07, 0.07], inv_r_y=[0, 0], n=[1, 1]),
                     sim.ControlTrace(t=[0, 10], delta=[0, 0], gamma=[0, 0]), friction_setup,
                     dt=DT, t_max=3.0, on_block=lambda block: blocks.append(len(block)))
    assert blocks == [sim.BLOCK_ROWS]
