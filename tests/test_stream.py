"""``simulate`` formats truth.csv block by block while it integrates, with the bytes of the one-pass export.

``cmd_simulate`` hands each block of ``sim.BLOCK_ROWS`` logged rows to a
forked worker (``forked.stream``); the file must equal what
``export_trace_csv`` writes from the whole log, forked or on one CPU, for
every export stride, however the rows fall into blocks and however the run
ends. Whatever way a run fails, the worker is gone afterwards.
"""

import json
from pathlib import Path

import pytest

from conftest import reaped, save_bob_params

from sleddyn import forked, kvfile, sim
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
}


@pytest.fixture
def files(tmp_path, bob):
    save_bob_params(bob, tmp_path / "bob.kv")
    (tmp_path / "config.ini").write_text("[paths]\nbob_params = bob.kv\n")
    return tmp_path


def one_pass_truth(root: Path, path: Path, seed: int) -> tuple[bytes, str, int]:
    """truth.csv as ``export_trace_csv`` writes it from the whole log, with the stop reason and row count."""
    config = load_config(root / "config.ini")
    raw = sim.load_scenario(path)
    setup = sim.FrictionSetup(lateral_front=LateralFrictionParams(mu_zeta_y=2.577, c_y=0.024, k_y=10522.0),
                              lateral_rear=LateralFrictionParams(mu_zeta_y=3.288, c_y=0.076, k_y=49776.0))
    log = sim.simulate(config.bob, raw["track"], raw["controls"], setup, config.aero_model(), v0=raw["v0"],
                       dt=raw["dt"], t_max=raw["t_max"])
    _, truth = sim.export_synthetic_telemetry(log, config.bob, rate=raw["rate_hz"], noise=raw["noise"],
                                              seed=seed, meta=raw["meta"])
    export_trace_csv(truth, root / "one_pass.csv", kvfile.provenance_lines([str(path)], {"seed": seed}))
    return (root / "one_pass.csv").read_bytes(), log.stop, len(log)


@pytest.mark.parametrize("case", CASES)
def test_streamed_truth_has_the_one_pass_bytes(files, monkeypatch, forks, case):
    raw, stop, rows = CASES[case]
    path = files / "scenario.json"
    path.write_text(json.dumps(raw))
    expected, ended, logged = one_pass_truth(files, path, 3)
    assert ended == stop and logged == (rows or logged)
    for cpus in (2, 1):
        monkeypatch.setattr(forked, "cpus", lambda: cpus)
        out = files / f"out{cpus}"
        assert main(["--config", str(files / "config.ini"), "--seed", "3", "--out-dir", str(out),
                     "simulate", str(path)]) == 0
        assert (out / "truth.csv").read_bytes() == expected, cpus
    # the stream worker; telemetry.csv has too few cells to be split
    assert len(forks) == 1 and reaped(forks)


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
