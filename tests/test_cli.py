"""End-to-end CLI workflows on synthetic data."""

import dataclasses
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    LATERAL_FRONT,
    LATERAL_REAR,
    corner_track,
    downhill_track,
    reaped,
    readme_message,
    save_bob_params,
    straight_track,
    weaving_controls,
    zero_controls,
)

import sleddyn
from sleddyn import cli, fitting, forked, icehouse, kvfile, sim, tables, telemetry
from sleddyn.cli import main
from sleddyn.errors import DataError, NumericalError
from sleddyn.friction import MU_X_DEFAULT
from sleddyn.sim import ControlTrace
from sleddyn.tables import read_table


@pytest.fixture
def workspace(tmp_path, bob, friction_setup, aero_model):
    """Config, bob file, schema, and a couple of synthetic telemetry runs."""
    save_bob_params(bob, tmp_path / "bob.kv")
    (tmp_path / "schema.json").write_text(json.dumps({"columns": telemetry.identity_schema().columns}))
    (tmp_path / "config.ini").write_text(
        "[paths]\n"
        "bob_params = bob.kv\n"
        "schema = schema.json\n"
        "[processing]\n"
        "cutoff_hz = 0\n"
        "rate_hz = 100\n"
        "[aero]\n"
        "p_air = 94700\n"
        "temperature = 275.15\n"
    )
    track = downhill_track()
    paths = []
    for i, amplitude in enumerate((0.5, 2.0)):
        log = sim.simulate(bob, track, weaving_controls(15.0, amplitude_deg=amplitude),
                           friction_setup, aero_model, v0=25.0, dt=0.0025, t_max=15.0)
        run, _ = sim.export_synthetic_telemetry(
            log, bob, rate=100.0,
            meta=telemetry.TelemetryMeta(driver=f"D{i}", track="SYN"))
        path = tmp_path / f"run{i}.csv"
        telemetry.export_csv(run, path)
        paths.append(str(path))
    return tmp_path, paths


class TestFitCommand:
    def test_fit_recovers_parameters(self, workspace, capsys):
        tmp_path, paths = workspace
        out = tmp_path / "out"
        code = main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out), "fit", *paths])
        assert code == 0
        # with the drag's y-component in the reconstruction the noise-free
        # runs close exactly, and the front optimum lies inside the bounds
        front_line = capsys.readouterr().out.splitlines()[0]
        assert front_line.startswith("front:") and "at bound" not in front_line
        front = kvfile.load_kv(out / "lateral_front.kv")
        rear = kvfile.load_kv(out / "lateral_rear.kv")
        assert float(front["k_y"]) == pytest.approx(LATERAL_FRONT.k_y, rel=0.05)
        assert float(rear["k_y"]) == pytest.approx(LATERAL_REAR.k_y, rel=0.05)
        assert (out / "diagnostics_front_bin0.csv").exists()

    def test_bound_note_uses_fit_config_bounds(self, workspace, capsys, monkeypatch):
        # the noise-free optimum has mu_zeta_y near 0.79; a lower bound of 1 holds it there
        bounds = ((1.0, 20.0), *fitting.DEFAULT_BOUNDS[1:])
        monkeypatch.setattr(fitting, "DEFAULT_BOUNDS", bounds)
        tmp_path, paths = workspace
        assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(tmp_path / "out"),
                     "fit", *paths]) == 0
        front_line, note = capsys.readouterr().out.splitlines()[:2]
        assert "mu_zeta_y=1 " in front_line and front_line.endswith("[mu_zeta_y at bound]")
        assert note.startswith("  note: front data poorly constrains")

    def test_holdout_excluding_everything_is_data_error(self, workspace):
        tmp_path, paths = workspace
        out = tmp_path / "out_holdout"
        code = main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out),
                     "fit", *paths, "--holdout", "SYN"])
        assert code == 2  # everything excluded -> data error, no artifacts
        assert not out.exists()

    def test_holdout_matching_no_run_is_config_error(self, workspace, capsys):
        tmp_path, paths = workspace
        out = tmp_path / "out_holdout"
        assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out),
                     "fit", *paths, "--holdout", "NOPE"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --holdout NOPE: no telemetry file has that track (tracks: SYN)\n"
        assert captured.out == "" and not out.exists()

    def test_holdout_split_validates_on_other_track(self, workspace, bob, friction_setup, aero_model):
        tmp_path, paths = workspace
        # one extra run tagged as a different track becomes the holdout
        log = sim.simulate(bob, downhill_track(), weaving_controls(15.0, amplitude_deg=1.0),
                           friction_setup, aero_model, v0=27.0, dt=0.0025, t_max=15.0)
        run, _ = sim.export_synthetic_telemetry(
            log, bob, rate=100.0,
            meta=telemetry.TelemetryMeta(driver="D9", track="OTHER"))
        holdout_path = tmp_path / "holdout.csv"
        telemetry.export_csv(run, holdout_path)
        out = tmp_path / "out_split"
        code = main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out),
                     "fit", *paths, str(holdout_path), "--holdout", "OTHER"])
        assert code == 0
        validation = json.loads((out / "validation_rmse.json").read_text())["runs"]
        assert list(validation) == ["holdout"]
        assert validation["holdout"]["fitted"] < validation["holdout"]["reference"]

    def test_holdout_files_with_one_name_keep_own_entries(self, workspace, bob, friction_setup,
                                                          aero_model):
        tmp_path, paths = workspace
        log = sim.simulate(bob, downhill_track(), weaving_controls(15.0, amplitude_deg=1.0),
                           friction_setup, aero_model, v0=27.0, dt=0.0025, t_max=15.0)
        run, _ = sim.export_synthetic_telemetry(log, bob, rate=100.0)
        holdouts = []
        for name in ("a", "b", "c", "d"):
            # one driver each: a file whose data came before would be refused
            (tmp_path / name).mkdir()
            holdouts.append(str(tmp_path / name / "telemetry.csv"))
            meta = telemetry.TelemetryMeta(driver=f"D9{name}", track="OTHER")
            telemetry.export_csv(telemetry.TelemetryRun(t=run.t, channels=run.channels, meta=meta),
                                 holdouts[-1])
        out = tmp_path / "out_same_names"
        code = main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out),
                     "fit", *paths, *holdouts, "--holdout", "OTHER"])
        assert code == 0
        validation = json.loads((out / "validation_rmse.json").read_text())["runs"]
        assert list(validation) == holdouts

    def test_no_files_is_usage_error(self, tmp_path):
        assert main(["--out-dir", str(tmp_path / "o"), "fit"]) == 1


@pytest.mark.parametrize("rewrite", [
    lambda text: text.replace("\n", "\r\n"),
    lambda text: "".join(line + "\n" if line.startswith("#") else ",".join(reversed(line.split(","))) + "\n"
                         for line in text.splitlines()),
    lambda text: text + "# end of run\n#\n",
], ids=["crlf", "reversed-columns", "trailing-comments"])
def test_fit_outputs_do_not_depend_on_the_file_layout(workspace, capsys, rewrite):
    # the same samples laid out otherwise fit to the same bytes; only the input digests differ
    tmp_path, paths = workspace
    (tmp_path / "rewritten").mkdir()
    rewritten = [str(tmp_path / "rewritten" / Path(path).name) for path in paths]
    for path, copy in zip(paths, rewritten):
        Path(copy).write_bytes(rewrite(Path(path).read_text()).encode())

    def outputs(files, out):
        assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out), "fit", *files]) == 0
        return capsys.readouterr().out, {p.name: [line for line in p.read_bytes().splitlines(keepends=True)
                                                  if b"sha256:" not in line] for p in out.iterdir()}

    original = outputs(paths, tmp_path / "original")
    assert outputs(rewritten, tmp_path / "out") == original
    assert kvfile.file_digest(rewritten[0]) != kvfile.file_digest(paths[0])
    assert {"lateral_front.kv", "lateral_rear.kv", "diagnostics_rear_bin0.csv"} <= set(original[1])


class TestEvalCommand:
    def test_eval_orders_drivers(self, workspace):
        tmp_path, paths = workspace
        out = tmp_path / "eval"
        front = tmp_path / "front.kv"
        rear = tmp_path / "rear.kv"
        kvfile.dump_kv({"mu_zeta_y": LATERAL_FRONT.mu_zeta_y, "c_y": LATERAL_FRONT.c_y,
                        "e_y": LATERAL_FRONT.e_y, "k_y": LATERAL_FRONT.k_y}, front)
        kvfile.dump_kv({"mu_zeta_y": LATERAL_REAR.mu_zeta_y, "c_y": LATERAL_REAR.c_y,
                        "e_y": LATERAL_REAR.e_y, "k_y": LATERAL_REAR.k_y}, rear)
        code = main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out),
                     "eval", *paths, "--front-params", str(front), "--rear-params", str(rear)])
        assert code == 0
        report = json.loads((out / "evaluation.json").read_text())
        assert len(report["runs"]) == 2
        summaries = report["driver_summaries"]
        assert summaries["D1"]["de_ice_f"] > summaries["D0"]["de_ice_f"]
        assert summaries["D1"]["de_tot"] > summaries["D0"]["de_tot"]
        angles = report["angle_statistics"]
        assert angles["D1"]["delta"]["exceedance"]["2.0"] >= angles["D0"]["delta"]["exceedance"]["2.0"]
        assert report["track_summaries"]["SYN"]["de_tot"] > 0
        for written in (paths[0], out / "losses.csv"):
            assert b"\r" not in Path(written).read_bytes()
        angle_rows = [l for l in (out / "angles.csv").read_text().splitlines()
                      if l and not l.startswith("#")]
        assert angle_rows[0].startswith("driver,channel,")
        assert len(angle_rows) == 1 + 2 * 3  # header + 2 drivers x 3 channels

    def test_files_with_one_name_keep_own_run_keys(self, workspace):
        # laid out like runs/<track>_<driver>/telemetry.csv; a run without a
        # driver line is labelled by its key as well
        tmp_path, paths = workspace
        same = []
        for name, source in zip(("a", "b"), paths):
            (tmp_path / name).mkdir()
            same.append(str(tmp_path / name / "telemetry.csv"))
            text = Path(source).read_text()
            Path(same[-1]).write_text(text.replace("# meta driver = D0\n", ""))
        lateral = tmp_path / "lateral.kv"
        kvfile.dump_kv({"mu_zeta_y": LATERAL_REAR.mu_zeta_y, "c_y": LATERAL_REAR.c_y,
                        "k_y": LATERAL_REAR.k_y}, lateral)
        out = tmp_path / "eval_same_names"
        assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out), "eval", *same,
                     "--front-params", str(lateral), "--rear-params", str(lateral)]) == 0
        report = json.loads((out / "evaluation.json").read_text())
        assert [row["run"] for row in report["runs"]] == same
        assert [row["driver"] for row in report["runs"]] == [same[0], "D1"]
        assert list(report["driver_summaries"]) == [same[0], "D1"]

    def test_missing_params_file(self, workspace):
        tmp_path, paths = workspace
        code = main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(tmp_path / "x"),
                     "eval", *paths, "--front-params", str(tmp_path / "nope.kv"),
                     "--rear-params", str(tmp_path / "nope.kv")])
        assert code != 0


@pytest.mark.parametrize("command, message", [
    ("fit", "no usable samples for the front runner fit"),
    ("eval --front-params lat.kv --rear-params lat.kv", "no valid samples to evaluate"),
], ids=["fit", "eval"])
def test_per_run_error_names_the_file(workspace, capsys, command, message):
    # the second file's speed never exceeds v_min (2 m/s), so none of its samples is valid
    tmp_path, paths = workspace
    run = telemetry.ingest_csv(paths[1], telemetry.identity_schema())
    slow = tmp_path / "slow.csv"
    channels = {**run.channels, "v": np.ones(len(run))}
    telemetry.export_csv(telemetry.TelemetryRun(t=run.t, channels=channels, meta=run.meta), slow)
    (tmp_path / "lat.kv").write_text("mu_zeta_y = 2.577\nc_y = 0.024\nk_y = 10522\n")
    argv = [str(tmp_path / arg) if arg == "lat.kv" else arg for arg in command.split()]
    assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(tmp_path / "out"),
                 argv[0], paths[0], str(slow), *argv[1:]]) == 2
    assert capsys.readouterr().err == f"data error: {slow}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_too_few_fit_samples_of_one_file_name_it(workspace, capsys):
    # every sample of the fit comes from the one file, so too few of them is that file's fault
    tmp_path, paths = workspace
    lines = Path(paths[0]).read_text().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    short = tmp_path / "short.csv"
    short.write_text("".join(lines[:header + 21]))
    assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(tmp_path / "out"),
                 "fit", str(short)]) == 2
    assert capsys.readouterr().err == (f"data error: {short}: dataset of 20 samples is too small "
                                       "(need >= 10x parameters)\n")
    assert not (tmp_path / "out").exists()


def test_per_run_config_error_names_the_file(workspace, capsys):
    tmp_path, paths = workspace
    config = tmp_path / "config.ini"
    config.write_text(config.read_text().replace("rate_hz = 100", "rate_hz = 200"))
    assert main(["--config", str(config), "--out-dir", str(tmp_path / "out"), "fit", *paths]) == 1
    assert capsys.readouterr().err == f"error: {paths[0]}: cannot resample 100 Hz data up to 200.0 Hz\n"


@pytest.mark.parametrize("command", ["fit", "eval --front-params lat.kv --rear-params lat.kv"],
                         ids=["fit", "eval"])
def test_telemetry_given_twice_is_config_error(workspace, capsys, command):
    # the same file under another spelling of its path, and a byte-identical copy
    tmp_path, paths = workspace
    (tmp_path / "lat.kv").write_text("mu_zeta_y = 2.577\nc_y = 0.024\nk_y = 10522\n")
    copy = tmp_path / "copy.csv"
    copy.write_bytes(Path(paths[0]).read_bytes())
    argv = [str(tmp_path / arg) if arg == "lat.kv" else arg for arg in command.split()]
    for again in (str(tmp_path / "." / Path(paths[0]).name), str(copy)):
        assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(tmp_path / "out"),
                     argv[0], *paths, again, *argv[1:]]) == 1
        assert capsys.readouterr().err == f"error: {again}: the same data as {paths[0]}; give each run once\n"
        assert not (tmp_path / "out").exists()


class TestParallelPreparation:
    # fit and eval prepare their runs on up to forked.cpus() processes; 2 here makes
    # them fork on any machine. The parent takes file 0 and, of three, file 1; a worker the last

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(forked, "cpus", lambda: 2)

    def lateral_kv(self, tmp_path) -> str:
        path = tmp_path / "lat.kv"
        path.write_text("mu_zeta_y = 2.577\nc_y = 0.024\nk_y = 10522\n")
        return str(path)

    @pytest.mark.parametrize("command", ["fit", "eval"])
    @pytest.mark.parametrize("case", ["nan-last-row-then-missing", "good-slow-missing"])
    def test_first_bad_file_in_input_order_is_reported(self, workspace, capsys, forks, command, case):
        # the later file fails sooner, in another process; the error stays the serial one
        tmp_path, paths = workspace
        missing = str(tmp_path / "missing.csv")
        if case == "nan-last-row-then-missing":
            bad = paths[0]
            lines = Path(bad).read_text().splitlines()
            cells = lines[-1].split(",")
            Path(bad).write_text("\n".join(lines[:-1] + [",".join(cells[:-1] + ["nan"])]) + "\n")
            files = [bad, missing]
            message = f"data error: {bad}: non-finite value at line {len(lines)}\n"
        else:
            run = telemetry.ingest_csv(paths[1], telemetry.identity_schema())
            bad = str(tmp_path / "slow.csv")
            channels = {**run.channels, "v": np.ones(len(run))}
            telemetry.export_csv(telemetry.TelemetryRun(t=run.t, channels=channels, meta=run.meta), bad)
            files = [paths[0], bad, missing]
            message = f"data error: {bad}: " + (
                "no usable samples for the front runner fit" if command == "fit" else
                "no valid samples to evaluate") + "\n"
        lateral = self.lateral_kv(tmp_path)
        extra = [] if command == "fit" else ["--front-params", lateral, "--rear-params", lateral]
        assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(tmp_path / "out"),
                     command, *files, *extra]) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()
        assert len(forks) == 1 and reaped(forks)

    def test_outputs_match_the_serial_run(self, workspace, capsys, monkeypatch, forks, bob,
                                          friction_setup, aero_model):
        tmp_path, paths = workspace
        log = sim.simulate(bob, downhill_track(), weaving_controls(15.0, amplitude_deg=1.0),
                           friction_setup, aero_model, v0=27.0, dt=0.0025, t_max=15.0)
        run, _ = sim.export_synthetic_telemetry(
            log, bob, rate=100.0, meta=telemetry.TelemetryMeta(driver="D9", track="OTHER"))
        telemetry.export_csv(run, tmp_path / "other.csv")
        files = [*paths, str(tmp_path / "other.csv")]
        lateral = self.lateral_kv(tmp_path)
        commands = {"fit": ["fit", *files, "--holdout", "OTHER"],
                    "eval": ["eval", *files, "--front-params", lateral, "--rear-params", lateral]}

        def outputs(tag):
            found = {}
            for name, argv in commands.items():
                out = tmp_path / tag / name
                assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out), *argv]) == 0
                stdout = capsys.readouterr().out.replace(str(out), "OUT")
                found[name] = (stdout, {p.name: p.read_bytes() for p in out.iterdir()})
            return found

        parallel = outputs("parallel")
        # one worker each: fit's preparation, fit's rear runner, eval's preparation
        assert len(forks) == 3 and reaped(forks)
        monkeypatch.setattr(forked, "cpus", lambda: 1)
        assert parallel == outputs("serial")
        assert "validation_rmse.json" in parallel["fit"][1] and len(parallel["eval"][1]) == 3

    @pytest.mark.parametrize("fault", ["fork-fails", "no-spool-file", "no-pipe", "worker-sends-nothing"])
    def test_files_of_a_lost_worker_run_in_the_parent(self, workspace, monkeypatch, forks, fault):
        tmp_path, paths = workspace
        parent, real = os.getpid(), cli._traced_run

        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        def temporary_file():
            raise OSError(errno.ENOSPC, "No space left on device")

        def pipe():
            raise OSError(errno.EMFILE, "Too many open files")

        def traced_run(*args):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args)

        if fault == "fork-fails":
            monkeypatch.setattr(os, "fork", fork)
        elif fault == "no-spool-file":
            monkeypatch.setattr(forked.tempfile, "TemporaryFile", temporary_file)
        elif fault == "no-pipe":
            monkeypatch.setattr(os, "pipe", pipe)
        else:
            monkeypatch.setattr(cli, "_traced_run", traced_run)
        out = tmp_path / "out"
        assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out), "fit", *paths]) == 0
        assert (out / "lateral_rear.kv").exists()
        # a worker that sends nothing still leaves the rear runner's fit to a second one
        assert len(forks) == 2 * (fault == "worker-sends-nothing") and reaped(forks)

    def test_interrupt_stops_the_workers(self, workspace, monkeypatch, forks):
        tmp_path, paths = workspace
        parent, real = os.getpid(), cli._traced_run

        def traced_run(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(cli, "_traced_run", traced_run)
        with pytest.raises(KeyboardInterrupt):
            main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(tmp_path / "out"),
                  "fit", *paths])
        assert len(forks) == 1 and reaped(forks)
        assert not (tmp_path / "out").exists()


def test_one_cpu_affinity_starts_no_worker(workspace, monkeypatch, forks):
    # as under `taskset -c 0` on a 2-CPU machine: the affinity set counts, not the machine
    tmp_path, paths = workspace
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert forked.cpus() == 1
    out = tmp_path / "out"
    assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out), "fit", *paths]) == 0
    assert (out / "lateral_rear.kv").exists()
    assert forks == []


class TestParallelRunnerFits:
    # with forked.cpus() at 2, fit fits the front runner in the parent and the
    # rear runner in a worker, after a first worker has prepared the last file

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(forked, "cpus", lambda: 2)

    @pytest.fixture
    def files(self, workspace, bob, friction_setup, aero_model):
        """The workspace runs and a third run on another track, held out as OTHER."""
        tmp_path, paths = workspace
        log = sim.simulate(bob, downhill_track(), weaving_controls(15.0, amplitude_deg=1.0),
                           friction_setup, aero_model, v0=27.0, dt=0.0025, t_max=15.0)
        run, _ = sim.export_synthetic_telemetry(
            log, bob, rate=100.0, meta=telemetry.TelemetryMeta(driver="D9", track="OTHER"))
        telemetry.export_csv(run, tmp_path / "other.csv")
        return tmp_path, [*paths, str(tmp_path / "other.csv")]

    @staticmethod
    def fit_lateral_logged(monkeypatch, log: Path, fail_rear: bool = False) -> None:
        """Have fitting.fit_lateral append "runner pid" to ``log``, and fail the rear runner if asked."""
        real = fitting.fit_lateral

        def fit_lateral(dataset):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{dataset.runner} {os.getpid()}\n")
            if fail_rear and dataset.runner == "rear":
                raise DataError("no rear fit here")
            return real(dataset)

        monkeypatch.setattr(fitting, "fit_lateral", fit_lateral)

    def test_holdout_fit_matches_one_cpu(self, files, capsys, monkeypatch, forks):
        tmp_path, paths = files
        log = tmp_path / "fitted_by.txt"
        self.fit_lateral_logged(monkeypatch, log)

        def outputs(out):
            assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out),
                         "fit", *paths, "--holdout", "OTHER"]) == 0
            stdout = capsys.readouterr().out
            fitted_by = log.read_text().splitlines()
            log.unlink()
            return stdout, {p.name: p.read_bytes() for p in out.iterdir()}, fitted_by

        stdout, written, fitted_by = outputs(tmp_path / "two")
        assert len(forks) == 2 and reaped(forks)
        assert sorted(fitted_by) == [f"front {os.getpid()}", f"rear {forks[1]}"]
        monkeypatch.setattr(forked, "cpus", lambda: 1)
        assert outputs(tmp_path / "one") == (stdout, written, [f"front {os.getpid()}", f"rear {os.getpid()}"])
        assert {"validation_rmse.json", "diagnostics_front_bin0.csv", "diagnostics_rear_bin0.csv"} <= set(written)

    def test_a_failing_rear_fit_fails_as_in_one_process(self, workspace, capsys, monkeypatch, forks):
        # the worker's rear fit fails; the parent fits the rear runner again and raises
        tmp_path, paths = workspace
        log = tmp_path / "fitted_by.txt"
        self.fit_lateral_logged(monkeypatch, log, fail_rear=True)
        errors = []
        for cpus in (2, 1):
            monkeypatch.setattr(forked, "cpus", lambda n=cpus: n)
            out = tmp_path / f"out{cpus}"
            assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out), "fit", *paths]) == 2
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors == ["data error: no rear fit here\n"] * 2
        assert len(forks) == 2 and reaped(forks)
        # with two CPUs the first two lines may come in either order
        parent, lines = os.getpid(), log.read_text().splitlines()
        assert sorted(lines[:2]) == [f"front {parent}", f"rear {forks[1]}"]
        assert lines[2:] == [f"rear {parent}", f"front {parent}", f"rear {parent}"]

    def test_provenance_headers_hash_the_inputs(self, files):
        tmp_path, paths = files
        fits, report = tmp_path / "fits", tmp_path / "report"
        config = ["--config", str(tmp_path / "config.ini")]
        assert main([*config, "--out-dir", str(fits), "fit", *paths, "--holdout", "OTHER"]) == 0
        assert main([*config, "--out-dir", str(report), "eval", *paths,
                     "--front-params", str(fits / "lateral_front.kv"),
                     "--rear-params", str(fits / "lateral_rear.kv")]) == 0
        fit_header = kvfile.provenance_lines(paths[:2], {"roll_threshold": 100.0})
        eval_header = kvfile.provenance_lines(paths, {"mu_x": MU_X_DEFAULT})

        def comments(path):
            return [line[2:] for line in path.read_text().splitlines() if line.startswith("# ")]

        assert comments(fits / "lateral_front.kv") == comments(fits / "lateral_rear.kv") == fit_header
        assert comments(fits / "diagnostics_rear_bin0.csv") == fit_header
        assert json.loads((fits / "validation_rmse.json").read_text())["provenance"] == fit_header
        assert json.loads((report / "evaluation.json").read_text())["provenance"] == eval_header
        assert comments(report / "losses.csv") == comments(report / "angles.csv") == eval_header


def test_mirrored_runs_lose_the_same_energy(workspace, bob, friction_setup, aero_model):
    # a weave and its mirror image (delta and gamma negated) with l_y = 0: every
    # loss number of the two eval rows is equal, bit for bit
    tmp_path, _ = workspace
    assert bob.offset.l_y == 0.0
    controls = weaving_controls(15.0, gamma_amp_deg=3.0)
    files = []
    for name, sign in (("weave", 1.0), ("mirror", -1.0)):
        lines = ControlTrace(t=controls.t, delta=sign * controls.delta, gamma=sign * controls.gamma)
        log = sim.simulate(bob, corner_track(), lines, friction_setup, aero_model,
                           v0=25.0, dt=0.0025, t_max=15.0)
        run, _ = sim.export_synthetic_telemetry(
            log, bob, rate=100.0, meta=telemetry.TelemetryMeta(driver=name, track="SYN"))
        files.append(str(tmp_path / f"{name}.csv"))
        telemetry.export_csv(run, files[-1])
    (tmp_path / "lat.kv").write_text("mu_zeta_y = 2.577\nc_y = 0.024\nk_y = 10522\n")
    out = tmp_path / "out"
    assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out), "eval", *files,
                 "--front-params", str(tmp_path / "lat.kv"), "--rear-params", str(tmp_path / "lat.kv")]) == 0
    weave, mirror = json.loads((out / "evaluation.json").read_text())["runs"]
    assert (weave["driver"], mirror["driver"]) == ("weave", "mirror")
    numbers = ("e_tot_loss", "de_ice_f", "de_ice_r", "de_aero", "de_tot", "runtime", "distance",
               "segments")
    assert [weave[k] for k in numbers] == [mirror[k] for k in numbers]
    assert weave["de_ice_f"] > 0 and weave["de_ice_r"] > 0
    rows = read_table(out / "losses.csv").data
    assert rows.shape == (2, 4) and rows[0].tobytes() == rows[1].tobytes()


class TestSimulateCommand:
    def scenario(self, tmp_path):
        scenario = {
            "track": {"s": [0.0, 2000.0], "kappa": [0.07, 0.07], "inv_r_y": [0.0, 0.0],
                      "n": [1.0, 1.0]},
            "controls": {"t": [0.0, 5.0, 5.5, 15.0],
                         "delta": [0.0, 0.0, 0.0175, 0.0175], "gamma": [0.0, 0.0, 0.0, 0.0]},
            "initial": {"v0": 25.0},
            "sim": {"dt": 0.0025, "t_max": 15.0},
            "meta": {"driver": "SIM", "track": "SYN", "rate_hz": 100.0},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        return path

    def test_simulate_writes_consistent_outputs(self, workspace):
        tmp_path, _ = workspace
        out = tmp_path / "sim_out"
        code = main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out),
                     "simulate", str(self.scenario(tmp_path))])
        assert code == 0
        run = telemetry.ingest_csv(out / "telemetry.csv", telemetry.identity_schema())
        assert run.native_rate() == pytest.approx(100.0, rel=1e-6)
        first = (out / "telemetry.csv").read_text().splitlines()[0]
        assert first.startswith("# sleddyn")  # provenance header
        assert (out / "truth.csv").exists()

    def test_interrupted_edge_rows_leave_no_worker_and_no_file(self, tmp_path, monkeypatch, bob, forks):
        # the stream worker formats most telemetry.csv rows; the parent is interrupted formatting the first it left
        monkeypatch.setattr(forked, "cpus", lambda: 2)
        parent, real = os.getpid(), tables._rows_text

        def rows_text(rows):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(rows)

        monkeypatch.setattr(tables, "_rows_text", rows_text)
        save_bob_params(bob, tmp_path / "bob.kv")
        (tmp_path / "config.ini").write_text("[paths]\nbob_params = bob.kv\n")
        scenario = self.scenario(tmp_path)
        before = set(tmp_path.rglob("*"))
        with pytest.raises(KeyboardInterrupt):
            main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(tmp_path / "out"),
                  "simulate", str(scenario)])
        assert len(forks) == 1 and reaped(forks)
        assert set(tmp_path.rglob("*")) == before  # no out/, no staging directory

    def test_non_finite_state_is_numerical_failure(self, tmp_path, capsys, monkeypatch, bob,
                                                   friction_setup):
        real_step, calls = sim.step, []

        def step(state, *args):
            calls.append(None)
            new = real_step(state, *args)
            return new if len(calls) < 5 else new[:4] + (float("nan"),)

        monkeypatch.setattr(sim, "step", step)
        with pytest.raises(NumericalError, match=r"non-finite simulator state at t = 0\.05 s"):
            sim.simulate(bob, straight_track(1000.0), zero_controls(1.0), friction_setup,
                         dt=0.01, t_max=1.0)
        save_bob_params(bob, tmp_path / "bob.kv")
        (tmp_path / "config.ini").write_text("[paths]\nbob_params = bob.kv\n")
        scenario = self.scenario(tmp_path)
        before = set(tmp_path.rglob("*"))
        assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(tmp_path / "out"),
                     "simulate", str(scenario)]) == 3
        err = capsys.readouterr().err
        assert "non-finite simulator state" in err and "Traceback" not in err
        assert set(tmp_path.rglob("*")) == before

    def test_overflow_is_numerical_failure(self, tmp_path, capsys, monkeypatch, bob):
        def step(*args):
            raise OverflowError(34, "Numerical result out of range")

        monkeypatch.setattr(sim, "step", step)
        save_bob_params(bob, tmp_path / "bob.kv")
        (tmp_path / "config.ini").write_text("[paths]\nbob_params = bob.kv\n")
        scenario = self.scenario(tmp_path)
        before = set(tmp_path.rglob("*"))
        assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(tmp_path / "out"),
                     "simulate", str(scenario)]) == 3
        assert capsys.readouterr().err == "numerical failure: (34, 'Numerical result out of range')\n"
        assert set(tmp_path.rglob("*")) == before

    def test_huge_t_max_ends_at_track_end(self, workspace, capsys):
        tmp_path, _ = workspace
        scenario = {"track": {"s": [0.0, 150.0], "kappa": [0.07, 0.07], "inv_r_y": [0.0, 0.0],
                              "n": [1.0, 1.0]},
                    "controls": {"t": [0.0, 1.0], "delta": [0.0, 0.0], "gamma": [0.0, 0.0]},
                    "initial": {"v0": 20.0}, "sim": {"dt": 0.002, "t_max": 1e9}}
        (tmp_path / "long.json").write_text(json.dumps(scenario))
        out = tmp_path / "out"
        assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out),
                     "simulate", str(tmp_path / "long.json")]) == 0
        assert capsys.readouterr().err == ""
        t, s = read_table(out / "truth.csv", ["t", "s"]).data[-1]
        assert t < 10.0 and 140.0 < s < 150.0

    def test_determinism_with_seed(self, workspace):
        tmp_path, _ = workspace
        scenario_path = self.scenario(tmp_path)
        scenario = json.loads(scenario_path.read_text())
        scenario["noise"] = {"a_y": 0.05}
        scenario_path.write_text(json.dumps(scenario))
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out),
                         "--seed", "7", "simulate", str(scenario_path)]) == 0
            outs.append((out / "telemetry.csv").read_text())
        assert outs[0] == outs[1]

    def test_lateral_params_files_replace_built_in_laws(self, tmp_path, bob):
        save_bob_params(bob, tmp_path / "bob.kv")
        (tmp_path / "config.ini").write_text("[paths]\nbob_params = bob.kv\n")
        scenario = str(self.scenario(tmp_path))
        laws = {"front": LATERAL_FRONT, "rear": LATERAL_REAR,
                    "stiff_rear": dataclasses.replace(LATERAL_REAR, k_y=2 * LATERAL_REAR.k_y)}
        for name, law in laws.items():
            kvfile.dump_kv(dataclasses.asdict(law), tmp_path / f"{name}.kv")

        def outputs(name, *params):
            out = tmp_path / name
            assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(out),
                         "simulate", scenario, *params]) == 0
            return {file: (out / file).read_text().splitlines() for file in ("telemetry.csv", "truth.csv")}

        def data_rows(lines):
            return [line for line in lines if not line.startswith("#")]

        default = outputs("default")
        front = ["--front-params", str(tmp_path / "front.kv")]
        same = outputs("same", *front, "--rear-params", str(tmp_path / "rear.kv"))
        for file, lines in same.items():
            assert data_rows(lines) == data_rows(default[file])
            for name in ("front", "rear"):
                assert f"# input {name}.kv sha256:{kvfile.file_digest(tmp_path / f'{name}.kv')}" in lines
                assert f"# param {name}_params = {name}.kv" in lines
        outputs("stiff", *front, "--rear-params", str(tmp_path / "stiff_rear.kv"))
        f_y_r = [read_table(tmp_path / name / "truth.csv", ["f_y_r"]).data for name in ("default", "stiff")]
        assert not np.array_equal(*f_y_r)


class TestIcehouseCommand:
    def test_points_file_fit(self, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("\n".join(
            f"{p},{mu}" for p, mu in [
                (7.7, 4.5e-3), (8.6, 3.8e-3), (13.6, 4.2e-3), (16.0, 4.6e-3),
                (10.9, 3.0e-3), (11.8, 2.7e-3), (9.6, 3.3e-3),
            ]))
        out = tmp_path / "ice"
        code = main(["--out-dir", str(out), "icehouse", "--points", str(points)])
        assert code == 0
        report = kvfile.load_kv(out / "friction_report.kv")
        assert float(report["quadratic.b_x"]) == pytest.approx(0.088, rel=0.10)
        assert 10.0 <= float(report["quadratic.vertex_pressure"]) <= 12.5

    @pytest.mark.parametrize("line", ["12.5", "12.5,high"])
    def test_bad_points_line_is_data_error(self, tmp_path, capsys, line):
        points = tmp_path / "points.csv"
        points.write_text(f"# p, mu\n7.7,4.5e-3\n{line}\n8.6,3.8e-3\n")
        out = tmp_path / "ice"
        assert main(["--out-dir", str(out), "icehouse", "--points", str(points)]) == 2
        err = capsys.readouterr().err
        assert "points.csv:3:" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["nan,4.2e-3", "12.5 inf"], ids=["nan-pressure", "inf-mu"])
    def test_non_finite_points_cell_is_data_error(self, tmp_path, capsys, line):
        points = tmp_path / "points.csv"
        points.write_text(f"# p, mu\n7.7,4.5e-3\n{line}\n8.6,3.8e-3\n13.6,4.2e-3\n")
        out = tmp_path / "ice"
        assert main(["--out-dir", str(out), "icehouse", "--points", str(points)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {points}:3: non-finite value in the (pressure, mu) pair {line!r}\n")
        assert not out.exists()

    def test_bidirectional_glides(self, tmp_path):
        # synthetic pair with a hidden slope; analysis assumes level ice
        from test_icehouse import simulated_glide

        for i, direction in enumerate(("down", "up")):
            run = simulated_glide(mu=0.004, slope=np.deg2rad(0.12), direction=direction)
            n = run.s.size
            t = np.linspace(0.0, n / 100.0, n)
            icehouse.save_glide_csv(t, run.v, tmp_path / f"g{i}.csv", meta={
                "m": 100.0, "p_air": 94700.0, "temperature": 275.15, "cx_ax": 0.0,
                "direction": direction, "specimen": "S1",
            })
        out = tmp_path / "ice2"
        code = main(["--out-dir", str(out), "icehouse",
                     str(tmp_path / "g0.csv"), str(tmp_path / "g1.csv")])
        assert code == 0
        report = kvfile.load_kv(out / "friction_report.kv")
        assert float(report["specimen.S1.mu"]) == pytest.approx(0.004, abs=1e-4)

    def test_glide_files_with_one_name_keep_own_entries(self, tmp_path):
        from test_icehouse import simulated_glide

        paths = []
        for direction in ("down", "up"):
            run = simulated_glide(mu=0.004, direction=direction)
            t = np.linspace(0.0, run.s.size / 100.0, run.s.size)
            (tmp_path / direction).mkdir()
            paths.append(str(tmp_path / direction / "glide.csv"))
            icehouse.save_glide_csv(t, run.v, paths[-1], meta={
                "m": 100.0, "p_air": 94700.0, "temperature": 275.15, "cx_ax": 0.0,
                "direction": direction, "specimen": "S1",
            })
        out = tmp_path / "ice"
        assert main(["--out-dir", str(out), "icehouse", *paths]) == 0
        report = kvfile.load_kv(out / "friction_report.kv")
        assert sorted(k for k in report if k.endswith(".mu") and k.startswith("run.")) == \
            [f"run.{p}.mu" for p in paths]

    def test_single_direction_is_error(self, tmp_path):
        from test_icehouse import simulated_glide

        run = simulated_glide(mu=0.004)
        n = run.s.size
        t = np.linspace(0.0, n / 100.0, n)
        icehouse.save_glide_csv(t, run.v, tmp_path / "only.csv", meta={
            "m": 100.0, "p_air": 94700.0, "temperature": 275.15, "cx_ax": 0.0,
            "direction": "down", "specimen": "S1",
        })
        assert main(["--out-dir", str(tmp_path / "x"), "icehouse", str(tmp_path / "only.csv")]) == 2


class TestFrictionTableCommand:
    def test_curves(self, tmp_path):
        long_kv = tmp_path / "long.kv"
        kvfile.dump_kv({"b_x": 0.088, "c_x": 2.01, "d_x": 14.66, "e_x": 0.007, "zeta_x": 1.0}, long_kv)
        lat_kv = tmp_path / "lat.kv"
        kvfile.dump_kv({"mu_zeta_y": 2.577, "c_y": 0.024, "e_y": 0.99, "k_y": 10522.0}, lat_kv)
        out = tmp_path / "curves"
        code = main(["--out-dir", str(out), "friction-table",
                     "--long-params", str(long_kv), "--lateral-params", str(lat_kv),
                     "--p-range", "6:18:0.1"])
        assert code == 0
        rows = [l for l in (out / "mu_x_curve.csv").read_text().splitlines() if not l.startswith("#")]
        data = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
        vertex = data[np.argmin(data[:, 1]), 0]
        assert vertex == pytest.approx(11.4, abs=0.15)
        lat_rows = [l for l in (out / "lateral_curves.csv").read_text().splitlines() if not l.startswith("#")]
        assert lat_rows[0].split(",")[0] == "alpha_deg"
        assert len(lat_rows[0].split(",")) == 7  # alpha + 3 fitted + 3 reference curves

    def test_zero_width_range(self, tmp_path):
        long_kv = tmp_path / "long.kv"
        kvfile.dump_kv({"b_x": 0.088, "c_x": 2.01, "d_x": 14.66}, long_kv)
        out = tmp_path / "one"
        assert main(["--out-dir", str(out), "friction-table", "--long-params", str(long_kv),
                     "--p-range", "10:10:1"]) == 0
        rows = [l for l in (out / "mu_x_curve.csv").read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 2  # header + single point

    def test_no_inputs_usage_error(self, tmp_path):
        assert main(["--out-dir", str(tmp_path / "x"), "friction-table"]) == 1

    def test_fractional_loads_keep_own_columns(self, tmp_path):
        lat_kv = tmp_path / "lat.kv"
        kvfile.dump_kv({"mu_zeta_y": 2.577, "c_y": 0.024, "k_y": 10522.0}, lat_kv)
        out = tmp_path / "curves"
        assert main(["--out-dir", str(out), "friction-table", "--lateral-params", str(lat_kv),
                     "--f-z", "2000.2", "2000.7", "5000", "0.5"]) == 0
        header = read_table(out / "lateral_curves.csv").header
        assert header[1:] == [f"f_y{kind}_at_{load}N" for load in ("2000.2", "2000.7", "5000", "0.5")
                              for kind in ("", "_reference")]


def scenario_text(section=None, key=None, value=None) -> str:
    """A valid simulate scenario, with ``raw[section][key] = value`` when a section is given."""
    raw = {"track": {"s": [0.0, 1000.0], "kappa": [0.07, 0.07], "inv_r_y": [0.0, 0.0], "n": [1.0, 1.0]},
           "controls": {"t": [0.0, 1.0], "delta": [0.0, 0.0], "gamma": [0.0, 0.0]},
           "initial": {"v0": 25.0}, "sim": {"dt": 0.005, "t_max": 0.2},
           "meta": {"rate_hz": 100.0}, "noise": {"a_y": 0.05}}
    if section is not None:
        raw[section][key] = value
    return json.dumps(raw)


class TestBadInputFiles:
    BOB = "m = 390\nj_yy = 350\nj_zz = 850\nl_f = 1.7\nl_r = 1.3\ncx_ax = 0.2\n"
    CONFIG = "[paths]\nbob_params = bob.kv\n"
    SIMULATE = {"config.ini": CONFIG, "bob.kv": BOB, "scenario.json": scenario_text()}
    SCHEMA = {"columns": telemetry.identity_schema().columns}
    SCHEMA_CONFIG = {"schema.ini": "[paths]\nschema = schema.json\n"}
    GLIDE = "# m = 100\n# p_air = 94700\n# temperature = 275.15\n# cx_ax = 0\n# direction = up\nt,v\n0,2\n"
    # five samples at 100 Hz: fewer than the 20 Hz low-pass filter pads at each end
    SHORT_RUN = (",".join(("t", *telemetry.CORE_CHANNELS)) + "\n"
                 + "".join(f"{0.01 * i:.2f},0,0,-9.81,0,0,0,25,0,0,0\n" for i in range(5)))
    # 40 samples at 100 Hz, the last at t = 1e12 s: a resampled grid that numpy refuses at once
    FAR_RUN = (",".join(("t", *telemetry.CORE_CHANNELS)) + "\n"
               + "".join(f"{t},0,0,-9.81,0,0,0,25,0,0,0\n" for t in [f"{0.01 * i:.2f}" for i in range(39)] + ["1e12"]))
    # the same run ending at 1e20 s, a grid too large for numpy to count, and at 1e307 s, a grid of inf samples
    FARTHER_RUN, FARTHEST_RUN = FAR_RUN.replace("\n1e12,", "\n1e20,"), FAR_RUN.replace("\n1e12,", "\n1e307,")
    UNFILTERED = CONFIG + "[processing]\ncutoff_hz = 0\n"
    # a_y at +-1.7e308 from the first sample on: the low-pass filter's odd reflection overflows at both ends
    HUGE_RUN = (",".join(("t", *telemetry.CORE_CHANNELS)) + "\n"
                + "".join(f"{0.01 * i:.2f},0,{(-1) ** i * 1.7e308!r},-9.81,0,0,0,25,0,0,0\n" for i in range(40)))

    @pytest.mark.parametrize("argv, name, text, where", [
        ("friction-table --long-params FILE", "long.kv", "b_x 0.088\nc_x = 2\nd_x = 14\n",
         "long.kv:1:"),
        ("--config FILE icehouse", "config.ini", BOB.replace("390", "abc"), "bob.kv: m = 'abc'"),
        ("friction-table --long-params FILE", "long.kv", "b_x = 0.088\nc_x = two\nd_x = 14\n",
         "long.kv: c_x = 'two'"),
        ("friction-table --lateral-params FILE", "lat.kv", "mu_zeta_y = 2\nc_y = 0.02\nk_y = 1e4x\n",
         "lat.kv:"),
        ("icehouse FILE", "glide.csv", "# m = 100\nt,v\n0,2\xff\n", "glide.csv: not UTF-8"),
    ], ids=["kv-no-equals", "bob-not-number", "long-not-number", "lateral-not-number", "non-utf8-table"])
    def test_bad_file_is_data_error(self, tmp_path, capsys, argv, name, text, where):
        if name == "config.ini":
            (tmp_path / "bob.kv").write_text(text)
            text = "[paths]\nbob_params = bob.kv\n"
        (tmp_path / name).write_bytes(text.encode("latin-1"))
        argv = [str(tmp_path / name) if arg == "FILE" else arg for arg in argv.split()]
        assert main(["--out-dir", str(tmp_path / "out"), *argv]) == 2
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err

    LONG = "b_x = 0.088\nc_x = 2.01\nd_x = 14.66\n"
    LAT = "mu_zeta_y = 2.577\nc_y = 0.024\nk_y = 10522\n"

    @pytest.mark.parametrize("code, argv, files, where", [
        (1, "friction-table --long-params long.kv --p-range 6:18", {"long.kv": LONG},
         "--p-range"),
        (1, "friction-table --long-params long.kv --p-range 6:18:0", {"long.kv": LONG},
         "--p-range"),
        (1, "friction-table --long-params long.kv --p-range 6:18:1e-12", {"long.kv": LONG},
         "--p-range must be lo:hi:step in MPa with lo > 0, step > 0 and at most 1000000 steps"),
        (1, "friction-table --lateral-params lat.kv --f-z 2000 0", {"lat.kv": LAT}, "--f-z"),
        (1, "friction-table --lateral-params lat.kv --alpha-max-deg nan", {"lat.kv": LAT},
         "--alpha-max-deg must be positive and finite, got nan"),
        (1, "friction-table --lateral-params lat.kv --alpha-max-deg inf", {"lat.kv": LAT},
         "--alpha-max-deg must be positive and finite, got inf"),
        (1, "friction-table --lateral-params lat.kv --alpha-max-deg 0", {"lat.kv": LAT},
         "--alpha-max-deg must be positive and finite, got 0.0"),
        (1, "friction-table --lateral-params lat.kv --f-z 2000 5000 2000.0", {"lat.kv": LAT},
         "--f-z loads must differ"),
        # finite options whose curves overflow: one line each, not numpy's warnings and inf or nan cells
        (1, "friction-table --lateral-params lat.kv --alpha-max-deg 1e308", {"lat.kv": LAT},
         "error: the curves at --f-z [2000.0, 5000.0, 10000.0] with --alpha-max-deg 1e+308 are not finite"),
        (1, "friction-table --lateral-params lat.kv --f-z 1e-320", {"lat.kv": LAT},
         "error: the curves at --f-z [1e-320] with --alpha-max-deg 6.0 are not finite"),
        (1, "friction-table --lateral-params lat.kv --f-z 1e308", {"lat.kv": LAT},
         "error: the curves at --f-z [1e+308] with --alpha-max-deg 6.0 are not finite"),
        (1, "friction-table --long-params long.kv --p-range 1e300:1e308:1e307", {"long.kv": LONG},
         "error: the curves at --p-range 1e300:1e308:1e307 are not finite"),
        (2, "--config config.ini icehouse",
         {"config.ini": "[paths]\nbob_params = bob.kv\n", "bob.kv": BOB.replace("390", "-390")},
         "bob.kv: m must be positive"),
        (2, "friction-table --long-params long.kv", {"long.kv": LONG.replace("0.088", "0")},
         "long.kv: b_x must be positive"),
        (2, "friction-table --lateral-params lat.kv", {"lat.kv": LAT.replace("0.024", "3")},
         "lat.kv: shape factor c_y"),
        (2, "friction-table --long-params long.kv --lateral-params lat.kv",
         {"long.kv": LONG, "lat.kv": LAT.replace("0.024", "3")}, "lat.kv: shape factor c_y"),
        (1, "--config schema.ini simulate scenario.json",
         {**SCHEMA_CONFIG,
          "schema.json": '{"columns": {"t": "t", "a_x": "a_x", "a_y": "a_y", "a_z": "a_z", '
                         '"phi_dot": "phi_dot", "theta_dot": "theta_dot", "psi_dot": "psi_dot", '
                         '"v": "v", "alpha_sensor": "alpha_sensor", "delta": "delta", '
                         '"gamma": "delta"}}'},
         "several channels to one column: delta"),
        (1, "icehouse", {}, "nothing to do"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("initial", "v0", "fast")},
         "bad scenario value"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("track", "kappa", [0.07, "steep"])},
         "bad scenario value"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("noise", "a_y", "loud")},
         "bad scenario value"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("sim", "dt", 0)},
         "sim.dt must be positive"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("meta", "rate_hz", 0)},
         "meta.rate_hz must be positive"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("sim", "dt", -0.001)},
         "sim.dt must be positive"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": "[1, 2]"},
         "a scenario is a JSON object"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("initial", "v0", float("nan"))},
         "scenario.json: initial.v0 must be finite, got nan"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("initial", "beta0", float("inf"))},
         "scenario.json: initial.beta0 must be finite, got inf"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("initial", "psi_dot0", float("-inf"))},
         "scenario.json: initial.psi_dot0 must be finite, got -inf"),
        (3, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("initial", "v0", 1e200)},
         "numerical failure: non-finite simulator state"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("initial", "v0", -3)},
         "scenario.json: initial speed below the stop threshold"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("sim", "dt", 0.02)},
         "scenario.json: dt = 0.02 exceeds the 0.01 s stability bound"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("track", "s", [0.0, 0.01])},
         "scenario.json: the run stopped by track_end at t = 0 s, which exports 1 sample at 100 Hz"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("sim", "t_max", 0.005)},
         "scenario.json: the run stopped by t_max at t = 0.005 s, which exports 1 sample at 100 Hz"),
        (2, "icehouse glide.csv", {"glide.csv": GLIDE.replace("m = 100", "m = abc")},
         "glide.csv: bad glide metadata"),
        (2, "icehouse glide.csv", {"glide.csv": GLIDE.replace("94700", "-5")},
         "glide.csv: bad glide metadata: ambient pressure"),
        (2, "icehouse glide.csv", {"glide.csv": GLIDE.replace("m = 100", "m = 0")},
         "mass m must be positive"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "config.ini": CONFIG + "[aero]\np_air = -5\n"},
         "ambient pressure must be positive"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "config.ini": CONFIG + "[aero]\nyaw_sensitivity = -1\n"},
         "yaw sensitivity must be non-negative"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "config.ini": CONFIG + "[processing]\nrate_hz = 0\n"},
         "rate_hz must be positive"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "config.ini": CONFIG + "[processing]\nrate_hz = -100\n"},
         "rate_hz must be positive"),
        (2, "--config config.ini simulate scenario.json",
         {**SIMULATE, "bob.kv": BOB.encode() + b"l_x = 0.5\xff\n"}, "bob.kv: not UTF-8 text"),
        (2, "friction-table --lateral-params lat.kv", {"lat.kv": LAT.encode() + b"\xff\n"},
         "lat.kv: not UTF-8 text"),
        (2, "friction-table --long-params long.kv", {"long.kv": b"\xff" + LONG.encode()},
         "long.kv: not UTF-8 text"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "config.ini": CONFIG.encode() + b"# \xe9t\xe9\n"}, "config.ini: not UTF-8 text"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text().encode() + b"\xff"},
         "scenario.json: not UTF-8 text"),
        (1, "--config schema.ini simulate scenario.json",
         {**SCHEMA_CONFIG, "schema.json": b'{"columns": {"t": "\xb0"}}'},
         "schema.json: not UTF-8 text"),
        (2, "icehouse --points points.csv", {"points.csv": b"7.7,4.5e-3\n8.6,3.8e-3\xff\n"},
         "points.csv: not UTF-8 text"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "config.ini": "bob_params = bob.kv\n"}, "config.ini: File contains no section headers"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "config.ini": CONFIG + "[paths]\nschema = schema.json\n"},
         "config.ini' [line  3]: section 'paths' already exists"),
        (1, "--config schema.ini simulate scenario.json",
         {**SCHEMA_CONFIG, "schema.json": '{"columns": ["t", "v"]}'},
         "schema.json: dictionary update sequence"),
        (1, "--config schema.ini simulate scenario.json", {**SCHEMA_CONFIG, "schema.json": '{"columns": 3}'},
         "schema.json: 'int' object is not iterable"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("track", "s", [1000.0, 0.0])},
         "scenario.json: bad scenario value: track breakpoints must be strictly increasing"),
        (2, "icehouse glide.csv", {"glide.csv": GLIDE.replace("m = 100", "m = 0")},
         "glide.csv: mass m must be positive"),
        (2, "--config config.ini simulate scenario.json",
         {**SIMULATE, "bob.kv": BOB + "l_x = inf\n"}, "bob.kv: sensor offset l_x must be finite"),
        (1, "--config schema.ini simulate scenario.json",
         {**SCHEMA_CONFIG, "schema.json": json.dumps({"columns": {**SCHEMA["columns"], "gamma": "delta"}})},
         "schema.json: schema maps several channels to one column: delta"),
        (1, "--config schema.ini simulate scenario.json",
         {**SCHEMA_CONFIG, "schema.json": json.dumps({**SCHEMA, "angle_unit": "grad"})},
         "schema.json: angle_unit must be 'rad' or 'deg'"),
        (1, "friction-table --alpha-max-deg abc", {},
         "error: sleddyn friction-table: argument --alpha-max-deg: invalid float value"),
        (1, "fit run.csv --bogus", {}, "error: sleddyn: unrecognized arguments: --bogus"),
        (1, "nosuch", {}, "error: sleddyn: argument command: invalid choice: 'nosuch'"),
        (1, "eval run.csv", {}, "error: sleddyn eval: the following arguments are required"),
        (2, "icehouse glide.csv", {"glide.csv": GLIDE + "inf,1.9\n0.2,1.8\n"}, "glide.csv: non-finite value at line 8"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "config.ini": CONFIG + "[processing]\ncutof_hz = 5\n"},
         "config.ini: [processing] cutof_hz is not supported"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "config.ini": CONFIG + "[procesing]\ncutoff_hz = 5\n"},
         "config.ini: [procesing] cutoff_hz is not supported"),
        (1, "fit run.csv --rate 200", {}, "error: sleddyn: unrecognized arguments: --rate 200"),
        (1, "simulate scenario.json --schema schema.json", {},
         "error: sleddyn: unrecognized arguments: --schema schema.json"),
        (1, "fit run.csv --cutoff 5", {}, "error: sleddyn: unrecognized arguments: --cutoff 5"),
        (1, "fit run.csv --roll-threshold 50", {}, "error: sleddyn: unrecognized arguments: --roll-threshold 50"),
        (1, "icehouse --window 0.5", {}, "error: sleddyn: unrecognized arguments: --window"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "config.ini": CONFIG + "[processing]\nroll_threshold_deg_s2 = 0\n"},
         "roll_threshold_deg_s2 must be positive and finite, got 0.0"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "config.ini": CONFIG + "[processing]\nroll_threshold_deg_s2 = nan\n"},
         "roll_threshold_deg_s2 must be positive and finite, got nan"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "config.ini": CONFIG + "[processing]\nwindow_fraction = 2\n"},
         "window_fraction must be in (0, 1], got 2.0"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "config.ini": CONFIG + "[processing]\nmu_x = -1\n"}, "mu_x must be in [0, 1], got -1.0"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "config.ini": CONFIG + "[processing]\nv_min = -1\n"},
         "v_min must be non-negative and finite, got -1.0"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "config.ini": CONFIG + "[processing]\ncutoff_hz = inf\n"},
         "cutoff_hz must be non-negative and finite"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "config.ini": "[paths]\nbob_params = bob.kv\n[processing]\nrate_hz = 0\n"},
         "config.ini: [processing] rate_hz must be positive and finite, got 0.0"),
        (1, "--config config.ini simulate scenario.json", {**SIMULATE, "config.ini": "[processing]\nmu_x = 0\n"},
         "config.ini: this command needs bob parameters"),
        (2, "icehouse --points points.csv", {"points.csv": "7.7,4.5e-3\n8.6,3.8e-3\n"},
         "points.csv: need at least 3 (p, mu) pairs"),
        (2, "icehouse --points points.csv", {"points.csv": "7,1e-3\n10,5e-3\n13,1e-3\n"},
         "points.csv: the points give no convex quadratic"),
        (2, "icehouse glide.csv", {"glide.csv": GLIDE + "0.1,1.9\n0.2,1.8\n"},
         "glide.csv: only 1 samples inside the fit window, need 20"),
        (2, "icehouse glide.csv",
         {"glide.csv": GLIDE + "".join(f"{0.1 * i:.1f},{2 - 0.01 * i:.2f}\n" for i in range(1, 50))},
         "glide.csv: specimen 'glide' needs runs in both directions"),
        (1, "--config config.ini simulate scenario.json", {**SIMULATE, "config.ini": "[paths]\nbob_params =\n"},
         "config.ini: [paths] bob_params names no file: ''"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "config.ini": "[paths]\nbob_params = bob.kx\n"},
         "config.ini: [paths] bob_params names no file: 'bob.kx'"),
        (2, "--config config.ini fit missing/telemetry.csv", SIMULATE,
         "data error: missing/telemetry.csv: No such file or directory"),
        (1, "--config nope.ini icehouse", {}, "error: nope.ini: config file not found"),
        (2, "--config config.ini fit telemetry.csv", {**SIMULATE, "telemetry.csv": SHORT_RUN},
         "telemetry.csv: 5 samples are too few for the low-pass filter, which needs more than 9"),
        (2, "--config config.ini eval telemetry.csv --front-params lat.kv --rear-params lat.kv",
         {**SIMULATE, "telemetry.csv": SHORT_RUN, "lat.kv": LAT},
         "telemetry.csv: 5 samples are too few for the low-pass filter, which needs more than 9"),
        (3, "--config config.ini simulate scenario.json",
         {**SIMULATE, "bob.kv": BOB.replace("j_zz = 850", "j_zz = 1e-320"),
          "scenario.json": scenario_text("controls", "delta", [0.0, 0.01])},
         "numerical failure: non-finite simulator state at t = 0.005 s"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("noise", "a_y", float("nan"))},
         "scenario.json: noise.a_y must be finite and at least 0, got nan"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("noise", "v", float("inf"))},
         "scenario.json: noise.v must be finite and at least 0, got inf"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("noise", "a_y", -0.05)},
         "scenario.json: noise.a_y must be finite and at least 0, got -0.05"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("noise", "a_yy", 0.05)},
         "scenario.json: noise.a_yy names no telemetry channel"),
        # a finite sigma whose noise overflows; the stream worker of the run is reaped all the same
        (1, "--seed 1 --config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("noise", "a_y", 1e308).replace('"t_max": 0.2', '"t_max": 1.0')},
         "scenario.json: noise.a_y = 1e+308 makes the exported a_y non-finite"),
        (2, "--config config.ini fit telemetry.csv", {**SIMULATE, "config.ini": UNFILTERED, "telemetry.csv": FAR_RUN},
         "telemetry.csv: the 100 Hz grid of 100000000000001 samples over 1e+12 s is too large to allocate"),
        (2, "--config config.ini eval telemetry.csv --front-params lat.kv --rear-params lat.kv",
         {**SIMULATE, "config.ini": UNFILTERED, "telemetry.csv": FAR_RUN, "lat.kv": LAT},
         "telemetry.csv: the 100 Hz grid of 100000000000001 samples over 1e+12 s is too large to allocate"),
        (2, "--config config.ini fit telemetry.csv", {**SIMULATE, "config.ini": UNFILTERED, "telemetry.csv": FARTHER_RUN},
         "telemetry.csv: the 100 Hz grid of 10000000000000000000000 samples over 1e+20 s is too large to allocate"),
        (2, "--config config.ini eval telemetry.csv --front-params lat.kv --rear-params lat.kv",
         {**SIMULATE, "config.ini": UNFILTERED, "telemetry.csv": FARTHEST_RUN, "lat.kv": LAT},
         "telemetry.csv: the 100 Hz grid of inf samples over 1e+307 s is too large to allocate"),
        # refused before the run, which np.random.default_rng would end in a traceback at the export
        (1, "--seed -1 --config config.ini simulate scenario.json", SIMULATE,
         "error: sleddyn: argument --seed: must be at least 0, got -1"),
        # a scenario number is a JSON number, not a string or a boolean that would convert to one
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("track", "s", ["0", "1000"])},
         'scenario.json: bad scenario value: track.s[0] must be a number, got "0"'),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("track", "n", [True, True])},
         "scenario.json: bad scenario value: track.n[0] must be a number, got true"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("initial", "v0", "25")},
         'scenario.json: bad scenario value: initial.v0 must be a number, got "25"'),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("noise", "a_y", "0.05")},
         'scenario.json: bad scenario value: noise.a_y must be a number, got "0.05"'),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("sim", "dt", True)},
         "scenario.json: bad scenario value: sim.dt must be a number, got true"),
        (1, "--config config.ini simulate scenario.json",
         {**SIMULATE, "scenario.json": scenario_text("initial", "v0", 10 ** 400)},
         "scenario.json: bad scenario value: initial.v0 is an integer too large for a float"),
        # finite values whose filtering overflows: one line naming the channel, not numpy's warnings and NaN output
        (2, "--config config.ini fit telemetry.csv", {**SIMULATE, "telemetry.csv": HUGE_RUN},
         "telemetry.csv: the low-pass filter overflows on channel a_y"),
        (2, "--config config.ini eval telemetry.csv --front-params lat.kv --rear-params lat.kv",
         {**SIMULATE, "telemetry.csv": HUGE_RUN, "lat.kv": LAT},
         "telemetry.csv: the low-pass filter overflows on channel a_y"),
    ], ids=["p-range-two-fields", "p-range-zero-step", "p-range-too-many-points", "f-z-zero",
            "alpha-max-nan", "alpha-max-inf", "alpha-max-zero", "f-z-repeated", "alpha-max-overflow",
            "f-z-subnormal", "f-z-overflow", "p-range-overflow", "bob-out-of-range", "long-out-of-range",
            "lateral-out-of-range", "lateral-after-long", "schema-shared-column", "icehouse-no-inputs",
            "scenario-v0-text", "scenario-kappa-text", "scenario-noise-text", "scenario-dt-zero",
            "scenario-rate-zero", "scenario-dt-negative", "scenario-list", "scenario-v0-nan",
            "scenario-beta0-inf", "scenario-psi-dot0-minus-inf", "scenario-v0-overflow",
            "scenario-v0-negative", "scenario-dt-above-bound", "scenario-track-1cm", "scenario-one-sample", "glide-m-text",
            "glide-p-air-negative", "glide-m-zero", "config-p-air-negative", "config-yaw-negative",
            "config-rate-zero", "config-rate-negative", "bob-non-utf8", "lateral-non-utf8",
            "long-non-utf8", "config-non-utf8", "scenario-non-utf8", "schema-non-utf8",
            "points-non-utf8", "config-no-section", "config-duplicate-section",
            "schema-columns-list", "schema-columns-number", "scenario-s-not-increasing",
            "glide-m-zero-names-file", "bob-offset-inf", "schema-shared-column-names-file",
            "schema-bad-angle-unit", "argv-rate-not-number", "argv-unknown-option",
            "argv-unknown-command", "argv-missing-required", "glide-time-inf", "config-misspelled-key",
            "config-misspelled-section", "argv-roll-threshold-zero", "argv-schema-removed",
            "argv-cutoff-removed", "argv-roll-threshold-removed", "argv-window-removed", "config-roll-threshold-zero",
            "config-roll-threshold-nan", "config-window-above-one", "config-mu-x-negative",
            "config-v-min-negative", "config-cutoff-inf", "config-range-names-file-and-section",
            "config-without-bob-names-file", "points-too-few", "points-not-convex", "glide-window-too-short",
            "glide-one-direction", "config-path-empty", "config-path-missing", "argv-file-missing",
            "config-file-missing", "fit-run-too-short-to-filter", "eval-run-too-short-to-filter",
            "scenario-math-domain-error", "scenario-noise-nan", "scenario-noise-inf", "scenario-noise-negative",
            "scenario-noise-unknown-channel", "scenario-noise-overflow", "fit-grid-too-large", "eval-grid-too-large",
            "fit-grid-beyond-numpy", "eval-grid-infinite", "argv-seed-negative", "scenario-s-text",
            "scenario-n-true", "scenario-v0-number-text", "scenario-noise-number-text", "scenario-dt-true",
            "scenario-v0-integer-overflow", "fit-filter-overflow", "eval-filter-overflow"])
    def test_bad_input_leaves_no_output(self, tmp_path, capsys, code, argv, files, where):
        for name, text in files.items():
            (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
        before = set(tmp_path.rglob("*"))
        argv = [str(tmp_path / arg) if arg in files else arg for arg in argv.split()]
        assert main(["--out-dir", str(tmp_path / "out"), *argv]) == code
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert set(tmp_path.rglob("*")) == before

    def test_unread_meta_rate_is_ignored(self, workspace, capsys):
        # the rate comes from the time column; a bad "# meta rate_hz" line changes nothing
        tmp_path, paths = workspace
        Path(paths[0]).write_text("# meta rate_hz = abc\n" + Path(paths[0]).read_text())
        assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(tmp_path / "out"),
                     "fit", *paths]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "out" / "lateral_rear.kv").exists()

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--help"])
        assert exc.value.code == 0
        assert "--holdout" in capsys.readouterr().out

    def test_pressure_table_key_is_config_error(self, tmp_path, capsys):
        (tmp_path / "config.ini").write_text("[paths]\npressure_front = pressure.txt\n")
        assert main(["--config", str(tmp_path / "config.ini"), "--out-dir", str(tmp_path / "o"),
                     "icehouse"]) == 1
        assert "pressure_front is not supported" in capsys.readouterr().err


# a 100 Hz run of the track SYN, and a glide of 24 samples, 14 of them inside the default fit window
README_RUN = ("# meta track = SYN\n" + ",".join(("t", *telemetry.CORE_CHANNELS)) + "\n"
              + "".join(f"{0.01 * i:.2f},0,0.1,9.81,0,0,0.01,25,0.001,0.001,0\n" for i in range(40)))
README_GLIDE = TestBadInputFiles.GLIDE + "".join(f"{0.1 * i:.1f},{2 - 0.01 * i:.2f}\n" for i in range(1, 24))
BAD = TestBadInputFiles


@pytest.mark.parametrize("part, argv, files", [
    ("nope.ini", "--config nope.ini icehouse", {}),
    ("bob.kx", "--config config.ini icehouse", {"config.ini": "[paths]\nbob_params = bob.kx\n"}),
    ("rate_hz", "--config config.ini icehouse", {"config.ini": "[processing]\nrate_hz = 0\n"}),
    ("bob.kv: not UTF-8", "--config config.ini icehouse", {"config.ini": BAD.CONFIG, "bob.kv": b"m = 390\xff\n"}),
    ("cannot resample", "--config config.ini fit runs/b.csv",
     {"config.ini": BAD.UNFILTERED + "rate_hz = 200\n", "bob.kv": BAD.BOB, "runs/b.csv": README_RUN}),
    # the speed never exceeds v_min
    ("no valid samples", "--config config.ini eval runs/b.csv --front-params lat.kv --rear-params lat.kv",
     {"config.ini": BAD.UNFILTERED, "bob.kv": BAD.BOB, "runs/b.csv": README_RUN.replace(",25,", ",0.1,"),
      "lat.kv": BAD.LAT}),
    ("--holdout NOPE", "--config config.ini fit runs/b.csv --holdout NOPE",
     {"config.ini": BAD.UNFILTERED, "bob.kv": BAD.BOB, "runs/b.csv": README_RUN}),
    ("noise.a_y must be", "--config config.ini simulate scenario.json",
     {**BAD.SIMULATE, "scenario.json": scenario_text("noise", "a_y", float("nan"))}),
    ("1e+308", "--seed 1 --config config.ini simulate scenario.json",
     {**BAD.SIMULATE, "scenario.json": scenario_text("noise", "a_y", 1e308).replace('"t_max": 0.2', '"t_max": 1.0')}),
    ("track_end", "--config config.ini simulate scenario.json",
     {**BAD.SIMULATE, "scenario.json": scenario_text("track", "s", [0.0, 0.01])}),
    ("glide_up.csv", "icehouse glide_up.csv", {"glide_up.csv": README_GLIDE}),
    ("--p-range 1e300", "friction-table --long-params long.kv --p-range 1e300:1e308:1e307", {"long.kv": BAD.LONG}),
], ids=["config-missing", "config-path-missing", "config-range", "bob-not-utf8", "run-upsampled", "run-too-slow",
        "holdout-no-track", "scenario-noise-nan", "scenario-noise-overflow", "scenario-one-sample",
        "glide-window-too-short", "friction-curves-overflow"])
def test_readme_quotes_the_message_word_for_word(tmp_path, capsys, monkeypatch, part, argv, files):
    # in README's own file names, so in a directory of its own; the label gives the exit code
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).parent.mkdir(parents=True, exist_ok=True)
        Path(name).write_bytes(text if isinstance(text, bytes) else text.encode())
    message = readme_message(part)
    assert main(["--out-dir", "out", *argv.split()]) == {"error": 1, "data error": 2}[message.split(": ")[0]]
    assert capsys.readouterr().err == message


def test_cli_import_loads_no_scipy():
    # every command pays the import, and no command loads scipy after it either
    code = "import sys, sleddyn.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(sleddyn.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True, timeout=60)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    "--config filter.ini fit run0.csv run1.csv",
    "--config filter.ini eval run0.csv run1.csv --front-params lat.kv --rear-params lat.kv",
    "--config config.ini simulate scenario.json",
    "icehouse --points points.csv",
    "friction-table --long-params long.kv",
], ids=["fit", "eval", "simulate", "icehouse", "friction-table"])
def test_command_loads_no_scipy(workspace, argv):
    # a fresh `python -m sleddyn.cli` with its low-pass filter on; -X importtime lists every module it and
    # its forked workers import, and none is scipy's
    tmp_path, _ = workspace
    (tmp_path / "filter.ini").write_text((tmp_path / "config.ini").read_text().replace("cutoff_hz = 0\n", ""))
    (tmp_path / "lat.kv").write_text(TestBadInputFiles.LAT)
    (tmp_path / "long.kv").write_text(TestBadInputFiles.LONG)
    (tmp_path / "scenario.json").write_text(scenario_text())
    (tmp_path / "points.csv").write_text("7.7,4.5e-3\n8.6,3.8e-3\n13.6,4.2e-3\n10.9,3.0e-3\n11.8,2.7e-3\n")
    env = {**os.environ, "PYTHONPATH": str(Path(sleddyn.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "sleddyn.cli", "--out-dir", "out",
                           *argv.split()], cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    scipy = sorted(m for m in imported if m.split(".")[0] == "scipy")
    assert not scipy, scipy
