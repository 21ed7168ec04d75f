"""Seeded inputs, per-pass operations and output checks of the two workloads.

Every input the program sees is generated here from the seed before
timing starts. Both workloads take their telemetry from the package's
own simulator, so the digest of the generated files shows whether two
runs used identical inputs.

An operation is one ``sleddyn.cli.main`` call in the benchmark's worker
process. Argument lists may hold ``{pass}``, the pass's own output
directory.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

WORKLOADS = ("season", "montecarlo")

TRUE_K_Y = {"front": 10522.0, "rear": 49776.0}   # cmd_simulate's default lateral laws
K_Y_TOL = 0.05           # relative k_y error a fit may show and still pass
AUDIT_BOUND = 5e-4       # energy-closure defect accepted from the simulator
GLIDE_MU_TOL = 0.05      # relative error of the ice-house specimen mu

BOB_KV = """m = 390.0
j_yy = 350.0
j_zz = 850.0
l_f = 1.7
l_r = 1.3
cx_ax = 0.2
l_x = 0.5
l_y = 0.0
l_z = -0.1
l_s_f = 1.2
l_s_r = -1.8
"""

CONFIG_INI = """[paths]
bob_params = bob.kv
[processing]
cutoff_hz = {cutoff}
rate_hz = 100
[aero]
p_air = 94700
temperature = 275.15
"""

# sensor noise of the 500 Hz telemetry (SI units, radians)
NOISE = {"a_x": 0.05, "a_y": 0.05, "a_z": 0.05, "phi_dot": 0.002, "theta_dot": 0.002,
         "psi_dot": 0.002, "v": 0.02, "alpha_sensor": 0.0005}


def sim_op(out_dir, scenario, seed=None):
    argv = ["--config", "config.ini", "--out-dir", out_dir]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return {"kind": "simulate", "argv": argv + ["simulate", scenario], "out": out_dir}


class Plan:
    """What one workload runs: warm-up ops, the ops of one pass, and the truth to check against."""

    def __init__(self, workload, ops, warmup=(), expect=None, gen_ops=()):
        self.workload = workload
        self.ops = list(ops)
        self.warmup = list(warmup)
        self.expect = expect or {}
        self.gen_ops = list(gen_ops)   # simulate calls made while generating, with their checks

    def to_json(self) -> dict:
        return {"workload": self.workload, "ops": self.ops, "warmup": self.warmup,
                "expect": self.expect}


# ---------------------------------------------------------------------------
# scenario building


def _banked_track(length, corners):
    """Constant 4 deg descent with Gaussian banked corners (load factor and pitch bumps)."""
    s = np.linspace(0.0, length, 121)
    n = np.ones_like(s)
    inv_r = np.zeros_like(s)
    for centre, width, load in corners:
        bump = np.exp(-0.5 * ((s - centre) / width) ** 2)
        n += load * bump
        inv_r += 0.008 * load * bump
    return {"s": s.tolist(), "kappa": [math.radians(4.0)] * s.size,
            "inv_r_y": inv_r.tolist(), "n": n.tolist()}


def _driver_line(rng, t_max):
    """Weaving steering and roll-split traces with a 2 s ease-in."""
    t = np.linspace(0.0, t_max, int(round(t_max * 5)) + 1)
    amp, period, phase = rng.uniform(0.8, 1.5), rng.uniform(2.5, 4.5), rng.uniform(0, 2 * np.pi)
    ramp = np.clip(t / 2.0, 0.0, 1.0)
    delta = np.deg2rad(amp) * np.sin(2 * np.pi * t / period + phase) * ramp
    gamma = np.deg2rad(rng.uniform(0.2, 0.8)) * np.sin(2 * np.pi * t / (1.7 * period)) * ramp
    return {"t": t.tolist(), "delta": delta.tolist(), "gamma": gamma.tolist()}


def _scenario(track, controls, v0, t_max, meta, dt=0.002, noise=None):
    out = {"track": track, "controls": controls, "initial": {"v0": v0},
           "sim": {"dt": dt, "t_max": t_max}, "meta": meta}
    if noise:
        out["noise"] = noise
    return out


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_common(work: Path, cutoff) -> None:
    _write(work / "bob.kv", BOB_KV)
    _write(work / "config.ini", CONFIG_INI.format(cutoff=cutoff))


# ---------------------------------------------------------------------------
# generators


def _write_ice_house(work: Path, rng) -> float:
    """Glide pair on a hidden slope and specimen points; returns the specimen's true mu."""
    from sleddyn import icehouse

    # constant deceleration without drag
    mu = float(rng.uniform(0.003, 0.005))
    slope = np.deg2rad(0.12)
    for direction, sign in (("down", 1.0), ("up", -1.0)):
        accel = 9.81 * (np.sin(sign * slope) - mu * np.cos(slope))
        t = np.arange(0.0, (0.5 - 2.4) / accel, 0.01)
        icehouse.save_glide_csv(t, 2.4 + accel * t, work / f"glide_{direction}.csv", meta={
            "m": 100.0, "p_air": 94700.0, "temperature": 275.15, "cx_ax": 0.0,
            "direction": direction, "specimen": "S1",
        })
    base = [(7.7, 4.5e-3), (8.6, 3.8e-3), (13.6, 4.2e-3), (16.0, 4.6e-3),
            (10.9, 3.0e-3), (11.8, 2.7e-3), (9.6, 3.3e-3)]
    _write(work / "specimens.csv", "".join(
        f"{p!r},{m * rng.uniform(0.97, 1.03)!r}\n" for p, m in base))
    return mu


def gen_season(work: Path, rng, smoke: bool) -> Plan:
    """A season's analysis: noisy 500 Hz runs of 4 drivers on 2 tracks, one fit with a
    holdout track, eval, the fitted law's friction table and the ice-house runner tests."""
    _write_common(work, cutoff=20)
    drivers = ("D1", "D2") if smoke else ("D1", "D2", "D3", "D4")
    # 20 s runs, not 10 s: with 10 s runs the rear fit's seed-dependent
    # iteration count moved a pass by up to 10 % from seed to seed
    t_max = 3.0 if smoke else 20.0
    tracks = {"T1": _banked_track(1500.0, [(250.0, 60.0, 2.5)]),
              "T2": _banked_track(1500.0, [(180.0, 50.0, 1.8), (330.0, 60.0, 2.2)])}
    gen, files, truths = [], [], []
    for track, profile in tracks.items():
        for driver in drivers:
            name = f"runs/{track}_{driver}"
            scenario = _scenario(profile, _driver_line(rng, t_max), float(rng.uniform(24.0, 26.0)),
                                 t_max, {"driver": driver, "track": track, "rate_hz": 500.0},
                                 noise=NOISE)
            _write(work / name / "scenario.json", json.dumps(scenario))
            gen.append(sim_op(name, f"{name}/scenario.json", seed=int(rng.integers(2**31))))
            files.append(f"{name}/telemetry.csv")
            truths.append((f"{name}/telemetry.csv", f"{name}/truth.csv"))
    glide_mu = _write_ice_house(work, rng)
    fits = "{pass}/fits"
    ops = [
        {"kind": "fit", "out": fits, "holdout": len(drivers),
         "argv": ["--config", "config.ini", "--out-dir", fits, "fit", "--holdout", "T2", *files]},
        {"kind": "eval", "out": "{pass}/report", "inputs": len(files),
         "argv": ["--config", "config.ini", "--out-dir", "{pass}/report", "eval", *files,
                  "--front-params", f"{fits}/lateral_front.kv",
                  "--rear-params", f"{fits}/lateral_rear.kv"]},
        {"kind": "friction-table", "out": "{pass}/curves",
         "argv": ["--out-dir", "{pass}/curves", "friction-table",
                  "--lateral-params", f"{fits}/lateral_front.kv"]},
        {"kind": "icehouse", "out": "{pass}/ice",
         "argv": ["--out-dir", "{pass}/ice", "icehouse", "glide_up.csv", "glide_down.csv"]},
        {"kind": "icehouse", "out": "{pass}/ice_points",
         "argv": ["--out-dir", "{pass}/ice_points", "icehouse", "--points", "specimens.csv"]},
    ]
    return Plan("season", ops, warmup=ops, expect={"de_tot": truths, "glide_mu": glide_mu},
                gen_ops=gen)


def gen_montecarlo(work: Path, rng, smoke: bool) -> Plan:
    """Driver-line perturbations on one banked-corner track, each simulated and exported."""
    _write_common(work, cutoff=20)
    n_lines = 2 if smoke else 4
    t_max = 2.0 if smoke else 10.0
    track = _banked_track(1500.0, [(200.0, 60.0, 2.5)])
    ops = []
    for i in range(n_lines):
        scenario = _scenario(track, _driver_line(rng, t_max), float(rng.uniform(24.0, 26.0)),
                             t_max, {"driver": f"L{i}", "track": "T1", "rate_hz": 500.0},
                             noise=NOISE)
        _write(work / f"line_{i}.json", json.dumps(scenario))
        ops.append(sim_op(f"{{pass}}/line_{i}", f"line_{i}.json", seed=int(rng.integers(2**31))))
    expect = {"rows": int(round(t_max * 500)) + 1}
    return Plan("montecarlo", ops, warmup=ops[:1], expect=expect)


GENERATORS = {"season": gen_season, "montecarlo": gen_montecarlo}


def generate(workload: str, work: Path, seed: int, smoke: bool = False) -> Plan:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return GENERATORS[workload](work, rng, smoke)


def digest(root: Path) -> str:
    """sha256 over the files below ``root`` (relative path and bytes, sorted), bytecode excluded."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def truth_de_tot(work: Path, pairs) -> list[float]:
    """de_tot from the simulator's ground-truth forces, one per (telemetry, truth) pair."""
    from sleddyn import cli, evaluation, onetrack, telemetry

    config = cli.load_config(work / "config.ini")
    aero = config.aero_model()
    out = []
    for tel, tru in pairs:
        run = telemetry.ingest_csv(work / tel, config.schema)
        trace = onetrack.load_trace_csv(work / tru)
        parts = evaluation.loss_energies(trace, run, aero, mu_x=config.options["mu_x"])
        out.append(evaluation.combine_losses(parts).de_tot)
    return out


class SimAudits:
    """Keeps every log ``sim.simulate`` returns, for the energy audit after a pass.

    Only the returned log is kept; nothing is timed. ``cmd_simulate``
    calls ``sim.simulate`` through the module, so rebinding the module
    attribute is enough.
    """

    def __init__(self):
        from sleddyn import sim

        self.sim = sim
        self.original = sim.simulate
        self.logs: list = []

    def __enter__(self):
        original, logs = self.original, self.logs

        @functools.wraps(original)
        def simulate(*args, **kwargs):
            log = original(*args, **kwargs)
            logs.append(log)
            return log

        self.sim.simulate = simulate
        return self

    def __exit__(self, *exc):
        self.sim.simulate = self.original

    def take(self) -> list[float]:
        """Energy-audit defects of the logs kept since the last call."""
        audits = [float(self.sim.energy_audit(log)) for log in self.logs]
        self.logs.clear()
        return audits


# ---------------------------------------------------------------------------
# output checks


NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def _numeric_rows(path: Path) -> np.ndarray:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln.strip() and not ln.startswith("#")]
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def _kv(path: Path) -> dict:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _json_numbers(node):
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        yield float(node)
    elif isinstance(node, dict):
        for value in node.values():
            yield from _json_numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from _json_numbers(value)


class Checker:
    """Output checks of one operation; ``problems`` empty means the operation passed."""

    def __init__(self, work: Path, expect: dict):
        self.work = work
        self.expect = expect
        self.problems: list[str] = []
        self.values: dict[str, float] = {}

    def need(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok

    def finite_csv(self, path: Path, rows=None):
        if not self.need(path.is_file(), f"missing {path.name}"):
            return
        try:
            data = _numeric_rows(path)
        except ValueError as exc:
            self.need(False, f"{path.name}: unparsable ({exc})")
            return
        self.need(data.size > 0 and bool(np.all(np.isfinite(data))),
                  f"{path.name}: empty or non-finite values")
        if rows is not None:
            self.need(data.shape[0] == rows, f"{path.name}: {data.shape[0]} rows, want {rows}")

    def finite_kv(self, path: Path, keys=None) -> dict:
        if not self.need(path.is_file(), f"missing {path.name}"):
            return {}
        raw = _kv(path)
        values = {}
        for key in keys or raw:
            text = raw.get(key, "")
            # numpy 2 scalars written with repr(); the number itself is
            # checked, the format defect is counted and reported
            wrapped = NUMPY_REPR.fullmatch(text)
            if wrapped:
                text = wrapped.group(1)
                key_count = "kvfile.numpy_repr_values"
                self.values[key_count] = self.values.get(key_count, 0.0) + 1
            try:
                values[key] = float(text)
            except ValueError:
                if keys is not None or text not in ("True", "False"):
                    self.need(False, f"{path.name}: {key} missing or not a number")
        self.need(all(math.isfinite(v) for v in values.values()), f"{path.name}: non-finite value")
        return values

    def finite_json(self, path: Path):
        if not self.need(path.is_file(), f"missing {path.name}"):
            return None
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            self.need(False, f"{path.name}: unparsable ({exc})")
            return None
        self.need(all(math.isfinite(v) for v in _json_numbers(data)), f"{path.name}: non-finite value")
        return data

    def check(self, op: dict, rc: int, stderr: str, audit=None):
        out = self.work / op["out"]
        self.need(rc == 0, f"exit code {rc}")
        self.need("Traceback" not in stderr, "traceback on stderr")
        getattr(self, "_" + op["kind"].replace("-", "_"))(op, out)
        if audit is not None:
            self.values["audit_defect"] = max(self.values.get("audit_defect", 0.0), audit)
            self.need(audit <= AUDIT_BOUND, f"energy audit {audit:.3g} > {AUDIT_BOUND}")
        return self

    def _simulate(self, op, out):
        rows = self.expect.get("rows")
        self.finite_csv(out / "telemetry.csv", rows)
        self.finite_csv(out / "truth.csv", rows)

    def _fit(self, op, out):
        errs = []
        for runner in ("front", "rear"):
            params = self.finite_kv(out / f"lateral_{runner}.kv", ("mu_zeta_y", "c_y", "k_y"))
            if "k_y" in params:
                errs.append(abs(params["k_y"] / TRUE_K_Y[runner] - 1.0))
            for path in sorted(out.glob(f"diagnostics_{runner}_bin*.csv")):
                self.finite_csv(path)
        rear = _kv(out / "lateral_rear.kv") if (out / "lateral_rear.kv").is_file() else {}
        self.values["rear_converged"] = float(rear.get("converged") == "True")
        self.values["rear_iterations"] = float(rear.get("iterations", "nan"))
        if len(errs) == 2:
            self.values["k_y_err"] = max(errs)
            self.need(max(errs) <= K_Y_TOL, f"k_y error {max(errs):.3g} > {K_Y_TOL}")
        if op.get("holdout"):
            report = self.finite_json(out / "validation_rmse.json")
            if report is not None:
                # entries written per held-out file; below 1 when entries collide
                self.values["holdout_entries_ratio"] = len(report["runs"]) / op["holdout"]

    def _eval(self, op, out):
        report = self.finite_json(out / "evaluation.json")
        self.finite_csv(out / "losses.csv", op["inputs"])
        self.need((out / "angles.csv").is_file(), "missing angles.csv")
        if report is None:
            return
        rows = report["runs"]
        if self.need(len(rows) == op["inputs"], f"{len(rows)} eval rows for {op['inputs']} inputs"):
            truth = self.expect.get("de_tot_values")
            if truth:
                self.values["de_tot_err"] = max(abs(r["de_tot"] - t) for r, t in zip(rows, truth))

    def _friction_table(self, op, out):
        self.finite_csv(out / "lateral_curves.csv")

    def _icehouse(self, op, out):
        report = self.finite_kv(out / "friction_report.kv")
        if "specimen.S1.mu" in report:
            err = abs(report["specimen.S1.mu"] / self.expect["glide_mu"] - 1.0)
            self.need(err <= GLIDE_MU_TOL, f"specimen mu error {err:.3g} > {GLIDE_MU_TOL}")
