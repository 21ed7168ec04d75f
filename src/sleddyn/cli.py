"""Command-line workflows tying the library together.

Subcommands:

* ``icehouse``   - energy-method friction from gliding runs (with
  bidirectional averaging per specimen) or a quadratic fit over a
  (pressure, mu) point file.
* ``fit``        - telemetry -> processing -> force reconstruction ->
  lateral-parameter fits per runner, with an optional holdout track for
  validation RMSE.
* ``eval``       - driver/track energy-loss evaluation and angle
  statistics, written as a JSON report plus plot-data CSVs.
* ``simulate``   - run a scenario file, exporting synthetic telemetry
  and ground-truth forces.
* ``friction-table`` - plot-ready curves of the friction laws.

Each ``cmd_*`` handler only computes: it returns its files (name ->
writer taking the target path) and its stdout lines. ``main`` publishes
the files with ``_publish``, which stages them in a temporary directory
and moves them into ``--out-dir`` after the last write succeeds, then
prints the lines. A failure, a failed write included, leaves no partial
artifacts.

On Linux, ``fit`` and ``eval`` prepare their telemetry files (read,
filter, resample, reconstruct the axle forces, take the digest for the
provenance header) through ``forked.shares``, each CPU the process may
use taking a run of consecutive files; ``fit`` then fits the front and
the rear runner, each with its diagnostics, on two CPUs at once.
``simulate`` uses two CPUs as well: while it integrates, a forked worker
formats the rows of each finished block of the log (``forked.stream``):
all of its ``truth.csv`` rows and, in the first ``WORKER_SHARE`` of the
blocks, the ``telemetry.csv`` rows that the block alone determines, from
noise drawn before the run for its length at ``t_max``. One function
(``sim.window_telemetry``) computes every ``telemetry.csv`` row, so the
parent takes the worker's rows when that noise is the run's (no noise,
or the run exported the samples it was drawn for) and computes only
the rows at block edges, the run's last two and those past the share,
formatting these while the worker finishes. Otherwise it computes every
row, with noise drawn for the samples exported. A worker that fails or
is lost leaves its whole share to be computed again in-process, so
outputs and errors are those of one process. No other table is
formatted outside the calling process.

Exit codes: 0 success, 1 usage/config error, 2 data error (a failed
write too), 3 numerical failure. An error met while handling one input
file starts with that file's path (``errors.naming``).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import shutil
import sys
import tempfile
from collections import defaultdict
from contextlib import contextmanager
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import evaluation, fitting, forked, icehouse, kvfile, sim, tables, telemetry
from .aero import DEFAULT_YAW_SENSITIVITY_PER_DEG, R_SPECIFIC_AIR, AeroModel, AirState
from .errors import ConfigError, DataError, SleddynError, naming, reading
from .friction import MU_X_DEFAULT, LateralFrictionParams, force_y_braghin, load_longitudinal_params, mu_x
from .kinematics import V_MIN
from .onetrack import TRACE_COLUMNS, build_axle_trace, load_bob_params
from .tables import write_table, write_text
from .telemetry import identity_schema, load_schema


# ---------------------------------------------------------------------------
# configuration


# each number's default, under the one config section that may set it
DEFAULTS = {
    "processing": {
        "cutoff_hz": telemetry.DEFAULT_CUTOFF_HZ,
        "rate_hz": telemetry.DEFAULT_RATE_HZ,
        "roll_threshold_deg_s2": fitting.DEFAULT_ROLL_THRESHOLD_DEG_S2,
        "window_fraction": icehouse.DEFAULT_WINDOW_FRACTION,
        "v_min": V_MIN,
        "mu_x": MU_X_DEFAULT,
    },
    "aero": {
        "yaw_sensitivity": DEFAULT_YAW_SENSITIVITY_PER_DEG,
        "p_air": 94700.0,
        "temperature": 275.15,
        "r_specific": R_SPECIFIC_AIR,
    },
}
PATH_KEYS = ("bob_params", "schema")
# what each [processing] value must be, as (test, wording); NaN fails every test
LIMITS = {
    "cutoff_hz": (lambda x: 0 <= x < np.inf, "non-negative and finite (0 turns the filter off)"),
    "rate_hz": (lambda x: 0 < x < np.inf, "positive and finite"),
    "roll_threshold_deg_s2": (lambda x: 0 < x < np.inf, "positive and finite"),
    "window_fraction": (lambda x: 0 < x <= 1, "in (0, 1]"),
    "v_min": (lambda x: 0 <= x < np.inf, "non-negative and finite"),
    "mu_x": (lambda x: 0 <= x <= 1, "in [0, 1]"),
}


class Config:
    """Resolved configuration: bob parameters, aero model, processing options.

    ``path`` is the INI file read, if any. Raises ValueError for an air
    state or aero model out of range.
    """

    def __init__(self, options: dict, bob=None, schema=None, path=None):
        self.options = options
        self.path = path
        self.bob = bob
        self.schema = schema or identity_schema()
        air = AirState(p_air=options["p_air"], temperature=options["temperature"],
                       r_specific=options["r_specific"])
        self._aero = None if bob is None else AeroModel(
            cx_ax=bob.cx_ax, air=air, yaw_sensitivity=options["yaw_sensitivity"])

    def aero_model(self) -> AeroModel:
        if self._aero is None:
            with naming(self.path):
                raise ConfigError("this command needs bob parameters ([paths] bob_params in the config)")
        return self._aero


def load_config(path) -> Config:
    """The defaults, with each value the INI file at ``path`` (if any) sets.

    An INI key the program does not read, a ``[paths]`` value that names
    no file, and a ``[processing]`` value outside its ``LIMITS``, are
    ConfigErrors naming the file.
    """
    options = {key: value for section in DEFAULTS.values() for key, value in section.items()}
    paths: dict[str, Path] = {}
    if path is not None:
        parser = configparser.ConfigParser()
        with reading(path, ConfigError):
            if not parser.read(path, encoding="utf-8"):
                raise ConfigError("config file not found")
            for section in (parser.default_section, *parser.sections()):
                for key in parser[section]:
                    if section == "paths" and key in PATH_KEYS:
                        value = parser.get(section, key)
                        paths[key] = Path(path).parent / value
                        if not paths[key].is_file():
                            raise ConfigError(f"[paths] {key} names no file: {value!r}")
                    elif key in DEFAULTS.get(section, ()):
                        with reading(path, ConfigError, f"bad value for {key}: "):
                            options[key] = value = parser.getfloat(section, key)
                        if key in LIMITS and not LIMITS[key][0](value):
                            raise ConfigError(f"[{section}] {key} must be {LIMITS[key][1]}, got {value}")
                    else:
                        raise ConfigError(f"[{section}] {key} is not supported")
    bob = load_bob_params(paths["bob_params"]) if "bob_params" in paths else None
    schema = load_schema(paths["schema"]) if "schema" in paths else None
    with reading(path, ConfigError):
        return Config(options, bob=bob, schema=schema, path=path)


def _traced_run(path, config: Config):
    """The processed run of one telemetry file, its reconstructed axle forces and its digest.

    The digest (``kvfile.file_digest``) is taken right after the read, for
    the provenance header, so that no file is read a second time later.
    """
    with naming(path):
        run = telemetry.ingest_csv(path, config.schema)
        digest = kvfile.file_digest(path)
        cutoff = config.options["cutoff_hz"] or None
        run = telemetry.process(run, cutoff=cutoff, rate=config.options["rate_hz"])
        return run, build_axle_trace(run, config.bob, aero=config.aero_model(),
                                     mu_x_fixed=config.options["mu_x"], v_min=config.options["v_min"]), digest


def _prepared_runs(paths, config: Config):
    """Context manager: an iterator over the ``_traced_run`` of each path, from every usable CPU.

    Preparing a run loads no module after ``sleddyn.cli``'s own imports
    (the low-pass filter is numpy code), so a forked worker starts with
    all it needs.
    """
    return forked.shares(lambda path: _traced_run(path, config), paths)


def _once(seen: dict, path, digest: str) -> None:
    """Record ``path`` under its digest; a file whose data came before is a ConfigError."""
    if digest in seen:
        raise ConfigError(f"the same data as {seen[digest]}; give each run once")
    seen[digest] = path


def _run_keys(paths) -> list[str]:
    """File stems as report keys, or the paths as given when two stems coincide."""
    stems = [Path(p).stem for p in paths]
    return stems if len(set(stems)) == len(stems) else [str(p) for p in paths]


# ---------------------------------------------------------------------------
# icehouse


def cmd_icehouse(args) -> tuple[dict, list[str]]:
    config = load_config(args.config)
    if not (args.glides or args.points):
        raise ConfigError("nothing to do: give glide files and/or --points")
    with naming(args.points):
        quadratic = icehouse.fit_quadratic_mu_p(icehouse.load_points(args.points)) if args.points else None
    report: dict = {}
    specimens: dict[str, dict] = {}  # name -> its runs in each direction and its first file
    for key, path in zip(_run_keys(args.glides), args.glides):
        with naming(path):
            run = icehouse.load_glide_csv(path)
            outcome = icehouse.evaluate_glide(run, window_fraction=config.options["window_fraction"])
        sides = specimens.setdefault(run.specimen, {"up": [], "down": [], "file": path})
        sides[run.direction].append(outcome)
        for field in ("mu", "mu_stderr", "f_ice"):
            report[f"run.{key}.{field}"] = getattr(outcome, field)
    for name, sides in specimens.items():
        with naming(sides["file"]):
            if not sides["up"] or not sides["down"]:
                raise DataError(f"specimen {name!r} needs runs in both directions for averaging")
        mu_up = float(np.mean([r.mu for r in sides["up"]]))
        mu_down = float(np.mean([r.mu for r in sides["down"]]))
        report[f"specimen.{name}.mu"] = icehouse.average_bidirectional(mu_up, mu_down)
        report[f"specimen.{name}.mu_stderr"] = float(
            np.sqrt(np.mean([r.mu_stderr ** 2 for r in sides["up"] + sides["down"]])))
    if quadratic is not None:
        for field in ("b_x", "c_x", "d_x", "e_x", "zeta_x", "vertex_pressure"):
            report[f"quadratic.{field}"] = getattr(quadratic, field)
    header = kvfile.provenance_lines(list(args.glides) + ([args.points] if args.points else []),
                                     {"window_fraction": config.options["window_fraction"]})
    files = {"friction_report.kv": partial(kvfile.dump_kv, report, header=header)}
    return files, [f"wrote {args.out_dir / 'friction_report.kv'}"]


# ---------------------------------------------------------------------------
# fit


def cmd_fit(args) -> tuple[dict, list[str]]:
    if not args.telemetry:
        raise ConfigError("no telemetry files given")
    config = load_config(args.config)
    config.aero_model()  # fails early without bob parameters
    threshold = config.options["roll_threshold_deg_s2"]
    fit_paths, digests, holdout_runs, seen, tracks = [], [], [], {}, {}
    datasets: dict[str, list] = {"front": [], "rear": []}
    with _prepared_runs(args.telemetry, config) as prepared:
        for path, (run, trace, digest) in zip(args.telemetry, prepared):
            tracks[run.meta.track] = None
            with naming(path):
                _once(seen, path, digest)
                if args.holdout and run.meta.track == args.holdout:
                    holdout_runs.append((path, run, trace))
                    continue
                fit_paths.append(path)
                digests.append(digest)
                for runner in ("front", "rear"):
                    datasets[runner].append(fitting.select_fit_samples(trace, run, threshold, runner))
    if args.holdout and not holdout_runs:
        raise ConfigError(f"--holdout {args.holdout}: no telemetry file has that track "
                          f"(tracks: {', '.join(filter(None, tracks)) or 'none'})")
    if not fit_paths:
        raise DataError("holdout excluded every run")

    def fit(runner):
        """The runner's fit and its diagnostics, both made in the process that fits it."""
        parts = datasets[runner]
        data = fitting.FitDataset(runner=runner, **{name: np.concatenate([getattr(d, name) for d in parts])
                                                    for name in ("alpha", "f_z", "f_y")})
        result = fitting.fit_lateral(data)
        return result, fitting.fit_report(result, data)

    # the two runners are fitted at once on two CPUs; a failing fit raises here as in serial code,
    # naming the file when every sample comes from one
    with forked.shares(fit, tuple(datasets)) as fitted, naming(fit_paths[0] if len(fit_paths) == 1 else None):
        results = dict(zip(datasets, fitted))

    validation = {}
    laws = {"fitted": (results["front"][0].params, results["rear"][0].params),
            "reference": ("braghin", "braghin")}
    for key, (path, run, trace) in zip(_run_keys([path for path, _, _ in holdout_runs]), holdout_runs):
        with naming(path):
            measured = evaluation.measured_lateral_cog(trace)
            validation[key] = {name: evaluation.validate_rmse(
                evaluation.model_lateral_cog(trace, front, rear, run, mu_x=config.options["mu_x"]),
                measured, trace.valid) for name, (front, rear) in laws.items()}

    header = kvfile.provenance_lines(fit_paths, {"roll_threshold": threshold}, digests)
    files, lines = {}, []
    for runner, (result, curves) in results.items():
        files[f"lateral_{runner}.kv"] = partial(fitting.save_fit_result, result, header=header)
        for i, (alpha, f_y) in enumerate(curves):
            files[f"diagnostics_{runner}_bin{i}.csv"] = partial(
                write_table, columns={"alpha": alpha, "f_y_model": f_y}, comments=header)
        p = result.params
        notes = "".join(f" [{name} at bound]" for name, value, (lo, hi) in zip(
            ("mu_zeta_y", "c_y", "k_y"), (p.mu_zeta_y, p.c_y, p.k_y), fitting.DEFAULT_BOUNDS)
            if value <= lo * 1.0001 or value >= hi * 0.9999)
        lines.append(f"{runner}: mu_zeta_y={p.mu_zeta_y:.4g} c_y={p.c_y:.4g} k_y={p.k_y:.6g} "
                     f"rms={result.residual_rms:.4g} N "
                     f"({result.n_samples} samples, converged={result.converged}){notes}")
        if notes:
            lines.append(f"  note: {runner} data poorly constrains the scale/shape split "
                         "(small slip-angle or load range); the stiffness k_y and the "
                         "predicted curve remain reliable")
    if validation:
        files["validation_rmse.json"] = partial(_write_json, data={"provenance": header,
                                                                   "runs": validation})
        lines.append(f"holdout validation written for {len(validation)} runs")
    return files, lines


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> tuple[dict, list[str]]:
    if not args.telemetry:
        raise ConfigError("no telemetry files given")
    config = load_config(args.config)
    aero = config.aero_model()
    # checked like any parameter file, though the evaluation reads neither law
    fitting.load_lateral_params(args.front_params)
    fitting.load_lateral_params(args.rear_params)

    rows, labeled, seen = [], [], {}
    with _prepared_runs(args.telemetry, config) as prepared:
        for key, path, (run, trace, digest) in zip(_run_keys(args.telemetry), args.telemetry, prepared):
            with naming(path):
                _once(seen, path, digest)
                parts = evaluation.loss_energies(trace, run, aero, mu_x=config.options["mu_x"])
            loss = evaluation.combine_losses(parts)
            label = run.meta.driver or key
            labeled.append((label, run, trace))
            rows.append({"run": key, "driver": label, "track": run.meta.track or "unknown", **{
                name: getattr(loss, name) for name in ("e_tot_loss", "de_ice_f", "de_ice_r", "de_aero",
                                                       "de_tot", "runtime", "distance")
            }, "segments": len(parts)})
    angle_report = evaluation.angle_statistics(labeled)

    losses = ("de_ice_f", "de_ice_r", "de_aero", "de_tot")

    def medians(group_key):
        groups: dict[str, list] = defaultdict(list)
        for row in rows:
            groups[row[group_key]].append(row)
        return {label: {key: float(np.median([r[key] for r in rws])) for key in losses}
                for label, rws in groups.items()}

    header = kvfile.provenance_lines(args.telemetry, {"mu_x": config.options["mu_x"]}, list(seen))
    files = {
        "evaluation.json": partial(_write_json, data={
            "provenance": header,
            "runs": rows,
            "driver_summaries": medians("driver"),
            "track_summaries": medians("track"),
            "angle_statistics": angle_report,
        }),
        "losses.csv": partial(write_table, columns={key: [r[key] for r in rows] for key in losses},
                              comments=header),
        "angles.csv": partial(_write_angles, angle_report=angle_report, header=header),
    }
    drivers = {r["driver"] for r in rows}
    return files, [f"evaluated {len(rows)} runs for {len(drivers)} drivers "
                   f"-> {args.out_dir / 'evaluation.json'}"]


def _write_angles(path, angle_report: dict, header: list[str]) -> None:
    """Boxplot companion of ``evaluation.json``: one row per (driver, angle channel)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["driver", "channel", *(f"q{round(100 * p):02d}" for p in evaluation.QUANTILES),
                         *(f"over_{thr:g}deg" for thr in evaluation.EXCEEDANCE_THRESHOLDS_DEG), "n"])
        for driver, channels in angle_report.items():
            for channel, stats in channels.items():
                q, over = stats["quantiles_deg"], stats["exceedance"]
                writer.writerow([driver, channel, *(repr(q[p]) for p in evaluation.QUANTILES),
                                 *(repr(over[thr]) for thr in evaluation.EXCEEDANCE_THRESHOLDS_DEG),
                                 stats["n"]])


def _write_json(path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)


# ---------------------------------------------------------------------------
# simulate

# most exported samples whose noise is drawn before a run (8 noisy channels take 4 MB): the run
# may stop long before t_max, so t_max alone cannot size it
NOISE_AHEAD_ROWS = 1 << 16
# share of a run's blocks whose telemetry.csv rows the simulate worker formats besides every
# truth.csv row; the parent formats the rest after the run. With all of them the worker fell 1 to 5
# blocks of 10 behind a 500 Hz run of the benchmark's montecarlo workload on a 2-vCPU VM
WORKER_SHARE = 0.7


def cmd_simulate(args) -> tuple[dict, list[str]]:
    config = load_config(args.config)
    aero = config.aero_model()
    scenario = sim.load_scenario(args.scenario)
    front = fitting.load_lateral_params(args.front_params) if args.front_params else \
        LateralFrictionParams(mu_zeta_y=2.577, c_y=0.024, k_y=10522.0)
    rear = fitting.load_lateral_params(args.rear_params) if args.rear_params else \
        LateralFrictionParams(mu_zeta_y=3.288, c_y=0.076, k_y=49776.0)
    setup = sim.FrictionSetup(lateral_front=front, lateral_rear=rear,
                              mu_x=config.options["mu_x"])
    with naming(args.scenario):  # the scenario values the simulator or the export would reject
        sim.check_start(scenario["dt"], scenario["v0"])
        stride = sim.export_stride(scenario["rate_hz"], scenario["dt"])
    # a run that reaches t_max takes this many steps and exports this many samples, so the worker's noise
    # can be drawn before it starts
    steps = int(round(scenario["t_max"] / scenario["dt"]))
    samples = steps // stride + 1
    noise = scenario["noise"]
    ahead = sim.noise_draws(noise, args.seed, samples) \
        if samples <= NOISE_AHEAD_ROWS and forked.cpus() > 1 else None  # None: the worker formats no telemetry
    # the worker's telemetry.csv share: the rows of the first blocks; the parent formats the others after the run
    shared = round(WORKER_SHARE * (steps // sim.BLOCK_ROWS + 1))

    def block_texts(k, block):
        """Block k's truth.csv rows, and in the worker's share the telemetry.csv rows that the block determines."""
        part = sim.telemetry_part(k, block, stride, config.bob, noise, ahead, config.schema) \
            if ahead is not None and k < shared else None
        return sim.truth_text(k, block, stride), part

    # each law file given: its digest as an input, its name under its option as a parameter
    laws = {k: v for k, v in {"front_params": args.front_params, "rear_params": args.rear_params}.items() if v}
    header = kvfile.provenance_lines([args.scenario, *laws.values()],
                                     {"seed": args.seed if args.seed is not None else "none",
                                      **{k: Path(v).name for k, v in laws.items()}})
    # both tables come from the logged rows: a second CPU formats them while the run goes on
    with forked.stream(block_texts) as blocks:
        log = sim.simulate(config.bob, scenario["track"], scenario["controls"], setup, aero,
                           v0=scenario["v0"], beta0=scenario["beta0"],
                           psi_dot0=scenario["psi_dot0"], dt=scenario["dt"],
                           t_max=scenario["t_max"], on_block=blocks.send)
        message = f"simulated {log.t[-1]:.2f} s / {log.s[-1]:.1f} m -> {args.out_dir}"
        with naming(args.scenario):
            col = sim.exported_rows(log, stride, scenario["rate_hz"])
            rows = col["t"].size
            # noise drawn for another sample count (an empty draw fits any): the worker's rows are not the run's,
            # and block_texts, should it run here for a lost worker, makes no telemetry rows
            if ahead and rows != samples:
                ahead = None
            draws = ahead if ahead is not None else sim.noise_draws(noise, args.seed, rows)

            def columns(first, end):
                run = sim.window_telemetry(col, 0, first, end, config.bob, noise, draws)
                return telemetry.export_columns(run, config.schema)

            # the rows past the worker's share and the run's last two are formatted here while it finishes
            start = min(-(-shared * sim.BLOCK_ROWS // stride), rows - 2)
            own = columns(start, rows)
            pieces = [(start, rows, list(tables.row_texts(own.values())))]
            # both files keep one text per block: joining them would hold each file's text twice at once
            truth_rows, parts = zip(*blocks.results())
            if ahead is not None:
                pieces[:0] = filter(None, parts)
            # the rows between the pieces (around the block edges, or all before the parent's) are computed here
            texts, done = [], 0
            for first, end, piece in pieces:
                if first > done:
                    texts.append(tables.row_texts(columns(done, first).values()))
                texts.append(piece)
                done = end
    files = {
        "telemetry.csv": partial(write_text, names=list(own), texts=chain.from_iterable(texts),
                                 comments=telemetry.export_comments(scenario["meta"], header)),
        "truth.csv": partial(write_text, names=TRACE_COLUMNS, texts=truth_rows, comments=header),
    }
    return files, [message]


# ---------------------------------------------------------------------------
# friction-table

#: Most steps a ``--p-range`` grid may take; the default grid takes 120 (121 points).
MAX_PRESSURE_STEPS = 1_000_000


def _pressure_grid(p_range: str) -> np.ndarray:
    """Pressure grid [MPa] from ``lo:hi:step``; a single point when hi <= lo."""
    try:
        lo, hi, step_w = (float(x) for x in p_range.split(":"))
    except ValueError:
        lo = hi = step_w = np.nan
    if not (np.isfinite([lo, hi, step_w]).all() and lo > 0 and step_w > 0
            and (hi - lo) / step_w <= MAX_PRESSURE_STEPS):
        raise ConfigError(f"--p-range must be lo:hi:step in MPa with lo > 0, step > 0 and at most "
                          f"{MAX_PRESSURE_STEPS} steps from lo to hi, got {p_range!r}")
    return np.arange(lo, hi + step_w / 2, step_w) if hi > lo else np.array([lo])


@contextmanager
def _finite_curves(options: str):
    """Context manager: a float overflow or invalid value in the curves computed inside is a ConfigError on ``options``."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigError(f"the curves at {options} are not finite ({exc})") from None


def cmd_friction_table(args) -> tuple[dict, list[str]]:
    if not (args.long_params or args.lateral_params):
        raise ConfigError("nothing to do: give --long-params and/or --lateral-params")
    files = {}
    if args.long_params:
        grid = _pressure_grid(args.p_range)
        params = load_longitudinal_params(args.long_params)
        header = kvfile.provenance_lines([args.long_params], {"p_range": args.p_range})
        with _finite_curves(f"--p-range {args.p_range}"):
            curve = mu_x(grid, params)
        files["mu_x_curve.csv"] = partial(write_table, columns={"p_mpa": grid, "mu_x": curve}, comments=header)
    if args.lateral_params:
        if not all(0 < f_z < np.inf for f_z in args.f_z):
            raise ConfigError(f"--f-z loads must be positive and finite, got {args.f_z}")
        loads = [f"{f_z:.15g}" for f_z in args.f_z]
        if len(set(loads)) < len(loads):
            raise ConfigError(f"--f-z loads must differ, got {args.f_z}")
        if not 0 < args.alpha_max_deg < np.inf:
            raise ConfigError(f"--alpha-max-deg must be positive and finite, got {args.alpha_max_deg}")
        lat = fitting.load_lateral_params(args.lateral_params)
        header = kvfile.provenance_lines([args.lateral_params], {"f_z": args.f_z})
        with _finite_curves(f"--f-z {args.f_z} with --alpha-max-deg {args.alpha_max_deg}"):
            alpha = np.deg2rad(np.linspace(-args.alpha_max_deg, args.alpha_max_deg, 181))
            columns = {"alpha_deg": np.degrees(alpha)}
            for f_z, load in zip(args.f_z, loads):
                columns[f"f_y_at_{load}N"] = lat(f_z, alpha)
                columns[f"f_y_reference_at_{load}N"] = force_y_braghin(f_z, alpha)
        files["lateral_curves.csv"] = partial(write_table, columns=columns, comments=header)
    return files, [f"wrote {', '.join(files)} in {args.out_dir}"]


# ---------------------------------------------------------------------------
# output


def _publish(out_dir: Path, files: dict) -> None:
    """Write ``files`` (name -> writer taking the target path) into ``out_dir``, all or nothing.

    The writers run into a hidden staging directory made in ``out_dir`` if
    it exists, else in its nearest existing parent, so that ``os.replace``
    never crosses a file system; only then is ``out_dir`` created and each
    file moved in. The staging directory goes whether or not the writes succeed.
    """
    base = out_dir
    while not base.is_dir() and base != base.parent:
        base = base.parent
    stage = Path(tempfile.mkdtemp(prefix=".sleddyn-", dir=base))
    try:
        for name, write in files.items():
            write(stage / name)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in files:
            os.replace(stage / name, out_dir / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError (exit 1, one line), not SystemExit(2)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _seed(text: str) -> int:
    """A ``--seed``: an integer of at least 0, as ``np.random.default_rng`` takes."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sleddyn", description="runner-ice friction and bobsled dynamics toolkit")
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--out-dir", type=Path, default="out", help="output directory")
    parser.add_argument("--seed", type=_seed, default=None, help="seed for stochastic steps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("icehouse", help="friction from gliding runs or (p, mu) points")
    p.add_argument("glides", nargs="*", help="glide-run CSV files")
    p.add_argument("--points", help="CSV/whitespace file of (p, mu) pairs")
    p.set_defaults(func=cmd_icehouse)

    p = sub.add_parser("fit", help="fit lateral friction parameters from telemetry")
    p.add_argument("telemetry", nargs="*", help="telemetry CSV files")
    p.add_argument("--holdout", default=None, help="track id to hold out for validation")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="driver evaluation from telemetry")
    p.add_argument("telemetry", nargs="*", help="telemetry CSV files")
    p.add_argument("--front-params", required=True)
    p.add_argument("--rear-params", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="run a scenario, emit synthetic telemetry")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--front-params", default=None)
    p.add_argument("--rear-params", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("friction-table", help="plot-ready friction curves")
    p.add_argument("--long-params", default=None)
    p.add_argument("--lateral-params", default=None)
    p.add_argument("--p-range", default="6:18:0.1", help="pressure range lo:hi:step [MPa]")
    p.add_argument("--f-z", type=float, nargs="+", default=[2000.0, 5000.0, 10000.0])
    p.add_argument("--alpha-max-deg", type=float, default=6.0)
    p.set_defaults(func=cmd_friction_table)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        files, lines = args.func(args)
        _publish(args.out_dir, files)
    except SleddynError as exc:
        return _fail(exc.label, exc, exc.exit_code)
    except (np.linalg.LinAlgError, OverflowError) as exc:
        return _fail("numerical failure", exc, 3)
    except OSError as exc:  # a file that cannot be opened, read or written starts the message
        return _fail("data error", exc if exc.filename is None else f"{exc.filename}: {exc.strerror}", 2)
    for line in lines:
        print(line)
    return 0


def _fail(label: str, exc: Exception | str, code: int) -> int:
    # some messages (configparser's) span lines; stderr gets exactly one
    print(f"{label}: {' '.join(str(exc).splitlines())}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
