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
provenance header) on every CPU the process may use, through
``forked.shares``, as ``tables.write_table`` formats a large table;
``fit`` then fits the front and the rear runner, each with its
diagnostics, on two CPUs at once. Outputs and errors are those of one
process.

Exit codes: 0 success, 1 usage/config error, 2 data error (a failed
write too), 3 numerical failure.
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
from pathlib import Path

import numpy as np

from . import evaluation, fitting, forked, icehouse, kvfile, sim, telemetry
from .aero import DEFAULT_YAW_SENSITIVITY_PER_DEG, R_SPECIFIC_AIR, AeroModel, AirState
from .errors import ConfigError, DataError, SleddynError, reading
from .friction import MU_X_DEFAULT, force_y_braghin, mu_x
from .kinematics import V_MIN
from .onetrack import build_axle_trace, export_trace_csv, load_bob_params
from .tables import write_table
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

    Raises ValueError for an air state or aero model out of range.
    """

    def __init__(self, options: dict, bob=None, schema=None):
        self.options = options
        self.bob = bob
        self.schema = schema or identity_schema()
        air = AirState(p_air=options["p_air"], temperature=options["temperature"],
                       r_specific=options["r_specific"])
        self._aero = None if bob is None else AeroModel(
            cx_ax=bob.cx_ax, air=air, yaw_sensitivity=options["yaw_sensitivity"])

    def aero_model(self) -> AeroModel:
        if self._aero is None:
            raise ConfigError("aero model needs bob parameters (cx_ax)")
        return self._aero


def load_config(path, overrides: dict | None = None, schema_path=None) -> Config:
    """Defaults < INI file < non-None ``overrides``.

    An INI key the program does not read, and a ``[processing]`` value
    outside its ``LIMITS``, are ConfigErrors.
    """
    options = {key: value for section in DEFAULTS.values() for key, value in section.items()}
    paths: dict[str, Path] = {}
    if path is not None:
        parser = configparser.ConfigParser()
        with reading(path, ConfigError):
            if not parser.read(path, encoding="utf-8"):
                raise ConfigError(f"config file not found: {path}")
            for section in (parser.default_section, *parser.sections()):
                for key in parser[section]:
                    if section == "paths" and key in PATH_KEYS:
                        paths[key] = Path(path).parent / parser.get(section, key)
                    elif key in DEFAULTS.get(section, ()):
                        with reading(path, ConfigError, f"bad value for {key}: "):
                            options[key] = parser.getfloat(section, key)
                    else:
                        raise ConfigError(f"{path}: [{section}] {key} is not supported")
    bob = load_bob_params(paths["bob_params"]) if "bob_params" in paths else None
    schema = load_schema(paths["schema"]) if "schema" in paths else None
    for key, value in (overrides or {}).items():
        if value is not None:
            options[key] = value
    if schema_path is not None:
        schema = load_schema(schema_path)
    for key, (test, wording) in LIMITS.items():
        if not test(options[key]):
            raise ConfigError(f"{key} must be {wording}, got {options[key]}")
    with reading(path, ConfigError):
        return Config(options, bob=bob, schema=schema)


def _require_bob(config: Config):
    if config.bob is None:
        raise ConfigError("this command needs bob parameters ([paths] bob_params in the config)")
    return config.bob


@contextmanager
def _naming(path):
    """Start an error raised while one input file is handled with its path; the class stays."""
    try:
        yield
    except SleddynError as exc:
        if str(exc).startswith(f"{path}:"):
            raise
        raise type(exc)(f"{path}: {exc}") from None


def _traced_run(path, config: Config, bob, aero: AeroModel):
    """The processed run of one telemetry file, its reconstructed axle forces and its digest.

    The digest (``kvfile.file_digest``) is taken right after the read, for
    the provenance header, so that no file is read a second time later.
    """
    with _naming(path):
        run = telemetry.ingest_csv(path, config.schema)
        digest = kvfile.file_digest(path)
        cutoff = config.options["cutoff_hz"] or None
        run = telemetry.process(run, cutoff=cutoff, rate=config.options["rate_hz"])
        return run, build_axle_trace(run, bob, aero=aero, mu_x_fixed=config.options["mu_x"],
                                     v_min=config.options["v_min"]), digest


def _prepared_runs(paths, config: Config, bob, aero: AeroModel):
    """Context manager: an iterator over the ``_traced_run`` of each path, from every usable CPU."""
    if config.options["cutoff_hz"]:
        import scipy.signal  # loaded once here rather than in every worker

    return forked.shares(lambda path: _traced_run(path, config, bob, aero), paths, len(paths))


def _run_keys(paths) -> list[str]:
    """File stems as report keys, or the paths as given when two stems coincide."""
    stems = [Path(p).stem for p in paths]
    return stems if len(set(stems)) == len(stems) else [str(p) for p in paths]


# ---------------------------------------------------------------------------
# icehouse


def cmd_icehouse(args) -> tuple[dict, list[str]]:
    config = load_config(args.config, {"window_fraction": args.window})
    if not (args.glides or args.points):
        raise ConfigError("nothing to do: give glide files and/or --points")
    quadratic = icehouse.fit_quadratic_mu_p(icehouse.load_points(args.points)) if args.points else None
    report: dict = {}
    specimens: dict[str, dict[str, list]] = defaultdict(lambda: {"up": [], "down": []})
    for key, path in zip(_run_keys(args.glides), args.glides):
        run = icehouse.load_glide_csv(path)
        outcome = icehouse.evaluate_glide(run, window_fraction=config.options["window_fraction"])
        specimens[run.specimen][run.direction].append(outcome)
        for field in ("mu", "mu_stderr", "f_ice"):
            report[f"run.{key}.{field}"] = getattr(outcome, field)
    for name, sides in specimens.items():
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
    config = load_config(args.config, {
        "cutoff_hz": args.cutoff, "rate_hz": args.rate,
        "roll_threshold_deg_s2": args.roll_threshold,
    }, schema_path=args.schema)
    bob = _require_bob(config)
    aero = config.aero_model()
    threshold = config.options["roll_threshold_deg_s2"]
    fit_paths, digests, holdout_runs = [], [], []
    datasets: dict[str, list] = {"front": [], "rear": []}
    with _prepared_runs(args.telemetry, config, bob, aero) as prepared:
        for path, (run, trace, digest) in zip(args.telemetry, prepared):
            with _naming(path):
                if args.holdout and run.meta.track == args.holdout:
                    holdout_runs.append((path, run, trace))
                    continue
                fit_paths.append(path)
                digests.append(digest)
                for runner in ("front", "rear"):
                    datasets[runner].append(fitting.select_fit_samples(trace, run, threshold, runner))
    if not fit_paths:
        raise DataError("holdout excluded every run")

    def fit(runner):
        """The runner's fit and its diagnostics, both made in the process that fits it."""
        parts = datasets[runner]
        data = fitting.FitDataset(runner=runner, **{name: np.concatenate([getattr(d, name) for d in parts])
                                                    for name in ("alpha", "f_z", "f_y")})
        result = fitting.fit_lateral(data)
        return result, fitting.fit_report(result, data)

    import scipy.optimize  # loaded once here rather than in the worker

    # the two runners are fitted at once on two CPUs; a failing fit raises here as in serial code
    with forked.shares(fit, tuple(datasets), 2) as fitted:
        results = dict(zip(datasets, fitted))

    validation = {}
    laws = {"fitted": (results["front"][0].params, results["rear"][0].params),
            "reference": ("braghin", "braghin")}
    for key, (path, run, trace) in zip(_run_keys([path for path, _, _ in holdout_runs]), holdout_runs):
        with _naming(path):
            measured = evaluation.measured_lateral_cog(trace)
            validation[key] = {name: evaluation.validate_rmse(
                evaluation.model_lateral_cog(trace, front, rear, run, mu_x=config.options["mu_x"]),
                measured, trace.valid) for name, (front, rear) in laws.items()}

    header = kvfile.provenance_lines(fit_paths, {"roll_threshold": threshold}, digests)
    files, lines = {}, []
    for runner, (result, report) in results.items():
        files[f"lateral_{runner}.kv"] = partial(fitting.save_fit_result, result, header=header)
        for i, entry in enumerate(report):
            files[f"diagnostics_{runner}_bin{i}.csv"] = partial(write_table, columns={
                "alpha": entry["curve_alpha"], "f_y_model": entry["curve_f_y"],
            }, comments=header)
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
    config = load_config(args.config, schema_path=args.schema)
    bob = _require_bob(config)
    # checked like any parameter file, though the evaluation reads neither law
    fitting.load_lateral_params(args.front_params)
    fitting.load_lateral_params(args.rear_params)
    aero = config.aero_model()

    rows, labeled, digests = [], [], []
    with _prepared_runs(args.telemetry, config, bob, aero) as prepared:
        for key, path, (run, trace, digest) in zip(_run_keys(args.telemetry), args.telemetry, prepared):
            digests.append(digest)
            with _naming(path):
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

    header = kvfile.provenance_lines(args.telemetry, {"mu_x": config.options["mu_x"]}, digests)
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
        writer.writerow(["driver", "channel", "q05", "q25", "q50", "q75", "q95",
                         "over_2deg", "over_4deg", "n"])
        for driver, channels in angle_report.items():
            for channel, stats in channels.items():
                q, over = stats["quantiles_deg"], stats["exceedance"]
                writer.writerow([driver, channel, *(repr(q[p]) for p in (0.05, 0.25, 0.5, 0.75, 0.95)),
                                 repr(over[2.0]), repr(over[4.0]), stats["n"]])


def _write_json(path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> tuple[dict, list[str]]:
    config = load_config(args.config, schema_path=args.schema)
    bob = _require_bob(config)
    scenario = sim.load_scenario(args.scenario)
    from .friction import LateralFrictionParams

    front = fitting.load_lateral_params(args.front_params) if args.front_params else \
        LateralFrictionParams(mu_zeta_y=2.577, c_y=0.024, k_y=10522.0)
    rear = fitting.load_lateral_params(args.rear_params) if args.rear_params else \
        LateralFrictionParams(mu_zeta_y=3.288, c_y=0.076, k_y=49776.0)
    setup = sim.FrictionSetup(lateral_front=front, lateral_rear=rear,
                              mu_x=config.options["mu_x"])
    aero = config.aero_model()
    try:
        log = sim.simulate(bob, scenario["track"], scenario["controls"], setup, aero,
                           v0=scenario["v0"], beta0=scenario["beta0"],
                           psi_dot0=scenario["psi_dot0"], dt=scenario["dt"],
                           t_max=scenario["t_max"])
    except ConfigError as exc:  # a scenario value the simulator rejects; not its NumericalError
        raise ConfigError(f"{args.scenario}: {exc}") from None
    with _naming(args.scenario):
        run, truth = sim.export_synthetic_telemetry(
            log, bob, rate=scenario["meta"].rate_hz, noise=scenario["noise"],
            seed=args.seed, meta=scenario["meta"])
    header = kvfile.provenance_lines([args.scenario], {"seed": args.seed if args.seed is not None else "none"})
    files = {
        "telemetry.csv": partial(telemetry.export_csv, run, schema=config.schema,
                                 header_comments=header),
        "truth.csv": partial(export_trace_csv, truth, header_comments=header),
    }
    return files, [f"simulated {log.t[-1]:.2f} s / {log.s[-1]:.1f} m -> {args.out_dir}"]


# ---------------------------------------------------------------------------
# friction-table


def _pressure_grid(p_range: str) -> np.ndarray:
    """Pressure grid [MPa] from ``lo:hi:step``; a single point when hi <= lo."""
    try:
        lo, hi, step_w = (float(x) for x in p_range.split(":"))
    except ValueError:
        lo = hi = step_w = np.nan
    if not (np.isfinite([lo, hi, step_w]).all() and lo > 0 and step_w > 0):
        raise ConfigError(f"--p-range must be lo:hi:step in MPa with lo > 0 and step > 0, "
                          f"got {p_range!r}")
    return np.arange(lo, hi + step_w / 2, step_w) if hi > lo else np.array([lo])


def cmd_friction_table(args) -> tuple[dict, list[str]]:
    if not (args.long_params or args.lateral_params):
        raise ConfigError("nothing to do: give --long-params and/or --lateral-params")
    files = {}
    if args.long_params:
        from .friction import load_longitudinal_params

        grid = _pressure_grid(args.p_range)
        params = load_longitudinal_params(args.long_params)
        header = kvfile.provenance_lines([args.long_params], {"p_range": args.p_range})
        files["mu_x_curve.csv"] = partial(write_table, columns={
            "p_mpa": grid, "mu_x": mu_x(grid, params)}, comments=header)
    if args.lateral_params:
        if not all(0 < f_z < np.inf for f_z in args.f_z):
            raise ConfigError(f"--f-z loads must be positive and finite, got {args.f_z}")
        loads = [f"{f_z:.15g}" for f_z in args.f_z]
        if len(set(loads)) < len(loads):
            raise ConfigError(f"--f-z loads must differ, got {args.f_z}")
        if not 0 < args.alpha_max_deg < np.inf:
            raise ConfigError(f"--alpha-max-deg must be positive and finite, got {args.alpha_max_deg}")
        lat = fitting.load_lateral_params(args.lateral_params)
        alpha = np.deg2rad(np.linspace(-args.alpha_max_deg, args.alpha_max_deg, 181))
        header = kvfile.provenance_lines([args.lateral_params], {"f_z": args.f_z})
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sleddyn", description="runner-ice friction and bobsled dynamics toolkit")
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--schema", help="telemetry schema JSON (overrides the config)")
    parser.add_argument("--out-dir", type=Path, default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed for stochastic steps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("icehouse", help="friction from gliding runs or (p, mu) points")
    p.add_argument("glides", nargs="*", help="glide-run CSV files")
    p.add_argument("--points", help="CSV/whitespace file of (p, mu) pairs")
    p.add_argument("--window", type=float, default=None, help="gliding window fraction")
    p.set_defaults(func=cmd_icehouse)

    p = sub.add_parser("fit", help="fit lateral friction parameters from telemetry")
    p.add_argument("telemetry", nargs="*", help="telemetry CSV files")
    p.add_argument("--cutoff", type=float, default=None, help="low-pass cutoff [Hz]")
    p.add_argument("--rate", type=float, default=None, help="analysis rate [Hz]")
    p.add_argument("--roll-threshold", type=float, default=None, help="exclusion threshold [deg/s^2]")
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
    except OSError as exc:
        return _fail("data error", exc, 2)
    for line in lines:
        print(line)
    return 0


def _fail(label: str, exc: Exception, code: int) -> int:
    # some messages (configparser's) span lines; stderr gets exactly one
    print(f"{label}: {' '.join(str(exc).splitlines())}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
