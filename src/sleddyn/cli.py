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

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure. Commands validate inputs and finish computing before the first
output file is written, so failures leave no partial artifacts.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from . import evaluation, fitting, icehouse, kvfile, sim, telemetry
from .aero import AeroModel, AirState
from .errors import ConfigError, DataError, SleddynError, reading
from .friction import MU_X_DEFAULT, force_y_braghin, mu_x
from .onetrack import build_axle_trace, export_trace_csv, load_bob_params
from .tables import write_table
from .telemetry import identity_schema, load_schema


# ---------------------------------------------------------------------------
# configuration


DEFAULTS = {
    "cutoff_hz": 20.0,
    "rate_hz": 100.0,
    "roll_threshold_deg_s2": 100.0,
    "window_fraction": 0.6,
    "v_min": 2.0,
    "mu_x": MU_X_DEFAULT,
    "yaw_sensitivity": 0.0694,
    "p_air": 94700.0,
    "temperature": 275.15,
    "r_specific": 287.05,
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
    import os

    options = dict(DEFAULTS)
    bob = schema = None
    paths: dict[str, Path] = {}
    if path is not None:
        parser = configparser.ConfigParser()
        with reading(path, ConfigError):
            if not parser.read(path, encoding="utf-8"):
                raise ConfigError(f"config file not found: {path}")
            for key in options:
                for section in ("processing", "aero"):
                    if parser.has_option(section, key):
                        with reading(path, ConfigError, f"bad value for {key}: "):
                            options[key] = parser.getfloat(section, key)
            if parser.has_option("paths", "pressure_front"):
                raise ConfigError(f"{path}: [paths] pressure_front is not supported: "
                                  "no command uses a pressure table")
            for key in ("bob_params", "schema"):
                if parser.has_option("paths", key):
                    paths[key] = Path(path).parent / parser.get("paths", key)
    # environment variables override file paths (and nothing else)
    for key in ("bob_params", "schema"):
        env = os.environ.get(f"SLEDDYN_{key.upper()}")
        if env:
            paths[key] = Path(env)
    if "bob_params" in paths:
        bob = load_bob_params(paths["bob_params"])
    if "schema" in paths:
        schema = load_schema(paths["schema"])
    for key, value in (overrides or {}).items():
        if value is not None:
            options[key] = value
    if schema_path is not None:
        schema = load_schema(schema_path)
    if not 0 < options["rate_hz"] < np.inf:
        raise ConfigError(f"rate_hz must be positive and finite, got {options['rate_hz']}")
    with reading(path, ConfigError):
        return Config(options, bob=bob, schema=schema)


def _require_bob(config: Config):
    if config.bob is None:
        raise ConfigError("this command needs bob parameters ([paths] bob_params in the config)")
    return config.bob


def _prepare_run(path, config: Config):
    run = telemetry.ingest_csv(path, config.schema)
    cutoff = config.options["cutoff_hz"] or None
    return telemetry.process(run, cutoff=cutoff, rate=config.options["rate_hz"])


def _run_keys(paths) -> list[str]:
    """File stems as report keys, or the paths as given when two stems coincide."""
    stems = [Path(p).stem for p in paths]
    return stems if len(set(stems)) == len(stems) else [str(p) for p in paths]


# ---------------------------------------------------------------------------
# icehouse


def cmd_icehouse(args) -> int:
    config = load_config(args.config, {"window_fraction": args.window})
    if not (args.glides or args.points):
        raise ConfigError("nothing to do: give glide files and/or --points")
    out_dir = Path(args.out_dir)
    results = []
    if args.points:
        params = icehouse.fit_quadratic_mu_p(icehouse.load_points(args.points))
        results.append(("quadratic", params))
    glide_results = []
    specimens: dict[str, dict[str, list]] = defaultdict(lambda: {"up": [], "down": []})
    for path in args.glides:
        run = icehouse.load_glide_csv(path)
        outcome = icehouse.evaluate_glide(run, window_fraction=config.options["window_fraction"])
        glide_results.append(outcome)
        specimens[run.specimen][run.direction].append(outcome)
    averaged = {}
    for name, sides in specimens.items():
        if not sides["up"] or not sides["down"]:
            raise DataError(f"specimen {name!r} needs runs in both directions for averaging")
        mu_up = float(np.mean([r.mu for r in sides["up"]]))
        mu_down = float(np.mean([r.mu for r in sides["down"]]))
        err = float(np.sqrt(np.mean([r.mu_stderr ** 2 for r in sides["up"] + sides["down"]])))
        averaged[name] = (icehouse.average_bidirectional(mu_up, mu_down), err)

    out_dir.mkdir(parents=True, exist_ok=True)
    header = kvfile.provenance_lines(list(args.glides) + ([args.points] if args.points else []),
                                     {"window_fraction": config.options["window_fraction"]})
    report: dict = {}
    for key, outcome in zip(_run_keys(args.glides), glide_results):
        report[f"run.{key}.mu"] = outcome.mu
        report[f"run.{key}.mu_stderr"] = outcome.mu_stderr
        report[f"run.{key}.f_ice"] = outcome.f_ice
    for name, (mu_avg, err) in averaged.items():
        report[f"specimen.{name}.mu"] = mu_avg
        report[f"specimen.{name}.mu_stderr"] = err
    for label, params in results:
        report[f"{label}.b_x"] = params.b_x
        report[f"{label}.c_x"] = params.c_x
        report[f"{label}.d_x"] = params.d_x
        report[f"{label}.e_x"] = params.e_x
        report[f"{label}.zeta_x"] = params.zeta_x
        report[f"{label}.vertex_pressure"] = params.vertex_pressure
    kvfile.dump_kv(report, out_dir / "friction_report.kv", header=header)
    print(f"wrote {out_dir / 'friction_report.kv'}")
    return 0


# ---------------------------------------------------------------------------
# fit


def cmd_fit(args) -> int:
    if not args.telemetry:
        raise ConfigError("no telemetry files given")
    config = load_config(args.config, {
        "cutoff_hz": args.cutoff, "rate_hz": args.rate,
        "roll_threshold_deg_s2": args.roll_threshold,
    }, schema_path=args.schema)
    bob = _require_bob(config)
    out_dir = Path(args.out_dir)
    runs = [_prepare_run(p, config) for p in args.telemetry]

    fit_runs, holdout_runs = [], []
    for path, run in zip(args.telemetry, runs):
        (holdout_runs if args.holdout and run.meta.track == args.holdout else fit_runs).append((path, run))
    if not fit_runs:
        raise DataError("holdout excluded every run")

    aero = config.aero_model()
    fit_config = fitting.FitConfig(roll_threshold_deg_s2=config.options["roll_threshold_deg_s2"])
    datasets: dict[str, list] = {"front": [], "rear": []}
    for path, run in fit_runs:
        trace = build_axle_trace(run, bob, aero=aero, mu_x_fixed=config.options["mu_x"],
                                 v_min=config.options["v_min"])
        for runner in ("front", "rear"):
            datasets[runner].append(fitting.select_fit_samples(trace, run, fit_config, runner))

    results = {}
    for runner, parts in datasets.items():
        data = fitting.FitDataset(
            alpha=np.concatenate([d.alpha for d in parts]),
            f_z=np.concatenate([d.f_z for d in parts]),
            f_y=np.concatenate([d.f_y for d in parts]),
            runner=runner,
        )
        results[runner] = (fitting.fit_lateral(data, fit_config), data)

    validation = {}
    keys = _run_keys([path for path, _ in holdout_runs])
    for key, (path, run) in zip(keys, holdout_runs):
        trace = build_axle_trace(run, bob, aero=aero, mu_x_fixed=config.options["mu_x"],
                                 v_min=config.options["v_min"])
        measured = evaluation.measured_lateral_cog(trace)
        fitted = evaluation.model_lateral_cog(
            trace, results["front"][0].params, results["rear"][0].params, run,
            mu_x=config.options["mu_x"])
        reference = evaluation.model_lateral_cog(trace, "braghin", "braghin", run,
                                                 mu_x=config.options["mu_x"])
        validation[key] = {
            "fitted": evaluation.validate_rmse(fitted, measured, trace.valid),
            "reference": evaluation.validate_rmse(reference, measured, trace.valid),
        }

    out_dir.mkdir(parents=True, exist_ok=True)
    header = kvfile.provenance_lines([p for p, _ in fit_runs],
                                     {"roll_threshold": fit_config.roll_threshold_deg_s2})
    for runner, (result, data) in results.items():
        fitting.save_fit_result(result, out_dir / f"lateral_{runner}.kv", header=header)
        report = fitting.fit_report(result, data)
        for i, entry in enumerate(report):
            write_table(out_dir / f"diagnostics_{runner}_bin{i}.csv", {
                "alpha": entry["curve_alpha"], "f_y_model": entry["curve_f_y"],
            }, header)
        notes = "".join(
            f" [{name} at bound]"
            for name, value, (lo, hi) in zip(
                ("mu_zeta_y", "c_y", "k_y"),
                (result.params.mu_zeta_y, result.params.c_y, result.params.k_y),
                fit_config.bounds)
            if value <= lo * 1.0001 or value >= hi * 0.9999
        )
        print(f"{runner}: mu_zeta_y={result.params.mu_zeta_y:.4g} c_y={result.params.c_y:.4g} "
              f"k_y={result.params.k_y:.6g} rms={result.residual_rms:.4g} N "
              f"({result.n_samples} samples, converged={result.converged}){notes}")
        if notes:
            print(f"  note: {runner} data poorly constrains the scale/shape split "
                  "(small slip-angle or load range); the stiffness k_y and the "
                  "predicted curve remain reliable")
    if validation:
        with open(out_dir / "validation_rmse.json", "w", encoding="utf-8") as fh:
            json.dump({"provenance": header, "runs": validation}, fh, indent=2)
        print(f"holdout validation written for {len(validation)} runs")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    if not args.telemetry:
        raise ConfigError("no telemetry files given")
    config = load_config(args.config, schema_path=args.schema)
    bob = _require_bob(config)
    front = fitting.load_lateral_params(args.front_params)
    rear = fitting.load_lateral_params(args.rear_params)
    out_dir = Path(args.out_dir)
    runs = [_prepare_run(p, config) for p in args.telemetry]
    aero = config.aero_model()

    rows = []
    labeled = []
    for path, run in zip(args.telemetry, runs):
        trace = build_axle_trace(run, bob, aero=aero, mu_x_fixed=config.options["mu_x"],
                                 v_min=config.options["v_min"])
        parts = evaluation.loss_energies(trace, run, aero, mu_x=config.options["mu_x"])
        loss = evaluation.combine_losses(parts)
        label = run.meta.driver or Path(path).stem
        track = run.meta.track or "unknown"
        labeled.append((label, run, trace))
        rows.append({
            "run": Path(path).stem, "driver": label, "track": track,
            "e_tot_loss": loss.e_tot_loss, "de_ice_f": loss.de_ice_f,
            "de_ice_r": loss.de_ice_r, "de_aero": loss.de_aero, "de_tot": loss.de_tot,
            "runtime": loss.runtime, "distance": loss.distance,
            "segments": len(parts),
        })
    angle_report = evaluation.angle_statistics(labeled)

    def medians(group_key):
        groups: dict[str, list] = defaultdict(list)
        for row in rows:
            groups[row[group_key]].append(row)
        return {
            label: {
                key: float(np.median([r[key] for r in rws]))
                for key in ("de_ice_f", "de_ice_r", "de_aero", "de_tot")
            }
            for label, rws in groups.items()
        }

    out_dir.mkdir(parents=True, exist_ok=True)
    header = kvfile.provenance_lines(args.telemetry, {"mu_x": config.options["mu_x"]})
    with open(out_dir / "evaluation.json", "w", encoding="utf-8") as fh:
        json.dump({
            "provenance": header,
            "runs": rows,
            "driver_summaries": medians("driver"),
            "track_summaries": medians("track"),
            "angle_statistics": angle_report,
        }, fh, indent=2)
    write_table(out_dir / "losses.csv", {
        key: [r[key] for r in rows] for key in ("de_ice_f", "de_ice_r", "de_aero", "de_tot")
    }, header)
    # boxplot companion: one row per (driver, angle channel)
    with open(out_dir / "angles.csv", "w", newline="", encoding="utf-8") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["driver", "channel", "q05", "q25", "q50", "q75", "q95",
                         "over_2deg", "over_4deg", "n"])
        for driver, channels in angle_report.items():
            for channel, stats in channels.items():
                q = stats["quantiles_deg"]
                writer.writerow([
                    driver, channel,
                    *(repr(q[p]) for p in (0.05, 0.25, 0.5, 0.75, 0.95)),
                    repr(stats["exceedance"][2.0]), repr(stats["exceedance"][4.0]),
                    stats["n"],
                ])
    drivers = {r["driver"] for r in rows}
    print(f"evaluated {len(rows)} runs for {len(drivers)} drivers -> {out_dir / 'evaluation.json'}")
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
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
    log = sim.simulate(bob, scenario["track"], scenario["controls"], setup, aero,
                       v0=scenario["v0"], beta0=scenario["beta0"],
                       psi_dot0=scenario["psi_dot0"], dt=scenario["dt"],
                       t_max=scenario["t_max"])
    run, truth = sim.export_synthetic_telemetry(
        log, bob, rate=scenario["meta"].rate_hz, noise=scenario["noise"],
        seed=args.seed, meta=scenario["meta"])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = kvfile.provenance_lines([args.scenario], {"seed": args.seed if args.seed is not None else "none"})
    telemetry.export_csv(run, out_dir / "telemetry.csv", config.schema, header_comments=header)
    export_trace_csv(truth, out_dir / "truth.csv", header_comments=header)
    print(f"simulated {log.t[-1]:.2f} s / {log.s[-1]:.1f} m -> {out_dir}")
    return 0


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


def cmd_friction_table(args) -> int:
    if not (args.long_params or args.lateral_params):
        raise ConfigError("nothing to do: give --long-params and/or --lateral-params")
    tables = {}
    if args.long_params:
        from .friction import load_longitudinal_params

        grid = _pressure_grid(args.p_range)
        params = load_longitudinal_params(args.long_params)
        header = kvfile.provenance_lines([args.long_params], {"p_range": args.p_range})
        tables["mu_x_curve.csv"] = ({"p_mpa": grid, "mu_x": mu_x(grid, params)}, header)
    if args.lateral_params:
        if not all(0 < f_z < np.inf for f_z in args.f_z):
            raise ConfigError(f"--f-z loads must be positive and finite, got {args.f_z}")
        lat = fitting.load_lateral_params(args.lateral_params)
        alpha = np.deg2rad(np.linspace(-args.alpha_max_deg, args.alpha_max_deg, 181))
        header = kvfile.provenance_lines([args.lateral_params], {"f_z": args.f_z})
        columns = {"alpha_deg": np.degrees(alpha)}
        for f_z in args.f_z:
            columns[f"f_y_at_{int(f_z)}N"] = lat(f_z, alpha)
            columns[f"f_y_reference_at_{int(f_z)}N"] = force_y_braghin(f_z, alpha)
        tables["lateral_curves.csv"] = (columns, header)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (columns, header) in tables.items():
        write_table(out_dir / name, columns, header)
    print(f"wrote {', '.join(tables)} in {out_dir}")
    return 0


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
    parser.add_argument("--out-dir", default="out", help="output directory")
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
        return args.func(args)
    except SleddynError as exc:
        return _fail(exc.label, exc, exc.exit_code)
    except np.linalg.LinAlgError as exc:
        return _fail("numerical failure", exc, 3)
    except OSError as exc:
        return _fail("data error", exc, 2)


def _fail(label: str, exc: Exception, code: int) -> int:
    # some messages (configparser's) span lines; stderr gets exactly one
    print(f"{label}: {' '.join(str(exc).splitlines())}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
