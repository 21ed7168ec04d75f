"""sleddyn benchmark: one workload, one seed, timed for a fixed number of seconds.

    python3 perfbench/run.py --workload season --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that has ``src/sleddyn``. The run
generates the workload's inputs from the seed, measures set-up in fresh
interpreters, then hands the timed passes to ``worker.py`` (one
process, one closed-loop client). ``--trace 0`` reports the end-to-end
metrics, scaled to the reference machine speed of ``speed.py``;
``--trace 1`` reports the per-layer metrics of a traced run, unscaled.
Every metric is printed by name and unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. A results file with the machine and provenance block goes
to ``.perfbench_out/results/``. ``--smoke`` shrinks every input for the
benchmark's own test.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5          # fresh interpreters per run for setup_s / import times
CHILD_TIMEOUT_S = 60       # one set-up interpreter
WORKER_TIMEOUT_S = 150     # all timed passes; a run must end within 180 s

END_TO_END = {             # name -> unit
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s", "cli.import_scipy_signal_s": "s",
    "cli.simulate.ms": "ms", "cli.fit.ms": "ms", "cli.eval.ms": "ms",
    "cli.friction_table.ms": "ms", "cli.icehouse.ms": "ms", "cli.holdout_entries_ratio": "ratio",
    "telemetry.ingest_csv.ms": "ms", "telemetry.ingest_csv.rows_per_s": "1/s",
    "telemetry.export_csv.rows_per_s": "1/s", "telemetry.lowpass_filter.ms": "ms",
    "telemetry.resample.ms": "ms", "telemetry.derive_channels.ms": "ms",
    "kinematics.ms": "ms", "friction.force_y.calls": "count", "friction.ms": "ms",
    "aero.ms": "ms", "onetrack.build_axle_trace.ms": "ms", "onetrack.valid_ratio": "ratio",
    "onetrack.export_trace_csv.rows_per_s": "1/s",
    "fitting.select_fit_samples.kept_ratio": "ratio", "fitting.fit_lateral.ms": "ms",
    "fitting.fit_lateral.iterations.front": "count", "fitting.fit_lateral.iterations.rear": "count",
    "fitting.fit_lateral.converged.front": "flag", "fitting.fit_lateral.converged.rear": "flag",
    "fitting.fit_report.ms": "ms", "evaluation.loss_energies.ms": "ms",
    "evaluation.segments": "count", "evaluation.angle_statistics.ms": "ms",
    "evaluation.model_lateral_cog.ms": "ms", "icehouse.load_glide_csv.ms": "ms",
    "icehouse.evaluate_glide.ms": "ms", "icehouse.fit_quadratic_mu_p.ms": "ms",
    "sim.simulate.ms": "ms", "sim.steps": "count", "sim.us_per_step": "us",
    "sim.force_evals_per_step": "count", "sim.export_synthetic_telemetry.ms": "ms",
    "sim.load_scenario.ms": "ms", "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio", "k_y_err": "ratio", "de_tot_err": "fraction", "audit_defect": "ratio",
    "kvfile.numpy_repr_values": "count",
}
# figures the output checks measure in every run (worst operation of the run);
# kvfile.numpy_repr_values counts a program defect the checks report but do not fail
CHECK_VALUES = ("failed_ratio", "k_y_err", "de_tot_err", "audit_defect",
                "kvfile.numpy_repr_values")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up sample")
    return p.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# provenance


def blas_threads() -> int:
    """OpenBLAS thread count of the loaded numpy, or -1 when it cannot be read."""
    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def provenance(args, input_digest) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": blas_threads(),
        "git_sha": git_sha(), "src_digest": workloads.digest(SRC / "sleddyn"),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "input_digest": input_digest,
    }


# ---------------------------------------------------------------------------
# fresh-interpreter measurements


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_seconds(work: Path) -> float:
    """Fresh interpreter until ``sleddyn.cli`` is imported and ``load_config`` returned."""
    code = "import sleddyn.cli as c; c.load_config('config.ini')"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=work, env=child_env(), check=True,
                   timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def import_times(work: Path) -> dict[str, float]:
    """Cumulative import time of ``sleddyn.cli`` and ``scipy.signal`` from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sleddyn.cli"],
                          cwd=work, env=child_env(), check=True, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    found = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(2) in ("sleddyn.cli", "scipy.signal"):
            found[m.group(2)] = int(m.group(1)) / 1e6
    return {"cli.import_s": found.get("sleddyn.cli", 0.0),
            "cli.import_scipy_signal_s": found.get("scipy.signal", 0.0)}


# ---------------------------------------------------------------------------
# summary


def summary(values) -> dict:
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sleddyn" / "cli.py").is_file():
        return fail(f"no sleddyn sources under {SRC}; run inside a checkout of the repository")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    work = OUT / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    results_dir = OUT / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"

    # -- inputs ---------------------------------------------------------------
    t_gen = time.perf_counter()
    plan = workloads.generate(args.workload, work, args.seed, args.smoke)
    from sleddyn import cli

    gen_checks = []
    os.chdir(work)
    with workloads.SimAudits() as audits, contextlib.redirect_stdout(io.StringIO()):
        for op in plan.gen_ops:
            rc = cli.main(op["argv"])
            gen_checks.append(workloads.Checker(work, plan.expect).check(
                op, rc, "", max(audits.take(), default=None)))
    os.chdir(ROOT)
    if "de_tot" in plan.expect:
        plan.expect["de_tot_values"] = workloads.truth_de_tot(work, plan.expect["de_tot"])
    input_digest = workloads.digest(work)
    gen_s = time.perf_counter() - t_gen

    # -- set-up in fresh interpreters ----------------------------------------
    samples = 1 if args.smoke else SETUP_SAMPLES
    setup, setup_scaled, imports = [], [], []
    for _ in range(samples):
        if args.trace:
            imports.append(import_times(work))
        else:
            before = speed.sample()
            setup.append(setup_seconds(work))
            setup_scaled.append(speed.scaled(setup[-1], [before, speed.sample()]))

    # -- timed passes ---------------------------------------------------------
    spec = dict(plan.to_json(), work=str(work), src=str(SRC), seconds=args.seconds,
                trace=bool(args.trace),
                spans_out=str(results_dir / f"{stem}.spans.json") if args.trace else None)
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec))
    # own process group, so a timeout stops everything the worker started
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                             str(spec_path), str(result_path)], env=child_env(),
                            start_new_session=True)
    try:
        proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return fail(f"timed passes did not end within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not result_path.is_file():
        return fail(f"worker exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())

    # -- checks and metrics -----------------------------------------------------
    passes = result["passes"]
    op_records = [o for p in ([result["warmup"]] if result["warmup"] else []) + passes
                  for o in p["ops"]]
    problems = [f"generate {c.problems}" for c in gen_checks if c.problems]
    problems += [f"{o['kind']}: {o['problems']}" for o in op_records if o["problems"]]
    attempted = len(gen_checks) + len(op_records)
    failed = sum(1 for c in gen_checks if c.problems) + sum(1 for o in op_records if o["problems"])

    checks = {"failed_ratio": failed / attempted}
    all_values = [c.values for c in gen_checks] + [o["values"] for o in op_records]
    for key in CHECK_VALUES[1:]:
        found = [v[key] for v in all_values if key in v]
        checks[key] = max(found) if found else 0.0
    fit_values = [o["values"] for o in op_records if o["kind"] == "fit"]
    holdout = [v["holdout_entries_ratio"] for v in fit_values if "holdout_entries_ratio" in v]
    rear = {"converged": [v.get("rear_converged") for v in fit_values],
            "iterations": [v.get("rear_iterations") for v in fit_values]}

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    calibration = [c for p in passes for c in p["calibration_s"]]
    report = {}
    if args.trace:
        layer_names = [n for n in PER_LAYER if n not in CHECK_VALUES]
        for name in layer_names:
            if name.startswith("cli.import"):
                report[name] = summary([s[name] for s in imports])
            elif name == "cli.holdout_entries_ratio":
                report[name] = summary(holdout or [0.0])
            elif name == "trace.overhead_ratio":
                ratio = (statistics.median(p["wall_s"] for p in traced)
                         / statistics.median(p["wall_s"] for p in untraced)) - 1.0
                report[name] = summary([ratio])
            else:
                report[name] = summary([p["layers"][name] for p in traced])
        for name in CHECK_VALUES:
            report[name] = summary([checks[name]])
        units = PER_LAYER
    else:
        for key in ("wall_s", "cpu_s"):
            report[key] = summary([speed.scaled(p[key], p["calibration_s"]) for p in untraced])
        report["setup_s"] = summary(setup_scaled)
        report["peak_rss_mb"] = summary([result["peak_rss_mb"]])
        units = END_TO_END

    correct = failed == 0
    prov = provenance(args, input_digest)
    prov["samples"] = {name: s["n"] for name, s in report.items()}
    record = {
        "provenance": prov, "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems, "checks": checks, "holdout_entries_ratio": holdout,
        "rear_fit": rear, "generate_s": gen_s,
        "metrics": {n: dict(s, unit=units[n]) for n, s in report.items()},
        "speed": {"reference_s": speed.REFERENCE_S, "calibration": summary(calibration)},
        "raw": {"wall_s": summary([p["wall_s"] for p in untraced]),
                "cpu_s": summary([p["cpu_s"] for p in untraced]),
                "setup_s": summary(setup or [0.0])},
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "calibration_s", "traced")}
                   for p in passes],
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2))
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced / {len(traced)} traced passes, inputs sha256 {input_digest[:16]}, "
          f"nproc {prov['nproc']}, BLAS threads {prov['blas_threads']}")
    print(f"  calibration job median {statistics.median(calibration) * 1e3:.4g} ms "
          f"(reference {speed.REFERENCE_S * 1e3:.4g} ms, n {len(calibration)}); "
          f"raw wall_s {record['raw']['wall_s']['median']:.6g} s"
          + ("" if args.trace else "; times below in reference seconds"))
    for name, s in report.items():
        print(f"  {name:40s} {s['median']:.6g} {units[name]}  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})")
    print(f"  checks: failed_ratio {checks['failed_ratio']:.4g} ({failed}/{attempted}), "
          f"k_y_err {checks['k_y_err']:.4g}, de_tot_err {checks['de_tot_err']:.4g}, "
          f"audit_defect {checks['audit_defect']:.3g}")
    for line in problems:
        print(f"  FAILED {line}")
    if prov["blas_threads"] > prov["nproc"]:
        print(f"  WARNING: {prov['blas_threads']} BLAS threads on {prov['nproc']} CPUs")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": s["median"], "unit": units[n]} for n, s in report.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
