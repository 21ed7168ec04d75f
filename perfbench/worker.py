"""Process that runs a workload's timed passes, one closed-loop client.

    python perfbench/worker.py SPEC.json RESULT.json

Each operation is a ``sleddyn.cli.main`` call in this process, one at a
time. The worker warms up, then runs whole passes until the time is
up, and checks every operation's outputs after its pass (outside the
timed region). Before each operation, also outside the timed region,
it times one calibration job (``speed.py``), so the machine's speed is
sampled as often as the program's. With tracing on, passes alternate
untraced and traced, so the same run yields the trace overhead.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _fill(op: dict, pass_dir: str) -> list[str]:
    return [a.replace("{pass}", pass_dir) for a in op["argv"]]


def run_op(main, argv) -> tuple[int, str]:
    """One ``cli.main`` call; returns its exit code and standard error."""
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:   # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:           # counted as a failed operation, with its traceback
        rc = 1
        err.write(traceback.format_exc())
    return rc, err.getvalue()


def run_passes(spec: dict) -> dict:
    from sleddyn import cli

    work = Path(spec["work"])
    os.chdir(work)
    tracer = tracing.Tracer()
    expect = spec["expect"]

    def one_pass(ops, pass_dir, traced):
        gc.collect()
        if traced:
            tracer.install()
        results, calibration, wall, cpu = [], [], 0.0, 0.0
        for op in ops:
            calibration.append(speed.sample())
            cpu0 = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            results.append((op, *run_op(cli.main, _fill(op, pass_dir))))
            wall += time.perf_counter() - start
            cpu1 = resource.getrusage(resource.RUSAGE_SELF)
            cpu += (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
        if traced:
            tracer.uninstall()
        # checks run after the timed region
        sim_audits = audits.take()
        checked = []
        for op, rc, stderr in results:
            filled = dict(op, out=op["out"].replace("{pass}", pass_dir))
            audit = sim_audits.pop(0) if (op["kind"] == "simulate" and sim_audits) else None
            checker = workloads.Checker(work, expect).check(filled, rc, stderr, audit)
            checked.append({"kind": op["kind"], "rc": rc, "problems": checker.problems,
                            "values": checker.values})
        shutil.rmtree(pass_dir, ignore_errors=True)
        return {"wall_s": wall, "cpu_s": cpu, "traced": traced, "ops": checked,
                "calibration_s": calibration}

    with workloads.SimAudits() as audits:
        warm = one_pass(spec["warmup"], "warmup", False) if spec["warmup"] else None
        passes = []
        deadline = time.perf_counter() + spec["seconds"]
        while True:
            traced = spec["trace"] and len(passes) % 2 == 1
            tracer.pass_id = len(passes)
            record = one_pass(spec["ops"], f"p{len(passes):03d}", traced)
            if traced:
                record["layers"] = tracing.pass_metrics(tracer, tracer.pass_id)
            passes.append(record)
            enough = (not spec["trace"]) or len(passes) >= 2
            if enough and time.perf_counter() >= deadline:
                break
    if spec.get("spans_out"):
        Path(spec["spans_out"]).write_text(json.dumps(tracer.dump()))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"warmup": warm, "passes": passes, "peak_rss_mb": peak}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[0]).read_text())
    result = run_passes(spec)
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
