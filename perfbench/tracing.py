"""Span tracer that wraps sleddyn's public functions from outside the package.

The tracer rebinds every public module-level function of the traced
modules (and every alias of it in other sleddyn modules, since modules
import names from each other) with a wrapper that records a span:
name, start, end, parent span and pass id. Spans stay in memory until
the benchmark writes them out at the end of the run.

Two simulator functions run thousands of times per simulated second;
they are counted instead of spanned so the trace stays small:
``sim.step`` (one call per RK4 step) and the private force-bundle
function ``sim._force_bundle`` (the count behind
``sim.force_evals_per_step``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# modules whose public functions become spans; ``cli`` contributes only
# its ``cmd_*`` handlers, so their self time covers config loading and
# output writing
TRACED_MODULES = ("cli", "telemetry", "kinematics", "friction", "aero", "onetrack",
                  "fitting", "evaluation", "icehouse", "sim")
COUNTED = {"sim.step": "sim.step", "sim._force_bundle": "sim.force_bundle"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# work counts taken at the span boundary from arguments and results
MEASURES = {
    "telemetry.ingest_csv": lambda a, k, r: {"rows": len(r.t)},
    "telemetry.export_csv": lambda a, k, r: {"rows": len(_arg(a, k, 0, "run").t)},
    "onetrack.export_trace_csv": lambda a, k, r: {"rows": len(_arg(a, k, 0, "trace").t)},
    "onetrack.build_axle_trace": lambda a, k, r: {"samples": len(r.t), "valid": int(r.valid.sum())},
    "fitting.select_fit_samples": lambda a, k, r: {"offered": len(_arg(a, k, 0, "trace").t),
                                                  "kept": len(r)},
    "evaluation.loss_energies": lambda a, k, r: {"segments": len(r)},
    "sim.simulate": lambda a, k, r: {"steps": len(r) - 1},
}


def _fit_outcome(a, k, r):
    runner = _arg(a, k, 0, "dataset").runner
    return {f"iterations.{runner}": r.iterations, f"converged.{runner}": float(r.converged)}


# per-call values where the last call of a pass wins
LAST_VALUE = {"fitting.fit_lateral": _fit_outcome}


class Tracer:
    """Spans and counters of one process, grouped by pass id."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, pass_id)
        self.counts = defaultdict(float)   # (pass_id, key) -> summed value
        self.last = {}                 # (pass_id, key) -> last value
        self.pass_id = 0
        self._stack: list[int] = []
        self._bindings: list = []      # (module, attribute, original)

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        measure = MEASURES.get(name)
        last = LAST_VALUE.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.pass_id)
            if measure is not None:
                for key, value in measure(args, kwargs, result).items():
                    self.counts[(self.pass_id, f"{name}.{key}")] += value
            if last is not None:
                for key, value in last(args, kwargs, result).items():
                    self.last[(self.pass_id, f"{name}.{key}")] = value
            return result

        return traced

    def _count_wrapper(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(self.pass_id, key)] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Rebind the traced functions in every loaded sleddyn module."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        replace = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"sleddyn.{short}")
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in COUNTED:
                    replace[id(obj)] = self._count_wrapper(COUNTED[name], obj)
                elif attr.startswith("_") or (short == "cli" and not attr.startswith("cmd_")):
                    continue
                else:
                    replace[id(obj)] = self._span_wrapper(name, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sleddyn" and not mod_name.startswith("sleddyn."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    # -- export ------------------------------------------------------------

    def dump(self) -> dict:
        """Plain-data form, written out at the end of a traced run."""
        return {
            "spans": [list(s) for s in self.spans if s is not None],
            "counts": [[p, k, v] for (p, k), v in self.counts.items()],
            "last": [[p, k, v] for (p, k), v in self.last.items()],
        }


def self_times(spans) -> list[float]:
    """Span duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for sid, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _inclusive(spans, sid) -> bool:
    """True when no ancestor of the span has the same name (no double count)."""
    name, parent = spans[sid][0], spans[sid][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


CLI_COMMANDS = ("simulate", "fit", "eval", "friction_table", "icehouse")
FUNCTION_MS = (
    "telemetry.ingest_csv", "telemetry.lowpass_filter", "telemetry.resample",
    "telemetry.derive_channels", "onetrack.build_axle_trace", "fitting.fit_lateral",
    "fitting.fit_report", "evaluation.loss_energies", "evaluation.angle_statistics",
    "evaluation.model_lateral_cog", "icehouse.load_glide_csv", "icehouse.evaluate_glide",
    "icehouse.fit_quadratic_mu_p", "sim.simulate", "sim.export_synthetic_telemetry",
    "sim.load_scenario",
)
MODULE_MS = ("kinematics", "friction", "aero")


def pass_metrics(tracer: Tracer, pass_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; 0 for layers the pass never entered."""
    ids = [i for i, s in enumerate(tracer.spans) if s is not None and s[4] == pass_id]
    spans = {i: tracer.spans[i] for i in ids}
    # self time needs the whole parent chain; spans of a pass only nest in the same pass
    index = {sid: k for k, sid in enumerate(ids)}
    local = [(n, a, b, index.get(p, -1), q) for n, a, b, p, q in spans.values()]
    selfs = self_times(local)

    total = defaultdict(float)     # inclusive seconds per function
    own = defaultdict(float)       # self seconds per function
    calls = defaultdict(int)
    for k, (name, start, end, _, _) in enumerate(local):
        calls[name] += 1
        own[name] += selfs[k]
        if _inclusive(local, k):
            total[name] += end - start

    def count(key):
        return tracer.counts.get((pass_id, key), 0.0)

    def rate(rows_key, fn):
        seconds = total.get(fn, 0.0)
        return count(rows_key) / seconds if seconds > 0 else 0.0

    m = {}
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.ms"] = own.get(f"cli.cmd_{cmd}", 0.0) * 1e3
    for fn in FUNCTION_MS:
        m[f"{fn}.ms"] = total.get(fn, 0.0) * 1e3
    for mod in MODULE_MS:
        m[f"{mod}.ms"] = sum(v for n, v in own.items() if n.startswith(mod + ".")) * 1e3
    m["telemetry.ingest_csv.rows_per_s"] = rate("telemetry.ingest_csv.rows", "telemetry.ingest_csv")
    m["telemetry.export_csv.rows_per_s"] = rate("telemetry.export_csv.rows", "telemetry.export_csv")
    m["onetrack.export_trace_csv.rows_per_s"] = rate("onetrack.export_trace_csv.rows",
                                                     "onetrack.export_trace_csv")
    m["friction.force_y.calls"] = float(calls.get("friction.force_y", 0))
    samples = count("onetrack.build_axle_trace.samples")
    m["onetrack.valid_ratio"] = count("onetrack.build_axle_trace.valid") / samples if samples else 0.0
    offered = count("fitting.select_fit_samples.offered")
    m["fitting.select_fit_samples.kept_ratio"] = (
        count("fitting.select_fit_samples.kept") / offered if offered else 0.0)
    for runner in ("front", "rear"):
        for stat in ("iterations", "converged"):
            key = f"fitting.fit_lateral.{stat}.{runner}"
            m[key] = float(tracer.last.get((pass_id, key), 0.0))
    m["evaluation.segments"] = count("evaluation.loss_energies.segments")
    steps = count("sim.simulate.steps")
    m["sim.steps"] = steps
    m["sim.us_per_step"] = total.get("sim.simulate", 0.0) * 1e6 / steps if steps else 0.0
    m["sim.force_evals_per_step"] = count("sim.force_bundle") / steps if steps else 0.0
    return m
