"""Driver evaluation: relative energy-loss metrics and model validation.

A straight-running sled loses energy only to longitudinal ice friction
and head-on drag; that per-sample minimum defines the loss budget

    E_tot_loss = integral of (mu F_z_f0 + mu F_z_r + F_drag(base area)) ds.

The actual motion-opposing force is the negative driving-direction
component of each force, obtained by rotating body-frame forces by the
chassis slip angle: slip and steering tilt the (large) lateral forces
into the drag direction and inflate the drag area. The evaluation
metrics are the relative increases of the actual over the ideal losses::

    dE_ice_f = (int -F_xt_f0 ds - int mu F_z_f0 ds) / E_tot_loss

and likewise for the rear runner and the drag term; dE_tot is their
sum by construction. All integrals run over distance, so the metrics
are insensitive to resampling of the same trajectory.

Loss terms are accumulated as motion-opposing magnitudes (friction
forces point backward, so their x-components are negated), which keeps
every dE a positive fraction for physically sensible traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aero import AeroModel, aero_forces
from .errors import DataError
from .friction import MU_X_DEFAULT, force_x_mu, force_y_braghin
from .kinematics import to_driving_frame
from .onetrack import AxleForceTrace, front_runner_forces
from .telemetry import TelemetryRun

#: Invalid spans no longer than this are bridged by interpolation [s].
MAX_GAP_S = 0.1

#: Levels of the quantile summaries of ``angle_statistics``.
QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)
EXCEEDANCE_THRESHOLDS_DEG = (2.0, 4.0)


@dataclass(frozen=True)
class LossBreakdown:
    """Relative energy-loss increases over one or more evaluated segments."""

    e_tot_loss: float
    de_ice_f: float
    de_ice_r: float
    de_aero: float
    distance: float
    runtime: float

    @property
    def de_tot(self) -> float:
        return self.de_ice_f + self.de_ice_r + self.de_aero


def _segments(valid: np.ndarray, t: np.ndarray, max_gap: float) -> list[tuple[int, int]]:
    """Index ranges ``[start, stop)`` left after cutting the trace at invalid runs.

    An invalid run ``[lo, hi)`` is cut when it touches either end of the
    trace or when its valid neighbours lie more than ``max_gap`` apart,
    ``t[hi] - t[lo - 1] > max_gap``; shorter runs stay in (their samples
    are interpolated). The ranges between cut runs that hold samples are kept.
    """
    n = valid.size
    edges = np.diff(np.concatenate(([1], valid.astype(np.int8), [1])))
    lo, hi = np.flatnonzero(edges < 0), np.flatnonzero(edges > 0)
    cut = (lo == 0) | (hi == n) | (t[np.minimum(hi, n - 1)] - t[np.maximum(lo - 1, 0)] > max_gap)
    starts, stops = np.append(0, hi[cut]), np.append(lo[cut], n)
    keep = starts < stops
    return list(zip(starts[keep].tolist(), stops[keep].tolist()))


def _bridge(values: np.ndarray, valid: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Linear interpolation of invalid samples over distance."""
    if valid.all():
        return values
    out = values.copy()
    out[~valid] = np.interp(s[~valid], s[valid], values[valid])
    return out


def loss_energies(trace: AxleForceTrace, run: TelemetryRun, aero: AeroModel,
                  mu_x: float = MU_X_DEFAULT) -> list[LossBreakdown]:
    """Loss breakdowns of the run, one entry per contiguous segment.

    Samples in invalid spans no longer than :data:`MAX_GAP_S` seconds are
    bridged by interpolation over distance; longer gaps split the run,
    and each segment of at least two samples is reported with its own
    denominators.
    """
    if not trace.valid.any():
        raise DataError("no valid samples to evaluate")
    results = [_segment_losses(trace, run, aero, slice(lo, hi), mu_x)
               for lo, hi in _segments(trace.valid, trace.t, MAX_GAP_S) if hi - lo >= 2]
    if not results:
        raise DataError("no segment of two or more samples to evaluate")
    return results


def _segment_losses(trace: AxleForceTrace, run: TelemetryRun, aero: AeroModel,
                    seg: slice, mu_x: float) -> LossBreakdown:
    s = trace.s[seg]
    valid = trace.valid[seg]
    v = run.v[seg]

    def clean(values):
        return _bridge(values[seg], valid, s)

    beta = clean(trace.beta)
    f_x_f0 = clean(trace.f_x_f0)
    f_y_f0 = clean(trace.f_y_f0)
    f_y_r = clean(trace.f_y_r)
    f_z_f0 = clean(trace.f_z_f0)
    f_z_r = clean(trace.f_z_r)
    alpha_r = clean(trace.alpha_r)

    # actual motion-opposing components (friction points backward: negate x-tilde)
    actual_front = -to_driving_frame(f_x_f0, f_y_f0, 0.0, beta)[0]
    actual_rear = -to_driving_frame(force_x_mu(f_z_r, alpha_r, mu_x), f_y_r, 0.0, beta)[0]
    actual_aero, ideal_aero = aero_forces(aero, v, beta)

    ideal_front = mu_x * f_z_f0
    ideal_rear = mu_x * f_z_r

    def integrate(values):
        return float(np.trapezoid(values, s))

    e_tot = integrate(ideal_front + ideal_rear + ideal_aero)
    if e_tot <= 0:
        raise DataError("non-positive ideal loss energy over the segment")
    return LossBreakdown(
        e_tot_loss=e_tot,
        de_ice_f=(integrate(actual_front) - integrate(ideal_front)) / e_tot,
        de_ice_r=(integrate(actual_rear) - integrate(ideal_rear)) / e_tot,
        de_aero=(integrate(actual_aero) - integrate(ideal_aero)) / e_tot,
        distance=float(s[-1] - s[0]),
        runtime=float(trace.t[seg][-1] - trace.t[seg][0]),
    )


def combine_losses(parts: list[LossBreakdown]) -> LossBreakdown:
    """Energy-weighted combination of per-segment breakdowns.

    ``distance`` and ``runtime`` are the segments' sums: a gap that split
    the run counts in neither.
    """
    if not parts:
        raise DataError("nothing to combine")
    e_tot = sum(p.e_tot_loss for p in parts)
    return LossBreakdown(
        e_tot_loss=e_tot,
        de_ice_f=sum(p.de_ice_f * p.e_tot_loss for p in parts) / e_tot,
        de_ice_r=sum(p.de_ice_r * p.e_tot_loss for p in parts) / e_tot,
        de_aero=sum(p.de_aero * p.e_tot_loss for p in parts) / e_tot,
        distance=sum(p.distance for p in parts),
        runtime=sum(p.runtime for p in parts),
    )


# ---------------------------------------------------------------------------
# angle statistics


def angle_statistics(labeled_runs) -> dict:
    """Distribution summaries of steering and slip angles per label.

    ``labeled_runs`` yields (label, run, trace) triples; runs of the
    same label (driver or track) are pooled. Quantiles are reported in
    degrees together with the fraction of samples whose magnitude
    exceeds 2 and 4 degrees.
    """
    pools: dict[str, dict[str, list]] = {}
    for label, run, trace in labeled_runs:
        pool = pools.setdefault(label, {"delta": [], "alpha_f": [], "alpha_r": []})
        valid = trace.valid
        pool["delta"].append(run.delta[valid])
        pool["alpha_f"].append(trace.alpha_f[valid])
        pool["alpha_r"].append(trace.alpha_r[valid])
    report = {}
    for label, pool in pools.items():
        entry = {}
        for name, chunks in pool.items():
            values = np.degrees(np.abs(np.concatenate(chunks)))
            entry[name] = {
                "quantiles_deg": dict(zip(QUANTILES, np.quantile(values, QUANTILES).tolist())),
                "exceedance": {
                    thr: float(np.mean(values > thr)) for thr in EXCEEDANCE_THRESHOLDS_DEG
                },
                "n": int(values.size),
            }
        report[label] = entry
    return report


# ---------------------------------------------------------------------------
# validation against measurement


def measured_lateral_cog(trace: AxleForceTrace):
    """Lateral force at the COG from measurement, m a_y_cog - F_y_ext.

    The reconstruction solved exactly that balance, so the sum of the
    reconstructed axle forces reproduces it without touching raw
    channels again.
    """
    return trace.f_y_f0 + trace.f_y_r


def model_lateral_cog(trace: AxleForceTrace, front, rear,
                      run: TelemetryRun, mu_x: float = MU_X_DEFAULT):
    """Lateral COG force predicted by friction laws along the trace.

    ``front``/``rear`` are lateral laws ``(f_z, alpha) -> f_y`` such as
    LateralFrictionParams, or the string "braghin" to substitute the
    reference model :func:`~sleddyn.friction.force_y_braghin`. The front
    force is built in the runner frame and rotated back to the body
    frame, mirroring the simulator's force chain.
    """
    front, rear = (force_y_braghin if law == "braghin" else law for law in (front, rear))
    alpha_f = np.where(np.isfinite(trace.alpha_f), trace.alpha_f, 0.0)
    alpha_r = np.where(np.isfinite(trace.alpha_r), trace.alpha_r, 0.0)
    f_z_f0 = np.abs(np.where(np.isfinite(trace.f_z_f0), trace.f_z_f0, 1.0))
    f_z_r = np.abs(np.where(np.isfinite(trace.f_z_r), trace.f_z_r, 1.0))
    _, (_, f_y_f0, _) = front_runner_forces(alpha_f, f_z_f0, run.gamma, run.delta, front, mu_x)
    return f_y_f0 + rear(f_z_r, alpha_r)


def validate_rmse(predicted, measured, valid=None) -> float:
    """Root mean square error between aligned series [N]."""
    predicted = np.asarray(predicted, dtype=float)
    measured = np.asarray(measured, dtype=float)
    if predicted.shape != measured.shape:
        raise DataError(f"series lengths differ: {predicted.shape} vs {measured.shape}")
    if valid is not None:
        predicted = predicted[valid]
        measured = measured[valid]
    if predicted.size == 0:
        raise DataError("no valid samples for RMSE")
    return float(np.sqrt(np.mean((predicted - measured) ** 2)))
