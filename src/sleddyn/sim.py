"""Forward one-track simulator with logged ground-truth forces.

The planar model integrates (s, v, beta, psi_dot) with fixed-step RK4.
Track geometry is abstracted into three profiles over distance: slope
angle kappa(s) (gravity drive), pitch curvature 1/r_y(s) (reported as a
pitch rate and pitch acceleration), and a normal-load factor
n(s) >= 1 that folds banking into the vertical axle loads. Steering and
roll-split are prescribed control traces, matching their role as
measured channels.

Runner forces come from the package's friction laws; the front triple
is built in the runner frame and rotated into the body frame, with the
runner-frame vertical component chosen so the prescribed unrotated
vertical load is reproduced exactly. Vertical loads split across the
axles by lever arms with the pitch-moment correction J_yy thetadd, so
the synthetic world satisfies the same momentum balances the
reconstruction inverts. Drag acts against the velocity with the
yaw-sensitive drag area.

One evaluator is built per run: ``_rhs`` binds the run's constants
(masses, lever arms, both lateral laws, drag, the track and control
lookups) once and returns a flat function of the state. Each
evaluation computes the state-only terms (lookups, slip angles, total
load, drag, trigonometry) once and the v_dot-dependent loads (pitch
acceleration, vertical split, runner forces) twice, for one
fixed-point pass over v_dot. The evaluation that logs an accepted
state is the next step's k1 ("first same as last"), so a step costs
four evaluations.

The lookups are cheap by construction. ``TrackProfile`` keeps one row
per segment (start, length, start values and differences, pitch-curvature
slope), so ``at`` clamps, bisects once and interpolates. ``rhs``
remembers its last control lookup: k2 and k3 share t0 + dt/2, and k4
and the next logged state share t0 + dt, so a step looks the controls
up twice. The step loop logs only the state and the ``rhs`` tuple, as
one row of floats appended to one flat ``array("d")`` (232 bytes a step,
where a tuple of float objects takes about 1 kB); the accelerations,
power terms and kinetic energy are computed per column after the loop,
in the scalar operation order, and ``SimLog.stop`` says why the run
ended. While it runs, ``simulate`` can hand each finished block of
``BLOCK_ROWS`` logged rows to a callable, which ``cli`` uses to format
both exported tables on a second CPU during the integration: every
``truth.csv`` row of the block (``truth_text``), and the telemetry rows
that the block alone determines (``telemetry_rows``), from noise drawn
before the run (``noise_draws``). Those telemetry rows and the whole-run
export share one channel synthesis (``_sensor_channels``, ``_noisy``).

Per step the simulator logs state, forces, and power terms; the power
bookkeeping closes the energy balance to integration accuracy, which
the tests audit. Every quantity needed to synthesize sensor channels
(specific-force accelerations, rates, angular accelerations) is
derived from the same logged forces, so exported telemetry is exactly
consistent with the logged ground truth.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import friction, kinematics, tables, telemetry
from .aero import AeroModel
from .errors import ConfigError, NumericalError, reading
from .friction import G, LateralFrictionParams
from .onetrack import TRACE_COLUMNS, AxleForceTrace, BobParameters
from .telemetry import CORE_CHANNELS, CsvSchema, TelemetryMeta, TelemetryRun

MAX_DT = 0.01
V_STOP = 0.1  # speed at which a run ends, m/s
BLOCK_ROWS = 512  # logged rows in each block that ``simulate`` hands on while it runs


@dataclass(frozen=True)
class TrackProfile:
    """Breakpoint table over distance: slope, pitch curvature, load factor."""

    s: np.ndarray
    kappa: np.ndarray
    inv_r_y: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if s.ndim != 1 or s.size < 2 or not np.all(np.diff(s) > 0):
            raise ValueError("track breakpoints must be strictly increasing")
        for name in ("kappa", "inv_r_y", "n"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != s.shape or not np.isfinite(arr).all():
                raise ValueError(f"track profile {name} needs one finite value per breakpoint")
            object.__setattr__(self, name, arr)
        if np.any(self.n < 1.0):
            raise ValueError("normal-load factor must be >= 1")
        object.__setattr__(self, "s", s)
        # one row per segment for the scalar hot path: x0, ds, and start value and difference of
        # kappa, 1/r_y and n, then the slope d(1/r_y)/ds; np.diff and / round as the scalar ops do
        ds, dinv_r = np.diff(s), np.diff(self.inv_r_y)
        slope = dinv_r / ds
        table = (s[:-1], ds, self.kappa[:-1], np.diff(self.kappa), self.inv_r_y[:-1], dinv_r,
                 self.n[:-1], np.diff(self.n), slope)
        object.__setattr__(self, "_x0", s[:-1].tolist())
        object.__setattr__(self, "_rows", list(zip(*(col.tolist() for col in table))))
        object.__setattr__(self, "_ends", tuple(  # (s, at(s)) at the first and the last breakpoint
            (s[i].item(), (self.kappa[i].item(), self.inv_r_y[i].item(), self.n[i].item(), slope[i].item()))
            for i in (0, -1)))

    def at(self, s: float):
        """(kappa, 1/r_y, n, piecewise-constant d(1/r_y)/ds) at s, clamped, from one bisect.

        A NaN s reads the last breakpoint; the step's state check reports it.
        """
        (first, at_first), (last, at_last) = self._ends
        if s <= first:
            return at_first
        if not s < last:
            return at_last
        x0, ds, kappa0, dkappa, inv_r0, dinv_r, n0, dn, slope = self._rows[bisect_right(self._x0, s) - 1]
        frac = (s - x0) / ds
        return kappa0 + frac * dkappa, inv_r0 + frac * dinv_r, n0 + frac * dn, slope


@dataclass(frozen=True)
class ControlTrace:
    """Steering and roll-split angles over time (linear interpolation)."""

    t: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.ndim != 1 or t.size < 2 or not np.all(np.diff(t) > 0):
            raise ValueError("control breakpoints must be strictly increasing")
        for name in ("delta", "gamma"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != t.shape:
                raise ValueError(f"control trace {name} length mismatch")
            if not np.all(np.abs(arr) < np.pi / 4):
                raise ValueError(f"|{name}| must stay below pi/4")
            object.__setattr__(self, name, arr)
            object.__setattr__(self, "_" + name, arr.tolist())
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "_t", t.tolist())

    def at(self, t: float):
        """(delta, gamma) at time t, clamped at both ends."""
        ts, d, g = self._t, self._delta, self._gamma
        if t <= ts[0]:
            return d[0], g[0]
        if not t < ts[-1]:
            return d[-1], g[-1]
        i = bisect_right(ts, t) - 1
        frac = (t - ts[i]) / (ts[i + 1] - ts[i])
        return d[i] + frac * (d[i + 1] - d[i]), g[i] + frac * (g[i + 1] - g[i])


@dataclass(frozen=True)
class FrictionSetup:
    """Friction laws the simulator drives: lateral per axle, one mu_x for both."""

    lateral_front: LateralFrictionParams
    lateral_rear: LateralFrictionParams
    mu_x: float = friction.MU_X_DEFAULT


_LOG_FIELDS = (
    "t", "s", "v", "beta", "psi_dot", "psi_ddot", "theta_dot", "theta_ddot",
    "delta", "gamma", "kappa",
    "a_x", "a_y", "a_z",
    "f_x_f0", "f_y_f0", "f_z_f0", "f_x_f", "f_y_f", "f_z_f",
    "f_x_r", "f_y_r", "f_z_r", "f_drag",
    "alpha_f", "alpha_r",
    "p_gravity", "p_aero", "p_front", "p_rear", "e_kin",
)


@dataclass
class SimLog:
    """Column-wise record of the simulation at the integration grid."""

    data: dict[str, np.ndarray]
    dt: float
    stop: str = "t_max"  # why the run ended: "t_max", "track_end" or "v_stop"

    def __getattr__(self, name):
        data = object.__getattribute__(self, "data")
        if name in data:
            return data[name]
        raise AttributeError(name)

    def __len__(self):
        return self.data["t"].size


# entries of the tuple ``rhs`` returns: the four derivatives, then the logged terms
_TERMS = ("s_dot", "v_dot", "beta_dot", "psi_ddot",
          "delta", "gamma", "kappa", "theta_dot", "theta_ddot", "alpha_f", "alpha_r",
          "f_drag", "gravity", "cos_beta", "sin_beta",
          "f_x_f", "f_y_f", "f_z_f", "f_x_f0", "f_y_f0", "f_z_f0", "f_x_r", "f_y_r", "f_z_r")
_ROW = ("t", "s", "v", "beta", "psi_dot") + _TERMS  # a logged row: the state, then the ``rhs`` tuple


def _rhs(bob: BobParameters, track: TrackProfile, controls: ControlTrace, setup: FrictionSetup,
         aero: AeroModel | None):
    """The run's right-hand side ``rhs(t, s, v, beta, psi_dot)`` -> the ``_TERMS`` tuple.

    The vertical axle split depends on theta_ddot = -v_dot/r - v^2 d(1/r)/ds,
    which contains v_dot: a first pass with v_dot = 0 supplies the hint for
    the second, so the returned loads are self-consistent to second order.
    The front triple uses the closed form Rx(gamma) Rz(delta) of the frame
    rotation. ``TestScalarFastPath`` checks the terms against the
    vectorized force chain.
    """
    sin, cos, atan, degrees = math.sin, math.cos, math.atan, math.degrees
    control_at, track_at = controls.at, track.at
    m, l_f, l_r, j_yy, j_zz, wheelbase = bob.m, bob.l_f, bob.l_r, bob.j_yy, bob.j_zz, bob.wheelbase
    g = G
    m_g = m * g
    front, rear = setup.lateral_front, setup.lateral_rear
    k_f, c_f, mu_f, e_f, cm_f = front.k_y, front.c_y, front.mu_zeta_y, front.e_y, front.c_y * front.mu_zeta_y
    k_r, c_r, mu_r, e_r, cm_r = rear.k_y, rear.c_y, rear.mu_zeta_y, rear.e_y, rear.c_y * rear.mu_zeta_y
    neg_mu = -setup.mu_x
    if aero is not None:
        cx_ax, yaw_sensitivity, density = aero.cx_ax, aero.yaw_sensitivity, aero.air.density

    # one-entry memo of the control lookup: k2 and k3 share t0 + dt/2, and k4 and the
    # next logged state share t0 + dt, so each step looks the controls up twice, not four times
    memo_t, memo_controls = math.nan, None

    def rhs(t, s, v, beta, psi_dot):
        nonlocal memo_t, memo_controls
        if t != memo_t:
            memo_t, memo_controls = t, control_at(t)
        delta, gamma = memo_controls
        kappa, inv_r, n_load, slope = track_at(s)
        if aero is not None:
            area = cx_ax * (1.0 + yaw_sensitivity * degrees(abs(beta)))
            f_drag = 0.5 * area * v * v * density
        else:
            f_drag = 0.0
        vv_slope = v * v * slope
        alpha_f = beta + delta - psi_dot * l_f / v
        alpha_r = beta + psi_dot * l_r / v
        f_z_total = n_load * m * g
        gravity = m_g * sin(kappa)
        cb, sb, cg, sg, cd, sd = cos(beta), sin(beta), cos(gamma), sin(gamma), cos(delta), sin(delta)
        sg_sd, sg_cd, cg_sd, cg_cd = sg * sd, sg * cd, cg * sd, cg * cd
        cos_alpha_f, cos_alpha_r = cos(alpha_f), cos(alpha_r)
        static_f, static_r = l_r * f_z_total, l_f * f_z_total
        u, w = v * cb, -v * sb
        along = gravity - f_drag
        along_x, along_y = along * cb, along * sb
        mv = m * v
        v_dot = 0.0
        for _ in (0, 1):
            theta_ddot = -v_dot * inv_r - vv_slope
            f_z_f0 = (static_f + j_yy * theta_ddot) / wheelbase
            f_z_r = (static_r - j_yy * theta_ddot) / wheelbase
            b_a = k_f / (cm_f * f_z_f0) * alpha_f
            f_y_f = mu_f * f_z_f0 * sin(c_f * atan(b_a - e_f * (b_a - atan(b_a))))
            f_x_f = neg_mu * f_z_f0 * cos_alpha_f
            # z-row of F_f0 = A F_f with A = Rx(g) Rz(d): (sg sd, sg cd, cg)
            f_z_f = (f_z_f0 - sg_sd * f_x_f - sg_cd * f_y_f) / cg
            f_x_f0 = cd * f_x_f - sd * f_y_f
            f_y_f0 = cg_sd * f_x_f + cg_cd * f_y_f - sg * f_z_f
            b_a = k_r / (cm_r * f_z_r) * alpha_r
            f_y_r = mu_r * f_z_r * sin(c_r * atan(b_a - e_r * (b_a - atan(b_a))))
            f_x_r = neg_mu * f_z_r * cos_alpha_r
            sum_x = f_x_f0 + f_x_r + along_x
            sum_y = f_y_f0 + f_y_r - along_y
            v_dot = (u * sum_x + w * sum_y) / mv
        return (v, v_dot, psi_dot - (u * sum_y - w * sum_x) / (mv * v), (l_f * f_y_f0 - l_r * f_y_r) / j_zz,
                delta, gamma, kappa, -v * inv_r, theta_ddot, alpha_f, alpha_r, f_drag, gravity, cb, sb,
                f_x_f, f_y_f, f_z_f, f_x_f0, f_y_f0, f_z_f0, f_x_r, f_y_r, f_z_r)

    return rhs


def step(state, rhs, dt: float, k1):
    """One fixed-step RK4 step of ``rhs`` from ``state`` = (t, s, v, beta, psi_dot); ``k1`` is ``rhs(*state)``."""
    t0, s0, v0, b0, p0 = state
    half = dt / 2.0
    k2 = rhs(t0 + half, s0 + half * k1[0], v0 + half * k1[1], b0 + half * k1[2], p0 + half * k1[3])
    k3 = rhs(t0 + half, s0 + half * k2[0], v0 + half * k2[1], b0 + half * k2[2], p0 + half * k2[3])
    k4 = rhs(t0 + dt, s0 + dt * k3[0], v0 + dt * k3[1], b0 + dt * k3[2], p0 + dt * k3[3])
    sixth = dt / 6.0
    return (t0 + dt,
            s0 + sixth * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            v0 + sixth * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
            b0 + sixth * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
            p0 + sixth * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]))


def simulate(bob: BobParameters, track: TrackProfile, controls: ControlTrace,
             setup: FrictionSetup, aero: AeroModel | None = None,
             v0: float = 10.0, beta0: float = 0.0, psi_dot0: float = 0.0,
             dt: float = 0.005, t_max: float = 60.0, v_stop: float = V_STOP, *,
             on_block=None) -> SimLog:
    """Run the simulator until t_max, the track end, or standstill.

    The run terminates cleanly when the speed would drop below
    ``v_stop``; the log always contains the states actually reached.
    A non-finite state, or a step whose evaluation fails with a math
    domain error, raises NumericalError naming its time.

    ``on_block``, if given, is called with each block of ``BLOCK_ROWS``
    logged rows as soon as it is complete, and with the last, shorter
    block (if any) before the log is returned; a run that raises hands
    on no last block. A block is a (rows, ``len(_ROW)``) float array of
    ``_ROW`` columns that is valid only during the call: it is a view of
    the log, which cannot grow while a view of it is alive.
    """
    check_start(dt, v0, v_stop)
    rhs = _rhs(bob, track, controls, setup, aero)
    state = (0.0, float(track.s[0]), v0, beta0, psi_dot0)  # (t, s, v, beta, psi_dot), as rhs takes it
    s_end = float(track.s[-1])
    isfinite = math.isfinite
    k1 = rhs(*state)  # the value at an accepted state is the next step's k1
    rows = array("d", state + k1)  # state + rhs terms per accepted state; grows with the run, not t_max
    logged, handed = 1, 0  # rows in the log, and rows handed to on_block
    stop = "t_max"
    for _ in range(int(round(t_max / dt))):
        try:
            new = step(state, rhs, dt, k1)
        except ValueError:  # a math domain error, such as cos(inf) in rhs: the step has no finite state
            new = (state[0] + dt, math.nan, math.nan, math.nan, math.nan)
        t, s, v, beta, psi_dot = new
        if not (isfinite(s) and isfinite(v) and isfinite(beta) and isfinite(psi_dot)):
            raise NumericalError(f"non-finite simulator state at t = {t:.6g} s")
        if v <= v_stop or s >= s_end:
            stop = "v_stop" if v <= v_stop else "track_end"
            break
        state = new
        k1 = rhs(*state)
        rows.extend(state + k1)
        logged += 1
        if on_block is not None and logged == handed + BLOCK_ROWS:
            on_block(_rows_view(rows, handed, logged))
            handed = logged
    if on_block is not None and logged > handed:
        on_block(_rows_view(rows, handed, logged))
    return SimLog(data=_log_columns(_rows_view(rows, 0, logged), bob), dt=dt, stop=stop)


def check_start(dt: float, v0: float, v_stop: float = V_STOP) -> None:
    """ConfigError for a time step above ``MAX_DT`` or an initial speed at or below ``v_stop``."""
    if dt > MAX_DT:
        raise ConfigError(f"dt = {dt} exceeds the {MAX_DT} s stability bound")
    if v0 <= v_stop:
        raise ConfigError("initial speed below the stop threshold")


def _rows_view(rows: array, start: int, stop: int) -> np.ndarray:
    """Rows ``start`` to ``stop`` of the flat log ``rows`` as a 2-D array that shares its memory."""
    width = len(_ROW)
    return np.frombuffer(rows, dtype=float, count=(stop - start) * width,
                         offset=start * width * rows.itemsize).reshape(-1, width)


def _log_columns(table: np.ndarray, bob: BobParameters) -> dict[str, np.ndarray]:
    """The ``_LOG_FIELDS`` columns, as rows of one block, from the logged rows: the state, then ``_TERMS``.

    The accelerations and power terms are computed per column in the
    order the scalar expressions used, so every value is bit-identical.
    ``errstate`` keeps numpy as quiet as float arithmetic on a state
    whose forces overflowed; ``e_kin`` stays scalar because float ``**``
    is C ``pow``, which numpy's ``square`` does not reproduce bit for bit.
    """
    col = _with_accelerations(table, bob.m)
    v, psi_dot, cb, sb, f_drag = col["v"], col["psi_dot"], col["cos_beta"], col["sin_beta"], col["f_drag"]
    m = bob.m
    with np.errstate(over="ignore", invalid="ignore"):
        u, w = v * cb, -v * sb
        col["p_gravity"] = col["gravity"] * v
        col["p_aero"] = -f_drag * v
        col["p_front"] = col["f_x_f0"] * u + col["f_y_f0"] * (w + psi_dot * bob.l_f)
        col["p_rear"] = col["f_x_r"] * u + col["f_y_r"] * (w - psi_dot * bob.l_r)
    col["e_kin"] = np.array([0.5 * m * v_i ** 2 + 0.5 * bob.j_zz * r_i ** 2
                             for v_i, r_i in zip(v.tolist(), psi_dot.tolist())], dtype=float)
    return dict(zip(_LOG_FIELDS, np.array([col[name] for name in _LOG_FIELDS])))


def _with_accelerations(table: np.ndarray, m: float) -> dict[str, np.ndarray]:
    """The ``_ROW`` columns of logged rows ``table``, and the COG's specific forces ``a_x``, ``a_y`` and ``a_z``."""
    col = dict(zip(_ROW, table.T))
    with np.errstate(over="ignore", invalid="ignore"):
        col["a_x"] = (col["f_x_f0"] + col["f_x_r"] - col["f_drag"] * col["cos_beta"]) / m
        col["a_y"] = (col["f_y_f0"] + col["f_y_r"] + col["f_drag"] * col["sin_beta"]) / m
        col["a_z"] = (col["f_z_f0"] + col["f_z_r"]) / m
    return col


def energy_audit(log: SimLog) -> float:
    """Relative energy-closure defect over the run.

    Integrates the logged power terms (trapezoidal) and compares their
    sum with the kinetic-energy change; the result is normalized by the
    total absolute energy turnover.
    """
    t = log.t
    total_power = log.p_gravity + log.p_aero + log.p_front + log.p_rear
    work = np.trapezoid(total_power, t)
    delta_e = log.e_kin[-1] - log.e_kin[0]
    turnover = np.trapezoid(np.abs(total_power), t)
    return abs(delta_e - work) / max(turnover, 1e-12)


# ---------------------------------------------------------------------------
# synthetic telemetry export


def export_synthetic_telemetry(log: SimLog, bob: BobParameters, rate: float = 100.0,
                               noise: dict[str, float] | None = None, seed: int | None = None,
                               meta: TelemetryMeta | None = None) -> tuple[TelemetryRun, AxleForceTrace]:
    """Sensor-frame telemetry plus ground-truth axle forces from a log.

    The log grid is decimated to the requested rate (its spacing must
    divide the sample interval), and a log too short for two samples is a
    ConfigError. Accelerations are moved from the COG to
    the configured sensor position with the inverse rigid-body transfer;
    the sensor slip angle is the chassis angle transferred to the speed
    sensor's mount point. Roll rate is the time derivative of the
    roll-split trace, i.e. the gyro rides on the front section.
    ``noise`` maps a channel name to the sigma of its additive Gaussian
    noise (``noise_draws``); a sigma so large that a noisy value overflows
    is a ConfigError.
    """
    sl = slice(0, None, export_stride(rate, log.dt))

    t = log.t[sl]
    if t.size < 2:  # the derivative channels need two samples
        raise ConfigError(f"the run stopped by {log.stop} at t = {log.t[-1]:.6g} s, which exports "
                          f"{t.size} sample at {rate:g} Hz; at least 2 are needed")
    dec = {name: log.data[name][sl] for name in log.data}
    phi_dot = np.gradient(dec["gamma"], t)
    channels = _sensor_channels(dec, phi_dot, np.gradient(phi_dot, t), bob)
    if noise is not None:
        noisy = _noisy(channels, noise_draws(noise, seed, t.size))
        for name, arr in noisy.items():
            if (np.isfinite(channels[name]) & ~np.isfinite(arr)).any():
                raise ConfigError(f"noise.{name} = {noise[name]:g} makes the exported {name} non-finite")
        channels = noisy
    run = TelemetryRun(t=t, channels=channels, meta=meta or TelemetryMeta())
    return run, _truth(dec)


def _sensor_channels(col, phi_dot, phi_ddot, bob: BobParameters) -> dict[str, np.ndarray]:
    """The telemetry channels, before noise, of log columns ``col`` and the roll rate and acceleration at its rows."""
    rates = (phi_dot, col["theta_dot"], col["psi_dot"])
    angular = (phi_ddot, col["theta_ddot"], col["psi_ddot"])
    a_sensor = kinematics.cog_to_sensor((col["a_x"], col["a_y"], col["a_z"]), rates, angular, bob.offset)
    return {"a_x": a_sensor[0], "a_y": a_sensor[1], "a_z": a_sensor[2],
            "phi_dot": phi_dot, "theta_dot": col["theta_dot"], "psi_dot": col["psi_dot"], "v": col["v"],
            "alpha_sensor": col["beta"] - col["psi_dot"] * bob.speed_sensor_x / col["v"],
            "delta": col["delta"], "gamma": col["gamma"]}


def noise_draws(noise: dict[str, float], seed: int | None, samples: int) -> dict[str, np.ndarray]:
    """The additive noise of each channel with a nonzero sigma in ``noise``, over ``samples`` samples.

    One generator seeded with ``seed`` draws ``samples`` standard normal
    values for each such channel in ``CORE_CHANNELS`` order, so a
    channel's noise depends on the sample count; each draw is scaled by
    its sigma. Names that are no channel's are ignored.
    """
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # a noisy value that overflows is reported by the export, naming the sigma
        return {name: rng.standard_normal(samples) * noise[name] for name in CORE_CHANNELS if noise.get(name)}


def _noisy(channels: dict[str, np.ndarray], draws: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``channels`` with the noise ``draws`` of each noisy one added, and the speed clipped at 0."""
    with np.errstate(over="ignore"):
        noisy = {name: arr + draws[name] if name in draws else arr for name, arr in channels.items()}
    noisy["v"] = np.maximum(noisy["v"], 0.0)
    return noisy


def export_stride(rate: float, dt: float) -> int:
    """Log steps per exported sample at ``rate`` Hz; a ConfigError unless it is a whole number."""
    stride = (1.0 / rate) / dt
    if abs(stride - round(stride)) > 1e-9:
        raise ConfigError(f"export rate {rate} Hz does not divide the log grid (dt={dt})")
    return int(round(stride))


def _truth(col) -> AxleForceTrace:
    """Ground-truth axle forces from log columns ``col`` (name -> array): the one log-to-truth mapping.

    Each trace column is the log column of its name, but ``valid``, which
    is all true, and ``f_y_ext``, the drag's lateral component.
    """
    return AxleForceTrace(valid=np.ones(col["t"].size, dtype=bool), f_y_ext=col["f_drag"] * np.sin(col["beta"]),
                          **{name: col[name] for name in TRACE_COLUMNS if name not in ("valid", "f_y_ext")})


def truth_text(k: int, block: np.ndarray, stride: int) -> str:
    """The ``truth.csv`` rows, as ``tables.write_table`` formats them, of block ``k`` that ``simulate`` handed on.

    Logged row i (block k holds rows ``k * BLOCK_ROWS`` on) is exported
    when ``i % stride == 0``, as ``export_synthetic_telemetry`` decimates.
    """
    trace = _truth(dict(zip(_ROW, block[-k * BLOCK_ROWS % stride::stride].T)))
    return tables._rows_text(np.column_stack([getattr(trace, name) for name in TRACE_COLUMNS]))


def telemetry_rows(k: int, block: np.ndarray, stride: int, bob: BobParameters, draws: dict[str, np.ndarray],
                   schema: CsvSchema) -> tuple[int, int, bytes, str] | None:
    """``(first, end, digest, text)`` of the ``telemetry.csv`` rows that block ``k`` alone determines.

    These are the exported rows ``first`` to ``end - 1`` of the block
    whose roll acceleration's stencil, two rows on each side, lies in the
    block: all but two rows at either end, and None for a block of fewer
    than five exported rows. ``draws`` is the noise of the
    whole export (``noise_draws``), and the columns and units are those of
    ``schema`` (``telemetry.export_columns``). The roll rate and
    acceleration are ``np.gradient``'s interior formula for a non-uniform
    grid, written out: ``np.gradient`` itself takes its uniform formula
    whenever a block's grid happens to be uniform. So the rows match the
    whole-run export only where its formula is the same; ``digest``
    (``tables.rows_digest``) lets the caller check each row against its own.
    """
    offset = -k * BLOCK_ROWS % stride
    col = _with_accelerations(block[offset::stride], bob.m)
    first = (k * BLOCK_ROWS + offset) // stride + 2
    t = col["t"]
    if t.size < 5:
        return None
    phi_dot = _interior_gradient(col["gamma"], t)
    inner = {name: values[2:-2] for name, values in col.items()}
    channels = _sensor_channels(inner, phi_dot[1:-1], _interior_gradient(phi_dot, t[1:-1]), bob)
    end = first + t.size - 4
    run = TelemetryRun(t=inner["t"], channels=_noisy(channels, {name: d[first:end] for name, d in draws.items()}))
    return tables.rows_part(list(telemetry.export_columns(run, schema).values()), first)


def _interior_gradient(f: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``np.gradient(f, t)[1:-1]`` by its formula for a non-uniform grid, however ``t`` is spaced."""
    dx = np.diff(t)
    dx1, dx2 = dx[:-1], dx[1:]
    a = -dx2 / (dx1 * (dx1 + dx2))
    b = (dx2 - dx1) / (dx1 * dx2)
    c = dx1 / (dx2 * (dx1 + dx2))
    return a * f[:-2] + b * f[1:-1] + c * f[2:]


# ---------------------------------------------------------------------------
# scenario files


def load_scenario(path):
    """Scenario JSON: track/control breakpoints, initial state, sim and noise settings.

    Raises ConfigError naming the file for a missing field, a value of the
    wrong type or out of range, a time step, duration or export rate that
    is not positive and finite, a non-finite initial state, and a noise
    sigma that is negative, not finite or not that of a telemetry channel.
    """
    with reading(path, ConfigError, "invalid scenario JSON: "):
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ConfigError(f"a scenario is a JSON object, got {type(raw).__name__}")
    with reading(path, ConfigError, "bad scenario value: "):
        initial, simcfg, meta = (raw.get(key, {}) for key in ("initial", "sim", "meta"))
        track, controls = raw["track"], raw["controls"]
        scenario = {
            "track": TrackProfile(**{key: _numbers(track[key], f"track.{key}")
                                     for key in ("s", "kappa", "inv_r_y", "n")}),
            "controls": ControlTrace(**{key: _numbers(controls[key], f"controls.{key}")
                                        for key in ("t", "delta", "gamma")}),
            "v0": _number(initial.get("v0", 10.0), "initial.v0"),
            "beta0": _number(initial.get("beta0", 0.0), "initial.beta0"),
            "psi_dot0": _number(initial.get("psi_dot0", 0.0), "initial.psi_dot0"),
            "dt": _number(simcfg.get("dt", 0.005), "sim.dt"),
            "t_max": _number(simcfg.get("t_max", 60.0), "sim.t_max"),
            "noise": {str(k): _number(v, f"noise.{k}") for k, v in raw.get("noise", {}).items()},
            "rate_hz": _number(meta.get("rate_hz", 100.0), "meta.rate_hz"),
            "meta": TelemetryMeta(**{key: str(meta[key]) for key in ("driver", "track") if key in meta}),
        }
        for name, value in (("sim.dt", scenario["dt"]), ("sim.t_max", scenario["t_max"]),
                            ("meta.rate_hz", scenario["rate_hz"])):
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        for name in ("v0", "beta0", "psi_dot0"):
            if not math.isfinite(scenario[name]):
                raise ConfigError(f"initial.{name} must be finite, got {scenario[name]}")
        for name, sigma in scenario["noise"].items():
            if name not in CORE_CHANNELS:
                raise ConfigError(f"noise.{name} names no telemetry channel ({', '.join(CORE_CHANNELS)})")
            if not 0 <= sigma < math.inf:
                raise ConfigError(f"noise.{name} must be finite and at least 0, got {sigma}")
    return scenario


def _number(value, name: str) -> float:
    """A JSON number ``value`` as a float; TypeError naming ``name`` for any other value, ``true`` included.

    An integer beyond the float range is a ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer too large for a float") from None


def _numbers(values, name: str) -> list[float]:
    """A JSON list of numbers ``values`` as floats; TypeError naming ``name`` for any other value."""
    if not isinstance(values, list):
        raise TypeError(f"{name} must be a list of numbers, got {json.dumps(values)}")
    return [_number(value, f"{name}[{i}]") for i, value in enumerate(values)]
