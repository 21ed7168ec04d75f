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
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import friction, kinematics
from .aero import AeroModel
from .errors import ConfigError, NumericalError, reading
from .friction import LateralFrictionParams
from .onetrack import AxleForceTrace, BobParameters
from .telemetry import TelemetryMeta, TelemetryRun

G = 9.81
MAX_DT = 0.01


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
            object.__setattr__(self, "_" + name, arr.tolist())  # plain lists for the scalar hot path
        if np.any(self.n < 1.0):
            raise ValueError("normal-load factor must be >= 1")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "_s", s.tolist())

    @property
    def length(self) -> float:
        return float(self.s[-1] - self.s[0])

    def at(self, s: float):
        """(kappa, 1/r_y, n, piecewise-constant d(1/r_y)/ds) at s, clamped, from one bisect.

        A NaN s reads the last breakpoint; the step's state check reports it.
        """
        xs, kap, inv_r, n = self._s, self._kappa, self._inv_r_y, self._n
        i = min(max(bisect_right(xs, s) - 1, 0), len(xs) - 2)
        ds = xs[i + 1] - xs[i]
        slope = (inv_r[i + 1] - inv_r[i]) / ds
        if s <= xs[0]:
            return kap[0], inv_r[0], n[0], slope
        if not s < xs[-1]:
            return kap[-1], inv_r[-1], n[-1], slope
        frac = (s - xs[i]) / ds
        return (kap[i] + frac * (kap[i + 1] - kap[i]), inv_r[i] + frac * (inv_r[i + 1] - inv_r[i]),
                n[i] + frac * (n[i + 1] - n[i]), slope)


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


@dataclass
class SimState:
    t: float
    s: float
    v: float
    beta: float
    psi_dot: float


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
    m_g = m * G
    front, rear = setup.lateral_front, setup.lateral_rear
    k_f, c_f, mu_f, e_f, cm_f = front.k_y, front.c_y, front.mu_zeta_y, front.e_y, front.c_y * front.mu_zeta_y
    k_r, c_r, mu_r, e_r, cm_r = rear.k_y, rear.c_y, rear.mu_zeta_y, rear.e_y, rear.c_y * rear.mu_zeta_y
    neg_mu = -setup.mu_x
    if aero is not None:
        cx_ax, yaw_sensitivity, density = aero.cx_ax, aero.yaw_sensitivity, aero.air.density

    def rhs(t, s, v, beta, psi_dot):
        delta, gamma = control_at(t)
        kappa, inv_r, n_load, slope = track_at(s)
        if aero is not None:
            area = cx_ax * (1.0 + yaw_sensitivity * degrees(abs(beta)))
            f_drag = 0.5 * area * v * v * density
        else:
            f_drag = 0.0
        vv_slope = v * v * slope
        alpha_f = beta + delta - psi_dot * l_f / v
        alpha_r = beta + psi_dot * l_r / v
        f_z_total = n_load * m * G
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


def step(state: SimState, rhs, dt: float, k1=None) -> SimState:
    """One fixed-step RK4 step of ``rhs``; ``k1``, its value at ``state``, is computed unless passed."""
    t0, s0, v0, b0, p0 = state.t, state.s, state.v, state.beta, state.psi_dot
    half = dt / 2.0
    k1 = rhs(t0, s0, v0, b0, p0) if k1 is None else k1
    k2 = rhs(t0 + half, s0 + half * k1[0], v0 + half * k1[1], b0 + half * k1[2], p0 + half * k1[3])
    k3 = rhs(t0 + half, s0 + half * k2[0], v0 + half * k2[1], b0 + half * k2[2], p0 + half * k2[3])
    k4 = rhs(t0 + dt, s0 + dt * k3[0], v0 + dt * k3[1], b0 + dt * k3[2], p0 + dt * k3[3])
    sixth = dt / 6.0
    return SimState(
        t=t0 + dt,
        s=s0 + sixth * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
        v=v0 + sixth * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
        beta=b0 + sixth * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
        psi_dot=p0 + sixth * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]),
    )


def simulate(bob: BobParameters, track: TrackProfile, controls: ControlTrace,
             setup: FrictionSetup, aero: AeroModel | None = None,
             v0: float = 10.0, beta0: float = 0.0, psi_dot0: float = 0.0,
             dt: float = 0.005, t_max: float = 60.0, v_stop: float = 0.1) -> SimLog:
    """Run the simulator until t_max, the track end, or standstill.

    The run terminates cleanly when the speed would drop below
    ``v_stop``; the log always contains the states actually reached.
    A non-finite state raises NumericalError naming its time.
    """
    if dt > MAX_DT:
        raise ConfigError(f"dt = {dt} exceeds the {MAX_DT} s stability bound")
    if v0 <= v_stop:
        raise ConfigError("initial speed below the stop threshold")
    rhs = _rhs(bob, track, controls, setup, aero)
    state = SimState(t=0.0, s=float(track.s[0]), v=v0, beta=beta0, psi_dot=psi_dot0)
    rows = []  # one tuple per accepted state, in _LOG_FIELDS order; grows with the run, not t_max

    def log_state(st: SimState):
        """Log the accepted state; its ``rhs`` value is the next step's k1."""
        t, s, v, beta, psi_dot = st.t, st.s, st.v, st.beta, st.psi_dot
        k = rhs(t, s, v, beta, psi_dot)
        (_, _, _, psi_ddot, delta, gamma, kappa, theta_dot, theta_ddot, alpha_f, alpha_r, f_drag, gravity,
         cb, sb, f_x_f, f_y_f, f_z_f, f_x_f0, f_y_f0, f_z_f0, f_x_r, f_y_r, f_z_r) = k
        u, w = v * cb, -v * sb
        rows.append((
            t, s, v, beta, psi_dot, psi_ddot, theta_dot, theta_ddot, delta, gamma, kappa,
            (f_x_f0 + f_x_r - f_drag * cb) / bob.m, (f_y_f0 + f_y_r + f_drag * sb) / bob.m,
            (f_z_f0 + f_z_r) / bob.m,
            f_x_f0, f_y_f0, f_z_f0, f_x_f, f_y_f, f_z_f, f_x_r, f_y_r, f_z_r, f_drag,
            alpha_f, alpha_r, gravity * v, -f_drag * v,
            f_x_f0 * u + f_y_f0 * (w + psi_dot * bob.l_f), f_x_r * u + f_y_r * (w - psi_dot * bob.l_r),
            0.5 * bob.m * v ** 2 + 0.5 * bob.j_zz * psi_dot ** 2,
        ))
        return k

    n_steps = int(round(t_max / dt))
    k1 = log_state(state)
    for _ in range(n_steps):
        new = step(state, rhs, dt, k1)
        if not all(map(math.isfinite, (new.s, new.v, new.beta, new.psi_dot))):
            raise NumericalError(f"non-finite simulator state at t = {new.t:.6g} s")
        if new.v <= v_stop or new.s >= track.s[-1]:
            break
        state = new
        k1 = log_state(state)
    table = np.array(rows, dtype=float)
    rows.clear()
    return SimLog(data=dict(zip(_LOG_FIELDS, table.T.copy())), dt=dt)


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


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian noise sigmas per telemetry channel."""

    sigma: dict = field(default_factory=dict)

    def get(self, channel: str) -> float:
        return float(self.sigma.get(channel, 0.0))


def export_synthetic_telemetry(log: SimLog, bob: BobParameters, rate: float = 100.0,
                               noise: NoiseSpec | None = None, seed: int | None = None,
                               meta: TelemetryMeta | None = None) -> tuple[TelemetryRun, AxleForceTrace]:
    """Sensor-frame telemetry plus ground-truth axle forces from a log.

    The log grid is decimated to the requested rate (its spacing must
    divide the sample interval). Accelerations are moved from the COG to
    the configured sensor position with the inverse rigid-body transfer;
    the sensor slip angle is the chassis angle transferred to the speed
    sensor's mount point. Roll rate is the time derivative of the
    roll-split trace, i.e. the gyro rides on the front section.
    """
    stride = (1.0 / rate) / log.dt
    if abs(stride - round(stride)) > 1e-9:
        raise ConfigError(f"export rate {rate} Hz does not divide the log grid (dt={log.dt})")
    sl = slice(0, None, int(round(stride)))

    t = log.t[sl]
    dec = {name: log.data[name][sl] for name in log.data}
    gamma = dec["gamma"]
    phi_dot = np.gradient(gamma, t)
    phi_ddot = np.gradient(phi_dot, t)
    rates = (phi_dot, dec["theta_dot"], dec["psi_dot"])
    angular = (phi_ddot, dec["theta_ddot"], dec["psi_ddot"])
    a_sensor = kinematics.cog_to_sensor((dec["a_x"], dec["a_y"], dec["a_z"]), rates, angular, bob.offset)

    alpha_sensor = dec["beta"] - dec["psi_dot"] * bob.speed_sensor_x / dec["v"]

    channels = {
        "a_x": a_sensor[0], "a_y": a_sensor[1], "a_z": a_sensor[2],
        "phi_dot": phi_dot, "theta_dot": dec["theta_dot"], "psi_dot": dec["psi_dot"],
        "v": dec["v"], "alpha_sensor": alpha_sensor, "delta": dec["delta"], "gamma": gamma,
    }
    if noise is not None:
        rng = np.random.default_rng(seed)
        channels = {
            name: arr + rng.standard_normal(arr.size) * noise.get(name) if noise.get(name) else arr
            for name, arr in channels.items()
        }
        channels["v"] = np.maximum(channels["v"], 0.0)
    run = TelemetryRun(t=t, channels=channels, meta=meta or TelemetryMeta(rate_hz=rate))

    n = t.size
    truth = AxleForceTrace(
        t=t, s=dec["s"], valid=np.ones(n, dtype=bool),
        alpha_f=dec["alpha_f"], alpha_r=dec["alpha_r"], beta=dec["beta"],
        f_y_f0=dec["f_y_f0"], f_z_f0=dec["f_z_f0"],
        f_y_r=dec["f_y_r"], f_z_r=dec["f_z_r"],
        f_x_f0=dec["f_x_f0"], f_x_f=dec["f_x_f"],
        f_y_f=dec["f_y_f"], f_z_f=dec["f_z_f"],
        f_y_ext=dec["f_drag"] * np.sin(dec["beta"]),
    )
    return run, truth


# ---------------------------------------------------------------------------
# scenario files


def load_scenario(path):
    """Scenario JSON: track/control breakpoints, initial state, sim and noise settings.

    Raises ConfigError naming the file for a missing field, a value of the
    wrong type or out of range, and a time step, duration or export rate
    that is not positive and finite.
    """
    with reading(path, ConfigError, "invalid scenario JSON: "):
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: a scenario is a JSON object, got {type(raw).__name__}")
    with reading(path, ConfigError, "bad scenario value: "):
        track = TrackProfile(
            s=np.array(raw["track"]["s"], dtype=float),
            kappa=np.array(raw["track"]["kappa"], dtype=float),
            inv_r_y=np.array(raw["track"]["inv_r_y"], dtype=float),
            n=np.array(raw["track"]["n"], dtype=float),
        )
        controls = ControlTrace(
            t=np.array(raw["controls"]["t"], dtype=float),
            delta=np.array(raw["controls"]["delta"], dtype=float),
            gamma=np.array(raw["controls"]["gamma"], dtype=float),
        )
        initial, simcfg, meta = (raw.get(key, {}) for key in ("initial", "sim", "meta"))
        scenario = {
            "track": track,
            "controls": controls,
            "v0": float(initial.get("v0", 10.0)),
            "beta0": float(initial.get("beta0", 0.0)),
            "psi_dot0": float(initial.get("psi_dot0", 0.0)),
            "dt": float(simcfg.get("dt", 0.005)),
            "t_max": float(simcfg.get("t_max", 60.0)),
            "noise": NoiseSpec(sigma={str(k): float(v) for k, v in raw.get("noise", {}).items()}),
            "meta": TelemetryMeta(
                driver=str(meta.get("driver", "")),
                track=str(meta.get("track", "")),
                rate_hz=float(meta.get("rate_hz", 100.0)),
            ),
        }
    for name, value in (("sim.dt", scenario["dt"]), ("sim.t_max", scenario["t_max"]),
                        ("meta.rate_hz", scenario["meta"].rate_hz)):
        if not 0 < value < math.inf:
            raise ConfigError(f"{path}: {name} must be positive and finite, got {value}")
    return scenario
