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


def _interp_scalar(x: float, xs: list, ys: list) -> float:
    """Clamped linear interpolation on breakpoint lists (hot path)."""
    if x <= xs[0]:
        return ys[0]
    if not x < xs[-1]:  # also catches NaN, which the step's state check then reports
        return ys[-1]
    i = bisect_right(xs, x) - 1
    frac = (x - xs[i]) / (xs[i + 1] - xs[i])
    return ys[i] + frac * (ys[i + 1] - ys[i])


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
        # plain-list caches for the scalar hot path
        object.__setattr__(self, "_s", s.tolist())
        object.__setattr__(self, "_kappa", self.kappa.tolist())
        object.__setattr__(self, "_inv_r", self.inv_r_y.tolist())
        object.__setattr__(self, "_n", self.n.tolist())

    @property
    def length(self) -> float:
        return float(self.s[-1] - self.s[0])

    def kappa_at(self, s: float) -> float:
        return _interp_scalar(s, self._s, self._kappa)

    def inv_r_at(self, s: float) -> float:
        return _interp_scalar(s, self._s, self._inv_r)

    def n_at(self, s: float) -> float:
        return _interp_scalar(s, self._s, self._n)

    def inv_r_slope_at(self, s: float) -> float:
        """Piecewise-constant d(1/r_y)/ds of the breakpoint table."""
        i = min(max(bisect_right(self._s, s) - 1, 0), len(self._s) - 2)
        return (self._inv_r[i + 1] - self._inv_r[i]) / (self._s[i + 1] - self._s[i])


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
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "_t", t.tolist())
        object.__setattr__(self, "_delta", self.delta.tolist())
        object.__setattr__(self, "_gamma", self.gamma.tolist())

    def delta_at(self, t: float) -> float:
        return _interp_scalar(t, self._t, self._delta)

    def gamma_at(self, t: float) -> float:
        return _interp_scalar(t, self._t, self._gamma)


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


def _force_y_scalar(f_z: float, alpha: float, p: LateralFrictionParams) -> float:
    b_a = p.k_y / (p.c_y * p.mu_zeta_y * f_z) * alpha
    arg = b_a - p.e_y * (b_a - math.atan(b_a))
    return p.mu_zeta_y * f_z * math.sin(p.c_y * math.atan(arg))


def _front_forces_scalar(alpha_f: float, f_z_f0: float, gamma: float, delta: float,
                         lateral: LateralFrictionParams, mu: float):
    """Scalar twin of onetrack.front_runner_forces (hot path).

    Uses the closed form of the frame rotation: the composed matrix
    equals Rx(gamma) Rz(delta), which actively rotates runner-frame
    forces into the body frame. The test suite checks this path against
    the vectorized version.
    """
    cg, sg = math.cos(gamma), math.sin(gamma)
    cd, sd = math.cos(delta), math.sin(delta)
    f_y_f = _force_y_scalar(f_z_f0, alpha_f, lateral)
    f_x_f = -mu * f_z_f0 * math.cos(alpha_f)
    # z-row of F_f0 = A F_f with A = Rx(g) Rz(d): (sg sd, sg cd, cg)
    f_z_f = (f_z_f0 - sg * sd * f_x_f - sg * cd * f_y_f) / cg
    f_x_f0 = cd * f_x_f - sd * f_y_f
    f_y_f0 = cg * sd * f_x_f + cg * cd * f_y_f - sg * f_z_f
    return (f_x_f, f_y_f, f_z_f), (f_x_f0, f_y_f0, f_z_f0)


def _force_bundle(state: SimState, bob: BobParameters, track: TrackProfile,
                  controls: ControlTrace, setup: FrictionSetup, aero: AeroModel | None,
                  v_dot_hint: float = 0.0):
    """All forces and derived terms at one state (pure scalar math).

    ``v_dot_hint`` feeds the pitch-acceleration term theta_ddot =
    -v_dot/r - v^2 d(1/r)/ds; one fixed-point pass over v_dot makes the
    vertical split consistent with the actual acceleration.
    """
    t, s, v, beta, psi_dot = state.t, state.s, state.v, state.beta, state.psi_dot
    delta = controls.delta_at(t)
    gamma = controls.gamma_at(t)
    kappa = track.kappa_at(s)
    inv_r = track.inv_r_at(s)
    n_load = track.n_at(s)

    theta_dot = -v * inv_r
    theta_ddot = -v_dot_hint * inv_r - v * v * track.inv_r_slope_at(s)

    alpha_f = beta + delta - psi_dot * bob.l_f / v
    alpha_r = beta + psi_dot * bob.l_r / v

    f_z_total = n_load * bob.m * G
    f_z_f0 = (bob.l_r * f_z_total + bob.j_yy * theta_ddot) / bob.wheelbase
    f_z_r = (bob.l_f * f_z_total - bob.j_yy * theta_ddot) / bob.wheelbase

    f_f, f_f0 = _front_forces_scalar(alpha_f, f_z_f0, gamma, delta, setup.lateral_front, setup.mu_x)
    f_y_r = _force_y_scalar(f_z_r, alpha_r, setup.lateral_rear)
    f_x_r = -setup.mu_x * f_z_r * math.cos(alpha_r)

    if aero is not None:
        area = aero.cx_ax * (1.0 + aero.yaw_sensitivity * math.degrees(abs(beta)))
        f_drag = 0.5 * area * v * v * aero.air.density
    else:
        f_drag = 0.0

    return {
        "delta": delta, "gamma": gamma, "kappa": kappa,
        "theta_dot": theta_dot, "theta_ddot": theta_ddot,
        "alpha_f": alpha_f, "alpha_r": alpha_r,
        "f_f0": f_f0, "f_f": f_f,
        "f_x_r": f_x_r, "f_y_r": f_y_r, "f_z_r": f_z_r, "f_z_f0": f_z_f0,
        "f_drag": f_drag,
    }


def _derivatives(state: SimState, bundle, bob: BobParameters):
    """(s, v, beta, psi_dot) time derivatives from a force bundle."""
    v, beta, psi_dot = state.v, state.beta, state.psi_dot
    cb, sb = math.cos(beta), math.sin(beta)
    u, w = v * cb, -v * sb
    f_x_f0, f_y_f0, _ = bundle["f_f0"]
    along = bob.m * G * math.sin(bundle["kappa"]) - bundle["f_drag"]
    sum_x = f_x_f0 + bundle["f_x_r"] + along * cb
    sum_y = f_y_f0 + bundle["f_y_r"] - along * sb
    v_dot = (u * sum_x + w * sum_y) / (bob.m * v)
    beta_dot = psi_dot - (u * sum_y - w * sum_x) / (bob.m * v * v)
    psi_ddot = (bob.l_f * f_y_f0 - bob.l_r * bundle["f_y_r"]) / bob.j_zz
    return (v, v_dot, beta_dot, psi_ddot)


def _bundle_and_derivatives(state: SimState, bob, track, controls, setup, aero):
    """Force bundle and state derivatives, with one fixed-point pass.

    The vertical axle split depends on theta_ddot, which contains
    v_dot; a first pass with v_dot = 0 supplies the hint for the second,
    so the returned bundle is self-consistent to second order.
    """
    bundle = _force_bundle(state, bob, track, controls, setup, aero)
    deriv = _derivatives(state, bundle, bob)
    bundle = _force_bundle(state, bob, track, controls, setup, aero, v_dot_hint=float(deriv[1]))
    return bundle, _derivatives(state, bundle, bob)


def step(state: SimState, bob: BobParameters, track: TrackProfile, controls: ControlTrace,
         setup: FrictionSetup, aero: AeroModel | None, dt: float) -> SimState:
    """One fixed-step fourth-order Runge-Kutta step."""
    if dt > MAX_DT:
        raise ConfigError(f"dt = {dt} exceeds the {MAX_DT} s stability bound")

    def f(t, s, v, beta, psi_dot):
        st = SimState(t=t, s=s, v=v, beta=beta, psi_dot=psi_dot)
        _, deriv = _bundle_and_derivatives(st, bob, track, controls, setup, aero)
        return deriv

    t0, s0, v0, b0, p0 = state.t, state.s, state.v, state.beta, state.psi_dot
    half = dt / 2.0
    k1 = f(t0, s0, v0, b0, p0)
    k2 = f(t0 + half, s0 + half * k1[0], v0 + half * k1[1], b0 + half * k1[2], p0 + half * k1[3])
    k3 = f(t0 + half, s0 + half * k2[0], v0 + half * k2[1], b0 + half * k2[2], p0 + half * k2[3])
    k4 = f(t0 + dt, s0 + dt * k3[0], v0 + dt * k3[1], b0 + dt * k3[2], p0 + dt * k3[3])
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
    if v0 <= v_stop:
        raise ConfigError("initial speed below the stop threshold")
    state = SimState(t=0.0, s=float(track.s[0]), v=v0, beta=beta0, psi_dot=psi_dot0)
    rows = {name: [] for name in _LOG_FIELDS}

    def log_state(st: SimState):
        bundle, deriv = _bundle_and_derivatives(st, bob, track, controls, setup, aero)
        f_x_f0, f_y_f0, f_z_f0 = bundle["f_f0"]
        u, w = st.v * math.cos(st.beta), -st.v * math.sin(st.beta)
        w_front, w_rear = w + st.psi_dot * bob.l_f, w - st.psi_dot * bob.l_r
        values = {
            "t": st.t, "s": st.s, "v": st.v, "beta": st.beta,
            "psi_dot": st.psi_dot, "psi_ddot": deriv[3],
            "theta_dot": bundle["theta_dot"], "theta_ddot": bundle["theta_ddot"],
            "delta": bundle["delta"], "gamma": bundle["gamma"], "kappa": bundle["kappa"],
            "a_x": (f_x_f0 + bundle["f_x_r"] - bundle["f_drag"] * math.cos(st.beta)) / bob.m,
            "a_y": (f_y_f0 + bundle["f_y_r"] + bundle["f_drag"] * math.sin(st.beta)) / bob.m,
            "a_z": (f_z_f0 + bundle["f_z_r"]) / bob.m,
            "f_x_f0": f_x_f0, "f_y_f0": f_y_f0, "f_z_f0": f_z_f0,
            "f_x_f": bundle["f_f"][0], "f_y_f": bundle["f_f"][1], "f_z_f": bundle["f_f"][2],
            "f_x_r": bundle["f_x_r"], "f_y_r": bundle["f_y_r"], "f_z_r": bundle["f_z_r"],
            "f_drag": bundle["f_drag"],
            "alpha_f": bundle["alpha_f"], "alpha_r": bundle["alpha_r"],
            "p_gravity": bob.m * G * math.sin(bundle["kappa"]) * st.v,
            "p_aero": -bundle["f_drag"] * st.v,
            "p_front": f_x_f0 * u + f_y_f0 * w_front,
            "p_rear": bundle["f_x_r"] * u + bundle["f_y_r"] * w_rear,
            "e_kin": 0.5 * bob.m * st.v ** 2 + 0.5 * bob.j_zz * st.psi_dot ** 2,
        }
        for name in _LOG_FIELDS:
            rows[name].append(float(values[name]))

    n_steps = int(round(t_max / dt))
    log_state(state)
    for _ in range(n_steps):
        new = step(state, bob, track, controls, setup, aero, dt)
        if not all(map(math.isfinite, (new.s, new.v, new.beta, new.psi_dot))):
            raise NumericalError(f"non-finite simulator state at t = {new.t:.6g} s")
        if new.v <= v_stop or new.s >= track.s[-1]:
            break
        state = new
        log_state(state)
    return SimLog(data={k: np.array(v) for k, v in rows.items()}, dt=dt)


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
