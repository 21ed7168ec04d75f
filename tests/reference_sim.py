"""Frozen reference integrator for the simulator's bit-identity gate.

This is the simulator's force chain, RK4 step and logging as they stood
before the state/load split and the reuse of the logged derivatives as
the next step's k1: one full force bundle per fixed-point pass, five
derivative evaluations per step, one dict per bundle. The code below the
lookup adapters is kept verbatim. ``test_sim.TestBitIdentity`` requires
``sleddyn.sim.simulate`` to reproduce every logged column of this
integrator exactly; both run on the same libm, so the comparison holds
on any platform.

A deliberate physics change must update this file in the same change
(and say so in CHANGES.md); a pure speed-up must never need to.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from sleddyn.aero import AeroModel
from sleddyn.errors import ConfigError, NumericalError
from sleddyn.friction import LateralFrictionParams
from sleddyn.onetrack import BobParameters
from sleddyn.sim import _LOG_FIELDS, MAX_DT, FrictionSetup, SimLog, SimState

G = 9.81


def _interp_scalar(x: float, xs: list, ys: list) -> float:
    """Clamped linear interpolation on breakpoint lists (hot path)."""
    if x <= xs[0]:
        return ys[0]
    if not x < xs[-1]:  # also catches NaN, which the step's state check then reports
        return ys[-1]
    i = bisect_right(xs, x) - 1
    frac = (x - xs[i]) / (xs[i + 1] - xs[i])
    return ys[i] + frac * (ys[i + 1] - ys[i])


class TrackProfile:
    """Per-channel lookups over a ``sleddyn.sim.TrackProfile``'s breakpoints."""

    def __init__(self, track):
        self.s = track.s
        self._s, self._kappa = track.s.tolist(), track.kappa.tolist()
        self._inv_r, self._n = track.inv_r_y.tolist(), track.n.tolist()

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


class ControlTrace:
    """Per-channel lookups over a ``sleddyn.sim.ControlTrace``'s breakpoints."""

    def __init__(self, controls):
        self._t = controls.t.tolist()
        self._delta, self._gamma = controls.delta.tolist(), controls.gamma.tolist()

    def delta_at(self, t: float) -> float:
        return _interp_scalar(t, self._t, self._delta)

    def gamma_at(self, t: float) -> float:
        return _interp_scalar(t, self._t, self._gamma)


def reference_simulate(bob, track, controls, setup, aero=None, **kwargs) -> SimLog:
    """``simulate`` of the frozen integrator on the package's track and control records."""
    return simulate(bob, TrackProfile(track), ControlTrace(controls), setup, aero, **kwargs)


# ---------------------------------------------------------------------------
# verbatim from here on


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
