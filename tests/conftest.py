"""Shared synthetic scenarios used across sim, evaluation, and acceptance tests."""

import numpy as np
import pytest

from sleddyn.aero import AeroModel, AirState
from sleddyn.friction import LateralFrictionParams
from sleddyn.kinematics import MountingOffset
from sleddyn.kvfile import dump_kv
from sleddyn.onetrack import BobParameters
from sleddyn.sim import ControlTrace, FrictionSetup, TrackProfile

LATERAL_FRONT = LateralFrictionParams(mu_zeta_y=2.577, c_y=0.024, k_y=10522.0, e_y=0.99)
LATERAL_REAR = LateralFrictionParams(mu_zeta_y=3.288, c_y=0.076, k_y=49776.0, e_y=0.99)


@pytest.fixture
def bob():
    return BobParameters(
        m=390.0, j_yy=350.0, j_zz=850.0, l_f=1.7, l_r=1.3, cx_ax=0.2,
        offset=MountingOffset(l_x=0.5, l_y=0.0, l_z=-0.1, l_s_f=1.2, l_s_r=-1.8),
    )


@pytest.fixture
def bob_sensor_at_cog():
    return BobParameters(
        m=390.0, j_yy=350.0, j_zz=850.0, l_f=1.7, l_r=1.3, cx_ax=0.2,
        offset=MountingOffset(l_s_f=1.7, l_s_r=-1.3),
    )


@pytest.fixture
def friction_setup():
    return FrictionSetup(lateral_front=LATERAL_FRONT, lateral_rear=LATERAL_REAR, mu_x=0.004)


@pytest.fixture
def aero_model():
    return AeroModel(cx_ax=0.2, air=AirState(p_air=94700.0, temperature=275.15))


def save_bob_params(bob: BobParameters, path) -> None:
    """Write bob parameters as the ``key = value`` file that load_bob_params reads."""
    off = bob.offset
    dump_kv({"m": bob.m, "j_yy": bob.j_yy, "j_zz": bob.j_zz, "l_f": bob.l_f, "l_r": bob.l_r,
             "cx_ax": bob.cx_ax, "l_x": off.l_x, "l_y": off.l_y, "l_z": off.l_z,
             "l_s_f": off.l_s_f, "l_s_r": off.l_s_r}, path)


def straight_track(length: float, kappa: float = 0.0, n: float = 1.0) -> TrackProfile:
    return TrackProfile(
        s=np.array([0.0, length]), kappa=np.array([kappa, kappa]),
        inv_r_y=np.zeros(2), n=np.array([n, n]),
    )


def zero_controls(t_max: float) -> ControlTrace:
    return ControlTrace(t=np.array([0.0, t_max]), delta=np.zeros(2), gamma=np.zeros(2))


def step_steer(t_step: float, delta_deg: float, t_max: float, ramp: float = 0.5) -> ControlTrace:
    """Smooth (cosine-ramped) step in the steering angle at t_step."""
    t = np.unique(np.concatenate([
        [0.0, t_step], t_step + np.linspace(0.0, ramp, 26)[1:], [t_max],
    ]))
    d = np.deg2rad(delta_deg)
    delta = np.where(
        t <= t_step, 0.0,
        np.where(t >= t_step + ramp, d, d * 0.5 * (1 - np.cos(np.pi * (t - t_step) / ramp))),
    )
    return ControlTrace(t=t, delta=delta, gamma=np.zeros_like(t))


def downhill_track(length=2000.0, kappa_deg=4.0):
    return straight_track(length, kappa=np.deg2rad(kappa_deg))


def corner_track(length=1500.0, kappa_deg=4.0):
    """Downhill run with one banked corner: smooth load-factor and pitch bumps."""
    s = np.linspace(0.0, length, 301)
    kappa = np.full(s.size, np.deg2rad(kappa_deg))
    bump = np.exp(-0.5 * ((s - 600.0) / 120.0) ** 2)
    n = 1.0 + 2.5 * bump
    inv_r = 0.02 * bump
    return TrackProfile(s=s, kappa=kappa, inv_r_y=inv_r, n=n)


def step_steer_controls(t_max=20.0):
    return step_steer(t_step=5.0, delta_deg=1.0, t_max=t_max)


def weaving_controls(t_max=30.0, amplitude_deg=1.5, period=4.0, gamma_amp_deg=0.0):
    t = np.linspace(0.0, t_max, 601)
    delta = np.deg2rad(amplitude_deg) * np.sin(2 * np.pi * t / period)
    ramp = np.clip(t / 2.0, 0.0, 1.0)  # ease in to keep the start clean
    gamma = np.deg2rad(gamma_amp_deg) * np.sin(2 * np.pi * t / (1.7 * period)) * ramp
    return ControlTrace(t=t, delta=delta * ramp, gamma=gamma)
