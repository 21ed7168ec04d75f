"""One-track force reconstruction from processed telemetry.

Collapsing both runners of an axle into one, the momentum balances for
contact plus external forces (accelerometers measure specific force, so
gravity never appears) are

    m a_x = F_x_r + F_x_f0 + F_x_ext
    m a_y = F_y_r + F_y_f0 + F_y_ext
    m a_z = F_z_r + F_z_f0
    J_zz psidd = l_F F_y_f0 - l_R F_y_r
    J_yy thetadd = l_F F_z_f0 - l_R F_z_r

with runner torques neglected. Lateral and vertical pairs are each a
2x2 linear solve. The longitudinal split is indeterminate from data;
only the front component is needed (to rotate front forces into the
runner frame) and is predefined through the longitudinal friction law,
after which F_x_f0 follows from the first row of the frame rotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import friction, kinematics
from .aero import AeroModel, drag_area_at_beta, drag_force
from .errors import DataError, reading
from .kinematics import MountingOffset
from .tables import read_table, write_table
from .telemetry import TelemetryRun

#: Guard on the (1,1) element of the f0->f rotation when recovering F_x_f0.
A11_MIN = 0.5


@dataclass(frozen=True)
class BobParameters:
    """Mass, inertia, and geometry of the sled (plus sensor mounting).

    l_f / l_r are the distances from the center of gravity to the front
    and rear axle; cx_ax is the wind-tunnel drag area.
    """

    m: float
    j_yy: float
    j_zz: float
    l_f: float
    l_r: float
    cx_ax: float
    offset: MountingOffset = field(default_factory=MountingOffset)

    def __post_init__(self):
        for name in ("m", "j_yy", "j_zz", "l_f", "l_r", "cx_ax"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")

    @property
    def wheelbase(self) -> float:
        return self.l_f + self.l_r

    @property
    def speed_sensor_x(self) -> float:
        """Speed-sensor x-position relative to the COG [m]."""
        return self.l_f - self.offset.l_s_f


def reconstruct_lateral(a_y_cog, psi_ddot, f_y_ext, params: BobParameters):
    """Solve the lateral/yaw pair for (F_y_f0, F_y_r)."""
    rhs = params.m * np.asarray(a_y_cog, dtype=float) - np.asarray(f_y_ext, dtype=float)
    return _axle_pair(rhs, params.j_zz * np.asarray(psi_ddot, dtype=float), params)


def reconstruct_vertical(a_z_cog, theta_ddot, params: BobParameters):
    """Solve the vertical/pitch pair for (F_z_f0, F_z_r)."""
    return _axle_pair(params.m * np.asarray(a_z_cog, dtype=float),
                      params.j_yy * np.asarray(theta_ddot, dtype=float), params)


def _axle_pair(rhs, moment, params: BobParameters):
    """(front, rear) axle forces whose sum is ``rhs`` and whose moment about the COG is ``moment``."""
    return (moment + params.l_r * rhs) / params.wheelbase, (params.l_f * rhs - moment) / params.wheelbase


def recover_f_x_f0(f_x_f, f_y_f0, f_z_f0, a_matrix):
    """Front longitudinal force in the unrotated frame from the runner-frame value.

    The rotation matrix actively rotates runner-frame forces into the
    body frame (F_f0 = A F_f), so the runner-frame x-component is the
    first column of A against F_f0; that row is inverted here. Callers
    must mask samples where |A11| falls below :data:`A11_MIN`; the
    division is performed regardless so array pipelines stay total.
    """
    a11 = a_matrix[..., 0, 0]
    a21 = a_matrix[..., 1, 0]
    a31 = a_matrix[..., 2, 0]
    return (np.asarray(f_x_f, dtype=float) - a21 * np.asarray(f_y_f0, dtype=float)
            - a31 * np.asarray(f_z_f0, dtype=float)) / a11


def front_runner_forces(alpha_f, f_z_f0, gamma, delta, lateral, mu_x_front):
    """Front runner force triples implied by the friction laws.

    ``lateral`` is a lateral law ``(f_z, alpha) -> f_y``: fitted
    :class:`~sleddyn.friction.LateralFrictionParams` or
    :func:`~sleddyn.friction.force_y_braghin`. Given the slip angle, the
    unrotated vertical load (used as the normal-force argument of both
    laws), and the frame angles, returns
    ``(f_runner, f_f0)`` where each is an (f_x, f_y, f_z) triple. The
    runner-frame vertical component is chosen so the body-frame triple
    reproduces exactly the prescribed F_z_f0.
    """
    a = kinematics.rotation_f0_to_f(gamma, delta)
    f_y_f = lateral(f_z_f0, alpha_f)
    f_x_f = friction.force_x_mu(f_z_f0, alpha_f, mu_x_front)
    # z-row of F_f0 = A F_f, solved for the runner-frame vertical force
    f_z_f = (np.asarray(f_z_f0, dtype=float) - a[..., 2, 0] * f_x_f - a[..., 2, 1] * f_y_f) / a[..., 2, 2]
    f_f = (f_x_f, f_y_f, f_z_f)
    f_f0 = kinematics.rotate_forces(a, *f_f)
    return f_f, f_f0


@dataclass(frozen=True)
class AxleForceTrace:
    """Per-sample reconstructed axle forces and slip angles.

    Front forces exist in both the unrotated frame (``*_f0``) and the
    runner frame (``*_f``); the rear frame coincides with the body
    frame. ``valid`` flags samples that passed the speed and rotation
    guards; invalid samples carry NaN forces.
    """

    t: np.ndarray
    s: np.ndarray
    valid: np.ndarray
    alpha_f: np.ndarray
    alpha_r: np.ndarray
    beta: np.ndarray
    f_y_f0: np.ndarray
    f_z_f0: np.ndarray
    f_y_r: np.ndarray
    f_z_r: np.ndarray
    f_x_f0: np.ndarray
    f_x_f: np.ndarray
    f_y_f: np.ndarray
    f_z_f: np.ndarray
    f_y_ext: np.ndarray

    def __len__(self) -> int:
        return self.t.size


def build_axle_trace(run: TelemetryRun, params: BobParameters,
                     aero: AeroModel | None = None,
                     mu_x_fixed: float = friction.MU_X_DEFAULT,
                     v_min: float = kinematics.V_MIN) -> AxleForceTrace:
    """Reconstruct per-sample axle forces for a processed run.

    The front longitudinal force is predefined through the friction law
    with the fixed coefficient ``mu_x_fixed``. The external lateral force
    is the body-frame y-component of the drag force when an aero model
    is given, and zero without one. Guard failures flag samples invalid
    instead of aborting.
    """
    if run.derived is None:
        raise DataError("run must be processed (derive_channels) before reconstruction")
    d = run.derived
    off = params.offset
    a_cog = kinematics.accel_to_cog(
        (run.a_x, run.a_y, run.a_z),
        (run.phi_dot, run.theta_dot, run.psi_dot),
        (d.phi_ddot, d.theta_ddot, d.psi_ddot),
        off,
    )
    alpha_f = kinematics.slip_angle_front(run.alpha_sensor, run.psi_dot, run.v, off.l_s_f, run.delta, v_min)
    alpha_r = kinematics.slip_angle_rear(run.alpha_sensor, run.psi_dot, run.v, off.l_s_r, v_min)
    # chassis slip at the COG: transfer by the (signed) sensor-to-COG distance
    beta = kinematics.slip_angle_at(run.alpha_sensor, run.psi_dot, run.v, off.l_s_f - params.l_f, v_min)

    f_y_ext = np.zeros(len(run))
    if aero is not None:
        beta_safe = np.where(np.isfinite(beta), beta, 0.0)
        # drag acts against the velocity; its body-frame y-component is +F_d sin(beta)
        f_y_ext = drag_force(run.v, 1.0, aero.air) * drag_area_at_beta(aero, beta_safe) * np.sin(beta_safe)

    f_y_f0, f_y_r = reconstruct_lateral(a_cog[1], d.psi_ddot, f_y_ext, params)
    f_z_f0, f_z_r = reconstruct_vertical(a_cog[2], d.theta_ddot, params)

    a = kinematics.rotation_f0_to_f(run.gamma, run.delta)
    safe_alpha_f = np.where(np.isfinite(alpha_f), alpha_f, 0.0)
    f_x_f = friction.force_x_mu(f_z_f0, safe_alpha_f, mu_x_fixed)
    f_x_f0 = recover_f_x_f0(f_x_f, f_y_f0, f_z_f0, a)
    _, f_y_f, f_z_f = kinematics.rotate_forces(np.swapaxes(a, -1, -2), f_x_f0, f_y_f0, f_z_f0)

    valid = (run.v > v_min) & (np.abs(a[..., 0, 0]) >= A11_MIN) & np.isfinite(alpha_f) & np.isfinite(alpha_r)
    nan = np.where(valid, 1.0, np.nan)
    return AxleForceTrace(
        t=run.t, s=d.s, valid=valid,
        alpha_f=alpha_f, alpha_r=alpha_r, beta=beta,
        f_y_f0=f_y_f0 * nan, f_z_f0=f_z_f0 * nan,
        f_y_r=f_y_r * nan, f_z_r=f_z_r * nan,
        f_x_f0=f_x_f0 * nan, f_x_f=f_x_f * nan,
        f_y_f=f_y_f * nan, f_z_f=f_z_f * nan,
        f_y_ext=f_y_ext,
    )


_TRACE_COLUMNS = (
    "t", "s", "valid", "alpha_f", "alpha_r", "beta",
    "f_y_f0", "f_z_f0", "f_y_r", "f_z_r", "f_x_f0", "f_x_f", "f_y_f", "f_z_f", "f_y_ext",
)


def export_trace_csv(trace: AxleForceTrace, path, header_comments: list[str] | None = None) -> None:
    """One row per sample; ``valid`` is written as 1.0 or 0.0."""
    write_table(path, {name: getattr(trace, name) for name in _TRACE_COLUMNS}, header_comments or ())


def load_trace_csv(path) -> AxleForceTrace:
    data = read_table(path, _TRACE_COLUMNS).data
    kwargs = {name: data[:, i] for i, name in enumerate(_TRACE_COLUMNS)}
    kwargs["valid"] = kwargs["valid"] > 0.5
    return AxleForceTrace(**kwargs)


def load_bob_params(path) -> BobParameters:
    from .kvfile import load_floats

    raw = load_floats(path)
    with reading(path):
        offset = MountingOffset(
            l_x=raw.get("l_x", 0.0), l_y=raw.get("l_y", 0.0), l_z=raw.get("l_z", 0.0),
            l_s_f=raw.get("l_s_f", 0.0), l_s_r=raw.get("l_s_r", 0.0),
        )
        return BobParameters(
            m=raw["m"], j_yy=raw["j_yy"], j_zz=raw["j_zz"],
            l_f=raw["l_f"], l_r=raw["l_r"], cx_ax=raw["cx_ax"], offset=offset,
        )
