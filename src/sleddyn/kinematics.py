"""Rigid-body transforms between sensor, body, runner, and driving frames.

Conventions used throughout the package (right-handed, x forward,
y left, z up):

* Slip angles measure the body (or runner) longitudinal axis against
  the local velocity vector, positive when the axis points left of the
  velocity. With that sign the lateral friction law has positive slope:
  positive slip produces a force toward +y.
* ``beta`` is the chassis slip angle at the center of gravity under the
  same convention, so the velocity vector sits at angle ``-beta`` in the
  body frame and a force along the driving direction maps onto pure
  +x-tilde under :func:`to_driving_frame`.
* ``delta > 0`` steers left and enters the front slip angle additively.
* Mounting distances ``l_s_f``/``l_s_r`` are signed sensor-to-axle
  offsets along x (target minus sensor position), so they carry opposite
  signs when the sensor sits between the axles.

The front-runner frame is reached from the unrotated front-axle frame
by the roll-split rotation about x followed by the steering rotation,
whose axis has itself been tilted by the roll-split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Speed below which slip angles are not evaluated (yaw term diverges).
V_MIN = 2.0


@dataclass(frozen=True)
class MountingOffset:
    """Sensor mounting geometry relative to the center of gravity.

    l_x, l_y, l_z: accelerometer position [m] in body axes.
    l_s_f, l_s_r: signed distance [m] from the speed sensor to the
    front/rear axle along x (positive when the axle is ahead).
    """

    l_x: float = 0.0
    l_y: float = 0.0
    l_z: float = 0.0
    l_s_f: float = 0.0
    l_s_r: float = 0.0

    def __post_init__(self):
        bad = [name for name in ("l_x", "l_y", "l_z", "l_s_f", "l_s_r") if not np.isfinite(getattr(self, name))]
        if bad:
            raise ValueError(f"sensor offset {bad[0]} must be finite, got {getattr(self, bad[0])}")

    @property
    def lever_arm(self) -> np.ndarray:
        return np.array([self.l_x, self.l_y, self.l_z])


def rate_transfer_matrix(phi_dot, theta_dot, psi_dot, phi_ddot, theta_ddot, psi_ddot):
    """Rate/acceleration matrix tying a lever arm to the acceleration offset.

    Stacks to shape (..., 3, 3) for array-valued rates. A point at lever
    arm l away from the COG sees ``a_point = a_cog + M @ l``.
    """
    pd, td, yd = np.broadcast_arrays(
        np.asarray(phi_dot, dtype=float),
        np.asarray(theta_dot, dtype=float),
        np.asarray(psi_dot, dtype=float),
    )
    pdd, tdd, ydd = np.broadcast_arrays(
        np.asarray(phi_ddot, dtype=float),
        np.asarray(theta_ddot, dtype=float),
        np.asarray(psi_ddot, dtype=float),
    )
    m = np.empty(pd.shape + (3, 3))
    m[..., 0, 0] = -td * td - yd * yd
    m[..., 0, 1] = pd * td - ydd
    m[..., 0, 2] = pd * yd + tdd
    m[..., 1, 0] = pd * td + ydd
    m[..., 1, 1] = -pd * pd - yd * yd
    m[..., 1, 2] = td * yd - pdd
    m[..., 2, 0] = pd * yd - tdd
    m[..., 2, 1] = td * yd + pdd
    m[..., 2, 2] = -pd * pd - td * td
    return m


def accel_to_cog(a_sensor, rates, angular_accels, offset: MountingOffset):
    """Transfer sensor accelerations to the center of gravity.

    a_sensor, rates, angular_accels: length-3 sequences of scalars or
    arrays ((a_x, a_y, a_z), (phi_dot, theta_dot, psi_dot),
    (phi_ddot, theta_ddot, psi_ddot)). Returns the COG acceleration
    triple with the lever-arm contribution removed.
    """
    return tuple(a - shift for a, shift in _with_shift(a_sensor, rates, angular_accels, offset))


def cog_to_sensor(a_cog, rates, angular_accels, offset: MountingOffset):
    """Inverse of :func:`accel_to_cog`; used when synthesizing telemetry."""
    return tuple(a + shift for a, shift in _with_shift(a_cog, rates, angular_accels, offset))


def _with_shift(accel, rates, angular_accels, offset: MountingOffset):
    """Each component of ``accel`` as an array, paired with its lever-arm term ``(M @ l)[i]``."""
    shift = rate_transfer_matrix(*rates, *angular_accels) @ offset.lever_arm
    return [(np.asarray(c, dtype=float), shift[..., i]) for i, c in enumerate(accel)]


def slip_angle_at(alpha_sensor, psi_dot, v, l_s, v_min: float = V_MIN):
    """Slip angle transferred along x by ``l_s`` from the speed sensor.

    alpha_point = alpha_sensor - psi_dot * l_s / v. Samples with
    v <= v_min are returned as NaN; callers track validity separately.
    """
    v = np.asarray(v, dtype=float)
    valid = v > v_min
    safe_v = np.where(valid, v, 1.0)
    out = np.asarray(alpha_sensor, dtype=float) - np.asarray(psi_dot, dtype=float) * l_s / safe_v
    return np.where(valid, out, np.nan)


def slip_angle_rear(alpha_sensor, psi_dot, v, l_s_r, v_min: float = V_MIN):
    """Side slip angle at the rear axle."""
    return slip_angle_at(alpha_sensor, psi_dot, v, l_s_r, v_min)


def slip_angle_front(alpha_sensor, psi_dot, v, l_s_f, delta, v_min: float = V_MIN):
    """Side slip angle at the front axle; steering enters additively."""
    return slip_angle_at(alpha_sensor, psi_dot, v, l_s_f, v_min) + np.asarray(delta, dtype=float)


def rotation_gamma(gamma):
    """Roll-split rotation about the x-axis, shape (..., 3, 3)."""
    gamma = np.asarray(gamma, dtype=float)
    cg, sg = np.cos(gamma), np.sin(gamma)
    m = np.zeros(gamma.shape + (3, 3))
    m[..., 0, 0] = 1.0
    m[..., 1, 1] = cg
    m[..., 1, 2] = -sg
    m[..., 2, 1] = sg
    m[..., 2, 2] = cg
    return m


def rotation_delta(gamma, delta):
    """Steering rotation whose axis is tilted by the roll-split.

    Written out termwise (with delta_t = 1 - cos(delta)); equals the
    axis-angle rotation by delta about (0, -sin(gamma), cos(gamma)).
    """
    gamma, delta = np.broadcast_arrays(np.asarray(gamma, dtype=float), np.asarray(delta, dtype=float))
    cg, sg = np.cos(gamma), np.sin(gamma)
    cd, sd = np.cos(delta), np.sin(delta)
    dt = 1.0 - cd
    m = np.empty(gamma.shape + (3, 3))
    m[..., 0, 0] = cd
    m[..., 0, 1] = -cg * sd
    m[..., 0, 2] = -sg * sd
    m[..., 1, 0] = cg * sd
    m[..., 1, 1] = sg * sg * dt + cd
    m[..., 1, 2] = -sg * cg * dt
    m[..., 2, 0] = sg * sd
    m[..., 2, 1] = -sg * cg * dt
    m[..., 2, 2] = cg * cg * dt + cd
    return m


def rotation_f0_to_f(gamma, delta):
    """Transform from the unrotated front-axle frame to the runner frame.

    A = A_delta @ A_gamma; orthogonal with determinant +1, so the
    inverse transform is the transpose.
    """
    return rotation_delta(gamma, delta) @ rotation_gamma(gamma)


def rotate_forces(matrices, f_x, f_y, f_z):
    """Apply stacked 3x3 matrices to force component arrays."""
    f = np.stack(np.broadcast_arrays(
        np.asarray(f_x, dtype=float),
        np.asarray(f_y, dtype=float),
        np.asarray(f_z, dtype=float),
    ), axis=-1)
    out = np.einsum("...ij,...j->...i", matrices, f)
    return out[..., 0], out[..., 1], out[..., 2]


def to_driving_frame(f_x, f_y, f_z, beta):
    """Rotate body-frame force components into the driving-direction frame.

    F_x_tilde = cos(beta) F_x - sin(beta) F_y; the z-component is
    unchanged. A force along the driving direction (at angle -beta in
    the body frame) maps onto pure +x-tilde.
    """
    beta = np.asarray(beta, dtype=float)
    cb, sb = np.cos(beta), np.sin(beta)
    f_x = np.asarray(f_x, dtype=float)
    f_y = np.asarray(f_y, dtype=float)
    return cb * f_x - sb * f_y, sb * f_x + cb * f_y, np.asarray(f_z, dtype=float)
