"""Runner-ice friction laws.

Longitudinal friction: the coefficient mu_x follows a capped quadratic
in contact pressure,

    mu_x = min(1e-3 * zeta_x * (B_x p^2 - C_x p + D_x), E_x),

clamped below at zero, and the force is F_x = -mu_x * F_z * cos(alpha)
so that pure sideways sliding produces no longitudinal force. The cap
E_x applies to the final coefficient (0.007 by default), the only
reading consistent with measured coefficients in the 3e-3..5e-3 range.

Lateral friction: a sin-atan curve in the slip angle, a pure-lateral
cut of the Magic Formula family,

    F_y = mu_zeta_y * F_z * sin(C_y * atan(B_y a - E_y (B_y a - atan(B_y a))))
    B_y = K_y / (C_y * mu_zeta_y * F_z),

which has slope exactly K_y at alpha = 0. A simple atan reference model
(mu_y = 0.5, k3 = 50/rad at both axles) is included for comparison.

The reconstruction, the evaluation and the simulator use one fixed
mu_x, by default 0.004, in line with published ice-house and track
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import reading

#: Default fixed longitudinal friction coefficient.
MU_X_DEFAULT = 0.004

#: Reference-model constants: peak coefficient and slip-angle gain [1/rad].
BRAGHIN_MU_Y = 0.5
BRAGHIN_K3 = 50.0


@dataclass(frozen=True)
class LongitudinalFrictionParams:
    """Coefficients of the capped quadratic mu_x(p); pressure in MPa."""

    b_x: float
    c_x: float
    d_x: float
    e_x: float = 0.007
    zeta_x: float = 1.0

    def __post_init__(self):
        if not 0 < self.b_x < np.inf:
            raise ValueError("b_x must be positive (convex quadratic) and finite")
        if not np.isfinite([self.c_x, self.d_x]).all():
            raise ValueError("c_x and d_x must be finite")
        if not self.e_x > 0:
            raise ValueError("e_x cap must be positive")
        if not 1.0 <= self.zeta_x < np.inf:
            raise ValueError("asperity factor zeta_x must be >= 1")

    @property
    def vertex_pressure(self) -> float:
        """Pressure of minimum friction, C_x / (2 B_x) [MPa]."""
        return self.c_x / (2.0 * self.b_x)


@dataclass(frozen=True)
class LateralFrictionParams:
    """Parameters of the lateral sin-atan law for one runner.

    mu_zeta_y is the fitted peak-scale product; e_y controls the trend
    beyond the measured slip-angle range and is conventionally fixed
    rather than fitted; k_y is the cornering stiffness [N/rad].
    """

    mu_zeta_y: float
    c_y: float
    k_y: float
    e_y: float = 0.99

    def __post_init__(self):
        if not 0 < self.mu_zeta_y < np.inf:
            raise ValueError("mu_zeta_y must be positive and finite")
        if not 0.0 < self.c_y < 2.0:
            raise ValueError(f"shape factor c_y must be in (0, 2), got {self.c_y}")
        if not 0 < self.k_y < np.inf:
            raise ValueError("cornering stiffness k_y must be positive and finite")
        if not 0.0 < self.e_y <= 1.0:
            raise ValueError(f"curvature factor e_y must be in (0, 1], got {self.e_y}")

    def __call__(self, f_z, alpha):
        """The lateral law as a callable, ``(f_z, alpha) -> f_y`` like :func:`force_y_braghin`."""
        return force_y(f_z, alpha, self)


def mu_x(p, params: LongitudinalFrictionParams):
    """Longitudinal friction coefficient at contact pressure p [MPa].

    Raises ValueError for non-positive pressures; the quadratic is
    clamped to [0, e_x].
    """
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0):
        raise ValueError("contact pressure must be positive")
    quad = 1e-3 * params.zeta_x * (params.b_x * p * p - params.c_x * p + params.d_x)
    return np.clip(quad, 0.0, params.e_x)


def force_x_mu(f_z, alpha, mu):
    """Longitudinal force F_x = -mu * F_z * cos(alpha) [N]."""
    return -np.asarray(mu, dtype=float) * np.asarray(f_z, dtype=float) * np.cos(alpha)


def stiffness_factor(f_z, params: LateralFrictionParams):
    """B_y = K_y / (C_y * mu_zeta_y * F_z); F_z must be positive."""
    f_z = np.asarray(f_z, dtype=float)
    if np.any(f_z <= 0.0):
        raise ValueError("normal force must be positive for the lateral law")
    return params.k_y / (params.c_y * params.mu_zeta_y * f_z)


def force_y(f_z, alpha, params: LateralFrictionParams):
    """Lateral force [N] at slip angle alpha [rad] and normal force F_z [N].

    Odd in alpha, slope k_y at alpha = 0; with e_y <= 1 the magnitude
    keeps growing slowly past the measured slip-angle range. An asperity
    factor on the peak (rough ice reduces contact area) is absorbed into
    the fitted mu_zeta_y.
    """
    f_z = np.asarray(f_z, dtype=float)
    b_a = stiffness_factor(f_z, params) * np.asarray(alpha, dtype=float)
    arg = b_a - params.e_y * (b_a - np.arctan(b_a))
    return params.mu_zeta_y * f_z * np.sin(params.c_y * np.arctan(arg))


def force_y_braghin(f_z, alpha, mu_y: float = BRAGHIN_MU_Y, k3: float = BRAGHIN_K3):
    """Reference lateral model F_y = mu_y * F_z * (2/pi) * atan(k3 * alpha)."""
    return mu_y * np.asarray(f_z, dtype=float) * (2.0 / np.pi) * np.arctan(k3 * np.asarray(alpha, dtype=float))


def load_longitudinal_params(path) -> LongitudinalFrictionParams:
    from .kvfile import load_floats

    raw = load_floats(path)
    with reading(path):
        return LongitudinalFrictionParams(
            b_x=raw["b_x"], c_x=raw["c_x"], d_x=raw["d_x"],
            e_x=raw.get("e_x", 0.007), zeta_x=raw.get("zeta_x", 1.0))
