"""Aerodynamic drag with yaw-angle sensitivity.

Drag follows the standard drag equation with air density from the ideal
gas law. The effective drag area grows linearly with the absolute
chassis side slip angle: sliding at an angle exposes more of the
vehicle's side to the oncoming air. The default growth rate of 6.94 %
per degree comes from scaling a reference bluff-body yaw sweep
(3.2 %/deg at a side/front area ratio of 2.3) up to a sled-like area
ratio of 5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_YAW_SENSITIVITY_PER_DEG = 0.0694
#: Specific gas constant of dry air [J/(kg K)].
R_SPECIFIC_AIR = 287.05


@dataclass(frozen=True)
class AirState:
    """Ambient air: pressure [Pa], temperature [K], specific gas constant."""

    p_air: float
    temperature: float
    r_specific: float = R_SPECIFIC_AIR

    def __post_init__(self):
        for name, value in (("ambient pressure", self.p_air), ("temperature [K]", self.temperature),
                            ("gas constant r_specific", self.r_specific)):
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @property
    def density(self) -> float:
        """Air density rho = p / (R * T) [kg/m^3]."""
        return self.p_air / (self.r_specific * self.temperature)


def drag_force(v, cx_ax: float, air: AirState):
    """Aerodynamic drag F = CxAx * v^2 * rho / 2 [N]. Accepts arrays for v."""
    v = np.asarray(v, dtype=float)
    return 0.5 * cx_ax * v * v * air.density


@dataclass(frozen=True)
class AeroModel:
    """Drag area plus its growth per degree of chassis side slip."""

    cx_ax: float
    air: AirState
    yaw_sensitivity: float = DEFAULT_YAW_SENSITIVITY_PER_DEG

    def __post_init__(self):
        if not 0 < self.cx_ax < np.inf:
            raise ValueError(f"drag area must be positive and finite, got {self.cx_ax}")
        if not 0 <= self.yaw_sensitivity < np.inf:
            raise ValueError("yaw sensitivity must be non-negative and finite")


def drag_area_at_beta(model: AeroModel, beta):
    """Effective drag area [m^2] at chassis side slip beta [rad].

    The sensitivity constant is per degree of |beta|; beta is converted
    at this boundary, everything else in the package stays in radians.
    """
    beta_deg = np.degrees(np.abs(np.asarray(beta, dtype=float)))
    return model.cx_ax * (1.0 + model.yaw_sensitivity * beta_deg)


def aero_forces(model: AeroModel, v, beta):
    """(actual, ideal) drag force [N] at speed v and side slip beta.

    The actual force uses the yaw-inflated drag area, the ideal one the
    base area; both act against the driving direction.
    """
    actual = drag_force(v, 1.0, model.air) * drag_area_at_beta(model, beta)
    ideal = drag_force(v, model.cx_ax, model.air)
    return actual, ideal
