"""Drag equation and yaw-sensitive drag area."""

import numpy as np
import pytest

from sleddyn.aero import (
    DEFAULT_YAW_SENSITIVITY_PER_DEG,
    AeroModel,
    AirState,
    aero_forces,
    drag_area_at_beta,
    drag_force,
)

ICE_HOUSE_AIR = AirState(p_air=94700.0, temperature=275.15)  # 947 hPa, 2 C


class TestDragForce:
    def test_zero_speed(self):
        assert drag_force(0.0, 0.5, ICE_HOUSE_AIR) == 0.0

    def test_reference_conditions(self):
        # rho = 94700 / (287.05 * 275.15) = 1.199010 kg/m^3
        assert ICE_HOUSE_AIR.density == pytest.approx(1.199010, abs=1e-6)
        assert drag_force(10.0, 0.5, ICE_HOUSE_AIR) == pytest.approx(29.975, abs=0.01)

    def test_quadratic_in_speed(self):
        assert drag_force(20.0, 0.5, ICE_HOUSE_AIR) == pytest.approx(4.0 * drag_force(10.0, 0.5, ICE_HOUSE_AIR))

    def test_invalid_air(self):
        with pytest.raises(ValueError):
            AirState(p_air=-1.0, temperature=275.0)
        with pytest.raises(ValueError):
            AirState(p_air=1e5, temperature=0.0)


def model_with_density(rho=1.2, cx_ax=0.2):
    # pick an air state that lands exactly on the requested density
    return AeroModel(cx_ax=cx_ax, air=AirState(p_air=rho * 287.05 * 288.15, temperature=288.15))


class TestDragArea:
    def test_base_area_at_zero(self):
        model = model_with_density()
        assert drag_area_at_beta(model, 0.0) == pytest.approx(model.cx_ax)

    def test_one_degree_ratio(self):
        model = model_with_density()
        ratio = drag_area_at_beta(model, np.deg2rad(1.0)) / drag_area_at_beta(model, 0.0)
        assert ratio == pytest.approx(1.0694, abs=1e-12)

    def test_even_in_beta(self):
        model = model_with_density()
        beta = np.deg2rad(np.linspace(-10.0, 10.0, 41))
        area = drag_area_at_beta(model, beta)
        assert np.allclose(area, area[::-1], atol=1e-15)

    def test_scaling_chain_reproduces_constant(self):
        # area ratio 5 vs 2.3 is 2.17x the reference 3.2 %/deg slope
        assert round(5.0 / 2.3, 2) * 3.2 == pytest.approx(6.944)
        assert round(2.17 * 3.2, 2) == 6.94
        assert DEFAULT_YAW_SENSITIVITY_PER_DEG * 100.0 == pytest.approx(6.94, rel=1e-12)


class TestAeroForces:
    def test_equal_at_zero_beta(self):
        model = model_with_density()
        actual, ideal = aero_forces(model, 30.0, 0.0)
        assert actual == pytest.approx(ideal)

    def test_reference_point(self):
        model = model_with_density(rho=1.2, cx_ax=0.2)
        actual, ideal = aero_forces(model, 30.0, np.deg2rad(1.0))
        assert ideal == pytest.approx(108.0)
        assert actual == pytest.approx(108.0 * 1.0694, abs=1e-9)

    def test_ratio_independent_of_speed(self):
        model = model_with_density()
        beta = np.deg2rad(2.5)
        a1, i1 = aero_forces(model, 10.0, beta)
        a2, i2 = aero_forces(model, 40.0, beta)
        assert a1 / i1 == pytest.approx(a2 / i2, rel=1e-12)

    def test_actual_never_below_ideal(self):
        model = model_with_density()
        beta = np.deg2rad(np.linspace(-8.0, 8.0, 81))
        actual, ideal = aero_forces(model, 25.0, beta)
        assert np.all(actual >= ideal)
        assert np.sum(actual == ideal) == 1  # equality only at beta = 0
