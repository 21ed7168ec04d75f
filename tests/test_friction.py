"""Friction laws: capped quadratic mu_x, lateral sin-atan law."""

import numpy as np
import pytest

from sleddyn.errors import DataError
from sleddyn.friction import (
    LateralFrictionParams,
    LongitudinalFrictionParams,
    force_x_mu,
    force_y,
    force_y_braghin,
    mu_x,
    stiffness_factor,
)
from sleddyn.kvfile import dump_kv

# published reference values the laws are exercised against
LONG_REF = LongitudinalFrictionParams(b_x=0.088, c_x=2.01, d_x=14.66, e_x=0.007, zeta_x=1.0)
LAT_FRONT = LateralFrictionParams(mu_zeta_y=2.577, c_y=0.024, k_y=10522.0, e_y=0.99)
LAT_REAR = LateralFrictionParams(mu_zeta_y=3.288, c_y=0.076, k_y=49776.0, e_y=0.99)


class TestMuX:
    def test_reference_pressure_evaluation(self):
        # quadratic at p = 7.7 MPa: 1e-3*(0.088*59.29 - 2.01*7.7 + 14.66)
        assert mu_x(7.7, LONG_REF) == pytest.approx(4.40052e-3, rel=1e-9)
        # measured band for that specimen was 4.5 +/- 0.4e-3
        assert 4.1e-3 <= mu_x(7.7, LONG_REF) <= 4.9e-3

    def test_quadratic_minimum(self):
        p_star = LONG_REF.vertex_pressure
        assert p_star == pytest.approx(11.4205, abs=1e-3)
        assert mu_x(p_star, LONG_REF) == pytest.approx(3.182e-3, abs=1e-5)
        # measured minimum-friction regime was 2.7-3.0e-3; the fit sits just above
        grid = np.linspace(6.0, 18.0, 500)
        assert mu_x(grid, LONG_REF).min() == pytest.approx(mu_x(p_star, LONG_REF), rel=1e-4)

    def test_cap_applies_to_final_coefficient(self):
        # p = 30 MPa: raw quadratic gives 33.56e-3, far above the cap
        assert mu_x(30.0, LONG_REF) == pytest.approx(0.007)

    def test_clamped_below_at_zero(self):
        params = LongitudinalFrictionParams(b_x=0.01, c_x=2.0, d_x=1.0)
        assert mu_x(10.0, params) == 0.0

    def test_bounds_property(self):
        p = np.linspace(0.1, 100.0, 2000)
        values = mu_x(p, LONG_REF)
        assert np.all(values >= 0.0)
        assert np.all(values <= LONG_REF.e_x)

    def test_nonpositive_pressure_rejected(self):
        with pytest.raises(ValueError):
            mu_x(0.0, LONG_REF)
        with pytest.raises(ValueError):
            mu_x(np.array([5.0, -1.0]), LONG_REF)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LongitudinalFrictionParams(b_x=-0.1, c_x=2.0, d_x=14.0)
        with pytest.raises(ValueError):
            LongitudinalFrictionParams(b_x=0.1, c_x=2.0, d_x=14.0, zeta_x=0.5)


class TestForceX:
    def test_zero_at_pure_lateral_slide(self):
        mu = mu_x(7.7, LONG_REF)
        assert force_x_mu(2000.0, np.pi / 2, mu) == pytest.approx(0.0, abs=1e-9)
        assert force_x_mu(2000.0, -np.pi / 2, mu) == pytest.approx(0.0, abs=1e-9)

    def test_fixed_mu_reference_case(self):
        # mu = 0.004 fixed, 2000 N load, zero slip -> 8 N of drag
        assert force_x_mu(2000.0, 0.0, 0.004) == pytest.approx(-8.0)

    def test_zero_load(self):
        assert force_x_mu(0.0, 0.1, mu_x(7.7, LONG_REF)) == 0.0

    def test_even_in_alpha(self):
        alpha = np.linspace(-1.2, 1.2, 41)
        f = force_x_mu(3000.0, alpha, mu_x(10.0, LONG_REF))
        assert np.allclose(f, f[::-1], atol=1e-12)
        assert np.all(f <= 0.0)


class TestForceY:
    def test_odd_in_alpha(self):
        alpha = np.linspace(0.0, 0.35, 100)
        assert np.allclose(force_y(5000.0, -alpha, LAT_FRONT), -force_y(5000.0, alpha, LAT_FRONT), atol=1e-12)

    def test_zero_at_zero_slip(self):
        assert force_y(5000.0, 0.0, LAT_FRONT) == 0.0

    @pytest.mark.parametrize("params", [LAT_FRONT, LAT_REAR], ids=["front", "rear"])
    @pytest.mark.parametrize("f_z", [2000.0, 5000.0, 10000.0])
    def test_small_angle_slope_is_k_y(self, params, f_z):
        h = 1e-6
        slope = (force_y(f_z, h, params) - force_y(f_z, -h, params)) / (2.0 * h)
        assert slope == pytest.approx(params.k_y, rel=1e-6)

    @pytest.mark.parametrize("params", [LAT_FRONT, LAT_REAR], ids=["front", "rear"])
    def test_monotone_up_to_20_degrees(self, params):
        alpha = np.deg2rad(np.linspace(0.0, 20.0, 400))
        f = force_y(8000.0, alpha, params)
        assert np.all(np.diff(f) >= 0.0)

    def test_load_scaling_through_stiffness_factor(self):
        # mu = F_y / F_z depends on F_z only through B_y: evaluating at
        # (c*F_z, alpha) must match a brute-force re-evaluation with the
        # scaled stiffness factor
        rng = np.random.default_rng(7)
        for _ in range(50):
            f_z = rng.uniform(1e3, 2e4)
            c = rng.uniform(0.3, 3.0)
            alpha = rng.uniform(-0.3, 0.3)
            b = stiffness_factor(c * f_z, LAT_FRONT)
            g = b * alpha - LAT_FRONT.e_y * (b * alpha - np.arctan(b * alpha))
            brute = LAT_FRONT.mu_zeta_y * c * f_z * np.sin(LAT_FRONT.c_y * np.arctan(g))
            assert force_y(c * f_z, alpha, LAT_FRONT) == pytest.approx(brute, rel=1e-12)

    def test_curve_against_brute_force_tabulation(self):
        # independent evaluation of the formula, term by term
        alpha = np.deg2rad(np.linspace(0.0, 20.0, 81))
        f_z = 5000.0
        b = LAT_FRONT.k_y / (LAT_FRONT.c_y * LAT_FRONT.mu_zeta_y * f_z)
        expected = []
        for a in alpha:
            ba = b * a
            inner = ba - 0.99 * (ba - np.arctan(ba))
            expected.append(2.577 * f_z * np.sin(0.024 * np.arctan(inner)))
        assert np.allclose(force_y(f_z, alpha, LAT_FRONT), expected, rtol=1e-12)

    def test_nonpositive_load_rejected(self):
        with pytest.raises(ValueError):
            force_y(0.0, 0.01, LAT_FRONT)


class TestBraghin:
    def test_zero_at_zero(self):
        assert force_y_braghin(1000.0, 0.0) == 0.0

    def test_reference_point(self):
        # atan(50 * 0.02) = atan(1) = pi/4 -> 0.5 * 1000 * (2/pi) * (pi/4)
        assert force_y_braghin(1000.0, 0.02) == pytest.approx(250.0)

    def test_saturation_bound(self):
        alpha = np.linspace(-2.0, 2.0, 201)
        f = force_y_braghin(1000.0, alpha)
        assert np.all(np.abs(f) < 0.5 * 1000.0)
        assert force_y_braghin(1000.0, 1e9) == pytest.approx(500.0, rel=1e-6)


class TestParamFiles:
    def test_longitudinal_round_trip(self, tmp_path):
        from sleddyn.friction import load_longitudinal_params

        path = tmp_path / "long.kv"
        dump_kv({"b_x": LONG_REF.b_x, "c_x": LONG_REF.c_x, "d_x": LONG_REF.d_x,
                 "e_x": LONG_REF.e_x, "zeta_x": LONG_REF.zeta_x}, path)
        assert load_longitudinal_params(path) == LONG_REF

    def test_missing_key_rejected(self, tmp_path):
        from sleddyn.friction import load_longitudinal_params

        path = tmp_path / "bad.kv"
        path.write_text("b_x = 0.1\n")
        with pytest.raises(DataError):
            load_longitudinal_params(path)
