"""Energy-method friction extraction from gliding runs."""

import numpy as np
import pytest

from sleddyn.aero import AirState
from sleddyn.errors import DataError, NumericalError
from sleddyn.icehouse import (
    G,
    GlideRun,
    average_bidirectional,
    energy_series,
    evaluate_glide,
    fit_quadratic_mu_p,
    friction_force_fit,
    load_glide_csv,
    middle_window,
    mu_from_force,
    save_glide_csv,
)

AIR = AirState(p_air=94700.0, temperature=275.15)

# measured (pressure, mu*1e3) pairs of the seven ice-house specimens
SPECIMEN_POINTS = [
    (7.7, 4.5e-3), (8.6, 3.8e-3), (13.6, 4.2e-3), (16.0, 4.6e-3),
    (10.9, 3.0e-3), (11.8, 2.7e-3), (9.6, 3.3e-3),
]


def glide_from_time_series(t, v, **kwargs):
    """GlideRun over the trapezoidal distance of t/v samples, as load_glide_csv builds it."""
    s = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(t))])
    return GlideRun(s=s, v=v, **kwargs)


def simulated_glide(mu=0.004, slope=0.0, v0=2.4, m=100.0, cx_ax=0.0,
                    direction="down", dt=0.01, analysis_kappa=0.0):
    """1-d glide integrated with RK4; slope > 0 tilts downhill for 'down'."""
    sign = 1.0 if direction == "down" else -1.0
    kappa_true = sign * slope

    def accel(v):
        drag = 0.5 * cx_ax * AIR.density * v * v / m if cx_ax else 0.0
        return G * np.sin(kappa_true) - mu * G * np.cos(kappa_true) - drag

    t_list, v_list = [0.0], [v0]
    t, v = 0.0, v0
    while v > 0.5 and t < 300.0:
        k1 = accel(v)
        k2 = accel(v + dt / 2 * k1)
        k3 = accel(v + dt / 2 * k2)
        k4 = accel(v + dt * k3)
        v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        t_list.append(t)
        v_list.append(v)
    return glide_from_time_series(
        np.array(t_list), np.array(v_list), m=m, air=AIR, cx_ax=cx_ax,
        direction=direction, kappa=analysis_kappa,
    )


class TestEnergySeries:
    def test_conservative_motion_constant_series(self):
        # level, no drag, constant speed: nothing changes
        t = np.arange(201) / 100.0
        run = glide_from_time_series(t, np.full(t.size, 3.0), m=50.0, air=AIR, cx_ax=0.0)
        series = energy_series(run)
        assert np.allclose(series, 0.0, atol=1e-12)

    def test_constant_deceleration_slope(self):
        # v^2 = v0^2 - 2 a s: the energy series falls at exactly m*a per meter
        a = 0.05
        v0 = 3.0
        s = np.linspace(0.0, 60.0, 400)
        v = np.sqrt(v0 ** 2 - 2 * a * s)
        run = GlideRun(s=s, v=v, m=80.0, air=AIR, cx_ax=0.0)
        series = energy_series(run)
        slopes = np.diff(series) / np.diff(s)
        assert np.allclose(slopes, -80.0 * a, rtol=1e-9)

    def test_slope_contribution(self):
        kappa = np.deg2rad(0.12)
        s = np.linspace(0.0, 50.0, 100)
        run = GlideRun(s=s, v=np.full(s.size, 2.0), m=100.0, air=AIR, cx_ax=0.0, kappa=-kappa)
        series = energy_series(run)
        # downhill tilt: potential falls by m g sin(kappa) per meter
        assert np.diff(series)[0] / np.diff(s)[0] == pytest.approx(-100.0 * G * np.sin(kappa))

    def test_altitude_channel_preferred(self):
        s = np.linspace(0.0, 30.0, 200)
        h = 5.0 - 0.01 * s
        run = GlideRun(s=s, v=np.full(s.size, 2.0), m=100.0, air=AIR, cx_ax=0.0, h=h)
        series = energy_series(run)
        assert series[-1] == pytest.approx(100.0 * G * (h[-1] - h[0]))


class TestFrictionFit:
    def test_exact_linear_series(self):
        s = np.linspace(0.0, 40.0, 200)
        energy = 100.0 - 8.0 * s
        force, stderr = friction_force_fit(s, energy, window=(5.0, 35.0))
        assert force == pytest.approx(8.0, rel=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-9)

    def test_offset_invariance(self):
        s = np.linspace(0.0, 40.0, 200)
        energy = -3.0 * s + 0.5 * np.sin(s)
        f1, _ = friction_force_fit(s, energy, middle_window(s))
        f2, _ = friction_force_fit(s, energy + 1e6, middle_window(s))
        assert f1 == pytest.approx(f2, rel=1e-12)

    def test_simulated_glide_recovery(self):
        run = simulated_glide(mu=0.004, m=100.0)
        result = evaluate_glide(run)
        assert result.f_ice == pytest.approx(0.004 * 100.0 * G, rel=1e-3)
        assert result.mu == pytest.approx(0.004, abs=2e-5)

    def test_noise_unbiased_within_three_sigma(self):
        rng = np.random.default_rng(0)
        s = np.linspace(0.0, 50.0, 400)
        estimates, errors = [], []
        for _ in range(100):
            energy = -5.0 * s + rng.normal(scale=2.0, size=s.size)
            force, stderr = friction_force_fit(s, energy, middle_window(s))
            estimates.append(force)
            errors.append(stderr)
        bias = np.mean(estimates) - 5.0
        assert abs(bias) < 3.0 * np.mean(errors) / np.sqrt(len(estimates))

    def test_degenerate_window_rejected(self):
        s = np.linspace(0.0, 40.0, 200)
        with pytest.raises(DataError):
            friction_force_fit(s, -2 * s, window=(50.0, 60.0))

    def test_middle_window_fraction(self):
        s = np.linspace(10.0, 110.0, 11)
        lo, hi = middle_window(s, 0.6)
        assert lo == pytest.approx(30.0)
        assert hi == pytest.approx(90.0)


class TestMuConversion:
    def test_inversion(self):
        assert mu_from_force(3.924, 100.0, 0.0) == pytest.approx(0.004, abs=1e-6)

    def test_zero_force(self):
        assert mu_from_force(0.0, 100.0) == 0.0

    def test_slope_cosine_negligible_in_normal_force(self):
        kappa = np.deg2rad(0.12)
        ratio = mu_from_force(1.0, 100.0, kappa) / mu_from_force(1.0, 100.0, 0.0)
        assert ratio == pytest.approx(1.0 / np.cos(kappa), rel=1e-12)
        assert abs(ratio - 1.0) < 3e-6

    def test_average(self):
        assert average_bidirectional(3e-3, 5e-3) == pytest.approx(4e-3)
        assert average_bidirectional(2.5e-3, 2.5e-3) == pytest.approx(2.5e-3)

    def test_hidden_slope_cancellation(self):
        slope = np.deg2rad(0.12)
        down = evaluate_glide(simulated_glide(mu=0.004, slope=slope, direction="down"))
        up = evaluate_glide(simulated_glide(mu=0.004, slope=slope, direction="up"))
        # each direction alone is biased by the slope ...
        assert abs(down.mu - 0.004) > 1e-3
        assert abs(up.mu - 0.004) > 1e-3
        # ... the average removes it
        assert average_bidirectional(up.mu, down.mu) == pytest.approx(0.004, abs=1e-5)


class TestQuadraticFit:
    def test_exact_recovery_from_three_points(self):
        b, c, d = 0.09, 2.0, 14.0
        p = np.array([8.0, 11.0, 15.0])
        mu = 1e-3 * (b * p ** 2 - c * p + d)
        params = fit_quadratic_mu_p(np.column_stack([p, mu]))
        assert params.b_x == pytest.approx(b, abs=1e-10)
        assert params.c_x == pytest.approx(c, abs=1e-10)
        assert params.d_x == pytest.approx(d, abs=1e-10)

    def test_specimen_points_match_published_coefficients(self):
        params = fit_quadratic_mu_p(SPECIMEN_POINTS)
        assert params.b_x == pytest.approx(0.088, rel=0.10)
        assert params.c_x == pytest.approx(2.01, rel=0.10)
        assert params.d_x == pytest.approx(14.66, rel=0.10)

    def test_vertex_in_minimum_friction_band(self):
        params = fit_quadratic_mu_p(SPECIMEN_POINTS)
        assert 10.0 <= params.vertex_pressure <= 12.5

    def test_collinear_points_rejected(self):
        pts = [(5.0, 3e-3), (5.0, 3.1e-3), (5.0, 2.9e-3)]
        with pytest.raises(NumericalError):
            fit_quadratic_mu_p(pts)

    def test_too_few_points_rejected(self):
        with pytest.raises(DataError):
            fit_quadratic_mu_p([(5.0, 3e-3), (6.0, 3e-3)])


class TestGlideCsv:
    def test_round_trip(self, tmp_path):
        t = np.arange(300) / 100.0
        v = 2.4 - 0.02 * t
        path = tmp_path / "glide.csv"
        save_glide_csv(t, v, path, meta={
            "m": 100.0, "p_air": 94700.0, "temperature": 275.15, "cx_ax": 0.4,
            "direction": "up", "specimen": "Alpha 1", "kappa": 0.0,
        })
        run = load_glide_csv(path)
        assert run.direction == "up"
        assert run.specimen == "Alpha 1"
        assert run.m == 100.0
        assert run.v[0] == pytest.approx(2.4)
        assert run.s[0] == 0.0
        assert np.allclose(np.diff(run.s), 0.5 * (v[1:] + v[:-1]) * 0.01, rtol=1e-12)

    def test_non_finite_cell_names_file_line_past_skipped_lines(self, tmp_path):
        path = tmp_path / "glide.csv"
        path.write_text("# m = 100\n# p_air = 94700\n# temperature = 275.15\n# cx_ax = 0\n"
                        "# direction = up\nt,v\n0,2\n\n# note\nnan,1.8\n0.2,1.7\n")
        with pytest.raises(DataError, match="non-finite value at line 10$"):
            load_glide_csv(path)

    def test_missing_metadata_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# m = 100\nt,v\n0.0,2.4\n0.01,2.39\n")
        with pytest.raises(DataError, match="metadata"):
            load_glide_csv(path)

    def test_energy_closure_on_synthetic_run(self):
        # with drag on, the fitted force plus integrated drag must account
        # for the kinetic-energy change: closure of the energy bookkeeping
        run = simulated_glide(mu=0.004, cx_ax=0.4, m=100.0)
        series = energy_series(run)
        # series = E_kin + E_aero here (level); its drop equals the ice loss
        total_drop = series[-1] - series[0]
        distance = run.s[-1] - run.s[0]
        assert total_drop / distance == pytest.approx(-0.004 * 100.0 * G, rel=2e-3)
