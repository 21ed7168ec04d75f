"""Nonlinear lateral-friction fitting: recovery, selection, diagnostics."""

import dataclasses

import numpy as np
import pytest

from sleddyn import fitting
from sleddyn.errors import DataError, NumericalError
from sleddyn.fitting import (
    DEFAULT_BOUNDS,
    FitDataset,
    fit_lateral,
    fit_report,
    load_lateral_params,
    robust_stiffness_guess,
    save_fit_result,
    select_fit_samples,
)
from sleddyn.friction import LateralFrictionParams, force_y
from sleddyn.onetrack import BobParameters, build_axle_trace
from sleddyn.telemetry import CORE_CHANNELS, TelemetryMeta, TelemetryRun, derive_channels

FRONT = LateralFrictionParams(mu_zeta_y=2.577, c_y=0.024, k_y=10522.0, e_y=0.99)
REAR = LateralFrictionParams(mu_zeta_y=3.288, c_y=0.076, k_y=49776.0, e_y=0.99)


def synthetic_dataset(params, n=4000, seed=0, noise=0.0, alpha_max_deg=3.0,
                      f_z_range=(1000.0, 15000.0)):
    rng = np.random.default_rng(seed)
    alpha = np.deg2rad(rng.uniform(-alpha_max_deg, alpha_max_deg, n))
    f_z = rng.uniform(*f_z_range, n)
    f_y = force_y(f_z, alpha, params)
    if noise:
        f_y = f_y * (1.0 + noise * rng.standard_normal(n))
    return FitDataset(alpha=alpha, f_z=f_z, f_y=f_y, runner="front")


class TestFitRecovery:
    def test_noise_free_front_recovery(self):
        dataset = synthetic_dataset(FRONT, seed=1)
        result = fit_lateral(dataset)
        assert result.converged
        assert result.params.mu_zeta_y == pytest.approx(FRONT.mu_zeta_y, rel=0.01)
        assert result.params.c_y == pytest.approx(FRONT.c_y, rel=0.01)
        assert result.params.k_y == pytest.approx(FRONT.k_y, rel=0.01)
        assert result.residual_rms < 1e-6

    def test_noise_free_rear_recovery(self):
        dataset = synthetic_dataset(REAR, seed=2)
        result = fit_lateral(dataset)
        assert result.params.k_y == pytest.approx(REAR.k_y, rel=0.01)
        assert result.params.mu_zeta_y == pytest.approx(REAR.mu_zeta_y, rel=0.01)
        assert result.params.c_y == pytest.approx(REAR.c_y, rel=0.01)

    def test_distinct_rear_stiffness_ratio(self):
        front = fit_lateral(synthetic_dataset(FRONT, seed=3)).params
        rear = fit_lateral(synthetic_dataset(REAR, seed=3)).params
        assert rear.k_y / front.k_y == pytest.approx(49776.0 / 10522.0, rel=0.02)

    def test_stiffness_recovery_under_noise(self):
        errors = []
        for seed in range(20):
            dataset = synthetic_dataset(FRONT, seed=seed, noise=0.05)
            result = fit_lateral(dataset)
            errors.append(abs(result.params.k_y - FRONT.k_y) / FRONT.k_y)
        assert np.median(errors) < 0.10

    def test_scaling_invariance_of_predictions(self):
        # scaling F_y and F_z by c: the model must predict c * F_y at c * F_z
        dataset = synthetic_dataset(FRONT, seed=5, n=2000)
        c = 2.5
        scaled = FitDataset(alpha=dataset.alpha, f_z=c * dataset.f_z, f_y=c * dataset.f_y)
        result = fit_lateral(scaled)
        pred_scaled = force_y(c * dataset.f_z, dataset.alpha, result.params)
        assert np.allclose(pred_scaled, c * dataset.f_y, rtol=1e-4)

    def test_zero_alpha_unidentifiable(self):
        n = 500
        dataset = FitDataset(alpha=np.zeros(n), f_z=np.full(n, 5000.0), f_y=np.zeros(n))
        with pytest.raises(NumericalError):
            fit_lateral(dataset)

    def test_small_dataset_rejected(self):
        dataset = synthetic_dataset(FRONT, n=20)
        with pytest.raises(DataError):
            fit_lateral(dataset)

    @pytest.mark.parametrize("name", ["alpha", "f_z", "f_y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, name, bad):
        dataset = synthetic_dataset(FRONT, n=200, seed=1)
        values = getattr(dataset, name).copy()
        values[5] = bad
        with pytest.raises(DataError, match=f"non-finite {name} in the front fit dataset"):
            fit_lateral(dataclasses.replace(dataset, **{name: values}))

    def test_cost_nonincreasing(self):
        # the trust-region solver only ever accepts steps that lower the
        # cost, so the final cost is bounded by the initial-guess cost
        dataset = synthetic_dataset(FRONT, seed=6, noise=0.02)
        initial = LateralFrictionParams(mu_zeta_y=3.0, c_y=0.05,
                                        k_y=robust_stiffness_guess(dataset))
        initial_cost = 0.5 * np.sum((force_y(dataset.f_z, dataset.alpha, initial) - dataset.f_y) ** 2)
        result = fit_lateral(dataset)
        assert result.cost <= initial_cost

    def test_iteration_cap_returns_best_iterate(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_EVALUATIONS", 3)
        dataset = synthetic_dataset(FRONT, seed=6, noise=0.02)
        initial = LateralFrictionParams(mu_zeta_y=3.0, c_y=0.05,
                                        k_y=robust_stiffness_guess(dataset))
        initial_cost = 0.5 * np.sum((force_y(dataset.f_z, dataset.alpha, initial) - dataset.f_y) ** 2)
        result = fit_lateral(dataset)
        assert not result.converged
        assert result.iterations <= 3
        assert result.cost <= initial_cost

    def test_optimum_on_bound_stays_inside_bounds(self):
        # at 5 % noise the front optimum runs into the mu_zeta_y bound
        result = fit_lateral(synthetic_dataset(FRONT, seed=0, noise=0.05))
        p = result.params
        assert p.mu_zeta_y >= DEFAULT_BOUNDS[0][1] * 0.9999
        for value, (lo, hi) in zip((p.mu_zeta_y, p.c_y, p.k_y), DEFAULT_BOUNDS):
            assert lo <= value <= hi

    def test_one_model_evaluation_per_point(self, monkeypatch):
        # scipy's residual and Jacobian calls at one point, and the start-point
        # rank check, share a single model evaluation
        real, calls = fitting._model_and_jacobian, []

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(fitting, "_model_and_jacobian", counted)
        result = fit_lateral(synthetic_dataset(REAR, seed=3, noise=0.02))
        assert result.converged and result.iterations > 5
        assert len(calls) == result.iterations

    def test_robust_stiffness_guess(self):
        dataset = synthetic_dataset(FRONT, seed=7, noise=0.05)
        guess = robust_stiffness_guess(dataset)
        assert guess == pytest.approx(FRONT.k_y, rel=0.15)

    @pytest.mark.parametrize("params", [FRONT, REAR], ids=["front", "rear"])
    @pytest.mark.parametrize("at_truth", [True, False], ids=["truth", "start"])
    def test_jacobian_matches_central_differences(self, params, at_truth):
        dataset = synthetic_dataset(params, n=500, seed=8)
        if at_truth:
            theta = np.log([params.mu_zeta_y, params.c_y, params.k_y])
        else:
            theta = np.log([fitting.INITIAL_MU_ZETA_Y, fitting.INITIAL_C_Y, params.k_y])
        jac = fitting._model_and_jacobian(theta, dataset.alpha, dataset.f_z)[1]
        h = 1e-6
        for k in range(3):
            step = np.zeros(3)
            step[k] = h
            up = fitting._model_and_jacobian(theta + step, dataset.alpha, dataset.f_z)[0]
            down = fitting._model_and_jacobian(theta - step, dataset.alpha, dataset.f_z)[0]
            scale = np.abs(jac[:, k]).max()
            assert scale > 0
            np.testing.assert_allclose(jac[:, k], (up - down) / (2 * h), rtol=0, atol=1e-6 * scale)

    @pytest.mark.parametrize("params", [FRONT, REAR], ids=["front", "rear"])
    def test_mirrored_dataset_gives_the_same_parameters(self, params):
        # the law is odd in alpha, so negating every slip angle and lateral
        # force leaves the fit unchanged up to rounding
        dataset = synthetic_dataset(params, seed=9, noise=0.02)
        mirrored = dataclasses.replace(dataset, alpha=-dataset.alpha, f_y=-dataset.f_y)
        result, mirrored_result = fit_lateral(dataset), fit_lateral(mirrored)
        assert result.converged and mirrored_result.converged
        np.testing.assert_allclose(dataclasses.astuple(mirrored_result.params),
                                   dataclasses.astuple(result.params), rtol=1e-9)


def run_with_roll_spike(n=600, rate=100.0, spike_deg_s2=150.0):
    t = np.arange(n) / rate
    channels = {name: np.zeros(n) for name in CORE_CHANNELS}
    channels["v"] = np.full(n, 20.0)
    channels["a_y"] = 2.0 + 0.5 * np.sin(2 * np.pi * 0.3 * t)
    channels["a_z"] = np.full(n, 9.81)
    channels["psi_dot"] = np.full(n, 0.02)
    channels["alpha_sensor"] = np.full(n, 0.01)
    # roll-rate ramp placed mid-run: phi_ddot = spike there, 0 elsewhere
    spike = np.deg2rad(spike_deg_s2)
    ramp = np.clip(t - 3.0, 0.0, 0.5) * spike
    channels["phi_dot"] = ramp
    run = derive_channels(TelemetryRun(t=t, channels=channels, meta=TelemetryMeta(rate_hz=rate)))
    return run


class TestSampleSelection:
    def make_trace(self, run):
        params = BobParameters(m=400.0, j_yy=350.0, j_zz=850.0, l_f=1.5, l_r=1.5, cx_ax=0.2)
        return build_axle_trace(run, params)

    def test_all_quiet_samples_kept(self):
        run = run_with_roll_spike(spike_deg_s2=0.0)
        trace = self.make_trace(run)
        dataset = select_fit_samples(trace, run, runner="rear")
        assert len(dataset) == len(run)

    def test_roll_spike_dropped(self):
        run = run_with_roll_spike(spike_deg_s2=150.0)
        trace = self.make_trace(run)
        dataset = select_fit_samples(trace, run, runner="rear")
        above = np.abs(run.derived.phi_ddot) > np.deg2rad(100.0)
        assert above.any()
        assert len(dataset) == int((~above & trace.valid).sum())

    def test_empty_selection_rejected(self):
        run = run_with_roll_spike(spike_deg_s2=0.0)
        trace = self.make_trace(run)
        # constant nonzero phi_ddot everywhere -> everything excluded
        run2 = run_with_roll_spike(spike_deg_s2=0.0)
        channels = dict(run2.channels)
        channels["phi_dot"] = 0.1 * run2.t
        run2 = derive_channels(TelemetryRun(t=run2.t, channels=channels, meta=run2.meta))
        trace2 = self.make_trace(run2)
        with pytest.raises(DataError):
            select_fit_samples(trace2, run2, 1e-9, runner="rear")

    def test_misaligned_inputs_rejected(self):
        run = run_with_roll_spike()
        trace = self.make_trace(run)
        short = derive_channels(TelemetryRun(
            t=run.t[:-10],
            channels={k: v[:-10] for k, v in run.channels.items()},
            meta=run.meta,
        ))
        with pytest.raises(DataError):
            select_fit_samples(trace, short, runner="rear")


class TestReportAndFiles:
    def test_report_bins(self):
        dataset = synthetic_dataset(FRONT, seed=8, noise=0.05)
        result = fit_lateral(dataset)
        report = fit_report(result, dataset, n_bins=3)
        assert len(report) == 3
        for entry in report:
            assert entry["n"] > 0
            quantiles = entry["alpha_quantiles"]
            assert tuple(quantiles) == (0.05, 0.25, 0.5, 0.75, 0.95)
            assert list(quantiles.values()) == sorted(quantiles.values())
            assert entry["curve_f_y"].shape == entry["curve_alpha"].shape

    def test_single_bin(self):
        dataset = synthetic_dataset(FRONT, seed=9, n=500)
        result = fit_lateral(dataset)
        report = fit_report(result, dataset, n_bins=1)
        assert len(report) == 1

    def test_model_curve_through_binned_medians(self):
        dataset = synthetic_dataset(FRONT, seed=10, n=8000, noise=0.02,
                                    f_z_range=(4000.0, 4200.0))
        result = fit_lateral(dataset)
        report = fit_report(result, dataset, n_bins=1)[0]
        # median measured force near the 75 % alpha quantile (well away
        # from zero) should sit on the model curve within the noise band
        target = report["alpha_quantiles"][0.75]
        idx = np.argmin(np.abs(report["curve_alpha"] - target))
        near = np.abs(dataset.alpha - target) < np.deg2rad(0.2)
        assert near.sum() > 50
        assert report["curve_f_y"][idx] == pytest.approx(
            np.median(dataset.f_y[near]), rel=0.15)

    def test_result_file_round_trip(self, tmp_path):
        dataset = synthetic_dataset(FRONT, seed=11)
        result = fit_lateral(dataset)
        path = tmp_path / "front.kv"
        save_fit_result(result, path, header=["demo fit"])
        params = load_lateral_params(path)
        assert params.mu_zeta_y == pytest.approx(result.params.mu_zeta_y, rel=1e-12)
        assert params.k_y == pytest.approx(result.params.k_y, rel=1e-12)
