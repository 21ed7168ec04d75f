"""Energy-loss metrics, angle statistics, and RMSE validation."""

import numpy as np
import pytest

from conftest import LATERAL_FRONT, LATERAL_REAR, downhill_track, weaving_controls, zero_controls

from sleddyn.errors import DataError
from sleddyn.evaluation import (
    MAX_GAP_S,
    _segments,
    angle_statistics,
    combine_losses,
    loss_energies,
    measured_lateral_cog,
    model_lateral_cog,
    validate_rmse,
)
from sleddyn.friction import force_y_braghin
from sleddyn.onetrack import build_axle_trace, front_runner_forces
from sleddyn.sim import export_synthetic_telemetry, simulate
from sleddyn.telemetry import derive_channels


def run_and_trace(bob, setup, aero, controls, track=None, t_max=20.0, v0=25.0, dt=0.0025):
    track = track if track is not None else downhill_track()
    log = simulate(bob, track, controls, setup, aero, v0=v0, dt=dt, t_max=t_max)
    run, truth = export_synthetic_telemetry(log, bob, rate=100.0)
    run = derive_channels(run)
    trace = build_axle_trace(run, bob, aero=aero)
    return run, trace, truth


class TestLossEnergies:
    def test_straight_run_all_zero(self, bob, friction_setup, aero_model):
        run, trace, _ = run_and_trace(bob, friction_setup, aero_model, zero_controls(20.0))
        parts = loss_energies(trace, run, aero_model)
        assert len(parts) == 1
        loss = parts[0]
        assert loss.e_tot_loss > 0
        assert abs(loss.de_ice_f) < 1e-6
        assert abs(loss.de_ice_r) < 1e-6
        assert abs(loss.de_aero) < 1e-6

    def test_weaving_produces_positive_losses(self, bob, friction_setup, aero_model):
        run, trace, _ = run_and_trace(bob, friction_setup, aero_model, weaving_controls(20.0))
        loss = loss_energies(trace, run, aero_model)[0]
        assert loss.de_ice_f > 1e-4
        assert loss.de_ice_r > 0
        assert loss.de_aero > 0
        assert loss.de_tot == pytest.approx(loss.de_ice_f + loss.de_ice_r + loss.de_aero, abs=1e-15)

    def test_additivity_is_exact(self, bob, friction_setup, aero_model):
        run, trace, _ = run_and_trace(bob, friction_setup, aero_model, weaving_controls(15.0), t_max=15.0)
        loss = loss_energies(trace, run, aero_model)[0]
        assert loss.de_tot == loss.de_ice_f + loss.de_ice_r + loss.de_aero

    def test_normal_force_scaling_leaves_fractions(self, bob, friction_setup, aero_model):
        # same trajectory shape on a track with doubled normal load: the
        # absolute budget grows, relative slip-free terms stay comparable
        from sleddyn.sim import TrackProfile

        base = downhill_track()
        heavy = TrackProfile(s=base.s, kappa=base.kappa, inv_r_y=base.inv_r_y,
                             n=2.0 * np.ones_like(base.n))
        run1, trace1, _ = run_and_trace(bob, friction_setup, aero_model, zero_controls(15.0),
                                        track=base, t_max=15.0)
        run2, trace2, _ = run_and_trace(bob, friction_setup, aero_model, zero_controls(15.0),
                                        track=heavy, t_max=15.0)
        l1 = loss_energies(trace1, run1, aero_model)[0]
        l2 = loss_energies(trace2, run2, aero_model)[0]
        assert l2.e_tot_loss > l1.e_tot_loss
        assert abs(l2.de_ice_f) < 1e-6 and abs(l1.de_ice_f) < 1e-6

    def test_resampling_invariance(self, bob, friction_setup, aero_model):
        track = downhill_track()
        log = simulate(bob, track, weaving_controls(20.0), friction_setup, aero_model,
                       v0=25.0, dt=0.0025, t_max=20.0)
        run200, _ = export_synthetic_telemetry(log, bob, rate=200.0)
        run100, _ = export_synthetic_telemetry(log, bob, rate=100.0)
        traces = []
        for run in (derive_channels(run200), derive_channels(run100)):
            trace = build_axle_trace(run, bob, aero=aero_model)
            traces.append(loss_energies(trace, run, aero_model)[0])
        assert traces[0].de_tot == pytest.approx(traces[1].de_tot, rel=1e-3, abs=1e-6)

    def test_long_gap_splits_segments(self, bob, friction_setup, aero_model):
        run, trace, _ = run_and_trace(bob, friction_setup, aero_model, weaving_controls(20.0))
        valid = trace.valid.copy()
        n = len(run)
        valid[n // 2: n // 2 + 50] = False  # 0.5 s gap > 0.1 s
        import dataclasses

        broken = dataclasses.replace(trace, valid=valid)
        parts = loss_energies(broken, run, aero_model)
        assert len(parts) == 2
        combined = combine_losses(parts)
        assert combined.e_tot_loss == pytest.approx(sum(p.e_tot_loss for p in parts))
        # the cut-out gap counts in neither sum
        assert combined.distance == pytest.approx(sum(p.distance for p in parts))
        assert combined.runtime == pytest.approx(sum(p.runtime for p in parts))

    def test_short_gap_bridged(self, bob, friction_setup, aero_model):
        run, trace, _ = run_and_trace(bob, friction_setup, aero_model, weaving_controls(20.0))
        valid = trace.valid.copy()
        valid[400:405] = False  # 0.05 s gap
        import dataclasses

        broken = dataclasses.replace(trace, valid=valid)
        parts = loss_energies(broken, run, aero_model)
        assert len(parts) == 1
        reference = loss_energies(trace, run, aero_model)[0]
        assert parts[0].de_tot == pytest.approx(reference.de_tot, rel=5e-3, abs=1e-8)

    def test_one_sample_segment_skipped(self, bob, friction_setup, aero_model):
        run, trace, _ = run_and_trace(bob, friction_setup, aero_model, zero_controls(10.0), t_max=10.0)
        valid = trace.valid.copy()
        valid[1:50] = False  # sample 0 alone before a 0.49 s gap
        import dataclasses

        broken = dataclasses.replace(trace, valid=valid)
        assert _segments(valid, trace.t, MAX_GAP_S)[0] == (0, 1)
        parts = loss_energies(broken, run, aero_model)
        assert len(parts) == 1
        assert parts[0].distance == pytest.approx(trace.s[-1] - trace.s[50])


STEP = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]


@pytest.mark.parametrize("mask, t, expected", [
    ("1111", STEP[:4], [(0, 4)]),
    ("0000", STEP[:4], []),
    ("0011", STEP[:4], [(2, 4)]),
    ("1100", STEP[:4], [(0, 2)]),
    ("1011", STEP[:4], [(0, 4)]),                      # neighbours exactly MAX_GAP_S apart: bridged
    ("1011", [0.0, 0.05, 0.11, 0.15], [(0, 1), (2, 4)]),  # just above it: cut
    ("1000111", STEP, [(0, 1), (4, 7)]),               # a one-sample segment before a cut
    ("0110101100", [0.0, 0.01, 0.02, 0.2, 0.21, 0.22, 0.23, 0.24, 0.25, 0.26],
     [(1, 3), (4, 8)]),                                # uneven steps: one cut, one bridged
], ids=["all-valid", "all-invalid", "leading", "trailing", "gap-at-limit", "gap-above-limit",
        "one-sample", "uneven"])
def test_segments(mask, t, expected):
    valid = np.array([c == "1" for c in mask])
    assert _segments(valid, np.array(t), MAX_GAP_S) == expected


class TestDriverOrdering:
    def test_front_slip_difference_orders_de_ice_f(self, bob, friction_setup, aero_model):
        gentle = weaving_controls(20.0, amplitude_deg=0.5)
        aggressive = weaving_controls(20.0, amplitude_deg=2.0)
        losses = {}
        for name, controls in [("gentle", gentle), ("aggressive", aggressive)]:
            run, trace, _ = run_and_trace(bob, friction_setup, aero_model, controls)
            losses[name] = loss_energies(trace, run, aero_model)[0]
        assert losses["aggressive"].de_ice_f > losses["gentle"].de_ice_f
        assert losses["aggressive"].de_tot > losses["gentle"].de_tot


class TestAngleStatistics:
    def test_zero_angles(self, bob, friction_setup, aero_model):
        run, trace, _ = run_and_trace(bob, friction_setup, aero_model, zero_controls(10.0), t_max=10.0)
        report = angle_statistics([("D1", run, trace)])
        for channel in ("delta", "alpha_f", "alpha_r"):
            assert report["D1"][channel]["exceedance"][2.0] == 0.0
            assert report["D1"][channel]["exceedance"][4.0] == 0.0

    def test_exceedance_counting(self):
        # synthetic: 99 samples at 0 deg, one at 5 deg
        import dataclasses

        from sleddyn.onetrack import AxleForceTrace
        from sleddyn.telemetry import CORE_CHANNELS, TelemetryMeta, TelemetryRun

        n = 100
        t = np.arange(n) / 100.0
        channels = {name: np.zeros(n) for name in CORE_CHANNELS}
        channels["v"] = np.full(n, 10.0)
        run = TelemetryRun(t=t, channels=channels, meta=TelemetryMeta())
        alpha = np.zeros(n)
        alpha[7] = np.deg2rad(5.0)
        trace = AxleForceTrace(
            t=t, s=t * 10.0, valid=np.ones(n, dtype=bool),
            alpha_f=alpha, alpha_r=np.zeros(n), beta=np.zeros(n),
            f_y_f0=np.zeros(n), f_z_f0=np.ones(n), f_y_r=np.zeros(n), f_z_r=np.ones(n),
            f_x_f0=np.zeros(n), f_x_f=np.zeros(n), f_y_f=np.zeros(n), f_z_f=np.ones(n),
            f_y_ext=np.zeros(n),
        )
        report = angle_statistics([("X", run, trace)])
        assert report["X"]["alpha_f"]["exceedance"][4.0] == pytest.approx(0.01)
        assert report["X"]["alpha_f"]["exceedance"][2.0] == pytest.approx(0.01)
        # monotone: exceedance(4) <= exceedance(2)
        for channel in ("delta", "alpha_f", "alpha_r"):
            e = report["X"][channel]["exceedance"]
            assert e[4.0] <= e[2.0]

    def test_known_quantiles(self, bob, friction_setup, aero_model):
        run, trace, _ = run_and_trace(bob, friction_setup, aero_model,
                                      weaving_controls(20.0, amplitude_deg=2.0))
        report = angle_statistics([("D", run, trace)])
        values = np.degrees(np.abs(run.delta[trace.valid]))
        assert report["D"]["delta"]["quantiles_deg"][0.5] == pytest.approx(np.median(values))


class TestValidation:
    def test_identical_series(self):
        x = np.linspace(0.0, 10.0, 100)
        assert validate_rmse(x, x) == 0.0

    def test_constant_offset(self):
        x = np.linspace(0.0, 10.0, 100)
        assert validate_rmse(x + 3.0, x) == pytest.approx(3.0)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            validate_rmse(np.zeros(5), np.zeros(6))

    def test_fitted_model_beats_reference_on_own_data(self, bob, friction_setup, aero_model):
        run, trace, _ = run_and_trace(bob, friction_setup, aero_model,
                                      weaving_controls(20.0, amplitude_deg=1.5))
        valid = trace.valid
        measured = measured_lateral_cog(trace)
        fitted = model_lateral_cog(trace, LATERAL_FRONT, LATERAL_REAR, run)
        reference = model_lateral_cog(trace, "braghin", "braghin", run)
        rmse_fitted = validate_rmse(fitted, measured, valid)
        rmse_reference = validate_rmse(reference, measured, valid)
        assert rmse_fitted < rmse_reference
        # the fitted chain reproduces its own synthetic world nearly exactly
        assert rmse_fitted < 0.01 * np.sqrt(np.mean(measured[valid] ** 2))

    def test_braghin_goes_through_the_front_runner_chain(self, bob, friction_setup, aero_model):
        run, trace, _ = run_and_trace(bob, friction_setup, aero_model,
                                      weaving_controls(10.0, amplitude_deg=1.5, gamma_amp_deg=1.0),
                                      t_max=10.0)
        alpha_f = np.where(np.isfinite(trace.alpha_f), trace.alpha_f, 0.0)
        alpha_r = np.where(np.isfinite(trace.alpha_r), trace.alpha_r, 0.0)
        f_z_f0 = np.abs(np.where(np.isfinite(trace.f_z_f0), trace.f_z_f0, 1.0))
        f_z_r = np.abs(np.where(np.isfinite(trace.f_z_r), trace.f_z_r, 1.0))
        _, (_, f_y_f0, _) = front_runner_forces(alpha_f, f_z_f0, run.gamma, run.delta,
                                                force_y_braghin, 0.005)
        expected = f_y_f0 + force_y_braghin(f_z_r, alpha_r)
        assert np.array_equal(model_lateral_cog(trace, "braghin", "braghin", run, mu_x=0.005),
                              expected)
