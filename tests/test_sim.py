"""Forward simulator: dynamics sanity, energy audit, telemetry export."""

import numpy as np
import pytest

from conftest import (
    corner_track,
    downhill_track,
    step_steer_controls,
    straight_track,
    weaving_controls,
    zero_controls,
)

from reference_sim import reference_simulate
from sleddyn import sim
from sleddyn.errors import ConfigError
from sleddyn.onetrack import build_axle_trace
from sleddyn.sim import (
    _LOG_FIELDS,
    _TERMS,
    ControlTrace,
    FrictionSetup,
    TrackProfile,
    _rhs,
    energy_audit,
    export_synthetic_telemetry,
    load_scenario,
    simulate,
)
from sleddyn.telemetry import derive_channels, process

G = 9.81


class TestScalarFastPath:
    """``rhs``'s named terms agree with the vectorized force chain.

    Reconstruction and validation use ``onetrack.front_runner_forces``,
    ``friction.force_y`` and ``aero.drag_force``; ``rhs`` writes the same
    laws out inline.
    """

    @staticmethod
    def evaluate(bob, setup, aero, gamma, delta, rng):
        """(v, beta, named ``rhs`` terms) at a random state on the banked corner, controls constant."""
        controls = ControlTrace(t=np.array([0.0, 10.0]), delta=np.full(2, delta), gamma=np.full(2, gamma))
        rhs = _rhs(bob, corner_track(), controls, setup, aero)
        t, s, v, beta, psi_dot = (rng.uniform(0.0, 10.0), rng.uniform(0.0, 1500.0), rng.uniform(3.0, 40.0),
                                  rng.uniform(-0.2, 0.2), rng.uniform(-0.5, 0.5))
        return v, beta, dict(zip(_TERMS, rhs(t, s, v, beta, psi_dot)))

    def test_front_forces_match_vectorized_reference(self, bob, aero_model):
        from conftest import LATERAL_FRONT, LATERAL_REAR
        from sleddyn.friction import force_y
        from sleddyn.onetrack import front_runner_forces

        rng = np.random.default_rng(77)
        for _ in range(200):
            gamma, delta = rng.uniform(-0.3, 0.3, 2)
            mu = rng.uniform(0.002, 0.008)
            setup = FrictionSetup(lateral_front=LATERAL_FRONT, lateral_rear=LATERAL_REAR, mu_x=mu)
            _, _, k = self.evaluate(bob, setup, aero_model, gamma, delta, rng)
            f_f_v, f_f0_v = front_runner_forces(k["alpha_f"], k["f_z_f0"], gamma, delta, LATERAL_FRONT, mu)
            assert np.allclose([k["f_x_f"], k["f_y_f"], k["f_z_f"]], [float(c) for c in f_f_v],
                               rtol=1e-12, atol=1e-9)
            assert np.allclose([k["f_x_f0"], k["f_y_f0"], k["f_z_f0"]], [float(c) for c in f_f0_v],
                               rtol=1e-12, atol=1e-9)
            assert k["f_y_f"] == pytest.approx(float(force_y(k["f_z_f0"], k["alpha_f"], LATERAL_FRONT)),
                                               rel=1e-13)
            assert k["f_y_r"] == pytest.approx(float(force_y(k["f_z_r"], k["alpha_r"], LATERAL_REAR)),
                                               rel=1e-13)

    def test_drag_matches_aero_module(self, bob, friction_setup, aero_model):
        # rhs writes the yaw-inflated drag out inline (area, then force)
        from sleddyn.aero import drag_area_at_beta, drag_force

        rng = np.random.default_rng(5)
        for _ in range(50):
            gamma, delta = rng.uniform(-0.3, 0.3, 2)
            v, beta, k = self.evaluate(bob, friction_setup, aero_model, gamma, delta, rng)
            area = float(drag_area_at_beta(aero_model, beta))
            assert k["f_drag"] == pytest.approx(float(drag_force(v, 1.0, aero_model.air)) * area, rel=1e-13)
            assert k["f_drag"] == pytest.approx(float(drag_force(v, area, aero_model.air)), rel=1e-13)


def bumped_track(length: float, kappa_deg: float) -> TrackProfile:
    """Constant slope with one banked, pitched bump at s = 60 m."""
    s = np.linspace(0.0, length, 61)
    bump = np.exp(-0.5 * ((s - 60.0) / 20.0) ** 2)
    return TrackProfile(s=s, kappa=np.full(s.size, np.deg2rad(kappa_deg)), inv_r_y=0.02 * bump,
                        n=1.0 + 2.5 * bump)


class TestBitIdentity:
    """``simulate`` reproduces the frozen reference integrator bit for bit.

    A speed-up of the force chain must leave every logged column
    unchanged; see ``reference_sim`` for when that file may change.
    """

    @pytest.mark.parametrize("length, kappa_deg, v0, dt, t_max, v_stop, ends", [
        (300.0, 4.0, 25.0, 0.0025, 3.0, 0.1, "t_max"),
        (150.0, 4.0, 25.0, 0.002, 10.0, 0.1, "track_end"),
        (150.0, -4.0, 12.0, 0.005, 30.0, 2.0, "v_stop"),
    ], ids=["t-max", "track-end", "v-stop"])
    def test_log_matches_reference(self, bob, friction_setup, aero_model, length, kappa_deg, v0,
                                   dt, t_max, v_stop, ends):
        track = bumped_track(length, kappa_deg)
        controls = weaving_controls(t_max, gamma_amp_deg=3.0)
        kwargs = dict(v0=v0, dt=dt, t_max=t_max, v_stop=v_stop)
        log = simulate(bob, track, controls, friction_setup, aero_model, **kwargs)
        ref = reference_simulate(bob, track, controls, friction_setup, aero_model, **kwargs)
        self.assert_identical(log, ref)
        assert np.abs(log.gamma).max() > 0.01 and log.f_drag.min() > 0.0
        reached = {"t_max": log.t[-1] > t_max - dt, "track_end": log.s[-1] > length - v0 * dt,
                   "v_stop": log.v[-1] < v_stop + 0.1}
        assert [k for k, hit in reached.items() if hit] == [ends]
        assert log.stop == ends

    @staticmethod
    def assert_identical(log, ref):
        assert len(log) == len(ref)
        for name in _LOG_FIELDS:
            assert np.array_equal(log.data[name], ref.data[name]), name
            assert log.data[name].tobytes() == ref.data[name].tobytes(), name  # signed zeros too

    def run_both(self, bob, setup, aero, track, controls, **kwargs):
        log = simulate(bob, track, controls, setup, aero, **kwargs)
        self.assert_identical(log, reference_simulate(bob, track, controls, setup, aero, **kwargs))
        assert log.t[-1] == pytest.approx(kwargs["t_max"])
        return log

    def test_no_aero_matches_reference(self, bob, friction_setup):
        log = self.run_both(bob, friction_setup, None, bumped_track(300.0, 4.0),
                            weaving_controls(3.0, gamma_amp_deg=3.0), v0=25.0, dt=0.0025, t_max=3.0)
        assert not log.f_drag.any() and not log.p_aero.any()

    def test_dense_track_matches_reference(self, bob, friction_setup, aero_model):
        # breakpoints every 0.02 m, closer than the 0.05 m one step travels, from s = 5 m
        s = 5.0 + 0.02 * np.arange(5001)
        bump = np.exp(-0.5 * ((s - 40.0) / 10.0) ** 2)
        track = TrackProfile(s=s, kappa=np.deg2rad(4.0 + np.sin(s)), inv_r_y=0.02 * bump, n=1.0 + 2.5 * bump)
        log = self.run_both(bob, friction_setup, aero_model, track, weaving_controls(2.0, gamma_amp_deg=3.0),
                            v0=25.0, dt=0.002, t_max=2.0)
        assert log.s[0] == 5.0 and log.s[-1] > 50.0

    def test_controls_on_stage_times_match_reference(self, bob, friction_setup, aero_model):
        # a control breakpoint on every RK stage time, as ``step`` computes them
        dt, t, stage_times = 0.004, 0.0, []
        while t < 2.0:
            stage_times += [t, t + dt / 2.0]
            t = t + dt
        ts = np.array(stage_times)
        controls = ControlTrace(t=ts, delta=np.deg2rad(1.5) * np.sin(2 * np.pi * ts / 1.3),
                                gamma=np.deg2rad(3.0) * np.sin(2 * np.pi * ts / 2.1))
        log = self.run_both(bob, friction_setup, aero_model, bumped_track(300.0, 4.0), controls,
                            v0=25.0, dt=dt, t_max=2.0)
        assert np.isin(log.t, ts).sum() == len(log) - 1


class TestMirrorSymmetry:
    # a steering and roll-split line and its mirror image drive mirrored runs, bit for bit
    ODD = ("beta", "psi_dot", "psi_ddot", "delta", "gamma", "a_y", "f_y_f0", "f_y_f", "f_y_r",
           "alpha_f", "alpha_r")

    def test_negated_controls_mirror_every_column(self, bob, friction_setup, aero_model):
        controls = weaving_controls(15.0, gamma_amp_deg=3.0)
        mirrored = ControlTrace(t=controls.t, delta=-controls.delta, gamma=-controls.gamma)
        kwargs = dict(v0=25.0, dt=0.0025, t_max=15.0)
        log = simulate(bob, corner_track(), controls, friction_setup, aero_model, **kwargs)
        mirror = simulate(bob, corner_track(), mirrored, friction_setup, aero_model, **kwargs)
        assert len(self.ODD) == 11 and len(log) == len(mirror) == 6001
        for name in _LOG_FIELDS:
            expected = -log.data[name] if name in self.ODD else log.data[name]
            assert np.array_equal(mirror.data[name], expected), name
        assert np.abs(log.psi_dot).max() > 0.01 and np.abs(log.gamma).max() > 0.04


class TestDynamics:
    def test_straight_glide_stays_straight(self, bob, friction_setup):
        track = straight_track(3000.0, kappa=np.deg2rad(2.0))
        log = simulate(bob, track, zero_controls(20.0), friction_setup, aero=None,
                       v0=20.0, dt=0.005, t_max=20.0)
        assert np.allclose(log.beta, 0.0, atol=1e-12)
        assert np.allclose(log.psi_dot, 0.0, atol=1e-12)
        assert np.allclose(log.f_y_f0, 0.0, atol=1e-9)

    def test_level_glide_constant_deceleration(self, bob, friction_setup):
        # no aero, fixed mu: v(t) = v0 - mu g t exactly
        track = straight_track(500.0)
        log = simulate(bob, track, zero_controls(30.0), friction_setup, aero=None,
                       v0=10.0, dt=0.005, t_max=30.0)
        expected = 10.0 - 0.004 * G * log.t
        assert np.allclose(log.v, expected, atol=1e-8)

    def test_step_steer_settles_to_steady_yaw(self, bob, friction_setup, aero_model):
        track = downhill_track()
        log = simulate(bob, track, step_steer_controls(20.0), friction_setup, aero_model,
                       v0=25.0, dt=0.0025, t_max=20.0)
        late = log.psi_dot[log.t > 15.0]
        assert late.std() / abs(late.mean()) < 0.05
        assert abs(late.mean()) > 1e-3

    def test_sled_stops_cleanly(self, bob, friction_setup):
        track = straight_track(500.0)
        log = simulate(bob, track, zero_controls(300.0), friction_setup, aero=None,
                       v0=1.0, dt=0.01, t_max=300.0, v_stop=0.1)
        assert log.v[-1] > 0.1
        assert log.t[-1] < 300.0  # terminated early, not by t_max

    def test_track_end_terminates(self, bob, friction_setup):
        track = straight_track(100.0, kappa=np.deg2rad(4.0))
        log = simulate(bob, track, zero_controls(60.0), friction_setup, aero=None,
                       v0=20.0, dt=0.005, t_max=60.0)
        assert log.s[-1] <= 100.0
        assert log.t[-1] < 60.0

    def test_huge_t_max_runs_only_the_steps_taken(self, bob, friction_setup, aero_model):
        # the log grows with the run; t_max sizes nothing up front
        track = straight_track(150.0, kappa=np.deg2rad(4.0))
        log = simulate(bob, track, weaving_controls(10.0), friction_setup, aero_model,
                       v0=20.0, dt=0.002, t_max=1e9)
        assert log.s[-1] < 150.0 and log.t[-1] < 10.0
        assert len(log) == round(log.t[-1] / 0.002) + 1
        assert all(log.data[name].size == len(log) for name in _LOG_FIELDS)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_log_stays_quiet(self, bob, friction_setup, aero_model):
        # as scalar float arithmetic does, the logged columns overflow to inf without a warning
        log = simulate(bob, straight_track(100.0), zero_controls(1.0), friction_setup, aero_model,
                       v0=1.2e154, dt=0.002, t_max=0.0009)
        assert len(log) == 1 and log.p_aero[0] == -np.inf and log.e_kin[0] == np.inf

    def test_dt_bound_enforced(self, bob, friction_setup):
        with pytest.raises(ConfigError):
            simulate(bob, straight_track(100.0), zero_controls(1.0), friction_setup, None, dt=0.02)

    def test_one_step_call_per_logged_step(self, bob, friction_setup, aero_model, monkeypatch):
        # a run that ends at t_max logs its start state plus one state per step
        real_step, calls = sim.step, []

        def step(*args):
            calls.append(None)
            return real_step(*args)

        monkeypatch.setattr(sim, "step", step)
        log = simulate(bob, straight_track(1000.0, kappa=np.deg2rad(4.0)), weaving_controls(2.0),
                       friction_setup, aero_model, v0=20.0, dt=0.005, t_max=2.0)
        assert log.t[-1] == pytest.approx(2.0)
        assert len(calls) == len(log) - 1 == 400

    def test_vertical_split_closes_pitch_balance(self, bob, friction_setup, aero_model):
        track = corner_track()
        log = simulate(bob, track, zero_controls(30.0), friction_setup, aero_model,
                       v0=28.0, dt=0.0025, t_max=30.0)
        moment = bob.l_f * log.f_z_f0 - bob.l_r * log.f_z_r
        assert np.allclose(moment, bob.j_yy * log.theta_ddot, atol=1e-6)
        total = log.f_z_f0 + log.f_z_r
        assert total.max() > 2.5 * bob.m * G  # the corner actually loads the sled


class TestEnergyAudit:
    def test_closure_straight(self, bob, friction_setup, aero_model):
        track = downhill_track()
        log = simulate(bob, track, zero_controls(25.0), friction_setup, aero_model,
                       v0=20.0, dt=0.005, t_max=25.0)
        assert energy_audit(log) < 5e-4

    def test_closure_step_steer(self, bob, friction_setup, aero_model):
        track = downhill_track()
        log = simulate(bob, track, step_steer_controls(20.0), friction_setup, aero_model,
                       v0=25.0, dt=0.0025, t_max=20.0)
        assert energy_audit(log) < 5e-4

    def test_closure_corner(self, bob, friction_setup, aero_model):
        track = corner_track()
        log = simulate(bob, track, weaving_controls(30.0), friction_setup, aero_model,
                       v0=28.0, dt=0.0025, t_max=30.0)
        assert energy_audit(log) < 5e-4

    def test_dt_convergence(self, bob, friction_setup, aero_model):
        track = downhill_track()
        controls = step_steer_controls(15.0)
        v_coarse = simulate(bob, track, controls, friction_setup, aero_model,
                            v0=25.0, dt=0.005, t_max=15.0).v[-1]
        v_fine = simulate(bob, track, controls, friction_setup, aero_model,
                          v0=25.0, dt=0.0025, t_max=15.0).v[-1]
        assert abs(v_fine - v_coarse) / v_fine < 1e-4

    def test_braghin_substitution_changes_dynamics(self, bob, friction_setup, aero_model):
        # the simulator must run with the reference model too, and produce
        # measurably different motion
        from sleddyn.friction import LateralFrictionParams
        from sleddyn.sim import FrictionSetup

        # the reference atan law with mu_y = 0.5, k3 = 50/rad maps onto the
        # sin-atan family with c_y -> 2/pi scaling absorbed: emulate by a
        # steep, saturating parameter set
        braghin_like = LateralFrictionParams(mu_zeta_y=0.5, c_y=1.0, k_y=0.5 * 50.0 * 2.0 / np.pi * 1000.0, e_y=1.0)
        setup2 = FrictionSetup(lateral_front=braghin_like, lateral_rear=braghin_like, mu_x=0.004)
        track = downhill_track()
        controls = step_steer_controls(15.0)
        log1 = simulate(bob, track, controls, friction_setup, aero_model, v0=25.0, dt=0.005, t_max=15.0)
        log2 = simulate(bob, track, controls, setup2, aero_model, v0=25.0, dt=0.005, t_max=15.0)
        n = min(len(log1), len(log2))
        assert not np.allclose(log1.psi_dot[:n], log2.psi_dot[:n], atol=1e-4)


class TestExport:
    def test_zero_noise_round_trip_reconstruction(self, bob, friction_setup, aero_model):
        track = downhill_track()
        log = simulate(bob, track, step_steer_controls(20.0), friction_setup, aero_model,
                       v0=25.0, dt=0.0025, t_max=20.0)
        run, truth = export_synthetic_telemetry(log, bob, rate=100.0)
        run = derive_channels(run)
        trace = build_axle_trace(run, bob, aero=aero_model)
        valid = trace.valid
        for name in ("f_y_f0", "f_y_r", "f_z_f0", "f_z_r", "f_x_f0"):
            rec = getattr(trace, name)[valid][5:-5]
            tru = getattr(truth, name)[valid][5:-5]
            scale = max(np.sqrt(np.mean(tru ** 2)), 1.0)
            err = np.sqrt(np.mean((rec - tru) ** 2)) / scale
            assert err < 5e-3, (name, err)

    def test_sensor_offset_changes_accelerations(self, bob, bob_sensor_at_cog, friction_setup, aero_model):
        track = downhill_track()
        log = simulate(bob, track, step_steer_controls(15.0), friction_setup, aero_model,
                       v0=25.0, dt=0.0025, t_max=15.0)
        run_offset, _ = export_synthetic_telemetry(log, bob, rate=100.0)
        run_cog, _ = export_synthetic_telemetry(log, bob_sensor_at_cog, rate=100.0)
        # the lever arm shifts the lateral channel during the yaw transient
        assert not np.allclose(run_offset.a_y, run_cog.a_y, atol=1e-6)
        from sleddyn.kinematics import rate_transfer_matrix

        m = rate_transfer_matrix(
            run_cog.phi_dot, run_cog.theta_dot, run_cog.psi_dot,
            np.gradient(run_cog.phi_dot, run_cog.t),
            np.gradient(run_cog.theta_dot, run_cog.t),
            np.gradient(run_cog.psi_dot, run_cog.t),
        )
        shift = m @ bob.offset.lever_arm
        # gradient-based angular accelerations differ from the logged ones
        # at O(dt^2), hence the modest tolerance
        assert np.allclose(run_offset.a_y, run_cog.a_y + shift[:, 1], atol=2e-4)
        mid = np.abs(shift[:, 1]) > 1e-3
        assert mid.any()
        assert np.allclose(run_offset.a_y[mid], run_cog.a_y[mid] + shift[mid, 1], rtol=0.05)

    def test_noise_is_seeded_and_applied(self, bob, friction_setup, aero_model):
        track = downhill_track()
        log = simulate(bob, track, zero_controls(10.0), friction_setup, aero_model,
                       v0=25.0, dt=0.005, t_max=10.0)
        noise = {"a_y": 0.05}
        run1, _ = export_synthetic_telemetry(log, bob, rate=100.0, noise=noise, seed=42)
        run2, _ = export_synthetic_telemetry(log, bob, rate=100.0, noise=noise, seed=42)
        run3, _ = export_synthetic_telemetry(log, bob, rate=100.0, noise=noise, seed=43)
        assert np.array_equal(run1.a_y, run2.a_y)
        assert not np.array_equal(run1.a_y, run3.a_y)
        clean, _ = export_synthetic_telemetry(log, bob, rate=100.0)
        assert np.array_equal(run1.a_x, clean.a_x)  # untouched channel

    def test_export_rate_must_divide_grid(self, bob, friction_setup):
        track = downhill_track()
        log = simulate(bob, track, zero_controls(5.0), friction_setup, None,
                       v0=20.0, dt=0.003, t_max=5.0)
        with pytest.raises(ConfigError):
            export_synthetic_telemetry(log, bob, rate=100.0)

    def test_full_pipeline_with_processing(self, bob, friction_setup, aero_model):
        # ingest-grade export -> filter -> resample -> derive -> reconstruct
        track = downhill_track()
        log = simulate(bob, track, step_steer_controls(20.0), friction_setup, aero_model,
                       v0=25.0, dt=0.0025, t_max=20.0)
        run, truth = export_synthetic_telemetry(log, bob, rate=200.0)
        processed = process(run, cutoff=20.0, rate=100.0)
        trace = build_axle_trace(processed, bob, aero=aero_model)
        valid = trace.valid & (processed.t > 1.0) & (processed.t < 19.0)
        tru = np.interp(processed.t, truth.t, truth.f_y_r)
        err = np.sqrt(np.mean((trace.f_y_r[valid] - tru[valid]) ** 2))
        assert err / np.sqrt(np.mean(tru[valid] ** 2)) < 0.02


class TestScenarioFile:
    def test_load_scenario(self, tmp_path):
        import json

        scenario = {
            "track": {"s": [0.0, 1000.0], "kappa": [0.07, 0.07], "inv_r_y": [0.0, 0.0], "n": [1.0, 1.0]},
            "controls": {"t": [0.0, 30.0], "delta": [0.0, 0.0], "gamma": [0.0, 0.0]},
            "initial": {"v0": 22.0},
            "sim": {"dt": 0.005, "t_max": 12.0},
            "noise": {"a_y": 0.02},
            "meta": {"driver": "X1", "track": "SYN"},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        loaded = load_scenario(path)
        assert loaded["v0"] == 22.0
        assert loaded["meta"].driver == "X1"
        assert loaded["noise"].get("a_y") == 0.02
        assert loaded["track"].s[-1] - loaded["track"].s[0] == 1000.0

    def test_bad_scenario_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ConfigError):
            load_scenario(path)
