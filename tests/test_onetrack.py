"""One-track force reconstruction and the front-runner force chain."""

import numpy as np
import pytest

from conftest import save_bob_params

from sleddyn.errors import DataError
from sleddyn.friction import LateralFrictionParams
from sleddyn.kinematics import MountingOffset, rotation_f0_to_f
from sleddyn.onetrack import (
    BobParameters,
    build_axle_trace,
    export_trace_csv,
    front_runner_forces,
    load_bob_params,
    load_trace_csv,
    recover_f_x_f0,
    reconstruct_lateral,
    reconstruct_vertical,
)
from sleddyn.telemetry import CORE_CHANNELS, TelemetryMeta, TelemetryRun, derive_channels

G = 9.81


def bob(l_f=1.5, l_r=1.5, **kwargs):
    defaults = dict(m=400.0, j_yy=350.0, j_zz=850.0, l_f=l_f, l_r=l_r, cx_ax=0.2)
    defaults.update(kwargs)
    return BobParameters(**defaults)


class TestLateralReconstruction:
    def test_all_zero(self):
        f_f0, f_r = reconstruct_lateral(0.0, 0.0, 0.0, bob())
        assert f_f0 == 0.0 and f_r == 0.0

    def test_symmetric_split(self):
        f_f0, f_r = reconstruct_lateral(10.0, 0.0, 0.0, bob())
        assert f_f0 == pytest.approx(2000.0)
        assert f_r == pytest.approx(2000.0)

    def test_pure_yaw_couple(self):
        params = bob(l_f=1.0, l_r=1.0)
        f_f0, f_r = reconstruct_lateral(0.0, 100.0 / params.j_zz, 0.0, params)
        assert f_f0 == pytest.approx(50.0)
        assert f_r == pytest.approx(-50.0)

    def test_closure_and_linearity(self):
        rng = np.random.default_rng(17)
        params = bob(l_f=1.8, l_r=1.2)
        a_y = rng.normal(scale=20.0, size=200)
        psi_dd = rng.normal(scale=2.0, size=200)
        f_ext = rng.normal(scale=50.0, size=200)
        f_f0, f_r = reconstruct_lateral(a_y, psi_dd, f_ext, params)
        target = params.m * a_y - f_ext
        assert np.allclose(f_f0 + f_r, target, rtol=1e-12)
        moment = params.l_f * f_f0 - params.l_r * f_r
        assert np.allclose(moment, params.j_zz * psi_dd, rtol=1e-9, atol=1e-9)
        # superposition
        f2_f0, f2_r = reconstruct_lateral(2 * a_y, 2 * psi_dd, 2 * f_ext, params)
        assert np.allclose(f2_f0, 2 * f_f0, rtol=1e-12)
        assert np.allclose(f2_r, 2 * f_r, rtol=1e-12)


class TestVerticalReconstruction:
    def test_static_split(self):
        f_f0, f_r = reconstruct_vertical(G, 0.0, bob())
        assert f_f0 == pytest.approx(400.0 * G / 2)
        assert f_r == pytest.approx(400.0 * G / 2)

    def test_four_g_corner_with_lever_arms(self):
        params = bob(l_f=1.8, l_r=1.2)
        f_f0, f_r = reconstruct_vertical(4 * G, 0.0, params)
        total = params.m * 4 * G
        assert f_f0 == pytest.approx(total * params.l_r / params.wheelbase)
        assert f_r == pytest.approx(total * params.l_f / params.wheelbase)
        assert f_f0 + f_r == pytest.approx(total)

    def test_pure_pitch_couple(self):
        params = bob(l_f=1.0, l_r=1.0)
        f_f0, f_r = reconstruct_vertical(0.0, 1.0, params)
        assert f_f0 == pytest.approx(params.j_yy / 2)
        assert f_r == pytest.approx(-params.j_yy / 2)

    def test_closure(self):
        rng = np.random.default_rng(23)
        params = bob(l_f=1.6, l_r=1.4)
        a_z = rng.uniform(G, 4 * G, 100)
        th_dd = rng.normal(scale=1.0, size=100)
        f_f0, f_r = reconstruct_vertical(a_z, th_dd, params)
        assert np.allclose(f_f0 + f_r, params.m * a_z, rtol=1e-12)
        assert np.allclose(params.l_f * f_f0 - params.l_r * f_r, params.j_yy * th_dd,
                           rtol=1e-9, atol=1e-9)


class TestFrontForceChain:
    def test_identity_frames_at_zero_angles(self):
        f_x0 = recover_f_x_f0(-8.0, 123.0, 2000.0, rotation_f0_to_f(0.0, 0.0))
        assert f_x0 == pytest.approx(-8.0)

    def test_recover_round_trip(self):
        # choose a body-frame triple, express it in the runner frame
        # (transpose of the active rotation), recover the x-component
        rng = np.random.default_rng(31)
        for _ in range(100):
            gamma, delta = rng.uniform(-0.3, 0.3, 2)
            f_f0 = rng.normal(scale=1000.0, size=3)
            a = rotation_f0_to_f(gamma, delta)
            f_f = a.T @ f_f0
            recovered = recover_f_x_f0(f_f[0], f_f0[1], f_f0[2], a)
            assert recovered == pytest.approx(f_f0[0], abs=1e-9)

    def test_front_runner_forces_consistency(self):
        # the constructed body-frame triple must carry the prescribed
        # vertical load and map back to the runner-frame friction forces
        lat = LateralFrictionParams(mu_zeta_y=2.577, c_y=0.024, k_y=10522.0)
        f_f, f_f0 = front_runner_forces(0.02, 4000.0, 0.1, 0.05, lat, 0.004)
        assert f_f0[2] == pytest.approx(4000.0, rel=1e-12)
        assert f_f[0] == pytest.approx(-0.004 * 4000.0 * np.cos(0.02), rel=1e-12)
        a = rotation_f0_to_f(0.1, 0.05)
        assert np.allclose(a @ np.array([c for c in f_f]), np.array([c for c in f_f0]), atol=1e-9)

    def test_steered_lateral_force_opposes_motion(self):
        # a slipping, steered front runner must lose x-force in the body
        # frame: the lateral force tilts backward, never into thrust
        lat = LateralFrictionParams(mu_zeta_y=2.577, c_y=0.024, k_y=10522.0)
        delta = np.deg2rad(2.0)
        f_f, f_f0 = front_runner_forces(delta, 4000.0, 0.0, delta, lat, 0.004)
        assert f_f[1] > 0  # positive slip -> leftward runner force
        assert f_f0[0] < -0.004 * 4000.0 * np.cos(delta)  # more opposing than ideal


def synthetic_run(n=500, rate=100.0, a_y=3.0, psi_dot=0.05, v=20.0):
    t = np.arange(n) / rate
    channels = {name: np.zeros(n) for name in CORE_CHANNELS}
    channels["v"] = np.full(n, v)
    channels["a_y"] = np.full(n, a_y)
    channels["a_z"] = np.full(n, G)
    channels["psi_dot"] = np.full(n, psi_dot)
    return derive_channels(TelemetryRun(t=t, channels=channels, meta=TelemetryMeta(rate_hz=rate)))


class TestBuildAxleTrace:
    def test_straight_gliding_zero_lateral(self):
        run = synthetic_run(a_y=0.0, psi_dot=0.0)
        trace = build_axle_trace(run, bob())
        assert np.all(trace.valid)
        assert np.allclose(trace.f_y_f0, 0.0, atol=1e-9)
        assert np.allclose(trace.f_y_r, 0.0, atol=1e-9)
        assert np.allclose(trace.f_z_f0 + trace.f_z_r, 400.0 * G, rtol=1e-9)

    def test_requires_processed_run(self):
        n = 100
        t = np.arange(n) / 100.0
        channels = {name: np.zeros(n) for name in CORE_CHANNELS}
        channels["v"] = np.full(n, 10.0)
        raw = TelemetryRun(t=t, channels=channels)
        with pytest.raises(DataError):
            build_axle_trace(raw, bob())

    def test_low_speed_flagged_invalid(self):
        run = synthetic_run(v=1.0)
        trace = build_axle_trace(run, bob())
        assert not trace.valid.any()
        assert np.all(np.isnan(trace.f_y_f0))

    def test_momentum_resubstitution(self):
        run = synthetic_run(a_y=5.0, psi_dot=0.1)
        params = bob(l_f=1.7, l_r=1.3)
        trace = build_axle_trace(run, params)
        lhs = trace.f_y_f0 + trace.f_y_r
        rhs = params.m * run.a_y - trace.f_y_ext
        assert np.allclose(lhs, rhs, rtol=1e-9)
        moment = params.l_f * trace.f_y_f0 - params.l_r * trace.f_y_r
        assert np.allclose(moment, params.j_zz * run.derived.psi_ddot, rtol=1e-9, atol=1e-6)

    def test_trace_csv_round_trip(self, tmp_path):
        run = synthetic_run(n=50)
        trace = build_axle_trace(run, bob())
        path = tmp_path / "trace.csv"
        export_trace_csv(trace, path, header_comments=["demo"])
        back = load_trace_csv(path)
        assert np.array_equal(back.valid, trace.valid)
        assert np.allclose(back.f_y_f0, trace.f_y_f0, equal_nan=True)
        assert np.allclose(back.alpha_f, trace.alpha_f, equal_nan=True)


class TestBobParamsFile:
    def test_round_trip(self, tmp_path):
        params = bob(offset=MountingOffset(l_x=0.4, l_y=0.0, l_z=-0.2, l_s_f=1.0, l_s_r=-2.0))
        path = tmp_path / "bob.kv"
        save_bob_params(params, path)
        loaded = load_bob_params(path)
        assert loaded == params

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.kv"
        path.write_text("m = 400.0\n")
        with pytest.raises(DataError):
            load_bob_params(path)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            bob(m=-1.0)
