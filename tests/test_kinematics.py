"""Rigid-body transforms: acceleration transfer, slip angles, rotations."""

import numpy as np
import pytest

from sleddyn.kinematics import (
    MountingOffset,
    accel_to_cog,
    cog_to_sensor,
    rate_transfer_matrix,
    rotate_forces,
    rotation_delta,
    rotation_f0_to_f,
    rotation_gamma,
    slip_angle_at,
    slip_angle_front,
    to_driving_frame,
)


def axis_angle(axis, angle):
    """Rodrigues rotation, used as an independent check of rotation_delta."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


class TestAccelTransfer:
    def test_zero_rates_pass_through(self):
        offset = MountingOffset(l_x=1.0, l_y=-0.5, l_z=0.3)
        a = accel_to_cog((1.0, 2.0, 3.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), offset)
        assert np.allclose(a, (1.0, 2.0, 3.0))

    def test_zero_lever_arm_passes_through(self):
        a = accel_to_cog((1.0, 2.0, 3.0), (0.4, -0.2, 0.9), (1.0, 2.0, 3.0), MountingOffset())
        assert np.allclose(a, (1.0, 2.0, 3.0))

    def test_pure_yaw_rate_centripetal_term(self):
        # psi_dot = 1 rad/s, lever (1,0,0), zero sensor reading: the
        # M[0,0] = -psi_dot^2 entry gives a_cog = 0 - M@l = +1 m/s^2
        # (a sensor in steady rotation reading zero means the COG carries
        # the centripetal acceleration).
        a = accel_to_cog((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0), MountingOffset(l_x=1.0))
        assert np.allclose(a, (1.0, 0.0, 0.0))

    def test_matrix_matches_printed_form(self):
        rng = np.random.default_rng(3)
        pd, td, yd, pdd, tdd, ydd = rng.normal(size=6)
        m = rate_transfer_matrix(pd, td, yd, pdd, tdd, ydd)
        expected = np.array([
            [-td * td - yd * yd, pd * td - ydd, pd * yd + tdd],
            [pd * td + ydd, -pd * pd - yd * yd, td * yd - pdd],
            [pd * yd - tdd, td * yd + pdd, -pd * pd - td * td],
        ])
        assert np.allclose(m, expected, atol=1e-15)

    def test_round_trip_with_inverse(self):
        rng = np.random.default_rng(11)
        offset = MountingOffset(l_x=0.8, l_y=0.1, l_z=-0.4)
        rates = rng.normal(size=(3, 50))
        accels = rng.normal(size=(3, 50))
        a_cog = rng.normal(size=(3, 50))
        a_sensor = cog_to_sensor(tuple(a_cog), tuple(rates), tuple(accels), offset)
        back = accel_to_cog(a_sensor, tuple(rates), tuple(accels), offset)
        assert np.allclose(back, a_cog, atol=1e-12)


class TestSlipAngles:
    def test_rear_no_yaw(self):
        assert slip_angle_at(0.03, 0.0, 10.0, 1.0) == pytest.approx(0.03)

    def test_rear_substitution(self):
        assert slip_angle_at(0.0, 0.1, 10.0, 1.0) == pytest.approx(-0.01)

    def test_front_pure_steering(self):
        assert slip_angle_front(0.0, 0.0, 10.0, -1.0, 0.02) == pytest.approx(0.02)

    def test_front_substitution(self):
        assert slip_angle_front(0.01, 0.1, 10.0, -1.0, 0.02) == pytest.approx(0.04)

    def test_standstill_flagged_nan(self):
        assert np.isnan(slip_angle_at(0.0, 0.1, 0.0, 1.0))
        out = slip_angle_front(0.0, 0.1, np.array([10.0, 1.0]), -1.0, 0.0)
        assert np.isfinite(out[0]) and np.isnan(out[1])

    def test_affine_in_inputs(self):
        rng = np.random.default_rng(5)
        a1, a2 = rng.normal(size=2)
        p1, p2 = rng.normal(size=2)
        lhs = slip_angle_at(a1 + a2, p1 + p2, 10.0, 0.7)
        rhs = (slip_angle_at(a1, p1, 10.0, 0.7) + slip_angle_at(a2, p2, 10.0, 0.7))
        assert lhs == pytest.approx(rhs)


class TestRotations:
    def test_identity_at_zero(self):
        assert np.allclose(rotation_f0_to_f(0.0, 0.0), np.eye(3), atol=1e-15)

    def test_pure_steering_is_z_rotation(self):
        d = 0.1
        a = rotation_f0_to_f(0.0, d)
        expected = np.array([
            [np.cos(d), -np.sin(d), 0.0],
            [np.sin(d), np.cos(d), 0.0],
            [0.0, 0.0, 1.0],
        ])
        assert np.allclose(a, expected, atol=1e-15)

    def test_gamma_only_reduces_to_roll_matrix(self):
        g = 0.2
        assert np.allclose(rotation_f0_to_f(g, 0.0), rotation_gamma(g), atol=1e-15)

    def test_orthogonality_sweep(self):
        rng = np.random.default_rng(42)
        gammas = rng.uniform(-0.3, 0.3, 500)
        deltas = rng.uniform(-0.3, 0.3, 500)
        a = rotation_f0_to_f(gammas, deltas)
        eye = np.einsum("...ji,...jk->...ik", a, a)
        assert np.max(np.abs(eye - np.eye(3))) < 1e-12
        assert np.allclose(np.linalg.det(a), 1.0, atol=1e-12)

    def test_delta_matrix_equals_axis_angle_composition(self):
        # steering axis is the roll-split-rotated z-axis
        rng = np.random.default_rng(1)
        for _ in range(200):
            g, d = rng.uniform(-0.3, 0.3, 2)
            expected = axis_angle((0.0, -np.sin(g), np.cos(g)), d)
            assert np.allclose(rotation_delta(g, d), expected, atol=1e-12)

    def test_rotate_forces_inverse_composition(self):
        rng = np.random.default_rng(9)
        g = rng.uniform(-0.3, 0.3, 64)
        d = rng.uniform(-0.3, 0.3, 64)
        f = rng.normal(size=(3, 64)) * 1e3
        a = rotation_f0_to_f(g, d)
        fwd = rotate_forces(a, *f)
        back = rotate_forces(np.swapaxes(a, -1, -2), *fwd)
        assert np.allclose(back, f, atol=1e-9)
        assert np.allclose(
            np.linalg.norm(np.stack(fwd), axis=0), np.linalg.norm(f, axis=0), rtol=1e-12
        )


class TestDrivingFrame:
    def test_identity_at_zero_beta(self):
        assert to_driving_frame(3.0, -2.0, 1.0, 0.0) == pytest.approx((3.0, -2.0, 1.0))

    def test_quarter_turn(self):
        fx, fy, fz = to_driving_frame(0.0, 1.0, 0.0, np.pi / 2)
        assert fx == pytest.approx(-1.0)
        assert fy == pytest.approx(0.0, abs=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(3, 100))
        beta = rng.uniform(-0.5, 0.5, 100)
        out = np.stack(to_driving_frame(*f, beta))
        assert np.allclose(np.linalg.norm(out, axis=0), np.linalg.norm(f, axis=0), rtol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=3)
        beta = 0.21
        mid = to_driving_frame(*f, beta)
        back = to_driving_frame(*mid, -beta)
        assert np.allclose(back, f, atol=1e-12)

    def test_force_along_driving_direction_maps_to_pure_x(self):
        # velocity sits at angle -beta in the body frame
        beta = 0.3
        f = (np.cos(beta), -np.sin(beta), 0.0)
        fx, fy, _ = to_driving_frame(*f, beta)
        assert fx == pytest.approx(1.0)
        assert fy == pytest.approx(0.0, abs=1e-15)
