"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Two sub-criteria are marked xfail(strict): they are mathematically
unattainable as stated (see the assertions' reasons and the decisions
ledger); their tests implement the criterion faithfully and are expected
to stay red.
"""

import time

import numpy as np
import pytest

from conftest import (
    LATERAL_FRONT,
    LATERAL_REAR,
    corner_track,
    downhill_track,
    step_steer_controls,
    weaving_controls,
    zero_controls,
)
from test_icehouse import simulated_glide

from sleddyn.aero import AeroModel, AirState, drag_area_at_beta
from sleddyn.evaluation import (
    loss_energies,
    measured_lateral_cog,
    model_lateral_cog,
    validate_rmse,
)
from sleddyn.fitting import FitDataset, fit_lateral
from sleddyn.friction import force_y, mu_x
from sleddyn.icehouse import average_bidirectional, evaluate_glide, fit_quadratic_mu_p
from sleddyn.kinematics import rotation_delta, rotation_f0_to_f
from sleddyn.onetrack import build_axle_trace
from sleddyn.sim import energy_audit, export_synthetic_telemetry, simulate
from sleddyn.telemetry import derive_channels

TABLE_POINTS = [
    ("Alpha 1", 7.7, 4.5e-3, 0.4e-3),
    ("Alpha 2", 8.6, 3.8e-3, 0.4e-3),
    ("Beta 1", 13.6, 4.2e-3, 0.4e-3),
    ("Beta 2", 16.0, 4.6e-3, 0.4e-3),
    ("Gamma 1", 10.9, 3.0e-3, 0.3e-3),
    ("Gamma 2", 11.8, 2.7e-3, 0.3e-3),
    ("Gamma 3", 9.6, 3.3e-3, 0.3e-3),
]
PUBLISHED_COEFFS = {"b_x": 0.088, "c_x": 2.01, "d_x": 14.66}


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_1a_quadratic_fit_coefficients():
    with Timer() as t:
        params = fit_quadratic_mu_p([(p, mu) for _, p, mu, _ in TABLE_POINTS])
    deviations = {
        name: abs(getattr(params, name) - ref) / ref
        for name, ref in PUBLISHED_COEFFS.items()
    }
    ok = all(d <= 0.10 for d in deviations.values()) and t.elapsed < 1.0
    report("C1a (quadratic fit coefficients within 10%)", ok,
           f"B={params.b_x:.4f} C={params.c_x:.4f} D={params.d_x:.4f}, "
           f"max dev {max(deviations.values()):.1%}, {t.elapsed * 1e3:.0f} ms")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="Infeasible as stated: no quadratic passes all seven +/-1-sigma bands. "
    "For any quadratic f, (f(13.6)-f(11.8))/1.8 = f'(12.7) and the band pairs "
    "(7.7 >= 4.1e-3, 11.8 <= 3.0e-3, 13.6 >= 3.8e-3, 16.0 <= 5.0e-3) force "
    "f'(9.75) <= -0.268e-3, f'(12.7) >= 0.444e-3 (so 2a >= 0.2416e-3/MPa^2) "
    "and then f(16) >= 6.08e-3 > 5.0e-3. LP over all 14 band constraints "
    "confirms infeasibility; the published coefficients miss the same two "
    "rows (Beta 1, Gamma 2). See decisions ledger.",
)
def test_criterion_1b_fit_inside_measurement_bands():
    params = fit_quadratic_mu_p([(p, mu) for _, p, mu, _ in TABLE_POINTS])
    failures = []
    for name, p, mu_meas, sigma in TABLE_POINTS:
        fitted = float(mu_x(p, params))
        if abs(fitted - mu_meas) > sigma:
            failures.append(f"{name}: fitted {fitted:.2e} vs {mu_meas:.1e}+/-{sigma:.1e}")
    report("C1b (fitted mu inside every measurement band)", not failures,
           "; ".join(failures) or "all rows inside")
    assert not failures, failures


def test_criterion_2_vertex_pressure():
    with Timer() as t:
        params = fit_quadratic_mu_p([(p, mu) for _, p, mu, _ in TABLE_POINTS])
    vertex = params.vertex_pressure
    ok = 10.0 <= vertex <= 12.5 and t.elapsed < 1.0
    report("C2 (minimum-friction pressure in [10, 12.5] MPa)", ok, f"vertex at {vertex:.3f} MPa")
    assert ok


def test_criterion_3_small_angle_slope():
    with Timer() as t:
        worst = 0.0
        h = 1e-6
        for params in (LATERAL_FRONT, LATERAL_REAR):
            for f_z in (2000.0, 5000.0, 10000.0):
                slope = (force_y(f_z, h, params) - force_y(f_z, -h, params)) / (2 * h)
                worst = max(worst, abs(slope - params.k_y) / params.k_y)
    ok = worst < 1e-4 and t.elapsed < 1.0
    report("C3 (dF_y/dalpha at 0 equals K_y to 0.01%)", ok, f"worst relative deviation {worst:.2e}")
    assert ok


def _synthetic_lateral_dataset(seed, noise=0.0, n=4000):
    rng = np.random.default_rng(seed)
    alpha = np.deg2rad(rng.uniform(-3.0, 3.0, n))
    f_z = rng.uniform(1000.0, 15000.0, n)
    f_y = force_y(f_z, alpha, LATERAL_FRONT)
    if noise:
        f_y = f_y * (1.0 + noise * rng.standard_normal(n))
    return FitDataset(alpha=alpha, f_z=f_z, f_y=f_y, runner="front")


def test_criterion_4_noise_free_round_trip():
    with Timer() as t:
        result = fit_lateral(_synthetic_lateral_dataset(seed=0))
    p = result.params
    devs = {
        "mu_zeta_y": abs(p.mu_zeta_y - LATERAL_FRONT.mu_zeta_y) / LATERAL_FRONT.mu_zeta_y,
        "c_y": abs(p.c_y - LATERAL_FRONT.c_y) / LATERAL_FRONT.c_y,
        "k_y": abs(p.k_y - LATERAL_FRONT.k_y) / LATERAL_FRONT.k_y,
    }
    ok = all(d <= 0.01 for d in devs.values()) and t.elapsed < 30.0
    report("C4 noise-free (all parameters within 1%)", ok,
           f"max dev {max(devs.values()):.2e}, {t.elapsed:.2f} s")
    assert ok


def _noisy_recovery_medians(n_seeds=50):
    errors = []
    for seed in range(n_seeds):
        result = fit_lateral(_synthetic_lateral_dataset(seed=seed, noise=0.05))
        p = result.params
        errors.append([
            abs(p.mu_zeta_y - LATERAL_FRONT.mu_zeta_y) / LATERAL_FRONT.mu_zeta_y,
            abs(p.c_y - LATERAL_FRONT.c_y) / LATERAL_FRONT.c_y,
            abs(p.k_y - LATERAL_FRONT.k_y) / LATERAL_FRONT.k_y,
        ])
    return np.median(np.array(errors), axis=0)


@pytest.mark.xfail(
    strict=True,
    reason="Statistically unattainable for mu_zeta_y and c_y: along the direction "
    "(mu_zeta_y*c_y const, k_y fixed) the model is invariant except through the "
    "outer sine, whose curvature contributes <= (c_y*atan)^2/6 ~ 1e-4 relative "
    "signal; the 5%-noise weighted Jacobian has singular values ~1e3, 6e2, 4e-3, "
    "so that direction carries essentially no Fisher information and no estimator "
    "pins both factors to 10%. k_y is recovered to ~0.2%. See decisions ledger.",
)
def test_criterion_4_noisy_recovery_all_parameters():
    with Timer() as t:
        medians = _noisy_recovery_medians()
    ok = bool(np.all(medians <= 0.10)) and t.elapsed < 30.0
    report("C4 noisy (median of all parameters within 10%)", ok,
           f"medians mu_zeta_y {medians[0]:.1%}, c_y {medians[1]:.1%}, k_y {medians[2]:.2%}")
    assert ok


def test_criterion_4_noisy_stiffness_diagnostic():
    # diagnostic companion to the xfail above: the identifiable parameter
    # meets the 10% bound with a wide margin
    with Timer() as t:
        medians = _noisy_recovery_medians(n_seeds=20)
    ok = medians[2] <= 0.10 and t.elapsed < 30.0
    report("C4 noisy diagnostic (k_y median within 10%)", ok,
           f"k_y median {medians[2]:.2%}, {t.elapsed:.1f} s")
    assert ok


def _rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


def test_criterion_5_reconstruction_closure(bob, friction_setup, aero_model):
    with Timer() as t:
        worst_channel = ("", 0.0)
        worst_closure = 0.0
        scenarios = [
            (downhill_track(), step_steer_controls(18.0), 18.0),
            (corner_track(), weaving_controls(22.0, amplitude_deg=1.0), 22.0),
        ]
        for track, controls, t_max in scenarios:
            log = simulate(bob, track, controls, friction_setup, aero_model,
                           v0=26.0, dt=0.0025, t_max=t_max)
            run, truth = export_synthetic_telemetry(log, bob, rate=100.0)
            run = derive_channels(run)
            trace = build_axle_trace(run, bob, aero=aero_model)
            sel = trace.valid.copy()
            sel[:5] = sel[-5:] = False  # one-sided derivative ends
            for name in ("f_y_f0", "f_y_r", "f_z_f0", "f_z_r", "f_x_f0"):
                rec = getattr(trace, name)[sel]
                tru = getattr(truth, name)[sel]
                scale = max(_rms(tru), 1.0)
                err = _rms(rec - tru) / scale
                if err > worst_channel[1]:
                    worst_channel = (name, err)
            # momentum re-substitution
            lat = trace.f_y_f0[sel] + trace.f_y_r[sel] - (
                bob.m * _cog_lateral(run, bob)[sel] - trace.f_y_ext[sel])
            yaw = (bob.l_f * trace.f_y_f0[sel] - bob.l_r * trace.f_y_r[sel]
                   - bob.j_zz * run.derived.psi_ddot[sel])
            scale_lat = max(_rms(bob.m * _cog_lateral(run, bob)[sel]), 1.0)
            scale_yaw = max(_rms(bob.j_zz * run.derived.psi_ddot[sel]), 1.0)
            worst_closure = max(worst_closure, _rms(lat) / scale_lat, _rms(yaw) / scale_yaw)
    ok = worst_channel[1] < 5e-3 and worst_closure < 1e-9 and t.elapsed < 10.0
    report("C5 (reconstruction matches simulator truth)", ok,
           f"worst channel {worst_channel[0]} at {worst_channel[1]:.2e} RMS, "
           f"momentum closure {worst_closure:.2e}, {t.elapsed:.1f} s")
    assert ok


def _cog_lateral(run, bob):
    from sleddyn.kinematics import accel_to_cog

    d = run.derived
    return accel_to_cog(
        (run.a_x, run.a_y, run.a_z),
        (run.phi_dot, run.theta_dot, run.psi_dot),
        (d.phi_ddot, d.theta_ddot, d.psi_ddot),
        bob.offset,
    )[1]


def test_criterion_6_icehouse_hidden_slope():
    with Timer() as t:
        slope = np.deg2rad(0.12)
        down = evaluate_glide(simulated_glide(mu=0.004, slope=slope, direction="down"))
        up = evaluate_glide(simulated_glide(mu=0.004, slope=slope, direction="up"))
        recovered = average_bidirectional(up.mu, down.mu)
    ok = abs(recovered - 0.004) < 1e-4 and t.elapsed < 5.0
    report("C6 (bidirectional glide recovers mu to 1e-4)", ok,
           f"recovered {recovered:.6f} (down {down.mu:.6f}, up {up.mu:.6f}), {t.elapsed:.1f} s")
    assert ok


def test_criterion_7_aero_constant():
    model = AeroModel(cx_ax=0.25, air=AirState(p_air=1e5, temperature=280.0))
    ratio = float(drag_area_at_beta(model, np.deg2rad(1.0)) / drag_area_at_beta(model, 0.0))
    chain = round(2.17 * 3.2, 2)
    ok = ratio == pytest.approx(1.0694, abs=1e-12) and chain == 6.94
    report("C7 (yaw-sensitivity constant and derivation chain)", ok,
           f"area ratio {ratio:.6f}, 2.17 x 3.2 = {chain}")
    assert ok


def test_criterion_8_driver_evaluation_sanity(bob, friction_setup, aero_model):
    with Timer() as t:
        track = downhill_track()
        # straight run: every relative loss term vanishes
        log = simulate(bob, track, zero_controls(15.0), friction_setup, aero_model,
                       v0=25.0, dt=0.005, t_max=15.0)
        run, _ = export_synthetic_telemetry(log, bob, rate=100.0)
        run = derive_channels(run)
        trace = build_axle_trace(run, bob, aero=aero_model)
        straight = loss_energies(trace, run, aero_model)[0]
        straight_max = max(abs(straight.de_ice_f), abs(straight.de_ice_r), abs(straight.de_aero))

        losses = {}
        for label, amplitude in (("gentle", 0.5), ("aggressive", 2.0)):
            log = simulate(bob, track, weaving_controls(15.0, amplitude_deg=amplitude),
                           friction_setup, aero_model, v0=25.0, dt=0.005, t_max=15.0)
            run, _ = export_synthetic_telemetry(log, bob, rate=100.0)
            run = derive_channels(run)
            trace = build_axle_trace(run, bob, aero=aero_model)
            losses[label] = loss_energies(trace, run, aero_model)[0]
        ordered = losses["aggressive"].de_ice_f > losses["gentle"].de_ice_f
        additive = losses["aggressive"].de_tot == pytest.approx(
            losses["aggressive"].de_ice_f + losses["aggressive"].de_ice_r
            + losses["aggressive"].de_aero, abs=1e-12)
    ok = straight_max < 1e-6 and ordered and additive and t.elapsed < 10.0
    report("C8 (driver-evaluation sanity)", ok,
           f"straight max |dE| {straight_max:.1e}, front-loss ordering {ordered}, "
           f"additivity exact {additive}, {t.elapsed:.1f} s")
    assert ok


def test_criterion_9_model_comparison(bob, friction_setup, aero_model):
    with Timer() as t:
        log = simulate(bob, downhill_track(), weaving_controls(18.0, amplitude_deg=1.5),
                       friction_setup, aero_model, v0=25.0, dt=0.005, t_max=18.0)
        run, _ = export_synthetic_telemetry(log, bob, rate=100.0)
        run = derive_channels(run)
        trace = build_axle_trace(run, bob, aero=aero_model)
        measured = measured_lateral_cog(trace)
        fitted = model_lateral_cog(trace, LATERAL_FRONT, LATERAL_REAR, run)
        reference = model_lateral_cog(trace, "braghin", "braghin", run)
        rmse_fitted = validate_rmse(fitted, measured, trace.valid)
        rmse_reference = validate_rmse(reference, measured, trace.valid)
    ok = rmse_fitted < rmse_reference and t.elapsed < 10.0
    report("C9 (fitted model beats reference model on own data)", ok,
           f"RMSE fitted {rmse_fitted:.2f} N < reference {rmse_reference:.2f} N, {t.elapsed:.1f} s")
    assert ok


def axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def test_criterion_10_rotation_algebra():
    with Timer() as t:
        rng = np.random.default_rng(2024)
        gammas = rng.uniform(-0.3, 0.3, 10_000)
        deltas = rng.uniform(-0.3, 0.3, 10_000)
        a = rotation_f0_to_f(gammas, deltas)
        ortho = np.max(np.abs(np.einsum("...ji,...jk->...ik", a, a) - np.eye(3)))
        d = rotation_delta(gammas, deltas)
        worst_axis = 0.0
        for i in range(0, 10_000, 97):
            expected = axis_angle((0.0, -np.sin(gammas[i]), np.cos(gammas[i])), deltas[i])
            worst_axis = max(worst_axis, np.max(np.abs(d[i] - expected)))
    ok = ortho < 1e-12 and worst_axis < 1e-12 and t.elapsed < 1.0
    report("C10 (rotation algebra over 1e4 random pairs)", ok,
           f"max |A^T A - I| = {ortho:.2e}, max axis-angle deviation {worst_axis:.2e}, "
           f"{t.elapsed * 1e3:.0f} ms")
    assert ok


def test_criterion_11_convergence_and_energy(bob, friction_setup, aero_model):
    with Timer() as t:
        track = corner_track()
        controls = weaving_controls(20.0, amplitude_deg=1.0)
        logs = {
            dt: simulate(bob, track, controls, friction_setup, aero_model,
                         v0=26.0, dt=dt, t_max=20.0)
            for dt in (0.005, 0.0025)
        }
        dv = abs(logs[0.0025].v[-1] - logs[0.005].v[-1]) / logs[0.0025].v[-1]
        audits = {dt: energy_audit(log) for dt, log in logs.items()}
    ok = dv < 1e-4 and all(a < 5e-4 for a in audits.values()) and t.elapsed < 10.0
    report("C11 (dt convergence and energy audit)", ok,
           f"final-speed change {dv:.2e}, audits {audits[0.005]:.2e}/{audits[0.0025]:.2e}, "
           f"{t.elapsed:.1f} s")
    assert ok
