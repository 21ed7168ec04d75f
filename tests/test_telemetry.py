"""Telemetry ingestion, filtering, resampling, differentiation."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sleddyn
from sleddyn.errors import ConfigError, DataError
from sleddyn.telemetry import (
    CORE_CHANNELS,
    CsvSchema,
    TelemetryMeta,
    TelemetryRun,
    butterworth,
    derive_channels,
    export_csv,
    identity_schema,
    ingest_csv,
    load_schema,
    FILTER_PAD,
    lowpass_filter,
    process,
    resample,
)


def make_run(rate=500.0, duration=4.0, seed=0):
    rng = np.random.default_rng(seed)
    n = int(rate * duration) + 1
    t = np.arange(n) / rate
    channels = {name: rng.normal(scale=0.5, size=n) for name in CORE_CHANNELS}
    channels["v"] = 20.0 + 2.0 * np.sin(2 * np.pi * 0.5 * t)
    return TelemetryRun(t=t, channels=channels, meta=TelemetryMeta())


def write_csv(path, rows, header="t,ax,ay,az,p,q,r,speed,slip,steer,roll"):
    path.write_text(header + "\n" + "\n".join(",".join(str(x) for x in row) for row in rows))


SCHEMA_DEG = CsvSchema(
    columns={
        "t": "t", "a_x": "ax", "a_y": "ay", "a_z": "az",
        "phi_dot": "p", "theta_dot": "q", "psi_dot": "r",
        "v": "speed", "alpha_sensor": "slip", "delta": "steer", "gamma": "roll",
    },
    angle_unit="deg",
)


class TestIngest:
    def test_degree_conversion(self, tmp_path):
        path = tmp_path / "run.csv"
        rows = [
            [0.00, 0.1, 0.2, 9.8, 1.0, 2.0, 3.0, 30.0, 1.0, 2.0, 4.0],
            [0.01, 0.1, 0.2, 9.8, 1.0, 2.0, 3.0, 30.0, 1.0, 2.0, 4.0],
            [0.02, 0.1, 0.2, 9.8, 1.0, 2.0, 3.0, 30.0, 1.0, 2.0, 4.0],
        ]
        write_csv(path, rows)
        run = ingest_csv(path, SCHEMA_DEG)
        assert len(run) == 3
        assert run.alpha_sensor[0] == pytest.approx(np.deg2rad(1.0))
        assert run.delta[0] == pytest.approx(np.deg2rad(2.0))
        assert run.gamma[0] == pytest.approx(np.deg2rad(4.0))
        assert run.phi_dot[0] == pytest.approx(np.deg2rad(1.0))
        assert run.a_x[0] == pytest.approx(0.1)  # accelerations untouched
        assert run.v[0] == pytest.approx(30.0)

    def test_nonmonotonic_time_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [[0.00] + [0.0] * 10, [0.01] + [0.0] * 10, [0.005] + [0.0] * 10]
        write_csv(path, rows)
        with pytest.raises(DataError, match="line 4"):
            ingest_csv(path, SCHEMA_DEG)

    @pytest.mark.parametrize("bad_row, message", [
        ("0.02,0,nan,0,0,0,0,1,0,0,0", "non-finite value at line 6$"),
        ("0.005,0,0,0,0,0,0,1,0,0,0", "time not strictly increasing at line 6$"),
        ("0.02,0,0,0,0,0,0,-1,0,0,0", "bad.csv: negative speed at line 6$"),
    ], ids=["non-finite", "time", "negative-speed"])
    def test_row_check_names_file_line_past_skipped_lines(self, tmp_path, bad_row, message):
        # the blank and comment lines are not data rows, but they are file lines
        path = tmp_path / "bad.csv"
        path.write_text("t,ax,ay,az,p,q,r,speed,slip,steer,roll\n"
                        "0.0,0,0,0,0,0,0,1,0,0,0\n0.01,0,0,0,0,0,0,1,0,0,0\n\n# note\n"
                        f"{bad_row}\n0.03,0,0,0,0,0,0,1,0,0,0\n")
        with pytest.raises(DataError, match=message):
            ingest_csv(path, SCHEMA_DEG)

    def test_unparsable_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "t,ax,ay,az,p,q,r,speed,slip,steer,roll\n"
            "0.0,0,0,0,0,0,0,1,0,0,0\n"
            "0.1,0,oops,0,0,0,0,1,0,0,0\n"
        )
        with pytest.raises(DataError, match="bad.csv:3"):
            ingest_csv(path, SCHEMA_DEG)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,ax\n0.0,0.1\n")
        with pytest.raises(DataError, match="missing mapped columns"):
            ingest_csv(path, SCHEMA_DEG)

    def test_native_rate_retained(self, tmp_path):
        path = tmp_path / "fast.csv"
        rows = [[i / 500.0] + [0.0] * 9 + [1.0] for i in range(100)]
        # column order: t + 10 channels; keep v (index 7) positive
        rows = [[i / 500.0, 0, 0, 0, 0, 0, 0, 5.0, 0, 0, 0] for i in range(100)]
        write_csv(path, rows)
        run = ingest_csv(path, SCHEMA_DEG)
        assert run.native_rate() == pytest.approx(500.0, rel=1e-6)

    def test_schema_file_round_trip(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"columns": SCHEMA_DEG.columns, "angle_unit": "deg"}))
        loaded = load_schema(path)
        assert loaded == SCHEMA_DEG

    def test_schema_missing_mapping_rejected(self):
        with pytest.raises(ValueError):
            CsvSchema(columns={"t": "t"})


class TestExportRoundTrip:
    def test_bit_identical_round_trip(self, tmp_path):
        run = make_run(rate=100.0, duration=1.0, seed=3)
        path = tmp_path / "out.csv"
        export_csv(run, path)
        back = ingest_csv(path, identity_schema())
        assert np.array_equal(back.t, run.t)
        for name in CORE_CHANNELS:
            assert np.array_equal(back.channels[name], run.channels[name]), name

    def test_round_trip_in_degrees(self, tmp_path):
        run = make_run(rate=100.0, duration=1.0, seed=4)
        path = tmp_path / "deg.csv"
        export_csv(run, path, identity_schema(angle_unit="deg"))
        back = ingest_csv(path, identity_schema(angle_unit="deg"))
        for name in CORE_CHANNELS:
            assert np.allclose(back.channels[name], run.channels[name], rtol=1e-15), name


class TestLowpass:
    def test_constant_channel_invariant(self):
        run = make_run()
        channels = {name: np.full(len(run), 3.7) for name in CORE_CHANNELS}
        flat = TelemetryRun(t=run.t, channels=channels, meta=run.meta)
        out = lowpass_filter(flat, 20.0)
        for name in CORE_CHANNELS:
            assert np.allclose(out.channels[name], 3.7, atol=1e-9)

    def test_passband_amplitude_preserved(self):
        # unit sinusoid at cutoff/10 through the order-2 zero-phase filter:
        # |H|^2 = 1/(1 + (f/fc)^4) applied twice -> 0.9999 at 0.1 fc
        rate, cutoff = 500.0, 20.0
        n = 5001
        t = np.arange(n) / rate
        wave = np.sin(2 * np.pi * (cutoff / 10.0) * t)
        channels = {name: wave.copy() for name in CORE_CHANNELS}
        channels["v"] = 10.0 + wave
        run = TelemetryRun(t=t, channels=channels, meta=TelemetryMeta())
        out = lowpass_filter(run, cutoff)
        mid = slice(n // 4, 3 * n // 4)
        amplitude = np.ptp(out.a_x[mid]) / 2.0
        assert amplitude == pytest.approx(1.0, abs=0.01)

    def test_noise_variance_reduced(self):
        run = make_run(seed=12)
        out = lowpass_filter(run, 20.0)
        assert np.var(out.a_y) < np.var(run.a_y)

    def test_zero_phase_on_slow_sine(self):
        rate = 500.0
        t = np.arange(2501) / rate
        wave = np.sin(2 * np.pi * 1.0 * t)
        channels = {name: wave.copy() for name in CORE_CHANNELS}
        channels["v"] = np.full(t.size, 5.0)
        run = TelemetryRun(t=t, channels=channels, meta=TelemetryMeta())
        out = lowpass_filter(run, 20.0)
        # an in-band sine passes essentially unchanged: no phase lag
        mid = slice(200, 2300)
        assert np.allclose(out.a_x[mid], wave[mid], atol=1e-3)

    def test_cutoff_above_nyquist_rejected(self):
        run = make_run(rate=100.0)
        with pytest.raises(ConfigError):
            lowpass_filter(run, 50.0)

    def test_speed_clipped_at_zero_after_standstill(self):
        # 2 s at rest, then 5 m/s^2: the filter rings below zero before the start
        rate = 500.0
        t = np.arange(2501) / rate
        channels = {name: np.zeros(t.size) for name in CORE_CHANNELS}
        channels["v"] = channels["a_x"] = np.maximum(0.0, 5.0 * (t - 2.0))
        run = TelemetryRun(t=t, channels=channels, meta=TelemetryMeta())
        out = lowpass_filter(run, 20.0)
        raw = out.a_x  # the same samples in a channel that is not clipped
        assert raw.min() < 0
        v = out.v
        assert np.array_equal(v[raw >= 0], raw[raw >= 0])
        assert np.all(v[raw < 0] == 0.0)
        assert process(run, cutoff=20.0).v.min() == 0.0


def reference_filtfilt(x, b, a):
    """filtfilt of each row of ``x`` by the direct-form recursion, in np.longdouble from the float coefficients."""
    ld = np.longdouble
    b0, b1, b2 = (ld(v) for v in b)
    a1, a2 = ld(a[1]), ld(a[2])
    c1, c2 = b1 - a1 * b0, b2 - a2 * b0
    det = 1 + a1 + a2  # the state a unit step settles in: (I - A) zi = (c1, c2)
    zi = ((c1 + c2) / det, (-a2 * c1 + (1 + a1) * c2) / det)
    x = x.astype(ld)
    ext = np.concatenate([2 * x[:, :1] - x[:, FILTER_PAD:0:-1], x,
                          2 * x[:, -1:] - x[:, -2:-FILTER_PAD - 2:-1]], axis=1)

    def causal(u, scale):
        z1, z2 = zi[0] * scale, zi[1] * scale
        y = np.empty_like(u)
        for k in range(u.shape[1]):
            y[:, k] = b0 * u[:, k] + z1
            z1, z2 = b1 * u[:, k] - a1 * y[:, k] + z2, b2 * u[:, k] - a2 * y[:, k]
        return y

    y = causal(ext, ext[:, 0])
    y = causal(y[:, ::-1], y[:, -1])[:, ::-1]
    return y[:, FILTER_PAD:-FILTER_PAD].astype(float)


def filter_inputs(rate=500.0, n=5001):
    """Ten channels of offsets, noise, a slow sine and a step, the speed positive so it is not clipped."""
    rng = np.random.default_rng(7)
    t = np.arange(n) / rate
    rows = [rng.normal(scale=0.5, size=n) + 3.0 * i for i in range(len(CORE_CHANNELS))]
    rows[1] = 2.0 * np.sin(2 * np.pi * 0.7 * t) + rng.normal(scale=0.1, size=n)
    rows[2] = np.where(t > 3.0, -9.81, 0.0) + rng.normal(scale=0.2, size=n)
    rows[CORE_CHANNELS.index("v")] = 25.0 + rng.normal(size=n)
    return TelemetryRun(t=t, channels=dict(zip(CORE_CHANNELS, rows)), meta=TelemetryMeta())


class TestButterworthFilter:
    @pytest.mark.parametrize("cutoff, rate", [(0.5, 500.0), (2.0, 500.0), (20.0, 500.0), (200.0, 500.0),
                                              (20.0, 100.0), (5.0, 100.0)])
    def test_coefficients_match_scipy(self, cutoff, rate):
        from scipy.signal import butter

        b, a = butterworth(cutoff, rate)
        ref_b, ref_a = butter(2, cutoff, fs=rate)
        for ours, ref in ((b, ref_b), (a, ref_a)):
            assert np.all(np.abs(np.array(ours) - ref) <= 4 * np.spacing(np.abs(ref))), (ours, ref)

    @pytest.mark.parametrize("cutoff, bound", [(200.0, 1e-14), (20.0, 1e-14), (2.0, 1e-13), (0.5, 1e-11)])
    def test_matches_long_double_reference(self, cutoff, bound):
        run = filter_inputs()
        out = lowpass_filter(run, cutoff)
        ref = reference_filtfilt(np.stack(list(run.channels.values())), *butterworth(cutoff, run.native_rate()))
        for name, expected in zip(CORE_CHANNELS, ref):
            error = np.max(np.abs(out.channels[name] - expected)) / np.max(np.abs(expected))
            assert error <= bound, (name, error)

    def test_bytes_do_not_depend_on_blas_threads(self):
        code = ("import hashlib, sys; sys.path.insert(0, sys.argv[1]); import test_telemetry as tt; "
                "out = tt.lowpass_filter(tt.filter_inputs(), 20.0); "
                "print(hashlib.sha256(b''.join(out.channels[n].tobytes() for n in tt.CORE_CHANNELS)).hexdigest())")
        digests = set()
        for threads in ("1", "2", "4"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": str(Path(sleddyn.__file__).parents[1])}
            proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)], capture_output=True,
                                  text=True, env=env, check=True, timeout=120)
            digests.add(proc.stdout.strip())
        out = lowpass_filter(filter_inputs(), 20.0)
        digests.add(hashlib.sha256(b"".join(out.channels[n].tobytes() for n in CORE_CHANNELS)).hexdigest())
        assert len(digests) == 1

    def test_overflow_is_data_error_naming_the_channel(self):
        run = filter_inputs(n=200)
        channels = dict(run.channels)
        channels["a_y"] = 1.7e308 * (-1.0) ** np.arange(len(run))
        with pytest.raises(DataError, match="^the low-pass filter overflows on channel a_y$"):
            lowpass_filter(TelemetryRun(t=run.t, channels=channels, meta=run.meta), 20.0)

    def test_cutoff_too_low_for_double_precision_rejected(self):
        with pytest.raises(ConfigError, match="too far below the 100 Hz rate"):
            lowpass_filter(make_run(rate=100.0), 1e-7)

    def test_cutoff_whose_gain_at_dc_is_not_one_rejected(self):
        # at 1e-4 Hz of 500 Hz the rounded coefficients would scale a constant by about 1 - 2.9e-5
        run = make_run(rate=500.0)
        run = TelemetryRun(t=run.t, channels={name: np.full(len(run), 5.0) for name in CORE_CHANNELS},
                           meta=run.meta)
        with pytest.raises(ConfigError, match="too far below the 500 Hz rate"):
            lowpass_filter(run, 1e-4)
        for values in lowpass_filter(run, 0.5).channels.values():
            np.testing.assert_allclose(values, 5.0, rtol=1e-10, atol=0)


class TestResample:
    def test_500_to_100(self):
        run = make_run(rate=500.0, duration=4.0)
        out = resample(run, 100.0)
        assert len(out) == pytest.approx(len(run) / 5, abs=1)
        assert np.allclose(np.diff(out.t), 0.01)

    def test_identity_at_same_rate(self):
        run = make_run(rate=100.0, duration=2.0)
        out = resample(run, 100.0)
        assert np.allclose(out.t, run.t, atol=1e-12)
        assert np.allclose(out.a_x, run.a_x, atol=1e-12)

    def test_linear_ramp_exact(self):
        run = make_run(rate=500.0, duration=2.0)
        ramp = 2.0 + 3.0 * run.t
        channels = dict(run.channels)
        channels["a_x"] = ramp
        run2 = TelemetryRun(t=run.t, channels=channels, meta=run.meta)
        out = resample(run2, 100.0)
        assert np.allclose(out.a_x, 2.0 + 3.0 * out.t, atol=1e-12)

    def test_upsampling_rejected(self):
        run = make_run(rate=100.0)
        with pytest.raises(ConfigError):
            resample(run, 200.0)


class TestDerive:
    def test_constant_rate_zero_accel(self):
        run = make_run(rate=100.0)
        channels = dict(run.channels)
        channels["psi_dot"] = np.full(len(run), 0.3)
        out = derive_channels(TelemetryRun(t=run.t, channels=channels, meta=run.meta))
        assert np.allclose(out.derived.psi_ddot, 0.0, atol=1e-12)

    def test_linear_rate_constant_accel(self):
        run = make_run(rate=100.0)
        channels = dict(run.channels)
        channels["psi_dot"] = 0.25 * run.t
        out = derive_channels(TelemetryRun(t=run.t, channels=channels, meta=run.meta))
        assert np.allclose(out.derived.psi_ddot, 0.25, atol=1e-9)

    def test_constant_speed_distance(self):
        rate = 100.0
        t = np.arange(int(10 * rate) + 1) / rate
        channels = {name: np.zeros(t.size) for name in CORE_CHANNELS}
        channels["v"] = np.full(t.size, 10.0)
        out = derive_channels(TelemetryRun(t=t, channels=channels, meta=TelemetryMeta()))
        assert out.derived.s[-1] == pytest.approx(100.0)
        assert np.all(np.diff(out.derived.s) >= 0)
        assert out.derived.s[0] == 0.0

    def test_too_short_rejected(self):
        t = np.array([0.0, 0.01])
        channels = {name: np.zeros(2) for name in CORE_CHANNELS}
        with pytest.raises(DataError):
            derive_channels(TelemetryRun(t=t, channels=channels))


class TestProperties:
    def test_filter_then_resample_constant(self):
        t = np.arange(2001) / 500.0
        channels = {name: np.full(t.size, 1.25) for name in CORE_CHANNELS}
        run = TelemetryRun(t=t, channels=channels, meta=TelemetryMeta())
        out = resample(lowpass_filter(run, 20.0), 100.0)
        for name in CORE_CHANNELS:
            assert np.allclose(out.channels[name], 1.25, atol=1e-9)

    def test_speed_scaling_commutes_with_distance(self):
        run = make_run(rate=500.0, duration=3.0, seed=8)
        factor = 1.7
        scaled_channels = dict(run.channels)
        scaled_channels["v"] = run.v * factor
        scaled = TelemetryRun(t=run.t, channels=scaled_channels, meta=run.meta)
        s_base = derive_channels(resample(run, 100.0)).derived.s
        s_scaled = derive_channels(resample(scaled, 100.0)).derived.s
        assert np.allclose(s_scaled, factor * s_base, rtol=1e-12)

    def test_immutability(self):
        run = make_run()
        with pytest.raises(ValueError):
            run.a_x[0] = 99.0

    def test_process_pipeline(self):
        run = make_run(rate=500.0, duration=3.0)
        out = process(run, cutoff=20.0, rate=100.0)
        assert out.derived is not None
        assert out.native_rate() == pytest.approx(100.0)
