"""Telemetry ingestion, filtering, resampling, differentiation."""

import json

import numpy as np
import pytest

from sleddyn.errors import ConfigError, DataError
from sleddyn.telemetry import (
    CORE_CHANNELS,
    CsvSchema,
    TelemetryMeta,
    TelemetryRun,
    derive_channels,
    export_csv,
    identity_schema,
    ingest_csv,
    load_schema,
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
    return TelemetryRun(t=t, channels=channels, meta=TelemetryMeta(rate_hz=rate))


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
        run = TelemetryRun(t=t, channels=channels, meta=TelemetryMeta(rate_hz=rate))
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
        run = TelemetryRun(t=t, channels=channels, meta=TelemetryMeta(rate_hz=rate))
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
        from scipy.signal import butter, filtfilt

        rate = 500.0
        t = np.arange(2501) / rate
        channels = {name: np.zeros(t.size) for name in CORE_CHANNELS}
        channels["v"] = np.maximum(0.0, 5.0 * (t - 2.0))
        run = TelemetryRun(t=t, channels=channels, meta=TelemetryMeta(rate_hz=rate))
        raw = filtfilt(*butter(2, 20.0, fs=run.native_rate()), channels["v"])
        assert raw.min() < 0
        v = lowpass_filter(run, 20.0).v
        assert np.array_equal(v[raw >= 0], raw[raw >= 0])
        assert np.all(v[raw < 0] == 0.0)
        assert process(run, cutoff=20.0).v.min() == 0.0


class TestResample:
    def test_500_to_100(self):
        run = make_run(rate=500.0, duration=4.0)
        out = resample(run, 100.0)
        assert len(out) == pytest.approx(len(run) / 5, abs=1)
        assert np.allclose(np.diff(out.t), 0.01)
        assert out.meta.rate_hz == 100.0

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
        out = derive_channels(TelemetryRun(t=t, channels=channels, meta=TelemetryMeta(rate_hz=rate)))
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
        run = TelemetryRun(t=t, channels=channels, meta=TelemetryMeta(rate_hz=500.0))
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
        assert out.meta.rate_hz == 100.0
