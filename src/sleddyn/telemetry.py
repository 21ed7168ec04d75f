"""Telemetry ingestion, filtering, resampling, and derived channels.

A run is stored column-wise as immutable numpy arrays (one per sensor
channel) plus metadata. CSV files map onto channels through a small
JSON schema that names the columns and declares whether angles (and
angular rates) are logged in degrees or radians; internally everything
is SI and radians.

Processing order for track data: zero-phase low-pass filter at the
native rate, resample to the analysis rate (100 Hz by default), then
differentiate rates and integrate speed into distance. Filtering is
zero-phase (second-order Butterworth run forward and backward) so
forces and slip angles stay aligned in time; differentiation uses
central differences, one-sided at the ends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, reading
from .tables import data_line, read_table, write_table

#: Channels every run must provide, in canonical order.
CORE_CHANNELS = (
    "a_x", "a_y", "a_z",
    "phi_dot", "theta_dot", "psi_dot",
    "v", "alpha_sensor", "delta", "gamma",
)

#: Channels read as angles (converted from degrees when the schema says so).
ANGLE_CHANNELS = ("alpha_sensor", "delta", "gamma")
RATE_CHANNELS = ("phi_dot", "theta_dot", "psi_dot")

DEFAULT_RATE_HZ = 100.0
DEFAULT_CUTOFF_HZ = 20.0


@dataclass(frozen=True)
class DerivedChannels:
    """Angular accelerations [rad/s^2] and cumulative distance [m]."""

    phi_ddot: np.ndarray
    theta_ddot: np.ndarray
    psi_ddot: np.ndarray
    s: np.ndarray


@dataclass(frozen=True)
class TelemetryMeta:
    driver: str = ""
    track: str = ""
    rate_hz: float = DEFAULT_RATE_HZ


def _freeze(arr) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TelemetryRun:
    """Time-indexed sensor channels for one run; immutable after creation."""

    t: np.ndarray
    channels: dict[str, np.ndarray]
    meta: TelemetryMeta = field(default_factory=TelemetryMeta)
    derived: DerivedChannels | None = None

    def __post_init__(self):
        t = _freeze(self.t)
        if t.ndim != 1 or t.size < 1:
            raise DataError("time vector must be a non-empty 1-d array")
        bad = np.nonzero(np.diff(t) <= 0)[0]
        if bad.size:
            raise DataError(f"time must be strictly increasing; violated at sample {bad[0] + 1}")
        chans = {}
        for name in CORE_CHANNELS:
            if name not in self.channels:
                raise DataError(f"missing mandatory channel {name!r}")
            arr = _freeze(self.channels[name])
            if arr.shape != t.shape:
                raise DataError(f"channel {name!r} length {arr.size} != time length {t.size}")
            chans[name] = arr
        if np.any(chans["v"] < 0):
            raise DataError("speed must be non-negative")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "channels", chans)

    def __len__(self) -> int:
        return self.t.size

    def __getattr__(self, name):
        # channel access as attributes: run.a_y, run.psi_dot, ...
        channels = object.__getattribute__(self, "channels")
        if name in channels:
            return channels[name]
        raise AttributeError(name)

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])

    def native_rate(self) -> float:
        """Median sample rate of the stored grid [Hz]."""
        if self.t.size < 2:
            raise DataError("need at least two samples to estimate a rate")
        return 1.0 / float(np.median(np.diff(self.t)))


# ---------------------------------------------------------------------------
# CSV schema


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping and unit declaration for telemetry CSV files.

    ``columns`` maps "t" and the core channel names to CSV column
    headers; any other key is ignored. ``angle_unit`` is "rad" or "deg" and also covers the
    angular-rate channels (deg -> deg/s).
    """

    columns: dict[str, str]
    angle_unit: str = "rad"

    def __post_init__(self):
        if self.angle_unit not in ("rad", "deg"):
            raise ValueError(f"angle_unit must be 'rad' or 'deg', got {self.angle_unit!r}")
        missing = [k for k in ("t", *CORE_CHANNELS) if k not in self.columns]
        if missing:
            raise ValueError(f"schema missing column mappings: {', '.join(missing)}")
        columns = list(self.columns.values())
        shared = sorted({c for c in columns if columns.count(c) > 1})
        if shared:
            raise ValueError(f"schema maps several channels to one column: {', '.join(shared)}")


def identity_schema(angle_unit: str = "rad") -> CsvSchema:
    return CsvSchema(columns={"t": "t", **{c: c for c in CORE_CHANNELS}}, angle_unit=angle_unit)


def load_schema(path) -> CsvSchema:
    with reading(path, ConfigError):
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return CsvSchema(columns=dict(raw["columns"]), angle_unit=raw.get("angle_unit", "rad"))


def ingest_csv(path, schema: CsvSchema) -> TelemetryRun:
    """Read one run from CSV, converting to SI units and radians.

    Leading ``#`` lines are treated as comments; ``# meta key = value``
    lines populate the run metadata (driver, track); the rate comes from
    the time column. Raises DataError naming the file line for unparsable
    rows, non-finite values, negative speeds and non-monotonic time stamps.
    """
    names = ["t", *CORE_CHANNELS]
    table = read_table(path, [schema.columns[n] for n in names])
    data = dict(zip(names, table.data.T))
    meta_fields: dict[str, str] = {}
    for comment in table.comments:
        if comment.startswith("meta ") and "=" in comment:
            key, _, value = comment[5:].partition("=")
            meta_fields[key.strip()] = value.strip()
    bad = np.nonzero(~np.isfinite(table.data).all(axis=1))[0]
    if bad.size:
        raise DataError(f"{path}: non-finite value at line {data_line(path, table.header_line, bad[0])}")
    bad = np.nonzero(data["v"] < 0)[0]
    if bad.size:
        raise DataError(f"{path}: negative speed at line {data_line(path, table.header_line, bad[0])}")
    t = data["t"]
    bad = np.nonzero(np.diff(t) <= 0)[0]
    if bad.size:
        # t[bad[0] + 1] <= t[bad[0]]: name the later sample
        line = data_line(path, table.header_line, bad[0] + 1)
        raise DataError(f"{path}: time not strictly increasing at line {line}")
    scale = np.pi / 180.0 if schema.angle_unit == "deg" else 1.0
    channels = {}
    for name in CORE_CHANNELS:
        arr = data[name]
        if name in ANGLE_CHANNELS or name in RATE_CHANNELS:
            arr = arr * scale
        channels[name] = arr
    meta = TelemetryMeta(
        driver=meta_fields.get("driver", ""),
        track=meta_fields.get("track", ""),
        rate_hz=1.0 / float(np.median(np.diff(t))) if t.size > 1 else DEFAULT_RATE_HZ,
    )
    return TelemetryRun(t=t, channels=channels, meta=meta)


def export_csv(run: TelemetryRun, path, schema: CsvSchema | None = None,
               header_comments: list[str] | None = None) -> None:
    """Write a run back to CSV, mirroring the ingest format.

    Floats are written with repr so a round trip reproduces every
    channel bit-identically.
    """
    schema = schema or identity_schema()
    scale = 180.0 / np.pi if schema.angle_unit == "deg" else 1.0
    cols = {schema.columns["t"]: run.t}
    for name in CORE_CHANNELS:
        arr = run.channels[name]
        if name in ANGLE_CHANNELS or name in RATE_CHANNELS:
            arr = arr * scale
        cols[schema.columns[name]] = arr
    comments = list(header_comments or [])
    if run.meta.driver:
        comments.append(f"meta driver = {run.meta.driver}")
    if run.meta.track:
        comments.append(f"meta track = {run.meta.track}")
    write_table(path, cols, comments)


# ---------------------------------------------------------------------------
# processing


def lowpass_filter(run: TelemetryRun, cutoff: float = DEFAULT_CUTOFF_HZ) -> TelemetryRun:
    """Zero-phase second-order Butterworth low-pass on every channel.

    The filter runs forward and backward (no phase shift) with the
    default odd-reflection padding at the ends. The cutoff must stay
    below the Nyquist frequency of the run's grid. The filtered speed is
    clipped at 0: it is a magnitude, and ringing after a standstill
    would otherwise make it negative.
    """
    rate = run.native_rate()
    if cutoff >= rate / 2.0:
        raise ConfigError(f"cutoff {cutoff} Hz >= Nyquist ({rate / 2.0:.6g} Hz)")
    # imported here: scipy.signal costs about a second, and only this function needs it
    from scipy.signal import butter, filtfilt

    b, a = butter(2, cutoff, fs=rate)
    channels = {name: filtfilt(b, a, arr) for name, arr in run.channels.items()}
    channels["v"] = np.where(channels["v"] < 0, 0.0, channels["v"])
    return TelemetryRun(t=run.t, channels=channels, meta=run.meta)


def resample(run: TelemetryRun, rate: float = DEFAULT_RATE_HZ) -> TelemetryRun:
    """Linear interpolation onto a uniform grid at the given rate [Hz].

    Only downsampling (or keeping the rate) is supported; upsampling
    would fabricate bandwidth that was never measured.
    """
    native = run.native_rate()
    if rate > native * (1.0 + 1e-9):
        raise ConfigError(f"cannot resample {native:.6g} Hz data up to {rate} Hz")
    n = int(np.floor(run.duration * rate + 1e-9)) + 1
    t_new = run.t[0] + np.arange(n) / rate
    channels = {name: np.interp(t_new, run.t, arr) for name, arr in run.channels.items()}
    return TelemetryRun(t=t_new, channels=channels, meta=replace(run.meta, rate_hz=rate))


def derive_channels(run: TelemetryRun) -> TelemetryRun:
    """Attach angular accelerations and cumulative distance.

    Central differences for the rates (one-sided at the endpoints,
    exact for affine signals) and trapezoidal integration of speed over
    time for the distance, anchored at s(0) = 0.
    """
    if len(run) < 3:
        raise DataError("need at least 3 samples to differentiate")
    t = run.t
    derived = DerivedChannels(
        phi_ddot=_freeze(np.gradient(run.phi_dot, t)),
        theta_ddot=_freeze(np.gradient(run.theta_dot, t)),
        psi_ddot=_freeze(np.gradient(run.psi_dot, t)),
        s=_freeze(cumulative_trapezoid(run.v, t)),
    )
    return TelemetryRun(t=run.t, channels=dict(run.channels), meta=run.meta, derived=derived)


def cumulative_trapezoid(y, x) -> np.ndarray:
    """Trapezoidal integral of ``y`` over ``x`` from ``x[0]`` to each sample, starting at 0."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])


def process(run: TelemetryRun, cutoff: float | None = DEFAULT_CUTOFF_HZ,
            rate: float = DEFAULT_RATE_HZ) -> TelemetryRun:
    """Filter (optional), resample, and derive: the standard pipeline."""
    if cutoff is not None:
        run = lowpass_filter(run, cutoff)
    run = resample(run, rate)
    return derive_channels(run)
