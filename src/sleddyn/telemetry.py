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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, reading
from .tables import check_rows, read_table, write_table

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
        return CsvSchema(columns=dict(raw["columns"]),
                         **{key: raw[key] for key in ("angle_unit",) if key in raw})


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
    t = data["t"]
    check_rows(path, table, (~np.isfinite(table.data).all(axis=1), "non-finite value"),
               (data["v"] < 0, "negative speed"),
               # t[i] <= t[i - 1]: name the later sample
               (np.concatenate(([False], t[1:] <= t[:-1])), "time not strictly increasing"))
    channels = _scaled(data, np.pi / 180.0 if schema.angle_unit == "deg" else 1.0)
    meta = TelemetryMeta(**{key: meta_fields[key] for key in ("driver", "track") if key in meta_fields})
    return TelemetryRun(t=t, channels=channels, meta=meta)


def export_csv(run: TelemetryRun, path, schema: CsvSchema | None = None,
               header_comments: list[str] | None = None) -> None:
    """Write a run back to CSV, mirroring the ingest format.

    Floats are written with repr so a round trip reproduces every
    channel bit-identically.
    """
    write_table(path, export_columns(run, schema), export_comments(run, header_comments))


def export_columns(run: TelemetryRun, schema: CsvSchema | None = None) -> dict[str, np.ndarray]:
    """The columns ``export_csv`` writes, in order: each one's name in ``schema`` -> its values in the file's unit."""
    schema = schema or identity_schema()
    scaled = _scaled(run.channels, 180.0 / np.pi if schema.angle_unit == "deg" else 1.0)
    return {schema.columns["t"]: run.t, **{schema.columns[name]: arr for name, arr in scaled.items()}}


def export_comments(run: TelemetryRun, header_comments: list[str] | None = None) -> list[str]:
    """The comment lines ``export_csv`` writes: ``header_comments``, then the run's metadata."""
    comments = list(header_comments or [])
    if run.meta.driver:
        comments.append(f"meta driver = {run.meta.driver}")
    if run.meta.track:
        comments.append(f"meta track = {run.meta.track}")
    return comments


def _scaled(channels, scale: float) -> dict[str, np.ndarray]:
    """The core channels of ``channels``, the angles and angular rates multiplied by ``scale``."""
    return {name: channels[name] * scale if name in ANGLE_CHANNELS or name in RATE_CHANNELS else channels[name]
            for name in CORE_CHANNELS}


# ---------------------------------------------------------------------------
# processing


def lowpass_filter(run: TelemetryRun, cutoff: float = DEFAULT_CUTOFF_HZ) -> TelemetryRun:
    """Zero-phase second-order Butterworth low-pass on every channel.

    The filter runs forward and backward (no phase shift) with the
    default odd-reflection padding at the ends. The cutoff must stay
    below the Nyquist frequency of the run's grid, and a run no longer
    than that padding is a DataError. The filtered speed is
    clipped at 0: it is a magnitude, and ringing after a standstill
    would otherwise make it negative.
    """
    rate = run.native_rate()
    if cutoff >= rate / 2.0:
        raise ConfigError(f"cutoff {cutoff} Hz >= Nyquist ({rate / 2.0:.6g} Hz)")
    # imported here: scipy.signal costs about a second, and only this function needs it
    from scipy.signal import butter, filtfilt

    b, a = butter(2, cutoff, fs=rate)
    padlen = 3 * max(len(a), len(b))  # filtfilt's default
    if len(run) <= padlen:
        raise DataError(f"{len(run)} samples are too few for the low-pass filter, which needs more "
                        f"than {padlen} (cutoff_hz = 0 turns it off)")
    channels = {name: filtfilt(b, a, arr) for name, arr in run.channels.items()}
    channels["v"] = np.where(channels["v"] < 0, 0.0, channels["v"])
    return TelemetryRun(t=run.t, channels=channels, meta=run.meta)


def resample(run: TelemetryRun, rate: float = DEFAULT_RATE_HZ) -> TelemetryRun:
    """Linear interpolation onto a uniform grid at the given rate [Hz].

    Only downsampling (or keeping the rate) is supported; upsampling
    would fabricate bandwidth that was never measured. A grid too large
    to allocate, or for numpy to index, is a DataError giving its size.
    """
    native = run.native_rate()
    if rate > native * (1.0 + 1e-9):
        raise ConfigError(f"cannot resample {native:.6g} Hz data up to {rate} Hz")
    n = np.floor(run.duration * rate + 1e-9) + 1  # a float: inf for a far enough last time stamp
    try:
        t_new = run.t[0] + np.arange(int(n)) / rate
        channels = {name: np.interp(t_new, run.t, arr) for name, arr in run.channels.items()}
    except (MemoryError, OverflowError, ValueError):  # ValueError: numpy's "Maximum allowed size exceeded"
        raise DataError(f"the {rate:g} Hz grid of {n:.0f} samples over {run.duration:.6g} s "
                        "is too large to allocate") from None
    return TelemetryRun(t=t_new, channels=channels, meta=run.meta)


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
