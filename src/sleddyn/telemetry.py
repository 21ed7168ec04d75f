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

import functools
import json
import math
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
#: Samples of odd reflection the low-pass filter adds at each end: ``scipy.signal.filtfilt``'s
#: default for a second-order filter.
FILTER_PAD = 9
#: Samples per block of the low-pass filter: one matrix product filters a block of every channel.
_BLOCK = 64
#: The largest relative error of the low-pass filter's gain at DC that a cutoff may give: below
#: about 1e-4 of the rate, the rounded coefficients of some cutoffs scale every channel by more.
_DC_GAIN_TOLERANCE = 1e-9


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
    write_table(path, export_columns(run, schema), export_comments(run.meta, header_comments))


def export_columns(run: TelemetryRun, schema: CsvSchema | None = None) -> dict[str, np.ndarray]:
    """The columns ``export_csv`` writes, in order: each one's name in ``schema`` -> its values in the file's unit."""
    schema = schema or identity_schema()
    scaled = _scaled(run.channels, 180.0 / np.pi if schema.angle_unit == "deg" else 1.0)
    return {schema.columns["t"]: run.t, **{schema.columns[name]: arr for name, arr in scaled.items()}}


def export_comments(meta: TelemetryMeta, header_comments: list[str] | None = None) -> list[str]:
    """The comment lines ``export_csv`` writes: ``header_comments``, then the run's metadata ``meta``."""
    comments = list(header_comments or [])
    if meta.driver:
        comments.append(f"meta driver = {meta.driver}")
    if meta.track:
        comments.append(f"meta track = {meta.track}")
    return comments


def _scaled(channels, scale: float) -> dict[str, np.ndarray]:
    """The core channels of ``channels``, the angles and angular rates multiplied by ``scale``."""
    return {name: channels[name] * scale if name in ANGLE_CHANNELS or name in RATE_CHANNELS else channels[name]
            for name in CORE_CHANNELS}


# ---------------------------------------------------------------------------
# processing


def lowpass_filter(run: TelemetryRun, cutoff: float = DEFAULT_CUTOFF_HZ) -> TelemetryRun:
    """Zero-phase second-order Butterworth low-pass on every channel.

    The filter runs forward and backward (no phase shift) with
    ``FILTER_PAD`` samples of odd reflection at each end, as
    ``scipy.signal.filtfilt`` does by default, on all channels at once
    (``_zero_phase``). The cutoff must stay below the Nyquist frequency of
    the run's grid, and high enough that the rounded coefficients keep
    the gain at DC within ``_DC_GAIN_TOLERANCE`` of 1. A run no
    longer than the padding is a DataError, as is a channel whose values
    come so close to the float maximum that the filter overflows. The
    filtered speed is clipped at 0: it is a magnitude, and ringing after
    a standstill would otherwise make it negative.
    """
    rate = run.native_rate()
    if cutoff >= rate / 2.0:
        raise ConfigError(f"cutoff {cutoff} Hz >= Nyquist ({rate / 2.0:.6g} Hz)")
    if len(run) <= FILTER_PAD:
        raise DataError(f"{len(run)} samples are too few for the low-pass filter, which needs more "
                        f"than {FILTER_PAD} (cutoff_hz = 0 turns it off)")
    # an overflow leaves its channel non-finite (no linear step makes inf finite again), so the check
    # below names it; numpy's flags would not, nor see an overflow inside a BLAS thread
    with np.errstate(over="ignore", invalid="ignore"):
        filtered = _zero_phase(list(run.channels.values()), _blocked(cutoff, rate))
    for name, values in zip(run.channels, filtered):
        if not np.isfinite(values).all():
            raise DataError(f"the low-pass filter overflows on channel {name}")
    channels = dict(zip(run.channels, filtered))
    channels["v"] = np.where(channels["v"] < 0, 0.0, channels["v"])
    return TelemetryRun(t=run.t, channels=channels, meta=run.meta)


def butterworth(cutoff: float, rate: float) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """``(b, a)`` of the second-order Butterworth low-pass at ``cutoff`` Hz for samples at ``rate`` Hz.

    The bilinear transform of the analog filter, prewarped so that the
    gain at the cutoff stays 1/sqrt(2): ``scipy.signal.butter(2, cutoff,
    fs=rate)`` to a few ulps.
    """
    k = math.tan(math.pi * cutoff / rate)
    norm = 1.0 / (1.0 + math.sqrt(2.0) * k + k * k)
    b0 = k * k * norm
    return (b0, 2.0 * b0, b0), (1.0, 2.0 * (k * k - 1.0) * norm, (1.0 - math.sqrt(2.0) * k + k * k) * norm)


@dataclass(frozen=True)
class _BlockedFilter:
    """A second-order filter in blocks of ``_BLOCK`` samples, in its modal form.

    The filter ``(b, a)`` is ``y[k] = b0 x[k] + Re w[k]`` with the complex
    state ``w[k + 1] = q w[k] + g x[k]``, where ``q`` is one of its two
    conjugate poles. Multiplying by ``q`` is a rotation and a decay, so no
    power of it grows and the state keeps its digits at a low cutoff. The
    direct form's two states nearly cancel in the output there: at 0.5 Hz
    of 500 Hz its blocked scan lost three more digits than this one.
    """

    matrix: np.ndarray  # (_BLOCK + 2, _BLOCK): a block's inputs, Re and Im of its start state -> its outputs
    end: np.ndarray     # (_BLOCK, 2): a block's inputs -> Re and Im of its end state from a zero start state
    step: complex       # q**_BLOCK: a block's start state -> the next block's start state
    steady: complex     # the state a constant input of 1 keeps: Gustafsson's initial state, as filtfilt's


@functools.lru_cache(maxsize=8)
def _blocked(cutoff: float, rate: float) -> _BlockedFilter:
    """The ``butterworth`` filter as a ``_BlockedFilter``, built in extended precision."""
    b, a = butterworth(cutoff, rate)
    ld = np.longdouble
    b0, a1, a2 = ld(b[0]), ld(a[1]), ld(a[2])
    re = -a1 / 2
    im2 = a2 - re * re
    dc_b, dc_a = sum(map(ld, b)), sum(map(ld, a))  # the gain at DC is dc_b / dc_a
    if not (im2 > 0 and abs(dc_b - dc_a) <= _DC_GAIN_TOLERANCE * dc_a):
        raise ConfigError(f"cutoff {cutoff} Hz is too far below the {rate:.6g} Hz rate for a "
                          "second-order filter in double precision")
    im = np.sqrt(im2)
    q = re - im * np.clongdouble(1j)
    c1, c2 = ld(b[1]) - a1 * b0, ld(b[2]) - a2 * b0  # y = b0 x + (c1 z^-1 + c2 z^-2) / A(z) x
    g = c1 + (c2 + re * c1) / im * np.clongdouble(1j)
    powers = np.cumprod(np.concatenate(([1], np.full(_BLOCK, q))).astype(np.clongdouble))  # q**0 .. q**_BLOCK
    impulse = np.concatenate(([b0], (g * powers[:_BLOCK - 1]).real))
    lags = np.arange(_BLOCK)
    zero_state = np.triu(impulse[(lags - lags[:, None]) % _BLOCK])  # input j -> output k >= j: impulse[k - j]
    # the start state w reaches output k as Re(q**k w) = Re(q**k) Re(w) - Im(q**k) Im(w)
    matrix = np.vstack((zero_state, powers[:_BLOCK].real, -powers[:_BLOCK].imag))
    end = g * powers[_BLOCK - 1::-1]  # input j reaches the end state as q**(_BLOCK - 1 - j) g
    return _BlockedFilter(matrix=matrix.astype(float), end=np.stack((end.real, end.imag), axis=1).astype(float),
                          step=complex(powers[_BLOCK]), steady=complex(g / (1 - q)))


def _zero_phase(channels: list[np.ndarray], filt: _BlockedFilter) -> np.ndarray:
    """``filt`` run forward and backward over each channel, as ``scipy.signal.filtfilt`` runs it.

    Each channel is extended by ``FILTER_PAD`` samples of odd reflection at
    each end; the forward pass starts from the steady state scaled by the
    first extended sample, the backward pass from the same state scaled by
    the last forward output, and the extension is cut off again. Returns
    an array of one row per channel (a view).
    """
    size = channels[0].size
    span = size + 2 * FILTER_PAD
    blocks = -(-span // _BLOCK)
    flat = np.empty((len(channels), blocks * _BLOCK))
    for row, values in zip(flat, channels):
        row[FILTER_PAD:FILTER_PAD + size] = values
    x = flat[:, FILTER_PAD:FILTER_PAD + size]
    flat[:, :FILTER_PAD] = 2 * x[:, :1] - x[:, FILTER_PAD:0:-1]
    flat[:, FILTER_PAD + size:span] = 2 * x[:, -1:] - x[:, -2:-FILTER_PAD - 2:-1]
    flat[:, span:] = 0.0  # zeros after the end change no earlier output
    # both passes reuse these: each block's inputs and start state, and the outputs
    blocked = np.empty((len(channels), blocks, _BLOCK + 2))
    out = np.empty((len(channels) * blocks, _BLOCK))
    y = out.reshape(len(channels), -1)
    _causal(flat, filt.steady * flat[:, 0], filt, blocked, out)
    start = filt.steady * y[:, span - 1]
    flat[:, :span] = y[:, span - 1::-1]
    _causal(flat, start, filt, blocked, out)
    return y[:, span - 1 - FILTER_PAD:FILTER_PAD - 1:-1]


def _causal(flat: np.ndarray, start: np.ndarray, filt: _BlockedFilter, blocked: np.ndarray,
            out: np.ndarray) -> None:
    """One pass of ``filt`` over each row of ``flat`` from its complex ``start`` state, into ``out``.

    Each block's inputs give its end state from a zero start (a product
    with ``filt.end``); a sequential scan gives each block's start state
    from the last one's; then one product with ``filt.matrix`` gives every
    block's outputs from its inputs and its start state.
    """
    rows, blocks, _ = blocked.shape
    blocked[:, :, :_BLOCK] = flat.reshape(rows, blocks, _BLOCK)
    ends = (blocked[:, :, :_BLOCK].reshape(-1, _BLOCK) @ filt.end).view(complex).reshape(rows, blocks)
    states = []
    for w, row in zip(start.tolist(), ends.tolist()):
        for end in row:
            states.append(w)
            w = w * filt.step + end
    blocked[:, :, _BLOCK:] = np.array(states).view(float).reshape(rows, blocks, 2)
    np.matmul(blocked.reshape(-1, _BLOCK + 2), filt.matrix, out=out)


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
