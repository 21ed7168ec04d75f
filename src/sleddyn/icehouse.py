"""Longitudinal friction from straight gliding runs, via energy accounting.

Over a gliding section the sum of potential, kinetic, and aerodynamic
energy decreases linearly with distance at the rate of the ice friction
force: F_ice = -d(E_pot + E_kin + E_aero)/ds. The slope comes from an
ordinary least-squares line over the middle section of the glide (the
lie-down and sit-up transients at the ends are excluded), and the
friction coefficient follows as mu = |F_ice| / (m g cos kappa).

Rink surfaces are never perfectly level; runs are therefore performed
in both directions and the two coefficients averaged, which cancels a
small unknown slope to first order.

A quadratic least-squares fit across specimens turns (pressure, mu)
pairs into the coefficients of the longitudinal friction law.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aero import R_SPECIFIC_AIR, AirState, drag_force
from .errors import DataError, NumericalError, reading
from .friction import LongitudinalFrictionParams
from .tables import data_line, read_table, write_table
from .telemetry import cumulative_trapezoid

G = 9.81

#: Fraction of the gliding phase used for the slope fit, centered.
DEFAULT_WINDOW_FRACTION = 0.6

MIN_FIT_SAMPLES = 20


@dataclass(frozen=True)
class GlideRun:
    """Speed-over-distance record of one gliding run.

    ``kappa`` is the slope angle along the direction of travel (positive
    when climbing), replaced by the altitude channel ``h`` when there is
    one; the direction tag only serves to pair opposite runs for averaging.
    """

    s: np.ndarray
    v: np.ndarray
    m: float
    air: AirState
    cx_ax: float
    direction: str = "down"
    kappa: float = 0.0
    h: np.ndarray | None = None
    specimen: str = ""

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if s.shape != v.shape or s.ndim != 1:
            raise ValueError("s and v must be 1-d arrays of equal length")
        if not (np.all(np.diff(s) > 0) and np.isfinite(s).all()):
            raise ValueError("distance must be finite and strictly increasing over the glide")
        if not np.all(v > 0):
            raise ValueError("speed must stay positive inside the gliding window")
        if not (0 < self.m < np.inf and 0 <= self.cx_ax < np.inf and np.isfinite(self.kappa)):
            raise ValueError(f"mass m must be positive, drag area cx_ax non-negative and slope "
                             f"kappa finite, got m = {self.m}, cx_ax = {self.cx_ax}, kappa = {self.kappa}")
        if self.direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {self.direction!r}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "v", v)
        if self.h is not None:
            object.__setattr__(self, "h", np.asarray(self.h, dtype=float))


def energy_series(run: GlideRun):
    """Cumulative E_pot + E_kin + E_aero along the glide [J].

    Potential energy comes from the altitude channel when present and
    from the slope angle otherwise; the aerodynamic part integrates the
    drag force over distance (trapezoidal).
    """
    s = run.s
    if run.h is not None:
        e_pot = run.m * G * (run.h - run.h[0])
    else:
        e_pot = run.m * G * np.sin(run.kappa) * (s - s[0])
    e_kin = 0.5 * run.m * (run.v ** 2 - run.v[0] ** 2)
    f_aero = drag_force(run.v, run.cx_ax, run.air)
    return e_pot + e_kin + cumulative_trapezoid(f_aero, s)


def middle_window(s, fraction: float = DEFAULT_WINDOW_FRACTION):
    """Centered sub-interval of the distance range covering ``fraction`` of it."""
    lo, hi = float(s[0]), float(s[-1])
    pad = 0.5 * (1.0 - fraction) * (hi - lo)
    return lo + pad, hi - pad


def friction_force_fit(s, energy, window=None):
    """Friction force as minus the OLS slope of the energy series [N].

    Returns (force, standard_error). The window is an (s0, s1) pair;
    by default the centered 60 % section is used.
    """
    s = np.asarray(s, dtype=float)
    energy = np.asarray(energy, dtype=float)
    if window is None:
        window = middle_window(s)
    mask = (s >= window[0]) & (s <= window[1])
    if mask.sum() < MIN_FIT_SAMPLES:
        raise DataError(f"only {int(mask.sum())} samples inside the fit window, need {MIN_FIT_SAMPLES}")
    x, y = s[mask], energy[mask]
    if np.ptp(x) == 0:
        raise DataError("degenerate window: no spread in distance")
    xm = x - x.mean()
    sxx = float(xm @ xm)
    slope = float(xm @ (y - y.mean())) / sxx
    resid = (y - y.mean()) - slope * xm
    dof = max(x.size - 2, 1)
    stderr = float(np.sqrt((resid @ resid) / dof / sxx))
    return -slope, stderr


def mu_from_force(f_ice, m, kappa=0.0):
    """Friction coefficient mu = |F_ice| / (m g cos kappa)."""
    return abs(f_ice) / (m * G * np.cos(kappa))


def average_bidirectional(mu_up, mu_down):
    """Arithmetic mean of opposite-direction coefficients.

    Cancels an unknown rink slope to first order: the slope adds
    +-m g sin(kappa) to the two fitted forces symmetrically.
    """
    return 0.5 * (mu_up + mu_down)


@dataclass(frozen=True)
class GlideResult:
    specimen: str
    direction: str
    f_ice: float
    mu: float
    mu_stderr: float


def evaluate_glide(run: GlideRun, window_fraction: float = DEFAULT_WINDOW_FRACTION) -> GlideResult:
    """Full energy-method evaluation of one gliding run."""
    force, stderr = friction_force_fit(run.s, energy_series(run), middle_window(run.s, window_fraction))
    scale = run.m * G * np.cos(run.kappa)
    return GlideResult(
        specimen=run.specimen, direction=run.direction,
        f_ice=force,
        mu=mu_from_force(force, run.m, run.kappa), mu_stderr=stderr / scale,
    )


def load_points(path) -> list[tuple[float, float]]:
    """(pressure [MPa], mu) pairs: the last two comma- or space-separated cells of each line.

    Raises DataError naming the file line for a line without such a pair
    and for a non-finite pressure or mu.
    """
    pts = []
    with reading(path), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.replace(",", " ").split()
            with reading(f"{path}:{lineno}", what=f"expected a (pressure, mu) pair, got {line!r}: "):
                pair = float(cells[-2]), float(cells[-1])
            if not np.isfinite(pair).all():
                raise DataError(f"{path}:{lineno}: non-finite value in the (pressure, mu) pair {line!r}")
            pts.append(pair)
    return pts


def fit_quadratic_mu_p(points) -> LongitudinalFrictionParams:
    """Quadratic least squares through (pressure [MPa], mu) pairs.

    Fits mu * 1e3 = B p^2 - C p + D with the asperity factor at 1; the
    cap E_x is not a fit quantity and keeps its default.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise DataError("need at least 3 (p, mu) pairs")
    p, mu = pts[:, 0], pts[:, 1]
    design = np.column_stack([p * p, p, np.ones_like(p)])
    if np.linalg.matrix_rank(design) < 3:
        raise NumericalError("rank-deficient design: pressures are collinear in (p, p^2)")
    coef, *_ = np.linalg.lstsq(design, mu * 1e3, rcond=None)
    a, b, c = (float(x) for x in coef)
    if not a > 0:
        raise DataError(f"the points give no convex quadratic in p (B = {a:.4g}): mu(p) has no minimum")
    return LongitudinalFrictionParams(b_x=a, c_x=-b, d_x=c)


# ---------------------------------------------------------------------------
# glide-run CSV: columns t, v [, h]; metadata in '# key = value' comments


def load_glide_csv(path) -> GlideRun:
    """Read a glide run; distance integrates v over t (trapezoidal).

    Raises DataError naming the file for a missing, non-numeric or
    out-of-range metadata value and for a run ``GlideRun`` rejects, and
    naming the line for a non-finite cell.
    """
    table = read_table(path)
    header = [name.strip().lower() for name in table.header]
    if header[:1] != ["t"] or len(header) < 2:
        raise DataError(f"{path}:{table.header_line}: expected a 't,v[,h]' header, "
                        f"got {','.join(table.header)!r}")
    meta: dict[str, str] = {}
    for comment in table.comments:
        if "=" in comment:
            k, _, v = comment.partition("=")
            meta[k.strip()] = v.strip()
    with reading(path, what="bad glide metadata: "):
        m, cx_ax, kappa = float(meta["m"]), float(meta["cx_ax"]), float(meta.get("kappa", 0.0))
        air = AirState(p_air=float(meta["p_air"]), temperature=float(meta["temperature"]),
                       r_specific=float(meta.get("r_specific", R_SPECIFIC_AIR)))
        direction = meta["direction"]
    bad = np.nonzero(~np.isfinite(table.data).all(axis=1))[0]
    if bad.size:
        raise DataError(f"{path}: non-finite value at line {data_line(path, table.header_line, bad[0])}")
    t, v = table.data[:, 0], table.data[:, 1]
    with reading(path):
        return GlideRun(
            s=cumulative_trapezoid(v, t), v=v,
            h=table.data[:, 2] if header[2:3] == ["h"] else None,
            m=m, air=air, cx_ax=cx_ax, direction=direction, kappa=kappa,
            specimen=meta.get("specimen", Path(path).stem),
        )


def save_glide_csv(run_t, run_v, path, meta: dict, h=None) -> None:
    columns = {"t": run_t, "v": run_v} if h is None else {"t": run_t, "v": run_v, "h": h}
    write_table(path, columns, [f"{k} = {v}" for k, v in meta.items()])
