"""Nonlinear least-squares estimation of lateral friction parameters.

The free parameters are (mu_zeta_y, c_y, k_y); the curvature factor e_y
stays fixed because the measured slip-angle range is too small to pin
it down. Minimization is scipy's trust-region reflective method
(``least_squares(method="trf")``, Branch, Coleman & Li 1999) with the
analytic Jacobian of the sin-atan law and the parameter box as bounds.

The unknowns are the log-parameters. The data constrain the product
mu_zeta_y * c_y (through the small-angle gain together with k_y) far
more strongly than the factors individually, which makes the cost
valley along "product constant" straight in log coordinates instead of
curved, so the steps follow it instead of stalling. Positivity comes
for free.

The cornering stiffness is warm-started from a robust (median-ratio)
line through the lowest-|alpha| decile, where the curve is linear with
slope k_y by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, reading
from .friction import LateralFrictionParams
from .onetrack import AxleForceTrace
from .telemetry import TelemetryRun

DEFAULT_BOUNDS = ((0.1, 20.0), (0.001, 1.9), (100.0, 1e6))
DEFAULT_ROLL_THRESHOLD_DEG_S2 = 100.0
# Stop rules besides FitConfig.cost_tolerance (scipy's ftol). They end fits
# whose relative cost drop never falls below it: a zero-residual optimum
# (noise-free data) or a cost_tolerance below machine epsilon. A 1e-10
# relative step in log-parameters, or a scaled gradient of 1e-10, is far
# below what the data resolve: a fit that reaches them has stopped moving.
_XTOL = 1e-10
_GTOL = 1e-10


@dataclass(frozen=True)
class FitConfig:
    """Settings for the lateral-friction fit.

    ``initial`` is (mu_zeta_y, c_y, k_y); a ``None`` stiffness requests
    the warm start from the data. ``roll_threshold_deg_s2`` excludes
    samples whose roll acceleration exceeds it (the rigid-body transfer
    breaks down under strong roll-split action). ``fix_k_y`` freezes the
    stiffness at its initial value. The solver stops once a step lowers
    the cost by less than the fraction ``cost_tolerance``, or after
    ``max_iterations`` model evaluations.
    """

    e_y: float = 0.99
    initial: tuple = (3.0, 0.05, None)
    bounds: tuple = DEFAULT_BOUNDS
    roll_threshold_deg_s2: float = DEFAULT_ROLL_THRESHOLD_DEG_S2
    max_iterations: int = 300
    cost_tolerance: float = 1e-14
    fix_k_y: bool = False

    def __post_init__(self):
        if self.roll_threshold_deg_s2 <= 0:
            raise ValueError("roll threshold must be positive")
        for value, (lo, hi) in zip(self.initial, self.bounds):
            if value is not None and not lo <= value <= hi:
                raise ValueError(f"initial guess {value} outside bounds [{lo}, {hi}]")


@dataclass(frozen=True)
class FitDataset:
    """(alpha, F_z, F_y) triples for one runner."""

    alpha: np.ndarray
    f_z: np.ndarray
    f_y: np.ndarray
    runner: str = ""

    def __len__(self) -> int:
        return self.alpha.size


@dataclass(frozen=True)
class FitResult:
    params: LateralFrictionParams
    residual_rms: float
    n_samples: int
    covariance: np.ndarray
    converged: bool
    iterations: int
    cost: float


def select_fit_samples(trace: AxleForceTrace, run: TelemetryRun, config: FitConfig,
                       runner: str = "front") -> FitDataset:
    """Assemble the fitting dataset for one runner.

    Drops invalid samples, samples with roll acceleration above the
    threshold, and samples without positive normal force. The front
    dataset pairs the runner-frame lateral force with the unrotated
    vertical load (the law's normal-force argument throughout the
    package); the rear axle is unrotated to begin with.
    """
    if run.derived is None:
        raise DataError("run must carry derived channels")
    if len(trace) != len(run):
        raise DataError("trace and run are not aligned on the same grid")
    threshold = np.deg2rad(config.roll_threshold_deg_s2)
    keep = trace.valid & (np.abs(run.derived.phi_ddot) <= threshold)
    if runner == "front":
        alpha, f_z, f_y = trace.alpha_f, trace.f_z_f0, trace.f_y_f
    elif runner == "rear":
        alpha, f_z, f_y = trace.alpha_r, trace.f_z_r, trace.f_y_r
    else:
        raise ValueError(f"runner must be 'front' or 'rear', got {runner!r}")
    keep = keep & np.isfinite(alpha) & np.isfinite(f_y) & (f_z > 0)
    if not keep.any():
        raise DataError(f"no usable samples for the {runner} runner fit")
    return FitDataset(alpha=alpha[keep], f_z=f_z[keep], f_y=f_y[keep], runner=runner)


def _model_and_jacobian(log_theta, alpha, f_z, e_y):
    """Lateral-law prediction and its Jacobian w.r.t. log-parameters."""
    mz, cy, ky = np.exp(log_theta)
    b = ky / (cy * mz * f_z)
    b_a = b * alpha
    at = np.arctan(b_a)
    g = b_a - e_y * (b_a - at)
    ag = np.arctan(g)
    s = np.sin(cy * ag)
    pred = mz * f_z * s
    # chain rule: dF/dB, then dB/dlog(param) = +-B
    dg_db = alpha * (1.0 - e_y) + e_y * alpha / (1.0 + b_a * b_a)
    df_db = mz * f_z * np.cos(cy * ag) * cy * dg_db / (1.0 + g * g)
    jac = np.column_stack([
        pred - df_db * b,                                 # d/dlog mu_zeta_y
        mz * f_z * np.cos(cy * ag) * cy * ag - df_db * b,  # d/dlog c_y
        df_db * b,                                         # d/dlog k_y
    ])
    return pred, jac


def robust_stiffness_guess(dataset: FitDataset, bounds=DEFAULT_BOUNDS) -> float:
    """Median F_y/alpha over the lowest-|alpha| decile of the dataset."""
    n = max(10, len(dataset) // 10)
    idx = np.argsort(np.abs(dataset.alpha))[:n]
    alpha, f_y = dataset.alpha[idx], dataset.f_y[idx]
    usable = np.abs(alpha) > 1e-8
    if not usable.any():
        return float(np.sqrt(bounds[2][0] * bounds[2][1]))
    return float(np.clip(np.median(f_y[usable] / alpha[usable]), *bounds[2]))


def fit_lateral(dataset: FitDataset, config: FitConfig | None = None) -> FitResult:
    """Fit (mu_zeta_y, c_y, k_y) to the dataset with e_y held fixed.

    Raises DataError for too-small datasets or a non-finite sample, and
    NumericalError when the Jacobian is rank deficient at the start point
    (e.g. all slip angles zero). ``iterations`` counts model evaluations; running out of them
    (``max_iterations``) returns the best iterate with ``converged=False``.
    """
    # imported here, like scipy.signal in lowpass_filter, so that commands
    # that fit nothing do not pay for loading scipy.optimize
    from scipy.optimize import least_squares

    config = config or FitConfig()
    if len(dataset) < 30:
        raise DataError(f"dataset of {len(dataset)} samples is too small (need >= 10x parameters)")
    for name in ("alpha", "f_z", "f_y"):
        if not np.all(np.isfinite(getattr(dataset, name))):
            raise DataError(f"non-finite {name} in the {dataset.runner or 'lateral'} fit dataset")
    if not np.any(np.abs(dataset.alpha) > 0):
        raise NumericalError("all slip angles are zero: lateral parameters are unidentifiable")

    initial = list(config.initial)
    if initial[2] is None:
        initial[2] = robust_stiffness_guess(dataset, config.bounds)
    lo = np.log([b[0] for b in config.bounds])
    hi = np.log([b[1] for b in config.bounds])
    theta = np.clip(np.log(np.asarray(initial, dtype=float)), lo, hi)
    free = np.array([True, True, not config.fix_k_y])

    alpha, f_z, f_y = dataset.alpha, dataset.f_z, dataset.f_y

    def model(x):
        full = theta.copy()
        full[free] = x
        pred, jac = _model_and_jacobian(full, alpha, f_z, config.e_y)
        return pred, jac[:, free]

    if not np.all(np.sum(model(theta[free])[1] ** 2, axis=0) > 0):
        raise NumericalError("rank-deficient Jacobian in lateral fit")
    sol = least_squares(lambda x: model(x)[0] - f_y, theta[free], jac=lambda x: model(x)[1],
                        bounds=(lo[free], hi[free]), method="trf", ftol=config.cost_tolerance,
                        xtol=_XTOL, gtol=_GTOL, max_nfev=config.max_iterations)
    theta[free] = sol.x
    residual, jf, cost = sol.fun, sol.jac, float(sol.cost)

    params = LateralFrictionParams(
        mu_zeta_y=float(np.exp(theta[0])), c_y=float(np.exp(theta[1])),
        k_y=float(np.exp(theta[2])), e_y=config.e_y,
    )
    dof = max(len(dataset) - int(free.sum()), 1)
    sigma2 = 2.0 * cost / dof
    try:
        cov_free = sigma2 * np.linalg.inv(jf.T @ jf)
    except np.linalg.LinAlgError:
        cov_free = np.full((int(free.sum()),) * 2, np.nan)
    covariance = np.full((3, 3), np.nan)
    covariance[np.ix_(free, free)] = cov_free
    return FitResult(
        params=params,
        residual_rms=float(np.sqrt(np.mean(residual ** 2))),
        n_samples=len(dataset),
        covariance=covariance,
        converged=bool(sol.status > 0),
        iterations=int(sol.nfev),
        cost=cost,
    )


def fit_report(result: FitResult, dataset: FitDataset, n_bins: int = 3) -> list[dict]:
    """Per-F_z-bin diagnostics mirroring scatter-plus-model-curve figures.

    Each entry holds the bin's normal-force range, slip-angle quantile
    summary of the measured forces, and the model curve evaluated at the
    bin's median normal force at 81 slip angles. Empty bins are omitted.
    """
    from .friction import force_y

    edges = np.linspace(dataset.f_z.min(), dataset.f_z.max() * (1 + 1e-12), n_bins + 1)
    report = []
    for i in range(n_bins):
        mask = (dataset.f_z >= edges[i]) & (dataset.f_z < edges[i + 1])
        if not mask.any():
            continue
        alpha = dataset.alpha[mask]
        f_y = dataset.f_y[mask]
        f_z_med = float(np.median(dataset.f_z[mask]))
        grid = np.linspace(alpha.min(), alpha.max(), 81) if alpha.size > 1 else np.array([alpha[0]])
        report.append({
            "f_z_range": (float(edges[i]), float(edges[i + 1])),
            "f_z_median": f_z_med,
            "n": int(mask.sum()),
            "alpha_quantiles": {q: float(np.quantile(alpha, q)) for q in (0.05, 0.25, 0.5, 0.75, 0.95)},
            "f_y_quantiles": {q: float(np.quantile(f_y, q)) for q in (0.05, 0.25, 0.5, 0.75, 0.95)},
            "curve_alpha": grid,
            "curve_f_y": force_y(f_z_med, grid, result.params),
        })
    return report


def save_fit_result(result: FitResult, path, header: list[str] | None = None) -> None:
    from .kvfile import dump_kv

    p = result.params
    dump_kv({
        "mu_zeta_y": p.mu_zeta_y, "c_y": p.c_y, "e_y": p.e_y, "k_y": p.k_y,
        "residual_rms": result.residual_rms, "n_samples": result.n_samples,
        "converged": result.converged, "iterations": result.iterations,
        "cost": result.cost,
    }, path, header=header)


def load_lateral_params(path) -> LateralFrictionParams:
    from .kvfile import load_floats

    # a fit result also holds non-numeric keys such as ``converged = True``
    raw = load_floats(path, ("mu_zeta_y", "c_y", "k_y", "e_y"))
    with reading(path):
        return LateralFrictionParams(mu_zeta_y=raw["mu_zeta_y"], c_y=raw["c_y"], k_y=raw["k_y"],
                                     e_y=raw.get("e_y", 0.99))
