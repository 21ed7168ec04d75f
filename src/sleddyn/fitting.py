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
from .friction import E_Y, LateralFrictionParams
from .onetrack import AxleForceTrace
from .telemetry import TelemetryRun

#: (lo, hi) of mu_zeta_y, c_y and k_y.
DEFAULT_BOUNDS = ((0.1, 20.0), (0.001, 1.9), (100.0, 1e6))
#: Samples whose roll acceleration exceeds this are left out of a fit: the
#: rigid-body load transfer breaks down under strong roll-split action.
DEFAULT_ROLL_THRESHOLD_DEG_S2 = 100.0
#: The solver gives up after this many model evaluations.
MAX_EVALUATIONS = 300
#: Start point of (mu_zeta_y, c_y); k_y starts from robust_stiffness_guess.
INITIAL_MU_ZETA_Y, INITIAL_C_Y = 3.0, 0.05
# Stop rules: a step that lowers the cost by less than the fraction _FTOL.
# _XTOL and _GTOL end a zero-residual fit (noise-free data), whose relative
# cost drop never gets that small: a 1e-10 relative step in log-parameters,
# or a scaled gradient of 1e-10, is far below what the data resolve.
_FTOL = 1e-14
_XTOL = 1e-10
_GTOL = 1e-10
#: Levels of the quantile summaries of ``fit_report`` and ``evaluation.angle_statistics``.
QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


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
    converged: bool
    iterations: int
    cost: float


def select_fit_samples(trace: AxleForceTrace, run: TelemetryRun,
                       roll_threshold_deg_s2: float = DEFAULT_ROLL_THRESHOLD_DEG_S2,
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
    threshold = np.deg2rad(roll_threshold_deg_s2)
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


def _model_and_jacobian(log_theta, alpha, f_z):
    """Lateral-law prediction and its Jacobian w.r.t. log-parameters."""
    mz, cy, ky = np.exp(log_theta)
    mz_fz = mz * f_z
    b = ky / (cy * mz * f_z)
    b_a = b * alpha
    at = np.arctan(b_a)
    g = b_a - E_Y * (b_a - at)
    ag = np.arctan(g)
    cy_ag = cy * ag
    pred = mz_fz * np.sin(cy_ag)
    # chain rule: dF/d(atan g), dF/dB, then dB/dlog(param) = +-B; each
    # product keeps the order of the written-out formula, so the bits too
    dg_db = alpha * (1.0 - E_Y) + E_Y * alpha / (1.0 + b_a * b_a)
    df_dag = mz_fz * np.cos(cy_ag) * cy
    df_db_b = df_dag * dg_db / (1.0 + g * g) * b
    # Fortran order on purpose: the memory layout sets the BLAS summation
    # order inside the solver, and a C-ordered copy moves the last digits
    jac = np.array([
        pred - df_db_b,            # d/dlog mu_zeta_y
        df_dag * ag - df_db_b,     # d/dlog c_y
        df_db_b,                   # d/dlog k_y
    ]).T
    return pred, jac


def robust_stiffness_guess(dataset: FitDataset) -> float:
    """Median F_y/alpha over the lowest-|alpha| decile, clipped to the k_y bounds."""
    n = max(10, len(dataset) // 10)
    idx = np.argsort(np.abs(dataset.alpha))[:n]
    alpha, f_y = dataset.alpha[idx], dataset.f_y[idx]
    usable = np.abs(alpha) > 1e-8
    if not usable.any():
        return float(np.sqrt(DEFAULT_BOUNDS[2][0] * DEFAULT_BOUNDS[2][1]))
    return float(np.clip(np.median(f_y[usable] / alpha[usable]), *DEFAULT_BOUNDS[2]))


def fit_lateral(dataset: FitDataset) -> FitResult:
    """Fit (mu_zeta_y, c_y, k_y) to the dataset with e_y held at E_Y.

    Raises DataError for too-small datasets or a non-finite sample, and
    NumericalError when the Jacobian is rank deficient at the start point
    (e.g. all slip angles zero). ``iterations`` counts model evaluations; running out of them
    (``MAX_EVALUATIONS``) returns the best iterate with ``converged=False``.
    """
    # imported here, like scipy.signal in lowpass_filter, so that commands
    # that fit nothing do not pay for loading scipy.optimize
    from scipy.optimize import least_squares

    if len(dataset) < 30:
        raise DataError(f"dataset of {len(dataset)} samples is too small (need >= 10x parameters)")
    for name in ("alpha", "f_z", "f_y"):
        if not np.all(np.isfinite(getattr(dataset, name))):
            raise DataError(f"non-finite {name} in the {dataset.runner or 'lateral'} fit dataset")
    if not np.any(np.abs(dataset.alpha) > 0):
        raise NumericalError("all slip angles are zero: lateral parameters are unidentifiable")

    lo, hi = np.log(DEFAULT_BOUNDS).T
    theta = np.clip(np.log([INITIAL_MU_ZETA_Y, INITIAL_C_Y, robust_stiffness_guess(dataset)]), lo, hi)
    alpha, f_z, f_y = dataset.alpha, dataset.f_z, dataset.f_y
    last = [None, None]  # (x bytes, model and Jacobian): scipy asks for both at the same x

    def model(x):
        if last[0] != x.tobytes():
            last[:] = x.tobytes(), _model_and_jacobian(x, alpha, f_z)
        return last[1]

    if not np.all(np.sum(model(theta)[1] ** 2, axis=0) > 0):
        raise NumericalError("rank-deficient Jacobian in lateral fit")
    sol = least_squares(lambda x: model(x)[0] - f_y, theta, jac=lambda x: model(x)[1],
                        bounds=(lo, hi), method="trf", ftol=_FTOL,
                        xtol=_XTOL, gtol=_GTOL, max_nfev=MAX_EVALUATIONS)
    residual, cost = sol.fun, float(sol.cost)

    mz, cy, ky = np.exp(sol.x)
    params = LateralFrictionParams(mu_zeta_y=float(mz), c_y=float(cy), k_y=float(ky), e_y=E_Y)
    return FitResult(
        params=params,
        residual_rms=float(np.sqrt(np.mean(residual ** 2))),
        n_samples=len(dataset),
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
            "alpha_quantiles": dict(zip(QUANTILES, np.quantile(alpha, QUANTILES).tolist())),
            "f_y_quantiles": dict(zip(QUANTILES, np.quantile(f_y, QUANTILES).tolist())),
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
                                     e_y=raw.get("e_y", E_Y))
