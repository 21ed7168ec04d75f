"""Runner-ice friction modeling and one-track bobsled dynamics.

From raw telemetry to reconstructed runner forces, fitted friction
models, and energy-loss-based driver evaluation, with a forward
simulator providing synthetic ground truth.
"""

from .aero import AeroModel, AirState, aero_forces, drag_area_at_beta, drag_force
from .errors import ConfigError, DataError, NumericalError, SleddynError
from .evaluation import (
    LossBreakdown,
    angle_statistics,
    combine_losses,
    loss_energies,
    measured_lateral_cog,
    model_lateral_cog,
    validate_rmse,
)
from .fitting import FitConfig, FitDataset, FitResult, fit_lateral, fit_report, select_fit_samples
from .friction import (
    LateralFrictionParams,
    LongitudinalFrictionParams,
    force_y,
    force_y_braghin,
    mu_x,
)
from .icehouse import (
    GlideRun,
    average_bidirectional,
    energy_series,
    evaluate_glide,
    fit_quadratic_mu_p,
    friction_force_fit,
    mu_from_force,
)
from .kinematics import (
    MountingOffset,
    accel_to_cog,
    rotation_delta,
    rotation_f0_to_f,
    rotation_gamma,
    slip_angle_front,
    slip_angle_rear,
    to_driving_frame,
)
from .onetrack import (
    AxleForceTrace,
    BobParameters,
    build_axle_trace,
    reconstruct_lateral,
    reconstruct_vertical,
    recover_f_x_f0,
)
from .sim import (
    ControlTrace,
    FrictionSetup,
    SimState,
    TrackProfile,
    export_synthetic_telemetry,
    simulate,
    step,
)
from .telemetry import (
    CsvSchema,
    TelemetryMeta,
    TelemetryRun,
    derive_channels,
    ingest_csv,
    lowpass_filter,
    process,
    resample,
)

__version__ = "0.1.0"
