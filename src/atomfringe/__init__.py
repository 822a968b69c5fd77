"""atomfringe: velocity-averaged fringes, dispersion fits, counterphases.

Simulates the visibility and phase of a three-grating matter-wave
interferometer fed by a supersonic beam, fits measured phase and
visibility curves for the speed ratio and the Stark coefficient, and
designs rotation-type counterphases that cancel the velocity
dispersion of a polarizability phase.
"""

from .beam import BeamModel, VelocitySupport, velocity_pdf
from .compensation import (
    CompensationPlan,
    extract_alpha_compensated,
    residual_dispersion,
    tune_counterphase,
)
from .fitkit import (
    FitError,
    FitResult,
    ModelContext,
    Observation,
    ObservationSet,
    fit,
    model_curve,
    parameter_uncertainties,
)
from .fringe import (
    QUADRATURE_TOL,
    FringeCurve,
    FringeObservable,
    QuadratureConvergenceError,
    averaged_fringe,
    non_additivity_gap,
    visibility_ratio,
)
from .phase import (
    EARTH_ROTATION_RATE_RAD_PER_S,
    HBAR_J_S,
    VACUUM_PERMITTIVITY_F_PER_M,
    CapacitorModel,
    DispersivePhaseTerm,
    InterferometerGeometry,
    MirrorMotion,
    PrismGeometry,
    alpha_from_coefficient,
    geometry_from_config,
    mirror_sagnac_term,
    omega_y,
    polarizability_term,
    prism_displacement_ratio,
    required_mirror_velocity,
    sagnac_earth_term,
    sustain_time,
)

__version__ = "0.1.0"
