"""The package's public names: each module's __all__, re-exported."""

import importlib

import pytest

import atomfringe as af

# the 39 names the package exported when __init__ listed them one by one
LISTED = {
    "beam": ("BeamModel", "VelocitySupport", "velocity_pdf"),
    "compensation": (
        "CompensationPlan", "extract_alpha_compensated", "residual_dispersion", "tune_counterphase",
    ),
    "fitkit": (
        "FitError", "FitResult", "ModelContext", "Observation", "ObservationSet", "fit",
        "model_curve", "parameter_uncertainties",
    ),
    "fringe": (
        "QUADRATURE_TOL", "FringeCurve", "FringeObservable", "QuadratureConvergenceError",
        "averaged_fringe", "non_additivity_gap", "visibility_ratio",
    ),
    "phase": (
        "EARTH_ROTATION_RATE_RAD_PER_S", "HBAR_J_S", "VACUUM_PERMITTIVITY_F_PER_M",
        "CapacitorModel", "DispersivePhaseTerm", "InterferometerGeometry", "MirrorMotion",
        "PrismGeometry", "alpha_from_coefficient", "geometry_from_config", "mirror_sagnac_term",
        "omega_y", "polarizability_term", "prism_displacement_ratio", "required_mirror_velocity",
        "sagnac_earth_term", "sustain_time",
    ),
}


@pytest.mark.parametrize("name", LISTED)
def test_the_package_exports_its_modules_all(name):
    # each listed name is still exported, and so is every __all__ entry
    # (beam's three defaults included), each the module's own object
    module = importlib.import_module(f"atomfringe.{name}")
    for attr in (*LISTED[name], *module.__all__):
        assert getattr(af, attr) is getattr(module, attr), attr

