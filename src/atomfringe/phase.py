"""Velocity-dependent interferometer phase terms.

Every phase shift handled by this package has the form A * (u/v)^e at
atom velocity v, where A is the value of the term at the mean beam
velocity u and e is 0, 1 or 2; the fringe module evaluates a term list
as one polynomial in u/v.  The terms built here:

* quadratic Stark (polarizability) phase from a capacitor on one arm,
  A = sign * (2 pi eps0 alpha / hbar) * G * U^2 / u, exponent 1;
* Earth-rotation Sagnac phase, A = 2 kG Omega_y L^2 / u with
  kG = 2 k_laser, exponent 1;
* mirror-motion Sagnac phase from translating the outer gratings,
  A = 2 k_laser (v1 - v3) L / u, exponent 1.

Also provided: the Brewster-prism displacement equivalence used to
drive the mirror position optically, and the inversions needed to size
hardware for a requested counterphase.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .beam import BeamModel

__all__ = [
    "VACUUM_PERMITTIVITY_F_PER_M",
    "HBAR_J_S",
    "EARTH_ROTATION_RATE_RAD_PER_S",
    "DispersivePhaseTerm",
    "InterferometerGeometry",
    "CapacitorModel",
    "MirrorMotion",
    "PrismGeometry",
    "omega_y",
    "sagnac_earth_term",
    "polarizability_term",
    "alpha_from_coefficient",
    "mirror_sagnac_term",
    "required_mirror_velocity",
    "sustain_time",
    "prism_displacement_ratio",
    "geometry_from_config",
]

# CODATA 2018, 10 significant figures
VACUUM_PERMITTIVITY_F_PER_M = 8.854187813e-12
HBAR_J_S = 1.054571817e-34

# mean sidereal rate rounded to the 5 figures used throughout
EARTH_ROTATION_RATE_RAD_PER_S = 7.2921e-5


@dataclass(frozen=True)
class DispersivePhaseTerm:
    """One phase contribution A * (u/v)^exponent.

    amplitude_at_mean is the signed phase in rad picked up by an atom
    at exactly the mean velocity; exponent is the power of u/v (0, 1,
    or 2 for every term this package constructs).
    """

    amplitude_at_mean: float
    exponent: int

    def __post_init__(self):
        # 1.0 and True equal 1 but cannot index the powers of u/v; an exact
        # int skips the slower abstract-class check
        exponent = self.exponent
        if type(exponent) is not int and (
            isinstance(exponent, bool) or not isinstance(exponent, numbers.Integral)
        ):
            raise ValueError(f"exponent must be an integer, got {self.exponent!r}")
        if self.exponent not in (0, 1, 2):
            raise ValueError(f"exponent must be 0, 1 or 2, got {self.exponent}")
        if not math.isfinite(self.amplitude_at_mean):
            raise ValueError("amplitude_at_mean must be finite")


@dataclass(frozen=True)
class InterferometerGeometry:
    """Grating geometry and location of the interferometer.

    k_laser in 1/m, grating_separation_L in m, latitude in rad.  The
    grating wave vector is 2 * k_laser (standing-wave diffraction).
    """

    k_laser: float
    grating_separation_L: float
    latitude: float
    earth_rotation_rate: float = EARTH_ROTATION_RATE_RAD_PER_S

    def __post_init__(self):
        if not self.k_laser > 0.0:
            raise ValueError(f"k_laser must be positive, got {self.k_laser}")
        if not self.grating_separation_L > 0.0:
            raise ValueError(
                f"grating separation must be positive, got {self.grating_separation_L}"
            )
        if abs(self.latitude) > math.pi / 2.0:
            raise ValueError(f"latitude must be in [-pi/2, pi/2] rad, got {self.latitude}")
        if self.earth_rotation_rate < 0.0:
            raise ValueError("earth_rotation_rate must be non-negative")

    @property
    def k_grating(self) -> float:
        return 2.0 * self.k_laser


@dataclass(frozen=True)
class CapacitorModel:
    """Septum capacitor on one interferometer arm.

    geometry_factor_G = integral of (E/U)^2 along the path, 1/m.  sign
    is +1 or -1 and selects which arm carries the field; -1 matches
    the orientation in which the Stark phase opposes the
    Earth-rotation Sagnac phase.
    """

    geometry_factor_G: float
    sign: int = -1

    def __post_init__(self):
        if not self.geometry_factor_G > 0.0:
            raise ValueError(
                f"geometry factor must be positive, got {self.geometry_factor_G}"
            )
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class MirrorMotion:
    """Velocities of the outer grating mirrors M1 and M3, m/s."""

    v1: float
    v3: float
    max_travel: float = 20e-6  # m, piezo stroke

    def __post_init__(self):
        if not self.max_travel > 0.0:
            raise ValueError(f"max_travel must be positive, got {self.max_travel}")


@dataclass(frozen=True)
class PrismGeometry:
    """A movable Brewster-incidence prism in the standing-wave path."""

    refractive_index_n: float

    def __post_init__(self):
        if self.refractive_index_n < 1.0:
            raise ValueError(
                f"refractive index must be >= 1, got {self.refractive_index_n}"
            )


def omega_y(geometry: InterferometerGeometry) -> float:
    """Rotation-rate component normal to the horizontal beam plane, rad/s."""
    return geometry.earth_rotation_rate * math.sin(geometry.latitude)


def sagnac_earth_term(
    geometry: InterferometerGeometry, beam: BeamModel
) -> DispersivePhaseTerm:
    """Earth-rotation Sagnac phase term.

    Amplitude at the mean velocity is 2 * k_grating * Omega_y * L^2 / u,
    positive in the convention used throughout (the Stark arm then
    carries the opposite sign).  Scales as u/v.
    """
    amp = (
        2.0
        * geometry.k_grating
        * omega_y(geometry)
        * geometry.grating_separation_L**2
        / beam.u
    )
    return DispersivePhaseTerm(amplitude_at_mean=amp, exponent=1)


def polarizability_term(
    capacitor: CapacitorModel, alpha: float, voltage_U: float, beam: BeamModel
) -> DispersivePhaseTerm:
    """Quadratic Stark phase term for polarizability volume alpha (m^3).

    Amplitude is sign * (2 pi eps0 alpha / hbar) * G * U^2 / u and the
    velocity dependence is u/v (interaction time scaling).
    """
    if not alpha > 0.0:
        raise ValueError(f"polarizability volume must be positive, got {alpha}")
    if not math.isfinite(voltage_U):
        raise ValueError("voltage must be finite")
    amp = (
        capacitor.sign
        * (2.0 * math.pi * VACUUM_PERMITTIVITY_F_PER_M * alpha / HBAR_J_S)
        * capacitor.geometry_factor_G
        * voltage_U**2
        / beam.u
    )
    return DispersivePhaseTerm(amplitude_at_mean=amp, exponent=1)


def alpha_from_coefficient(coeff_per_U2: float, geometry_factor_G: float, u: float) -> float:
    """Invert the Stark coefficient (rad/V^2) to a polarizability volume (m^3)."""
    if geometry_factor_G == 0.0:
        raise ValueError("geometry factor G must be nonzero")
    return (
        coeff_per_U2
        * HBAR_J_S
        * u
        / (2.0 * math.pi * VACUUM_PERMITTIVITY_F_PER_M * geometry_factor_G)
    )


def mirror_sagnac_term(
    geometry: InterferometerGeometry, motion: MirrorMotion, beam: BeamModel
) -> DispersivePhaseTerm:
    """Phase term from translating mirrors M1 and M3 at v1, v3.

    Moving the outer gratings during the atom transit mimics a rotation:
    amplitude 2 * k_laser * (v1 - v3) * L / u, exponent 1.  Common-mode
    motion (v1 = v3) is a pure translation and contributes nothing.
    """
    amp = (
        2.0
        * geometry.k_laser
        * (motion.v1 - motion.v3)
        * geometry.grating_separation_L
        / beam.u
    )
    return DispersivePhaseTerm(amplitude_at_mean=amp, exponent=1)


def required_mirror_velocity(
    geometry: InterferometerGeometry,
    target_phase_at_mean: float,
    u: float,
    max_travel: float = 20e-6,
) -> MirrorMotion:
    """Antisymmetric mirror velocities producing the target phase at v = u."""
    if not math.isfinite(target_phase_at_mean):
        raise ValueError("target phase must be finite")
    v1 = (
        target_phase_at_mean
        * u
        / (4.0 * geometry.k_laser * geometry.grating_separation_L)
    )
    return MirrorMotion(v1=v1, v3=-v1, max_travel=max_travel)


def sustain_time(motion: MirrorMotion) -> float:
    """Time the finite piezo stroke can sustain the motion, s.

    Returns inf when both mirrors are at rest.
    """
    fastest = max(abs(motion.v1), abs(motion.v3))
    if fastest == 0.0:
        return math.inf
    return motion.max_travel / fastest


def prism_displacement_ratio(prism: PrismGeometry) -> float:
    """Mirror-equivalent displacement per unit prism translation, dx/dz.

    At Brewster incidence (tan i = n) the general expression
    (1 - n cos(i - r)) / n collapses to (1 - n^2) / (n (1 + n^2)):
    with r = pi/2 - i, cos(i - r) = 2 sin i cos i = 2n / (1 + n^2).
    Negative for n > 1, so the prism moves opposite to the equivalent
    mirror.
    """
    n = prism.refractive_index_n
    return (1.0 - n * n) / (n * (1.0 + n * n))


def geometry_from_config(mapping) -> tuple[InterferometerGeometry, CapacitorModel]:
    """Build geometry and capacitor from one flat config mapping.

    Keys: k_laser_per_m, L_m, latitude_deg, geometry_factor_G_per_m,
    arm_sign; optional earth_rotation_rate_rad_per_s.
    """
    geometry = InterferometerGeometry(
        k_laser=float(mapping["k_laser_per_m"]),
        grating_separation_L=float(mapping["L_m"]),
        latitude=math.radians(float(mapping["latitude_deg"])),
        earth_rotation_rate=float(
            mapping.get("earth_rotation_rate_rad_per_s", EARTH_ROTATION_RATE_RAD_PER_S)
        ),
    )
    capacitor = CapacitorModel(
        geometry_factor_G=float(mapping["geometry_factor_G_per_m"]),
        sign=mapping.get("arm_sign", CapacitorModel.sign),
    )
    return geometry, capacitor
