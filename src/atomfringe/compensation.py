"""Counterphase design: cancel the velocity dispersion, keep the fringe.

A polarizability phase scales as u/v, exactly like a Sagnac phase, so
a rotation-type counterphase of opposite sign cancels it at every
velocity at once: the fringe contrast survives arbitrarily large
applied phases and the measurement reduces to velocity metrology on
the moving mirrors.  This module tunes that counterphase in closed
form (minus the polarizability amplitude, checked by one velocity
average), quantifies what is left when the counterphase has the wrong
velocity dependence (a Roberts-style u/v, (u/v)^2 mixture), and
inverts a compensated measurement into a polarizability volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beam import BeamModel, VelocitySupport
from .fringe import averaged_fringe
from .phase import (
    CapacitorModel,
    DispersivePhaseTerm,
    InterferometerGeometry,
    MirrorMotion,
    PrismGeometry,
    alpha_from_coefficient,
    prism_displacement_ratio,
    required_mirror_velocity,
    sustain_time,
)

__all__ = [
    "CompensationPlan",
    "tune_counterphase",
    "residual_dispersion",
    "extract_alpha_compensated",
]


@dataclass(frozen=True)
class CompensationPlan:
    """A tuned counterphase and the hardware settings that realize it."""

    counter_amplitude_at_mean: float
    motion: MirrorMotion
    prism_dz_rate: float
    residual_phase: float
    visibility_ratio_at_null: float

    def to_report(self) -> dict:
        """Flat mapping with all intermediate quantities, for emission.

        The sustain time (mirrors at rest) and the prism rate (n = 1) are
        unbounded in those limits; they are reported as None, which JSON
        writes as null.
        """
        sustain = sustain_time(self.motion)
        dz_rate = self.prism_dz_rate
        return {
            "counter_amplitude_rad": self.counter_amplitude_at_mean,
            "v1_m_per_s": self.motion.v1,
            "v3_m_per_s": self.motion.v3,
            "max_travel_m": self.motion.max_travel,
            "sustain_time_s": None if math.isinf(sustain) else sustain,
            "prism_dz_rate_m_per_s": None if math.isinf(dz_rate) else dz_rate,
            "residual_phase_rad": self.residual_phase,
            "visibility_ratio_at_null": self.visibility_ratio_at_null,
        }


def tune_counterphase(
    pol_term: DispersivePhaseTerm,
    beam: BeamModel,
    geometry: InterferometerGeometry,
    *,
    prism: PrismGeometry = PrismGeometry(),
    support: VelocitySupport = VelocitySupport(),
    max_travel: float = MirrorMotion.max_travel,
) -> CompensationPlan:
    """Null the averaged total phase with a mirror-motion counterphase.

    A u/v counter of amplitude minus the term's amplitude cancels the
    term at every velocity (a x + (-a) x is exactly 0 in floating
    point), so the null needs no search and its phase no unwrap.  One
    velocity average of {pol, counter}, without the unwrap, reports the
    residual phase and the visibility at the null; the counter amplitude
    is converted to antisymmetric mirror velocities and the equivalent
    Brewster-prism translation rate.
    """
    if pol_term.exponent != 1:
        raise ValueError("counterphase tuning assumes a u/v (exponent-1) term")
    a_c = -pol_term.amplitude_at_mean
    counter = DispersivePhaseTerm(amplitude_at_mean=a_c, exponent=1)
    null = averaged_fringe([pol_term, counter], beam, support=support, unwrap=False)
    motion = required_mirror_velocity(geometry, a_c, beam.u, max_travel)
    ratio = prism_displacement_ratio(prism)
    dz_rate = motion.v1 / ratio if ratio != 0.0 else math.inf
    return CompensationPlan(
        counter_amplitude_at_mean=a_c,
        motion=motion,
        prism_dz_rate=dz_rate,
        # the net phase is 0 at every node, so its principal value is the unwrapped one
        residual_phase=null.phase,
        visibility_ratio_at_null=null.visibility,
    )


# (u/v)^2 - u/v: what a Roberts counterphase leaves per unit of v2
_ROBERTS_MISMATCH = (
    DispersivePhaseTerm(amplitude_at_mean=-1.0, exponent=1),
    DispersivePhaseTerm(amplitude_at_mean=1.0, exponent=2),
)


def residual_dispersion(
    v2_amplitudes,
    beam: BeamModel,
    support: VelocitySupport = VelocitySupport(),
) -> tuple[np.ndarray, np.ndarray]:
    """Averaged phases and visibility ratios left by Roberts counterphases.

    A Roberts counterphase v1 u/v + v2 (u/v)^2 that cancels a u/v
    polarizability term pol at the mean velocity has v1 = -pol - v2, so
    the net phase is v2 ((u/v)^2 - u/v) whatever pol is: the velocity
    dependence that does not match u/v.  One velocity average over all
    of v2_amplitudes returns (residual_phases, visibility_ratios), one
    entry per amplitude in input order.
    """
    curve = averaged_fringe(_ROBERTS_MISMATCH, beam, support, scales=v2_amplitudes)
    return curve.phase_unwrapped, curve.visibility


def extract_alpha_compensated(
    measured_residual: float,
    motion: MirrorMotion,
    geometry: InterferometerGeometry,
    u: float,
    capacitor: CapacitorModel,
    voltage_U: float = 1.0,
) -> float:
    """Polarizability volume from a compensated measurement, m^3.

    The residual is the averaged phase of pol + counter, and the pol
    amplitude at the mean velocity is sign (2 pi eps0 alpha / hbar) G U^2
    / u with the capacitor's arm sign, so this solves
    (2 pi eps0 alpha / hbar) G U^2 = sign (u * residual
    - 2 k_laser (v1 - v3) L) for alpha.  With the counterphase tuned, the
    residual term is tiny, so the beam velocity u multiplies almost
    nothing: a percent-level error on u moves alpha by parts in 1e5 or
    less.  A counter mistuned by a fraction delta moves alpha by about
    -delta (<u/v> - 1), near -delta / (2 S^2), relative.  voltage_U
    defaults to 1 for the G-normalized (per-volt-squared) form.
    """
    if not math.isfinite(measured_residual):
        raise ValueError(f"measured_residual must be finite, got {measured_residual}")
    if not 0.0 < u < math.inf:
        raise ValueError(f"u must be positive and finite, got {u}")
    if not math.isfinite(voltage_U):
        raise ValueError(f"voltage_U must be finite, got {voltage_U}")
    if voltage_U == 0.0:
        raise ValueError("voltage must be nonzero to normalize the extraction")
    total = capacitor.sign * (
        u * measured_residual
        - 2.0
        * geometry.k_laser
        * (motion.v1 - motion.v3)
        * geometry.grating_separation_L
    )
    return alpha_from_coefficient(total / voltage_U**2, capacitor.geometry_factor_G, 1.0)
