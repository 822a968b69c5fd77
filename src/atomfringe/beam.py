"""Supersonic beam velocity model.

A seeded supersonic expansion is well described by a shifted Gaussian
flux distribution

    P(v) = (S / (u sqrt(pi))) * exp(-((v - u) S / u)^2)

where u is the mean longitudinal velocity and S is the dimensionless
parallel speed ratio.  The equivalent Gaussian width is
sigma = u / (S sqrt(2)).  Everything downstream (velocity averaging,
fitting, compensation tuning) consumes this model through the two
types defined here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_WIDTH_SIGMAS",
    "DEFAULT_NODE_COUNT",
    "MAX_NODE_COUNT",
    "BeamModel",
    "VelocitySupport",
    "velocity_pdf",
]

# the averaging window (in Gaussian sigmas) and Gauss-Legendre order
# used wherever a run does not set its own
DEFAULT_WIDTH_SIGMAS = 8.0
DEFAULT_NODE_COUNT = 257
# the largest order whose Gauss-Kronrod check (Laurie's algorithm) is
# tested; its moments spread by about 4^(n/2), and from n = 1042 on the
# rule it builds in double precision is wrong or fails to build
MAX_NODE_COUNT = 1025


@dataclass(frozen=True)
class BeamModel:
    """Mean velocity and speed ratio of the atom beam.

    Parameters
    ----------
    u : float
        Mean longitudinal velocity in m/s.  Must be positive and finite.
    s_parallel : float
        Parallel speed ratio u / (sqrt(2) sigma_v), dimensionless.
        Must exceed 1 and be finite; the narrow-beam expansion used
        throughout assumes a supersonic source.
    """

    u: float
    s_parallel: float

    def __post_init__(self):
        if not self.u > 0.0:
            raise ValueError(f"mean velocity must be positive, got u={self.u}")
        if not self.s_parallel > 1.0:
            raise ValueError(
                f"speed ratio must exceed 1, got s_parallel={self.s_parallel}"
            )
        for name in ("u", "s_parallel"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def sigma(self) -> float:
        """Gaussian velocity width u / (s_parallel sqrt(2)) in m/s."""
        return self.u / (self.s_parallel * math.sqrt(2.0))


@dataclass(frozen=True)
class VelocitySupport:
    """Truncated integration window for velocity averages, relative to
    the beam: +/- width_sigmas Gaussian sigmas about the mean velocity,
    so one window follows a beam whose speed ratio changes (as in a fit).

    node_count is the Gauss-Legendre order used on the window, an
    integer from 3 to MAX_NODE_COUNT.
    """

    width_sigmas: float = DEFAULT_WIDTH_SIGMAS
    node_count: int = DEFAULT_NODE_COUNT

    def __post_init__(self):
        if not 0.0 < self.width_sigmas < math.inf:
            raise ValueError(
                f"width_sigmas must be positive and finite, got {self.width_sigmas}"
            )
        # 257.0 and True compare as integers but cannot size the rule
        node_count = self.node_count
        if type(node_count) is not int and (
            isinstance(node_count, bool) or not isinstance(node_count, numbers.Integral)
        ):
            raise ValueError(f"node_count must be an integer, got {node_count!r}")
        if self.node_count < 3:
            raise ValueError(f"node_count must be at least 3, got {self.node_count}")
        if self.node_count > MAX_NODE_COUNT:
            raise ValueError(
                f"node_count must be at most {MAX_NODE_COUNT}, got {self.node_count}"
            )

    def bounds(self, beam: BeamModel) -> tuple[float, float]:
        """(v_min, v_max) in m/s of the window on beam, clamped away from v = 0.

        The lower edge is max(u - width_sigmas * sigma, 1e-3 * u) so the
        1/v factors in the phase terms stay finite for broad beams.  At the
        default width the two-sided Gaussian mass outside the window is
        ~1.4e-15, far below the quadrature tolerance; below a speed ratio
        of about 4.25 the clamp cuts off more than that tolerance, and the
        velocity average refuses such a window.
        """
        half = self.width_sigmas * beam.sigma
        v_min = max(beam.u - half, 1e-3 * beam.u)
        v_max = beam.u + half
        if not 0.0 < v_min < v_max < math.inf:
            raise ValueError(f"require 0 < v_min < v_max < inf, got [{v_min}, {v_max}]")
        return v_min, v_max


def velocity_pdf(beam: BeamModel, v):
    """Normalized velocity density P(v) of the beam.

    Accepts scalar or ndarray v (m/s); velocities must be positive,
    the density is evaluated as written (no flux or v^3 weighting).
    """
    v = np.asarray(v, dtype=float)
    if not (v > 0.0).all():  # NaN too
        raise ValueError("velocity samples must be positive")
    s_over_u = beam.s_parallel / beam.u
    out = (s_over_u / math.sqrt(math.pi)) * np.exp(-(((v - beam.u) * s_over_u) ** 2))
    return out if out.ndim else float(out)

