"""Velocity-averaged fringe observables.

The interferometer signal is I = I0 [1 + V cos(psi + phi)].  With a
velocity-dispersive phase phi(v) = sum_k A_k (u/v)^e_k, the fringe
observed on the full beam is the modulus and argument of the complex
average

    Z = v0 * Int P(v) exp(i phi(v)) dv ,

so visibility = |Z| and phase = arg Z.  This average is nonlinear: the
phase of a combined term list is not the sum of the individually
averaged phases, and a large dispersive phase destroys the contrast.

Integration is fixed-node Gauss-Legendre on the truncated support from
the beam module.  Every reported average is re-evaluated at 2n - 1
nodes; if the complex value moves by more than QUADRATURE_TOL the
result is not trusted and QuadratureConvergenceError is raised (raise
node_count in that case).  Phases beyond the principal branch are
recovered by continuation: the whole term list is scaled from 0 to 1
in steps small enough that the averaged phase never jumps by pi/2,
refining near visibility nulls where the phase slews quickly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .beam import BeamModel, VelocitySupport, default_support, velocity_pdf
from .phase import DispersivePhaseTerm

__all__ = [
    "QUADRATURE_TOL",
    "QuadratureConvergenceError",
    "FringeObservable",
    "averaged_fringe",
    "measured_phase_shift",
    "non_additivity_gap",
    "visibility_ratio",
]

QUADRATURE_TOL = 1e-9  # |Z_n - Z_{2n-1}| above this is a diagnostic

_TWO_PI = 2.0 * math.pi
_MAX_STEP_RAD = 0.5 * math.pi  # continuation step bound
_MAX_REFINE_PASSES = 40
_ARG_NOISE_RATIO = 1e-3  # max quadrature error, relative to |Z|, for arg(Z) to mean anything


class QuadratureConvergenceError(RuntimeError):
    """Doubling the quadrature nodes moved the average beyond tolerance."""


@dataclass(frozen=True)
class FringeObservable:
    """Averaged fringe visibility and phase.

    phase is the principal value in (-pi, pi]; phase_unwrapped is the
    continuation-unwrapped value (equal to phase modulo 2 pi), which is
    continuous along any continuous sweep of the term amplitudes.
    """

    visibility: float
    phase: float
    phase_unwrapped: float
    v0_reference: float


@lru_cache(maxsize=64)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _grid(support: VelocitySupport):
    """Gauss-Legendre nodes and weights mapped onto [v_min, v_max]."""
    x, w = _leggauss(support.node_count)
    half = 0.5 * (support.v_max - support.v_min)
    mid = 0.5 * (support.v_max + support.v_min)
    return mid + half * x, half * w


def _phase_profile(terms, beam: BeamModel, v):
    phi = np.zeros_like(v)
    for t in terms:
        phi += t.amplitude_at_mean * (beam.u / v) ** t.exponent
    return phi


def _check_convergence(terms, beam, support, z) -> float:
    """Doubling test: returns |dZ| between node_count and 2n - 1 nodes."""
    n2 = 2 * support.node_count - 1
    v2, w2 = _grid(VelocitySupport(support.v_min, support.v_max, n2))
    wp2 = w2 * velocity_pdf(beam, v2)
    z2 = complex(np.sum(wp2 * np.exp(1j * _phase_profile(terms, beam, v2))))
    err = abs(z - z2)
    if err > QUADRATURE_TOL:
        raise QuadratureConvergenceError(
            f"velocity average not converged: {support.node_count} nodes gave "
            f"{z:.12e}, {n2} nodes gave {z2:.12e} (moved {err:.3e} > "
            f"{QUADRATURE_TOL:g}); raise node_count"
        )
    return err


def _unwrapped_arg(wp, phi, l1: float) -> float:
    """Continuation-unwrapped arg of sum(wp * e^{i s phi}) at s = 1.

    l1 bounds |d arg / d s| up to the distribution's (u/v)^2 reach, so
    ceil(l1) unit steps keep each jump well under pi/2; steps that still
    jump too far (near visibility nulls) are bisected.
    """
    if l1 == 0.0:
        return 0.0
    scales = np.linspace(0.0, 1.0, int(math.ceil(l1)) + 1)
    args = np.angle(np.exp(1j * np.outer(scales, phi)) @ wp)
    for _ in range(_MAX_REFINE_PASSES):
        jumps = np.abs(np.diff(np.unwrap(args)))
        bad = jumps > _MAX_STEP_RAD
        if not bad.any():
            return float(np.unwrap(args)[-1])
        mids = 0.5 * (scales[:-1][bad] + scales[1:][bad])
        mid_args = np.angle(np.exp(1j * np.outer(mids, phi)) @ wp)
        scales = np.concatenate([scales, mids])
        args = np.concatenate([args, mid_args])
        order = np.argsort(scales, kind="stable")
        scales = scales[order]
        args = args[order]
    raise QuadratureConvergenceError(
        "phase continuation did not stabilize; the averaged phase jumps by "
        "more than pi/2 at every refinement depth (visibility null too sharp)"
    )


def averaged_fringe(
    terms,
    beam: BeamModel,
    v0: float = 1.0,
    support: VelocitySupport | None = None,
    *,
    unwrap: bool = True,
) -> FringeObservable:
    """Velocity-averaged fringe of a list of dispersive phase terms.

    Parameters
    ----------
    terms : sequence of DispersivePhaseTerm
        Phase contributions, summed pointwise in velocity.
    beam : BeamModel
    v0 : float
        Monochromatic (zero-dispersion) visibility, in (0, 1].
    support : VelocitySupport, optional
        Integration window and node count; defaults to the beam's
        8-sigma window at 257 nodes.
    unwrap : bool
        Skip the amplitude-continuation unwrap when False and report
        phase_unwrapped = nan.  Useful for visibility diagnostics at
        amplitudes so deep that |Z| sits at the float floor, where a
        continuous phase no longer exists numerically.

    Raises
    ------
    QuadratureConvergenceError
        If re-evaluating at 2n - 1 nodes moves Z by more than
        QUADRATURE_TOL, or (with unwrap) if the continuation cannot
        track the phase through a visibility null.
    """
    if not 0.0 < v0 <= 1.0:
        raise ValueError(f"v0 must be in (0, 1], got {v0}")
    if support is None:
        support = default_support(beam)
    v, w = _grid(support)
    wp = w * velocity_pdf(beam, v)
    phi = _phase_profile(terms, beam, v)
    z = complex(np.sum(wp * np.exp(1j * phi)))
    dz = _check_convergence(terms, beam, support, z)

    principal = float(np.angle(z))
    if unwrap:
        # dz/|Z| estimates the error of arg(Z); once the visibility is
        # down at the quadrature floor the phase is pure noise and
        # unwrapping it would silently return garbage
        if dz > _ARG_NOISE_RATIO * abs(z):
            raise QuadratureConvergenceError(
                f"averaged phase unresolved: quadrature error {dz:.3e} "
                f"is not small against |Z| = {abs(z):.3e}; the phase is "
                "meaningless this deep into the dispersion tail (raise "
                "node_count, or pass unwrap=False for |Z| alone)"
            )
        l1 = float(sum(abs(t.amplitude_at_mean) for t in terms))
        unwrapped = _unwrapped_arg(wp, phi, l1)
        # continuation ends on the same grid, so it differs from the
        # principal value by an exact multiple of 2 pi; snap it there
        unwrapped = principal + _TWO_PI * round((unwrapped - principal) / _TWO_PI)
    else:
        unwrapped = math.nan

    return FringeObservable(
        visibility=v0 * abs(z),
        phase=principal,
        phase_unwrapped=unwrapped,
        v0_reference=v0,
    )


def measured_phase_shift(
    terms_on,
    terms_off,
    beam: BeamModel,
    v0: float = 1.0,
    support: VelocitySupport | None = None,
) -> float:
    """Difference of unwrapped averaged phases, terms_on minus terms_off.

    This is the measurement protocol: the phase with the perturbation
    applied minus the phase of the undisturbed interferometer, both
    velocity-averaged (the always-present terms do not subtract out
    exactly because the average is nonlinear).
    """
    on = averaged_fringe(terms_on, beam, v0, support)
    off = averaged_fringe(terms_off, beam, v0, support)
    return on.phase_unwrapped - off.phase_unwrapped


def non_additivity_gap(
    term_a: DispersivePhaseTerm,
    term_b: DispersivePhaseTerm,
    beam: BeamModel,
    v0: float = 1.0,
    support: VelocitySupport | None = None,
) -> float:
    """<phase of a+b> - <phase of a> - <phase of b>.

    Zero for a monochromatic beam; nonzero in general because averaging
    the phase is not linear in the terms.
    """
    both = averaged_fringe([term_a, term_b], beam, v0, support)
    only_a = averaged_fringe([term_a], beam, v0, support)
    only_b = averaged_fringe([term_b], beam, v0, support)
    return both.phase_unwrapped - only_a.phase_unwrapped - only_b.phase_unwrapped


def visibility_ratio(
    terms,
    beam: BeamModel,
    v0: float = 1.0,
    support: VelocitySupport | None = None,
) -> float:
    """Averaged visibility normalized by the zero-dispersion visibility."""
    # |Z| needs no unwrap, so this stays usable past the point where
    # the continuous phase drowns in the quadrature floor
    obs = averaged_fringe(terms, beam, v0, support, unwrap=False)
    return obs.visibility / obs.v0_reference
