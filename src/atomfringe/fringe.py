"""Velocity-averaged fringe observables.

The interferometer signal is I = I0 [1 + V cos(psi + phi)].  A term
list A_k (u/v)^e_k, e_k in {0, 1, 2}, is folded once into its net
amplitude per exponent, net_e = sum_{k: e_k = e} A_k, so the phase is
the polynomial phi(v) = sum_e net_e (u/v)^e (a counterphase that zeroes
the u/v coefficient leaves phi exactly 0).  The fringe observed on the
full beam, relative to a monochromatic one, is the modulus and argument
of the complex average

    Z = Int P(v) exp(i phi(v)) dv ,

so visibility = |Z| and phase = arg Z.  This average is nonlinear: the
phase of a combined term list is not the sum of the individually
averaged phases, and a large dispersive phase destroys the contrast.

Integration is fixed-node Gauss-Legendre on the truncated support from
the beam module.  Every reported average is re-evaluated at 2n - 1
nodes; if the complex value moves by more than QUADRATURE_TOL the
result is not trusted and QuadratureConvergenceError is raised (raise
node_count in that case).  The density is not renormalised on the
window, so a visibility carries the quadrature's mass error (at most
1e-12 on the default 8-sigma window when it is not clamped at 1e-3 u)
and may read above 1 by that much.  A window that leaves more than
QUADRATURE_TOL of the beam's Gaussian mass outside (speed ratios below
about 4.25 at the default width, or width_sigmas below about 6.1)
raises QuadratureConvergenceError instead of reporting that mass as
lost visibility.  Both node grids, with the density folded into their
weights, are built once per (beam, support) and cached.

Phases beyond the principal branch are recovered by continuation: the
whole term list is scaled from 0 to its factor in steps small enough
that the averaged phase never jumps by pi/2, refining near visibility
nulls where the phase slews quickly.  The step count comes from the
same fold, l1 = sum_e |net_e|, which bounds the averaged polynomial
pointwise: a tuned null (u/v terms summing to 0) takes no walk, and a
Roberts mixture walks only as far as its uncancelled part.  A
call with several factors (``scales``) makes one such walk from 0 to
the farthest factor on each side of zero, with every requested factor
on the path, so a whole curve of u/v amplitudes costs one pass over
the velocity grid.  The walk's steps are equal, so its rows are built
by recurrence, row k = exp(i step phi)^k (one exp row, then a cumulative
product); they only choose the 2 pi branch, and every reported phase is
the principal value of an exactly computed row plus that multiple of
2 pi.
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
    "FringeCurve",
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
_UNIT_SCALE = np.ones(1)  # a plain call is the one-row curve at factor 1
_UNIT_INDEX = np.zeros(1, dtype=int)


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


@dataclass(frozen=True)
class FringeCurve:
    """Averaged fringes of one term list at several amplitude factors.

    Entry j belongs to the terms multiplied by scales[j].  visibility,
    phase and phase_unwrapped are as in FringeObservable.  The two
    complex derivative arrays hold d ln Z / d s (with respect to the
    factor) and d ln Z / d s_parallel (speed ratio, at fixed mean
    velocity): the imaginary part of each is the derivative of the
    phase, the real part that of ln visibility.
    """

    visibility: np.ndarray
    phase: np.ndarray
    phase_unwrapped: np.ndarray
    dlogz_dscale: np.ndarray
    dlogz_dspeed_ratio: np.ndarray


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


@lru_cache(maxsize=64)
def _weighted_nodes(beam: BeamModel, support: VelocitySupport):
    """Read-only nodes and density-weighted weights (v, w P, v2, w2 P)
    of the n and 2n - 1 node grids; raises QuadratureConvergenceError
    when more than QUADRATURE_TOL of the beam lies outside the window.
    """
    s_over_u = beam.s_parallel / beam.u
    outside = 0.5 * math.erfc((beam.u - support.v_min) * s_over_u) + 0.5 * math.erfc(
        (support.v_max - beam.u) * s_over_u
    )
    if outside > QUADRATURE_TOL:
        raise QuadratureConvergenceError(
            f"velocity window [{support.v_min:.6g}, {support.v_max:.6g}] m/s leaves "
            f"{outside:.3e} > {QUADRATURE_TOL:g} of the beam density outside at speed "
            f"ratio {beam.s_parallel:g}; widen width_sigmas (below a speed ratio of "
            "about 4.25 the 1e-3 u floor of the window cuts the beam)"
        )
    v, w = _grid(support)
    n2 = 2 * support.node_count - 1
    v2, w2 = _grid(VelocitySupport(support.v_min, support.v_max, n2))
    nodes = (v, w * velocity_pdf(beam, v), v2, w2 * velocity_pdf(beam, v2))
    for a in nodes:
        a.setflags(write=False)
    return nodes


def _phase_profile(net, beam: BeamModel, v):
    phi = np.zeros_like(v)
    u_over_v = beam.u / v
    for exponent, amplitude in net.items():
        phi += amplitude * u_over_v**exponent
    return phi


def _walk_side(end, l1, phi, wp):
    """Walk factors from 0 to end in ceil(|end| l1) equal steps, and arg Z
    at each, with row k built as exp(i end phi / steps)^k by np.cumprod.

    The product moves a walk Z by a few 1e-15 from the exact exp (its
    arg by up to about 1e-9 rad where |Z| > 1e-6), which can only matter
    for the choice of 2 pi branch.
    """
    steps = int(math.ceil(abs(end) * l1))
    rows = np.empty((steps + 1, phi.size), dtype=complex)
    rows[0] = 1.0
    if steps:
        rows[1:] = np.exp(1j * (end / steps * phi))
        np.cumprod(rows, axis=0, out=rows)
    return np.linspace(0.0, end, steps + 1), np.angle(rows @ wp)


def averaged_fringe(
    terms,
    beam: BeamModel,
    support: VelocitySupport | None = None,
    *,
    unwrap: bool = True,
    scales=None,
) -> FringeObservable | FringeCurve:
    """Velocity-averaged fringe of a list of dispersive phase terms.

    Parameters
    ----------
    terms : sequence of DispersivePhaseTerm
        Phase contributions, folded once into the net amplitude per
        exponent (terms of one exponent enter through their sum).
    beam : BeamModel
    support : VelocitySupport, optional
        Integration window and node count; defaults to the beam's
        8-sigma window at 257 nodes.
    unwrap : bool
        Skip the amplitude-continuation unwrap when False and report
        phase_unwrapped = nan.  Useful for visibility diagnostics at
        amplitudes so deep that |Z| sits at the float floor, where a
        continuous phase no longer exists numerically.
    scales : sequence of float, optional
        Average the term list multiplied by each factor and return a
        FringeCurve whose entries follow the order of scales.  All
        entries share one grid, one doubling grid and one continuation
        walk; equal factors give identical entries.

    Returns
    -------
    FringeObservable, or FringeCurve when scales is given.

    Raises
    ------
    QuadratureConvergenceError
        If re-evaluating at 2n - 1 nodes moves Z by more than
        QUADRATURE_TOL, or (with unwrap) if the continuation cannot
        track the phase through a visibility null.  With scales, the
        first failing entry in input order is reported.
    """
    if support is None:
        support = default_support(beam)
    curve = scales is not None
    if curve:
        scales = np.asarray(scales, dtype=float)
        if scales.ndim != 1 or scales.size == 0 or not np.isfinite(scales).all():
            raise ValueError("scales must be a non-empty sequence of finite numbers")
        # equal factors share one row, so they give bit-identical entries
        s, inv = np.unique(scales, return_inverse=True)
    else:
        s, inv = _UNIT_SCALE, _UNIT_INDEX

    # the one pass over terms: both grids and the walk bound use net
    net = {}
    for t in terms:
        net[t.exponent] = net.get(t.exponent, 0.0) + t.amplitude_at_mean
    v, wp, v2, wp2 = _weighted_nodes(beam, support)
    phi = _phase_profile(net, beam, v)
    rows = np.exp(1j * (s[:, None] * phi))
    if curve:
        # d ln P / d S at fixed u; the window's own motion with S only
        # moves mass that the truncation already neglects
        dlogp = 1.0 / beam.s_parallel - 2.0 * beam.s_parallel * ((v - beam.u) / beam.u) ** 2
        sums = rows @ np.column_stack([wp, wp * phi, wp * dlogp])
        z = sums[:, 0]
    else:
        z = rows @ wp

    # doubling check, every row against the same 2n - 1 node grid
    z2 = np.exp(1j * (s[:, None] * _phase_profile(net, beam, v2))) @ wp2
    dz = np.abs(z - z2)
    vis = np.abs(z)
    bad = dz > QUADRATURE_TOL
    if unwrap:
        # dz/|Z| estimates the error of arg(Z); once the visibility is
        # down at the quadrature floor the phase is pure noise and
        # unwrapping it would silently return garbage
        bad |= dz > _ARG_NOISE_RATIO * vis
    if bad.any():
        j = inv[np.argmax(bad[inv])]
        if dz[j] > QUADRATURE_TOL:
            raise QuadratureConvergenceError(
                f"velocity average not converged: {support.node_count} nodes gave "
                f"{complex(z[j]):.12e}, {v2.size} nodes gave {complex(z2[j]):.12e} "
                f"(moved {dz[j]:.3e} > {QUADRATURE_TOL:g}); raise node_count"
            )
        raise QuadratureConvergenceError(
            f"averaged phase unresolved: quadrature error {dz[j]:.3e} "
            f"is not small against |Z| = {vis[j]:.3e}; the phase is "
            "meaningless this deep into the dispersion tail (raise "
            "node_count, or pass unwrap=False for |Z| alone)"
        )

    principal = np.angle(z)
    # bounds the averaged polynomial itself; 0 at a tuned null (no walk)
    l1 = float(sum(abs(a) for a in net.values()))
    if not unwrap:
        unwrapped = np.full(s.size, math.nan)
    elif l1 == 0.0:
        unwrapped = principal
    else:
        # one walk from 0 to the farthest factor on each side: the net
        # amplitude l1 bounds |d arg / d s| up to the distribution's
        # (u/v)^2 reach, so ceil(|s| l1) steps keep each jump well under
        # pi/2; steps that still jump too far (near visibility nulls) are
        # bisected.  Every requested factor lies on the path (tag = its
        # row).  Each side's rows come by recurrence (see _walk_side);
        # bisection midpoints keep their exact exp.
        (lo, lo_args), (hi, hi_args) = (
            _walk_side(end, l1, phi, wp) for end in (min(s[0], 0.0), max(s[-1], 0.0))
        )
        path = np.concatenate([lo, hi, s])
        args = np.concatenate([lo_args, hi_args, principal])
        tag = np.concatenate([np.full(lo.size + hi.size, -1), np.arange(s.size)])
        for _ in range(_MAX_REFINE_PASSES):
            order = np.argsort(path, kind="stable")
            path, args, tag = path[order], args[order], tag[order]
            walked = np.unwrap(args)
            jumps = np.abs(np.diff(walked)) > _MAX_STEP_RAD
            if not jumps.any():
                break
            mids = 0.5 * (path[:-1][jumps] + path[1:][jumps])
            path = np.concatenate([path, mids])
            args = np.concatenate([args, np.angle(np.exp(1j * (mids[:, None] * phi)) @ wp)])
            tag = np.concatenate([tag, np.full(mids.size, -1)])
        else:
            raise QuadratureConvergenceError(
                "phase continuation did not stabilize; the averaged phase jumps by "
                "more than pi/2 at every refinement depth (visibility null too sharp)"
            )
        # arg Z(0) = 0 anchors both sides of the walk
        walked -= walked[np.searchsorted(path, 0.0)]
        on_path = tag >= 0
        unwrapped = np.empty(s.size)
        unwrapped[tag[on_path]] = walked[on_path]
        # continuation ends on the same grid, so it differs from the
        # principal value by an exact multiple of 2 pi; snap it there
        unwrapped = principal + _TWO_PI * np.round((unwrapped - principal) / _TWO_PI)

    if not curve:
        return FringeObservable(
            visibility=float(vis[0]),
            phase=float(principal[0]),
            phase_unwrapped=float(unwrapped[0]),
        )
    return FringeCurve(
        visibility=vis[inv],
        phase=principal[inv],
        phase_unwrapped=unwrapped[inv],
        dlogz_dscale=(1j * sums[:, 1] / z)[inv],
        dlogz_dspeed_ratio=(sums[:, 2] / z)[inv],
    )


def measured_phase_shift(
    terms_on,
    terms_off,
    beam: BeamModel,
    support: VelocitySupport | None = None,
) -> float:
    """Difference of unwrapped averaged phases, terms_on minus terms_off.

    This is the measurement protocol: the phase with the perturbation
    applied minus the phase of the undisturbed interferometer, both
    velocity-averaged (the always-present terms do not subtract out
    exactly because the average is nonlinear).
    """
    on = averaged_fringe(terms_on, beam, support)
    off = averaged_fringe(terms_off, beam, support)
    return on.phase_unwrapped - off.phase_unwrapped


def non_additivity_gap(
    term_a: DispersivePhaseTerm,
    term_b: DispersivePhaseTerm,
    beam: BeamModel,
    support: VelocitySupport | None = None,
) -> float:
    """<phase of a+b> - <phase of a> - <phase of b>.

    Zero for a monochromatic beam; nonzero in general because averaging
    the phase is not linear in the terms.
    """
    both = averaged_fringe([term_a, term_b], beam, support)
    only_a = averaged_fringe([term_a], beam, support)
    only_b = averaged_fringe([term_b], beam, support)
    return both.phase_unwrapped - only_a.phase_unwrapped - only_b.phase_unwrapped


def visibility_ratio(
    terms,
    beam: BeamModel,
    support: VelocitySupport | None = None,
) -> float:
    """Averaged visibility relative to the zero-dispersion visibility, |Z|."""
    # |Z| needs no unwrap, so this stays usable past the point where
    # the continuous phase drowns in the quadrature floor
    return averaged_fringe(terms, beam, support, unwrap=False).visibility
