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
the beam module.  Every reported average is checked against the
Gauss-Kronrod (2n + 1 nodes) extension of its n-node rule, which reuses
the n Gauss nodes and adds n + 1 (Laurie's algorithm); if the two
complex values differ by more than QUADRATURE_TOL the result is not
trusted and QuadratureConvergenceError is raised (raise node_count in
that case).  The density is not renormalised on the window, so a
visibility carries the quadrature's mass error (at most 1e-12 on the
default 8-sigma window when it is not clamped at 1e-3 u) and may read
above 1 by that much.  A window that leaves more than
QUADRATURE_TOL of the beam's Gaussian mass outside (speed ratios below
about 4.25 at the default width, or width_sigmas below about 6.1)
raises QuadratureConvergenceError instead of reporting that mass as
lost visibility.  The 2n + 1 nodes, with the density folded into both
rules' weights and the powers of u/v evaluated on them, are built once
per (beam, support) and cached; a call without a support finds the
default window's nodes under the key (beam, None).

A plain call (no ``scales``) is one row exp(i phi) on the 2n + 1 nodes
and its two sums, Z and Z_K, each one np.dot.  These become Python
complex numbers, and everything after them is scalar work: the check
above (and, with unwrap, the test that |Z_K - Z| is small against |Z|,
without which arg Z is noise), visibility = abs(Z), the principal
phase, and nan or the tuned-null shortcut for phase_unwrapped; a plain
call that needs a walk takes the curves' walk at the one factor 1.  One
private function does all of this and returns the three numbers as
Python floats, which averaged_fringe wraps in a FringeObservable;
visibility_ratio reads the visibility of that observable.  A curve
checks and reports each entry through the plain call's scalar check and
report, in input order, so an entry at factor 1 is bit-identical to the
plain call and the first failing entry raises the plain call's error.
Every exactly computed row (plain, curve, the walk's first row and the
bisection midpoints) is built one way: the phase is written into the
imaginary part of a zeroed complex buffer, which is exponentiated in
place, so no 1j * phi temporary is made.

Phases beyond the principal branch are recovered by continuation: the
whole term list is scaled from 0 to its factor in steps small enough
that the averaged phase never jumps by pi/2, refining near visibility
nulls where the phase slews quickly.  The step count comes from the
same fold, l1 = sum_e |net_e|, which bounds the averaged polynomial
pointwise: a tuned null (u/v terms summing to 0) takes no walk, and a
Roberts mixture walks only as far as its uncancelled part.  A
call with several factors (``scales``) makes one such walk from 0 to
the farthest factor on each side of zero, with factor 0 (arg exactly
0) and every requested factor on the path, so a whole curve of u/v
amplitudes costs one pass over the velocity grid, and each side computes
only its inner points (none for a side of one step).  The walk's steps
are equal, so its rows are built by recurrence, row k = exp(i step
phi)^k (one exp row, then block doubling); they only choose the 2 pi
branch, and every reported phase is the principal value of an exactly
computed row plus 2 pi times the branches the walk crossed.
"""

from __future__ import annotations

import cmath
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

QUADRATURE_TOL = 1e-9  # |Z_n - Z_{2n+1}^Kronrod| above this is a diagnostic

_TWO_PI = 2.0 * math.pi
_MAX_STEP_RAD = 0.5 * math.pi  # continuation step bound
_MAX_REFINE_PASSES = 40
_ARG_NOISE_RATIO = 1e-3  # max quadrature error, relative to |Z|, for arg(Z) to mean anything


class QuadratureConvergenceError(RuntimeError):
    """A velocity average that cannot be trusted: the Gauss-Kronrod (2n + 1
    nodes) check moved it beyond tolerance, the window cuts the beam, or
    its phase cannot be resolved."""


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


@lru_cache(maxsize=64)
def _kronrod(n: int):
    """Read-only Kronrod extension of the n-node Gauss-Legendre rule on
    [-1, 1]: (the 2n + 1 abscissae, the n Gauss nodes of _leggauss(n)
    first, then the n + 1 Kronrod nodes; the Kronrod weights on all of
    them), by Laurie's algorithm (Math. Comp. 66:1133, 1997) for the
    Legendre weight.
    """
    # the Jacobi-Kronrod matrix has a zero diagonal (the weight is even)
    # and off-diagonal sqrt(b_k), k = 1 .. 2n; b_0 = 2 is the mass and
    # b_1 .. b_ceil(3n/2) are Legendre's k^2 / (4 k^2 - 1)
    known = -(-3 * n // 2)
    k = np.arange(1.0, known + 1)
    b = np.zeros(2 * n + 1)
    b[0] = 2.0
    b[1 : known + 1] = k * k / (4.0 * k * k - 1.0)
    # Laurie's mixed moments for the rest.  With a zero diagonal his two
    # arrays decouple and the one started at 0 stays 0, so only the odd
    # steps m, which update the other, are run.  Each inner loop reads
    # old entries only, hence one cumsum per step.  The entries shrink
    # geometrically (0/0 for n above about 540), and only their ratios
    # are used, so every step rescales them by a power of 2, exactly.
    s = np.zeros(n // 2 + 2)
    s[1] = b[n + 1]
    for m in range(1, 2 * n - 2, 2):
        if m < n - 1:
            k = np.arange((m + 1) // 2, -1, -1)
            s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        else:
            if m == n - 1:  # n even: his shift between the loops lands here
                s[1:] = s[:-1].copy()
            k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
            j = k + n - 1 - m
            s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s = np.ldexp(s, -np.frexp(np.abs(s).max())[1])
    # J^2 splits into even- and odd-index rows; the odd block is n x n
    # tridiagonal with the squares of the n positive nodes as eigenvalues,
    # the 2n + 1 nodes are 0 and +-those, and the Kronrod ones fall on
    # every other place, the Gauss ones between them
    d = b[1 : 2 * n : 2] + b[2::2]
    e = np.sqrt(b[2 : 2 * n - 1 : 2] * b[3 : 2 * n : 2])
    positive = np.sqrt(np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1)))
    x_kronrod = np.concatenate([-positive[::-1], [0.0], positive])[::2]
    # weight = b_0 / |p(x)|^2 over the orthonormal polynomials p_0 .. p_2n
    # of the matrix (its eigenvector at x), by their three-term recurrence
    x = np.concatenate([_leggauss(n)[0], x_kronrod])
    beta = np.sqrt(b).tolist()
    p_prev, p, norm2 = np.zeros_like(x), np.ones_like(x), np.ones_like(x)
    for k in range(1, 2 * n + 1):
        p_prev, p = p, (x * p - beta[k - 1] * p_prev) / beta[k]
        norm2 += p * p
    w = b[0] / norm2
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=64)
def _weighted_nodes(beam: BeamModel, support: VelocitySupport | None):
    """Read-only arrays on the 2n + 1 nodes v of the Gauss-Kronrod grid,
    the n Gauss nodes first: (powers, w P, w_K P, d ln P / d S), where
    powers[e] = (u/v)^e for e = 0, 1, 2 on every node, w P and d ln P / d S
    are on the Gauss nodes only and the Kronrod weights w_K P on all.
    Support None is the beam's default window, so a default call finds
    its nodes without building one.  Raises QuadratureConvergenceError
    when more than QUADRATURE_TOL of the beam lies outside the window.
    """
    if support is None:
        support = default_support(beam)
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
    n = support.node_count
    w = _leggauss(n)[1]
    x, w_kronrod = _kronrod(n)
    half = 0.5 * (support.v_max - support.v_min)
    mid = 0.5 * (support.v_max + support.v_min)
    v = mid + half * x
    # the density on the Gauss nodes as an array of its own, as the n-node
    # rule alone computes it, so that w P cannot depend on the new nodes
    pdf = np.concatenate([velocity_pdf(beam, v[:n]), velocity_pdf(beam, v[n:])])
    powers = np.empty((3, v.size))
    powers[0] = 1.0
    np.divide(beam.u, v, out=powers[1])
    np.multiply(powers[1], powers[1], out=powers[2])
    # d ln P / d S at fixed u; the window's own motion with S only
    # moves mass that the truncation already neglects
    dlogp = 1.0 / beam.s_parallel - 2.0 * beam.s_parallel * ((v[:n] - beam.u) / beam.u) ** 2
    # both weight arrays complex (zero imaginary part): a product with a
    # complex row then skips the cast numpy would make on every call
    nodes = (
        powers,
        (half * w * pdf[:n]).astype(complex),
        (half * w_kronrod * pdf).astype(complex),
        dlogp,
    )
    for a in nodes:
        a.setflags(write=False)
    return nodes


def _phase_profile(terms, beam, support):
    """The one pass over terms: (l1, phi, w P, w_K P, d ln P / d S), where
    phi = sum_e net_e (u/v)^e on every node (0 for no terms), l1 =
    sum_e |net_e| and the rest is _weighted_nodes(beam, support)."""
    net = {}
    for t in terms:
        net[t.exponent] = net.get(t.exponent, 0.0) + t.amplitude_at_mean
    # bounds the averaged polynomial itself; 0 at a tuned null (no walk)
    l1 = float(sum(map(abs, net.values())))
    powers, wp, wkp, dlogp = _weighted_nodes(beam, support)
    items = iter(net.items())
    exponent, amplitude = next(items, (0, 0.0))
    phi = amplitude * powers[exponent]
    for exponent, amplitude in items:
        phi += amplitude * powers[exponent]
    return l1, phi, wp, wkp, dlogp


def _exp_i(phase):
    """exp(i phase) elementwise, for every exactly computed row: the phase
    goes into the imaginary part of a zeroed complex buffer, which is
    exponentiated in place, so no 1j * phase temporary is made."""
    rows = np.zeros(phase.shape, dtype=complex)
    rows.imag = phase
    return np.exp(rows, out=rows)


def _report(z: complex, zk: complex, n: int, unwrap: bool):
    """(|z|, arg z) of one n-node Gauss sum z, or QuadratureConvergenceError
    when its Gauss-Kronrod value zk (same row, 2n + 1 nodes) moved it by
    more than QUADRATURE_TOL, or (with unwrap) by more than
    _ARG_NOISE_RATIO |z|."""
    dz = abs(z - zk)
    vis = abs(z)
    if not dz <= QUADRATURE_TOL:  # a NaN average fails too
        raise QuadratureConvergenceError(
            f"velocity average not converged: {n} Gauss nodes gave "
            f"{z:.12e}, Gauss-Kronrod ({2 * n + 1} nodes) gave "
            f"{zk:.12e} (moved {dz:.3e} > {QUADRATURE_TOL:g}); "
            "raise node_count"
        )
    # dz/|Z| estimates the error of arg(Z); once the visibility is down
    # at the quadrature floor the phase is pure noise and unwrapping it
    # would silently return garbage
    if unwrap and dz > _ARG_NOISE_RATIO * vis:
        raise QuadratureConvergenceError(
            f"averaged phase unresolved: quadrature error {dz:.3e} "
            f"is not small against |Z| = {vis:.3e}; the phase is "
            "meaningless this deep into the dispersion tail (raise "
            "node_count, or pass unwrap=False for |Z| alone)"
        )
    return vis, cmath.phase(z)


def _walk_side(end, l1, phi, wp):
    """The walk from 0 to end in ceil(|end| l1) equal steps, without its two
    ends (both are on the path already): its factors and arg Z at each.

    Row k = r^k, r = exp(i end phi / steps), is built by block doubling:
    rows m + 1 .. m + k are rows 1 .. k times r^m.  The products move a
    walk Z by a few 1e-15 from the exact exp (its arg by up to about 1e-9
    rad where |Z| > 1e-6), which can only matter for the choice of 2 pi
    branch.  A walk of one step has no inner point.
    """
    steps = math.ceil(abs(end) * l1)
    if steps < 2:
        return np.empty(0), np.empty(0)
    rows = np.empty((steps - 1, phi.size), dtype=complex)
    rows[0] = _exp_i(end / steps * phi)
    m = 1
    while m < steps - 1:
        k = min(m, steps - 1 - m)
        np.multiply(rows[:k], rows[m - 1], out=rows[m : m + k])
        m += k
    return np.arange(1, steps) * (end / steps), np.angle(rows @ wp)


def _unwrap(s, principal, l1, phi, wp):
    """Continuation-unwrapped phases at the sorted distinct factors s
    (l1 > 0), whose principal values are principal.

    One walk from 0 to the farthest factor on each side: the net
    amplitude l1 bounds |d arg / d s| up to the distribution's (u/v)^2
    reach, so ceil(|s| l1) steps keep each jump well under pi/2; steps
    that still jump too far (near visibility nulls) are bisected.  Every
    factor of s lies on the path (requested), and so does factor 0 at
    arg exactly 0 (the weights are real), once.  Each side walks only
    its inner points, by recurrence (see _walk_side); bisection
    midpoints keep their exact exp.
    """
    (lo, lo_args), (hi, hi_args) = (
        _walk_side(end, l1, phi, wp) for end in (min(s[0], 0.0), max(s[-1], 0.0))
    )
    path = np.concatenate([[0.0], lo, hi, s])
    args = np.concatenate([[0.0], lo_args, hi_args, principal])
    requested = np.arange(path.size) > lo.size + hi.size  # the entries of s
    for _ in range(_MAX_REFINE_PASSES):
        order = path.argsort(kind="stable")
        path, args, requested = path[order], args[order], requested[order]
        # each step between neighbours crosses the 2 pi branches that bring
        # it nearest to 0; what is left of it must stay under pi/2
        step = args[1:] - args[:-1]
        turns = np.rint(step / _TWO_PI)
        jumps = np.abs(step - _TWO_PI * turns) > _MAX_STEP_RAD
        if not jumps.any():
            break
        mids = 0.5 * (path[:-1][jumps] + path[1:][jumps])
        path = np.concatenate([path, mids])
        args = np.concatenate([args, np.angle(_exp_i(mids[:, None] * phi) @ wp)])
        requested = np.concatenate([requested, np.zeros(mids.size, dtype=bool)])
    else:
        raise QuadratureConvergenceError(
            "phase continuation did not stabilize; the averaged phase jumps by "
            "more than pi/2 at every refinement depth (visibility null too sharp)"
        )
    # branches crossed from the start of the path, counted from factor 0
    # (arg exactly 0, kept first among the zeros by the stable sort)
    crossed = np.zeros(path.size)
    turns.cumsum(out=crossed[1:])
    crossed -= crossed[np.searchsorted(path, 0.0)]
    # the principal value of an exactly computed row, on the walk's branch;
    # s is sorted and distinct, so its factors lie on the path in its order
    return principal - _TWO_PI * crossed[requested]


def _plain(terms, beam, support, unwrap):
    """(visibility, phase, phase_unwrapped) of averaged_fringe without
    scales, as Python floats: one exact row on the 2n + 1 nodes, its sums
    Z and Z_K, the report and, with unwrap, the walk at the one factor 1."""
    l1, phi, wp, wkp, _ = _phase_profile(terms, beam, support)
    n = wp.size
    row = _exp_i(phi)
    vis, phase = _report(complex(np.dot(row[:n], wp)), complex(np.dot(row, wkp)), n, unwrap)
    if not unwrap:
        return vis, phase, math.nan
    if l1 == 0.0:
        return vis, phase, phase
    return vis, phase, float(_unwrap(np.ones(1), np.array([phase]), l1, phi[:n], wp)[0])


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
        entries share one Gauss-Kronrod grid and one continuation walk;
        equal factors give identical entries, and an entry at factor 1
        is bit-identical to the plain call.

    Returns
    -------
    FringeObservable, or FringeCurve when scales is given.

    Raises
    ------
    QuadratureConvergenceError
        If the Gauss-Kronrod (2n + 1 nodes) value of Z differs from the
        n-node one by more than QUADRATURE_TOL, or (with unwrap) if the
        continuation cannot track the phase through a visibility null.  With scales, the
        first failing entry in input order is reported.
    """
    if scales is None:
        return FringeObservable(*_plain(terms, beam, support, unwrap))
    scales = np.asarray(scales, dtype=float)
    if scales.ndim != 1 or scales.size == 0 or not np.isfinite(scales).all():
        raise ValueError("scales must be a non-empty sequence of finite numbers")
    l1, phi, wp, wkp, dlogp = _phase_profile(terms, beam, support)
    n = wp.size

    # equal factors (0.0 and -0.0 too) share one row, so they give
    # bit-identical entries: s holds the distinct factors in ascending
    # order, scales[j] == s[inv[j]]
    order = scales.argsort(kind="stable")
    ascending = scales[order]
    first = np.empty(ascending.size, dtype=bool)
    first[0] = True
    np.not_equal(ascending[1:], ascending[:-1], out=first[1:])
    s = ascending[first]
    inv = np.empty_like(order)
    inv[order] = first.cumsum() - 1
    rows = _exp_i(s[:, None] * phi)
    z = rows[:, :n] @ wp
    # each entry is checked and reported as its plain call is, in input
    # order, so the first failing entry raises
    zl, zkl = z.tolist(), (rows @ wkp).tolist()
    vis, principal = np.array([_report(zl[j], zkl[j], n, unwrap) for j in inv.tolist()]).T
    if not unwrap:
        unwrapped = np.full(scales.size, math.nan)
    elif l1 == 0.0:
        unwrapped = principal.copy()
    else:
        distinct = np.empty(s.size)
        distinct[inv] = principal
        unwrapped = _unwrap(s, distinct, l1, phi[:n], wp)[inv]
    sums = rows[:, :n] @ np.column_stack([wp * phi[:n], wp * dlogp])
    return FringeCurve(
        visibility=vis,
        phase=principal,
        phase_unwrapped=unwrapped,
        dlogz_dscale=(1j * sums[:, 0] / z)[inv],
        dlogz_dspeed_ratio=(sums[:, 1] / z)[inv],
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
