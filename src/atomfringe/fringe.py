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
averaged phases (non_additivity_gap), and a large dispersive phase
destroys the contrast.  A measured phase shift, perturbation on minus
off, is the difference of two averages' phase_unwrapped.

Integration is fixed-node Gauss-Legendre on the truncated support from
the beam module.  Every reported average is checked against the
Gauss-Kronrod (2n + 1 nodes) extension of its n-node rule, which reuses
the n Gauss nodes and adds n + 1 (Laurie's algorithm); if the two
complex values differ by more than QUADRATURE_TOL the result is not
trusted and QuadratureConvergenceError is raised (raise node_count, up
to beam.MAX_NODE_COUNT, in that case).  The density is not renormalised
on the window, so a visibility carries the quadrature's mass error (at
most 1e-12 on the default 8-sigma window when it is not clamped at
1e-3 u) and may read above 1 by that much.  A window that leaves more
than QUADRATURE_TOL of the beam's Gaussian mass outside (speed ratios
below about 4.25 at the default width, or width_sigmas below about 6.1)
raises QuadratureConvergenceError instead of reporting that mass as
lost visibility.  The default order's n-node rule and its Kronrod
extension ship with the package as data written from the build and are
read once per process; for every other n they are built on first use
(about 35 ms at 257 nodes, more for larger n) and cached.  The 2n + 1
nodes, with the density folded into both rules' weights and the powers
of u/v evaluated on them, are built once per (beam, support) and
cached; the window is relative to the beam
(VelocitySupport.bounds), so a call without a support finds the default
window's nodes under the key (beam, VelocitySupport()).

A plain call (no ``scales``) is one row exp(i phi) on the 2n + 1 nodes
and its two sums, Z and Z_K, each one np.dot.  These become Python
complex numbers, and everything after them is scalar work: the check
above (and, with unwrap, the test that |Z_K - Z| is small against |Z|,
without which arg Z is noise), visibility = abs(Z), the principal
phase, and nan or the unwrap at the one factor 1 for phase_unwrapped
(its slope is one more np.dot).  A curve checks and reports each entry
through the plain call's scalar check and report, in input order, so an
entry at factor 1 is bit-identical to the plain call and the first
failing entry raises the plain call's error.
Every exactly computed row (plain, curve and the unwrap's bisection
midpoints) is built one way, in the half-angle form
exp(i phi) = (q - 1) + i t q with t = tan(phi / 2), q = 2 / (1 + t^2):
numpy's float64 tan is vectorised (SIMD) where its cos and sin run one
element at a time (without SIMD a row should cost about one libm call;
not measured).  Each element is within 2^-51 absolute of (cos phi,
sin phi), libm's being within 2^-53; Z only sums w row, so only this
absolute error reaches it, five orders of magnitude below
QUADRATURE_TOL.

Phases beyond the principal branch are recovered by continuation in the
factor s that multiplies the whole term list, from s = 0 (arg Z exactly
0) to each requested factor.  Every exact row already gives the exact
slope d arg Z / ds = Re(sum w P phi row / Z), the phase part of
dlogz_dscale, so the unwrap builds rows only where it bisects: factor 0
and the requested factors are held in rank order, and between neighbours
the trapezoid rule on the two slopes predicts the change of arg; the
step crosses the 2 pi turns that bring its principal difference nearest
that prediction (Tribolet's adaptive phase unwrapping, IEEE Trans. ASSP
25:170, 1977).  A step is trusted when what is left is under pi/4 and
the change of slope times the step is under pi/2; near a visibility
null, where the phase slews, the others are bisected, each midpoint put
in its place with one exact row, its arg and its slope.  Every reported
phase is the principal value of an exactly computed row plus 2 pi times
the turns crossed from factor 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .beam import DEFAULT_NODE_COUNT, BeamModel, VelocitySupport, velocity_pdf
from .phase import DispersivePhaseTerm

__all__ = [
    "QUADRATURE_TOL",
    "QuadratureConvergenceError",
    "FringeObservable",
    "FringeCurve",
    "averaged_fringe",
    "non_additivity_gap",
    "visibility_ratio",
]

QUADRATURE_TOL = 1e-9  # |Z_n - Z_{2n+1}^Kronrod| above this is a diagnostic

_TWO_PI = 2.0 * math.pi
_MAX_LEFTOVER_RAD = 0.25 * math.pi  # trusted miss of a step's predicted change of arg
_MAX_SLOPE_CHANGE_RAD = 0.5 * math.pi  # trusted change of slope times step
_MAX_REFINE_PASSES = 40
_MAX_MIDPOINT_VALUES = 1 << 23  # bisection rows of one unwrap, in complex values (128 MiB)
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


# the rule _build_kronrod(DEFAULT_NODE_COUNT) returns, written from the
# build by np.save(path, np.concatenate(_build_kronrod(257))): the 515
# abscissae, the 257 Gauss weights and the 515 Kronrod weights
_STORED_RULE = Path(__file__).with_name(f"kronrod_{DEFAULT_NODE_COUNT}.npy")


@lru_cache(maxsize=64)
def _kronrod(n: int):
    """Read-only n-node Gauss-Legendre rule on [-1, 1] and its Kronrod
    extension, as _build_kronrod(n) returns it: read from _STORED_RULE
    for the default order, built for every other n."""
    if n != DEFAULT_NODE_COUNT:
        return _build_kronrod(n)
    rule = np.load(_STORED_RULE)
    if rule.dtype != np.dtype("<f8") or rule.shape != (5 * n + 2,):
        raise RuntimeError(
            f"{_STORED_RULE}: expected {5 * n + 2} little-endian float64 values, "
            f"got shape {rule.shape} of dtype {rule.dtype}"
        )
    rule.setflags(write=False)
    return rule[: 2 * n + 1], rule[2 * n + 1 : 3 * n + 1], rule[3 * n + 1 :]


def _build_kronrod(n: int):
    """The n-node Gauss-Legendre rule on [-1, 1] and its Kronrod extension,
    read-only: (the 2n + 1 abscissae, the n Gauss nodes of numpy's
    leggauss(n) first, then the n + 1 Kronrod nodes; the n Gauss weights;
    the Kronrod weights on all 2n + 1), by Laurie's algorithm (Math.
    Comp. 66:1133, 1997) for the Legendre weight.
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
    x_gauss, w_gauss = np.polynomial.legendre.leggauss(n)
    x = np.concatenate([x_gauss, x_kronrod])
    beta = np.sqrt(b).tolist()
    p_prev, p, norm2 = np.zeros_like(x), np.ones_like(x), np.ones_like(x)
    for k in range(1, 2 * n + 1):
        p_prev, p = p, (x * p - beta[k - 1] * p_prev) / beta[k]
        norm2 += p * p
    w = b[0] / norm2
    for a in (x, w_gauss, w):
        a.setflags(write=False)
    return x, w_gauss, w


@lru_cache(maxsize=64)
def _weighted_nodes(beam: BeamModel, support: VelocitySupport):
    """Read-only arrays on the 2n + 1 nodes v of the Gauss-Kronrod grid,
    the n Gauss nodes first: (powers, w P, w_K P, w P d ln P / d S), where
    powers[e] = (u/v)^e for e = 0, 1, 2 on every node, w P and
    w P d ln P / d S are on the Gauss nodes only and the Kronrod weights
    w_K P on all.
    Raises QuadratureConvergenceError when more than QUADRATURE_TOL of
    the beam lies outside the window.
    """
    v_min, v_max = support.bounds(beam)
    s_over_u = beam.s_parallel / beam.u
    outside = 0.5 * math.erfc((beam.u - v_min) * s_over_u) + 0.5 * math.erfc(
        (v_max - beam.u) * s_over_u
    )
    if outside > QUADRATURE_TOL:
        raise QuadratureConvergenceError(
            f"velocity window [{v_min:.6g}, {v_max:.6g}] m/s leaves "
            f"{outside:.3e} > {QUADRATURE_TOL:g} of the beam density outside at speed "
            f"ratio {beam.s_parallel:g}; widen width_sigmas (below a speed ratio of "
            "about 4.25 the 1e-3 u floor of the window cuts the beam)"
        )
    n = support.node_count
    x, w, w_kronrod = _kronrod(n)
    half = 0.5 * (v_max - v_min)
    mid = 0.5 * (v_max + v_min)
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
    # the weight arrays complex (zero imaginary part): a product with a
    # complex row then skips the cast numpy would make on every call
    wp = (half * w * pdf[:n]).astype(complex)
    nodes = (powers, wp, (half * w_kronrod * pdf).astype(complex), wp * dlogp)
    for a in nodes:
        a.setflags(write=False)
    return nodes


def _exp_i(phase):
    """exp(i phase) elementwise in the half-angle form (see the module
    docstring), written into one complex buffer: exactly 1 + 0j at phase 0,
    the imaginary part within a few ulp relative for |phase| <= 1, each
    element independent of the shape and strides of phase, and numpy's
    invalid-value warning for a non-finite phase.  |t| stays below about
    1e19 for a finite phase (no double lies nearer an odd multiple of
    pi), so t^2 cannot overflow."""
    t = np.tan(0.5 * phase)
    q = t * t
    q += 1.0
    np.divide(2.0, q, out=q)
    rows = np.empty(phase.shape, dtype=complex)
    np.subtract(q, 1.0, out=rows.real)
    np.multiply(t, q, out=rows.imag)
    return rows


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
            "node_count)"
        )
    return vis, cmath.phase(z)


def _unwrap(s, principal, slope, phi, wp, wphi):
    """Unwrapped phases at the sorted distinct factors s, whose principal
    values and exact slopes d arg Z / ds are principal and slope, from
    the prediction of each step by the slopes at its ends (see the module
    docstring); phi, w P and w P phi are on the n Gauss nodes.  Bisection
    midpoints that would hold more than _MAX_MIDPOINT_VALUES values in
    all raise QuadratureConvergenceError before their rows are allocated.
    """
    # the path in rank order, one column per factor: the factor, its arg,
    # its slope and 1 where it was requested.  Factor 0 (row 1, so Z =
    # sum w P, real, arg exactly 0) goes before any requested zero
    zero = s.searchsorted(0.0)
    table = np.ones((4, s.size + 1))
    table[:3, 1:] = s, principal, slope
    table[:, :zero] = table[:, 1 : zero + 1]
    table[:, zero] = 0.0, 0.0, (wphi.sum() / wp.sum()).real, 0.0
    midpoints = 0
    for _ in range(_MAX_REFINE_PASSES):
        h, step, slope_change, _ = table[:, 1:] - table[:, :-1]
        predicted = 0.5 * h * (table[2, 1:] + table[2, :-1])
        turns = np.rint((step - predicted) / _TWO_PI)
        # written so that a NaN is not trusted
        trusted = (np.abs(step - _TWO_PI * turns - predicted) < _MAX_LEFTOVER_RAD) & (
            h * np.abs(slope_change) < _MAX_SLOPE_CHANGE_RAD
        )
        if trusted.all():
            break
        gap = np.flatnonzero(~trusted)
        mids = 0.5 * (table[0, gap] + table[0, gap + 1])
        midpoints += mids.size
        if midpoints * phi.size > _MAX_MIDPOINT_VALUES:
            raise QuadratureConvergenceError(
                f"phase continuation too long: its bisection midpoints would hold "
                f"{midpoints} x {phi.size} > {_MAX_MIDPOINT_VALUES} complex values"
            )
        rows = _exp_i(mids[:, None] * phi)
        z = rows @ wp
        columns = (mids, np.angle(z), (rows @ wphi / z).real, np.zeros(mids.size))
        table = np.insert(table, gap + 1, columns, axis=1)
        zero += np.count_nonzero(gap < zero)
    else:
        raise QuadratureConvergenceError(
            "phase continuation did not stabilize; the averaged phase departs from "
            "its slopes' prediction at every refinement depth (visibility null too sharp)"
        )
    # branches crossed from the start of the path, counted from factor 0;
    # the principal value of an exactly computed row, on the chosen branch
    crossed = np.zeros(table.shape[1])
    turns.cumsum(out=crossed[1:])
    return principal - _TWO_PI * (crossed[table[3] == 1.0] - crossed[zero])


def averaged_fringe(
    terms,
    beam: BeamModel,
    support: VelocitySupport = VelocitySupport(),
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
        Integration window, relative to the beam, and node count;
        defaults to the 8-sigma window at 257 nodes.
    unwrap : bool
        Skip the amplitude-continuation unwrap when False and report
        phase_unwrapped = nan.  Useful for visibility diagnostics at
        amplitudes so deep that |Z| sits at the float floor, where a
        continuous phase no longer exists numerically.
    scales : sequence of float, optional
        Average the term list multiplied by each factor and return a
        FringeCurve whose entries follow the order of scales.  All
        entries share one Gauss-Kronrod grid and one unwrap;
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
        continuation cannot track the phase through a visibility null or
        its bisection midpoints would hold more than 2^23 complex values.
        With scales, the first failing entry in input order is reported.
    """
    if scales is not None:
        scales = np.asarray(scales, dtype=float)
        if scales.ndim != 1 or scales.size == 0 or not np.isfinite(scales).all():
            raise ValueError("scales must be a non-empty sequence of finite numbers")
    net = {}
    for t in terms:
        net[t.exponent] = net.get(t.exponent, 0.0) + t.amplitude_at_mean
    powers, wp, wkp, wp_dlogp = _weighted_nodes(beam, support)
    # phi = sum_e net_e (u/v)^e on every node, 0 for no terms
    items = iter(net.items())
    exponent, amplitude = next(items, (0, 0.0))
    phi = amplitude * powers[exponent]
    for exponent, amplitude in items:
        phi += amplitude * powers[exponent]
    n = wp.size
    if scales is None:
        row = _exp_i(phi)
        z = complex(np.dot(row[:n], wp))
        vis, phase = _report(z, complex(np.dot(row, wkp)), n, unwrap)
        if not unwrap:
            return FringeObservable(vis, phase, math.nan)
        wphi = wp * phi[:n]
        slope = np.array([(complex(np.dot(row[:n], wphi)) / z).real])
        unwrapped = _unwrap(np.ones(1), np.array([phase]), slope, phi[:n], wp, wphi)
        return FringeObservable(vis, phase, float(unwrapped[0]))

    # equal factors (0.0 and -0.0 too) share one row, so they give
    # bit-identical entries: s holds the distinct factors in ascending
    # order, each as it first occurs, and scales[j] == s[inv[j]]
    _, first, inv = np.unique(scales, return_index=True, return_inverse=True, equal_nan=False)
    s = scales[first]
    rows = _exp_i(s[:, None] * phi)
    z = rows[:, :n] @ wp
    # each entry is checked and reported as its plain call is, in input
    # order, so the first failing entry raises
    zl, zkl = z.tolist(), (rows @ wkp).tolist()
    vis, principal = np.array([_report(zl[j], zkl[j], n, unwrap) for j in inv.tolist()]).T
    weights = np.empty((n, 2), dtype=complex)
    np.multiply(wp, phi[:n], out=weights[:, 0])
    weights[:, 1] = wp_dlogp
    sums = rows[:, :n] @ weights
    dlogz_dscale = 1j * sums[:, 0] / z
    if not unwrap:
        unwrapped = np.full(scales.size, math.nan)
    else:
        unwrapped = _unwrap(s, principal[first], dlogz_dscale.imag, phi[:n], wp, weights[:, 0])[inv]
    return FringeCurve(
        visibility=vis,
        phase=principal,
        phase_unwrapped=unwrapped,
        dlogz_dscale=dlogz_dscale[inv],
        dlogz_dspeed_ratio=(sums[:, 1] / z)[inv],
    )


def non_additivity_gap(
    term_a: DispersivePhaseTerm,
    term_b: DispersivePhaseTerm,
    beam: BeamModel,
    support: VelocitySupport = VelocitySupport(),
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
    support: VelocitySupport = VelocitySupport(),
) -> float:
    """Averaged visibility relative to the zero-dispersion visibility, |Z|."""
    # |Z| needs no unwrap, so this stays usable past the point where
    # the continuous phase drowns in the quadrature floor
    return averaged_fringe(terms, beam, support, unwrap=False).visibility
