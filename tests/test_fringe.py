"""Velocity-averaged visibility and phase.

The frozen reference numbers were produced by tests/_oracles.py (a
trapezoid integrator on a uniform 2e6-point grid with its own unwrap
continuation); a few cases also re-run the oracle live at lower
resolution as a cross-implementation check.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import atomfringe as af
import _oracles as orc
from atomfringe import fringe
from atomfringe.beam import DEFAULT_NODE_COUNT
from _support import BEAM, SAG_AMP, unwrap_corpus

T = lambda a, e=1: af.DispersivePhaseTerm(amplitude_at_mean=a, exponent=e)

# reference values, frozen from tests/_oracles.py
EMPTY_VIS = 0.99999999999999878
POL5_UNWRAPPED = -5.0331549829202125
POL5_VIS = 0.89357078012620472
SHIFT_POL5_SAG = -5.036649131023343
GAP_POL10_SAG = -0.013496044099318816
DEEP_UNWRAPPED = -84.480981512873981
DEEP_VIS = 2.0893961294471688e-08
ROBERTS_PHASE = 0.012081309880924184
ROBERTS_VIS = 0.642918882718436


def test_empty_terms():
    ob = af.averaged_fringe([], BEAM)
    assert ob.phase == 0.0
    assert ob.phase_unwrapped == 0.0
    # visibility equals 1 up to the 8-sigma truncation mass
    assert ob.visibility == pytest.approx(EMPTY_VIS, abs=1e-12)
    assert ob.visibility == pytest.approx(1.0, abs=1e-12)


def test_single_term_against_oracle():
    ob = af.averaged_fringe([T(-5.0)], BEAM)
    assert ob.phase_unwrapped == pytest.approx(POL5_UNWRAPPED, abs=1e-12)
    assert ob.visibility == pytest.approx(POL5_VIS, abs=1e-12)
    # live cross-check at reduced oracle resolution
    assert ob.phase_unwrapped == pytest.approx(
        orc.unwrapped_phase([(-5.0, 1)], BEAM.u, BEAM.s_parallel), abs=1e-10
    )


def test_principal_value_and_snap():
    for amp in (-100.0, -30.0, 17.0, -5.0):
        ob = af.averaged_fringe([T(amp)], BEAM)
        assert -math.pi < ob.phase <= math.pi
        k = round((ob.phase_unwrapped - ob.phase) / (2.0 * math.pi))
        # snapped to exactly principal + 2 pi k, no residual offset
        assert ob.phase_unwrapped == ob.phase + 2.0 * math.pi * k


def test_deep_dispersion_against_oracle():
    # visibility five decades down; arg still carries ~8 significant
    # digits (error ~ quadrature_noise / |Z|)
    ob = af.averaged_fringe([T(-100.0)], BEAM)
    assert ob.phase_unwrapped == pytest.approx(DEEP_UNWRAPPED, abs=5e-7)
    assert ob.visibility == pytest.approx(DEEP_VIS, rel=1e-6)


def test_conjugation_symmetry_is_exact():
    plus = af.averaged_fringe([T(7.3)], BEAM)
    minus = af.averaged_fringe([T(-7.3)], BEAM)
    assert plus.phase == -minus.phase
    assert plus.phase_unwrapped == -minus.phase_unwrapped
    assert plus.visibility == minus.visibility


def test_exact_cancellation_pair():
    pair = [T(140.0), T(-140.0)]
    ob = af.averaged_fringe(pair, BEAM)
    empty = af.averaged_fringe([], BEAM)
    assert ob.phase == 0.0
    assert ob.phase_unwrapped == 0.0
    assert ob.visibility == empty.visibility
    assert af.visibility_ratio(pair, BEAM) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("amp", [1.0, 2.0, 3.0])
def test_small_phase_contrast_law(amp):
    got = af.visibility_ratio([T(amp)], BEAM)
    want = orc.small_phase_vis_ratio(amp, BEAM.s_parallel)
    assert got == pytest.approx(want, rel=0.01)


def test_visibility_decay_is_delayed_by_opposing_term():
    # opposite-sign exponent-1 terms partially cancel pointwise, so the
    # contrast at small applied phase stays above the lone-term value
    lone = af.visibility_ratio([T(-1.0)], BEAM)
    with_sag = af.visibility_ratio([T(-1.0), T(SAG_AMP)], BEAM)
    assert with_sag > lone


def test_phase_bounded_by_mean_inverse_velocity():
    v = np.linspace(*af.VelocitySupport().bounds(BEAM), 200_001)
    mean_uv = np.trapezoid(af.velocity_pdf(BEAM, v) * (BEAM.u / v), v)
    for amp in (-5.0, -25.0, -60.0, 40.0):
        ob = af.averaged_fringe([T(amp)], BEAM)
        assert abs(ob.phase_unwrapped) <= abs(amp) * mean_uv * (1.0 + 1e-12)


def measured_shift(terms_on, terms_off, beam):
    """The measurement protocol: unwrapped averaged phase on minus off."""
    on = af.averaged_fringe(terms_on, beam)
    off = af.averaged_fringe(terms_off, beam)
    return on.phase_unwrapped - off.phase_unwrapped


def test_measured_shift_protocol():
    got = measured_shift([T(-5.0), T(SAG_AMP)], [T(SAG_AMP)], BEAM)
    assert got == pytest.approx(SHIFT_POL5_SAG, abs=1e-12)
    # differs from both the bare amplitude and the lone-term average
    assert abs(got + 5.0) > 1e-2
    assert abs(got - POL5_UNWRAPPED) > 1e-3
    assert measured_shift([T(-5.0)], [T(-5.0)], BEAM) == 0.0


def test_measured_shift_narrow_beam_limit():
    narrow = af.BeamModel(u=BEAM.u, s_parallel=5000.0)
    got = measured_shift([T(-5.0), T(0.646)], [T(0.646)], narrow)
    assert got == pytest.approx(-5.0, abs=1e-6)


def test_non_additivity_gap():
    gap = af.non_additivity_gap(T(-10.0), T(SAG_AMP), BEAM)
    assert gap == pytest.approx(GAP_POL10_SAG, abs=1e-12)
    assert af.non_additivity_gap(T(0.0), T(SAG_AMP), BEAM) == 0.0
    narrow = af.BeamModel(u=BEAM.u, s_parallel=1000.0)
    assert abs(af.non_additivity_gap(T(-10.0), T(0.646), narrow)) < 1e-6


def test_roberts_mixture_against_oracle():
    mix = [T(-100.0), T(90.0, 1), T(10.0, 2)]
    ob = af.averaged_fringe(mix, BEAM)
    assert ob.phase_unwrapped == pytest.approx(ROBERTS_PHASE, abs=1e-12)
    assert ob.visibility == pytest.approx(ROBERTS_VIS, abs=1e-12)


def test_doubling_diagnostic_fires_on_coarse_grid():
    # broad beam + large amplitude: 257 nodes cannot resolve the
    # oscillation, the doubling check must say so, and the documented
    # remedy (more nodes) must actually work
    broad = af.BeamModel(u=1065.7, s_parallel=5.0)
    with pytest.raises(af.QuadratureConvergenceError, match="raise node_count"):
        af.averaged_fringe([T(-25.0)], broad)
    sup = af.VelocitySupport(node_count=1025)
    ob = af.averaged_fringe([T(-25.0)], broad, support=sup)
    assert ob.visibility < 0.3  # deep but healthy


def test_unwrap_guard_at_the_visibility_floor():
    # |Z| at the quadrature floor: the phase is undefined and must be
    # refused rather than silently invented
    with pytest.raises(af.QuadratureConvergenceError, match="unresolved"):
        af.averaged_fringe([T(-200.0)], BEAM)
    ob = af.averaged_fringe([T(-200.0)], BEAM, unwrap=False)
    assert math.isnan(ob.phase_unwrapped)
    assert ob.visibility < 1e-8
    assert af.visibility_ratio([T(-200.0)], BEAM) < 1e-8


def test_node_doubling_agreement_through_deep_amplitudes():
    worst = 0.0
    for amp in np.arange(-200.0, 201.0, 25.0):
        terms = [T(float(amp))] if amp else []
        zs = []
        for n in (257, 513):
            ob = af.averaged_fringe(
                terms, BEAM, support=af.VelocitySupport(node_count=n),
                unwrap=False,
            )
            zs.append(ob.visibility * np.exp(1j * ob.phase))
        worst = max(worst, abs(zs[0] - zs[1]))
    assert worst <= 1e-9


@pytest.mark.parametrize("n", [3, 4, 5, 16, 65, 256, 257, 513, 1025])
def test_kronrod_rule(n):
    # the (2n + 1)-node rule of the convergence check, built afresh (the
    # suite turns the RuntimeWarning of an underflowing build into an
    # error, and Laurie's moments underflow above n = 540 unless rescaled)
    x, w_gauss, w = fringe._build_kronrod(n)
    x_gauss, w_leggauss = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x[:n], x_gauss)
    assert np.array_equal(w_gauss, w_leggauss)
    assert_kronrod_extension(x, w, x_gauss)


def test_stored_kronrod_rule():
    # the default order's rule is read from the package, not built; it was
    # written from the build, so it is a Kronrod rule and agrees with a
    # fresh build to a few ulps (bit for bit on the LAPACK that wrote it)
    n = DEFAULT_NODE_COUNT
    stored = fringe._kronrod.__wrapped__(n)
    assert all(not a.flags.writeable and a.dtype == np.float64 for a in stored)
    x, w_gauss, w = stored
    assert (x.size, w_gauss.size, w.size) == (2 * n + 1, n, 2 * n + 1)
    x_built, w_gauss_built, w_built = fringe._build_kronrod(n)
    eps = np.finfo(float).eps
    assert np.all(np.abs(x - x_built) <= 4 * eps)
    assert np.all(np.abs(w_gauss - w_gauss_built) <= 4 * eps * w_gauss_built)
    assert np.all(np.abs(w - w_built) <= 4 * eps * w_built)
    x_gauss = np.polynomial.legendre.leggauss(n)[0]
    assert_kronrod_extension(x, w, x_gauss)


@pytest.mark.parametrize(
    "rule, message",
    [
        pytest.param(np.zeros(1286), r"expected 1287 .* got shape \(1286,\)", id="short"),
        pytest.param(np.zeros(1287, dtype=np.float32), "of dtype float32", id="float32"),
        pytest.param(np.zeros((3, 429)), r"got shape \(3, 429\)", id="2d"),
    ],
)
def test_stored_kronrod_rule_is_checked(rule, message, tmp_path, monkeypatch):
    path = tmp_path / "kronrod_257.npy"
    np.save(path, rule)
    monkeypatch.setattr(fringe, "_STORED_RULE", path)
    with pytest.raises(RuntimeError, match=message):
        fringe._kronrod.__wrapped__(DEFAULT_NODE_COUNT)


def test_default_average_reads_the_stored_rule():
    # a fresh interpreter's first default average builds no rule: the
    # build is the only user of numpy.polynomial (leggauss)
    code = (
        "import sys, atomfringe as af\n"
        "af.averaged_fringe([af.DispersivePhaseTerm(-25.0, 1)],"
        " af.BeamModel(u=1065.7, s_parallel=7.67))\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    src = str(Path(fringe.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


def assert_kronrod_extension(x, w, x_gauss):
    """x, w (2n + 1 nodes) extend the n-node Gauss rule x_gauss: interlaced,
    positive weights summing to 2, exact to degree 3n + 1."""
    n = x_gauss.size
    order = np.argsort(x)
    x, w = x[order], w[order]
    assert x.size == 2 * n + 1
    assert np.all(np.abs(x) < 1.0)
    # the Kronrod nodes interlace the Gauss nodes
    assert np.all(np.abs(x[1::2] - x_gauss) <= 1e-14)
    assert np.all(w > 0.0)
    assert abs(w.sum() - 2.0) <= 1e-14
    # exact to degree 3n + 1, which among 2n + 1 node rules through the
    # Gauss nodes only Kronrod's is: sum w P_k(x) = 2 delta_k0
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    for k in range(3 * n + 2):
        assert abs(w @ p - (2.0 if k == 0 else 0.0)) <= 1e-13, k
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)


def test_quadrature_is_deterministic():
    a = af.averaged_fringe([T(-33.3)], BEAM)
    b = af.averaged_fringe([T(-33.3)], BEAM)
    assert (a.visibility, a.phase, a.phase_unwrapped) == (
        b.visibility, b.phase, b.phase_unwrapped
    )


def test_window_mass_check():
    # the density is not renormalised, so beam mass outside the window
    # would read as lost visibility: more than QUADRATURE_TOL raises
    with pytest.raises(af.QuadratureConvergenceError, match="speed ratio 3;"):
        af.averaged_fringe([], af.BeamModel(u=BEAM.u, s_parallel=3.0))
    with pytest.raises(af.QuadratureConvergenceError, match="widen width_sigmas"):
        af.averaged_fringe([], BEAM, support=af.VelocitySupport(width_sigmas=4.0))
    # just past both thresholds (S about 4.25, width about 6.1 sigma)
    ob = af.averaged_fringe([], af.BeamModel(u=BEAM.u, s_parallel=4.3))
    assert abs(ob.visibility - 1.0) <= af.QUADRATURE_TOL
    ob = af.averaged_fringe([], BEAM, support=af.VelocitySupport(width_sigmas=6.2))
    assert abs(ob.visibility - 1.0) <= af.QUADRATURE_TOL


@settings(max_examples=40)
@given(
    s_par=st.floats(8.0, 12.0),
    a=st.floats(-60.0, 60.0),
    b=st.floats(-300.0, 300.0),
    c=st.floats(0.0, 100.0),
)
def test_split_terms_match_the_merged_term(s_par, a, b, c):
    # the pieces' sum of |A| is far above the net amplitude |a|; an
    # unwrap that followed the pieces and not their sum could land the
    # phase on another 2 pi branch.  The reference sweeps the merged term
    # densely, so its path does not depend on the pieces.
    beam = af.BeamModel(u=BEAM.u, s_parallel=s_par)
    sweep = np.linspace(0.0, 1.0, 4 * math.ceil(abs(a)) + 2)
    whole = af.averaged_fringe([T(a)], beam, scales=sweep)
    split = af.averaged_fringe([T(b), T(a - b), T(c, 2), T(-c, 2)], beam)
    tol = 10.0 * af.QUADRATURE_TOL
    gap = split.phase_unwrapped - whole.phase_unwrapped[-1]
    assert abs(gap) < math.pi  # same branch
    assert abs(gap) <= tol / whole.visibility[-1]
    assert abs(split.visibility - whole.visibility[-1]) <= tol


@settings(max_examples=40)
@given(
    s_par=st.floats(5.0, 12.0),
    amps=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=6),
)
def test_batched_curve_equals_scalar_calls(s_par, amps):
    beam = af.BeamModel(u=BEAM.u, s_parallel=s_par)
    scales = [*amps, amps[0]]  # a repeated factor
    scalar, first_error = [], None
    for a in scales:
        try:
            scalar.append(af.averaged_fringe([T(a)], beam))
        except af.QuadratureConvergenceError as exc:
            first_error = first_error or str(exc)
    if first_error is not None:
        # the batch fails as the first failing scalar call does
        with pytest.raises(af.QuadratureConvergenceError) as info:
            af.averaged_fringe([T(1.0)], beam, scales=scales)
        assert str(info.value).split(":")[0] == first_error.split(":")[0]
        return
    curve = af.averaged_fringe([T(1.0)], beam, scales=scales)
    for j, ob in enumerate(scalar):
        assert abs(curve.visibility[j] - ob.visibility) <= 1e-14
        assert abs(curve.phase_unwrapped[j] - ob.phase_unwrapped) <= 1e-14 / ob.visibility
    for values in dataclasses.astuple(curve):
        assert values.shape == (len(scales),)
        assert values[-1] == values[0]


def outcome(call):
    """call()'s result, or the message of the QuadratureConvergenceError it raised."""
    try:
        return call()
    except af.QuadratureConvergenceError as exc:
        return str(exc)


@settings(max_examples=60)
@given(
    s_par=st.floats(4.5, 12.0),
    terms=st.lists(
        st.tuples(st.floats(-200.0, 200.0), st.sampled_from([0, 1, 2])), max_size=3
    ),
    unwrap=st.booleans(),
)
@example(s_par=4.5, terms=[(-60.0, 1)], unwrap=False)  # not converged
@example(s_par=4.6, terms=[(30.0, 1), (-30.0, 2)], unwrap=True)  # not converged
@example(s_par=8.0, terms=[(-200.0, 1)], unwrap=True)  # |Z| at the floor: phase unresolved
@example(s_par=8.0, terms=[(-200.0, 1)], unwrap=False)  # the same |Z| alone
@example(s_par=8.0, terms=[(-118.86, 1), (42.45, 2)], unwrap=True)  # unwrap bisects into a deep null
@example(s_par=8.0, terms=[(-50.0, 1), (50.0, 1)], unwrap=True)  # tuned null: phi = 0, no midpoint
def test_plain_call_is_the_curve_at_factor_one(s_par, terms, unwrap):
    # one check and one report serve both call shapes: the same numbers,
    # or the same error with the same message
    beam = af.BeamModel(u=BEAM.u, s_parallel=s_par)
    terms = [T(a, e) for a, e in terms]
    plain = outcome(lambda: af.averaged_fringe(terms, beam, unwrap=unwrap))
    curve = outcome(lambda: af.averaged_fringe(terms, beam, unwrap=unwrap, scales=[1.0]))
    if not unwrap:
        # visibility_ratio is the plain call's visibility, or its error
        ratio = outcome(lambda: af.visibility_ratio(terms, beam))
        assert ratio == (plain if isinstance(plain, str) else plain.visibility)
    if isinstance(plain, str) or isinstance(curve, str):
        assert plain == curve
        return
    assert plain.visibility == curve.visibility[0]
    assert plain.phase == curve.phase[0]
    if unwrap:
        gap = abs(plain.phase_unwrapped - curve.phase_unwrapped[0])
        assert gap <= 1e-14 / plain.visibility
    else:
        assert math.isnan(plain.phase_unwrapped) and math.isnan(curve.phase_unwrapped[0])


@settings(max_examples=12)
@given(
    s_par=st.floats(8.0, 12.0),
    ratio=st.floats(-3.0, -2.0),
    start=st.floats(0.0, 43.0),
)
# S = 8, u/v : (u/v)^2 = -2.8 : 1 has a visibility null near factor 42.45
@example(s_par=8.0, ratio=-2.8, start=41.5)
def test_unwrapped_phase_is_continuous_along_sweeps(s_par, ratio, start):
    beam = af.BeamModel(u=BEAM.u, s_parallel=s_par)
    sweep = np.linspace(start, start + 2.0, 801)
    curve = af.averaged_fringe([T(ratio, 1), T(1.0, 2)], beam, scales=sweep)
    # a 2 pi slip would show as a step of more than pi between neighbours
    assert np.all(np.abs(np.diff(curve.phase_unwrapped)) < math.pi)
    # and it stays snapped to the principal value
    k = np.round((curve.phase_unwrapped - curve.phase) / (2.0 * math.pi))
    assert np.all(curve.phase_unwrapped == curve.phase + 2.0 * math.pi * k)


def test_visibility_null_is_crossed_by_the_continuity_sweep():
    # the explicit example above does pass through a deep null
    beam = af.BeamModel(u=BEAM.u, s_parallel=8.0)
    curve = af.averaged_fringe(
        [T(-2.8, 1), T(1.0, 2)], beam, scales=np.linspace(41.5, 43.5, 801)
    )
    assert curve.visibility.min() < 1e-2 * curve.visibility.max()


def test_scales_are_validated():
    for bad in ([], [[1.0, 2.0]], [1.0, math.nan], [math.inf]):
        with pytest.raises(ValueError):
            af.averaged_fringe([T(1.0)], BEAM, scales=bad)


def test_fringe_curve_is_exported():
    assert isinstance(af.averaged_fringe([T(1.0)], BEAM, scales=[1.0]), af.FringeCurve)


@settings(max_examples=40)
@given(
    s_par=st.floats(8.0, 64.0),
    a=st.floats(-20.0, 20.0),
    b=st.floats(-20.0, 20.0),
    exponents=st.tuples(st.sampled_from([1, 2]), st.sampled_from([1, 2])),
)
def test_non_additivity_gap_shrinks_as_the_beam_narrows(s_par, a, b, exponents):
    # the gap comes from the third cumulant of (u/v)^e, about 1/S^4, so
    # each doubling of S cuts it about 16-fold; 4-fold is the bound
    # (up to 20 rad per term the 257-node average converges at S = 8)
    ta, tb = T(a, exponents[0]), T(b, exponents[1])
    gap = af.non_additivity_gap(ta, tb, af.BeamModel(u=BEAM.u, s_parallel=s_par))
    narrower = af.non_additivity_gap(ta, tb, af.BeamModel(u=BEAM.u, s_parallel=2.0 * s_par))
    assert abs(narrower) <= abs(gap) / 4.0 + 10.0 * af.QUADRATURE_TOL


def test_a_nan_average_fails_the_check():
    # |Z_n - Z_K| > tol is False for NaN, so the check must ask <= tol
    nan = complex(math.nan, math.nan)
    for unwrap in (True, False):
        with pytest.raises(af.QuadratureConvergenceError, match="not converged"):
            fringe._report(nan, nan, 257, unwrap)


@settings(max_examples=24)
@given(
    s_par=st.floats(6.0, 12.0),
    terms=st.lists(
        st.tuples(st.floats(-40.0, 40.0), st.sampled_from([0, 1, 2])),
        min_size=1,
        max_size=3,
        unique_by=lambda t: t[1],  # one term per exponent: its net amplitude
    ),
)
def test_average_matches_the_independent_oracle(s_par, terms):
    # the trapezoid oracle shares no code with the package; its 2,001
    # nodes resolve Z to about 1e-15 (the density vanishes at both
    # window edges), and 20,001 nodes carry its own unwrap
    beam = af.BeamModel(u=BEAM.u, s_parallel=s_par)
    try:
        ob = af.averaged_fringe([T(a, e) for a, e in terms], beam)
    except af.QuadratureConvergenceError:
        return  # the documented diagnostic; any other error fails the test
    tol = 10.0 * af.QUADRATURE_TOL
    z = ob.visibility * complex(math.cos(ob.phase), math.sin(ob.phase))
    assert abs(z - orc.complex_average(terms, beam.u, s_par, nodes=2_001)) <= tol
    want = orc.unwrapped_phase(terms, beam.u, s_par, nodes=20_001)
    assert abs(ob.phase_unwrapped - want) <= tol / ob.visibility


@settings(max_examples=8)
@given(
    s_par=st.floats(6.0, 12.0),
    terms=st.lists(
        st.tuples(st.floats(-6.0, 6.0), st.sampled_from([0, 1, 2])),
        min_size=1,
        max_size=3,
        unique_by=lambda t: t[1],  # one term per exponent: its net amplitude
    ),
    factors=st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=3),
    near=st.floats(-1.0, 1.0),
)
# S = 8: the unwrap to factor 1 runs into a deep null and bisects
@example(s_par=8.0, terms=[(-118.86, 1), (42.45, 2)], factors=[1.0], near=0.5)
def test_curve_matches_the_independent_oracle_at_every_factor(s_par, terms, factors, near):
    # both zeros, a repeated factor and one whose phase stays within a
    # radian of 0 (near over the sum of the net amplitudes) share the
    # curve's unwrap
    beam = af.BeamModel(u=BEAM.u, s_parallel=s_par)
    l1 = sum(abs(a) for a, _ in terms)
    scales = [*factors, 0.0, -0.0, factors[0], near / max(l1, 1.0)]
    try:
        curve = af.averaged_fringe([T(a, e) for a, e in terms], beam, scales=scales)
    except af.QuadratureConvergenceError:
        return  # the documented diagnostic; any other error fails the test
    want = {}
    for f, vis, got in zip(scales, curve.visibility, curve.phase_unwrapped):
        if f not in want:  # 0.0 == -0.0: one oracle unwrap
            scaled = [(f * a, e) for a, e in terms]
            want[f] = orc.unwrapped_phase(scaled, beam.u, s_par, nodes=20_001)
        assert abs(got - want[f]) <= 10.0 * af.QUADRATURE_TOL / vis, f


EXP_I_ABS = 2.0**-51  # the half-angle row's absolute bound; libm's is 2^-53
SPECIAL_PHASES = [0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2]
SMALL_PHASES = st.builds(
    lambda sign, x: sign * x, st.sampled_from([-1.0, 1.0]), st.floats(2.0**-1000, 1.0)
)


@settings(max_examples=200)
@given(
    phase=st.lists(
        st.floats(min_value=-1e15, max_value=1e15) | st.sampled_from(SPECIAL_PHASES),
        min_size=1,
        max_size=64,
    ),
    small=st.lists(SMALL_PHASES, min_size=1, max_size=16),
)
def test_exp_i_rows_are_the_complex_exp(phase, small):
    phase = np.array(phase)
    rows = fringe._exp_i(phase)
    # within 2^-51 absolute of libm's cos and sin (Z sums w row, so only
    # absolute error reaches it)
    want = np.array([complex(math.cos(p), math.sin(p)) for p in phase.tolist()])
    assert np.abs(rows.real - want.real).max() <= EXP_I_ABS
    assert np.abs(rows.imag - want.imag).max() <= EXP_I_ABS
    # small tuned residual phases keep their relative precision
    sines = np.array([math.sin(p) for p in small])
    np.testing.assert_array_max_ulp(fringe._exp_i(np.array(small)).imag, sines, maxulp=4)
    # a row of a block, or of strided input, is the row on its own
    block = fringe._exp_i(np.stack([phase, -phase]))
    assert block[0].tobytes() == rows.tobytes()
    strided = fringe._exp_i(np.repeat(phase, 3)[1::3])
    assert strided.tobytes() == rows.tobytes()
    transposed = fringe._exp_i(np.stack([-phase, phase]).T)
    assert transposed[:, 1].copy().tobytes() == rows.tobytes()


def test_exp_i_is_exactly_one_at_phase_zero():
    rows = fringe._exp_i(np.zeros((2, 5)))
    assert rows.dtype == complex and rows.shape == (2, 5)
    assert rows.tobytes() == np.ones((2, 5), dtype=complex).tobytes()


def _libm_exp_i(phase):
    """The reference row: libm's cos and sin of the phase."""
    rows = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=rows.real)
    np.sin(phase, out=rows.imag)
    return rows


def outcome_with(kernel, call):
    """outcome(call) with fringe._exp_i replaced by kernel; of an error
    message only the head, before the numbers it prints."""
    with mock.patch.object(fringe, "_exp_i", kernel):
        got = outcome(call)
    return got.split(":")[0] if isinstance(got, str) else got


@settings(max_examples=80)
@given(
    s_par=st.floats(4.5, 12.0),
    terms=st.lists(
        st.tuples(st.floats(-200.0, 200.0), st.sampled_from([0, 1, 2])), min_size=1, max_size=3
    ),
    unwrap=st.booleans(),
    factors=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=4),
)
@example(s_par=8.0, terms=[(-118.86, 1), (42.45, 2)], unwrap=True, factors=[1.0])  # unwrap bisects into a deep null
@example(s_par=8.0, terms=[(-200.0, 1)], unwrap=True, factors=[1.0])  # phase unresolved
@example(s_par=4.5, terms=[(-60.0, 1)], unwrap=False, factors=[1.0])  # not converged
@example(s_par=7.67, terms=[(-100.0, 1), (95.0, 1), (-5.0, 1)], unwrap=True, factors=[1.0])  # 10 rad off the null
def test_half_angle_rows_agree_with_the_libm_rows(s_par, terms, unwrap, factors):
    # plain averages and curves under both kernels: the same numbers to
    # the tolerances below, or the same error
    beam = af.BeamModel(u=BEAM.u, s_parallel=s_par)
    terms = [T(a, e) for a, e in terms]
    calls = [
        lambda: af.averaged_fringe(terms, beam, unwrap=unwrap),
        lambda: af.averaged_fringe(terms, beam, unwrap=unwrap, scales=factors),
    ]
    for call in calls:
        got = outcome_with(fringe._exp_i, call)
        want = outcome_with(_libm_exp_i, call)
        if isinstance(got, str) or isinstance(want, str):
            assert got == want
            continue
        vis = np.asarray(want.visibility)
        assert np.all(np.abs(np.asarray(got.visibility) - vis) <= 1e-14)
        gap = np.abs(np.asarray(got.phase_unwrapped) - np.asarray(want.phase_unwrapped))
        if unwrap:
            assert np.all(gap * vis <= 1e-13)
        else:
            assert np.all(np.isnan(gap))
        if isinstance(got, af.FringeCurve):
            for name in ("dlogz_dscale", "dlogz_dspeed_ratio"):
                assert np.all(np.abs(getattr(got, name) - getattr(want, name)) * vis <= 1e-12), name


def test_large_phases_are_unwrapped_on_their_branch():
    # the exact slopes predict every change of arg, so a phase of 1e12 rad
    # at every velocity, or 3e5 rad on a beam of speed ratio 1e6, needs no
    # midpoint: the branch comes from the prediction over the whole step
    beam = af.BeamModel(u=1000.0, s_parallel=8.0)
    constant = [af.DispersivePhaseTerm(1e12, 0)]
    assert af.averaged_fringe(constant, beam).phase_unwrapped == 1e12
    assert af.averaged_fringe(constant, beam, scales=[0.5, 1.0]).phase_unwrapped.tolist() == [5e11, 1e12]
    # |Z| alone needs no unwrap
    assert af.visibility_ratio(constant, beam) == pytest.approx(1.0, abs=1e-12)
    # <u/v> = 1 + 1 / (2 S^2) to leading order in 1 / S
    s_par = 1e6
    narrow = af.averaged_fringe([T(3e5)], af.BeamModel(u=1000.0, s_parallel=s_par))
    assert abs(narrow.phase_unwrapped - 3e5 * (1.0 + 0.5 / s_par**2)) < 0.5 * math.pi


@pytest.mark.parametrize("scales", [None, [1.0], [0.0, -0.0, -1.5, 1.0, 1.0]])
@pytest.mark.parametrize(
    "terms",
    [[], [T(-50.0), T(50.0)], [T(-100.0), T(95.0), T(5.0)], [T(3.0, 0), T(-7.0, 2), T(-3.0, 0), T(7.0, 2)]],
)
def test_a_tuned_null_is_unwrapped_without_a_midpoint(terms, scales, monkeypatch):
    # every net amplitude 0: each row is exactly 1 + 0j and both slopes
    # are 0, so the unwrap trusts the step from factor 0 at once, builds
    # no row beyond the requested one and leaves the principal value
    batches = []
    _exp_i = fringe._exp_i
    monkeypatch.setattr(fringe, "_exp_i", lambda phase: batches.append(phase.shape) or _exp_i(phase))
    got = af.averaged_fringe(terms, BEAM, scales=scales)
    assert len(batches) == 1
    assert np.asarray(got.phase_unwrapped).tobytes() == np.asarray(got.phase).tobytes()
    assert np.all(np.asarray(got.phase) == 0.0)


DEEP_NULL = [T(-118.86, 1), T(42.45, 2)]  # at S = 8: 21 bisection midpoints of 257 nodes


# the deep null takes 15 passes of one midpoint each, then three of two
@pytest.mark.parametrize("cap, midpoints", [(0, 1), (20, 21)])
@pytest.mark.parametrize("scales", [None, [1.0]])
def test_midpoints_over_the_cap_are_refused_before_allocating(cap, midpoints, scales, monkeypatch):
    beam = af.BeamModel(u=BEAM.u, s_parallel=8.0)
    want = af.averaged_fringe(DEEP_NULL, beam, scales=scales).phase_unwrapped
    batches = []
    _exp_i = fringe._exp_i
    monkeypatch.setattr(fringe, "_exp_i", lambda phase: batches.append(phase.shape) or _exp_i(phase))
    monkeypatch.setattr(fringe, "_MAX_MIDPOINT_VALUES", cap * 257)
    match = rf"phase continuation too long: .* {midpoints} x 257 > {cap * 257} complex values$"
    with pytest.raises(af.QuadratureConvergenceError, match=match):
        af.averaged_fringe(DEEP_NULL, beam, scales=scales)
    # after the requested row, only the midpoint rows under the cap were built
    assert sum(rows for rows, _ in batches[1:]) <= cap
    # a cap of exactly the 21 midpoints answers it
    monkeypatch.setattr(fringe, "_MAX_MIDPOINT_VALUES", 21 * 257)
    assert np.array_equal(af.averaged_fringe(DEEP_NULL, beam, scales=scales).phase_unwrapped, want)


@pytest.mark.parametrize("scales", [None, [1.0]])
def test_a_null_the_refine_passes_cannot_resolve_is_refused(scales, monkeypatch):
    # the deep null needs 18 passes; with one it is still bisecting
    beam = af.BeamModel(u=BEAM.u, s_parallel=8.0)
    monkeypatch.setattr(fringe, "_MAX_REFINE_PASSES", 1)
    with pytest.raises(af.QuadratureConvergenceError, match="^phase continuation did not stabilize;"):
        af.averaged_fringe(DEEP_NULL, beam, scales=scales)


ADJACENT = [1.0, float(np.nextafter(1.0, 2.0))]


# bytes recorded with the unwrap that ranked its path by a stable sort:
# factor 0 goes before a requested 0.0 or -0.0 (one row, so one entry of
# s), and the deep null bisects on both sides of factor 0
@pytest.mark.parametrize(
    "terms, s_par, scales, want",
    [
        pytest.param([T(-5.0)], 7.67, [-0.0, 1.0, 0.0, -0.5], ["0x0.0p+0", "-0x1.421f3613d5df5p+2", "0x0.0p+0", "0x1.429f12dca0610p+1"], id="plain-zeros"),
        pytest.param([T(-5.0)], 7.67, [0.0, -2.0, -0.0], ["0x0.0p+0", "0x1.404a227fe4a63p+3", "0x0.0p+0"], id="plain-zeros-negative"),
        pytest.param(DEEP_NULL, 8.0, [1.0, -0.0, 0.0, -1.0], ["-0x1.41c7c88e484a4p+6", "0x0.0p+0", "0x0.0p+0", "0x1.41c7c88e484a4p+6"], id="deep-null-zeros"),
        pytest.param(DEEP_NULL, 8.0, [0.0, -1.0, -0.0, 1.0], ["0x0.0p+0", "0x1.41c7c88e484a4p+6", "0x0.0p+0", "-0x1.41c7c88e484a4p+6"], id="deep-null-zeros-negative"),
        pytest.param(DEEP_NULL, 8.0, ADJACENT, ["-0x1.41c7c88e484a4p+6", "-0x1.41c7c88e48587p+6"], id="deep-null-adjacent"),
        pytest.param([T(-5.0)], 7.67, ADJACENT, ["-0x1.421f3613d5df5p+2", "-0x1.421f3613d5df6p+2"], id="plain-adjacent"),
    ],
)
def test_factor_zero_ties_and_adjacent_factors_keep_their_bytes(terms, s_par, scales, want):
    beam = af.BeamModel(u=BEAM.u, s_parallel=s_par)
    got = af.averaged_fringe(terms, beam, scales=scales).phase_unwrapped
    assert [x.hex() for x in got.tolist()] == want


def test_unwrap_branches_match_the_recorded_corpus():
    # the 2 pi branches of _support.unwrap_corpus(2026, 1000), recorded by
    # the amplitude-continuation walk this unwrap replaced: every output of
    # an answered call (in the curve's order), or nan for a call refused
    # with QuadratureConvergenceError.  Every reported phase is its
    # principal value minus 2 pi times a count of turns, so an answer is
    # the recorded one bit for bit when the count is; a count is read off
    # the recorded value, which keeps the check independent of the last
    # bits of the machine's tan
    recorded = np.load(Path(__file__).with_name("unwrap_branches.npy"))
    got_calls, got = [], []
    for j, (terms, beam, support, scales) in enumerate(unwrap_corpus(2026, 1000)):
        try:
            ob = af.averaged_fringe(terms, beam, support, scales=scales)
        except af.QuadratureConvergenceError:
            got_calls.append(j)
            got.append((math.nan, math.nan))
            continue
        for phase, unwrapped in zip(np.atleast_1d(ob.phase), np.atleast_1d(ob.phase_unwrapped)):
            got_calls.append(j)
            got.append((phase, unwrapped))
    assert got_calls == recorded["call"].tolist()
    phase, unwrapped = np.array(got).T
    np.testing.assert_array_equal(np.isnan(unwrapped), np.isnan(recorded["unwrapped"]))  # refusals
    turns = np.rint((phase - recorded["unwrapped"]) / fringe._TWO_PI)
    np.testing.assert_array_equal(unwrapped, phase - fringe._TWO_PI * turns)
