"""Velocity-averaged visibility and phase.

The frozen reference numbers were produced by tests/_oracles.py (a
trapezoid integrator on a uniform 2e6-point grid with its own unwrap
continuation); a few cases also re-run the oracle live at lower
resolution as a cross-implementation check.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import atomfringe as af
import _oracles as orc
from atomfringe import fringe
from _support import BEAM, SAG_AMP

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
    sup = af.default_support(BEAM)
    v = np.linspace(sup.v_min, sup.v_max, 200_001)
    mean_uv = np.trapezoid(af.velocity_pdf(BEAM, v) * (BEAM.u / v), v)
    for amp in (-5.0, -25.0, -60.0, 40.0):
        ob = af.averaged_fringe([T(amp)], BEAM)
        assert abs(ob.phase_unwrapped) <= abs(amp) * mean_uv * (1.0 + 1e-12)


def test_measured_shift_protocol():
    got = af.measured_phase_shift([T(-5.0), T(SAG_AMP)], [T(SAG_AMP)], BEAM)
    assert got == pytest.approx(SHIFT_POL5_SAG, abs=1e-12)
    # differs from both the bare amplitude and the lone-term average
    assert abs(got + 5.0) > 1e-2
    assert abs(got - POL5_UNWRAPPED) > 1e-3
    assert af.measured_phase_shift([T(-5.0)], [T(-5.0)], BEAM) == 0.0


def test_measured_shift_narrow_beam_limit():
    narrow = af.BeamModel(u=BEAM.u, s_parallel=5000.0)
    got = af.measured_phase_shift([T(-5.0), T(0.646)], [T(0.646)], narrow)
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
    sup = af.default_support(broad, node_count=1025)
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
                terms, BEAM, support=af.default_support(BEAM, node_count=n),
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
    x, w = fringe._kronrod.__wrapped__(n)
    x_gauss = fringe._leggauss(n)[0]
    assert np.array_equal(x[:n], x_gauss)
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
        af.averaged_fringe([], BEAM, support=af.default_support(BEAM, width_sigmas=4.0))
    # just past both thresholds (S about 4.25, width about 6.1 sigma)
    ob = af.averaged_fringe([], af.BeamModel(u=BEAM.u, s_parallel=4.3))
    assert abs(ob.visibility - 1.0) <= af.QUADRATURE_TOL
    ob = af.averaged_fringe([], BEAM, support=af.default_support(BEAM, width_sigmas=6.2))
    assert abs(ob.visibility - 1.0) <= af.QUADRATURE_TOL


@settings(max_examples=40)
@given(
    s_par=st.floats(8.0, 12.0),
    a=st.floats(-60.0, 60.0),
    b=st.floats(-300.0, 300.0),
    c=st.floats(0.0, 100.0),
)
def test_split_terms_match_the_merged_term(s_par, a, b, c):
    # the pieces' sum of |A| is far above the net amplitude |a| that
    # sizes their continuation walk; a walk too short for them would
    # land the phase on another 2 pi branch.  The reference sweeps the
    # merged term densely, so its path does not depend on that bound.
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
@example(s_par=8.0, terms=[(-118.86, 1), (42.45, 2)], unwrap=True)  # walk into a deep null
@example(s_par=8.0, terms=[(-50.0, 1), (50.0, 1)], unwrap=True)  # tuned null: no walk
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
# S = 8: the walk to factor 1 runs into a deep null and bisects
@example(s_par=8.0, terms=[(-118.86, 1), (42.45, 2)], factors=[1.0], near=0.5)
def test_curve_matches_the_independent_oracle_at_every_factor(s_par, terms, factors, near):
    # both zeros, a repeated factor and one within a walk step of 0 (the
    # walk bound is the sum of the net amplitudes) share the curve's walk
    beam = af.BeamModel(u=BEAM.u, s_parallel=s_par)
    l1 = sum(abs(a) for a, _ in terms)
    scales = [*factors, 0.0, -0.0, factors[0], near / max(l1, 1.0)]
    try:
        curve = af.averaged_fringe([T(a, e) for a, e in terms], beam, scales=scales)
    except af.QuadratureConvergenceError:
        return  # the documented diagnostic; any other error fails the test
    want = {}
    for f, vis, got in zip(scales, curve.visibility, curve.phase_unwrapped):
        if f not in want:  # 0.0 == -0.0: one oracle walk
            scaled = [(f * a, e) for a, e in terms]
            want[f] = orc.unwrapped_phase(scaled, beam.u, s_par, nodes=20_001)
        assert abs(got - want[f]) <= 10.0 * af.QUADRATURE_TOL / vis, f
