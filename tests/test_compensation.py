"""Counterphase tuning, residual dispersion, and alpha extraction."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

import atomfringe as af
from _support import ALPHA_TRUE, BEAM, CAP, GEO

T = lambda a, e=1: af.DispersivePhaseTerm(amplitude_at_mean=a, exponent=e)


def numbers_in(message):
    """The numbers an error message prints in exponent form."""
    return [float(x) for x in re.findall(r"[-+]?\d\.\d+e[-+]\d+", message)]


# frozen from tests/_oracles.py
ROBERTS_PHASE = 0.012081309880924184
ROBERTS_VIS = 0.642918882718436


@pytest.mark.parametrize("pol_amp", [-10.0, -100.0, -200.0])
@pytest.mark.parametrize("s_par", [5.0, 7.67, 12.0])
def test_exact_null_over_grid(pol_amp, s_par):
    beam = af.BeamModel(u=BEAM.u, s_parallel=s_par)
    plan = af.tune_counterphase(T(pol_amp), beam, GEO)
    # same u/v shape on both terms: cancellation is pointwise, so the
    # null is exact in floating point, not merely within tolerance
    assert plan.counter_amplitude_at_mean == -pol_amp
    assert plan.residual_phase == 0.0
    assert plan.visibility_ratio_at_null == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60)
@given(
    pol_amp=st.floats(min_value=-200.0, max_value=200.0),
    s_par=st.floats(min_value=5.0, max_value=12.0),
)
def test_closed_form_null_is_exact(pol_amp, s_par):
    # a x + (-a) x is exactly 0, so the closed-form counter leaves no
    # phase at any node and the full contrast of the beam
    beam = af.BeamModel(u=BEAM.u, s_parallel=s_par)
    plan = af.tune_counterphase(T(pol_amp), beam, GEO)
    assert plan.counter_amplitude_at_mean == -pol_amp
    assert plan.residual_phase == 0.0
    assert plan.visibility_ratio_at_null == pytest.approx(1.0, abs=1e-9)


def test_plan_realizes_counter_amplitude():
    plan = af.tune_counterphase(T(-100.0), BEAM, GEO)
    term = af.mirror_sagnac_term(GEO, plan.motion, BEAM)
    assert term.amplitude_at_mean == pytest.approx(100.0, rel=1e-12)
    assert plan.motion.v1 == -plan.motion.v3
    assert plan.motion.v1 == pytest.approx(4.70e-3, rel=0.01)


def test_plan_hardware_numbers():
    plan = af.tune_counterphase(T(-100.0), BEAM, GEO)
    assert af.sustain_time(plan.motion) == pytest.approx(4.3e-3, abs=0.5e-3)
    assert plan.prism_dz_rate == pytest.approx(-1.90e-2, abs=2e-5)
    ratio = af.prism_displacement_ratio(af.PrismGeometry(refractive_index_n=1.46))
    assert plan.prism_dz_rate == pytest.approx(plan.motion.v1 / ratio, rel=1e-14)


def test_plan_report_keys():
    plan = af.tune_counterphase(T(-100.0), BEAM, GEO)
    report = plan.to_report()
    assert report == {
        "counter_amplitude_rad": plan.counter_amplitude_at_mean,
        "v1_m_per_s": plan.motion.v1,
        "v3_m_per_s": plan.motion.v3,
        "max_travel_m": plan.motion.max_travel,
        "sustain_time_s": af.sustain_time(plan.motion),
        "prism_dz_rate_m_per_s": plan.prism_dz_rate,
        "residual_phase_rad": plan.residual_phase,
        "visibility_ratio_at_null": plan.visibility_ratio_at_null,
    }


def test_travel_budget_scales_sustain_time():
    short = af.tune_counterphase(T(-100.0), BEAM, GEO)
    long = af.tune_counterphase(T(-100.0), BEAM, GEO, max_travel=40e-6)
    assert af.sustain_time(long.motion) == pytest.approx(
        2.0 * af.sustain_time(short.motion), rel=1e-12
    )


def test_tune_rejects_wrong_dispersion_order():
    with pytest.raises(ValueError):
        af.tune_counterphase(T(-100.0, 2), BEAM, GEO)


def test_roberts_mixture_residual():
    # v1 = 90, v2 = 10 against pol -100 (cancellation at v = u)
    phases, vis = af.residual_dispersion([10.0], BEAM)
    assert phases[0] == pytest.approx(ROBERTS_PHASE, abs=1e-12)
    assert vis[0] == pytest.approx(ROBERTS_VIS, abs=1e-12)


def test_pure_v1_counter_leaves_nothing():
    phases, vis = af.residual_dispersion([0.0], BEAM)
    assert phases[0] == 0.0
    assert vis[0] == pytest.approx(1.0, abs=1e-12)


def test_roberts_residual_grows_with_v2_share():
    # same on-mean cancellation, increasing share carried by the
    # (u/v)^2 term: the mismatch profile v2 * (u/v) * (u/v - 1) grows,
    # so the fringe contrast must fall monotonically (the averaged
    # phase itself is not monotone in v2, it turns over and wraps)
    phases, vis = af.residual_dispersion([5.0, 10.0, 20.0], BEAM)
    assert (phases != 0.0).all()
    assert 1.0 > vis[0] > vis[1] > vis[2]


@settings(max_examples=40)
@given(
    s_par=st.floats(8.0, 12.0),
    pol=st.floats(-100.0, -10.0),
    v2s=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=7),
)
# below S = 8 the 257-node average fails at these amplitudes, first at 40
@example(s_par=6.0, pol=-50.0, v2s=[10.0, 40.0, -35.0])
def test_residual_scan_matches_per_pair_averages(s_par, pol, v2s):
    # one batched average of v2 ((u/v)^2 - u/v) against one average per
    # pair of the full list [pol, (-pol - v2) u/v, v2 (u/v)^2]
    beam = af.BeamModel(u=BEAM.u, s_parallel=s_par)
    v2s = [*v2s, v2s[0]]  # a repeated factor
    pairs, first_error = [], None
    for v2 in v2s:
        try:
            pairs.append(af.averaged_fringe([T(pol), T(-pol - v2), T(v2, 2)], beam))
        except af.QuadratureConvergenceError as exc:
            first_error = first_error or str(exc)
    if first_error is not None:
        # the scan fails as the first failing pair does
        with pytest.raises(af.QuadratureConvergenceError) as info:
            af.residual_dispersion(v2s, beam)
        assert str(info.value).split(":")[0] == first_error.split(":")[0]
        assert numbers_in(str(info.value)) == pytest.approx(
            numbers_in(first_error), rel=1e-6, abs=1e-12
        )
        return
    phases, vis = af.residual_dispersion(v2s, beam)
    for j, ob in enumerate(pairs):
        assert abs(vis[j] - ob.visibility) <= 1e-14
        assert abs(phases[j] - ob.phase_unwrapped) <= 1e-13 / ob.visibility


def test_alpha_round_trip_at_null():
    alpha_seed = 1.3e-30
    voltage = 400.0
    pol = af.polarizability_term(CAP, alpha_seed, voltage, BEAM)
    plan = af.tune_counterphase(pol, BEAM, GEO)
    got = af.extract_alpha_compensated(
        plan.residual_phase,
        plan.motion,
        GEO,
        BEAM.u,
        CAP,
        voltage_U=voltage,
    )
    assert got == pytest.approx(alpha_seed, rel=1e-9)


def test_alpha_insensitive_to_beam_velocity_error():
    # the point of compensation: u multiplies only the tiny residual
    plan = af.tune_counterphase(T(-100.0), BEAM, GEO)
    residual = 1e-3
    base = af.extract_alpha_compensated(
        residual, plan.motion, GEO, BEAM.u, CAP
    )
    off = af.extract_alpha_compensated(
        residual, plan.motion, GEO, 1.01 * BEAM.u, CAP
    )
    assert abs(off - base) / base <= 1e-5


@settings(max_examples=60)
@given(
    arm_sign=st.sampled_from([-1, 1]),
    s_par=st.floats(6.0, 12.0),
    voltage=st.floats(20.0, 500.0),
    mistune=st.floats(-1.0, 1.0),
)
@example(arm_sign=-1, s_par=7.67, voltage=400.0, mistune=0.2221)  # delta about +1e-2
@example(arm_sign=1, s_par=7.67, voltage=400.0, mistune=0.0)  # exact null
def test_alpha_from_a_mistuned_counter(arm_sign, s_par, voltage, mistune):
    # the counter is set to (1 + delta) times the tuned amplitude; the
    # averaged residual of pol + counter then moves alpha by about
    # -delta (<u/v> - 1), near -delta / (2 S^2), on either arm
    beam = af.BeamModel(u=BEAM.u, s_parallel=s_par)
    cap = af.CapacitorModel(geometry_factor_G=CAP.geometry_factor_G, sign=arm_sign)
    pol = af.polarizability_term(cap, ALPHA_TRUE, voltage, beam)
    delta = mistune * min(5e-2, 1.0 / abs(pol.amplitude_at_mean))
    counter = -pol.amplitude_at_mean * (1.0 + delta)
    motion = af.required_mirror_velocity(GEO, counter, beam.u)
    residual = af.averaged_fringe([pol, T(counter)], beam).phase_unwrapped
    got = af.extract_alpha_compensated(residual, motion, GEO, beam.u, cap, voltage_U=voltage)
    # 1e-12: rounding of the mirror velocities at delta = 0
    assert abs(got / ALPHA_TRUE - 1.0) <= abs(delta) / s_par**2 + 1e-12


def test_alpha_extraction_validation():
    plan = af.tune_counterphase(T(-100.0), BEAM, GEO)
    with pytest.raises(ValueError):
        # a zero geometry factor cannot reach the extraction
        af.extract_alpha_compensated(
            0.0, plan.motion, GEO, BEAM.u, af.CapacitorModel(geometry_factor_G=0.0)
        )
    with pytest.raises(ValueError):
        af.extract_alpha_compensated(0.0, plan.motion, GEO, BEAM.u, CAP, voltage_U=0.0)
