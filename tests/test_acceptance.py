"""Acceptance gate: one test per shipped claim, at the stated tolerance.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion.  The per-module suites pin the same quantities much tighter
against frozen oracle values; this file is the coarse contract.
"""

import math

import numpy as np
import pytest

import atomfringe as af
from atomfringe.cli import generate_synthetic, read_observations, write_observations
from _oracles import prism_ratio_general_angle, small_phase_vis_ratio
from _support import (
    ALPHA_TRUE,
    BEAM,
    C_TRUE,
    CAP,
    DESIGN,
    GEO,
    S_TRUE,
    SAG_AMP,
    VOLTS,
    exact_and_forward_jacobian,
    model_context,
    observation_set,
    run_config,
    zero_noise_observations,
)

T = lambda a, e=1: af.DispersivePhaseTerm(amplitude_at_mean=a, exponent=e)


def test_criterion_01_earth_rotation_constants():
    assert SAG_AMP == pytest.approx(0.646, abs=1e-3)
    assert af.omega_y(GEO) == pytest.approx(5.025e-5, rel=1e-3)


def test_criterion_02_prism_displacement_ratio():
    reduced = af.prism_displacement_ratio(af.PrismGeometry(refractive_index_n=1.46))
    assert reduced == pytest.approx(-0.2475, abs=5e-4)
    for n in (1.2, 1.46, 1.8):
        shipped = af.prism_displacement_ratio(af.PrismGeometry(refractive_index_n=n))
        assert abs(shipped - prism_ratio_general_angle(n)) <= 1e-12


def test_criterion_03_counterphase_hardware_sizing():
    motion = af.required_mirror_velocity(GEO, 100.0, BEAM.u)
    assert motion.v1 == pytest.approx(4.70e-3, rel=0.01)
    assert motion.v3 == -motion.v1
    assert motion.max_travel == 20e-6
    assert af.sustain_time(motion) == pytest.approx(4.3e-3, abs=0.5e-3)


def test_criterion_04_small_phase_visibility_law():
    for amp in (1.0, 2.0, 3.0):
        got = af.visibility_ratio([T(-amp)], BEAM)
        assert got == pytest.approx(small_phase_vis_ratio(amp, S_TRUE), rel=0.01)


def test_criterion_05_exact_null_grid():
    for pol_amp in (-10.0, -100.0, -200.0):
        for s_par in (5.0, 7.67, 12.0):
            beam = af.BeamModel(u=BEAM.u, s_parallel=s_par)
            plan = af.tune_counterphase(T(pol_amp), beam, GEO)
            assert abs(plan.residual_phase) < 1e-9
            assert plan.visibility_ratio_at_null == pytest.approx(1.0, abs=1e-9)


def test_criterion_06_parameter_recovery():
    # noiseless: truth back to float-level accuracy
    clean = af.fit(observation_set(zero_noise_observations()))
    assert clean.converged
    assert clean.s_parallel == pytest.approx(S_TRUE, rel=1e-6)
    assert clean.coeff_per_U2 == pytest.approx(C_TRUE, rel=1e-6)

    # noisy: every seeded realization lands within 3 reported sigmas;
    # chi2_scaling off because the generating sigmas are exact
    for seed in range(100, 200):
        config = run_config(seed)
        obs_set = af.ObservationSet(generate_synthetic(config, DESIGN), config.model_context())
        result = af.fit(obs_set, chi2_scaling=False)
        assert result.converged, f"seed {seed} did not converge"
        sigma_s, sigma_c = af.parameter_uncertainties(result)
        assert abs(result.s_parallel - S_TRUE) <= 3.0 * sigma_s, f"seed {seed}"
        assert abs(result.coeff_per_U2 - C_TRUE) <= 3.0 * sigma_c, f"seed {seed}"


def test_criterion_07_sagnac_omission_bias():
    # data carry the rotation phase, the refit model omits it
    biased = af.fit(observation_set(zero_noise_observations(), sagnac=0.0))
    assert biased.converged
    ds = biased.s_parallel - S_TRUE
    assert 0.1 <= ds <= 0.5
    dc_rel = biased.coeff_per_U2 / C_TRUE - 1.0
    assert dc_rel < 0.0
    assert 1e-4 <= -dc_rel <= 5e-3


def test_criterion_08_protocol_non_additivity():
    gap = af.non_additivity_gap(T(-10.0), T(SAG_AMP), BEAM)
    assert gap != 0.0
    narrow = af.BeamModel(u=BEAM.u, s_parallel=1e3)
    assert abs(af.non_additivity_gap(T(-10.0), T(SAG_AMP), narrow)) < 1e-6


def test_criterion_09_numerical_robustness(tmp_path):
    # quadrature doubling stays under 1e-9 across the working range
    worst = 0.0
    for amp in np.arange(-200.0, 201.0, 25.0):
        terms = [T(float(amp))] if amp else []
        zs = []
        for n in (257, 513):
            ob = af.averaged_fringe(
                terms,
                BEAM,
                support=af.VelocitySupport(node_count=n),
                unwrap=False,
            )
            zs.append(ob.visibility * np.exp(1j * ob.phase))
        worst = max(worst, abs(zs[0] - zs[1]))
    assert worst <= 1e-9

    # the fit's exact Jacobian agrees with forward differences to 1e-4
    ctx = model_context()
    volts = np.array(VOLTS)
    ph, ra = af.model_curve(S_TRUE, C_TRUE, volts, ctx)
    x = np.array([S_TRUE + 0.4, (C_TRUE + 2e-5) / 1e-4])
    J_exact, J_forward = exact_and_forward_jacobian(x, volts, ctx, ph, ra)
    scale = np.max(np.abs(J_exact), axis=0)
    assert np.max(np.abs(J_exact - J_forward) / scale) <= 1e-4

    # observation files re-ingest losslessly
    first = tmp_path / "obs.csv"
    again = tmp_path / "obs2.csv"
    write_observations(str(first), generate_synthetic(run_config(17), DESIGN))
    write_observations(str(again), read_observations(str(first)))
    assert first.read_bytes() == again.read_bytes()


def test_criterion_10_alpha_extraction():
    # simulate, tune, extract: the seeded polarizability comes back
    voltage = 400.0
    pol = af.polarizability_term(CAP, ALPHA_TRUE, voltage, BEAM)
    plan = af.tune_counterphase(pol, BEAM, GEO)
    got = af.extract_alpha_compensated(
        plan.residual_phase,
        plan.motion,
        GEO,
        BEAM.u,
        CAP,
        voltage_U=voltage,
    )
    assert got == pytest.approx(ALPHA_TRUE, rel=1e-9)

    # a 1 percent beam-velocity error only touches the residual term
    plan100 = af.tune_counterphase(T(-100.0), BEAM, GEO)
    residual = 1e-3
    base = af.extract_alpha_compensated(
        residual, plan100.motion, GEO, BEAM.u, CAP
    )
    off = af.extract_alpha_compensated(
        residual, plan100.motion, GEO, 1.01 * BEAM.u, CAP
    )
    assert abs(off - base) / base <= 1e-5
