"""Joint phase + visibility fitting."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import atomfringe as af
from _support import (
    C_TRUE, PHASE_SIGMA, S_TRUE, SAG_AMP, VIS_SIGMA, VOLTS,
    exact_and_forward_jacobian, model_context, observation_set, zero_noise_observations,
)

# frozen from tests/_oracles.py
PREDICT_250_PHASE = -8.7089182765386184
PREDICT_250_RATIO = 0.75382021692374046


def test_observation_validation():
    af.Observation(100.0, -1.0, 0.02, 0.9, 0.01)
    with pytest.raises(ValueError):
        af.Observation(100.0, -1.0, 0.0, 0.9, 0.01)
    with pytest.raises(ValueError):
        af.Observation(100.0, -1.0, 0.02, 0.9, -0.01)
    with pytest.raises(ValueError):
        af.Observation(100.0, -1.0, 0.02, 1.3, 0.01)


@pytest.mark.parametrize("field", ["voltage_U", "phase_meas"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_observation_rejects_non_finite_values(field, value):
    # a non-finite point would make the fit report converged with chi^2 inf
    good = {"voltage_U": 100.0, "phase_meas": -1.0, "phase_sigma": 0.02,
            "vis_ratio": 0.9, "vis_sigma": 0.01}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        af.Observation(**{**good, field: value})


def test_observation_set_validation():
    obs = zero_noise_observations()
    ctx = model_context()
    with pytest.raises(ValueError):
        af.ObservationSet(obs[:2], ctx)
    with pytest.raises(ValueError):
        af.ObservationSet(obs + (obs[0],), ctx)
    with pytest.raises(ValueError):
        af.ModelContext(0.0, SAG_AMP)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_context_and_start_are_refused_by_name(bad):
    # each used to fail later with the message of a scales check
    obs = zero_noise_observations()
    with pytest.raises(ValueError, match="sagnac_amplitude_at_mean must be finite"):
        dataclasses.replace(model_context(), sagnac_amplitude_at_mean=bad)
    with pytest.raises(ValueError, match="initial coeff_per_U2 must be finite"):
        af.fit(observation_set(obs), initial=(8.0, bad))
    with pytest.raises(ValueError, match="initial s_parallel must be finite"):
        af.fit(observation_set(obs), initial=(bad, C_TRUE))


def test_an_infinite_window_is_refused():
    # it used to give NaN averages and a fit that returned converged False
    ctx = dataclasses.replace(model_context(), width_sigmas=math.inf)
    with pytest.raises(ValueError, match="width_sigmas must be positive and finite"):
        af.fit(af.ObservationSet(zero_noise_observations(), ctx))


def test_predict_against_oracle():
    phase, ratio = af.predict(S_TRUE, C_TRUE, 250.0, model_context())
    assert phase == pytest.approx(PREDICT_250_PHASE, abs=1e-10)
    assert ratio == pytest.approx(PREDICT_250_RATIO, abs=1e-12)


def test_predict_at_zero_voltage_is_exact():
    phase, ratio = af.predict(S_TRUE, C_TRUE, 0.0, model_context())
    assert phase == 0.0
    assert ratio == 1.0


def test_predict_rejects_unphysical_speed_ratio():
    with pytest.raises(ValueError):
        af.predict(1.0, C_TRUE, 100.0, model_context())


def test_model_curve_matches_pointwise_predict():
    ctx = model_context()
    volts = np.array([0.0, 100.0, 300.0])
    phases, ratios = af.model_curve(S_TRUE, C_TRUE, volts, ctx)
    for v, p, r in zip(volts, phases, ratios):
        p1, r1 = af.predict(S_TRUE, C_TRUE, float(v), ctx)
        assert p == pytest.approx(p1, abs=1e-13)
        assert r == pytest.approx(r1, abs=1e-13)


def test_zero_noise_round_trip():
    res = af.fit(observation_set(zero_noise_observations()))
    assert res.converged
    assert res.s_parallel == pytest.approx(S_TRUE, rel=1e-6)
    assert res.coeff_per_U2 == pytest.approx(C_TRUE, rel=1e-6)
    assert res.chi_square < 1e-12


@pytest.mark.parametrize("s_true", [5.0, 7.67, 12.0])
@pytest.mark.parametrize("c_true", [0.5e-4, 1.3880e-4, 3.0e-4])
def test_round_trip_grid(s_true, c_true):
    # S = 5 pushes the default node budget past its resolution at the
    # largest amplitudes, hence the doubled grid; voltages are rescaled
    # so every case spans applied amplitudes up to 25 rad
    nodes = 513
    ctx = model_context(node_count=nodes)
    volts = np.linspace(0.0, math.sqrt(25.0 / c_true), 16)[1:]
    phases, ratios = af.model_curve(s_true, c_true, volts, ctx)
    obs = tuple(
        af.Observation(v, p, PHASE_SIGMA, r, VIS_SIGMA)
        for v, p, r in zip(volts, phases, ratios)
    )
    res = af.fit(observation_set(obs, node_count=nodes))
    assert res.converged
    assert res.s_parallel == pytest.approx(s_true, rel=1e-6)
    assert res.coeff_per_U2 == pytest.approx(c_true, rel=1e-6)


def test_explicit_initial_guess():
    res = af.fit(observation_set(zero_noise_observations()), initial=(10.0, 3.0e-4))
    assert res.s_parallel == pytest.approx(S_TRUE, rel=1e-8)
    assert res.coeff_per_U2 == pytest.approx(C_TRUE, rel=1e-8)


def test_cost_history_never_increases():
    rng = np.random.default_rng(3)
    obs = tuple(
        af.Observation(
            o.voltage_U,
            o.phase_meas + rng.normal(0.0, PHASE_SIGMA),
            PHASE_SIGMA,
            min(max(o.vis_ratio + rng.normal(0.0, VIS_SIGMA), 0.0), 1.2),
            VIS_SIGMA,
        )
        for o in zero_noise_observations()
    )
    res = af.fit(observation_set(obs))
    hist = np.array(res.cost_history)
    assert np.all(np.diff(hist) <= 0.0)
    assert res.iterations == len(hist) - 1
    assert res.chi_square == hist[-1]
    assert res.converged


def test_residuals_are_raw_differences():
    obs = zero_noise_observations()
    res = af.fit(observation_set(obs))
    assert res.residuals.shape == (len(obs), 2)
    ctx = model_context()
    p0, r0 = af.predict(res.s_parallel, res.coeff_per_U2, obs[3].voltage_U, ctx)
    assert res.residuals[3, 0] == pytest.approx(obs[3].phase_meas - p0, abs=1e-12)
    assert res.residuals[3, 1] == pytest.approx(obs[3].vis_ratio - r0, abs=1e-12)


def test_observation_order_does_not_matter():
    obs = zero_noise_observations()
    res_a = af.fit(observation_set(obs))
    res_b = af.fit(observation_set(tuple(reversed(obs))))
    assert res_a.s_parallel == pytest.approx(res_b.s_parallel, rel=1e-9)
    assert res_a.coeff_per_U2 == pytest.approx(res_b.coeff_per_U2, rel=1e-9)


@settings(max_examples=20)
@given(
    flips=st.lists(st.booleans(), min_size=len(VOLTS), max_size=len(VOLTS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_is_invariant_when_voltage_signs_flip(flips, seed):
    # the model sees only U^2, so negating every voltage of a noisy,
    # mixed-sign set must leave every bit of the fit unchanged
    rng = np.random.default_rng(seed)
    obs = [
        dataclasses.replace(
            o,
            voltage_U=-o.voltage_U if flip else o.voltage_U,
            phase_meas=o.phase_meas + rng.normal(0.0, PHASE_SIGMA),
            vis_ratio=o.vis_ratio + rng.normal(0.0, VIS_SIGMA),
        )
        for o, flip in zip(zero_noise_observations(), flips)
    ]
    flipped = [dataclasses.replace(o, voltage_U=-o.voltage_U) for o in obs]
    res = af.fit(observation_set(obs))
    res_flipped = af.fit(observation_set(flipped))
    for name in ("s_parallel", "coeff_per_U2", "chi_square", "converged", "iterations",
                 "cost_history"):
        assert getattr(res_flipped, name) == getattr(res, name)
    assert np.array_equal(res_flipped.covariance, res.covariance)
    assert np.array_equal(res_flipped.residuals, res.residuals)


def test_sigma_scaling_semantics():
    obs = zero_noise_observations()
    rng = np.random.default_rng(11)
    noisy = tuple(
        af.Observation(
            o.voltage_U,
            o.phase_meas + rng.normal(0.0, PHASE_SIGMA),
            o.phase_sigma,
            o.vis_ratio,
            o.vis_sigma,
        )
        for o in obs
    )
    doubled = tuple(
        af.Observation(o.voltage_U, o.phase_meas, 2.0 * o.phase_sigma,
                       o.vis_ratio, 2.0 * o.vis_sigma)
        for o in noisy
    )
    base = af.fit(observation_set(noisy), chi2_scaling=False)
    wide = af.fit(observation_set(doubled), chi2_scaling=False)
    assert wide.chi_square == pytest.approx(base.chi_square / 4.0, rel=1e-6)
    s_b, c_b = af.parameter_uncertainties(base)
    s_w, c_w = af.parameter_uncertainties(wide)
    # without chi2 scaling the quoted sigmas propagate directly
    assert s_w == pytest.approx(2.0 * s_b, rel=1e-6)
    assert c_w == pytest.approx(2.0 * c_b, rel=1e-6)
    # with it, the common sigma scale cancels out of the covariance
    s_b2, c_b2 = af.parameter_uncertainties(af.fit(observation_set(noisy)))
    s_w2, c_w2 = af.parameter_uncertainties(af.fit(observation_set(doubled)))
    assert s_w2 == pytest.approx(s_b2, rel=1e-6)
    assert c_w2 == pytest.approx(c_b2, rel=1e-6)


def test_jacobian_step_halving_consistency():
    # the exact Jacobian the fit uses agrees with forward differences
    ctx = model_context()
    volts = np.array(VOLTS)
    ph, ra = af.model_curve(S_TRUE, C_TRUE, volts, ctx)
    x = np.array([S_TRUE + 0.4, (C_TRUE + 2e-5) / 1e-4])  # off-model point
    J_exact, J_forward = exact_and_forward_jacobian(x, volts, ctx, ph, ra)
    scale = np.max(np.abs(J_exact), axis=0)
    assert np.max(np.abs(J_exact - J_forward) / scale) <= 1e-4


@settings(max_examples=25)
@given(
    s_par=st.floats(6.0, 12.0),
    coeff=st.floats(0.5e-4, 3.0e-4),
    ds=st.floats(-0.5, 0.5),
    dc=st.floats(-0.2, 0.2),
)
def test_exact_jacobian_matches_forward_differences(s_par, coeff, ds, dc):
    # data from (s_par, coeff) over applied amplitudes up to 25 rad; the
    # Jacobian is taken at an offset point where the misfits are nonzero
    ctx = model_context()
    volts = np.linspace(0.0, math.sqrt(25.0 / coeff), 16)[1:]
    ph, ra = af.model_curve(s_par, coeff, volts, ctx)
    x = np.array([s_par + ds, coeff * (1.0 + dc) / 1e-4])
    J_exact, J_forward = exact_and_forward_jacobian(x, volts, ctx, ph, ra)
    scale = np.max(np.abs(J_exact), axis=0)
    assert np.max(np.abs(J_exact - J_forward) / scale) <= 1e-4


def test_uncertainties_require_convergence():
    res = af.fit(observation_set(zero_noise_observations()))
    stuck = af.FitResult(
        s_parallel=res.s_parallel,
        coeff_per_U2=res.coeff_per_U2,
        covariance=res.covariance,
        chi_square=res.chi_square,
        residuals=res.residuals,
        converged=False,
        iterations=res.iterations,
        cost_history=res.cost_history,
    )
    with pytest.raises(af.FitError):
        af.parameter_uncertainties(stuck)


def test_uncertainties_positive_and_finite():
    rng = np.random.default_rng(5)
    noisy = tuple(
        af.Observation(
            o.voltage_U,
            o.phase_meas + rng.normal(0.0, PHASE_SIGMA),
            PHASE_SIGMA,
            min(max(o.vis_ratio + rng.normal(0.0, VIS_SIGMA), 0.0), 1.2),
            VIS_SIGMA,
        )
        for o in zero_noise_observations()
    )
    res = af.fit(observation_set(noisy))
    s_sig, c_sig = af.parameter_uncertainties(res)
    assert 0.0 < s_sig < 1.0
    assert 0.0 < c_sig < 1e-4
    assert math.isfinite(res.chi_square)
