"""Shared fixtures for the test suite: the published instrument layout
and the canonical synthetic measurement design used by the fit and
acceptance tests.
"""

import math

import numpy as np

import atomfringe as af
from atomfringe.cli import RunConfig, SyntheticDesign

GEO = af.InterferometerGeometry(
    k_laser=9.364e6,
    grating_separation_L=0.605,
    latitude=math.radians(43.0 + 33.0 / 60.0 + 37.0 / 3600.0),
)
CAP = af.CapacitorModel(geometry_factor_G=2.486e5, sign=-1.0)
BEAM = af.BeamModel(u=1065.7, s_parallel=7.67)

C_TRUE = 1.3880e-4
S_TRUE = BEAM.s_parallel
ALPHA_TRUE = af.alpha_from_coefficient(C_TRUE, CAP.geometry_factor_G, BEAM.u)
SAG_AMP = af.sagnac_earth_term(GEO, BEAM).amplitude_at_mean

# 15 voltages whose top point puts the applied phase amplitude at
# exactly 25 rad; used for every synthetic-data test
VOLTS = tuple(np.linspace(0.0, math.sqrt(25.0 / C_TRUE), 16)[1:])

PHASE_SIGMA = 0.05
VIS_SIGMA = 0.005

DESIGN = SyntheticDesign(
    voltages=VOLTS,
    phase_sigma_base=PHASE_SIGMA,
    phase_sigma_per_rad=0.0,
    vis_sigma=VIS_SIGMA,
    rotation_jitter=0.0,
)


def model_context(node_count=257, sagnac=SAG_AMP):
    return af.ModelContext(
        beam_u=BEAM.u, sagnac_amplitude_at_mean=sagnac, node_count=node_count
    )


def zero_noise_observations(sagnac=SAG_AMP, node_count=257):
    """Exact model values at the canonical voltages, with the canonical
    sigmas recorded as weights."""
    phases, ratios = af.model_curve(
        S_TRUE, C_TRUE, np.array(VOLTS), model_context(node_count, sagnac)
    )
    return tuple(
        af.Observation(v, p, PHASE_SIGMA, r, VIS_SIGMA)
        for v, p, r in zip(VOLTS, phases, ratios)
    )


def observation_set(obs, sagnac=SAG_AMP, node_count=257):
    return af.ObservationSet(obs, model_context(node_count, sagnac))


def run_config(seed=0, **overrides):
    return RunConfig(
        geometry=GEO,
        capacitor=CAP,
        beam=BEAM,
        alpha_m3=ALPHA_TRUE,
        rng_seed=seed,
        **overrides,
    )


def exact_and_forward_jacobian(x, volts, ctx, ph, ra, rel_step=1e-6):
    """Jacobians of the weighted misfits (model - (ph, ra)) / sigma with
    respect to x = (s_parallel, coeff_per_U2 / 1e-4): the exact one from
    the model's own pass, and forward differences of model_curve with
    step rel_step * max(|x_k|, rel_step)."""
    from atomfringe.fitkit import _model_pass

    coeff_unit = np.array([1.0, 1e-4])
    sigmas = np.array([PHASE_SIGMA, VIS_SIGMA])

    def residuals(x):
        mp, mr = af.model_curve(x[0], x[1] * coeff_unit[1], volts, ctx)
        return (np.column_stack([mp - ph, mr - ra]) / sigmas).ravel()

    _, _, dphase, dratio = _model_pass(x[0], x[1] * coeff_unit[1], volts, ctx)
    exact = np.empty((2 * len(volts), 2))
    exact[0::2] = dphase * coeff_unit / sigmas[0]
    exact[1::2] = dratio * coeff_unit / sigmas[1]
    r0 = residuals(x)
    forward = np.empty_like(exact)
    for k in range(x.size):
        h = rel_step * max(abs(x[k]), rel_step)
        xp = np.array(x, dtype=float)
        xp[k] += h
        forward[:, k] = (residuals(xp) - r0) / h
    return exact, forward
