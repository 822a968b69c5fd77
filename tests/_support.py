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
