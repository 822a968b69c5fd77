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
        beam_u=BEAM.u,
        sagnac_amplitude_at_mean=sagnac,
        support=af.VelocitySupport(node_count=node_count),
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


def random_design(rng, seed):
    """(config, design) of one random synthetic measurement, its
    parameters drawn from rng: S 5-12, u 700-1500 m/s, a coefficient
    that puts 5-35 rad at the top voltage of 420 V, 5-20 voltages evenly
    spaced up to 420 V, phase sigma 0.01-0.1 rad plus 0-0.01 per rad,
    vis sigma 0.002-0.02; the config's rng_seed is seed."""
    s_parallel = rng.uniform(5.0, 12.0)
    u = rng.uniform(700.0, 1500.0)
    coeff = rng.uniform(5.0, 35.0) / 420.0**2
    n_volts = int(rng.integers(5, 21))
    design = SyntheticDesign(
        voltages=tuple(np.linspace(0.0, 420.0, n_volts + 1)[1:]),
        phase_sigma_base=rng.uniform(0.01, 0.1),
        phase_sigma_per_rad=rng.uniform(0.0, 0.01),
        vis_sigma=rng.uniform(0.002, 0.02),
    )
    config = RunConfig(
        geometry=GEO,
        capacitor=CAP,
        beam=af.BeamModel(u=u, s_parallel=s_parallel),
        alpha_m3=af.alpha_from_coefficient(coeff, CAP.geometry_factor_G, u),
        rng_seed=seed,
    )
    return config, design


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

    _, dmodel = _model_pass(x[0], x[1] * coeff_unit[1], np.asarray(volts) ** 2, ctx)
    exact = (dmodel * coeff_unit / sigmas[:, None]).reshape(-1, 2)
    r0 = residuals(x)
    forward = np.empty_like(exact)
    for k in range(x.size):
        h = rel_step * max(abs(x[k]), rel_step)
        xp = np.array(x, dtype=float)
        xp[k] += h
        forward[:, k] = (residuals(xp) - r0) / h
    return exact, forward


_ROBERTS_TERMS = ((-1.0, 1), (1.0, 2))


def unwrap_corpus(seed, count):
    """count seeded averaged_fringe calls, each (terms, beam, support,
    scales) with scales None for a plain call, drawn in five kinds: a
    fit's curve (the unit u/v term at a Sagnac factor and 5-20 on
    states up to 100 rad below it), a Roberts scan (8 or fewer factors
    of (u/v)^2 - u/v up to +-400 rad), sparse factors of 1-3 mixed-
    exponent terms that sometimes nearly cancel, a dense scan of such
    terms from 0 through the dispersion tail, and a plain call; S 4.5-12,
    u 700-1500 m/s, 129, 257 or 513 nodes."""
    rng = np.random.default_rng(seed)
    calls = []
    for _ in range(count):
        kind = int(rng.integers(5))
        beam = af.BeamModel(u=rng.uniform(700.0, 1500.0), s_parallel=rng.uniform(4.5, 12.0))
        support = af.VelocitySupport(node_count=int(rng.choice([129, 257, 513])))
        if kind == 0:
            sag = rng.uniform(-3.0, 3.0)
            on = np.linspace(0.0, 1.0, int(rng.integers(6, 22)))[1:] ** 2
            terms, scales = [(1.0, 1)], np.concatenate([[sag], sag - rng.uniform(0.0, 100.0) * on])
        elif kind == 1:
            reach = 10.0 ** rng.uniform(0.0, math.log10(400.0))
            terms, scales = _ROBERTS_TERMS, rng.uniform(-reach, reach, int(rng.integers(1, 9)))
        else:
            amps = rng.uniform(-150.0, 150.0, int(rng.integers(1, 4)))
            if amps.size > 1 and rng.random() < 0.3:  # nearly cancelling
                amps[1] = -amps[0] + rng.normal(0.0, 1.0)
            terms = list(zip(amps.tolist(), rng.integers(0, 3, amps.size).tolist()))
            if kind == 2:
                scales = rng.uniform(-1.5, 1.5, int(rng.integers(1, 5)))
            elif kind == 3:
                scales = np.linspace(0.0, rng.uniform(0.2, 1.5), int(rng.integers(20, 61)))
            else:
                scales = None
        terms = [af.DispersivePhaseTerm(a, e) for a, e in terms]
        calls.append((terms, beam, support, scales))
    return calls
