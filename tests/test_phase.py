"""Phase-term constructors, hardware conversions, and constants."""

import math

import numpy as np
import pytest

import atomfringe as af
from _oracles import prism_ratio_general_angle
from _support import BEAM, CAP, GEO

RAD_PER_DEG = math.pi / 180.0


def test_embedded_constants():
    assert af.VACUUM_PERMITTIVITY_F_PER_M == 8.854187813e-12
    assert af.HBAR_J_S == 1.054571817e-34
    assert af.EARTH_ROTATION_RATE_RAD_PER_S == 7.2921e-5


def test_term_validation():
    with pytest.raises(ValueError):
        af.DispersivePhaseTerm(amplitude_at_mean=1.0, exponent=3)
    with pytest.raises(ValueError):
        af.DispersivePhaseTerm(amplitude_at_mean=math.nan, exponent=1)
    t = af.DispersivePhaseTerm(amplitude_at_mean=-4.5, exponent=2)
    assert (t.amplitude_at_mean, t.exponent) == (-4.5, 2)


@pytest.mark.parametrize("exponent", [1.0, True, np.float64(2.0), np.bool_(False)])
def test_term_exponent_must_be_an_integer(exponent):
    # each equals an allowed exponent, but none can index the powers of u/v
    with pytest.raises(ValueError, match="exponent must be an integer"):
        af.DispersivePhaseTerm(amplitude_at_mean=1.0, exponent=exponent)


def test_numpy_integer_exponents_are_accepted():
    terms = [af.DispersivePhaseTerm(-3.0, np.int64(1)), af.DispersivePhaseTerm(2.0, np.int32(2))]
    plain = [af.DispersivePhaseTerm(-3.0, 1), af.DispersivePhaseTerm(2.0, 2)]
    assert af.averaged_fringe(terms, BEAM) == af.averaged_fringe(plain, BEAM)


def test_grating_wavevector_doubles_laser():
    assert GEO.k_grating == pytest.approx(2.0 * GEO.k_laser, rel=1e-15)


def test_projected_rotation_rate():
    # published value for the instrument's latitude
    assert af.omega_y(GEO) == pytest.approx(5.025e-5, rel=1e-3)


def test_earth_sagnac_amplitude():
    term = af.sagnac_earth_term(GEO, BEAM)
    assert term.exponent == 1
    assert term.amplitude_at_mean == pytest.approx(0.646, abs=1e-3)
    expected = 2.0 * GEO.k_grating * af.omega_y(GEO) * GEO.grating_separation_L**2 / BEAM.u
    assert term.amplitude_at_mean == pytest.approx(expected, rel=1e-14)


def test_sagnac_scales_inversely_with_u():
    slow = af.BeamModel(u=BEAM.u / 2.0, s_parallel=BEAM.s_parallel)
    assert af.sagnac_earth_term(GEO, slow).amplitude_at_mean == pytest.approx(
        2.0 * af.sagnac_earth_term(GEO, BEAM).amplitude_at_mean, rel=1e-14
    )


def test_polarizability_sign_and_scaling():
    t1 = af.polarizability_term(CAP, 1.0e-30, 100.0, BEAM)
    t2 = af.polarizability_term(CAP, 1.0e-30, 200.0, BEAM)
    assert t1.exponent == 1
    assert t1.amplitude_at_mean < 0.0  # capacitor on the slow arm here
    assert t2.amplitude_at_mean == pytest.approx(4.0 * t1.amplitude_at_mean, rel=1e-14)
    flipped = af.CapacitorModel(geometry_factor_G=CAP.geometry_factor_G, sign=+1.0)
    assert af.polarizability_term(flipped, 1.0e-30, 100.0, BEAM).amplitude_at_mean == \
        -t1.amplitude_at_mean


@pytest.mark.parametrize("g", [1.0e5, 2.486e5, 7.0e5])
@pytest.mark.parametrize("u", [700.0, 1065.7])
@pytest.mark.parametrize("coeff", [2.0e-5, 1.3880e-4])
def test_alpha_coefficient_round_trip(g, u, coeff):
    beam = af.BeamModel(u=u, s_parallel=7.67)
    cap = af.CapacitorModel(geometry_factor_G=g, sign=-1.0)
    alpha = af.alpha_from_coefficient(coeff, g, u)
    term = af.polarizability_term(cap, alpha, 1.0, beam)
    assert -term.amplitude_at_mean == pytest.approx(coeff, rel=1e-12)


def test_mirror_velocity_round_trip():
    motion = af.required_mirror_velocity(GEO, 100.0, BEAM.u)
    assert motion.v1 == -motion.v3
    assert motion.v1 == pytest.approx(4.70e-3, rel=0.01)
    term = af.mirror_sagnac_term(GEO, motion, BEAM)
    assert term.exponent == 1
    assert term.amplitude_at_mean == pytest.approx(100.0, rel=1e-12)


def test_mirror_term_is_signed():
    motion = af.required_mirror_velocity(GEO, -250.0, BEAM.u)
    assert motion.v1 < 0.0 < motion.v3
    assert af.mirror_sagnac_term(GEO, motion, BEAM).amplitude_at_mean == pytest.approx(
        -250.0, rel=1e-12
    )


def test_sustain_time():
    motion = af.required_mirror_velocity(GEO, 100.0, BEAM.u)
    assert af.sustain_time(motion) == pytest.approx(4.3e-3, abs=0.5e-3)
    at_rest = af.MirrorMotion(v1=0.0, v3=0.0)
    assert af.sustain_time(at_rest) == math.inf


def test_prism_ratio_reduced_form():
    assert af.prism_displacement_ratio(af.PrismGeometry(refractive_index_n=1.46)) == \
        pytest.approx(-0.2475, abs=5e-4)


def test_prism_ratio_matches_general_angle_form():
    for n in (1.2, 1.46, 1.8):
        reduced = af.prism_displacement_ratio(af.PrismGeometry(refractive_index_n=n))
        assert abs(reduced - prism_ratio_general_angle(n)) < 1e-12


def test_prism_ratio_negative_and_decreasing():
    grid = np.linspace(1.0 + 1e-6, 2.0, 200)
    vals = [af.prism_displacement_ratio(af.PrismGeometry(refractive_index_n=n)) for n in grid]
    assert all(v < 0.0 for v in vals[1:])
    assert all(b < a for a, b in zip(vals, vals[1:]))


GEOMETRY_CONFIG = {
    "k_laser_per_m": 9.364e6,
    "L_m": 0.605,
    "latitude_deg": 43.0 + 33.0 / 60.0 + 37.0 / 3600.0,
    "geometry_factor_G_per_m": 2.486e5,
    "arm_sign": -1.0,
}


def test_geometry_from_config():
    geo, cap = af.geometry_from_config(GEOMETRY_CONFIG)
    assert geo == GEO
    assert cap == CAP
    assert geo.latitude == pytest.approx(
        (43.0 + 33.0 / 60.0 + 37.0 / 3600.0) * RAD_PER_DEG, rel=1e-15
    )


@pytest.mark.parametrize("sign", [1.5, -1.5])
def test_geometry_from_config_rejects_a_sign_other_than_plus_or_minus_one(sign):
    # truncating 1.5 to 1 would silently put the field on the other arm
    with pytest.raises(ValueError, match="sign"):
        af.geometry_from_config({**GEOMETRY_CONFIG, "arm_sign": sign})
