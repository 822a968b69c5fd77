"""Beam distribution model and integration-window construction."""

import math

import numpy as np
import pytest

from atomfringe import BeamModel, VelocitySupport, default_support, velocity_pdf


def test_sigma_matches_speed_ratio_definition():
    b = BeamModel(u=1065.7, s_parallel=7.67)
    assert b.sigma == pytest.approx(1065.7 / (7.67 * math.sqrt(2.0)), rel=1e-15)


@pytest.mark.parametrize("u,s", [(0.0, 7.67), (-10.0, 7.67), (1065.7, 1.0), (1065.7, 0.3)])
def test_beam_validation(u, s):
    with pytest.raises(ValueError):
        BeamModel(u=u, s_parallel=s)


def test_pdf_peaks_at_mean_velocity():
    b = BeamModel(u=1065.7, s_parallel=7.67)
    v = np.linspace(800.0, 1300.0, 5001)
    p = velocity_pdf(b, v)
    assert v[np.argmax(p)] == pytest.approx(b.u, abs=0.2)
    assert velocity_pdf(b, b.u) == pytest.approx(
        b.s_parallel / (b.u * math.sqrt(math.pi)), rel=1e-15
    )


def test_pdf_normalizes_over_default_window():
    b = BeamModel(u=1065.7, s_parallel=7.67)
    sup = default_support(b)
    v = np.linspace(sup.v_min, sup.v_max, 400_001)
    mass = np.trapezoid(velocity_pdf(b, v), v)
    # two-sided 8 sigma truncation leaves ~1e-15 outside
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_pdf_rejects_nonpositive_velocity():
    b = BeamModel(u=1065.7, s_parallel=7.67)
    with pytest.raises(ValueError):
        velocity_pdf(b, 0.0)
    with pytest.raises(ValueError):
        velocity_pdf(b, np.array([500.0, -1.0]))
    # NaN is no positive velocity either
    with pytest.raises(ValueError, match="velocity samples must be positive"):
        velocity_pdf(b, math.nan)
    with pytest.raises(ValueError, match="velocity samples must be positive"):
        velocity_pdf(b, np.array([500.0, math.nan]))


def test_pdf_scalar_and_array_shapes():
    b = BeamModel(u=1065.7, s_parallel=7.67)
    assert isinstance(velocity_pdf(b, 1000.0), float)
    out = velocity_pdf(b, np.array([[900.0, 1000.0], [1100.0, 1200.0]]))
    assert out.shape == (2, 2)


def test_default_support_window():
    b = BeamModel(u=1065.7, s_parallel=7.67)
    sup = default_support(b)
    assert sup.v_max == pytest.approx(b.u + 8.0 * b.sigma, rel=1e-15)
    assert sup.v_min == pytest.approx(b.u - 8.0 * b.sigma, rel=1e-15)
    assert sup.node_count == 257


def test_default_support_clamps_broad_beams():
    # 8 sigma below the mean would be negative here; the window must
    # stay clear of v = 0 where the 1/v phase terms blow up
    b = BeamModel(u=1000.0, s_parallel=1.2)
    sup = default_support(b)
    assert sup.v_min == pytest.approx(1.0, rel=1e-15)


def test_default_support_passthrough():
    b = BeamModel(u=1065.7, s_parallel=7.67)
    sup = default_support(b, width_sigmas=5.0, node_count=513)
    assert sup.v_max - b.u == pytest.approx(5.0 * b.sigma, rel=1e-14)
    assert sup.node_count == 513
    with pytest.raises(ValueError):
        default_support(b, width_sigmas=0.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_windows_are_refused(bad):
    # an infinite edge passed 0 < v_min < v_max and gave NaN averages
    with pytest.raises(ValueError, match="v_max < inf"):
        VelocitySupport(v_min=900.0, v_max=bad)
    with pytest.raises(ValueError, match="width_sigmas must be positive and finite"):
        default_support(BeamModel(u=1065.7, s_parallel=7.67), width_sigmas=bad)


@pytest.mark.parametrize(
    "vmin,vmax,n",
    [(0.0, 100.0, 257), (-5.0, 100.0, 257), (100.0, 100.0, 257), (50.0, 100.0, 2)],
)
def test_support_validation(vmin, vmax, n):
    with pytest.raises(ValueError):
        VelocitySupport(v_min=vmin, v_max=vmax, node_count=n)
