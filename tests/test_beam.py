"""Beam distribution model and integration-window construction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from atomfringe import BeamModel, VelocitySupport, velocity_pdf
from atomfringe.beam import MAX_NODE_COUNT
from _oracles import support_of


def test_sigma_matches_speed_ratio_definition():
    b = BeamModel(u=1065.7, s_parallel=7.67)
    assert b.sigma == pytest.approx(1065.7 / (7.67 * math.sqrt(2.0)), rel=1e-15)


@pytest.mark.parametrize("u,s", [(0.0, 7.67), (-10.0, 7.67), (1065.7, 1.0), (1065.7, 0.3)])
def test_beam_validation(u, s):
    with pytest.raises(ValueError):
        BeamModel(u=u, s_parallel=s)


@pytest.mark.parametrize("name", ["u", "s_parallel"])
def test_beam_refuses_an_infinite_field_by_name(name):
    # an infinite speed ratio used to build and fail later, at the window
    fields = {"u": 1065.7, "s_parallel": 7.67, name: math.inf}
    with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
        BeamModel(**fields)
    # NaN keeps the positivity message
    with pytest.raises(ValueError, match="must (be positive|exceed 1)"):
        BeamModel(**{**fields, name: math.nan})


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
    v = np.linspace(*VelocitySupport().bounds(b), 400_001)
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
    sup = VelocitySupport()
    v_min, v_max = sup.bounds(b)
    assert v_max == pytest.approx(b.u + 8.0 * b.sigma, rel=1e-15)
    assert v_min == pytest.approx(b.u - 8.0 * b.sigma, rel=1e-15)
    assert sup.width_sigmas == 8.0
    assert sup.node_count == 257


def test_default_support_clamps_broad_beams():
    # 8 sigma below the mean would be negative here; the window must
    # stay clear of v = 0 where the 1/v phase terms blow up
    b = BeamModel(u=1000.0, s_parallel=1.2)
    v_min, _ = VelocitySupport().bounds(b)
    assert v_min == pytest.approx(1.0, rel=1e-15)


def test_default_support_passthrough():
    b = BeamModel(u=1065.7, s_parallel=7.67)
    sup = VelocitySupport(width_sigmas=5.0, node_count=513)
    assert sup.bounds(b)[1] - b.u == pytest.approx(5.0 * b.sigma, rel=1e-14)
    assert sup.node_count == 513
    with pytest.raises(ValueError):
        VelocitySupport(width_sigmas=0.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_windows_are_refused(bad):
    # an infinite edge passed 0 < v_min < v_max and gave NaN averages; a
    # finite width that overflows sigma times it is refused where it is used
    beam = BeamModel(u=1065.7, s_parallel=7.67)
    with pytest.raises(ValueError, match="v_max < inf"):
        VelocitySupport(width_sigmas=1e308).bounds(beam)
    with pytest.raises(ValueError, match="width_sigmas must be positive and finite"):
        VelocitySupport(width_sigmas=bad)


@pytest.mark.parametrize(
    "width,n,message",
    [
        # so narrow that u +/- half rounds to u: v_min = v_max
        pytest.param(1e-300, 257, "require 0 < v_min < v_max", id="equal-edges"),
        pytest.param(8.0, 2, "node_count must be at least 3", id="two-nodes"),
    ],
)
def test_support_validation(width, n, message):
    with pytest.raises(ValueError, match=message):
        VelocitySupport(width_sigmas=width, node_count=n).bounds(
            BeamModel(u=1065.7, s_parallel=7.67)
        )


@pytest.mark.parametrize("bad", [257.0, 3.5, True, "257"])
def test_node_count_must_be_an_integer(bad):
    # 257.0 and 3.5 used to build and fail in the average with numpy's
    # "slice indices must be integers"
    with pytest.raises(ValueError, match=f"node_count must be an integer, got {bad!r}"):
        VelocitySupport(node_count=bad)
    assert VelocitySupport(node_count=np.int64(257)) == VelocitySupport()


def test_node_count_stops_at_the_largest_kronrod_rule_built():
    # above it Laurie's moments outgrow double precision: at n = 1075 the
    # Kronrod weights sum to 2 + 7e-5, and at 1100 the build itself fails
    assert MAX_NODE_COUNT == 1025
    assert VelocitySupport(node_count=1025).node_count == 1025
    with pytest.raises(ValueError, match="node_count must be at most 1025, got 1026"):
        VelocitySupport(node_count=1026)
    with pytest.raises(ValueError, match="node_count must be at most 1025"):
        VelocitySupport(node_count=4097)


@settings(max_examples=200)
@given(
    u=st.floats(10.0, 5000.0),
    s_parallel=st.floats(1.01, 40.0),
    width=st.floats(0.5, 50.0),
    n=st.integers(3, MAX_NODE_COUNT),
)
@example(u=1000.0, s_parallel=1.2, width=8.0, n=257)  # the 1e-3 u clamp acts
@example(u=1065.7, s_parallel=7.67, width=8.0, n=257)
def test_window_bounds_match_the_oracle(u, s_parallel, width, n):
    # the relative window is the oracle's truncation contract, bit for bit,
    # on both sides of the clamp; the node count does not move it
    bounds = VelocitySupport(width_sigmas=width, node_count=n).bounds(BeamModel(u, s_parallel))
    assert bounds == support_of(u, s_parallel, width)
