"""End-to-end command-line coverage through in-process main()."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import atomfringe as af
from atomfringe import cli, fitkit, fringe
from atomfringe.cli import OBSERVATION_HEADER, main, read_observations, write_observations
from _support import ALPHA_TRUE, BEAM, C_TRUE, GEO, S_TRUE, VOLTS, run_config, zero_noise_observations

LATITUDE_DEG = 43.0 + 33.0 / 60.0 + 37.0 / 3600.0

ROBERTS_PHASE = 0.012081309880924184
ROBERTS_VIS = 0.642918882718436

HUGE = 10**400  # a JSON integer beyond the float range


def base_config() -> dict:
    return {
        "geometry": {
            "k_laser_per_m": 9.364e6,
            "L_m": 0.605,
            "latitude_deg": LATITUDE_DEG,
            "geometry_factor_G_per_m": 2.486e5,
            "arm_sign": -1.0,
        },
        "beam": {"u_m_per_s": 1065.7, "s_parallel": S_TRUE},
        "alpha_m3": ALPHA_TRUE,
    }


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(base_config()), encoding="utf-8")
    return str(path)


def write_config(tmp_path, doc, name="alt.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------- constants


def test_constants_values(config_path, tmp_path):
    out = tmp_path / "const.csv"
    assert main(["constants", "--config", config_path, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["quantity", "value"]
    values = {name: float(cell) for name, cell in rows}
    assert values["sagnac_amplitude_rad"] == pytest.approx(0.646, abs=1e-3)
    assert values["omega_y_rad_per_s"] == pytest.approx(5.025e-5, rel=1e-3)
    assert values["prism_dx_over_dz"] == pytest.approx(-0.2475, abs=5e-4)


def test_constants_stdout_default(config_path, capsys):
    assert main(["constants", "--config", config_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "quantity,value"
    assert len(lines) == 4


# ----------------------------------------------------------------- simulate


def test_simulate_explicit_voltages(config_path, tmp_path):
    out = tmp_path / "curve.csv"
    code = main(
        [
            "simulate",
            "--config",
            config_path,
            "--voltages",
            "0,150,300",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["U_volts", "phase_rad", "vis_ratio"]
    assert len(rows) == 3
    assert float(rows[0][1]) == 0.0
    assert float(rows[0][2]) == 1.0
    # the curve must be the library model, not a reimplementation
    beam = af.BeamModel(u=1065.7, s_parallel=S_TRUE)
    geo = af.InterferometerGeometry(
        k_laser=9.364e6,
        grating_separation_L=0.605,
        latitude=math.radians(LATITUDE_DEG),
    )
    ctx = af.ModelContext(
        beam_u=beam.u,
        sagnac_amplitude_at_mean=af.sagnac_earth_term(geo, beam).amplitude_at_mean,
    )
    phases, ratios = af.model_curve(S_TRUE, C_TRUE, (0.0, 150.0, 300.0), ctx)
    for row, ph, vr in zip(rows, phases, ratios):
        assert float(row[1]) == pytest.approx(ph, abs=1e-12)
        assert float(row[2]) == pytest.approx(vr, abs=1e-12)


def test_simulate_sweep_grid(config_path, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "simulate",
            "--config",
            config_path,
            "--u-max",
            "200",
            "--points",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert [float(r[0]) for r in rows] == [0.0, 50.0, 100.0, 150.0, 200.0]


def test_simulate_rejects_bad_voltage_list(config_path, tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(
        ["simulate", "--config", config_path, "--voltages", "1,two", "--out", str(out)]
    )
    assert code == 2
    assert "--voltages" in capsys.readouterr().err


def test_simulate_without_alpha_is_flat(tmp_path):
    # no polarizability: every voltage is the off state itself
    doc = base_config()
    del doc["alpha_m3"]
    config = write_config(tmp_path, doc, "noalpha.json")
    out = tmp_path / "curve.csv"
    assert main(["simulate", "--config", config, "--voltages", "0,150,300", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [(float(ph), float(vr)) for _, ph, vr in rows] == [(0.0, 1.0)] * 3


# -------------------------------------------------------------------- synth


def design_doc(**overrides):
    doc = {
        "voltages_V": [100.0, 200.0, 300.0, 400.0],
        "phase_sigma_base_rad": 0.05,
        "vis_sigma": 0.005,
    }
    doc.update(overrides)
    return doc


def test_synth_seed_determinism(config_path, tmp_path):
    design = write_config(tmp_path, design_doc(), "design.json")
    outs = [tmp_path / f"obs{i}.csv" for i in range(3)]
    for out, seed in zip(outs, ("11", "11", "12")):
        code = main(
            [
                "synth",
                "--config",
                config_path,
                "--design",
                design,
                "--seed",
                seed,
                "--out",
                str(out),
            ]
        )
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_bytes() != outs[2].read_bytes()


def test_synth_noiseless_matches_model(config_path, tmp_path):
    design = write_config(
        tmp_path,
        design_doc(phase_sigma_base_rad=0.0, vis_sigma=0.0),
        "quiet.json",
    )
    out = tmp_path / "quiet.csv"
    assert main(["synth", "--config", config_path, "--design", design, "--out", str(out)]) == 0
    obs = read_observations(str(out))
    beam = af.BeamModel(u=1065.7, s_parallel=S_TRUE)
    geo = af.InterferometerGeometry(
        k_laser=9.364e6,
        grating_separation_L=0.605,
        latitude=math.radians(LATITUDE_DEG),
    )
    ctx = af.ModelContext(
        beam_u=beam.u,
        sagnac_amplitude_at_mean=af.sagnac_earth_term(geo, beam).amplitude_at_mean,
    )
    volts = [o.voltage_U for o in obs]
    phases, ratios = af.model_curve(S_TRUE, C_TRUE, volts, ctx)
    for o, ph, vr in zip(obs, phases, ratios):
        assert o.phase_meas == pytest.approx(ph, abs=1e-12)
        assert o.vis_ratio == pytest.approx(vr, abs=1e-12)
        # noiseless channels still need usable weights on file
        assert o.phase_sigma == 1.0
        assert o.vis_sigma == 1.0


def test_observation_file_round_trip_is_byte_identical(config_path, tmp_path):
    design = write_config(tmp_path, design_doc(), "design.json")
    first = tmp_path / "obs.csv"
    again = tmp_path / "obs2.csv"
    assert main(["synth", "--config", config_path, "--design", design, "--out", str(first)]) == 0
    write_observations(str(again), read_observations(str(first)))
    assert first.read_bytes() == again.read_bytes()


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=100)
@given(
    rows=st.lists(
        st.builds(af.Observation, finite, finite, positive, st.floats(0.0, 1.2), positive),
        max_size=5,
    )
)
def test_observation_write_read_write_is_byte_identical(rows, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("round_trip")
    first, again = tmp / "first.csv", tmp / "again.csv"
    write_observations(str(first), rows)
    back = read_observations(str(first))
    assert back == tuple(rows)
    write_observations(str(again), back)
    assert first.read_bytes() == again.read_bytes()


def test_synth_dash_writes_stdout(config_path, tmp_path, monkeypatch, capsys):
    design = write_config(tmp_path, design_doc(), "design.json")
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--config", config_path, "--design", design, "--out", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(OBSERVATION_HEADER)
    assert len(lines) == 1 + len(design_doc()["voltages_V"])
    assert not (tmp_path / "-").exists()


def test_synth_rejects_jitter_without_rotation_term(tmp_path, capsys):
    # with the rotation term off there is no rotation phase to jitter;
    # dropping the jitter silently would write a jitter-free file
    doc = base_config()
    doc["fit"] = {"include_sagnac": False}
    config = write_config(tmp_path, doc, "nosag.json")
    design = write_config(
        tmp_path, design_doc(rotation_jitter_rad_per_s=1e-3), "jitter.json"
    )
    out = tmp_path / "obs.csv"
    code = main(["synth", "--config", config, "--design", design, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "rotation_jitter" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("noisy", [True, False], ids=["noisy", "noiseless"])
def test_synth_repeated_design_voltage_is_a_repeated_measurement(noisy, config_path, tmp_path):
    # a voltage listed twice is measured twice: one row per entry, each
    # with its own noise draw, so the two rows agree only without noise
    quiet = {} if noisy else {"phase_sigma_base_rad": 0.0, "vis_sigma": 0.0}
    design = write_config(tmp_path, design_doc(voltages_V=[100, 200, 100], **quiet), "dup.json")
    out = tmp_path / "obs.csv"
    assert main(["synth", "--config", config_path, "--design", design, "--out", str(out)]) == 0
    first, _, again = obs = read_observations(str(out))
    assert [o.voltage_U for o in obs] == [100.0, 200.0, 100.0]
    if noisy:
        assert again.phase_meas != first.phase_meas and again.vis_ratio != first.vis_ratio
        assert (again.phase_sigma, again.vis_sigma) == (first.phase_sigma, first.vis_sigma)
    else:
        assert again == first


def test_synth_refuses_an_empty_design(config_path, tmp_path, capsys):
    # it used to exit 0 with a header-only file that fit then refused
    design = write_config(tmp_path, design_doc(voltages_V=[]), "empty.json")
    out = tmp_path / "obs.csv"
    code = main(["synth", "--config", config_path, "--design", design, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {design}: design voltages must not be empty"]
    assert not out.exists()
    with pytest.raises(ValueError, match="design voltages must not be empty"):
        cli.SyntheticDesign(voltages=())


def synth_truth():
    """(beam, coeff, Sagnac amplitude, amplitude per rotation rate) of
    base_config(), computed from the physics functions."""
    beam = af.BeamModel(u=1065.7, s_parallel=S_TRUE)
    geo = af.InterferometerGeometry(
        k_laser=9.364e6,
        grating_separation_L=0.605,
        latitude=math.radians(LATITUDE_DEG),
    )
    cap = af.CapacitorModel(geometry_factor_G=2.486e5, sign=-1)
    coeff = -af.polarizability_term(cap, ALPHA_TRUE, 1.0, beam).amplitude_at_mean
    sag = af.sagnac_earth_term(geo, beam).amplitude_at_mean
    amp_per_rate = 2.0 * geo.k_grating * geo.grating_separation_L**2 / beam.u
    return beam, coeff, sag, amp_per_rate


def test_synth_jittered_file_is_rebuilt_by_hand(config_path, tmp_path):
    # the per-point path: for each voltage draw the rotation jitter, then
    # the phase noise, then the visibility noise, from one seeded stream,
    # with one model curve per point at the jittered rotation amplitude
    doc = design_doc(phase_sigma_per_rad=0.01, rotation_jitter_rad_per_s=2e-5)
    design = write_config(tmp_path, doc, "jitter.json")
    out = tmp_path / "obs.csv"
    argv = ["synth", "--config", config_path, "--design", design, "--seed", "7"]
    assert main([*argv, "--out", str(out)]) == 0

    beam, coeff, sag, amp_per_rate = synth_truth()
    rng = np.random.default_rng(7)
    rows = []
    for volt in doc["voltages_V"]:
        jitter = rng.normal(0.0, doc["rotation_jitter_rad_per_s"])
        ctx = af.ModelContext(
            beam_u=beam.u, sagnac_amplitude_at_mean=sag + amp_per_rate * jitter
        )
        (phase,), (vis,) = af.model_curve(S_TRUE, coeff, (volt,), ctx)
        ph_sigma = doc["phase_sigma_base_rad"] + doc["phase_sigma_per_rad"] * abs(phase)
        phase += rng.normal(0.0, ph_sigma)
        vis += rng.normal(0.0, doc["vis_sigma"])
        rows.append(af.Observation(volt, phase, ph_sigma, vis, doc["vis_sigma"]))
    rebuilt = tmp_path / "rebuilt.csv"
    write_observations(str(rebuilt), rows)
    assert rebuilt.read_bytes() == out.read_bytes()


@pytest.mark.parametrize(
    "overrides",
    [
        {"phase_sigma_per_rad": 0.01},
        {"phase_sigma_base_rad": 0.0, "phase_sigma_per_rad": 0.02},
        {"vis_sigma": 0.0},
        {"voltages_V": [100.0, 200.0, 100.0]},
    ],
    ids=["both-channels", "phase-sigma-per-rad-only", "noiseless-visibility", "repeated-voltage"],
)
def test_synth_file_is_rebuilt_by_hand(overrides, config_path, tmp_path):
    # the jitter-free path: one model curve for the design, then for each
    # voltage a scalar draw of the phase noise before one of the
    # visibility noise, from one seeded stream; a channel of sigma 0 draws
    # nothing and its sigma column reads 1
    doc = design_doc(**overrides)
    design = write_config(tmp_path, doc, "design.json")
    out = tmp_path / "obs.csv"
    argv = ["synth", "--config", config_path, "--design", design, "--seed", "7"]
    assert main([*argv, "--out", str(out)]) == 0

    beam, coeff, sag, _ = synth_truth()
    ctx = af.ModelContext(beam_u=beam.u, sagnac_amplitude_at_mean=sag)
    phases, ratios = af.model_curve(S_TRUE, coeff, doc["voltages_V"], ctx)
    rng = np.random.default_rng(7)
    vis_sigma = doc["vis_sigma"]
    per_rad = doc.get("phase_sigma_per_rad", 0.0)
    rows = []
    for volt, phase, vis in zip(doc["voltages_V"], phases.tolist(), ratios.tolist()):
        ph_sigma = doc["phase_sigma_base_rad"] + per_rad * abs(phase)
        phase += rng.normal(0.0, ph_sigma) if ph_sigma > 0.0 else 0.0
        vis += rng.normal(0.0, vis_sigma) if vis_sigma > 0.0 else 0.0
        rows.append(
            af.Observation(volt, phase, ph_sigma or 1.0, vis, vis_sigma or 1.0)
        )
    rebuilt = tmp_path / "rebuilt.csv"
    write_observations(str(rebuilt), rows)
    assert rebuilt.read_bytes() == out.read_bytes()


def test_synth_out_of_range_noise_names_the_voltage_and_key(config_path, tmp_path, capsys):
    # seed 0 draws a visibility ratio below 0 at the 27th voltage
    volts = np.linspace(10.0, 560.0, 30).tolist()
    doc = design_doc(voltages_V=volts, phase_sigma_base_rad=0.0, vis_sigma=0.05)
    design = write_config(tmp_path, doc, "wide.json")
    out = tmp_path / "obs.csv"
    argv = ["synth", "--config", config_path, "--design", design, "--seed", "0"]
    assert main([*argv, "--out", str(out)]) == 1
    assert_one_error_line(capsys, "vis_ratio", "voltages_V", repr(volts[26]), "vis_sigma 0.05")
    assert not out.exists()


def count_model_curves(monkeypatch):
    """The list of argument tuples of every cli.model_curve call from now on."""
    calls = []
    real = cli.model_curve

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "model_curve", counted)
    return calls


def test_synth_true_curve_is_kept_for_the_next_seed(monkeypatch):
    cli._true_curve.cache_clear()
    calls = count_model_curves(monkeypatch)
    design = cli.SyntheticDesign(
        voltages=(100.0, 200.0, 300.0), phase_sigma_base=0.05, vis_sigma=0.005
    )
    first = cli.generate_synthetic(run_config(1), design)
    second = cli.generate_synthetic(run_config(2), design)
    assert len(calls) == 1  # a second seed on one config and design
    assert first != second
    # each of beam, support, coefficient and voltages is part of the key
    config = run_config(2)
    changed = [
        (dataclasses.replace(config, beam=af.BeamModel(u=1065.7, s_parallel=8.0)), design),
        (dataclasses.replace(config, beam=af.BeamModel(u=1100.0, s_parallel=S_TRUE)), design),
        (dataclasses.replace(config, support=af.VelocitySupport(node_count=301)), design),
        (dataclasses.replace(config, alpha_m3=1.1 * ALPHA_TRUE), design),
        (config, dataclasses.replace(design, voltages=(100.0, 200.0, 310.0))),
    ]
    for n, (changed_config, changed_design) in enumerate(changed, start=2):
        cli.generate_synthetic(changed_config, changed_design)
        assert len(calls) == n
    phases, ratios = cli._true_curve(*calls[-1])
    for a in (phases, ratios):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_synth_true_curve_that_raises_raises_again(monkeypatch):
    cli._true_curve.cache_clear()
    calls = count_model_curves(monkeypatch)
    # a 4-sigma window cuts the beam: the average refuses it
    config = run_config(3, support=af.VelocitySupport(width_sigmas=4.0))
    design = cli.SyntheticDesign(voltages=(100.0, 200.0, 300.0), vis_sigma=0.005)
    for n in (1, 2):
        with pytest.raises(af.QuadratureConvergenceError):
            cli.generate_synthetic(config, design)
        assert len(calls) == n


# ---------------------------------------------------------------------- fit


def test_fit_recovers_noiseless_truth(config_path, tmp_path):
    design = write_config(
        tmp_path,
        design_doc(
            voltages_V=[50.0, 120.0, 200.0, 280.0, 360.0, 424.0],
            phase_sigma_base_rad=0.0,
            vis_sigma=0.0,
        ),
        "quiet.json",
    )
    obs = tmp_path / "obs.csv"
    report = tmp_path / "fit.json"
    assert main(["synth", "--config", config_path, "--design", design, "--out", str(obs)]) == 0
    code = main(["fit", "--config", config_path, "--obs", str(obs), "--out", str(report)])
    assert code == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["converged"] is True
    assert doc["s_parallel"] == pytest.approx(S_TRUE, rel=1e-6)
    assert doc["coeff_per_U2"] == pytest.approx(C_TRUE, rel=1e-6)
    assert doc["chi_square"] == pytest.approx(0.0, abs=1e-10)
    assert doc["n_observations"] == 6
    assert doc["include_sagnac"] is True
    assert doc["sagnac_amplitude_rad"] == pytest.approx(0.646, abs=1e-3)
    assert len(doc["residuals"]) == 6
    assert set(doc["residuals"][0]) == {"U_volts", "phase_rad", "vis_ratio"}
    assert len(doc["covariance"]) == 2
    assert doc["sigma_s_parallel"] > 0.0
    assert doc["sigma_coeff_per_U2"] > 0.0


def test_fit_dash_writes_the_report_to_stdout(config_path, tmp_path, monkeypatch, capsys):
    design = write_config(tmp_path, design_doc(), "design.json")
    obs, report = tmp_path / "obs.csv", tmp_path / "fit.json"
    assert main(["synth", "--config", config_path, "--design", design, "--out", str(obs)]) == 0
    assert main(["fit", "--config", config_path, "--obs", str(obs), "--out", str(report)]) == 0
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["fit", "--config", config_path, "--obs", str(obs), "--out", "-"]) == 0
    text = capsys.readouterr().out
    assert strict_json(text)["converged"] is True
    assert text == report.read_text(encoding="utf-8")
    assert not (tmp_path / "-").exists()


def test_fit_sagnac_off_biases_s_upward(config_path, tmp_path):
    design = write_config(
        tmp_path,
        design_doc(
            voltages_V=[50.0, 120.0, 200.0, 280.0, 360.0, 424.0],
            phase_sigma_base_rad=0.0,
            vis_sigma=0.0,
        ),
        "quiet.json",
    )
    obs = tmp_path / "obs.csv"
    report = tmp_path / "off.json"
    assert main(["synth", "--config", config_path, "--design", design, "--out", str(obs)]) == 0
    code = main(
        [
            "fit",
            "--config",
            config_path,
            "--obs",
            str(obs),
            "--sagnac",
            "off",
            "--out",
            str(report),
        ]
    )
    assert code == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["include_sagnac"] is False
    assert doc["sagnac_amplitude_rad"] == 0.0
    assert doc["s_parallel"] > S_TRUE + 0.05


def test_fit_rejects_underdetermined_file(config_path, tmp_path, capsys):
    # writing a 2-voltage file needs no fit; fitting it does
    design = write_config(tmp_path, design_doc(voltages_V=[100.0, 200.0]), "design.json")
    obs = tmp_path / "two.csv"
    assert main(["synth", "--config", config_path, "--design", design, "--out", str(obs)]) == 0
    assert [o.voltage_U for o in read_observations(str(obs))] == [100.0, 200.0]
    report = tmp_path / "r.json"
    code = main(["fit", "--config", config_path, "--obs", str(obs), "--out", str(report)])
    assert code == 1
    assert_one_error_line(capsys, "need at least 3 observations")


def test_fit_not_converged_exits_1(tmp_path, capsys):
    doc = base_config()
    doc["fit"] = {"max_iterations": 1}
    config = write_config(tmp_path, doc, "short_fit.json")
    design = write_config(
        tmp_path,
        design_doc(voltages_V=[50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0]),
        "design.json",
    )
    obs = tmp_path / "obs.csv"
    report = tmp_path / "fit.json"
    assert main(["synth", "--config", config, "--design", design, "--out", str(obs)]) == 0
    capsys.readouterr()
    code = main(["fit", "--config", config, "--obs", str(obs), "--out", str(report)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: fit did not converge")
    # the report is still written, without sigmas
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["converged"] is False
    assert doc["sigma_s_parallel"] is None


def test_fit_that_runs_out_of_damping_says_so(config_path, tmp_path, monkeypatch, capsys):
    # every trial pass after the first evaluation raises, so the damping
    # climbs past its limit with no accepted step, long before
    # max_iterations (200): the line must name the damping
    design = write_config(tmp_path, design_doc(), "design.json")
    obs = tmp_path / "obs.csv"
    report = tmp_path / "fit.json"
    assert main(["synth", "--config", config_path, "--design", design, "--out", str(obs)]) == 0
    capsys.readouterr()
    passes = []
    model_pass = fitkit._model_pass

    def first_pass_only(*args):
        passes.append(args)
        if len(passes) > 1:
            raise af.QuadratureConvergenceError("velocity average not converged")
        return model_pass(*args)

    monkeypatch.setattr(fitkit, "_model_pass", first_pass_only)
    code = main(["fit", "--config", config_path, "--obs", str(obs), "--out", str(report)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0] == (
        "error: fit did not converge (the damping ran out after 0 accepted steps, "
        "before max_iterations = 200); the report has no sigmas"
    )
    assert len(passes) > 2
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["converged"] is False
    assert doc["iterations"] == 0
    assert doc["sigma_s_parallel"] is None


def test_fit_converges_where_the_smallest_voltages_are_noise(tmp_path, capsys):
    # 5.5 rad at the top of 16 voltages: the three smallest phases are
    # about a sigma each, and a start taken from them alone (0.52x the
    # coefficient) ran into the S = 4.25 window wall and stopped there;
    # the start fitted to every point is 1.006x the coefficient
    doc = base_config()
    doc["beam"]["s_parallel"] = 6.82
    doc["alpha_m3"] = af.alpha_from_coefficient(5.5 / 420.0**2, 2.486e5, 1065.7)
    doc["rng_seed"] = 16
    config = write_config(tmp_path, doc, "run.json")
    design = write_config(tmp_path, {
        "voltages_V": np.linspace(0.0, 420.0, 17)[1:].tolist(),
        "phase_sigma_base_rad": 0.05,
        "phase_sigma_per_rad": 0.01,
        "vis_sigma": 0.01,
    }, "design.json")
    obs = tmp_path / "obs.csv"
    report = tmp_path / "fit.json"
    assert main(["synth", "--config", config, "--design", design, "--out", str(obs)]) == 0
    assert main(["fit", "--config", config, "--obs", str(obs), "--out", str(report)]) == 0
    assert capsys.readouterr().err == ""
    result = json.loads(report.read_text(encoding="utf-8"))
    assert result["converged"] is True
    assert result["s_parallel"] > 5.0


# ------------------------------------------------------------ file writers

# what a report may hold, with the edge values of the float and int
# reprs and strings that need escapes
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 2**63, -(2**63) - 1])
    | st.text()
    | st.sampled_from(['"', "\\", "\u00e9", "\u2028", "\U0001f600", "a\"b\\c\n\t\x00"])
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200)
@given(payload=st.dictionaries(st.text(max_size=8), _JSON_TREES, max_size=6))
def test_json_writer_is_the_stdlib_layout(payload, tmp_path_factory):
    out = tmp_path_factory.getbasetemp() / "writer_report.json"
    cli._write_json(str(out), payload)
    expected = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    assert out.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["top", "list", "nested dict"])
def test_json_writer_refuses_a_non_finite_number_and_writes_nothing(bad, where, tmp_path):
    payload = {
        "top": {"a": 1.0, "b": bad},
        "list": {"a": [1.0, [2.0, bad]]},
        "nested dict": {"a": {"b": [{"c": bad}]}},
    }[where]
    with pytest.raises(ValueError) as stdlib:
        json.dumps(payload, indent=2, allow_nan=False)
    out = tmp_path / "report.json"
    with pytest.raises(ValueError) as ours:
        cli._write_json(str(out), payload)
    assert str(ours.value) == str(stdlib.value)
    assert not out.exists()


def _csv_module_text(header, rows):
    """The CSV text the writer produced with the csv module: each number
    formatted as f"{float(x):.17g}", str cells as they are."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else f"{float(c):.17g}" for c in row])
    return buf.getvalue()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_CSV_NUMBERS = (
    _FINITE
    | _FINITE.map(np.float64)
    | st.integers(min_value=-(2**60), max_value=2**60)
    | st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308])
)


@pytest.mark.parametrize(
    "header",
    [
        ["quantity", "value"],
        ["U_volts", "phase_rad", "vis_ratio"],
        OBSERVATION_HEADER,
        ["v1_amplitude_rad", "v2_amplitude_rad", "residual_phase_rad", "visibility_ratio"],
    ],
    ids=["constants", "simulate", "synth", "residual"],
)
@settings(max_examples=50)
@given(data=st.data())
def test_csv_writer_is_the_csv_module_layout(header, data, tmp_path_factory):
    width = len(header)
    if header[0] == "quantity":  # constants: a name, then its value
        row = st.tuples(st.sampled_from(["sagnac_amplitude_rad", "omega_y_rad_per_s"]), _CSV_NUMBERS)
    else:
        row = st.tuples(*[_CSV_NUMBERS] * width)
    rows = data.draw(st.lists(row, max_size=16))
    out = tmp_path_factory.getbasetemp() / f"writer_{header[0]}.csv"
    cli._write_csv(str(out), header, iter(rows))
    assert out.read_bytes() == _csv_module_text(header, rows).encode("utf-8")


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, np.float64(-math.inf)], ids=["nan", "inf", "-inf", "np-inf"]
)
def test_csv_writer_refuses_a_non_finite_number_and_writes_nothing(bad, tmp_path):
    # as a JSON report refuses NaN and Infinity
    out = tmp_path / "curve.csv"
    rows = iter([(0.0, 0.0, 1.0), (100.0, bad, 0.9)])
    written = f"100, {bad}, 0.90000000000000002"  # the row's cells as "%.17g" formats them
    with pytest.raises(ValueError, match=f"curve.csv: a CSV holds finite numbers only, got {written}$"):
        cli._write_csv(str(out), ["U_volts", "phase_rad", "vis_ratio"], rows)
    assert not out.exists()


# --------------------------------------------------------------------- tune


def test_tune_explicit_amplitude(config_path, tmp_path):
    out = tmp_path / "plan.json"
    code = main(
        ["tune", "--config", config_path, "--pol-amplitude", "-100", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["pol_amplitude_rad"] == -100.0
    assert doc["counter_amplitude_rad"] == 100.0
    assert doc["v1_m_per_s"] == pytest.approx(4.70e-3, rel=0.01)
    assert doc["v3_m_per_s"] == -doc["v1_m_per_s"]
    assert doc["residual_phase_rad"] == 0.0
    assert doc["visibility_ratio_at_null"] == pytest.approx(1.0, abs=1e-9)
    assert doc["sustain_time_s"] == pytest.approx(4.3e-3, abs=0.5e-3)


def strict_json(text):
    """json.loads that refuses the non-standard NaN and Infinity."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "pol, prism_n, unbounded",
    [("0", 1.46, "sustain_time_s"), ("-100", 1.0, "prism_dz_rate_m_per_s")],
)
def test_tune_writes_null_for_unbounded_values(pol, prism_n, unbounded, tmp_path):
    # mirrors at rest sustain forever; an n = 1 prism moves no mirror
    doc = {**base_config(), "prism_n": prism_n}
    config = write_config(tmp_path, doc)
    out = tmp_path / "plan.json"
    assert main(["tune", "--config", config, "--pol-amplitude", pol, "--out", str(out)]) == 0
    report = strict_json(out.read_text(encoding="utf-8"))
    assert report[unbounded] is None
    assert all(math.isfinite(v) for k, v in report.items() if k != unbounded)


def test_a_non_finite_report_value_exits_1(config_path, tmp_path, monkeypatch, capsys):
    # any future leak of a non-finite number into a JSON report fails
    # the command instead of writing NaN or Infinity
    tune = cli.tune_counterphase
    monkeypatch.setattr(
        cli,
        "tune_counterphase",
        lambda *a, **k: dataclasses.replace(tune(*a, **k), residual_phase=math.nan),
    )
    out = tmp_path / "plan.json"
    code = main(["tune", "--config", config_path, "--pol-amplitude", "-100", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_tune_from_voltage_uses_config_alpha(config_path, tmp_path):
    out = tmp_path / "plan.json"
    code = main(["tune", "--config", config_path, "--voltage", "400", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["pol_amplitude_rad"] == pytest.approx(-C_TRUE * 400.0**2, rel=1e-9)
    assert doc["counter_amplitude_rad"] == -doc["pol_amplitude_rad"]


def test_tune_dash_writes_the_plan_to_stdout(config_path, tmp_path, monkeypatch, capsys):
    plan = tmp_path / "plan.json"
    argv = ["tune", "--config", config_path, "--voltage", "420", "--out"]
    assert main([*argv, str(plan)]) == 0
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main([*argv, "-"]) == 0
    text = capsys.readouterr().out
    assert strict_json(text)["counter_amplitude_rad"] > 0.0
    assert text == plan.read_text(encoding="utf-8")
    assert not (tmp_path / "-").exists()


def test_tune_voltage_needs_alpha(tmp_path, capsys):
    doc = base_config()
    del doc["alpha_m3"]
    config = write_config(tmp_path, doc, "noalpha.json")
    out = tmp_path / "plan.json"
    code = main(["tune", "--config", config, "--voltage", "400", "--out", str(out)])
    assert code == 2
    assert "alpha_m3" in capsys.readouterr().err


# ----------------------------------------------------------------- residual


def test_residual_default_completes_cancellation(config_path, tmp_path):
    out = tmp_path / "scan.csv"
    code = main(
        [
            "residual",
            "--config",
            config_path,
            "--pol-amplitude",
            "-100",
            "--v2",
            "10",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == [
        "v1_amplitude_rad",
        "v2_amplitude_rad",
        "residual_phase_rad",
        "visibility_ratio",
    ]
    (row,) = rows
    assert float(row[0]) == 90.0
    assert float(row[1]) == 10.0
    assert float(row[2]) == pytest.approx(ROBERTS_PHASE, abs=1e-12)
    assert float(row[3]) == pytest.approx(ROBERTS_VIS, abs=1e-12)


def test_residual_explicit_grid(config_path, tmp_path):
    out = tmp_path / "grid.csv"
    code = main(
        [
            "residual",
            "--config",
            config_path,
            "--pol-amplitude",
            "-100",
            "--v1",
            "90,80",
            "--v2",
            "10,20",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert [(float(r[0]), float(r[1])) for r in rows] == [
        (90.0, 10.0),
        (90.0, 20.0),
        (80.0, 10.0),
        (80.0, 20.0),
    ]


def test_reused_parser_gives_the_fresh_process_output(config_path, capsys):
    # main() builds its parser once per process; a call that failed to
    # parse must leave nothing behind for the next call
    argv = ["residual", "--config", config_path, "--pol-amplitude", "-100",
            "--v2", "5,10,20", "--out", "-"]
    package_root = str(Path(af.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [sys.executable, "-m", "atomfringe.cli", *argv],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": package_root},
    ).stdout
    assert main(["residual", "--config", config_path, "--bogus", "1"]) == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == fresh
    assert cli._build_parser.cache_info().currsize == 1  # one parser served both


@pytest.mark.parametrize(
    "command, flags, flag, value",
    [
        ("residual", ["--pol-amplitude", "-100"], "--v2", "-5,10"),
        ("residual", ["--pol-amplitude", "-100", "--v2", "10"], "--v1", "-5,90"),
        ("simulate", [], "--voltages", "-100,100"),
        ("simulate", [], "--voltages", "-1e2"),
    ],
)
def test_negative_first_list_value_parses_as_two_tokens(
    command, flags, flag, value, config_path, tmp_path
):
    # argparse takes "-5,10" for an unknown flag unless told otherwise;
    # the two-token form must give the "=" form's output
    outputs = []
    for spelling in ([flag, value], [f"{flag}={value}"]):
        out = tmp_path / f"{len(spelling)}.csv"
        argv = [command, "--config", config_path, *flags, *spelling, "--out", str(out)]
        assert main(argv) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    _, rows = read_csv(tmp_path / "2.csv")
    assert len(rows) == (2 if value.count(",") else 1)


@pytest.mark.parametrize(
    "command, flags, flag, value",
    [
        ("residual", ["--pol-amplitude", "-100"], "--v2", ","),
        ("residual", ["--pol-amplitude", "-100"], "--v2", ""),
        ("residual", ["--pol-amplitude", "-100", "--v2", "10"], "--v1", ","),
        ("residual", ["--pol-amplitude", "-100", "--v2", "10"], "--v1", " "),
        ("simulate", [], "--voltages", ","),
        ("simulate", [], "--voltages", ""),
    ],
)
def test_empty_list_exits_2(command, flags, flag, value, config_path, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = main([command, "--config", config_path, *flags, flag, value, "--out", str(out)])
    assert code == 2
    assert_one_error_line(capsys, flag)
    assert not out.exists()


# -------------------------------------------------------------- diagnostics


@pytest.mark.parametrize(
    "argv",
    [
        ["tune", "--pol-amplitude", "-100"],
        ["residual", "--pol-amplitude", "-100", "--v2", "10"],
    ],
)
def test_averaging_section_is_honoured(argv, tmp_path, capsys):
    # five nodes cannot converge the velocity average, so the command
    # must fail the doubling check rather than fall back to the default
    # node count
    doc = base_config()
    doc["averaging"] = {"node_count": 5}
    config = write_config(tmp_path, doc, "coarse.json")
    out = tmp_path / "out"
    code = main([argv[0], "--config", config, *argv[1:], "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["constants", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "geometry": [,]\n}', encoding="utf-8")
    code = main(["constants", "--config", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "broken.json:2" in err
    assert "invalid JSON" in err


def test_config_missing_section_named(tmp_path, capsys):
    doc = base_config()
    del doc["beam"]
    config = write_config(tmp_path, doc, "nobeam.json")
    code = main(["constants", "--config", config])
    assert code == 2
    assert "'beam'" in capsys.readouterr().err


def test_config_missing_geometry_field_named(tmp_path, capsys):
    doc = base_config()
    del doc["geometry"]["L_m"]
    config = write_config(tmp_path, doc, "nol.json")
    code = main(["constants", "--config", config])
    assert code == 2
    err = capsys.readouterr().err
    assert "geometry" in err
    assert "L_m" in err


@pytest.mark.parametrize(
    "averaging",
    [
        {"node_count": 2},
        {"node_count": 1026},  # above the largest Gauss-Kronrod rule built
        {"node_count": 64.5},
        {"node_count": "257"},
        {"width_sigmas": 0.0},
        {"width_sigmas": -8.0},
        {"width_sigmas": "wide"},
    ],
)
def test_config_bad_averaging_exits_2(averaging, tmp_path, capsys):
    doc = base_config()
    doc["averaging"] = averaging
    config = write_config(tmp_path, doc, "averaging.json")
    out = tmp_path / "curve.csv"
    code = main(["simulate", "--config", config, "--voltages", "0,100", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "averaging" in err[0] and next(iter(averaging)) in err[0]


@pytest.mark.parametrize(
    "fit_opts",
    [
        {"include_sagnac": "false"},
        {"include_sagnac": 0},
        {"chi2_scaling": "no"},
        {"chi2_scaling": 1},
        {"max_iterations": 0},
        {"max_iterations": True},
        {"max_iterations": "200"},
        {"max_iterations": 20.5},
    ],
)
def test_config_bad_fit_options_exits_2(fit_opts, tmp_path, capsys):
    doc = base_config()
    doc["fit"] = fit_opts
    config = write_config(tmp_path, doc, "fit_opts.json")
    out = tmp_path / "curve.csv"
    code = main(["simulate", "--config", config, "--voltages", "0,100", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "'fit'" in err[0] and next(iter(fit_opts)) in err[0]


def set_path(doc, path, value):
    """Set the value at the key path (a tuple of keys or list indices)."""
    *parents, last = path
    for key in parents:
        doc = doc.setdefault(key, {}) if isinstance(doc, dict) else doc[key]
    doc[last] = value


def assert_one_error_line(capsys, *words):
    """The one stderr line, after checking that it names every word."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert all(word in err[0] for word in words)
    return err[0]


@pytest.mark.parametrize(
    "path, value",
    [
        (("rng_seed",), 2.7),
        (("rng_seed",), True),
        (("rng_seed",), -1),
        (("prism_n",), "1.5"),
        (("alpha_m3",), True),
        (("alpha_m3",), "1.1e-30"),
        (("beam", "u_m_per_s"), "1065.7"),
        (("geometry", "latitude_deg"), math.nan),
        # out of range: refused in the file's units (degrees), not the model's
        (("geometry", "latitude_deg"), 95),
        (("beam", "s_parallel"), 0.5),
        (("geometry", "arm_sign"), 0.5),
        pytest.param(("geometry", "L_m"), HUGE, id="L_m-huge"),
        pytest.param(("rng_seed",), HUGE, id="rng_seed-huge"),
    ],
)
def test_config_bad_number_exits_2(path, value, tmp_path, capsys):
    doc = base_config()
    set_path(doc, path, value)
    config = write_config(tmp_path, doc, "numbers.json")
    out = tmp_path / "curve.csv"
    code = main(["simulate", "--config", config, "--voltages", "0,100", "--out", str(out)])
    assert code == 2
    # the line names the key, its section and the value as written
    section = (f"section '{path[0]}': ",) if len(path) > 1 else ()
    assert_one_error_line(capsys, *section, f"{path[-1]} must be", f"got {value!r}")


@pytest.mark.parametrize(
    "key, value",
    [
        ("voltages_V", "123"),
        ("voltages_V", [100.0, True, 300.0]),
        ("vis_sigma", True),
        ("phase_sigma_base_rad", math.nan),
        ("rotation_jitter_rad_per_s", math.inf),
        pytest.param("phase_sigma_base_rad", HUGE, id="phase_sigma_base_rad-huge"),
    ],
)
def test_design_bad_number_exits_2(key, value, config_path, tmp_path, capsys):
    design = write_config(tmp_path, design_doc(**{key: value}), "design.json")
    out = tmp_path / "obs.csv"
    code = main(["synth", "--config", config_path, "--design", design, "--out", str(out)])
    assert code == 2
    assert_one_error_line(capsys, key)
    assert not out.exists()


@pytest.mark.parametrize(
    "target, path, value",
    [
        ("config", ("fit", "include_sagnak"), False),
        ("config", ("averaging", "nodes"), 5),
        ("config", ("rng_sed",), 3),
        ("config", ("geometry", "earth_rotation_rate"), 0.0),
        ("design", ("phase_sigma_base",), 0.05),
        ("config", ("averagin",), {"node_count": 5}),  # an unknown section
    ],
)
def test_unknown_key_exits_2(target, path, value, tmp_path, capsys):
    # a misspelt key must not fall back to the default it meant to change
    docs = {"config": base_config(), "design": design_doc()}
    set_path(docs[target], path, value)
    paths = {name: write_config(tmp_path, doc, f"{name}.json") for name, doc in docs.items()}
    out = tmp_path / "obs.csv"
    argv = ["synth", "--config", paths["config"], "--design", paths["design"]]
    assert main([*argv, "--out", str(out)]) == 2
    assert_one_error_line(capsys, f"{target}.json", f"unknown key '{path[-1]}'")
    assert not out.exists()


EVERY_OPTION = {
    "geometry": {**base_config()["geometry"], "arm_sign": 1, "earth_rotation_rate_rad_per_s": 7e-5},
    "prism_n": 1.5,
    "rng_seed": 4,
    "averaging": {"width_sigmas": 9.0, "node_count": 301},
    "fit": {"include_sagnac": False, "max_iterations": 50, "chi2_scaling": False},
}


def benchmark_config(s_parallel, alpha_m3, **extra):
    """The shape of the configs the benchmark writes: an integer arm_sign."""
    doc = {**base_config(), "beam": {"u_m_per_s": 1065.7, "s_parallel": s_parallel}}
    doc["geometry"] = {**doc["geometry"], "arm_sign": -1}
    return {**doc, "alpha_m3": alpha_m3, **extra}


@pytest.mark.parametrize(
    "doc, expected",
    [
        (base_config(), run_config()),
        (
            benchmark_config(S_TRUE, 1.2e-30, fit={"include_sagnac": True, "chi2_scaling": False}),
            dataclasses.replace(run_config(), alpha_m3=1.2e-30, chi2_scaling=False),
        ),
        (
            benchmark_config(9.5, 2e-30),
            dataclasses.replace(run_config(), alpha_m3=2e-30, beam=af.BeamModel(1065.7, 9.5)),
        ),
        (
            benchmark_config(9.5, None),  # a residual scan needs no polarizability
            dataclasses.replace(run_config(), alpha_m3=None, beam=af.BeamModel(1065.7, 9.5)),
        ),
        (
            {**base_config(), **EVERY_OPTION},
            cli.RunConfig(
                geometry=dataclasses.replace(GEO, earth_rotation_rate=7e-5),
                capacitor=af.CapacitorModel(geometry_factor_G=2.486e5, sign=1),
                beam=BEAM,
                alpha_m3=ALPHA_TRUE,
                prism=af.PrismGeometry(refractive_index_n=1.5),
                support=af.VelocitySupport(width_sigmas=9.0, node_count=301),
                include_sagnac=False,
                max_iterations=50,
                chi2_scaling=False,
                rng_seed=4,
            ),
        ),
    ],
)
def test_config_builds_the_documented_run(doc, expected, tmp_path):
    assert cli.load_config(write_config(tmp_path, doc)) == expected


BOUND_EDGES = [
    (("geometry", "latitude_deg"), -90),
    (("geometry", "latitude_deg"), 90),
    *[
        (path, value)
        for path in (
            ("geometry", "k_laser_per_m"),
            ("geometry", "L_m"),
            ("geometry", "geometry_factor_G_per_m"),
            ("beam", "u_m_per_s"),
            ("alpha_m3",),
            ("averaging", "width_sigmas"),
        )
        for value in (5e-324, sys.float_info.max)
    ],
    (("beam", "s_parallel"), math.nextafter(1.0, 2.0)),
    (("beam", "s_parallel"), sys.float_info.max),
    (("averaging", "node_count"), 3),
    (("averaging", "node_count"), 1025),
    (("prism_n",), 1),
    (("prism_n",), sys.float_info.max),
    (("geometry", "arm_sign"), -1),
    (("geometry", "arm_sign"), 1),
    (("geometry", "earth_rotation_rate_rad_per_s"), 0),
    (("geometry", "earth_rotation_rate_rad_per_s"), sys.float_info.max),
    (("fit", "max_iterations"), 1),
]


@pytest.mark.parametrize(
    "path, value", [pytest.param(p, v, id=f"{p[-1]}={v!r}") for p, v in BOUND_EDGES]
)
def test_config_builds_at_every_bound_edge(path, value, tmp_path):
    # load_config builds its run without translating constructor errors:
    # every constructor check is also a SCHEMA bound, so a value the
    # schema lets through must build, and a check stricter than its row
    # would fail here instead of turning a parse problem into exit 1
    doc = base_config()
    set_path(doc, path, value)
    assert isinstance(cli.load_config(write_config(tmp_path, doc)), cli.RunConfig)


@pytest.mark.parametrize(
    "doc, expected",
    [
        (design_doc(), cli.SyntheticDesign((100.0, 200.0, 300.0, 400.0), 0.05, 0.0, 0.005)),
        (
            design_doc(voltages_V=[1, 2.5], phase_sigma_per_rad=0.02, rotation_jitter_rad_per_s=1e-5),
            cli.SyntheticDesign((1.0, 2.5), 0.05, 0.02, 0.005, 1e-5),
        ),
    ],
)
def test_design_builds_the_documented_design(doc, expected, tmp_path):
    assert cli.load_design(write_config(tmp_path, doc)) == expected


def test_importing_the_package_leaves_the_cli_unloaded():
    # the schema table lives in the CLI; a library import does not pay for it
    package_root = str(Path(af.__file__).resolve().parents[1])
    probe = "import sys, atomfringe; sys.exit('atomfringe.cli' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": package_root}
    subprocess.run([sys.executable, "-c", probe], check=True, env=env)


def test_readme_documents_every_schema_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    top = {"config": "top level", "design": "design file"}
    for name, rows in cli.SCHEMA.items():
        for section, key, *_ in rows:
            assert f"| {section or top[name]} | `{key}` |" in readme, (name, section, key)


def test_readme_library_example_runs():
    # the first python block of README.md (Library), run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library"):]
    start = library.index("```python\n") + len("```python\n")
    code = library[start:library.index("```", start)]
    assert "import atomfringe as af" in code
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["plan"].residual_phase == 0.0
    assert len(namespace["phases"]) == 3
    assert namespace["result"].converged


OVER_THE_BOUND = ",".join(["100"] * (cli.MAX_SWEEP_POINTS + 1))


@pytest.mark.parametrize(
    "command, flags, flag",
    [
        ("simulate", ["--voltages", "nan,100"], "--voltages"),
        ("simulate", ["--points", "-1"], "--points"),
        ("simulate", ["--points", "2.7"], "--points"),
        ("simulate", ["--u-max", "nan"], "--u-max"),
        ("tune", ["--pol-amplitude", "nan"], "--pol-amplitude"),
        ("tune", ["--voltage", "inf"], "--voltage"),
        ("residual", ["--pol-amplitude", "-100", "--v2", "nan"], "--v2"),
        ("residual", ["--pol-amplitude", "-100", "--v2", "10", "--v1", "inf"], "--v1"),
        ("synth", ["--design", "{design}", "--seed", "-1"], "--seed"),
        pytest.param("simulate", ["--points", str(HUGE)], "--points", id="points-huge"),
        pytest.param("simulate", ["--points", str(2**63)], "--points", id="points-2**63"),
        pytest.param(
            "simulate", ["--points", str(cli.MAX_SWEEP_POINTS + 1)], "--points", id="points-over-bound"
        ),
        pytest.param("synth", ["--design", "{design}", "--seed", str(HUGE)], "--seed", id="seed-huge"),
        pytest.param(
            "simulate", ["--voltages", OVER_THE_BOUND], "--voltages", id="voltages-over-bound"
        ),
        pytest.param(
            "residual", ["--pol-amplitude", "-100", "--v2", OVER_THE_BOUND], "--v2", id="v2-over-bound"
        ),
        # 101 x 100 pairs, each list under the bound
        pytest.param(
            "residual",
            ["--pol-amplitude", "-100", "--v1", ",".join(["90"] * 101), "--v2", ",".join(["10"] * 100)],
            "--v1 x --v2",
            id="v1-grid-over-bound",
        ),
    ],
)
def test_flag_bad_number_exits_2(command, flags, flag, config_path, tmp_path, capsys):
    design = write_config(tmp_path, design_doc(), "design.json")
    out = tmp_path / "out.csv"
    flags = [f.format(design=design) for f in flags]
    code = main([command, "--config", config_path, *flags, "--out", str(out)])
    assert code == 2
    assert_one_error_line(capsys, flag)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param('{"rng_seed": 1' + "0" * 5000 + "}", id="integer-of-5001-digits"),
        pytest.param('{"prism_n": "\xe9"}', id="latin-1-byte"),
    ],
)
def test_unreadable_config_exits_2(text, tmp_path, capsys):
    # json raises a plain ValueError for these, not JSONDecodeError
    config = tmp_path / "unreadable.json"
    config.write_bytes(text.encode("latin-1"))
    assert main(["constants", "--config", str(config)]) == 2
    assert_one_error_line(capsys, str(config), "invalid JSON")


def test_narrow_window_exits_1(tmp_path, capsys):
    # a 4-sigma window leaves 6e-5 of the beam outside, far above the
    # quadrature tolerance, so the average refuses instead of reporting
    # that mass as lost visibility
    doc = base_config()
    doc["averaging"] = {"width_sigmas": 4}
    config = write_config(tmp_path, doc, "narrow.json")
    out = tmp_path / "curve.csv"
    code = main(["simulate", "--config", config, "--voltages", "0,100", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "width_sigmas" in err[0]


def test_obs_bad_header_exits_2(config_path, tmp_path, capsys):
    obs = tmp_path / "bad.csv"
    obs.write_text("volts,phase\n1,2\n", encoding="utf-8")
    code = main(["fit", "--config", config_path, "--obs", str(obs), "--out", "-"])
    assert code == 2
    assert "expected header" in capsys.readouterr().err


def test_obs_bad_cell_names_line_and_field(config_path, tmp_path, capsys):
    obs = tmp_path / "bad.csv"
    header = ",".join(OBSERVATION_HEADER)
    obs.write_text(
        f"{header}\n100,-1.0,0.05,0.9,0.005\n200,oops,0.05,0.7,0.005\n",
        encoding="utf-8",
    )
    code = main(["fit", "--config", config_path, "--obs", str(obs), "--out", "-"])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.csv:3" in err
    assert "phase_rad" in err
    assert "oops" in err


def test_obs_not_utf8_exits_2(config_path, tmp_path, capsys):
    obs = tmp_path / "latin1.csv"
    header = ",".join(OBSERVATION_HEADER)
    obs.write_bytes(f"{header}\n100,-1.0,0.05,0.9,0.005\n200,\xe9,0.05,0.7,0.005\n".encode("latin-1"))
    code = main(["fit", "--config", config_path, "--obs", str(obs), "--out", "-"])
    assert code == 2
    assert_one_error_line(capsys, str(obs), "invalid CSV", "0xe9")


def test_obs_cell_over_the_csv_field_limit_exits_2(config_path, tmp_path, capsys):
    # the csv module refuses a cell over 131,072 characters with csv.Error
    obs = tmp_path / "long.csv"
    header = ",".join(OBSERVATION_HEADER)
    long_sigma = "0." + "0" * 199_998 + "5"  # 200,001 characters
    obs.write_text(
        f"{header}\n100,-1.0,0.05,0.9,0.005\n200,-4.0,0.05,0.7,{long_sigma}\n"
        "300,-9.0,0.05,0.5,0.005\n",
        encoding="utf-8",
    )
    report = tmp_path / "r.json"
    code = main(["fit", "--config", config_path, "--obs", str(obs), "--out", str(report)])
    assert code == 2
    assert_one_error_line(capsys, f"{obs}:3: invalid CSV", "field limit")
    assert not report.exists()


def test_fit_of_a_doubled_file_is_the_fit_at_sigma_over_sqrt2(tmp_path):
    # every row written twice is the same chi^2 function as every sigma
    # divided by sqrt(2), so both files fit alike; the bounds (1e-6 of a
    # sigma for the parameters and the sigmas, 1e-12 relative for chi^2)
    # were fixed before the first run
    config = write_config(tmp_path, {**base_config(), "fit": {"chi2_scaling": False}})
    design = write_config(tmp_path, design_doc(voltages_V=list(VOLTS)), "design.json")
    obs = tmp_path / "obs.csv"
    argv = ["synth", "--config", config, "--design", design, "--seed", "7"]
    assert main([*argv, "--out", str(obs)]) == 0
    text = obs.read_text(encoding="utf-8")
    doubled = tmp_path / "doubled.csv"
    doubled.write_text(text + "\n" + text.split("\n", 1)[1], encoding="utf-8")  # a blank line between
    rows = read_observations(str(obs))
    assert read_observations(str(doubled)) == rows + rows
    halved = tmp_path / "halved.csv"
    root2 = math.sqrt(2.0)
    write_observations(
        str(halved),
        [dataclasses.replace(o, phase_sigma=o.phase_sigma / root2, vis_sigma=o.vis_sigma / root2) for o in rows],
    )
    reports = []
    for path in (doubled, halved):
        out = tmp_path / f"{path.stem}.json"
        assert main(["fit", "--config", config, "--obs", str(path), "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text(encoding="utf-8")))
    twice, half = reports
    assert twice["converged"] is half["converged"] is True
    assert (twice["n_observations"], half["n_observations"]) == (30, 15)
    for key in ("s_parallel", "coeff_per_U2"):
        sigma = half[f"sigma_{key}"]
        assert abs(twice[key] - half[key]) <= 1e-6 * sigma, key
        assert abs(twice[f"sigma_{key}"] - sigma) <= 1e-6 * sigma, key
    assert twice["chi_square"] == pytest.approx(half["chi_square"], rel=1e-12)
    # a repeated voltage is one shared row of the average: equal residuals
    assert twice["residuals"][:15] == twice["residuals"][15:]
    assert [r["U_volts"] for r in twice["residuals"]] == [r["U_volts"] for r in half["residuals"]] * 2


@pytest.mark.parametrize("what", ["design", "observations"])
def test_more_entries_than_the_sweep_bound_exit_2(what, config_path, tmp_path, monkeypatch, capsys):
    # one line naming the file (and the observation file's first line past
    # the bound), refused before any model pass, and no output file
    monkeypatch.setattr(cli, "generate_synthetic", None)
    monkeypatch.setattr(cli, "ObservationSet", None)
    volts = [float(v) for v in range(1, cli.MAX_SWEEP_POINTS + 2)]
    out = tmp_path / "out"
    if what == "design":
        path = write_config(tmp_path, design_doc(voltages_V=volts), "big.json")
        argv = ["synth", "--config", config_path, "--design", path]
        line = f"{path}: design voltages_V holds more than 10000 entries"
    else:
        path = tmp_path / "big.csv"
        write_observations(str(path), [af.Observation(v, -1.0, 0.05, 0.9, 0.005) for v in volts])
        argv = ["fit", "--config", config_path, "--obs", str(path)]
        line = f"{path}:10002: more than 10000 observations"
    assert main([*argv, "--out", str(out)]) == 2
    assert_one_error_line(capsys, line)
    assert not out.exists()


def test_obs_past_the_bound_is_refused_before_a_later_bad_byte(config_path, tmp_path, capsys):
    # the rows are decoded as they are read, so the first row past the
    # bound is refused before the byte 0xe9 far beyond it is reached
    path = tmp_path / "big.csv"
    rows = "".join(f"{v},-1,0.05,0.9,0.005\n" for v in range(1, 11_002))
    path.write_bytes(f"{','.join(OBSERVATION_HEADER)}\n{rows}11002,\xe9,0.05,0.9,0.005\n".encode("latin-1"))
    assert main(["fit", "--config", config_path, "--obs", str(path), "--out", "-"]) == 2
    assert_one_error_line(capsys, f"{path}:10002: more than 10000 observations")


def test_the_sweep_bound_itself_is_accepted(tmp_path):
    # the edge: exactly MAX_SWEEP_POINTS voltages, and rows, are taken
    volts = [float(v) for v in range(1, cli.MAX_SWEEP_POINTS + 1)]
    assert len(cli.SyntheticDesign(voltages=volts).voltages) == cli.MAX_SWEEP_POINTS
    path = tmp_path / "full.csv"
    write_observations(str(path), [af.Observation(v, -1.0, 0.05, 0.9, 0.005) for v in volts])
    assert len(read_observations(str(path))) == cli.MAX_SWEEP_POINTS


def test_obs_short_row_exits_2(config_path, tmp_path, capsys):
    obs = tmp_path / "short.csv"
    header = ",".join(OBSERVATION_HEADER)
    obs.write_text(f"{header}\n100,-1.0,0.05\n", encoding="utf-8")
    code = main(["fit", "--config", config_path, "--obs", str(obs), "--out", "-"])
    assert code == 2
    assert "short.csv:2" in capsys.readouterr().err


def test_obs_blank_lines_are_skipped(tmp_path):
    header = ",".join(OBSERVATION_HEADER)
    rows = ["100,-1.0,0.05,0.9,0.005", "200,-4.0,0.05,0.7,0.005", "300,-9.0,0.05,0.5,0.005"]
    packed, spaced = tmp_path / "packed.csv", tmp_path / "spaced.csv"
    packed.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    spaced.write_text("\n".join([header, "", rows[0], "", "", *rows[1:], ""]) + "\n", encoding="utf-8")
    assert len(read_observations(str(spaced))) == 3
    assert read_observations(str(spaced)) == read_observations(str(packed))
    # a blank line still counts in the line number of an error
    spaced.write_text(f"{header}\n\n{rows[0]}\n100,oops,0.05,0.9,0.005\n", encoding="utf-8")
    with pytest.raises(cli.ParseError, match="spaced.csv:4: field 'phase_rad'"):
        read_observations(str(spaced))


@pytest.mark.parametrize(
    "field, cell",
    [("phase_rad", "nan"), ("phase_rad", "inf"), ("U_volts", "nan"), ("vis_sigma", "inf")],
)
def test_obs_non_finite_cell_exits_2(field, cell, config_path, tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    rows = [
        ["100", "-1.0", "0.05", "0.9", "0.005"],
        ["200", "-4.0", "0.05", "0.7", "0.005"],
        ["300", "-9.0", "0.05", "0.5", "0.005"],
    ]
    rows[1][OBSERVATION_HEADER.index(field)] = cell
    lines = [",".join(row) for row in [OBSERVATION_HEADER, *rows]]
    obs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["fit", "--config", config_path, "--obs", str(obs), "--out", "-"])
    assert code == 2
    assert_one_error_line(capsys, "obs.csv:3", field)


ROW_FAULTS = {
    "not-a-number": (1, "oops"),
    "non-finite": (0, "inf"),
    "short": (None, None),
    "vis-out-of-range": (3, "1.5"),
    "zero-sigma": (2, "0"),
}


@pytest.mark.parametrize(
    "first, later",
    [(a, b) for a in ROW_FAULTS for b in ROW_FAULTS if a != b],
)
def test_obs_first_bad_row_is_reported(first, later, tmp_path):
    # whatever the two faults are, the one earlier in the file is named
    rows = [
        ["100", "-1.0", "0.05", "0.9", "0.005"],
        ["200", "-4.0", "0.05", "0.7", "0.005"],
        ["300", "-9.0", "0.05", "0.5", "0.005"],
        ["400", "-16.0", "0.05", "0.3", "0.005"],
    ]
    for index, fault in ((1, first), (3, later)):
        field, cell = ROW_FAULTS[fault]
        if field is None:
            rows[index].pop()
        else:
            rows[index][field] = cell
    obs = tmp_path / "obs.csv"
    lines = [",".join(row) for row in [OBSERVATION_HEADER, *rows]]
    obs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(cli.ParseError, match=r"obs\.csv:3: "):
        read_observations(str(obs))


# the exit contract under malformed numbers: every command exits 0 with
# finite numbers, or exits 1 or 2 with exactly one line on stderr
MALFORMED = (math.nan, math.inf, -math.inf, True, "1.5", "123", 2.7, -1, 0, 1e160, -1e160, 1e-200)


UNKNOWN = "unknown_key"  # no SCHEMA row has it


def schema_places(name):
    """A place per SCHEMA row of the file name, the second entry of each
    list, and the key UNKNOWN in each section."""
    places, sections = [], {}
    for section, key, kind, *_ in cli.SCHEMA[name]:
        path = (key,) if section is None else (section, key)
        places.append((name, path))
        if kind == "number list":
            places.append((name, (*path, 1)))
        sections[path[:-1]] = None
    return tuple(places) + tuple((name, (*section, UNKNOWN)) for section in sections)


CONFIG_PLACES = schema_places("config")
# each command's fixed flags and its own places for a malformed value
LIST_FLAGS = ("--voltages", "--v1", "--v2")  # these get "0,<value>"
COMMANDS = {
    "constants": ({}, ()),
    "simulate": (
        {"--voltages": "0,100,200"},
        (("flag", "--voltages"), ("flag", "--points"), ("flag", "--u-max")),
    ),
    "synth": ({"--design": "{design}"}, schema_places("design")),
    "fit": ({"--obs": "{obs}"}, tuple(("obs", field) for field in OBSERVATION_HEADER)),
    "tune": ({"--pol-amplitude": "-100"}, ()),
    "residual": (
        {"--pol-amplitude": "-100", "--v2": "5,10"},
        (("flag", "--v1"), ("flag", "--v2")),
    ),
}


def numbers_in(value):
    if isinstance(value, dict):
        return [x for v in value.values() for x in numbers_in(v)]
    if isinstance(value, list):
        return [x for v in value for x in numbers_in(v)]
    return [value] if isinstance(value, float) else []


@settings(max_examples=200)
@given(data=st.data())
def test_every_command_keeps_the_exit_contract(data, tmp_path_factory):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    flags, own_places = COMMANDS[command]
    target, where = data.draw(st.sampled_from(CONFIG_PLACES + own_places))
    value = data.draw(st.sampled_from(MALFORMED))
    tmp = tmp_path_factory.mktemp("contract")
    docs = {"config": base_config(), "design": design_doc()}
    flags = dict(flags)
    rows = [
        [str(v), str(-C_TRUE * v * v), "0.05", str(1.0 - 1e-6 * v), "0.005"]
        for v in (100.0, 200.0, 300.0, 400.0)
    ]
    if target in docs:
        set_path(docs[target], where, value)
    elif target == "obs":
        rows[1][OBSERVATION_HEADER.index(where)] = str(value)
    else:
        flags[where] = f"0,{value}" if where in LIST_FLAGS else str(value)
    paths = {name: write_config(tmp, doc, f"{name}.json") for name, doc in docs.items()}
    paths["obs"] = str(tmp / "obs.csv")
    lines = [",".join(row) for row in [OBSERVATION_HEADER, *rows]]
    (tmp / "obs.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp / "out"
    argv = [command, "--config", paths["config"], "--out", str(out)]
    argv += [x.format(**paths) for pair in flags.items() for x in pair]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if target in docs and where[-1] == UNKNOWN:  # whatever its value
        assert code == 2 and UNKNOWN in lines[0]
    if code == 0:
        assert lines == []
        text = out.read_text(encoding="utf-8")
        if command in ("fit", "tune"):
            found = numbers_in(json.loads(text))
        else:
            table = [row.split(",") for row in text.splitlines()[1:]]
            if command == "constants":  # quantity,value
                table = [row[1:] for row in table]
            found = [float(cell) for row in table for cell in row]
        assert all(math.isfinite(x) for x in found)
    else:
        assert code in (1, 2)
        assert len(lines) == 1 and lines[0].startswith("error:")


# ------------------------------------------------- out-of-range finite numbers


def tiny_voltages_file(tmp_path):
    # every U^2 underflows to 0, so no point constrains coeff_per_U2
    obs = tmp_path / "tiny.csv"
    rows = [f"{v},0.0,0.05,1.0,0.005" for v in ("0", "1e-200", "2e-200")]
    obs.write_text("\n".join([",".join(OBSERVATION_HEADER), *rows]) + "\n", encoding="utf-8")
    return str(obs)


def small_sigma_file(sigma):
    """A writer of the canonical noiseless design with every phase sigma
    sigma rad: below about 1e-155 chi^2's own sums leave the float range."""

    def write(tmp_path):
        obs = tmp_path / "small_sigma.csv"
        rows = [dataclasses.replace(o, phase_sigma=sigma) for o in zero_noise_observations()]
        write_observations(str(obs), rows)
        return str(obs)

    return write


RANGE = "a number went out of the float range: "
# (config override, argv after --config, output name, the error line's
# start or None for exit 0)
OUT_OF_RANGE = {
    "constants-L-1e160": ((("geometry", "L_m"), 1e160), ["constants"], "out.csv", RANGE),
    "tune-voltage-1e160": (None, ["tune", "--voltage", "1e160"], "out.json", RANGE),
    "simulate-voltage-1e160": (
        None, ["simulate", "--voltages", "0,1e160"], "out.csv", RANGE + "overflow encountered in square"
    ),
    "simulate-width-1e160": (
        (("averaging", "width_sigmas"), 1e160), ["simulate", "--voltages", "0,100"], "out.csv", RANGE
    ),
    "residual-1e308": (None, ["residual", "--pol-amplitude", "-1e308", "--v2", "1e308"], "out.csv", RANGE),
    "constants-prism-1e160": (
        (("prism_n",), 1e160), ["constants"], "out.csv",
        "{out}: a CSV holds finite numbers only, got prism_dx_over_dz, nan",
    ),
    "fit-U2-underflows": (
        None, ["fit", "--obs", tiny_voltages_file], "out.json",
        "no observation has a nonzero U^2, so coeff_per_U2 does not affect the model",
    ),
    "fit-sigma-1e-150": (None, ["fit", "--obs", small_sigma_file(1e-150)], "out.json", None),
    "fit-sigma-1e-160": (None, ["fit", "--obs", small_sigma_file(1e-160)], "out.json", None),
    "fit-sigma-1e-300": (None, ["fit", "--obs", small_sigma_file(1e-300)], "out.json", None),
    "fit-sigma-5e-324": (None, ["fit", "--obs", small_sigma_file(5e-324)], "out.json", None),
}


# default warning filters, so that main's own filter is what the test sees
@pytest.mark.filterwarnings("default::RuntimeWarning")
@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_out_of_range_numbers_keep_the_exit_contract(case, tmp_path, capsys):
    override, argv, name, line = OUT_OF_RANGE[case]
    doc = base_config()
    if override is not None:
        set_path(doc, *override)
    out = tmp_path / name
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    code = main([argv[0], "--config", write_config(tmp_path, doc), *argv[1:], "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    if line is not None:
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: " + line.format(out=out))
        assert not out.exists()
    else:
        assert code == 0 and err == ""
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["converged"] is True
        assert all(math.isfinite(x) for x in numbers_in(report))


@pytest.mark.parametrize(
    "argv, name",
    [
        pytest.param(["constants"], "out.csv", id="constants-csv"),
        pytest.param(["simulate", "--voltages", "0,100"], "out.csv", id="simulate-csv"),
        pytest.param(["tune", "--pol-amplitude", "-100"], "out.json", id="tune-json"),
    ],
)
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_an_unwritable_out_exits_2_with_one_line(argv, name, where, tmp_path, capsys):
    out = tmp_path / "missing" / name if where == "missing-directory" else tmp_path
    config = write_config(tmp_path, base_config())
    assert main([argv[0], "--config", config, *argv[1:], "--out", str(out)]) == 2
    assert_one_error_line(capsys, f"{out}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["alt.json"]


def test_a_full_stdout_exits_2_with_one_line(config_path, monkeypatch, capsys):
    class Full(io.StringIO):
        def flush(self):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["tune", "--config", config_path, "--pol-amplitude", "-100", "--out", "-"]) == 2
    assert_one_error_line(capsys, "-: No space left on device")


def test_a_chi_square_beyond_the_float_range_is_written_as_null(tmp_path, capsys):
    # misfits of 0.01 rad against phase sigmas of 1e-300 rad: chi^2 about 1e596
    obs = tmp_path / "tiny_sigma.csv"
    rows = [
        dataclasses.replace(o, phase_meas=o.phase_meas + (-1) ** j * 0.01, phase_sigma=1e-300)
        for j, o in enumerate(zero_noise_observations())
    ]
    write_observations(str(obs), rows)
    out = tmp_path / "fit.json"
    argv = ["fit", "--config", write_config(tmp_path, base_config()), "--obs", str(obs)]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = strict_json(out.read_text(encoding="utf-8"))
    assert report["converged"] is True
    assert report["chi_square"] is None and report["reduced_chi_square"] is None
    assert all(math.isfinite(x) for x in numbers_in(report))


def test_narrow_beam_roberts_scan_exits_0_with_one_finite_row(tmp_path, capsys):
    # v2 of 1e7 rad at speed ratio 1e8: the slopes predict the branch
    doc = base_config()
    doc["beam"]["s_parallel"] = 1e8
    out = tmp_path / "narrow.csv"
    argv = ["residual", "--config", write_config(tmp_path, doc), "--pol-amplitude", "-1", "--v2", "1e7"]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out)
    assert len(rows) == 1 and all(math.isfinite(float(cell)) for cell in rows[0])


def test_midpoints_over_the_cap_exit_1_with_one_line(tmp_path, capsys, monkeypatch):
    # the deep null at S = 8 needs 21 bisection midpoints of 257 nodes
    monkeypatch.setattr(fringe, "_MAX_MIDPOINT_VALUES", 20 * 257)
    doc = base_config()
    doc["beam"]["s_parallel"] = 8.0
    out = tmp_path / "null.csv"
    argv = ["residual", "--config", write_config(tmp_path, doc), "--pol-amplitude", "-118.86"]
    assert main([*argv, "--v1", "0", "--v2", "42.45", "--out", str(out)]) == 1
    line = assert_one_error_line(capsys, "phase continuation too long", "21 x 257")
    assert "unwrap" not in line  # no subcommand can set the library's unwrap keyword
    assert not out.exists()


def test_out_of_memory_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(path):
        raise MemoryError

    monkeypatch.setattr(cli, "read_observations", exhausted)
    obs = tmp_path / "obs.csv"
    write_observations(str(obs), zero_noise_observations())
    out = tmp_path / "fit.json"
    code = main(["fit", "--config", write_config(tmp_path, base_config()), "--obs", str(obs), "--out", str(out)])
    assert code == 1
    assert_one_error_line(capsys, "out of memory")
    assert not out.exists()


# ----------------------------------------- refusals no other test executes


@pytest.mark.parametrize(
    "text, words",
    [
        ("[1, 2]", "top level must be a JSON object"),
        ('{"geometry": 5}', "section 'geometry' must be a JSON object"),
    ],
)
def test_config_that_is_not_an_object_exits_2(text, words, tmp_path, capsys):
    config = tmp_path / "shape.json"
    config.write_text(text, encoding="utf-8")
    assert main(["constants", "--config", str(config)]) == 2
    assert_one_error_line(capsys, str(config), words)


@pytest.mark.parametrize("content, words", [(None, "No such file"), ("", ":1: empty file")])
def test_missing_or_empty_observation_file_exits_2(content, words, config_path, tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    if content is not None:
        obs.write_text(content, encoding="utf-8")
    report = tmp_path / "r.json"
    assert main(["fit", "--config", config_path, "--obs", str(obs), "--out", str(report)]) == 2
    assert_one_error_line(capsys, str(obs), words)
    assert not report.exists()


@pytest.mark.parametrize(
    "name", ["phase_sigma_base", "phase_sigma_per_rad", "vis_sigma", "rotation_jitter"]
)
def test_design_built_from_python_refuses_a_negative_sigma(name):
    with pytest.raises(ValueError, match=f"{name} must be non-negative"):
        cli.SyntheticDesign(voltages=(100.0,), **{name: -0.01})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "name", ["phase_sigma_base", "phase_sigma_per_rad", "vis_sigma", "rotation_jitter"]
)
def test_design_built_from_python_refuses_a_non_finite_sigma(name, bad):
    # a NaN base used to build, and synth then wrote a noiseless set with
    # every recorded phase sigma 1
    with pytest.raises(ValueError, match=f"^{name} must be non-negative and finite, got {bad}$"):
        cli.SyntheticDesign(voltages=(100.0, 200.0, 300.0), **{name: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_design_built_from_python_refuses_a_non_finite_voltage(bad):
    # it used to fail later, in the velocity average's check of its factors
    with pytest.raises(ValueError, match=f"^design voltages must be finite, got {bad}$"):
        cli.SyntheticDesign(voltages=(100.0, bad, 300.0))
