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
from atomfringe import cli
from atomfringe.cli import OBSERVATION_HEADER, main, read_observations, write_observations
from _support import ALPHA_TRUE, BEAM, C_TRUE, GEO, S_TRUE, run_config

LATITUDE_DEG = 43.0 + 33.0 / 60.0 + 37.0 / 3600.0

ROBERTS_PHASE = 0.012081309880924184
ROBERTS_VIS = 0.642918882718436


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


def test_synth_jittered_file_is_rebuilt_by_hand(config_path, tmp_path):
    # the per-point path: for each voltage draw the rotation jitter, then
    # the phase noise, then the visibility noise, from one seeded stream,
    # with one model curve per point at the jittered rotation amplitude
    doc = design_doc(phase_sigma_per_rad=0.01, rotation_jitter_rad_per_s=2e-5)
    design = write_config(tmp_path, doc, "jitter.json")
    out = tmp_path / "obs.csv"
    argv = ["synth", "--config", config_path, "--design", design, "--seed", "7"]
    assert main([*argv, "--out", str(out)]) == 0

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
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert all(word in err[0] for word in words)


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
                width_sigmas=9.0,
                node_count=301,
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
    ],
)
def test_flag_bad_number_exits_2(command, flags, flag, config_path, tmp_path, capsys):
    design = write_config(tmp_path, design_doc(), "design.json")
    out = tmp_path / "out.csv"
    flags = [f.format(design=design) for f in flags]
    code = main([command, "--config", config_path, *flags, "--out", str(out)])
    assert code == 2
    assert_one_error_line(capsys, flag)


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


def test_obs_short_row_exits_2(config_path, tmp_path, capsys):
    obs = tmp_path / "short.csv"
    header = ",".join(OBSERVATION_HEADER)
    obs.write_text(f"{header}\n100,-1.0,0.05\n", encoding="utf-8")
    code = main(["fit", "--config", config_path, "--obs", str(obs), "--out", "-"])
    assert code == 2
    assert "short.csv:2" in capsys.readouterr().err


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


# the exit contract under malformed numbers: every command exits 0 with
# finite numbers, or exits 1 or 2 with exactly one line on stderr
MALFORMED = (math.nan, math.inf, -math.inf, True, "1.5", "123", 2.7, -1, 0)


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
