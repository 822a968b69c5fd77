"""The three benchmark workloads: inputs from a seed, one operation, its checks.

Each workload is a closed loop: one caller in one process runs the next
operation only after the previous one returned.  ``inputs`` yields the
same sequence for the same seed however many operations a run gets
through; ``prepare`` writes an operation's input files and removes the
previous operation's output, outside the timed region; ``run`` is the
timed call into atomfringe's public functions; ``check`` validates
``run``'s return value and the files it wrote, and returns an Outcome
whose ``digest`` is compared with the values recorded for the default
seed.

Input ranges stay where the default 257 Gauss-Legendre nodes converge:
QuadratureConvergenceError there is the package's documented
diagnostic, not traffic, and any operation that raises counts as
failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import atomfringe as af
from atomfringe import cli

GEOMETRY_CONFIG = {
    "k_laser_per_m": 9.364e6,
    "L_m": 0.605,
    "latitude_deg": 43.0 + 33.0 / 60.0 + 37.0 / 3600.0,
    "geometry_factor_G_per_m": 2.486e5,
    "arm_sign": -1,
}
U_MEAN = 1065.7
S_TRUE = 7.67
C_TRUE = 1.3880e-4  # rad/V^2; puts the top canonical voltage at 25 rad
GEOMETRY, CAPACITOR = af.geometry_from_config(GEOMETRY_CONFIG)
SIMULATE_U_MAX = 400.0  # the simulate subcommand's default sweep end, volts
SIMULATE_POINTS = 17  # and its default point count
RESIDUAL_POINTS = 8
MISTUNE = tuple(np.linspace(-0.25, 0.25, 21))


class CheckFailed(Exception):
    """An operation's output broke the benchmark's checks."""


@dataclass
class Outcome:
    points: int = 1  # units of work the operation produced
    in_3sigma: bool | None = None  # recovery only: both fit parameters within 3 sigma
    digest: dict = field(default_factory=dict)  # values compared against the recorded ones


def _config(s_parallel: float, alpha_m3: float, **extra) -> dict:
    return {
        "geometry": GEOMETRY_CONFIG,
        "beam": {"u_m_per_s": U_MEAN, "s_parallel": s_parallel},
        "alpha_m3": alpha_m3,
        **extra,
    }


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def _unlink(*paths: Path) -> None:
    """Remove the previous operation's output, so a call that writes nothing fails its check."""
    for path in paths:
        path.unlink(missing_ok=True)


def _run_cli(argv) -> None:
    """One in-process CLI call; a nonzero exit is a failed operation."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise CheckFailed(f"atomfringe {argv[0]} exited {code}: {err.getvalue().strip()}")


def _read_csv(path: Path, header: list[str], rows: int) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    if table[0] != header:
        raise CheckFailed(f"{path.name}: header {table[0]}")
    if len(table) - 1 != rows:
        raise CheckFailed(f"{path.name}: {len(table) - 1} rows, expected {rows}")
    data = np.array(table[1:], dtype=float)
    _require_finite(path.name, data)
    return data


def _require_finite(what, values) -> None:
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise CheckFailed(f"{what}: non-finite value")


def _require_visibility(what, ratios, top: float = 1.0 + 10.0 * af.QUADRATURE_TOL) -> None:
    ratios = np.asarray(ratios)
    if np.any(ratios < 0.0) or np.any(ratios > top):
        raise CheckFailed(f"{what}: visibility ratio outside [0, {top!r}]")


class Recovery:
    """synth then fit through the CLI on the canonical 15-voltage design."""

    name = "recovery"
    layers = ("cli", "fitkit", "fringe", "beam")

    def setup(self, workdir: Path) -> None:
        self.config = workdir / "recovery_config.json"
        self.design = workdir / "recovery_design.json"
        self.obs = workdir / "recovery_obs.csv"
        self.report = workdir / "recovery_report.json"
        alpha = af.alpha_from_coefficient(C_TRUE, CAPACITOR.geometry_factor_G, U_MEAN)
        _write_json(self.config, _config(S_TRUE, alpha, fit={"include_sagnac": True, "chi2_scaling": False}))
        volts = np.linspace(0.0, math.sqrt(25.0 / C_TRUE), 16)[1:]
        _write_json(self.design, {
            "voltages_V": [float(v) for v in volts],
            "phase_sigma_base_rad": 0.05,
            "phase_sigma_per_rad": 0.0,
            "vis_sigma": 0.005,
            "rotation_jitter_rad_per_s": 0.0,
        })

    def inputs(self, rng):
        while True:
            yield int(rng.integers(0, 2**31 - 1))

    def prepare(self, synth_seed):
        _unlink(self.obs, self.report)
        return synth_seed

    def run(self, synth_seed) -> None:
        _run_cli(["synth", "--config", str(self.config), "--design", str(self.design),
                  "--seed", str(synth_seed), "--out", str(self.obs)])
        _run_cli(["fit", "--config", str(self.config), "--obs", str(self.obs),
                  "--out", str(self.report)])

    def check(self, synth_seed, _) -> Outcome:
        obs = _read_csv(self.obs, cli.OBSERVATION_HEADER, 15)
        report = json.loads(self.report.read_text(encoding="utf-8"))
        if report["converged"] is not True:
            raise CheckFailed(f"fit of synth seed {synth_seed} did not converge")
        params = [report["s_parallel"], report["coeff_per_U2"]]
        sigmas = [report["sigma_s_parallel"], report["sigma_coeff_per_U2"]]
        _require_finite("fit report", params + sigmas + [report["chi_square"]])
        if min(sigmas) <= 0.0:
            raise CheckFailed("fit report: non-positive sigma")
        in_3sigma = all(abs(p - t) <= 3.0 * s for p, t, s in zip(params, (S_TRUE, C_TRUE), sigmas))
        return Outcome(
            in_3sigma=in_3sigma,
            digest={"phase": obs[:, 1].tolist(), "vis": obs[:, 3].tolist(),
                    "param": params, "sigma": sigmas},
        )


class DeepSweep:
    """Forward model through the CLI: simulate curves alternating with Roberts residual scans."""

    name = "deep_sweep"
    layers = ("cli", "fitkit", "compensation", "fringe", "beam")

    def setup(self, workdir: Path) -> None:
        self.config = workdir / "sweep_config.json"
        self.out = workdir / "sweep_out.csv"

    def inputs(self, rng):
        while True:
            s_par = float(rng.uniform(7.0, 12.0))
            top_amp = float(rng.uniform(25.0, 100.0))
            yield ("simulate", s_par, top_amp)
            # below S = 8 the 257-node average of a (u/v)^2 term near
            # 40 rad stops converging
            s_par = float(rng.uniform(8.0, 12.0))
            pol = float(rng.uniform(-100.0, -10.0))
            v2 = np.sort(rng.uniform(0.5, 40.0, RESIDUAL_POINTS))
            yield ("residual", s_par, pol, ",".join(repr(float(a)) for a in v2))

    def prepare(self, inp):
        _unlink(self.out)
        kind, s_par = inp[0], inp[1]
        if kind == "simulate":
            coeff = inp[2] / SIMULATE_U_MAX**2
            alpha = af.alpha_from_coefficient(coeff, CAPACITOR.geometry_factor_G, U_MEAN)
            _write_json(self.config, _config(s_par, alpha))
            return ["simulate", "--config", str(self.config), "--out", str(self.out)]
        _write_json(self.config, _config(s_par, None))
        return ["residual", "--config", str(self.config), "--pol-amplitude", repr(inp[2]),
                "--v2", inp[3], "--out", str(self.out)]

    def run(self, argv) -> None:
        _run_cli(argv)

    def check(self, argv, _) -> Outcome:
        if argv[0] == "simulate":
            data = _read_csv(self.out, ["U_volts", "phase_rad", "vis_ratio"], SIMULATE_POINTS)
            phase, vis = data[:, 1], data[:, 2]
            # on/off ratio: a small pol phase undoes part of the Sagnac
            # term's dispersion and lifts it just above 1; 1.2 is the
            # ceiling the package accepts for a measured ratio
            _require_visibility("simulate", vis, 1.2)
        else:
            header = ["v1_amplitude_rad", "v2_amplitude_rad", "residual_phase_rad", "visibility_ratio"]
            data = _read_csv(self.out, header, RESIDUAL_POINTS)
            phase, vis = data[:, 2], data[:, 3]
            _require_visibility("residual", vis)
        return Outcome(points=len(phase), digest={"phase": phase.tolist(), "vis": vis.tolist()})


class NullDesign:
    """tune_counterphase, then a visibility scan over mistuned counter amplitudes."""

    name = "null_design"
    layers = ("compensation", "fringe", "beam")

    def setup(self, workdir: Path) -> None:
        pass

    def inputs(self, rng):
        while True:
            s_par = float(rng.uniform(5.0, 12.0))
            # a 25% mistune leaves a quarter of the pol amplitude
            # uncancelled; below S = 6 the 257-node average stops
            # converging at about 25 rad of it
            top = 200.0 if s_par >= 6.0 else 60.0
            yield s_par, float(rng.uniform(-top, -10.0))

    def prepare(self, inp):
        s_par, pol = inp
        return af.BeamModel(u=U_MEAN, s_parallel=s_par), af.DispersivePhaseTerm(pol, 1)

    def run(self, prepared):
        beam, pol = prepared
        plan = af.tune_counterphase(pol, beam, GEOMETRY)
        a_c = plan.counter_amplitude_at_mean
        ratios = [
            af.visibility_ratio([pol, af.DispersivePhaseTerm(a_c * (1.0 + d), 1)], beam)
            for d in MISTUNE
        ]
        return plan, ratios

    def check(self, prepared, result) -> Outcome:
        plan, ratios = result
        if not abs(plan.residual_phase) < 1e-9:
            raise CheckFailed(f"tuned residual {plan.residual_phase!r} rad is not below 1e-9")
        if not abs(plan.visibility_ratio_at_null - 1.0) <= 10.0 * af.QUADRATURE_TOL:
            raise CheckFailed(f"visibility at the null is {plan.visibility_ratio_at_null!r}")
        _require_finite("counterphase plan", [plan.counter_amplitude_at_mean, plan.motion.v1,
                                             plan.motion.v3, plan.prism_dz_rate])
        _require_finite("mistune scan", ratios)
        _require_visibility("mistune scan", ratios)
        return Outcome(digest={
            "phase": [plan.residual_phase],
            "vis": [plan.visibility_ratio_at_null],
            "ratio": list(ratios),
            "param": [plan.counter_amplitude_at_mean],
        })


WORKLOADS = {w.name: w for w in (Recovery(), DeepSweep(), NullDesign())}


def compare_digest(got: dict, ref: dict) -> str | None:
    """None when got matches the recorded digest, else the first mismatch.

    Visibilities (|Z| ratios) may move by 10 QUADRATURE_TOL; a phase by
    that much divided by its visibility, the error of arg Z that a
    converged |dZ| allows.  Fit parameters are set by the optimizer's
    stopping rule, not by the quadrature, and may move by 1e-3 of their
    reported sigma; other parameters by 10 QUADRATURE_TOL relative.
    """
    tol = 10.0 * af.QUADRATURE_TOL
    if set(got) != set(ref):
        return f"digest keys {sorted(got)} != {sorted(ref)}"
    for key in ref:
        if len(got[key]) != len(ref[key]):
            return f"{key}: {len(got[key])} values, recorded {len(ref[key])}"
    g = {k: np.asarray(v, dtype=float) for k, v in got.items()}
    r = {k: np.asarray(v, dtype=float) for k, v in ref.items()}
    checks = [("vis", np.abs(g["vis"] - r["vis"]) <= tol),
              ("phase", np.abs(g["phase"] - r["phase"]) <= tol / np.maximum(np.abs(r["vis"]), tol))]
    if "ratio" in r:
        checks.append(("ratio", np.abs(g["ratio"] - r["ratio"]) <= tol))
    if "sigma" in r:
        checks.append(("param", np.abs(g["param"] - r["param"]) <= 1e-3 * r["sigma"]))
        checks.append(("sigma", np.abs(g["sigma"] - r["sigma"]) <= 1e-3 * r["sigma"]))
    elif "param" in r:
        checks.append(("param", np.abs(g["param"] - r["param"]) <= tol * np.abs(r["param"])))
    for key, ok in checks:
        if not np.all(ok):
            i = int(np.argmin(ok))
            return f"{key}[{i}] = {g[key][i]!r}, recorded {r[key][i]!r}"
    return None
