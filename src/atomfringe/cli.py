"""Command-line surface, config and file I/O, synthetic data.

Subcommands
-----------
constants  derived constants for a config (Sagnac amplitude, rotation
           rate component, prism displacement ratio)
simulate   model phase and visibility over a voltage sweep
synth      synthetic observation file with seeded Gaussian noise
fit        joint fit of an observation file, JSON report out
tune       counterphase plan for a polarizability term, JSON out
residual   Roberts-mixture residual dispersion scan, CSV out

Files are flat and explicit: config and designs are JSON, observations
are CSV with header ``U_volts,phase_rad,phase_sigma_rad,vis_ratio,
vis_sigma``.  Numbers are emitted with 17 significant digits so every
file re-ingests losslessly (write, read, write is byte-identical).
Exit status is 0 only when no diagnostic was emitted; parse problems
exit 2 and model diagnostics exit 1, each with one line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .beam import MAX_NODE_COUNT, BeamModel, VelocitySupport
from .compensation import residual_dispersion, tune_counterphase
from .fitkit import (
    ModelContext,
    Observation,
    ObservationSet,
    fit,
    model_curve,
    parameter_uncertainties,
)
from .fringe import averaged_fringe
from .phase import (
    EARTH_ROTATION_RATE_RAD_PER_S,
    CapacitorModel,
    DispersivePhaseTerm,
    InterferometerGeometry,
    PrismGeometry,
    geometry_from_config,
    omega_y,
    polarizability_term,
    prism_displacement_ratio,
    sagnac_earth_term,
)

__all__ = [
    "ParseError",
    "RunConfig",
    "SyntheticDesign",
    "load_config",
    "load_design",
    "generate_synthetic",
    "read_observations",
    "write_observations",
    "main",
]

OBSERVATION_HEADER = ["U_volts", "phase_rad", "phase_sigma_rad", "vis_ratio", "vis_sigma"]

# the most points of a sweep, design or observation file: a curve of N points
# is one N x (2n + 1) complex block, 82 MB at the default 257 nodes, 330 MB at 1025
MAX_SWEEP_POINTS = 10_000


class ParseError(ValueError):
    """A config, design, or observation file is malformed."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: physics context, averaging, fit options."""

    geometry: InterferometerGeometry
    capacitor: CapacitorModel
    beam: BeamModel
    alpha_m3: float | None = None
    prism: PrismGeometry = PrismGeometry()
    support: VelocitySupport = VelocitySupport()
    include_sagnac: bool = True
    max_iterations: int = 200
    chi2_scaling: bool = True
    rng_seed: int = 0

    def model_context(self) -> ModelContext:
        amp = (
            sagnac_earth_term(self.geometry, self.beam).amplitude_at_mean
            if self.include_sagnac
            else 0.0
        )
        return ModelContext(
            beam_u=self.beam.u,
            sagnac_amplitude_at_mean=amp,
            support=self.support,
        )

    def stark_coefficient(self) -> float:
        """rad/V^2 of the configured polarizability, 0 when alpha unset.

        Positive for the default arm_sign = -1 (the model convention is
        pol amplitude = -coeff * U^2).
        """
        if self.alpha_m3 is None:
            return 0.0
        term = polarizability_term(self.capacitor, self.alpha_m3, 1.0, self.beam)
        return -term.amplitude_at_mean


@dataclass(frozen=True)
class SyntheticDesign:
    """Voltage schedule and noise model for synthetic observations.

    phase sigma per point is base + per_rad * |true phase|; visibility
    sigma is constant.  rotation_jitter (rad/s) adds white noise to the
    rotation rate, folded into the Sagnac amplitude point by point.
    A sigma of 0 means that channel is noiseless; its recorded sigma
    column falls back to 1 so the file still carries usable weights.
    Up to MAX_SWEEP_POINTS voltages; a voltage listed again is measured again.
    Every field must be finite.
    """

    voltages: tuple[float, ...]
    phase_sigma_base: float = 0.0
    phase_sigma_per_rad: float = 0.0
    vis_sigma: float = 0.0
    rotation_jitter: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "voltages", tuple(float(v) for v in self.voltages))
        if not self.voltages:  # it would write a header-only file
            raise ValueError("design voltages must not be empty")
        if len(self.voltages) > MAX_SWEEP_POINTS:
            raise ValueError(f"design voltages_V holds more than {MAX_SWEEP_POINTS} entries")
        for volt in self.voltages:
            if not math.isfinite(volt):
                raise ValueError(f"design voltages must be finite, got {volt}")
        for name in ("phase_sigma_base", "phase_sigma_per_rad", "vis_sigma", "rotation_jitter"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # NaN too
                raise ValueError(f"{name} must be non-negative and finite, got {value}")


# Every key a config or design file may hold: (section, key, kind, bound,
# default).  Section None is the file's top level; bound holds _number's
# keywords, so a value out of range is refused in the file's own units
# and named by its key; each default is the field default of the type
# the key builds.
REQUIRED = object()
SCHEMA = {
    "config": (
        ("geometry", "k_laser_per_m", "number", {"above": 0}, REQUIRED),
        ("geometry", "L_m", "number", {"above": 0}, REQUIRED),
        ("geometry", "latitude_deg", "number", {"least": -90, "most": 90}, REQUIRED),
        ("geometry", "geometry_factor_G_per_m", "number", {"above": 0}, REQUIRED),
        ("geometry", "arm_sign", "number", {"one_of": (-1, 1)}, CapacitorModel.sign),
        ("geometry", "earth_rotation_rate_rad_per_s", "number", {"least": 0}, EARTH_ROTATION_RATE_RAD_PER_S),
        ("beam", "u_m_per_s", "number", {"above": 0}, REQUIRED),
        ("beam", "s_parallel", "number", {"above": 1}, REQUIRED),
        (None, "alpha_m3", "number or null", {"above": 0}, RunConfig.alpha_m3),
        (None, "prism_n", "number", {"least": 1}, RunConfig.prism.refractive_index_n),
        (None, "rng_seed", "integer", {"least": 0}, RunConfig.rng_seed),
        # the averaging keys are VelocitySupport field names, the fit keys RunConfig's
        ("averaging", "width_sigmas", "number", {"above": 0}, VelocitySupport.width_sigmas),
        ("averaging", "node_count", "integer", {"least": 3, "most": MAX_NODE_COUNT}, VelocitySupport.node_count),
        ("fit", "include_sagnac", "bool", {}, RunConfig.include_sagnac),
        ("fit", "max_iterations", "integer", {"least": 1}, RunConfig.max_iterations),
        ("fit", "chi2_scaling", "bool", {}, RunConfig.chi2_scaling),
    ),
    "design": (
        (None, "voltages_V", "number list", {}, REQUIRED),
        (None, "phase_sigma_base_rad", "number", {"least": 0}, SyntheticDesign.phase_sigma_base),
        (None, "phase_sigma_per_rad", "number", {"least": 0}, SyntheticDesign.phase_sigma_per_rad),
        (None, "vis_sigma", "number", {"least": 0}, SyntheticDesign.vis_sigma),
        (None, "rotation_jitter_rad_per_s", "number", {"least": 0}, SyntheticDesign.rotation_jitter),
    ),
}


def _number(
    value, what, *, integer=False, least=-math.inf, above=-math.inf, most=math.inf, one_of=()
):
    """value when it is a finite JSON number (an int if integer) of at
    least least, above above, at most most and, if one_of is given, equal
    to one of its entries; ParseError naming what and value otherwise."""
    # exact type checks: JSON true/false must not pass as 1/0, "1.5" as 1.5;
    # the magnitude test refuses NaN, the infinities and an int beyond the
    # float range (math.isfinite raises OverflowError for one)
    if (
        type(value) not in ((int,) if integer else (int, float))
        or not abs(value) <= sys.float_info.max
        or not least <= value <= most
        or not value > above
        or (one_of and value not in one_of)
    ):
        bounds = []
        if least > -math.inf:
            bounds.append(f"of at least {least:g}")
        if above > -math.inf:
            bounds.append(f"above {above:g}")
        if most < math.inf:
            bounds.append(f"at most {most:g}")
        if one_of:
            bounds.append("equal to " + " or ".join(f"{x:g}" for x in one_of))
        kind = "an integer" if integer else "a finite number"
        if bounds:
            kind += " " + " and ".join(bounds)
        raise ParseError(f"{what} must be {kind}, got {value!r}")
    return value


def _checked(value, what, kind, bound):
    """value as one SCHEMA kind within bound (numbers as floats), else ParseError."""
    if kind == "bool":
        if type(value) is not bool:  # the string "false" would read as True
            raise ParseError(f"{what} must be true or false, got {value!r}")
        return value
    if kind == "number list":
        if not isinstance(value, list):
            raise ParseError(f"{what} must be a JSON array, got {value!r}")
        return tuple(_checked(v, f"{what} entry", "number", bound) for v in value)
    if kind == "number or null" and value is None:
        return None
    number = _number(value, what, integer=kind == "integer", **bound)
    return number if kind == "integer" else float(number)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # not UTF-8, or an integer of over 4300 digits
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def _read_schema(path: str, rows) -> dict:
    """The JSON file at path read by rows; ParseError names any unknown, missing or bad key."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    values = {}
    for section, key, kind, bound, default in rows:
        where = path if section is None else f"{path}: section '{section}'"
        source = doc if section is None else doc.setdefault(section, {})
        if not isinstance(source, dict):
            raise ParseError(f"{where} must be a JSON object")
        if key in source:
            value = _checked(source.pop(key), f"{where}: {key}", kind, bound)
        elif default is REQUIRED:
            raise ParseError(f"{where}: missing field '{key}'")
        else:
            value = default
        (values if section is None else values.setdefault(section, {}))[key] = value
    # every key a row read is gone from doc: what is left is unknown
    for name, rest in doc.items():
        if name not in values:
            raise ParseError(f"{path}: unknown key '{name}'")
        if rest:
            raise ParseError(f"{path}: section '{name}': unknown key '{next(iter(rest))}'")
    return values


def load_config(path: str) -> RunConfig:
    """Read a JSON run config; SCHEMA["config"] lists every key."""
    values = _read_schema(path, SCHEMA["config"])
    # every constructor check below is also a SCHEMA bound, refused above
    geometry, capacitor = geometry_from_config(values["geometry"])
    return RunConfig(
        geometry=geometry,
        capacitor=capacitor,
        beam=BeamModel(values["beam"]["u_m_per_s"], values["beam"]["s_parallel"]),
        alpha_m3=values["alpha_m3"],
        prism=PrismGeometry(refractive_index_n=values["prism_n"]),
        rng_seed=values["rng_seed"],
        support=VelocitySupport(**values["averaging"]),
        **values["fit"],
    )


def load_design(path: str) -> SyntheticDesign:
    """Read a JSON synthetic design; SCHEMA["design"] lists every key."""
    values = _read_schema(path, SCHEMA["design"])
    try:
        return SyntheticDesign(
            voltages=values["voltages_V"],
            phase_sigma_base=values["phase_sigma_base_rad"],
            phase_sigma_per_rad=values["phase_sigma_per_rad"],
            vis_sigma=values["vis_sigma"],
            rotation_jitter=values["rotation_jitter_rad_per_s"],
        )
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


@lru_cache(maxsize=1)
def _true_curve(s_parallel, coeff_per_U2, voltages, context):
    """model_curve(s_parallel, coeff_per_U2, voltages, context) as read-only
    arrays, kept for the last arguments: every seed of a recovery study
    on one config and design asks for this same curve.  The cache lives
    in the process, so separate ``atomfringe synth`` processes gain
    nothing from it; a curve that raises is not kept and raises again.
    """
    curve = model_curve(s_parallel, coeff_per_U2, voltages, context)
    for a in curve:
        a.setflags(write=False)
    return curve


def _noisy(rng, phases, ratios, design: SyntheticDesign):
    """(phase, phase sigma, vis_ratio) arrays: the true phases and ratios
    plus one rng.normal call over every channel that draws, point by
    point, phase before visibility; a channel of sigma 0 draws nothing
    and gains + 0.0."""
    ph_sigma = design.phase_sigma_base + design.phase_sigma_per_rad * np.abs(phases)
    sigmas = np.empty((ph_sigma.size, 2))
    sigmas[:, 0] = ph_sigma
    sigmas[:, 1] = design.vis_sigma
    draws = sigmas > 0.0
    noise = np.zeros_like(sigmas)
    noise[draws] = rng.normal(0.0, sigmas[draws])
    return phases + noise[:, 0], ph_sigma, ratios + noise[:, 1]


def generate_synthetic(config: RunConfig, design: SyntheticDesign) -> tuple[Observation, ...]:
    """Simulate the measurement protocol and add seeded Gaussian noise.

    True (phase, vis_ratio) come from the velocity-averaged model with
    the configured Sagnac term.  Without rotation jitter the whole
    design is one model curve, kept for the next call with the same
    beam, coefficient, voltages and context (a new seed on one config
    and design computes no curve), and its noise is one Gaussian draw
    over every noisy channel, point by point, phase before visibility.
    With rotation jitter each voltage draws its jitter, gets a model
    curve of its own at that rotation amplitude, then draws its phase
    and visibility noise.  Deterministic for a fixed (config.rng_seed,
    design).  Each listed voltage, repeats included, is one point with
    its own noise; a fit needs an ObservationSet, which wants 3.

    Raises ValueError for rotation jitter when the config leaves the
    rotation term out (include_sagnac false): there is no rotation
    phase for the jitter to act on; and, naming the voltage and the
    noise keys, for a noisy point outside what an Observation accepts
    (a visibility ratio drawn below 0).
    """
    jittered = design.rotation_jitter > 0.0
    if jittered and not config.include_sagnac:
        raise ValueError(
            "design rotation_jitter_rad_per_s is set but the config's "
            "fit.include_sagnac is false, so there is no rotation phase to jitter"
        )
    rng = np.random.default_rng(config.rng_seed)
    ctx = config.model_context()
    coeff = config.stark_coefficient()
    s_parallel = config.beam.s_parallel

    if jittered:
        amp_per_rate = (
            2.0
            * config.geometry.k_grating
            * config.geometry.grating_separation_L**2
            / config.beam.u
        )
        points = []
        for volt in design.voltages:
            sag = ctx.sagnac_amplitude_at_mean + amp_per_rate * rng.normal(
                0.0, design.rotation_jitter
            )
            point_ctx = replace(ctx, sagnac_amplitude_at_mean=sag)
            curve = model_curve(s_parallel, coeff, (volt,), point_ctx)
            points.append(_noisy(rng, *curve, design))
        phase, ph_sigma, vis = map(np.concatenate, zip(*points))
    else:
        curve = _true_curve(s_parallel, coeff, design.voltages, ctx)
        phase, ph_sigma, vis = _noisy(rng, *curve, design)

    vis_sigma = design.vis_sigma if design.vis_sigma > 0.0 else 1.0
    observations = []
    for volt, ph, sigma, ratio in zip(
        design.voltages, phase.tolist(), ph_sigma.tolist(), vis.tolist()
    ):
        try:
            observations.append(
                Observation(volt, ph, sigma if sigma > 0.0 else 1.0, ratio, vis_sigma)
            )
        except ValueError as exc:
            raise ValueError(
                f"design voltages_V entry {volt!r}: {exc} after the noise draw "
                f"(vis_sigma {design.vis_sigma!r}, phase_sigma_base_rad "
                f"{design.phase_sigma_base!r}, phase_sigma_per_rad "
                f"{design.phase_sigma_per_rad!r})"
            ) from exc
    return tuple(observations)


def read_observations(path: str) -> tuple[Observation, ...]:
    """Read an observation CSV, one Observation per non-blank row, repeated
    voltages included; ParseError names the file and line of a bad header,
    row or field, an over-long cell, or the first row past MAX_SWEEP_POINTS."""
    # decoded and parsed row by row: nothing past the bound is read
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}:1: empty file, expected header")
            if header != OBSERVATION_HEADER:
                raise ParseError(f"{path}:1: expected header {','.join(OBSERVATION_HEADER)}")
            observations = []
            for n, row in enumerate(reader, start=2):
                if row:
                    if len(observations) == MAX_SWEEP_POINTS:
                        raise ParseError(f"{path}:{n}: more than {MAX_SWEEP_POINTS} observations")
                    observations.append(_observation_row(path, n, row))
            return tuple(observations)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid CSV: {exc}") from exc
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: invalid CSV: {exc}") from exc


def _observation_row(path: str, lineno: int, row: list[str]) -> Observation:
    """One observation CSV row as an Observation; ParseError naming path,
    line and, for a bad cell, its field otherwise."""
    if len(row) != len(OBSERVATION_HEADER):
        raise ParseError(
            f"{path}:{lineno}: expected {len(OBSERVATION_HEADER)} fields, got {len(row)}"
        )
    values = []
    for name, cell in zip(OBSERVATION_HEADER, row):
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: field '{name}': not a number: {cell!r}") from None
        if not math.isfinite(value):  # the message is _number's
            _number(value, f"{path}:{lineno}: field '{name}'")
        values.append(value)
    try:
        return Observation(*values)
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc


def write_observations(path: str, observations) -> None:
    """Write an observation CSV ('-' for stdout)."""
    rows = (
        (o.voltage_U, o.phase_meas, o.phase_sigma, o.vis_ratio, o.vis_sigma)
        for o in observations
    )
    _write_csv(path, OBSERVATION_HEADER, rows)


def _write_text(path: str, text: str, newline: str | None = None) -> None:
    """text to path ('-' for stdout) in one write, the file opened only
    once the text is complete, so a command that fails writes no file;
    ParseError naming path when it cannot be written."""
    try:
        if path == "-":
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline=newline) as fh:
                fh.write(text)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc


def _write_json(path: str, payload: dict) -> None:
    """json.dumps(payload, indent=2, allow_nan=False) plus a newline to
    path, with json's errors: a non-finite number is not JSON (ValueError,
    exit 1), not Infinity, and no file is written."""
    _write_text(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _write_csv(path, header, rows) -> None:
    # what csv.writer(lineterminator="\n") writes: no cell these commands
    # write holds a comma, quote or line break, so none is quoted; every
    # number with 17 significant digits, and, as in a JSON report, finite
    lines = [",".join(header)]
    for row in rows:
        cells = [c if isinstance(c, str) else "%.17g" % c for c in row]
        if "nan" in cells or "inf" in cells or "-inf" in cells:  # "%.17g" of a non-finite number
            raise ValueError(f"{path}: a CSV holds finite numbers only, got {', '.join(cells)}")
        lines.append(",".join(cells))
    _write_text(path, "\n".join(lines) + "\n", newline="")


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        values = []
    if not values:  # an empty list would write a header-only file
        raise ParseError(f"{flag}: expected comma-separated numbers, got {text!r}")
    if len(values) > MAX_SWEEP_POINTS:
        raise ParseError(f"{flag}: more than {MAX_SWEEP_POINTS} values")
    return [_number(x, flag) for x in values]


# ---------------------------------------------------------------- commands


def _cmd_constants(args) -> int:
    config = load_config(args.config)
    rows = [
        ("sagnac_amplitude_rad", sagnac_earth_term(config.geometry, config.beam).amplitude_at_mean),
        ("omega_y_rad_per_s", omega_y(config.geometry)),
        ("prism_dx_over_dz", prism_displacement_ratio(config.prism)),
    ]
    _write_csv(args.out, ["quantity", "value"], rows)
    return 0


def _voltage_grid(args) -> list[float]:
    if args.voltages is not None:
        return _parse_float_list(args.voltages, "--voltages")
    points = _number(args.points, "--points", integer=True, least=1, most=MAX_SWEEP_POINTS)
    return list(np.linspace(0.0, args.u_max, points))


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    volts = _voltage_grid(args)
    ctx = config.model_context()
    phases, ratios = model_curve(
        config.beam.s_parallel, config.stark_coefficient(), volts, ctx
    )
    rows = [(v, p, r) for v, p, r in zip(volts, phases, ratios)]
    _write_csv(args.out, ["U_volts", "phase_rad", "vis_ratio"], rows)
    return 0


def _cmd_synth(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, rng_seed=_number(args.seed, "--seed", integer=True, least=0))
    design = load_design(args.design)
    write_observations(args.out, generate_synthetic(config, design))
    return 0


def _cmd_fit(args) -> int:
    config = load_config(args.config)
    if args.sagnac is not None:
        config = replace(config, include_sagnac=args.sagnac == "on")
    ctx = config.model_context()
    obs_set = ObservationSet(read_observations(args.obs), ctx)
    observations = obs_set.observations
    result = fit(
        obs_set,
        max_iterations=config.max_iterations,
        chi2_scaling=config.chi2_scaling,
    )
    if result.converged:
        sigma_s, sigma_coeff = parameter_uncertainties(result)
    else:
        sigma_s = sigma_coeff = None
    # chi^2 beyond the float range (phase sigmas far below the misfits) is null
    chi_square = None if math.isinf(result.chi_square) else result.chi_square
    payload = {
        "s_parallel": result.s_parallel,
        "coeff_per_U2": result.coeff_per_U2,
        "sigma_s_parallel": sigma_s,
        "sigma_coeff_per_U2": sigma_coeff,
        "covariance": [list(map(float, row)) for row in result.covariance],
        "chi_square": chi_square,
        # ObservationSet holds at least 3 points: 4 or more degrees of freedom
        "reduced_chi_square": None if chi_square is None else chi_square / (2 * len(observations) - 2),
        "n_observations": len(observations),
        "converged": result.converged,
        "iterations": result.iterations,
        "include_sagnac": config.include_sagnac,
        "sagnac_amplitude_rad": ctx.sagnac_amplitude_at_mean,
        "residuals": [
            {
                "U_volts": float(o.voltage_U),
                "phase_rad": float(pair[0]),
                "vis_ratio": float(pair[1]),
            }
            for o, pair in zip(observations, result.residuals)
        ],
    }
    _write_json(args.out, payload)
    if not result.converged:
        # a loop that ends before max_iterations without converging ended
        # because no damping up to its limit gave an acceptable step
        limit = f"max_iterations = {config.max_iterations}"
        if result.iterations < config.max_iterations:
            limit = f"the damping ran out after {result.iterations} accepted steps, before {limit}"
        print(
            f"error: fit did not converge ({limit}); the report has no sigmas",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_tune(args) -> int:
    config = load_config(args.config)
    if args.pol_amplitude is not None:
        pol = DispersivePhaseTerm(amplitude_at_mean=args.pol_amplitude, exponent=1)
    else:
        if config.alpha_m3 is None:
            raise ParseError(
                f"{args.config}: alpha_m3 is required to tune at a voltage"
            )
        pol = polarizability_term(
            config.capacitor, config.alpha_m3, args.voltage, config.beam
        )
    plan = tune_counterphase(
        pol,
        config.beam,
        config.geometry,
        prism=config.prism,
        support=config.support,
    )
    payload = {"pol_amplitude_rad": pol.amplitude_at_mean, **plan.to_report()}
    _write_json(args.out, payload)
    return 0


def _cmd_residual(args) -> int:
    config = load_config(args.config)
    pol = args.pol_amplitude
    v2_list = _parse_float_list(args.v2, "--v2")
    beam = config.beam
    rows = []
    if args.v1 is not None:
        # a free v1 grid is a two-parameter family: one average per pair
        v1_list = _parse_float_list(args.v1, "--v1")
        if (pairs := len(v1_list) * len(v2_list)) > MAX_SWEEP_POINTS:
            raise ParseError(f"--v1 x --v2: {pairs} pairs, more than {MAX_SWEEP_POINTS}")
        for a1 in v1_list:
            for a2 in v2_list:
                terms = [DispersivePhaseTerm(a, e) for a, e in ((pol, 1), (a1, 1), (a2, 2))]
                obs = averaged_fringe(terms, beam, config.support)
                rows.append((a1, a2, obs.phase_unwrapped, obs.visibility))
    else:
        # v1 completes each v2 to -pol (cancellation at v = u), which
        # leaves one family in v2: the whole scan is one average
        phases, vis = residual_dispersion(v2_list, beam, config.support)
        rows = [(-pol - a2, a2, ph, r) for a2, ph, r in zip(v2_list, phases, vis)]
    _write_csv(
        args.out,
        ["v1_amplitude_rad", "v2_amplitude_rad", "residual_phase_rad", "visibility_ratio"],
        rows,
    )
    return 0


def _finite_float(text: str) -> float:
    try:
        return _number(float(text), text)
    except ValueError:  # ParseError included
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}") from None


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token that starts with a minus and a digit (-5,10 or -1e3) is
        # a value, as with --v2=-5,10; argparse only takes plain negative
        # numbers, and no flag here starts that way
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        # a bad flag is a parse problem like any other: one line, exit 2
        raise ParseError(f"{self.prog}: {message}")


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call and reused by every later call in
    # the process; parse_args leaves the parser unchanged
    parser = _ArgumentParser(
        prog="atomfringe",
        description="velocity-averaged fringe simulation, fitting and dispersion compensation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="derived constants for a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("simulate", help="model curves over a voltage sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--voltages", help="comma-separated voltage list")
    p.add_argument("--u-max", type=_finite_float, default=400.0, help="sweep end (V)")
    p.add_argument("--points", type=int, default=17, help="sweep point count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("synth", help="generate a synthetic observation file")
    p.add_argument("--config", required=True)
    p.add_argument("--design", required=True)
    p.add_argument("--seed", type=int, help="override the config rng_seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit an observation file")
    p.add_argument("--config", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument(
        "--sagnac",
        choices=("on", "off"),
        help="override the config include_sagnac flag",
    )
    p.add_argument("--out", required=True, help="JSON report path ('-' for stdout)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("tune", help="design a counterphase")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pol-amplitude", type=_finite_float, help="pol amplitude at v=u (rad)")
    group.add_argument("--voltage", type=_finite_float, help="capacitor voltage (needs alpha_m3)")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("residual", help="Roberts-mixture dispersion scan")
    p.add_argument("--config", required=True)
    p.add_argument("--pol-amplitude", type=_finite_float, required=True)
    p.add_argument("--v2", required=True, help="comma-separated (u/v)^2 amplitudes")
    p.add_argument(
        "--v1",
        help="comma-separated u/v amplitudes (default completes each v2 to cancel at v=u)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_residual)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # numpy's overflow and invalid-value warnings raise: one line, not a nan
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeWarning) as exc:
        print(f"error: a number went out of the float range: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # an input too large for this machine
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
