"""Joint fit of phase-shift and visibility data.

The measurement protocol yields, per applied voltage U, the averaged
phase difference (perturbation on minus off) and the fringe visibility
normalized to its zero-voltage value.  Both observables depend on just
two parameters once the mean velocity and the rotation phase are fixed
externally: the parallel speed ratio s_parallel and the Stark
coefficient coeff_per_U2 (rad/V^2, quadratic in voltage, u/v velocity
scaling, negative arm sign).

fit() minimizes

    sum_i [ (phase_i - model)^2 / phase_sigma_i^2
          + (vis_i - model)^2 / vis_sigma_i^2 ]

by Levenberg-Marquardt with the exact Jacobian.  Every voltage's total
amplitude sag - coeff * U^2 multiplies the same u/v profile, so one
velocity average of that profile at all amplitudes (a FringeCurve)
gives the residuals and, from d ln Z / d amplitude and
d ln Z / d s_parallel, their derivatives in the same pass.  Damping
starts at 1e-3, divides by 3 on accepted steps and multiplies by 10 on
rejections, so the objective never increases along the accepted
sequence.  The converged flag means either the gradient criterion
max|J^T r| <= 1e-6 * max(1, chi^2) held at the reported optimum or the
cost had stopped improving to float resolution over several accepted
steps (an ftol-style exit; the remaining parameter motion is then far
below the reported sigmas).  The covariance is the inverse Gauss-Newton
normal matrix at the optimum, scaled by reduced chi-square unless
disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .beam import DEFAULT_NODE_COUNT, DEFAULT_WIDTH_SIGMAS, BeamModel, default_support
from .fringe import QuadratureConvergenceError, averaged_fringe
from .phase import DispersivePhaseTerm

__all__ = [
    "FitError",
    "Observation",
    "ObservationSet",
    "ModelContext",
    "FitResult",
    "predict",
    "model_curve",
    "fit",
    "parameter_uncertainties",
]

_GTOL = 1e-6
_LAM_INIT = 1e-3
_LAM_ACCEPT = 1.0 / 3.0
_LAM_REJECT = 10.0
_LAM_MAX = 1e12
_STALL_LIMIT = 3  # accepted steps with no measurable cost change


class FitError(RuntimeError):
    """Fit linear algebra failed (singular normal matrix or bad covariance)."""


@dataclass(frozen=True)
class Observation:
    """One voltage point: measured phase and visibility ratio with sigmas."""

    voltage_U: float
    phase_meas: float
    phase_sigma: float
    vis_ratio: float
    vis_sigma: float

    def __post_init__(self):
        for name in ("voltage_U", "phase_meas"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.phase_sigma > 0.0:
            raise ValueError(f"phase_sigma must be positive, got {self.phase_sigma}")
        if not self.vis_sigma > 0.0:
            raise ValueError(f"vis_sigma must be positive, got {self.vis_sigma}")
        if not 0.0 <= self.vis_ratio <= 1.2:
            raise ValueError(
                f"vis_ratio must lie in [0, 1.2], got {self.vis_ratio}"
            )


@dataclass(frozen=True)
class ModelContext:
    """The fixed context a model curve is evaluated in.

    beam_u and the rotation amplitude are measured independently and
    held fixed by the fit; sagnac_amplitude_at_mean = 0 disables the
    rotation term.  width_sigmas and node_count control the velocity
    averaging.
    """

    beam_u: float
    sagnac_amplitude_at_mean: float
    width_sigmas: float = DEFAULT_WIDTH_SIGMAS
    node_count: int = DEFAULT_NODE_COUNT

    def __post_init__(self):
        if not self.beam_u > 0.0:
            raise ValueError(f"beam_u must be positive, got {self.beam_u}")
        if not math.isfinite(self.sagnac_amplitude_at_mean):
            raise ValueError(
                f"sagnac_amplitude_at_mean must be finite, got {self.sagnac_amplitude_at_mean}"
            )


@dataclass(frozen=True)
class ObservationSet:
    """Observations plus the fixed context they were taken in."""

    observations: tuple[Observation, ...]
    context: ModelContext

    def __post_init__(self):
        object.__setattr__(self, "observations", tuple(self.observations))
        if len(self.observations) < 3:
            raise ValueError("need at least 3 observations")
        volts = [o.voltage_U for o in self.observations]
        if len(set(volts)) != len(volts):
            raise ValueError("observation voltages must be distinct")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Optimum, covariance and per-observation residuals of one fit.

    residuals holds raw (phase, visibility) misfits per observation;
    cost_history the weighted objective after each accepted step.
    """

    s_parallel: float
    coeff_per_U2: float
    covariance: np.ndarray
    chi_square: float
    residuals: np.ndarray
    converged: bool
    iterations: int
    cost_history: tuple[float, ...] = field(repr=False, default=())


_UNIT_TERM = (DispersivePhaseTerm(amplitude_at_mean=1.0, exponent=1),)


def _model_pass(s_parallel, coeff_per_U2, voltages, context: ModelContext):
    """Model (phase, vis_ratio) over voltages plus their exact derivatives.

    Returns phases, ratios and two (len(voltages), 2) arrays holding
    d phase and d ratio with respect to (s_parallel, coeff_per_U2).
    Row 0 of the averaged curve is the off state (the rotation term
    alone), the rest are the on states.
    """
    beam = BeamModel(u=context.beam_u, s_parallel=s_parallel)
    support = default_support(beam, context.width_sigmas, context.node_count)
    u2 = np.asarray(voltages, dtype=float) ** 2
    sag = context.sagnac_amplitude_at_mean
    curve = averaged_fringe(
        _UNIT_TERM, beam, support=support,
        scales=np.concatenate([[sag], sag - coeff_per_U2 * u2]),
    )
    phases = curve.phase_unwrapped[1:] - curve.phase_unwrapped[0]
    ratios = curve.visibility[1:] / curve.visibility[0]
    g = curve.dlogz_dspeed_ratio[1:] - curve.dlogz_dspeed_ratio[0]
    h = -u2 * curve.dlogz_dscale[1:]  # d ln Z_on / d coeff
    dphase = np.column_stack([g.imag, h.imag])
    dratio = ratios[:, None] * np.column_stack([g.real, h.real])
    return phases, ratios, dphase, dratio


def model_curve(s_parallel, coeff_per_U2, voltages, context: ModelContext):
    """Model (phase, vis_ratio) arrays over voltages, sharing the off state."""
    phases, ratios, _, _ = _model_pass(s_parallel, coeff_per_U2, voltages, context)
    return phases, ratios


def predict(s_parallel, coeff_per_U2, voltage_U, context: ModelContext):
    """Model (phase, vis_ratio) at one voltage in the given context."""
    if not s_parallel > 1.0:
        raise ValueError(f"s_parallel must exceed 1, got {s_parallel}")
    phases, ratios = model_curve(s_parallel, coeff_per_U2, (voltage_U,), context)
    return float(phases[0]), float(ratios[0])


def _default_initial(obs_set: ObservationSet) -> tuple[float, float]:
    """Heuristic start: s_parallel = 8, coeff from the smallest voltages.

    The coefficient seed is the origin-constrained least-squares slope
    of -phase against U^2 over the three smallest nonzero voltages.
    """
    nonzero = sorted(
        (o for o in obs_set.observations if o.voltage_U != 0.0),
        key=lambda o: abs(o.voltage_U),
    )[:3]
    if not nonzero:
        raise ValueError("cannot seed the coefficient: all voltages are zero")
    u2 = np.array([o.voltage_U**2 for o in nonzero])
    ph = np.array([o.phase_meas for o in nonzero])
    coeff0 = float(-(u2 @ ph) / (u2 @ u2))
    return 8.0, coeff0


def fit(obs_set: ObservationSet, initial=None, *, max_iterations: int = 200,
        chi2_scaling: bool = True) -> FitResult:
    """Joint weighted fit of (s_parallel, coeff_per_U2).

    Parameters
    ----------
    obs_set : ObservationSet
    initial : (float, float), optional
        Starting (s_parallel, coeff_per_U2); defaults to the documented
        heuristic.
    max_iterations : int
        Levenberg-Marquardt iterations before giving up (converged =
        False unless the gradient criterion happens to hold there).
    chi2_scaling : bool
        Scale the covariance by reduced chi-square (default) or report
        pure propagation of the quoted sigmas.

    Raises
    ------
    FitError
        On a singular normal matrix.
    """
    obs = obs_set.observations
    context = obs_set.context
    volts = np.array([o.voltage_U for o in obs])
    ph_meas = np.array([o.phase_meas for o in obs])
    ph_sig = np.array([o.phase_sigma for o in obs])
    vis_meas = np.array([o.vis_ratio for o in obs])
    vis_sig = np.array([o.vis_sigma for o in obs])

    if initial is None:
        initial = _default_initial(obs_set)
    s0, c0 = float(initial[0]), float(initial[1])
    if not 1.0 < s0 < math.inf:
        raise ValueError(f"initial s_parallel must be finite and exceed 1, got {s0}")
    if not math.isfinite(c0):
        raise ValueError(f"initial coeff_per_U2 must be finite, got {c0}")
    # optimize in initial-value units so both gradient components are
    # comparable
    scale = np.array([abs(s0), max(abs(c0), 1e-6)])
    sigmas = np.column_stack([ph_sig, vis_sig])

    def evaluate(x):
        """Raw (phase, vis) misfits, weighted residuals, exact Jacobian."""
        s_par, coeff = x * scale
        phases, ratios, dphase, dratio = _model_pass(s_par, coeff, volts, context)
        misfit = np.column_stack([ph_meas - phases, vis_meas - ratios])
        jac = np.empty((2 * len(obs), 2))
        jac[0::2] = -dphase * scale / ph_sig[:, None]
        jac[1::2] = -dratio * scale / vis_sig[:, None]
        return misfit, (misfit / sigmas).ravel(), jac

    x = np.array([s0, c0]) / scale
    misfit, r, J = evaluate(x)
    cost = float(r @ r)
    history = [cost]
    lam = _LAM_INIT
    stalls = 0
    stalled = False

    for _ in range(max_iterations):
        g = J.T @ r
        if np.max(np.abs(g)) <= _GTOL * max(1.0, cost):
            break
        N = J.T @ J
        d = np.diag(N)
        if np.any(d <= 0.0):
            raise FitError(
                "singular normal matrix: a parameter does not affect the model"
            )
        stepped = False
        while lam <= _LAM_MAX:
            try:
                dx = np.linalg.solve(N + lam * np.diag(d), -g)
            except np.linalg.LinAlgError as exc:
                raise FitError("singular damped normal matrix") from exc
            x_try = x + dx
            if x_try[0] * scale[0] > 1.0:  # keep s_parallel physical
                try:
                    trial = evaluate(x_try)
                except QuadratureConvergenceError:
                    # trial point too broad for the node budget: treat as
                    # a bad step and back off (reported values stay checked)
                    trial = None
                cost_try = float(trial[1] @ trial[1]) if trial is not None else math.inf
                if cost_try <= cost:
                    stalls = stalls + 1 if cost - cost_try <= 1e-14 * max(1.0, cost) else 0
                    x, cost = x_try, cost_try
                    misfit, r, J = trial
                    history.append(cost)
                    lam = max(lam * _LAM_ACCEPT, 1e-15)
                    stepped = True
                    break
            lam *= _LAM_REJECT
        if not stepped:
            break  # damping exhausted; the final gradient test decides
        if stalls >= _STALL_LIMIT:
            # cost stopped improving to float resolution over several
            # accepted steps: ftol-style convergence
            stalled = True
            break

    # the accepted evaluation's Jacobian is the linearization at the
    # reported optimum: convergence flag and covariance both come from it
    g = J.T @ r
    converged = stalled or bool(np.max(np.abs(g)) <= _GTOL * max(1.0, cost))
    N = J.T @ J
    try:
        cov_x = np.linalg.inv(N)
    except np.linalg.LinAlgError as exc:
        raise FitError(
            "singular normal matrix at the optimum; covariance undefined"
        ) from exc
    m = r.size
    if chi2_scaling and m > 2:
        cov_x = cov_x * (cost / (m - 2))
    cov = np.diag(scale) @ cov_x @ np.diag(scale)
    cov = 0.5 * (cov + cov.T)

    s_fit, c_fit = x * scale
    return FitResult(
        s_parallel=float(s_fit),
        coeff_per_U2=float(c_fit),
        covariance=cov,
        chi_square=cost,
        residuals=misfit,
        converged=converged,
        iterations=len(history) - 1,
        cost_history=tuple(history),
    )


def parameter_uncertainties(result: FitResult) -> tuple[float, float]:
    """1-sigma uncertainties (sigma_s, sigma_coeff) from the covariance."""
    if not result.converged:
        raise FitError("uncertainties require a converged fit")
    cov = result.covariance
    if not np.allclose(cov, cov.T, rtol=0.0, atol=0.0):
        raise FitError("covariance is not symmetric")
    eigs = np.linalg.eigvalsh(cov)
    if eigs[0] < -1e-12 * max(abs(eigs[-1]), 1.0):
        raise FitError("covariance is not positive semi-definite")
    return float(np.sqrt(cov[0, 0])), float(np.sqrt(cov[1, 1]))
