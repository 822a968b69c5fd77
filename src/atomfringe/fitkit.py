"""Joint fit of phase-shift and visibility data.

The measurement protocol yields, per applied voltage U, the averaged
phase difference (perturbation on minus off) and the fringe visibility
normalized to its zero-voltage value.  Both observables depend on just
two parameters once the mean velocity and the rotation phase are fixed
externally: the parallel speed ratio s_parallel and the Stark
coefficient coeff_per_U2 (rad/V^2, quadratic in voltage, u/v velocity
scaling, negative arm sign).  model_curve gives both at any voltages,
one voltage being a one-entry curve.

fit() minimizes

    sum_i [ (phase_i - model)^2 / phase_sigma_i^2
          + (vis_i - model)^2 / vis_sigma_i^2 ]

by Levenberg-Marquardt with the exact Jacobian, started (unless the
caller gives a start) at s_parallel = 8 and at the least-squares slope
of -phase against U^2 through the origin, each point weighted by
1 / phase_sigma^2.  Every voltage's total
amplitude sag - coeff * U^2 multiplies the same u/v profile, so one
velocity average of that profile at all amplitudes (a FringeCurve)
gives the residuals and, from d ln Z / d amplitude and
d ln Z / d s_parallel, their derivatives in the same pass.  The average
runs on the context's VelocitySupport, a window relative to the beam,
so it moves with each trial s_parallel.  Damping starts at 1e-3,
divides by 3 on accepted steps and multiplies by 10 on rejections, so
the objective never increases along the accepted sequence; a parameter
that does not move the model at the current point (a zero diagonal
entry of N = J^T J) is damped with 1, as MINPACK's lmder does for a
zero column.  The fit stops, converged, at the first accepted point
where the undamped Gauss-Newton step promises a chi^2 decrease
g^T N^-1 g <= 1e-13 * max(1, chi^2), g = J^T r; each parameter is then
within sqrt(1e-13 * max(1, chi^2)) of its propagated sigma of the
Gauss-Newton minimum.  Where N is singular it stops only if g is
exactly 0.  The covariance is N^-1 at the optimum, scaled by reduced
chi-square unless disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .beam import BeamModel, VelocitySupport
from .fringe import QuadratureConvergenceError, averaged_fringe
from .phase import DispersivePhaseTerm

__all__ = [
    "FitError",
    "Observation",
    "ObservationSet",
    "ModelContext",
    "FitResult",
    "model_curve",
    "fit",
    "parameter_uncertainties",
]

_FTOL = 1e-13  # stop when a Gauss-Newton step promises less, relative to chi^2
_LAM_INIT = 1e-3
_LAM_ACCEPT = 1.0 / 3.0
_LAM_REJECT = 10.0
_LAM_MAX = 1e12


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
    rotation term.  support is the velocity-averaging window, relative
    to the beam, so it follows the speed ratio the fit varies.
    """

    beam_u: float
    sagnac_amplitude_at_mean: float
    support: VelocitySupport = VelocitySupport()

    def __post_init__(self):
        if not 0.0 < self.beam_u < math.inf:
            raise ValueError(f"beam_u must be positive and finite, got {self.beam_u}")
        if not math.isfinite(self.sagnac_amplitude_at_mean):
            raise ValueError(
                f"sagnac_amplitude_at_mean must be finite, got {self.sagnac_amplitude_at_mean}"
            )


@dataclass(frozen=True)
class ObservationSet:
    """Observations plus the fixed context they were taken in: at least 3,
    and observations at one voltage are repeated measurements."""

    observations: tuple[Observation, ...]
    context: ModelContext

    def __post_init__(self):
        object.__setattr__(self, "observations", tuple(self.observations))
        if len(self.observations) < 3:
            raise ValueError("need at least 3 observations")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Optimum, covariance and per-observation residuals of one fit.

    residuals holds raw (phase, visibility) misfits per observation;
    cost_history the weighted objective at the start point and after
    each accepted step, so it holds iterations + 1 entries.
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


def _model_pass(s_parallel, coeff_per_U2, u2, context: ModelContext):
    """Model (phase, vis_ratio) at the squared voltages u2 plus their exact
    derivatives.

    Returns model, an (len(u2), 2) array of (phase, vis_ratio) rows, and
    dmodel, (len(u2), 2, 2), where dmodel[i, j] is the derivative of
    model[i, j] with respect to (s_parallel, coeff_per_U2): the layout of
    the fit's interleaved residuals.  Row 0 of the averaged curve is the
    off state (the rotation term alone), the rest are the on states.
    """
    beam = BeamModel(u=context.beam_u, s_parallel=s_parallel)
    sag = context.sagnac_amplitude_at_mean
    curve = averaged_fringe(
        _UNIT_TERM, beam, context.support,
        scales=np.concatenate([[sag], sag - coeff_per_U2 * u2]),
    )
    model = np.empty((u2.size, 2))
    np.subtract(curve.phase_unwrapped[1:], curve.phase_unwrapped[0], out=model[:, 0])
    np.divide(curve.visibility[1:], curve.visibility[0], out=model[:, 1])
    # d ln Z_on / d (s_parallel, coeff): the imaginary part is the phase
    # derivative, the real part that of ln vis_ratio
    dlogz = np.empty((u2.size, 2), dtype=complex)
    np.subtract(curve.dlogz_dspeed_ratio[1:], curve.dlogz_dspeed_ratio[0], out=dlogz[:, 0])
    np.multiply(-u2, curve.dlogz_dscale[1:], out=dlogz[:, 1])
    dmodel = np.empty((u2.size, 2, 2))
    dmodel[:, 0] = dlogz.imag
    np.multiply(model[:, 1:], dlogz.real, out=dmodel[:, 1])
    return model, dmodel


def model_curve(s_parallel, coeff_per_U2, voltages, context: ModelContext):
    """Model (phase, vis_ratio) arrays over voltages, sharing the off state."""
    u2 = np.asarray(voltages, dtype=float) ** 2
    model, _ = _model_pass(s_parallel, coeff_per_U2, u2, context)
    return model[:, 0], model[:, 1]


def fit(obs_set: ObservationSet, initial=None, *, max_iterations: int = 200,
        chi2_scaling: bool = True) -> FitResult:
    """Joint weighted fit of (s_parallel, coeff_per_U2).

    When the smallest phase sigma is below 0.5, r, J and the costs are
    carried in units of the power of two that puts it in [0.5, 1): the
    same steps, bit for bit, and sums finite down to the smallest float.
    chi_square and cost_history read inf beyond the float range.

    Parameters
    ----------
    obs_set : ObservationSet
    initial : (float, float), optional
        Starting (s_parallel, coeff_per_U2); defaults to s_parallel = 8
        and the phase-sigma-weighted, origin-constrained least-squares
        slope of -phase against U^2 over every observation, its sigmas
        scaled by the power of two that puts the smallest in [0.5, 1)
        (the same slope, with weights finite for any sigma).
    max_iterations : int
        Accepted Levenberg-Marquardt steps before giving up (converged =
        False unless the stop test holds after the last of them).
    chi2_scaling : bool
        Scale the covariance by reduced chi-square (default) or report
        pure propagation of the quoted sigmas.

    Raises
    ------
    FitError
        On a singular normal matrix at the optimum, or for the default start when no U^2 is nonzero.
    """
    obs = obs_set.observations
    context = obs_set.context
    u2 = np.array([o.voltage_U for o in obs]) ** 2
    measured = np.array([(o.phase_meas, o.vis_ratio) for o in obs])
    sigmas = np.array([(o.phase_sigma, o.vis_sigma) for o in obs])

    # the power of two that puts the smallest phase sigma in [0.5, 1)
    power = int(np.frexp(sigmas[:, 0].min())[1])
    if initial is None:
        w = u2 / np.ldexp(sigmas[:, 0], -power) ** 2
        if not w @ u2 > 0.0:  # every U^2 is 0 in floating point
            raise FitError("no observation has a nonzero U^2, so coeff_per_U2 does not affect the model")
        initial = 8.0, -(w @ measured[:, 0]) / (w @ u2)
    s0, c0 = float(initial[0]), float(initial[1])
    if not 1.0 < s0 < math.inf:
        raise ValueError(f"initial s_parallel must be finite and exceed 1, got {s0}")
    if not math.isfinite(c0):
        raise ValueError(f"initial coeff_per_U2 must be finite, got {c0}")
    # optimize in initial-value units, where x starts at about (1, 1)
    scale = np.array([abs(s0), max(abs(c0), 1e-6)])
    # r and J are 2^shift times chi^2's, so a cost of `one` is a chi^2 of 1
    shift = min(power, 0)
    with np.errstate(over="ignore"):  # a sigma beyond these units weighs 0
        units = np.ldexp(sigmas, -shift)
    one = math.ldexp(1.0, 2 * shift)

    def evaluate(x):
        """Raw (phase, vis) misfits, weighted residuals, exact Jacobian,
        both with the phase and visibility entries of each observation
        interleaved."""
        s_par, coeff = x * scale
        model, dmodel = _model_pass(s_par, coeff, u2, context)
        misfit = measured - model
        jac = -dmodel * scale / units[:, :, None]
        return misfit, (misfit / units).ravel(), jac.reshape(-1, 2)

    x = np.array([s0, c0]) / scale
    misfit, r, J = evaluate(x)
    cost = float(r @ r)
    history = [cost]
    lam = _LAM_INIT

    while True:
        # the accepted pass's J and r give the stop test and, at the
        # reported optimum, the covariance: the undamped Gauss-Newton
        # step would lower the cost by g^T N^-1 g
        g = J.T @ r
        N = J.T @ J
        try:
            cov_x = np.linalg.inv(N)
            converged = bool(g @ cov_x @ g <= _FTOL * max(one, cost))
        except np.linalg.LinAlgError:
            cov_x = None
            converged = not g.any()
        if converged or len(history) > max_iterations:
            break
        # a parameter that does not move the model here is damped with 1
        d = np.diag(N)
        d = np.where(d > 0.0, d, 1.0)
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
                    x, cost = x_try, cost_try
                    misfit, r, J = trial
                    history.append(cost)
                    lam = max(lam * _LAM_ACCEPT, 1e-15)
                    stepped = True
                    break
            lam *= _LAM_REJECT
        if not stepped:
            break  # damping exhausted short of the stop test

    if cov_x is None:
        raise FitError("singular normal matrix at the optimum; covariance undefined")
    # r holds 2 entries per observation, so r.size >= 6
    cov_x = cov_x * (cost / (r.size - 2) if chi2_scaling else one)
    cov = np.diag(scale) @ cov_x @ np.diag(scale)
    cov = 0.5 * (cov + cov.T)

    s_fit, c_fit = x * scale
    with np.errstate(over="ignore"):  # a chi^2 beyond the float range reads inf
        history = np.ldexp(history, -2 * shift).tolist()
    return FitResult(
        s_parallel=float(s_fit),
        coeff_per_U2=float(c_fit),
        covariance=cov,
        chi_square=history[-1],
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
    if not np.array_equal(cov, cov.T):
        raise FitError("covariance is not symmetric")
    eigs = np.linalg.eigvalsh(cov)
    if eigs[0] < -1e-12 * max(abs(eigs[-1]), 1.0):
        raise FitError("covariance is not positive semi-definite")
    return float(np.sqrt(cov[0, 0])), float(np.sqrt(cov[1, 1]))
