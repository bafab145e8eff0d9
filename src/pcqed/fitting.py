"""Reconvolution decay fits and the spectral detuning-model fit.

Histogram fits maximize the Poisson likelihood (equivalently minimize the
deviance) of a sum of IRF-convolved exponentials plus a flat background, built
on the kernel behind `tcspc.expected_curve`: the fit model and the generator
share one definition.

One engine, `_minimize`, serves every fit: a bounded Levenberg-Marquardt loop
on the natural parameters with an analytic Jacobian (`tcspc.exp_gauss_terms`
for histograms), one model-and-Jacobian evaluation per trial point and no
finite differences. Amplitudes and the background are linear and bounded at
0, so a vanished component is an active bound rather than a parameter
drifting off; lifetimes are bounded below by a tenth of the IRF width and the
IRF shift t0 to +-2 FWHM. The two-component fit starts from the
one-component optimum with the added amplitude at 0, so its deviance never
exceeds the mono deviance. Each fit reports why the loop stopped
(`stop_reason`: step, gradient, stationary or budget); only budget means not
converged. Uncertainties come from the inverse Fisher information at the
optimum.

The spectral fit estimates the per-mode enhancement factors and the residual
decay fraction alpha from a lifetime-vs-wavelength scan, using the same
Lorentzian response as `cavity.lifetime_ratio_multimode`. The same engine
minimizes the weighted chi-square in tau, started from its own non-negative
solve of the model, linear in rate space.

Every fit needs more data points than free parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tcspc
from .cavity import CavityMode, lifetime_ratio_multimode, lorentzian_response
from .tcspc import TransientHistogram

__all__ = [
    "FitResult",
    "FitConvergenceError",
    "ModelSelection",
    "SpectralScan",
    "fit_monoexponential",
    "fit_biexponential",
    "select_model",
    "fit_spectral_model",
    "synthesize_spectral_scan",
    "poisson_deviance",
]

MAX_ITERATIONS = 200
STEP_TOLERANCE = 1e-8  # Gauss-Newton step relative to |parameter| + 1
DECREMENT_TOLERANCE = 1e-9  # predicted reduction relative to 1 + statistic
STOP_REASONS = ("step", "gradient", "stationary", "budget")
CONVERGED_STOPS = ("step", "gradient", "stationary")
MU_FLOOR = 1e-12  # expected counts below this weigh as this in the curvature
# Second-component lifetimes tried by the nested two-component start, in units
# of the one-component lifetime.
SECOND_LIFETIME_GRID = (1.0 / 30.0, 0.1, 1.0 / 3.0, 3.0)
SELECTION_THRESHOLD = 9.0  # deviance improvement required to prefer two components
DEGENERATE_LIFETIME_RATIO = 1.2
LOW_STATISTICS_COUNTS = 1000
MONO_NAMES = ("amplitude", "lifetime_ps", "t0_shift_ps", "background")
BI_NAMES = (
    "amplitude_fast",
    "lifetime_fast_ps",
    "amplitude_slow",
    "lifetime_slow_ps",
    "t0_shift_ps",
    "background",
)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Estimates, uncertainties and diagnostics of one fit; the verdict,
    errors and goodness derive from stop reason, covariance and statistic."""

    model: str  # "monoexponential", "biexponential" or "spectral-detuning"
    parameters: dict
    parameter_order: tuple
    covariance: np.ndarray
    statistic: float
    n_points: int
    iterations: int
    stop_reason: str  # one of STOP_REASONS
    warnings: tuple = ()
    extras: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> float:
        return self.parameters[name]

    @property
    def converged(self) -> bool:
        return self.stop_reason in CONVERGED_STOPS

    @property
    def std_errors(self) -> dict:
        std = np.sqrt(np.maximum(np.diag(self.covariance), 0.0))
        return dict(zip(self.parameter_order, map(float, std)))

    @property
    def goodness(self) -> float:  # the statistic per degree of freedom
        return self.statistic / (self.n_points - len(self.parameter_order))

    @property
    def goodness_kind(self) -> str:
        return "weighted-chi-square" if self.model == "spectral-detuning" else "poisson-deviance"


class FitConvergenceError(RuntimeError):
    """Fit did not converge within the iteration budget.

    Carries the last iterate as `result` (with converged=False) for diagnosis.
    """

    def __init__(self, message: str, result: FitResult):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class ModelSelection:
    """Outcome of the mono-vs-biexponential likelihood-ratio decision."""

    choice: str  # "mono" | "bi"
    delta_deviance: float
    mono: FitResult
    bi: FitResult

    @property
    def best(self) -> FitResult:
        return self.mono if self.choice == "mono" else self.bi


@dataclass(frozen=True, eq=False)
class SpectralScan:
    """Lifetime vs wavelength points with the free-space lifetime
    `reference_tau0` (ps, the same at every wavelength) when known."""

    wavelengths: np.ndarray
    lifetimes: np.ndarray
    errors: np.ndarray | None = None
    reference_tau0: float | None = None

    def __post_init__(self):
        w = np.asarray(self.wavelengths, dtype=float)
        t = np.asarray(self.lifetimes, dtype=float)
        if w.ndim != 1 or w.shape != t.shape:
            raise ValueError("wavelengths and lifetimes must be 1D and congruent")
        if np.any(np.diff(w) <= 0):
            raise ValueError("wavelengths must be strictly increasing")
        if np.any(t <= 0):
            raise ValueError("lifetimes must be positive")
        object.__setattr__(self, "wavelengths", w)
        object.__setattr__(self, "lifetimes", t)
        if self.errors is not None:
            e = np.asarray(self.errors, dtype=float)
            if e.shape != w.shape or np.any(e <= 0):
                raise ValueError("errors must be positive and congruent")
            object.__setattr__(self, "errors", e)


def poisson_deviance(counts: np.ndarray, mu: np.ndarray) -> float:
    """2 * sum[mu - y + y*ln(y/mu)], the Poisson likelihood-ratio statistic."""
    mu = np.maximum(mu, 1e-300)
    y = np.asarray(counts, dtype=float)
    seen = np.flatnonzero(y)
    y_seen = y[seen]
    return 2.0 * float(mu.sum() - y_seen.sum() + y_seen @ np.log(y_seen / mu[seen]))


def _gauss_newton(x, mu, J, y, lower, upper, weights=None):
    """Free coordinates, gradient, normal matrix, damping scale and the
    Gauss-Newton step (None if the normal matrix is singular) there.

    The normal matrix weighs each point by the observed curvature: y/mu^2 for
    the Poisson deviance (its exact Hessian in the linear parameters), the
    weights for chi-square. The damping scale is the diagonal of the Fisher
    information (weights 1/mu), which stays positive where counts are zero.
    A coordinate is free unless it sits at a bound that its gradient pushes
    against, or does not move the model at all (a lifetime whose amplitude
    is zero).
    """
    if weights is None:
        inv_mu = 1.0 / np.maximum(mu, MU_FLOOR)
        residual = 1.0 - y * inv_mu
        w = y * inv_mu**2
    else:
        residual = -weights * (y - mu)
        w = inv_mu = weights
    grad = 2.0 * (J @ residual)
    free = J.any(axis=1) & ~((x <= lower) & (grad > 0)) & ~((x >= upper) & (grad < 0))
    g = grad[free]
    Jf = J[free]
    N = 2.0 * ((Jf * w) @ Jf.T)
    scale = 2.0 * ((Jf * Jf) @ inv_mu)
    try:
        newton = np.linalg.solve(N, -g)
    except np.linalg.LinAlgError:
        newton = None
    return free, g, N, scale, newton


def _scaled_weights(weights):
    """Weights over 2**k, and 2**k, for the least k >= 0 that takes them to at
    most 2**512: near 1e308 (sigma ~1e-150) they overflow the normal matrix
    and its damping. Exact, and ordinary weights (k = 0) come back bit for bit."""
    k = max(0, int(np.frexp(weights.max())[1]) - 512)
    return np.ldexp(weights, -k), 2.0**k


def _minimize(x0, evaluate, y, lower, upper, weights=None, initial=None):
    """Bounded Levenberg-Marquardt with an analytic Jacobian.

    Minimizes the Poisson deviance of the counts `y` (weights None) or the
    weighted chi-square. `evaluate(x)` returns the model and its Jacobian,
    shape (parameters, points), once per trial point; `initial` may carry
    that pair for `x0`. Where the model is undefined, `evaluate` returns
    (None, None) and the trial point is rejected like one with a non-finite
    statistic. Steps are taken on the free coordinates of `_gauss_newton`
    and projected onto the bounds. Raises ValueError unless there are more
    points than parameters. Returns
    (x, mu, J, statistic, iterations, stop_reason) with stop_reason one of
    STOP_REASONS:
      step        the Gauss-Newton step on the free coordinates is negligible;
      gradient    its predicted reduction of the statistic is negligible;
      stationary  no trial point changes the statistic beyond round-off;
      budget      MAX_ITERATIONS iterations (or damping) exhausted.
    """
    if len(y) <= len(x0):
        raise ValueError(
            f"{len(y)} data points cannot determine {len(x0)} fit parameters"
        )
    poisson = weights is None
    weights, weight_scale = (None, 1.0) if poisson else _scaled_weights(weights)

    def statistic(mu):
        if mu is None:
            return np.inf
        if poisson:
            return poisson_deviance(y, mu)
        return float(weights @ (y - mu) ** 2)

    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    mu, J = initial if initial is not None else evaluate(x)
    stat = statistic(mu)
    damping = 1e-3
    stop = "budget"
    iterations = 0
    while iterations < MAX_ITERATIONS:
        iterations += 1
        free, g, N, scale, newton = _gauss_newton(x, mu, J, y, lower, upper, weights)
        if newton is not None:
            if 0.0 <= -0.5 * float(g @ newton) <= DECREMENT_TOLERANCE * (1.0 + stat):
                stop = "gradient"
                break
            if np.all(np.abs(newton) <= STEP_TOLERANCE * (np.abs(x[free]) + 1.0)):
                stop = "step"
                break
        growth = 2.0
        smallest_change = np.inf
        accepted = False
        while damping <= 1e13:
            try:
                delta = np.linalg.solve(N + np.diag(damping * scale), -g)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.all(np.isfinite(delta)):
                candidate = x.copy()
                candidate[free] += delta
                candidate = np.clip(candidate, lower, upper)
                mu_new, J_new = evaluate(candidate)
                stat_new = statistic(mu_new)
                if stat_new < stat:
                    # Gain ratio of actual to predicted reduction
                    # (Madsen-Nielsen damping update).
                    taken = (candidate - x)[free]
                    predicted = -float(g @ taken + 0.5 * taken @ N @ taken)
                    if predicted > 0:
                        rho = (stat - stat_new) / predicted
                        damping *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                    else:
                        damping /= 3.0
                    damping = max(damping, 1e-14)
                    accepted = True
                    break
                if np.isfinite(stat_new):
                    smallest_change = min(smallest_change, abs(stat_new - stat))
            damping *= growth
            growth = min(2.0 * growth, 1e4)
        if not accepted:
            if smallest_change <= 1e-9 * max(stat, 1.0):
                stop = "stationary"
            break
        x, mu, J, stat = candidate, mu_new, J_new, stat_new
    return x, mu, J, stat * weight_scale, iterations, stop


def _covariance(J, mu, weights=None):
    """Inverse Fisher information in the natural parameters."""
    w, weight_scale = ((1.0 / np.maximum(mu, MU_FLOOR), 1.0) if weights is None
                       else _scaled_weights(weights))
    fisher = (J * w) @ J.T
    try:
        return np.linalg.inv(fisher) / weight_scale
    except np.linalg.LinAlgError:
        return np.linalg.pinv(fisher) / weight_scale


def _tail_lifetime_guess(t: np.ndarray, y: np.ndarray, bin_width: float) -> float:
    """Log-linear regression on the decay tail; robust fallback on failure."""
    peak = int(np.argmax(y))
    mask = np.zeros(len(y), dtype=bool)
    mask[peak + 5 :] = True
    mask &= y >= 5
    if mask.sum() >= 4:
        slope, _ = np.polyfit(t[mask], np.log(y[mask]), 1, w=np.sqrt(y[mask]))
        if slope < 0:
            return -1.0 / slope
    return max((t[-1] - t[peak]) / 5.0, bin_width)


def _background_guess(y: np.ndarray) -> float:
    peak = int(np.argmax(y))
    head = y[: max(3, peak // 2)]
    # Started above zero: the Gauss-Newton steps approach a near-zero
    # background from below only in small geometric steps.
    return max(float(np.median(head)), 0.1)


class _Reconvolution:
    """Sum of IRF-convolved exponentials plus background for one histogram.

    Parameters are (amplitude, lifetime) per component, then the IRF shift
    and the background; amplitudes and background are linear and bounded at
    0, the shift at +-2 FWHM.
    """

    def __init__(self, hist: TransientHistogram, n_components: int):
        self.hist = hist
        self.y = hist.counts.astype(float)
        self.t = hist.grid.centers()
        self.n = n_components
        span = self.t[-1] - self.t[0] + hist.grid.bin_width
        t0_bound = 2.0 * hist.irf.fwhm
        self.lower = np.array([0.0, 0.1 * hist.irf.sigma] * n_components + [-t0_bound, 0.0])
        self.upper = np.array([np.inf, 100.0 * span] * n_components + [t0_bound, np.inf])

    def __call__(self, x):
        t0 = self.hist.irf.t0 + x[-2]
        sigma = self.hist.irf.sigma
        J = np.empty((len(x), len(self.y)))
        mu = x[-1]
        d_t0 = 0.0
        for k in range(self.n):
            amplitude = x[2 * k]
            g, d_tau, d_shift = tcspc.exp_gauss_terms(self.t, x[2 * k + 1], sigma, t0)
            mu = mu + amplitude * g
            d_t0 = d_t0 + amplitude * d_shift
            J[2 * k] = g
            J[2 * k + 1] = amplitude * d_tau
        J[-2] = d_t0
        J[-1] = 1.0
        return mu, J


def _fit_result(model, names, x, mu, J, statistic, iterations, stop, weights=None,
                warnings=(), extras=None):
    """The FitResult at the end of `_minimize`; raises FitConvergenceError,
    carrying it, unless the loop converged.

    `weights` None marks a Poisson-deviance fit, else a weighted chi-square
    with these weights. A two-component result lists the faster component
    first; a degenerate (unidentifiable) pair wanders a flat likelihood
    valley and is returned flagged rather than raised, since the flag
    explains the stall.
    """
    warnings = list(warnings)
    covariance = _covariance(J, mu, weights)
    degenerate = False
    if names == BI_NAMES:
        if x[1] > x[3]:
            perm = [2, 3, 0, 1, 4, 5]
            x = x[perm]
            covariance = covariance[np.ix_(perm, perm)]
        ratio = x[3] / x[1]
        degenerate = ratio < DEGENERATE_LIFETIME_RATIO
        if degenerate:
            warnings.append(
                f"unidentifiable: lifetime ratio {ratio:.3f} < {DEGENERATE_LIFETIME_RATIO}"
            )
    if np.any(np.diag(covariance) < 0):
        warnings.append("curvature not positive definite; errors unreliable")
    result = FitResult(
        model=model,
        parameters=dict(zip(names, map(float, x))),
        parameter_order=names,
        covariance=covariance,
        statistic=statistic,
        n_points=len(mu),
        iterations=iterations,
        stop_reason=stop,
        warnings=tuple(warnings),
        extras=extras or {},
    )
    if not result.converged and not degenerate:
        raise FitConvergenceError(
            f"{model} fit did not converge in {iterations} iterations ({stop})",
            result,
        )
    return result


def _low_statistics(hist) -> list:
    if hist.total_counts < LOW_STATISTICS_COUNTS:
        return [f"low statistics: total counts {hist.total_counts} < {LOW_STATISTICS_COUNTS}"]
    return []


def fit_monoexponential(hist: TransientHistogram) -> FitResult:
    """Poisson reconvolution fit of one decay component plus background.

    Free parameters: amplitude and background (linear, bounded at 0), the
    lifetime, and the IRF shift (bounded to +-2 FWHM). Raises
    FitConvergenceError (carrying the last iterate) if the iteration budget
    is exhausted.
    """
    model = _Reconvolution(hist, 1)
    bg0 = _background_guess(model.y)
    tau0 = _tail_lifetime_guess(model.t, model.y, hist.grid.bin_width)
    shape = tcspc.exp_gauss_terms(model.t, tau0, hist.irf.sigma, hist.irf.t0)[0]
    amp0 = max(model.y.sum() - bg0 * len(model.y), 1.0) / shape.sum()
    x, mu, J, deviance, iterations, stop = _minimize(
        np.array([amp0, tau0, 0.0, bg0]), model, model.y, model.lower, model.upper
    )
    return _fit_result("monoexponential", MONO_NAMES, x, mu, J, deviance,
                       iterations, stop, warnings=_low_statistics(hist))


def _nested_biexponential(hist, mono: FitResult) -> FitResult:
    """Two-component fit started from the one-component optimum.

    The second component enters with amplitude 0, so the start reproduces
    the mono deviance exactly and the fit can only improve on it. Its
    lifetime is the grid point (in units of the mono lifetime) whose first
    Gauss-Newton step promises the largest deviance reduction.
    """
    model = _Reconvolution(hist, 2)
    p = mono.parameters
    best = None
    for factor in SECOND_LIFETIME_GRID:
        x0 = np.clip(
            np.array([0.0, factor * p["lifetime_ps"], p["amplitude"], p["lifetime_ps"],
                      p["t0_shift_ps"], p["background"]]),
            model.lower, model.upper,
        )
        mu, J = model(x0)
        _, g, _, _, newton = _gauss_newton(x0, mu, J, model.y, model.lower, model.upper)
        gain = 0.0 if newton is None else -float(g @ newton)
        if best is None or gain > best[0]:
            best = (gain, x0, (mu, J))
    _, x0, initial = best
    x, mu, J, deviance, iterations, stop = _minimize(
        x0, model, model.y, model.lower, model.upper, initial=initial
    )
    return _fit_result("biexponential", BI_NAMES, x, mu, J, deviance,
                       iterations, stop, warnings=_low_statistics(hist))


def fit_biexponential(hist: TransientHistogram) -> FitResult:
    """Poisson reconvolution fit of two decay components plus background.

    Started from the monoexponential optimum, so its deviance never exceeds
    the mono fit's. Components are reported with
    lifetime_fast_ps < lifetime_slow_ps. A lifetime ratio below 1.2 is
    flagged as unidentifiable in `warnings`.
    """
    try:
        mono = fit_monoexponential(hist)
    except FitConvergenceError as exc:
        mono = exc.result  # its last iterate is still a valid start
    return _nested_biexponential(hist, mono)


def select_model(hist: TransientHistogram) -> ModelSelection:
    """Likelihood-ratio choice between one and two decay components.

    Prefers the biexponential only when it improves the deviance by more than
    `SELECTION_THRESHOLD`; ties go to the monoexponential.
    """
    mono = fit_monoexponential(hist)
    bi = _nested_biexponential(hist, mono)
    delta = mono.statistic - bi.statistic
    choice = "bi" if delta > SELECTION_THRESHOLD else "mono"
    return ModelSelection(choice=choice, delta_deviance=delta, mono=mono, bi=bi)


def fit_spectral_model(scan: SpectralScan, modes: Sequence[CavityMode]) -> FitResult:
    """Weighted fit of the detuning model to a lifetime-vs-wavelength scan.

    Model: tau(lambda) = tau0 / (sum_m (F_m/3) L_m(lambda) + alpha)
    with L_m the unit-peak Lorentzian of mode m (position and linewidth fixed,
    not fitted). Free parameters are the per-mode enhancements F_m and alpha,
    bounded at 0. The free-space lifetime tau0 is the scan's
    `reference_tau0`. Weights are 1/sigma^2 when the scan carries
    uncertainties, else 1.

    The result's extras report, per mode, the on-resonance lifetime
    tau0 / (F_m/3 + alpha) and the maximal lifetime ratio.
    """
    if not modes:
        raise ValueError("at least one cavity mode is required")
    modes = list(modes)
    if scan.reference_tau0 is None:
        raise ValueError("a tau0 reference is required")
    tau0 = float(scan.reference_tau0)
    lam = scan.wavelengths
    y = scan.lifetimes
    for mode in modes:
        span_lo = lam[0] <= mode.lambda_c - 1.5 * mode.linewidth
        span_hi = lam[-1] >= mode.lambda_c + 1.5 * mode.linewidth
        if not (span_lo and span_hi):
            raise ValueError(
                f"scan must span at least 3 linewidths around the mode at "
                f"{mode.lambda_c} nm"
            )
    if scan.errors is None:
        weights = np.ones_like(y)
    else:
        with np.errstate(over="ignore", divide="ignore"):
            weights = 1.0 / scan.errors**2
        bad = np.flatnonzero(~np.isfinite(weights))
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"scan point {k} at {float(lam[k])!r} nm: uncertainty "
                f"{float(scan.errors[k])!r} ps gives a non-finite weight 1/sigma^2"
            )
    shapes = np.array(
        [lorentzian_response(lam, m.lambda_c, m.linewidth) / 3.0 for m in modes]
    )

    # Start: the model is linear in (F_m, alpha) in rate space,
    # tau0/tau = sum_m (F_m/3) L_m + alpha; solve it with non-negative
    # parameters and the tau-space weights carried over to rates. The
    # solution does not depend on a common weight scale, and dividing by the
    # largest scale keeps the squared weights finite.
    with np.errstate(over="ignore"):
        rate_scale = y**2 * np.sqrt(weights) / tau0
    bad = np.flatnonzero(~np.isfinite(rate_scale))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"scan point {k} at {float(lam[k])!r} nm: lifetime {float(y[k])!r} ps "
            "gives a non-finite rate weight tau^2/(sigma*tau0)"
        )
    design = np.vstack([shapes, np.ones_like(lam)])
    n_params = len(design)
    lower, upper = np.zeros(n_params), np.full(n_params, np.inf)
    x0 = _minimize(lower, lambda x: (x @ design, design), tau0 / y, lower, upper,
                   weights=(rate_scale / rate_scale.max()) ** 2)[0]
    x0[-1] = max(x0[-1], 1e-6)

    def model(x):
        ratio = lifetime_ratio_multimode(lam, modes, x[:-1], x[-1])
        if not np.all(ratio > 0):  # every F_m and alpha at 0: tau is infinite
            return None, None
        mu = tau0 / ratio
        d_ratio = -mu / ratio
        return mu, np.vstack([shapes * d_ratio, d_ratio])

    x, mu, J, chi2, iterations, stop = _minimize(x0, model, y, lower, upper, weights=weights)
    if len(modes) == 1:
        names = ("purcell_factor", "alpha")
    else:
        names = tuple(f"purcell_factor_{i + 1}" for i in range(len(modes))) + ("alpha",)
    ratios = [float(fp) / 3.0 + float(x[-1]) for fp in x[:-1]]
    extras = {
        "modes_used": [(m.lambda_c, m.q_factor) for m in modes],
        "tau_on_resonance_ps": [tau0 / r for r in ratios],
        "lifetime_ratio_per_mode": ratios,
        "lifetime_ratio_max": max(ratios),
    }
    return _fit_result("spectral-detuning", names, x, mu, J, chi2, iterations, stop,
                       weights=weights, extras=extras)


def synthesize_spectral_scan(
    modes: Sequence[CavityMode],
    fps: Sequence[float],
    alpha: float,
    reference_tau0: float,
    wavelengths: np.ndarray,
    noise_fraction: float,
    seed: int,
) -> SpectralScan:
    """Sample a noisy lifetime scan from the detuning model.

    The true tau(lambda) from `lifetime_ratio_multimode` gets multiplicative
    Gaussian noise of relative size `noise_fraction`; reported uncertainties
    are noise_fraction * tau_true. `reference_tau0` is tau0 in ps.
    Deterministic for a fixed seed.
    """
    lam = np.asarray(wavelengths, dtype=float)
    ratio = lifetime_ratio_multimode(lam, list(modes), list(fps), alpha)
    tau_true = float(reference_tau0) / ratio
    rng = np.random.default_rng(seed)
    tau = tau_true * (1.0 + noise_fraction * rng.standard_normal(lam.shape))
    tau = np.maximum(tau, 1e-9)
    return SpectralScan(
        wavelengths=lam,
        lifetimes=tau,
        errors=noise_fraction * tau_true if noise_fraction > 0 else None,
        reference_tau0=reference_tau0,
    )
