"""Reconvolution decay fits and the spectral detuning-model fit.

Histogram fits maximize the Poisson likelihood (equivalently minimize the
deviance) of `tcspc.decay_terms`, the sum of IRF-convolved exponentials plus a
flat background that `tcspc.expected_curve` also evaluates: the fit model and
the generator are one function, and the fits' only entry to the model. A
component's unit curve is its curve at amplitude 1 and background 0.

A histogram fit evaluates its model only on the counted span: the bins up to
the last one that holds counts, and at least up to where every admissible
component is its plain exponential (past t0 + 2 FWHM + `irf.far_offset` of
the shortest lifetime). The empty bins after that form one merged bin, whose
expected count and Jacobian `tcspc.decay_terms` sums in closed form. This is
exact: a Poisson likelihood treats a run of empty bins like one bin holding
their summed expectation, so the deviance and its gradient are unchanged,
and empty bins carry no weight in the curvature, which sums over the bins
that hold counts. Only the damping scale of the Levenberg-Marquardt loop
sees the merged bin as one. A histogram with counts in its last bin has no
merged bin. The reported statistic, covariance and point count come from
one evaluation on every bin at the optimum.

One engine, `_minimize`, serves every fit: a bounded Levenberg-Marquardt loop
on the natural parameters with an analytic Jacobian (from `decay_terms` for
histograms), one model-and-Jacobian evaluation per trial point and no
finite differences. Amplitudes and the background are linear and bounded at
0, so a vanished component is an active bound rather than a parameter
drifting off; lifetimes are bounded below by a tenth of the IRF width and the
IRF shift t0 to +-2 FWHM. The two-component fit starts from the
one-component optimum with the added amplitude at 0, so its deviance never
exceeds the mono deviance. Each fit reports why the loop stopped
(`stop_reason`: step, gradient, stationary or budget); only budget means not
converged. Uncertainties come from the inverse Fisher information at the
optimum; that of beta = 1 - tau_fast/tau_slow follows by the delta method.

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
from .cavity import (CavityMode, coupling_efficiency, enhanced_lifetime,
                     lifetime_ratio_multimode, lorentzian_response)
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
    errors and goodness derive from stop reason, covariance and statistic;
    `extras` holds the figures derived from the estimates (none for one
    component, beta and its error for two, per-mode figures for a scan)."""

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


def _require_finite(wavelengths, values, problem):
    """ValueError at the first scan point where `values` is not finite,
    described by `problem(index)`."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = bad[0]
        raise ValueError(f"scan point {k} at {float(wavelengths[k])!r} nm: {problem(k)}")


@dataclass(frozen=True, eq=False)
class SpectralScan:
    """Lifetime vs wavelength points, with uncertainties and the free-space
    lifetime `reference_tau0` (ps, the same at every wavelength) when known.
    Lifetimes and uncertainties must be finite and positive."""

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
        _require_finite(w, t, lambda k: f"lifetime {float(t[k])!r} ps is not finite")
        if np.any(t <= 0):
            raise ValueError("lifetimes must be positive")
        object.__setattr__(self, "wavelengths", w)
        object.__setattr__(self, "lifetimes", t)
        if self.errors is not None:
            e = np.asarray(self.errors, dtype=float)
            if e.shape != w.shape or np.any(e <= 0):
                raise ValueError("errors must be positive and congruent")
            _require_finite(w, e, lambda k: f"uncertainty {float(e[k])!r} ps is not finite")
            object.__setattr__(self, "errors", e)


def poisson_deviance(counts: np.ndarray, mu: np.ndarray) -> float:
    """2 * sum[mu - y + y*ln(y/mu)], the Poisson likelihood-ratio statistic."""
    return _deviance(counts)(mu)


def _deviance(counts):
    """`poisson_deviance` of the fixed `counts` as a function of mu: the terms
    that depend on the counts alone (the nonzero bins and their sum) are
    computed once, here."""
    y = np.asarray(counts, dtype=float)
    seen = np.flatnonzero(y)
    y_seen = y[seen]
    y_total = y_seen.sum()

    def deviance(mu):
        mu = np.maximum(mu, 1e-300)
        return 2.0 * float(mu.sum() - y_total + y_seen @ np.log(y_seen / mu.take(seen)))

    return deviance


def _gauss_newton(x, mu, J, y, lower, upper, weights=None, seen=None):
    """Free coordinates, gradient, normal matrix, damping scale and the
    Gauss-Newton step (None if the normal matrix is singular) there.

    The normal matrix weighs each point by the observed curvature: y/mu^2 for
    the Poisson deviance (its exact Hessian in the linear parameters), summed
    over the points `seen` that hold counts (by default all nonzero y; the
    others weigh 0), the weights for chi-square. The damping scale is the
    diagonal of the Fisher information (weights 1/mu), which stays positive
    where counts are zero. A coordinate is free unless it sits at a bound
    that its gradient pushes against, or does not move the model at all (a
    lifetime whose amplitude is zero).
    """
    if weights is None:
        inv_mu = 1.0 / np.maximum(mu, MU_FLOOR)
        residual = 1.0 - y * inv_mu
    else:
        residual = -weights * (y - mu)
        inv_mu = weights
    grad = 2.0 * (J @ residual)
    free = J.any(axis=1) & ~((x <= lower) & (grad > 0)) & ~((x >= upper) & (grad < 0))
    g = grad[free]
    Jf = J if free.all() else J[free]  # the copy only when a coordinate is held
    if weights is None:
        seen = np.flatnonzero(y) if seen is None else seen
        Js = Jf.take(seen, axis=1)
        N = 2.0 * ((Js * (y.take(seen) * inv_mu.take(seen) ** 2)) @ Js.T)
    else:
        N = 2.0 * ((Jf * weights) @ Jf.T)
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
    and projected onto the bounds. Returns
    (x, mu, J, statistic, iterations, stop_reason) with stop_reason one of
    STOP_REASONS:
      step        the Gauss-Newton step on the free coordinates is negligible;
      gradient    its predicted reduction of the statistic is negligible;
      stationary  no trial point changes the statistic beyond round-off;
      budget      MAX_ITERATIONS iterations (or damping) exhausted.
    """
    poisson = weights is None
    weights, weight_scale = (None, 1.0) if poisson else _scaled_weights(weights)
    deviance = _deviance(y) if poisson else None
    seen = np.flatnonzero(y) if poisson else None

    def statistic(mu):
        if mu is None:
            return np.inf
        if poisson:
            return deviance(mu)
        return float(weights @ (y - mu) ** 2)

    x = np.minimum(np.maximum(np.asarray(x0, dtype=float), lower), upper)
    mu, J = initial if initial is not None else evaluate(x)
    stat = statistic(mu)
    damping = 1e-3
    stop = "budget"
    iterations = 0
    while iterations < MAX_ITERATIONS:
        iterations += 1
        free, g, N, scale, newton = _gauss_newton(x, mu, J, y, lower, upper, weights, seen)
        if newton is not None:
            if 0.0 <= -0.5 * float(g @ newton) <= DECREMENT_TOLERANCE * (1.0 + stat):
                stop = "gradient"
                break
            if (np.abs(newton) <= STEP_TOLERANCE * (np.abs(x[free]) + 1.0)).all():
                stop = "step"
                break
        growth = 2.0
        smallest_change = np.inf
        accepted = False
        while damping <= 1e13:
            damped = N.copy()
            damped.flat[:: len(N) + 1] += damping * scale
            try:
                delta = np.linalg.solve(damped, -g)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.isfinite(delta).all():
                candidate = x.copy()
                candidate[free] += delta
                np.maximum(candidate, lower, out=candidate)
                np.minimum(candidate, upper, out=candidate)
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
    head = np.sort(y[: max(3, peak // 2)])
    # The median of the head, as np.median gives it; np.median itself would
    # import numpy.ma on its first call, 10 ms of every fitting process.
    median = 0.5 * (head[(len(head) - 1) // 2] + head[len(head) // 2])
    # Started above zero: the Gauss-Newton steps approach a near-zero
    # background from below only in small geometric steps.
    return max(float(median), 0.1)


def _require_points(n_points, n_params):
    if n_points <= n_params:
        raise ValueError(f"{n_points} data points cannot determine {n_params} fit parameters")


class _Reconvolution:
    """`tcspc.decay_terms` on one histogram's counted span, and its
    parameters' bounds.

    The fit arrays `t` and `y` end at the last bin that holds counts, or,
    if that comes first, one bin past t0 + 2 FWHM + `irf.far_offset` of the
    shortest lifetime: from there on every admissible component is its plain
    exponential. The empty bins after the span, if any, are one merged bin
    (`tail`, the last entry of `y`, which is 0).
    """

    def __init__(self, hist: TransientHistogram, n_components: int):
        n_params = 2 * n_components + 2
        _require_points(hist.grid.n_bins, n_params)
        self.irf = hist.irf
        self.hist = hist
        centers = hist.grid.centers()
        span = centers[-1] - centers[0] + hist.grid.bin_width
        t0_bound = 2.0 * hist.irf.fwhm
        self.lower = np.array([0.0, 0.1 * hist.irf.sigma] * n_components + [-t0_bound, 0.0])
        self.upper = np.array([np.inf, 100.0 * span] * n_components + [t0_bound, np.inf])
        self.centers = centers
        self.counts = hist.counts.astype(float)  # every bin
        seen = np.flatnonzero(self.counts)
        far = hist.irf.t0 + t0_bound + hist.irf.far_offset(self.lower[1])
        end = max(int(seen[-1]) + 1 if seen.size else 0,
                  int(centers.searchsorted(far, "right")) + 1)
        self.t = centers[:end]
        self.y = self.counts[:end]
        self.tail = None
        if end < len(centers):
            self.tail = (hist.grid.bin_width, len(centers) - end)
            self.y = np.append(self.y, 0.0)

    def __call__(self, x):
        return tcspc.decay_terms(self.t, self.irf, x, self.tail)

    def result(self, model, names, x, iterations, stop):
        """`_fit_result` with the statistic, covariance and point count from
        `decay_terms` on every bin at `x`."""
        mu, J = tcspc.decay_terms(self.centers, self.irf, x)
        warnings = []
        if self.hist.total_counts < LOW_STATISTICS_COUNTS:
            warnings.append(f"low statistics: total counts {self.hist.total_counts} "
                            f"< {LOW_STATISTICS_COUNTS}")
        return _fit_result(model, names, x, mu, J, poisson_deviance(self.counts, mu),
                           iterations, stop, warnings=warnings)


def _fit_result(model, names, x, mu, J, statistic, iterations, stop, weights=None,
                warnings=(), extras=None):
    """The FitResult at the end of `_minimize`; raises FitConvergenceError,
    carrying it, unless the loop converged.

    `weights` None marks a Poisson-deviance fit, else a weighted chi-square
    with these weights. A two-component result lists the faster component
    first and carries beta = 1 - tau_fast/tau_slow and its error (None where
    the covariance gives it no finite value); a degenerate (unidentifiable)
    pair wanders a flat likelihood valley and is returned flagged rather
    than raised, since the flag explains the stall.
    """
    warnings = list(warnings)
    extras = dict(extras or {})
    covariance = _covariance(J, mu, weights)
    degenerate = False
    if names == BI_NAMES:
        if x[1] > x[3]:
            perm = [2, 3, 0, 1, 4, 5]
            x = x[perm]
            covariance = covariance[np.ix_(perm, perm)]
        fast, slow = float(x[1]), float(x[3])
        grad = np.array([0.0, -1.0 / slow, 0.0, fast / slow**2, 0.0, 0.0])  # of beta
        extras["beta"] = coupling_efficiency(fast, slow)
        with np.errstate(invalid="ignore", over="ignore"):  # the covariance may hold inf
            variance = float(grad @ covariance @ grad)
        extras["beta_std_error"] = (float(np.sqrt(max(variance, 0.0)))
                                    if np.isfinite(variance) else None)
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
        extras=extras,
    )
    if not result.converged and not degenerate:
        raise FitConvergenceError(
            f"{model} fit did not converge in {iterations} iterations ({stop})",
            result,
        )
    return result


def _mono_minimum(model: _Reconvolution):
    """`_minimize` of the one-component model from its tail-regression start."""
    y = model.counts
    bg0 = _background_guess(y)
    tau0 = _tail_lifetime_guess(model.centers, y, model.hist.grid.bin_width)
    amp0 = max(y.sum() - bg0 * len(y), 1.0) / model(np.array([1.0, tau0, 0.0, 0.0]))[0].sum()
    return _minimize(np.array([amp0, tau0, 0.0, bg0]), model, model.y, model.lower, model.upper)


def fit_monoexponential(hist: TransientHistogram) -> FitResult:
    """Poisson reconvolution fit of one decay component plus background.

    Free parameters: amplitude and background (linear, bounded at 0), the
    lifetime, and the IRF shift (bounded to +-2 FWHM). Raises
    FitConvergenceError (carrying the last iterate) if the iteration budget
    is exhausted.
    """
    model = _Reconvolution(hist, 1)
    x, _, _, _, iterations, stop = _mono_minimum(model)
    return model.result("monoexponential", MONO_NAMES, x, iterations, stop)


def _nested_biexponential(model: _Reconvolution, mono) -> FitResult:
    """Two-component fit started from the one-component optimum `mono`, the
    (x, mu, J) of `_mono_minimum` on the same histogram.

    The second component enters with amplitude 0, so the start reproduces
    the mono deviance exactly and the fit can only improve on it. Its
    lifetime is the grid point (in units of the mono lifetime) whose first
    Gauss-Newton step promises the largest deviance reduction. At each grid
    point the model is the mono (mu, J) with the new component's amplitude
    row and a zero lifetime row on top: what `model` gives there.
    """
    x_mono, mu, J_mono = mono
    best = None
    for factor in SECOND_LIFETIME_GRID:
        lifetime = min(max(factor * x_mono[1], model.lower[1]), model.upper[1])
        x0 = np.array([0.0, lifetime, *x_mono])
        unit = model(np.array([1.0, lifetime, x_mono[2], 0.0]))[0]
        J = np.vstack([unit, np.zeros_like(unit), J_mono])
        _, g, _, _, newton = _gauss_newton(x0, mu, J, model.y, model.lower, model.upper)
        gain = 0.0 if newton is None else -float(g @ newton)
        if best is None or gain > best[0]:
            best = (gain, x0, (mu, J))
    _, x0, initial = best
    x, _, _, _, iterations, stop = _minimize(
        x0, model, model.y, model.lower, model.upper, initial=initial
    )
    return model.result("biexponential", BI_NAMES, x, iterations, stop)


def fit_biexponential(hist: TransientHistogram) -> FitResult:
    """Poisson reconvolution fit of two decay components plus background.

    Started from the monoexponential optimum (its last iterate, if that fit
    does not converge), so its deviance never exceeds the mono fit's.
    Components are reported with lifetime_fast_ps < lifetime_slow_ps. A
    lifetime ratio below 1.2 is flagged as unidentifiable in `warnings`.
    """
    mono_model, model = _Reconvolution(hist, 1), _Reconvolution(hist, 2)
    return _nested_biexponential(model, _mono_minimum(mono_model)[:3])


def select_model(hist: TransientHistogram) -> ModelSelection:
    """Likelihood-ratio choice between one and two decay components.

    Prefers the biexponential only when it improves the deviance by more than
    `SELECTION_THRESHOLD`; ties go to the monoexponential.
    """
    model, bi_model = _Reconvolution(hist, 1), _Reconvolution(hist, 2)
    x, mu, J, _, iterations, stop = _mono_minimum(model)
    mono = model.result("monoexponential", MONO_NAMES, x, iterations, stop)
    bi = _nested_biexponential(bi_model, (x, mu, J))
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

    The result's extras report, per mode, the on-resonance lifetime ratio
    r_m = F_m/3 + alpha (and the largest), lifetime tau0 / r_m and coupling
    efficiency beta_m = 1 - alpha / r_m (1 - tau_res/tau_off: tau0 cancels);
    the last two are None for a mode with r_m = 0 (F_m and alpha both 0).
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
        _require_finite(lam, weights, lambda k: f"uncertainty {float(scan.errors[k])!r} ps "
                        "gives a non-finite weight 1/sigma^2")
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
    _require_finite(lam, rate_scale, lambda k: f"lifetime {float(y[k])!r} ps gives a "
                    "non-finite rate weight tau^2/(sigma*tau0)")
    design = np.vstack([shapes, np.ones_like(lam)])
    n_params = len(design)
    _require_points(len(y), n_params)
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
    alpha = float(x[-1])
    ratios = [lifetime_ratio_multimode(m.lambda_c, [m], [fp], alpha)
              for m, fp in zip(modes, x[:-1])]
    # A mode whose F_m and alpha both end on their bound 0 has ratio 0: no
    # lifetime on its resonance and no beta (None).
    extras = {
        "modes_used": [(m.lambda_c, m.q_factor) for m in modes],
        "tau_on_resonance_ps": [enhanced_lifetime(tau0, r) if r > 0 else None for r in ratios],
        "lifetime_ratio_per_mode": ratios,
        "lifetime_ratio_max": max(ratios),
        "beta_per_mode": [1.0 - alpha / r if r > 0 else None for r in ratios],
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
    Deterministic for a fixed seed. A lifetime that is not finite (a ratio
    of 0, or a product that overflows) fails in `SpectralScan` as a
    ValueError, with no warning: a true one makes its sample or its
    uncertainty infinite.
    """
    lam = np.asarray(wavelengths, dtype=float)
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        ratio = lifetime_ratio_multimode(lam, list(modes), list(fps), alpha)
        tau_true = float(reference_tau0) / ratio
        tau = tau_true * (1.0 + noise_fraction * rng.standard_normal(lam.shape))
        tau = np.maximum(tau, 1e-9)
        errors = noise_fraction * tau_true if noise_fraction > 0 else None
    return SpectralScan(
        wavelengths=lam,
        lifetimes=tau,
        errors=errors,
        reference_tau0=reference_tau0,
    )
