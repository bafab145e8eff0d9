"""Synthetic time-correlated single-photon-counting histograms.

A decay model (sum of exponentials plus a flat background) is convolved with a
Gaussian instrument response using the closed-form exponentially-modified
Gaussian per component, then sampled with photon-counting statistics: a
multinomial draw for the signal (so the requested total is reproduced exactly)
plus independent per-bin Poisson background. Times are in ps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import erfc, erfcx

__all__ = [
    "FWHM_TO_SIGMA",
    "InstrumentResponse",
    "DecayModel",
    "BinGrid",
    "TransientHistogram",
    "exp_gauss_terms",
    "expected_curve",
    "sample_histogram",
]

# Gaussian FWHM to standard deviation, rounded from 2 sqrt(2 ln 2) = 2.35482.
# Kept rounded on purpose: every seeded histogram and fit is built on it, and
# the exact value would move sigma by only 0.008%.
FWHM_TO_SIGMA = 2.355


@dataclass(frozen=True)
class InstrumentResponse:
    """Gaussian instrument response with FWHM and peak position in ps."""

    fwhm: float
    t0: float = 0.0

    def __post_init__(self):
        if not self.fwhm > 0:
            raise ValueError(f"fwhm must be positive, got {self.fwhm}")

    @property
    def sigma(self) -> float:
        return self.fwhm / FWHM_TO_SIGMA


@dataclass(frozen=True)
class DecayModel:
    """Multi-exponential decay: (amplitude, lifetime_ps) components + background.

    Amplitudes are peak heights of the unconvolved exponentials (counts per
    bin); the background is a constant expectation per bin. Lifetimes must be
    distinct when there is more than one component, otherwise the amplitudes
    are not identifiable.
    """

    components: Sequence[Sequence[float]]
    background: float = 0.0

    def __post_init__(self):
        comps = tuple((float(a), float(tau)) for a, tau in self.components)
        if not comps:
            raise ValueError("need at least one decay component")
        if all(a == 0.0 for a, _ in comps):
            raise ValueError("amplitudes must not all be zero")
        for amp, tau in comps:
            if amp < 0:
                raise ValueError(f"amplitudes must be >= 0, got {amp}")
            if not tau > 0:
                raise ValueError(f"lifetimes must be positive, got {tau}")
        lifetimes = [tau for _, tau in comps]
        if len(set(lifetimes)) != len(lifetimes):
            raise ValueError("lifetimes must be distinct for identifiability")
        if self.background < 0:
            raise ValueError(f"background must be >= 0, got {self.background}")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class BinGrid:
    """Uniform time binning: n_bins bins of bin_width ps starting at t_start."""

    bin_width: float
    n_bins: int
    t_start: float = 0.0

    def __post_init__(self):
        if not self.bin_width > 0:
            raise ValueError(f"bin_width must be positive, got {self.bin_width}")
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {self.n_bins}")

    def centers(self) -> np.ndarray:
        return self.t_start + (np.arange(self.n_bins) + 0.5) * self.bin_width


@dataclass(frozen=True, eq=False)
class TransientHistogram:
    """Binned photon counts on their bin grid, with the instrument response."""

    counts: np.ndarray
    grid: BinGrid
    irf: InstrumentResponse

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 1:
            raise ValueError("counts must be one-dimensional")
        if len(counts) != self.grid.n_bins:
            raise ValueError(f"{len(counts)} counts on a grid of {self.grid.n_bins} bins")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if counts.dtype.kind == "f" and np.any(counts != np.round(counts)):
            raise ValueError("counts must be integers")
        object.__setattr__(self, "counts", counts.astype(np.int64))

    @property
    def total_counts(self) -> int:
        return int(self.counts.sum())


# For z < -6, erfc(z) == 2.0 exactly in float64 (erfc(6) ~ 2e-17 is below half
# an ulp of 2), so beyond that point the EMG is the plain shifted exponential.
ERFC_SATURATION_Z = -6.0
# Tail exponents below this are flushed to an exact zero (exp(-700) ~ 1e-304):
# numpy's exp leaves its fast path for inputs near the underflow threshold.
EXP_FLOOR = -700.0


def _emg(u, sigma, inv_tau, half_amplitude):
    """Masked EMG kernel on offsets u = t - t0.

    Returns (curve, near, gauss): the special functions are evaluated only on
    the bins `near` (z >= -6, the few bins around the instrument response);
    every later bin gets the exact closed form 2*half_amplitude*exp(s^2/2tau^2
    - u/tau). `gauss` is exp(-u^2/2s^2) on the near bins.
    """
    u_cut = sigma * (sigma * inv_tau - np.sqrt(2.0) * ERFC_SATURATION_Z)
    near = np.flatnonzero(u <= u_cut)
    un = u[near]
    z = (sigma * inv_tau - un / sigma) / np.sqrt(2.0)
    gauss = np.exp(-0.5 * (un / sigma) ** 2)
    exponent = 0.5 * (sigma * inv_tau) ** 2 - u * inv_tau
    # The near bins can overflow here; they are overwritten below.
    with np.errstate(over="ignore", invalid="ignore"):
        out = half_amplitude * np.exp(np.maximum(exponent, EXP_FLOOR)) * 2.0
    out[exponent < EXP_FLOOR] = 0.0
    early = z >= 0
    late = ~early
    values = np.empty_like(un)
    values[early] = half_amplitude * gauss[early] * erfcx(z[early])
    values[late] = half_amplitude * np.exp(exponent[near][late]) * erfc(z[late])
    out[near] = values
    return out, near, gauss


def exp_gauss_terms(
    t: np.ndarray, lifetime: float, sigma: float, t0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit-amplitude EMG g and its partial derivatives dg/dtau and dg/dt0.

    With u = t - t0 and N(u) the unit-area Gaussian of width s,
    dg/dtau = (g (u - s^2/tau) + s^2 N) / tau^2 and dg/dt0 = g/tau - N.
    Beyond the masked bins N < g exp(-36) / (s sqrt(2 pi)), below the float64
    resolution of either term, so N is added only on the masked bins.
    """
    u = np.asarray(t, dtype=float) - t0
    inv_tau = np.float64(1.0) / lifetime
    g, near, gauss = _emg(u, sigma, inv_tau, 0.5)
    d_tau = g * ((u - sigma**2 * inv_tau) * inv_tau**2)
    d_t0 = g * inv_tau
    normal = gauss / (sigma * np.sqrt(2.0 * np.pi))
    d_tau[near] += (sigma * inv_tau) ** 2 * normal
    d_t0[near] -= normal
    return g, d_tau, d_t0


def expected_curve(
    model: DecayModel, irf: InstrumentResponse, grid: BinGrid
) -> np.ndarray:
    """Per-bin expected counts: IRF-convolved exponentials plus background.

    Each component is the closed-form EMG (A/2) exp(s^2/(2 tau^2) - u/tau)
    erfc((s^2/tau - u) / (sqrt(2) s)) with u = t - t0 (`_emg`), evaluated at
    bin centers; everywhere >= model.background.
    """
    u = grid.centers() - irf.t0
    mu = np.full(grid.n_bins, float(model.background))
    for amplitude, lifetime in model.components:
        if amplitude > 0:
            # float64 ops saturate instead of raising
            mu = mu + _emg(u, irf.sigma, np.float64(1.0) / lifetime, 0.5 * amplitude)[0]
    return mu


def sample_histogram(
    curve: np.ndarray,
    total_counts: int,
    seed: int,
    *,
    grid: BinGrid,
    irf: InstrumentResponse,
    background_rate: float = 0.0,
) -> TransientHistogram:
    """Draw a photon-counting histogram from an expected curve.

    `total_counts` signal photons are distributed multinomially over the
    normalized curve, so with zero background the histogram total is exact;
    `background_rate` adds independent Poisson counts per bin. Deterministic
    for a fixed seed.
    """
    curve = np.asarray(curve, dtype=float)
    if curve.ndim != 1 or len(curve) != grid.n_bins:
        raise ValueError("curve length must match the bin grid")
    if np.any(curve < 0):
        raise ValueError("curve must be non-negative")
    total = curve.sum()
    if not total > 0:
        raise ValueError("curve must have positive total weight")
    if not total_counts > 0:
        raise ValueError(f"total_counts must be positive, got {total_counts}")
    if background_rate < 0:
        raise ValueError(f"background_rate must be >= 0, got {background_rate}")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(int(total_counts), curve / total)
    if background_rate > 0:
        counts = counts + rng.poisson(background_rate, grid.n_bins)
    return TransientHistogram(counts=counts, grid=grid, irf=irf)
