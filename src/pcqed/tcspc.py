"""Synthetic time-correlated single-photon-counting histograms.

A decay model (sum of exponentials plus a flat background) is convolved with a
Gaussian instrument response using the closed-form exponentially-modified
Gaussian per component, then sampled with photon-counting statistics: a
multinomial draw for the signal (so the requested total is reproduced exactly)
plus independent per-bin Poisson background. Times are in ps. `decay_terms`
is the one evaluation of the model and the only caller of `_emg`:
`expected_curve` takes its curve, and the histogram fits of `fitting` its
curve and Jacobian. Past `far_offset` a component is its plain exponential,
so `decay_terms` can also sum a run of such bins in closed form (a geometric
series) into one merged bin: the fits use it for the empty tail of a
histogram after its last count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "FWHM_TO_SIGMA",
    "InstrumentResponse",
    "DecayModel",
    "BinGrid",
    "TransientHistogram",
    "decay_terms",
    "expected_curve",
    "sample_histogram",
]

# Gaussian FWHM to standard deviation, rounded from 2 sqrt(2 ln 2) = 2.35482.
# Kept rounded on purpose: every seeded histogram and fit is built on it, and
# the exact value would move sigma by only 0.008%.
FWHM_TO_SIGMA = 2.355

# A measurement's physical ranges, each closed: the config and the histogram
# reader hold every number to them, and in them `decay_terms` forms normal floats.
FWHM_PS = (0.1, 1e6)  # IRF widths: 100 fs to 1 us
TIME_PS = (-1e9, 1e9)  # an IRF peak or a grid start: within 1 ms of time zero
BIN_WIDTH_PS = (0.01, 1e6)  # 10 fs to 1 us
N_BINS = (1, 2**16)  # a TCSPC card's channel count
LIFETIME_PS = (1e-3, 1e12)  # 1 fs, far below any IRF, to 1 s
SIGNAL_COUNTS = (1, 10**12)  # photons drawn: days of counting at 10 MHz
BACKGROUND_RATE = (0.0, 1e9)  # mean background counts per bin
TOTAL_COUNTS = (1, 10**14)  # in a histogram, or a bin: signal and background, 6.6e13 at most


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

    def far_offset(self, tau: float) -> float:
        """The offset t - t0 past which `decay_terms` evaluates a component of
        lifetime `tau` as its plain exponential: erfc == 2 and the Gaussian
        terms are below resolution there. It grows as tau shrinks."""
        return _far_offset(self.sigma, self.sigma * (1.0 / tau))


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

# The rational approximations of Cephes `ndtr.c` (Moshier, *Methods and
# Programs for Mathematical Functions*, 1989), highest power first: erf(x) =
# x T(x^2) / U(x^2) for x < 1, erfc(x) = exp(-x^2) P(x) / Q(x) on [1, 8) and
# exp(-x^2) R(x) / S(x) from 8 on. Q, S and U have a leading 1.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)


def _erfcx_rows() -> np.ndarray:
    """Numerator and denominator rows of erfcx's three branches on the powers
    v^10, ..., v^0 of v = x (x < 1) or v = 1/x (x >= 1): (U - x T)/U times
    exp(x^2), P/Q and R/S with both sides divided by x^8 and x^6."""
    rows = np.zeros((6, 11))
    rows[0, 0::2] = rows[1, 0::2] = _U
    rows[0, 1::2] = np.negative(_T)
    rows[2, 2:], rows[3, 2:] = _P[::-1], _Q[::-1]
    rows[4, 4:10], rows[5, 4:] = _R[::-1], _S[::-1]
    return rows


_ERFCX_ROWS = _erfcx_rows()
_ERFCX_BREAKS = np.array([1.0, 8.0])  # the branches x < 1, [1, 8), >= 8


def _erfcx(x: np.ndarray) -> np.ndarray:
    """exp(x^2) erfc(x) for a 1-D array of x >= 0, from the Cephes rationals.

    The six polynomials are one matrix product with the powers of
    v = min(x, 1/x), highest first, so no power exceeds 1. Within 8 ulp of
    the exact value on [0, 30]; the 1 - erf of the x < 1 branch loses the
    most, just below 1.
    """
    powers = np.empty((11, len(x)))
    v = np.divide(1.0, np.maximum(x, 1.0), out=powers[9])
    np.minimum(v, x, out=v)
    np.multiply(v, v, out=powers[8])
    powers[10] = 1.0
    np.multiply(powers[8:10], powers[8], out=powers[6:8])
    np.multiply(powers[6:10], powers[6], out=powers[2:6])
    np.multiply(powers[8:10], powers[2], out=powers[0:2])
    ratio = _ERFCX_ROWS @ powers
    ratio = ratio[0::2] / ratio[1::2]
    ratio[0] *= np.exp(powers[8])
    return ratio[_ERFCX_BREAKS.searchsorted(x, "right"), np.arange(len(x))]


def _far_offset(sigma, s_tau):
    """u/sigma - s/tau > -6 sqrt(2), i.e. z < -6, beyond this offset u."""
    return sigma * (s_tau - np.sqrt(2.0) * ERFC_SATURATION_Z)


def _half_minus_bose(y):
    """1/y - 1/(e^y - 1) for y > 0, from its Taylor series below 0.1 (error
    below 3e-17) where the difference would cancel."""
    if y >= 0.1:
        return 1.0 / y - 1.0 / math.expm1(y)
    y2 = y * y
    return 0.5 - y * (1.0 / 12.0 - y2 * (1.0 / 720.0 - y2 * (1.0 / 30240.0 - y2 / 1209600.0)))


def _merged_tail(u0, width, count, sigma, inv_tau):
    """The unit EMG summed over `count` bins at offsets u0 + i width, all past
    `_far_offset`, and the offset at which one bin holding that sum T has
    the sum's lifetime and shift derivatives.

    There each bin is exp(e0 - i x), e0 the exponent at u0 and x = width/tau,
    so T = exp(e0) (1 - e^-Kx)/(1 - e^-x) over the K bins whose exponent
    `_emg` keeps (>= `EXP_FLOOR`). The derivatives of sum exp(e_i) are those
    of a single exp(e) at the decay-weighted mean offset u0 + width m, with
    m = sum i e^-ix / sum e^-ix = 1/(e^x - 1) - K/(e^Kx - 1). Below Kx = 1,
    where both of those terms are near 1/x and would cancel, m is evaluated
    as K f(Kx) - f(x) with f = `_half_minus_bose`.
    """
    s_tau = sigma * inv_tau
    if not u0 > _far_offset(sigma, s_tau):
        raise ValueError(f"a merged tail starting {u0} ps after t0 is not past the IRF "
                         f"for a lifetime of {1.0 / inv_tau} ps")
    e0 = 0.5 * s_tau**2 - u0 * inv_tau
    if e0 < EXP_FLOOR:
        return 0.0, u0
    x = width * inv_tau
    kept = (count if e0 - (count - 1) * x >= EXP_FLOOR
            else int((e0 - EXP_FLOOR) / x) + 1)
    kx = kept * x
    total = math.exp(e0) * (math.expm1(-kx) / math.expm1(-x))
    if kx >= 1.0:
        mean = kept * math.exp(-kx) / math.expm1(-kx) - math.exp(-x) / math.expm1(-x)
    else:
        mean = kept * _half_minus_bose(kx) - _half_minus_bose(x)
    return total, u0 + width * mean


def _emg(u, sigma, inv_tau, out=None):
    """Unit-amplitude EMG kernel on ascending offsets u = t - t0.

    With z = (s/tau - u/s)/sqrt(2), g = exp(-u^2/2s^2) and the exponent
    e = s^2/2tau^2 - u/tau, where e - z^2 = -u^2/2s^2, the curve is
        g erfcx(z) / 2               for z >= 0,
        exp(e) - g erfcx(-z) / 2     for -6 <= z < 0,
        exp(e)                       beyond, where erfc(z) == 2.0,
    and exactly 0 where e < `EXP_FLOOR`. Since u ascends, each of these is a
    slice. Returns (curve, e, near, gauss): `near` is the slice z >= -6 and
    `gauss` is g on it. The curve is written to `out` if given.
    """
    s_tau = sigma * inv_tau
    exponent = u * -inv_tau
    exponent += 0.5 * s_tau**2
    near = slice(0, int(u.searchsorted(_far_offset(sigma, s_tau), "right")))
    un = u[near] / sigma
    early = int(un.searchsorted(s_tau, "right"))  # z >= 0
    live = max(near.stop, len(u) - int(exponent[::-1].searchsorted(EXP_FLOOR)))
    gauss = np.exp(-0.5 * un**2)
    half_g_erfcx = 0.5 * gauss * _erfcx(np.abs((s_tau - un) / np.sqrt(2.0)))
    out = np.empty_like(u) if out is None else out
    out[:early] = half_g_erfcx[:early]
    np.exp(exponent[early:live], out=out[early:live])
    out[early:near.stop] -= half_g_erfcx[early:]
    out[live:] = 0.0
    return out, exponent, near, gauss


def decay_terms(t: np.ndarray, irf: InstrumentResponse, parameters: np.ndarray,
                tail: tuple[float, int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The decay model mu and its Jacobian, shape (parameters, bins), at the
    ascending bin centres `t`.

    `parameters` are (amplitude A, lifetime tau) per component, then the IRF
    shift (added to irf.t0) and the flat background b: mu = b + sum A g with
    g the unit EMG of `_emg`. The Jacobian rows are g and A dg/dtau per
    component, sum A dg/dt0, and 1. With u = t - t0, N(u) the unit-area
    Gaussian of width s and e the exponent of `_emg`, dg/dt0 = g/tau - N and
    dg/dtau = (g (u - s^2/tau) + s^2 N) / tau^2 = -(e + s^2/2tau^2) g/tau
    + (s/tau)^2 N. Beyond the near bins N < g exp(-36) / (s sqrt(2 pi)),
    below the float64 resolution of either term, so N is added only there.

    `tail` = (bin_width, n) appends one merged bin: the sums of mu and of
    every Jacobian row over n more bins at t[-1] + bin_width, ...,
    t[-1] + n bin_width, in closed form (`_merged_tail`). Each of them must
    lie past `irf.far_offset` of every lifetime, else ValueError.
    """
    sigma = irf.sigma
    u = np.empty(len(t) + (tail is not None))  # a merged bin's offset is set per component
    np.subtract(t, irf.t0 + parameters[-2], out=u[:len(t)])
    J = np.empty((len(parameters), len(u)))
    J[-1] = 1.0
    if tail is not None:
        J[-1, -1] = tail[1]
    mu = parameters[-1] * J[-1]
    d_t0 = J[-2]
    d_t0[:] = 0.0
    for k in range(0, len(parameters) - 2, 2):
        amplitude, inv_tau = parameters[k], np.float64(1.0) / parameters[k + 1]
        if tail is not None:
            total, u[-1] = _merged_tail(u[-2] + tail[0], *tail, sigma, inv_tau)
        g, exponent, near, gauss = _emg(u, sigma, inv_tau, out=J[k])
        if tail is not None:
            g[-1] = total
        d_shift = g * inv_tau
        d_tau = np.subtract(-0.5 * (sigma * inv_tau) ** 2, exponent, out=J[k + 1])
        d_tau *= d_shift
        normal = gauss / (sigma * np.sqrt(2.0 * np.pi))
        d_tau[near] += (sigma * inv_tau) ** 2 * normal
        d_tau *= amplitude
        d_shift[near] -= normal
        mu += amplitude * g
        d_shift *= amplitude
        d_t0 += d_shift
    return mu, J


def expected_curve(model: DecayModel, irf: InstrumentResponse, grid: BinGrid) -> np.ndarray:
    """Per-bin expected counts, everywhere >= model.background: `decay_terms`
    at the bin centres with no IRF shift, over the components of positive
    amplitude only (a zero one adds nothing, but its lifetime may overflow)."""
    live = [v for amplitude, tau in model.components if amplitude > 0 for v in (amplitude, tau)]
    return decay_terms(grid.centers(), irf, np.array([*live, 0.0, model.background]))[0]


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
