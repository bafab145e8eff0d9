"""Closed-form cavity-QED quantities in the weak-coupling (perturbative) regime.

Wavelengths are in nm and times in ps throughout. The central object is the
detuning-dependent lifetime ratio

    tau_free / tau = sum_m (F_m / 3) * dl_m^2 / (dl_m^2 + 4 (l_m - l_emitter)^2) + alpha,

one unit-peak Lorentzian in the emitter-cavity detuning per mode m times its
enhancement (the emitter at the field maximum), plus a residual-mode decay
fraction alpha (`lifetime_ratio_multimode`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT_NM_PER_PS",
    "CavityMode",
    "purcell_factor",
    "mode_linewidth",
    "photon_lifetime",
    "lorentzian_response",
    "lifetime_ratio_multimode",
    "coupling_efficiency",
    "enhanced_lifetime",
]

SPEED_OF_LIGHT_NM_PER_PS = 299_792.458

WAVELENGTH_NM = (300.0, 3000.0)  # quantum dots and other emitters: near UV to mid-infrared
Q_FACTOR = (10.0, 1e8)  # a linewidth of a tenth of the wavelength, to the best cavities (1e7)


@dataclass(frozen=True)
class CavityMode:
    """A single cavity resonance: wavelength (nm) and quality factor.

    The linewidth is derived exactly as lambda_c / Q.
    """

    lambda_c: float
    q_factor: float

    def __post_init__(self):
        if not self.lambda_c > 0:
            raise ValueError(f"lambda_c must be positive, got {self.lambda_c}")
        if not self.q_factor > 1:
            raise ValueError(f"q_factor must exceed 1, got {self.q_factor}")

    @property
    def linewidth(self) -> float:
        """FWHM linewidth in nm: lambda_c / Q."""
        return mode_linewidth(self.lambda_c, self.q_factor)


def purcell_factor(q_factor: float, v_mode: float) -> float:
    """Maximal spontaneous-emission enhancement 3*Q / (4*pi^2 * V)."""
    if not q_factor > 0:
        raise ValueError(f"q_factor must be positive, got {q_factor}")
    if not v_mode > 0:
        raise ValueError(f"v_mode must be positive, got {v_mode}")
    return 3.0 * q_factor / (4.0 * np.pi**2 * v_mode)


def mode_linewidth(lambda_c: float, q_factor: float) -> float:
    """Cavity mode linewidth lambda_c / Q in nm."""
    if not (lambda_c > 0 and q_factor > 0):
        raise ValueError("lambda_c and q_factor must be positive")
    return lambda_c / q_factor


def photon_lifetime(lambda_c: float, q_factor: float) -> float:
    """Cavity photon lifetime Q/omega = Q * lambda / (2*pi*c) in ps."""
    if not (lambda_c > 0 and q_factor > 0):
        raise ValueError("lambda_c and q_factor must be positive")
    return q_factor * lambda_c / (2.0 * np.pi * SPEED_OF_LIGHT_NM_PER_PS)


def lorentzian_response(wavelength, lambda_c: float, linewidth: float):
    """Unit-peak Lorentzian dl^2 / (dl^2 + 4*(lambda_c - wavelength)^2)."""
    detuning = lambda_c - np.asarray(wavelength, dtype=float)
    return linewidth**2 / (linewidth**2 + 4.0 * detuning**2)


def lifetime_ratio_multimode(
    wavelength,
    modes: Sequence[CavityMode],
    fps: Sequence[float],
    alpha: float,
):
    """Lifetime ratio with one Lorentzian term per mode plus a single alpha.

    Vectorized over `wavelength`.
    """
    if len(fps) != len(modes):
        raise ValueError("need one enhancement factor per mode")
    wavelength = np.asarray(wavelength, dtype=float)
    total = np.full_like(wavelength, float(alpha))
    for mode, fp in zip(modes, fps):
        total = total + fp / 3.0 * lorentzian_response(
            wavelength, mode.lambda_c, mode.linewidth
        )
    return total if total.ndim else float(total)


def coupling_efficiency(tau_fast: float, tau_slow: float) -> float:
    """Single-mode coupling efficiency beta = 1 - tau_fast / tau_slow.

    Dimensionless; both lifetimes must share a unit and satisfy
    0 < tau_fast <= tau_slow.
    """
    if not 0 < tau_fast <= tau_slow:
        raise ValueError(
            f"need 0 < tau_fast <= tau_slow, got {tau_fast}, {tau_slow}"
        )
    return 1.0 - tau_fast / tau_slow


def enhanced_lifetime(tau_free_ps: float, ratio: float) -> float:
    """Cavity-shortened lifetime tau_free / ratio, in ps."""
    if not ratio > 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    return tau_free_ps / ratio
