"""Triangular-lattice photonic-crystal geometry and reciprocal-space machinery.

Conventions
-----------
Lengths are in nanometres throughout. The triangular lattice uses the
crystallographic basis

    a1 = (a, 0),    a2 = (-a/2, a*sqrt(3)/2),

for which the dual reciprocal vectors subtend 60 degrees and the Brillouin-zone
corner K sits at fractional coordinates (1/3, 1/3). The zone-edge midpoint M is
at (1/2, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import j1

__all__ = [
    "TriangularLattice",
    "SlabWaveguide",
    "KPath",
    "ReciprocalLatticeError",
    "reciprocal_basis",
    "real_basis",
    "dielectric_fourier",
    "kpath_gamma_m_k",
    "kpath_cartesian",
    "effective_index",
]

# Relative tolerance (in units of |b1|) for deciding whether a wavevector lies
# on the reciprocal lattice.
LATTICE_MEMBERSHIP_RTOL = 1e-9


class ReciprocalLatticeError(ValueError):
    """A wavevector was required to be a reciprocal-lattice vector but is not."""


@dataclass(frozen=True)
class TriangularLattice:
    """Triangular lattice of circular holes in a uniform background.

    Parameters
    ----------
    period_a : float
        Lattice period in nm.
    hole_ratio : float
        Hole radius over period (r/a), in [0, 0.5) so holes never overlap.
    eps_background : float
        Relative permittivity of the background (e.g. the squared effective
        index of the slab).
    eps_hole : float
        Relative permittivity inside the holes (air = 1).
    """

    period_a: float
    hole_ratio: float
    eps_background: float
    eps_hole: float = 1.0

    def __post_init__(self):
        if not self.period_a > 0:
            raise ValueError(f"period_a must be positive, got {self.period_a}")
        if not 0.0 <= self.hole_ratio < 0.5:
            raise ValueError(f"hole_ratio must lie in [0, 0.5), got {self.hole_ratio}")
        if not self.eps_hole >= 1.0:
            raise ValueError(f"eps_hole must be >= 1, got {self.eps_hole}")
        if not self.eps_background > self.eps_hole:
            raise ValueError(
                "eps_background must exceed eps_hole, got "
                f"{self.eps_background} <= {self.eps_hole}"
            )

    @property
    def hole_radius(self) -> float:
        """Hole radius in nm."""
        return self.hole_ratio * self.period_a

    @property
    def fill_fraction(self) -> float:
        """Area fraction occupied by holes: (2*pi/sqrt(3)) * (r/a)^2."""
        return 2.0 * np.pi / np.sqrt(3.0) * self.hole_ratio**2

    @property
    def cell_area(self) -> float:
        """Primitive-cell area |a1 x a2| in nm^2."""
        return np.sqrt(3.0) / 2.0 * self.period_a**2


@dataclass(frozen=True)
class SlabWaveguide:
    """Symmetric three-layer slab: cladding / core / cladding."""

    thickness: float
    n_core: float
    n_clad: float = 1.0

    def __post_init__(self):
        if not self.thickness > 0:
            raise ValueError(f"thickness must be positive, got {self.thickness}")
        if not self.n_clad >= 1.0:
            raise ValueError(f"n_clad must be >= 1, got {self.n_clad}")
        if not self.n_core > self.n_clad:
            raise ValueError(
                f"n_core must exceed n_clad, got {self.n_core} <= {self.n_clad}"
            )


@dataclass(frozen=True)
class KPath:
    """Piecewise-linear path through reciprocal space.

    Vertices are (label, (f1, f2)) pairs in fractional reciprocal coordinates;
    each segment is sampled with `samples_per_segment` points including both
    ends, and shared endpoints at segment joins appear exactly once.
    """

    vertices: tuple
    samples_per_segment: int

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("a k-path needs at least two vertices")
        if self.samples_per_segment < 2:
            raise ValueError("samples_per_segment must be >= 2")
        for label, frac in self.vertices:
            f = np.asarray(frac, dtype=float)
            if f.shape != (2,):
                raise ValueError(f"vertex {label!r} must have two coordinates")
            if np.any(np.abs(f) > 1.0):
                raise ValueError(f"vertex {label!r} outside [-1, 1]^2: {frac}")

    def fractional_points(self) -> np.ndarray:
        """All sampled points, shape (n_segments*(s-1) + 1, 2)."""
        s = self.samples_per_segment
        verts = [np.asarray(frac, dtype=float) for _, frac in self.vertices]
        pts = [verts[0]]
        for start, stop in zip(verts[:-1], verts[1:]):
            for t in np.linspace(0.0, 1.0, s)[1:]:
                pts.append(start + t * (stop - start))
        return np.array(pts)


def real_basis(lattice: TriangularLattice) -> tuple[np.ndarray, np.ndarray]:
    """Real-space primitive vectors (a1, a2) in nm."""
    a = lattice.period_a
    a1 = np.array([a, 0.0])
    a2 = np.array([-a / 2.0, a * np.sqrt(3.0) / 2.0])
    return a1, a2


def reciprocal_basis(lattice: TriangularLattice) -> tuple[np.ndarray, np.ndarray]:
    """Reciprocal primitive vectors (b1, b2) in 1/nm with b_i . a_j = 2*pi*delta_ij.

    Both have magnitude 4*pi/(sqrt(3)*a) and subtend 60 degrees.
    """
    a = lattice.period_a
    b1 = 2.0 * np.pi / a * np.array([1.0, 1.0 / np.sqrt(3.0)])
    b2 = 2.0 * np.pi / a * np.array([0.0, 2.0 / np.sqrt(3.0)])
    return b1, b2


def _hole_form_factor(x: np.ndarray) -> np.ndarray:
    """2*J1(x)/x for a circular hole, with the x -> 0 limit equal to 1."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-12
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0, 2.0 * j1(safe) / safe)


def _fourier_coefficient(lattice: TriangularLattice, gnorm, origin):
    """`dielectric_fourier` from |G| (`gnorm`) and a G = 0 mask (`origin`), elementwise."""
    f = lattice.fill_fraction
    deps = lattice.eps_hole - lattice.eps_background
    return np.where(
        origin,
        f * lattice.eps_hole + (1.0 - f) * lattice.eps_background,
        deps * f * _hole_form_factor(gnorm * lattice.hole_radius),
    )


def dielectric_fourier(lattice: TriangularLattice, G) -> float:
    """Fourier coefficient of the permittivity at reciprocal-lattice vector G.

    Returns f*eps_hole + (1-f)*eps_background for G = 0 and
    (eps_hole - eps_background) * 2f * J1(|G| r)/(|G| r) otherwise, where f is
    the hole fill fraction.

    Raises
    ------
    ReciprocalLatticeError
        If G is not an integer combination of the reciprocal basis (to within
        `LATTICE_MEMBERSHIP_RTOL` relative to |b1|).
    """
    G = np.asarray(G, dtype=float)
    b1, b2 = reciprocal_basis(lattice)
    bmat = np.column_stack([b1, b2])
    frac = np.linalg.solve(bmat, G)
    nearest = np.round(frac)
    resid = np.linalg.norm(bmat @ (frac - nearest))
    if resid > LATTICE_MEMBERSHIP_RTOL * np.linalg.norm(b1):
        raise ReciprocalLatticeError(
            f"G={G.tolist()} is not on the reciprocal lattice "
            f"(fractional coordinates {frac.tolist()})"
        )
    return float(_fourier_coefficient(lattice, np.linalg.norm(G), np.all(nearest == 0)))


def kpath_gamma_m_k(samples_per_segment: int) -> KPath:
    """Closed Gamma -> M -> K -> Gamma path of the triangular lattice."""
    return KPath(
        vertices=(
            ("G", (0.0, 0.0)),
            ("M", (0.5, 0.0)),
            ("K", (1.0 / 3.0, 1.0 / 3.0)),
            ("G", (0.0, 0.0)),
        ),
        samples_per_segment=samples_per_segment,
    )


def kpath_cartesian(
    kpath: KPath, lattice: TriangularLattice
) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian k-points (1/nm) and cumulative arc length along the path."""
    b1, b2 = reciprocal_basis(lattice)
    frac = kpath.fractional_points()
    pts = frac @ np.stack([b1, b2])
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(steps)])
    return pts, arc


def effective_index(slab: SlabWaveguide, wavelength: float) -> float:
    """Effective index of the fundamental symmetric TE guided slab mode.

    Solves tan(kappa*d/2) = gamma/kappa with
    kappa = k0*sqrt(n_core^2 - n_eff^2), gamma = k0*sqrt(n_eff^2 - n_clad^2),
    using the continuous equivalent form
    kappa*sin(kappa*d/2) - gamma*cos(kappa*d/2) = 0 on the fundamental-mode
    bracket, where kappa*d/2 < pi/2 guarantees a single sign change.
    Raises ValueError when that bracket holds no root.
    """
    if not wavelength > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    k0 = 2.0 * np.pi / wavelength
    d = slab.thickness
    nco, ncl = slab.n_core, slab.n_clad

    def dispersion(n_eff: float) -> float:
        kappa = k0 * np.sqrt(max(nco**2 - n_eff**2, 0.0))
        gamma = k0 * np.sqrt(max(n_eff**2 - ncl**2, 0.0))
        half = kappa * d / 2.0
        return kappa * np.sin(half) - gamma * np.cos(half)

    # Fundamental-mode bracket: restrict kappa*d/2 to (0, pi/2).
    lo = ncl
    cutoff = nco**2 - (np.pi / (k0 * d)) ** 2
    if cutoff > ncl**2:
        lo = np.sqrt(cutoff)
    eps = 1e-12 * nco
    f_lo, f_hi = dispersion(lo + eps), dispersion(nco - eps)
    if not (f_lo > 0 > f_hi or f_lo < 0 < f_hi):
        raise ValueError(
            f"no guided TE mode for d={d} nm, n_core={nco}, n_clad={ncl}, "
            f"wavelength={wavelength} nm"
        )
    return brentq(dispersion, lo + eps, nco - eps, xtol=1e-14, rtol=8.9e-16)
