"""Triangular-lattice photonic-crystal geometry and reciprocal-space machinery.

Conventions
-----------
Lengths are in nanometres throughout. The triangular lattice uses the
crystallographic basis

    a1 = (a, 0),    a2 = (-a/2, a*sqrt(3)/2),

for which the dual reciprocal vectors subtend 60 degrees and the Brillouin-zone
corner K sits at fractional coordinates (1/3, 1/3). The zone-edge midpoint M is
at (1/2, 0).

The slab's effective index is found by `_brentq`, a port of Brent's method as
scipy's `brentq.c` runs it, step for step, and the hole form factor's Bessel
function by `_j1`, a port of Cephes `j1`; the module needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TriangularLattice",
    "SlabWaveguide",
    "ReciprocalLatticeError",
    "reciprocal_basis",
    "real_basis",
    "dielectric_fourier",
    "gamma_m_k_path",
    "effective_index",
]

# Relative tolerance (in units of |b1|) for deciding whether a wavevector lies
# on the reciprocal lattice.
LATTICE_MEMBERSHIP_RTOL = 1e-9


class ReciprocalLatticeError(ValueError):
    """A wavevector was required to be a reciprocal-lattice vector but is not."""


@dataclass(frozen=True)
class TriangularLattice:
    """Triangular lattice of circular air holes in a uniform background.

    Parameters
    ----------
    period_a : float
        Lattice period in nm.
    hole_ratio : float
        Hole radius over period (r/a), in [0, 0.5) so holes never overlap.
    eps_background : float
        Relative permittivity of the background (e.g. the squared effective
        index of the slab); must exceed the holes' 1.
    """

    period_a: float
    hole_ratio: float
    eps_background: float

    def __post_init__(self):
        if not self.period_a > 0:
            raise ValueError(f"period_a must be positive, got {self.period_a}")
        if not 0.0 <= self.hole_ratio < 0.5:
            raise ValueError(f"hole_ratio must lie in [0, 0.5), got {self.hole_ratio}")
        if not self.eps_background > 1.0:
            raise ValueError(f"eps_background must exceed 1 (air), got {self.eps_background}")

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


# Cephes `j1.c` (Moshier, *Methods and Programs for Mathematical Functions*,
# 1989), highest power first: J1(x) = x (x^2 - Z1)(x^2 - Z2) RP(x^2) / RQ(x^2)
# for |x| <= 5, and the Hankel asymptotic form with PP/PQ and QP/QQ in
# (5/x)^2 beyond. RQ and QQ have a leading 1.
_J1_RP = (-8.99971225705559398224e8, 4.52228297998194034323e11,
          -7.27494245221818276015e13, 3.68295732863852883286e15)
_J1_RQ = (6.20836478118054335476e2, 2.56987256757748830383e5, 8.35146791431949253037e7,
          2.21511595479792499675e10, 4.74914122079991414898e12, 7.84369607876235854894e14,
          8.95222336184627338078e16, 5.32278620332680085395e18)
_J1_PP = (7.62125616208173112003e-4, 7.31397056940917570436e-2, 1.12719608129684925192e0,
          5.11207951146807644818e0, 8.42404590141772420927e0, 5.21451598682361504063e0,
          1.00000000000000000254e0)
_J1_PQ = (5.71323128072548699714e-4, 6.88455908754495404082e-2, 1.10514232634061696926e0,
          5.07386386128601488557e0, 8.39985554327604159757e0, 5.20982848682361821619e0,
          9.99999999999999997461e-1)
_J1_QP = (5.10862594750176621635e-2, 4.98213872951233449420e0, 7.58238284132545283818e1,
          3.66779609360150777800e2, 7.10856304998926107277e2, 5.97489612400613639965e2,
          2.11688757100572135698e2, 2.52070205858023719784e1)
_J1_QQ = (7.42373277035675149943e1, 1.05644886038262816351e3, 4.98641058337653607651e3,
          9.56231892404756170795e3, 7.99704160447350683650e3, 2.82619278517639096600e3,
          3.36093607810698293419e2)
_J1_Z1, _J1_Z2 = 1.46819706421238932572e1, 4.92184563216946036703e1
_THPIO4 = 2.35619449019234492885  # 3 pi / 4
_SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2 / pi)


def _polevl(x, coefficients, monic=False):
    """Horner's rule as Cephes `polevl` (or, if `monic`, `p1evl`, whose
    leading coefficient 1 is implied), in the same floating-point order."""
    first, *rest = coefficients
    value = x + first if monic else first
    for c in rest:
        value = value * x + c
    return value


def _j1(x: np.ndarray) -> np.ndarray:
    """The Bessel function J1, elementwise: Cephes `j1` step for step, so the
    same bits as `scipy.special.j1`."""
    x = np.asarray(x, dtype=float)
    ax = np.where(x < 0, -x, x)  # as Cephes: -0.0 keeps its sign
    out = np.empty_like(ax)
    inner = ax <= 5.0
    xi = ax[inner]
    z = xi * xi
    w = _polevl(z, _J1_RP) / _polevl(z, _J1_RQ, monic=True)
    out[inner] = w * xi * (z - _J1_Z1) * (z - _J1_Z2)
    xo = ax[~inner]
    w = 5.0 / xo
    z = w * w
    p = _polevl(z, _J1_PP) / _polevl(z, _J1_PQ)
    q = _polevl(z, _J1_QP) / _polevl(z, _J1_QQ, monic=True)
    xn = xo - _THPIO4
    out[~inner] = (p * np.cos(xn) - w * q * np.sin(xn)) * _SQ2OPI / np.sqrt(xo)
    return np.where(x < 0, -out, out)  # J1 is odd


def _hole_form_factor(x: np.ndarray) -> np.ndarray:
    """2*J1(x)/x for a circular hole, with the x -> 0 limit equal to 1."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-12
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0, 2.0 * _j1(safe) / safe)


def _fourier_coefficient(lattice: TriangularLattice, gnorm, origin):
    """`dielectric_fourier` from |G| (`gnorm`) and a G = 0 mask (`origin`), elementwise."""
    f = lattice.fill_fraction
    return np.where(
        origin,
        f + (1.0 - f) * lattice.eps_background,
        (1.0 - lattice.eps_background) * f * _hole_form_factor(gnorm * lattice.hole_radius),
    )


def dielectric_fourier(lattice: TriangularLattice, G) -> float:
    """Fourier coefficient of the permittivity at reciprocal-lattice vector G.

    Returns f + (1-f)*eps_background for G = 0 and
    (1 - eps_background) * 2f * J1(|G| r)/(|G| r) otherwise, where f is the
    fill fraction of the air holes.

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


def gamma_m_k_path(
    lattice: TriangularLattice, samples_per_segment: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed Gamma -> M -> K -> Gamma path of the triangular lattice.

    Each segment is sampled with `samples_per_segment` points including both
    ends, and shared endpoints at segment joins appear once, so the path has
    3*(s-1) + 1 points. Returns the fractional reciprocal coordinates, the
    Cartesian k-points (1/nm) and the cumulative arc length along the path.
    """
    if samples_per_segment < 2:
        raise ValueError("samples_per_segment must be >= 2")
    verts = np.array([(0.0, 0.0), (0.5, 0.0), (1.0 / 3.0, 1.0 / 3.0), (0.0, 0.0)])
    t = np.linspace(0.0, 1.0, samples_per_segment)[1:, None]
    frac = np.concatenate(
        [verts[:1]] + [start + t * (stop - start) for start, stop in zip(verts[:-1], verts[1:])]
    )
    pts = frac @ np.stack(reciprocal_basis(lattice))
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(steps)])
    return frac, pts, arc


def effective_index(slab: SlabWaveguide, wavelength: float) -> float:
    """Effective index of the fundamental symmetric TE guided slab mode.

    Solves tan(kappa*d/2) = gamma/kappa with
    kappa = k0*sqrt(n_core^2 - n_eff^2), gamma = k0*sqrt(n_eff^2 - n_clad^2),
    using the continuous equivalent form
    kappa*sin(kappa*d/2) - gamma*cos(kappa*d/2) = 0 on the fundamental-mode
    bracket, where kappa*d/2 < pi/2 guarantees a single sign change. The
    bracket is narrowed by 1e-12 n_core at each end; in a slab thousands of
    wavelengths thick the root lies within that margin of the cutoff end,
    and the search then starts at the cutoff itself. Raises ValueError when
    the narrowed bracket is empty or no bracket holds a root.
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
    cutoff = nco**2 - (np.pi / (k0 * d)) ** 2  # n_core^2 - (wavelength/2d)^2
    if cutoff > ncl**2:
        lo = np.sqrt(cutoff)
    eps = 1e-12 * nco
    if not lo + eps < nco - eps:
        raise ValueError(f"no bracket for the guided TE mode: n_core={nco} lies within "
                         f"2e-12 n_core of its lower end {lo}")
    f_hi = dispersion(nco - eps)
    for a in (lo + eps, lo) if cutoff > ncl**2 else (lo + eps,):
        f_lo = dispersion(a)
        if f_lo > 0 > f_hi or f_lo < 0 < f_hi:
            return _brentq(dispersion, a, nco - eps, xtol=1e-14, rtol=8.9e-16)
    raise ValueError(
        f"no guided TE mode for d={d} nm, n_core={nco}, n_clad={ncl}, "
        f"wavelength={wavelength} nm"
    )


def _brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """A root of `f` in [a, b], where f(a) and f(b) differ in sign.

    Brent's method (Brent, *Algorithms for Minimization without Derivatives*,
    1973, ch. 4) exactly as scipy's `brentq.c` runs it: the same steps in the
    same floating-point order, so it returns the same bits as
    `scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)`. The root is within
    xtol + rtol*|root| of the returned point. Raises RuntimeError when scipy's
    default of 100 iterations does not get there, as scipy does.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):  # scipy's default maxiter
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant through the last two points
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic through all three
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
            except ZeroDivisionError:  # C's inf or nan step, which fails that test too
                pass
        if short:
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError("Failed to converge after 100 iterations.")
