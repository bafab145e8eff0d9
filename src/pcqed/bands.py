"""Plane-wave-expansion solver for TE bands and H1 point-defect cavity modes.

TE here means the 2D convention: magnetic field out of plane, electric field
in plane. The eigenproblem at wavevector k is

    sum_G' eta(G - G') (k + G).(k + G') h_G' = (omega/c)^2 h_G,

where eta is the inverse-permittivity Fourier table obtained by inverting the
truncated permittivity matrix (the inverse-matrix rule, which converges much
faster than expanding 1/eps directly for high-contrast lattices). Frequencies
are reported in dimensionless units a/lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .geometry import (
    KPath,
    SlabWaveguide,
    TriangularLattice,
    _hole_form_factor,
    kpath_cartesian,
    kpath_gamma_m_k,
    real_basis,
    reciprocal_basis,
)

__all__ = [
    "PlaneWaveBasis",
    "BandStructure",
    "BandGap",
    "CavityModeProfile",
    "BandSolverError",
    "build_te_operator",
    "compute_bands",
    "find_te_gap",
    "solve_h1_modes",
    "dipole_doublets",
    "mode_volume",
]


class BandSolverError(RuntimeError):
    """Eigensolver failure, annotated with the offending k-point."""

    def __init__(self, message: str, k_index: int | None = None, k=None):
        super().__init__(message)
        self.k_index = k_index
        self.k = None if k is None else np.asarray(k)


@dataclass(frozen=True, eq=False)
class PlaneWaveBasis:
    """Truncated set of reciprocal-lattice vectors G = m*g1 + n*g2.

    Two cutoff shapes are supported:

    * ``"rhombus"``: all |m|, |n| <= N, giving (2N+1)^2 vectors. Default for
      bulk band structures.
    * ``"hexagonal"``: all m^2 + n^2 + m*n <= N^2. This integer norm equals
      |G|^2/|g1|^2 for the 60-degree reciprocal basis, so the set is exactly
      closed under the full point group of the lattice. Used for supercells,
      where the cutoff shape would otherwise split symmetry-degenerate defect
      modes.

    Both shapes contain G = 0 and are closed under negation.
    """

    cutoff: int
    g1: np.ndarray
    g2: np.ndarray
    indices: np.ndarray  # (n_pw, 2) integer coefficients (m, n)
    shape: str = "rhombus"

    @classmethod
    def bulk(cls, lattice: TriangularLattice, cutoff: int = 7) -> "PlaneWaveBasis":
        """Rhombus-truncated basis on the bulk reciprocal lattice."""
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        b1, b2 = reciprocal_basis(lattice)
        ms = np.arange(-cutoff, cutoff + 1)
        mm, nn = np.meshgrid(ms, ms, indexing="ij")
        idx = np.stack([mm.ravel(), nn.ravel()], axis=-1)
        return cls(cutoff=cutoff, g1=b1, g2=b2, indices=idx, shape="rhombus")

    @classmethod
    def supercell(
        cls, lattice: TriangularLattice, supercell_size: int, cutoff: int = 12
    ) -> "PlaneWaveBasis":
        """Hexagonally-truncated basis on the supercell reciprocal lattice."""
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if supercell_size < 1:
            raise ValueError("supercell_size must be >= 1")
        b1, b2 = reciprocal_basis(lattice)
        # The norm ball extends to |n| = 2N/sqrt(3) along its widest direction.
        ext = int(math.ceil(2.0 * cutoff / math.sqrt(3.0)))
        ms = np.arange(-ext, ext + 1)
        mm, nn = np.meshgrid(ms, ms, indexing="ij")
        idx = np.stack([mm.ravel(), nn.ravel()], axis=-1)
        norm2 = idx[:, 0] ** 2 + idx[:, 1] ** 2 + idx[:, 0] * idx[:, 1]
        idx = idx[norm2 <= cutoff * cutoff]
        return cls(
            cutoff=cutoff,
            g1=b1 / supercell_size,
            g2=b2 / supercell_size,
            indices=idx,
            shape="hexagonal",
        )

    def __post_init__(self):
        idx = self.indices
        if self.shape == "rhombus" and len(idx) != (2 * self.cutoff + 1) ** 2:
            raise ValueError("rhombus basis must contain (2N+1)^2 vectors")
        if not np.any(np.all(idx == 0, axis=1)):
            raise ValueError("basis must contain G = 0")

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def g_vectors(self) -> np.ndarray:
        """Cartesian G vectors, shape (n_pw, 2), in 1/nm."""
        return self.indices @ np.stack([self.g1, self.g2])


def _bulk_eps_matrix(lattice: TriangularLattice, basis: PlaneWaveBasis) -> np.ndarray:
    """Permittivity matrix E[i, j] = eps_hat(G_i - G_j) for the bulk crystal."""
    idx = basis.indices
    dm = idx[:, None, 0] - idx[None, :, 0]
    dn = idx[:, None, 1] - idx[None, :, 1]
    dg = dm[..., None] * basis.g1 + dn[..., None] * basis.g2
    gnorm = np.linalg.norm(dg, axis=-1)
    f = lattice.fill_fraction
    deps = lattice.eps_hole - lattice.eps_background
    E = deps * f * _hole_form_factor(gnorm * lattice.hole_radius)
    E[(dm == 0) & (dn == 0)] = (
        f * lattice.eps_hole + (1.0 - f) * lattice.eps_background
    )
    return E


def _supercell_eps_matrix(
    lattice: TriangularLattice, supercell_size: int, basis: PlaneWaveBasis
) -> np.ndarray:
    """Permittivity matrix for an S x S supercell with the central hole removed.

    The hole arrangement is periodic with the supercell, so its structure
    factor is analytic: S^2 - 1 on bulk reciprocal vectors (supercell indices
    that are multiples of S) and -1 elsewhere, times the single-hole form
    factor.
    """
    S = supercell_size
    idx = basis.indices
    dm = idx[:, None, 0] - idx[None, :, 0]
    dn = idx[:, None, 1] - idx[None, :, 1]
    dg = dm[..., None] * basis.g1 + dn[..., None] * basis.g2
    gnorm = np.linalg.norm(dg, axis=-1)
    f_hole = lattice.fill_fraction / S**2  # one hole over the supercell area
    deps = lattice.eps_hole - lattice.eps_background
    on_bulk = (dm % S == 0) & (dn % S == 0)
    structure = np.where(on_bulk, float(S * S - 1), -1.0)
    E = deps * f_hole * structure * _hole_form_factor(gnorm * lattice.hole_radius)
    E[(dm == 0) & (dn == 0)] += lattice.eps_background
    return E


def _inverse_eps_table(E: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(E)
    except np.linalg.LinAlgError as exc:  # physically impossible for eps > 0
        raise BandSolverError(f"singular permittivity matrix: {exc}") from exc


def _reduce_k(k: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Wrap k into the fundamental reciprocal cell (fractions in [-1/2, 1/2))."""
    frac = np.linalg.solve(np.column_stack([b1, b2]), k)
    frac -= np.floor(frac + 0.5)
    return frac[0] * b1 + frac[1] * b2


def _assemble_te(eta: np.ndarray, k: np.ndarray, g: np.ndarray) -> np.ndarray:
    kg = k[None, :] + g
    theta = eta * (kg @ kg.T)
    return 0.5 * (theta + theta.T)


def build_te_operator(
    lattice: TriangularLattice, k, basis: PlaneWaveBasis
) -> np.ndarray:
    """Hermitian TE operator Theta_{GG'} = eta(G-G') (k+G).(k+G') at wavevector k.

    k may lie anywhere; it is wrapped into the fundamental reciprocal cell, so
    band frequencies are exactly periodic under k -> k + b1. Eigenvalues are
    (omega/c)^2 >= 0.
    """
    k = _reduce_k(np.asarray(k, dtype=float), *reciprocal_basis(lattice))
    eta = _inverse_eps_table(_bulk_eps_matrix(lattice, basis))
    return _assemble_te(eta, k, basis.g_vectors)


@dataclass(frozen=True, eq=False)
class BandStructure:
    """TE band frequencies (a/lambda) along a k-path; rows sorted ascending."""

    kpath: KPath
    k_fractions: np.ndarray  # (n_k, 2)
    arc_lengths: np.ndarray  # (n_k,)
    frequencies: np.ndarray  # (n_k, n_bands)
    period_a: float

    @property
    def n_bands(self) -> int:
        return self.frequencies.shape[1]


@dataclass(frozen=True)
class BandGap:
    """TE gap between bands 1 and 2, in a/lambda units."""

    lower_edge: float  # max of the dielectric band over k
    upper_edge: float  # min of the air band over k

    def __post_init__(self):
        if not self.lower_edge < self.upper_edge:
            raise ValueError("gap edges must satisfy lower_edge < upper_edge")

    @property
    def midgap(self) -> float:
        return 0.5 * (self.lower_edge + self.upper_edge)

    @property
    def width(self) -> float:
        return self.upper_edge - self.lower_edge

    def midgap_wavelength(self, period_a: float) -> float:
        """Midgap free-space wavelength in nm: a / (a/lambda)_mid."""
        return period_a / self.midgap


def compute_bands(
    lattice: TriangularLattice,
    kpath: KPath,
    basis: PlaneWaveBasis,
    n_bands: int,
) -> BandStructure:
    """Lowest `n_bands` TE bands along `kpath`.

    Eigenvalues lambda of the TE operator are converted to a/lambda via
    (a/2pi) * sqrt(lambda), one k-point at a time.
    """
    if n_bands > len(basis):
        raise ValueError(f"n_bands={n_bands} exceeds basis size {len(basis)}")
    b1, b2 = reciprocal_basis(lattice)
    frac = kpath.fractional_points()
    kpts, arc = kpath_cartesian(kpath, lattice)
    eta = _inverse_eps_table(_bulk_eps_matrix(lattice, basis))
    g = basis.g_vectors

    def solve_one(item):
        i, k = item
        theta = _assemble_te(eta, _reduce_k(k, b1, b2), g)
        try:
            vals = eigh(
                theta, eigvals_only=True, subset_by_index=[0, n_bands - 1]
            )
        except np.linalg.LinAlgError as exc:
            raise BandSolverError(
                f"eigensolver failed at k-point {i}: {exc}", k_index=i, k=k
            ) from exc
        return np.sqrt(np.clip(vals, 0.0, None))

    rows = [solve_one(item) for item in enumerate(kpts)]
    freqs = lattice.period_a / (2.0 * np.pi) * np.array(rows)
    return BandStructure(
        kpath=kpath,
        k_fractions=frac,
        arc_lengths=arc,
        frequencies=freqs,
        period_a=lattice.period_a,
    )


def find_te_gap(bands: BandStructure) -> BandGap | None:
    """Gap between bands 1 and 2, or None when the bands overlap."""
    if bands.n_bands < 2:
        raise ValueError("need at least two bands to look for a gap")
    lower = float(bands.frequencies[:, 0].max())
    upper = float(bands.frequencies[:, 1].min())
    if lower >= upper:
        return None
    return BandGap(lower_edge=lower, upper_edge=upper)


@dataclass(frozen=True, eq=False)
class CavityModeProfile:
    """Localized supercell eigenmode with real-space field reconstruction.

    `energy_density` holds the in-plane electric energy density eps*|E|^2 on a
    uniform fractional grid over the supercell, normalized to a maximum of 1;
    `field_grid` holds |H_z| with the same normalization applied. `parity` is
    the eigenvector's inversion character (+1/-1) and `localization` the energy
    fraction within 1.5 periods of the defect, used to tell defect modes from
    folded continuum states.
    """

    frequency: float  # a/lambda
    field_grid: np.ndarray
    energy_density: np.ndarray
    eps_grid: np.ndarray
    lattice: TriangularLattice
    supercell_size: int
    grid_per_period: int
    localization: float
    parity: float

    @property
    def wavelength(self) -> float:
        """Free-space wavelength in nm."""
        return self.lattice.period_a / self.frequency

    @property
    def supercell_area(self) -> float:
        return self.supercell_size**2 * self.lattice.cell_area


def _supercell_eps_grid(
    lattice: TriangularLattice, S: int, ngrid: int
) -> np.ndarray:
    """Analytic permittivity on the fractional supercell grid (central hole absent)."""
    a1, a2 = real_basis(lattice)
    u = (np.arange(ngrid) + 0.5) / ngrid
    U, V = np.meshgrid(u, u, indexing="ij")
    X = U * S * a1[0] + V * S * a2[0]
    Y = U * S * a1[1] + V * S * a2[1]
    f1, f2 = U * S, V * S
    r2 = (lattice.hole_radius) ** 2
    in_hole = np.zeros((ngrid, ngrid), dtype=bool)
    # The containing site is always among the four cell corners around a point.
    for di in (0, 1):
        for dj in (0, 1):
            n1 = np.floor(f1) + di
            n2 = np.floor(f2) + dj
            cx = n1 * a1[0] + n2 * a2[0]
            cy = n1 * a1[1] + n2 * a2[1]
            d2 = (X - cx) ** 2 + (Y - cy) ** 2
            removed = (n1 % S == 0) & (n2 % S == 0)
            in_hole |= (d2 <= r2) & ~removed
    eps = np.full((ngrid, ngrid), lattice.eps_background)
    eps[in_hole] = lattice.eps_hole
    return eps


def _defect_distance_grid(lattice: TriangularLattice, S: int, ngrid: int) -> np.ndarray:
    """Distance from each grid point to the nearest defect site (supercell corners)."""
    a1, a2 = real_basis(lattice)
    u = (np.arange(ngrid) + 0.5) / ngrid
    U, V = np.meshgrid(u, u, indexing="ij")
    X = U * S * a1[0] + V * S * a2[0]
    Y = U * S * a1[1] + V * S * a2[1]
    A1, A2 = S * a1, S * a2
    dmin = np.full((ngrid, ngrid), np.inf)
    for p in (0, 1):
        for q in (0, 1):
            cx = p * A1[0] + q * A2[0]
            cy = p * A1[1] + q * A2[1]
            dmin = np.minimum(dmin, np.hypot(X - cx, Y - cy))
    return dmin


def _reconstruct_fields(
    coeffs: np.ndarray, basis: PlaneWaveBasis, ngrid: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H_z and its gradient on the fractional supercell grid via zero-padded FFT."""
    idx = basis.indices
    mm = idx[:, 0] % ngrid
    nn = idx[:, 1] % ngrid
    g = basis.g_vectors

    def synth(weights):
        coeffs = np.zeros((ngrid, ngrid), dtype=complex)
        coeffs[mm, nn] = weights
        return np.fft.ifft2(coeffs) * ngrid**2

    hz = synth(coeffs)
    dhx = synth(coeffs * 1j * g[:, 0])
    dhy = synth(coeffs * 1j * g[:, 1])
    return hz, dhx, dhy


def solve_h1_modes(
    lattice: TriangularLattice,
    supercell_size: int = 7,
    basis: PlaneWaveBasis | None = None,
    *,
    bulk_cutoff: int = 7,
    bulk_path_samples: int = 16,
    grid_per_period: int = 64,
    gap: BandGap | None = None,
) -> list[CavityModeProfile]:
    """Eigenmodes of an H1 defect (central hole removed) inside the bulk TE gap.

    Solves the S x S supercell at the supercell Gamma point and keeps states
    whose frequency falls strictly inside the bulk gap (computed here from a
    Gamma-M-K-Gamma path unless `gap` is supplied). Returns an empty list when
    the bulk crystal has no gap or no state lands inside it. Modes are sorted
    by frequency; field grids use `grid_per_period` points per lattice period.
    """
    S = supercell_size
    if S < 5 or S % 2 == 0:
        raise ValueError(f"supercell_size must be an odd integer >= 5, got {S}")
    if grid_per_period < 64:
        raise ValueError("grid_per_period must be >= 64")
    if basis is None:
        basis = PlaneWaveBasis.supercell(lattice, S)
    if gap is None:
        bulk = compute_bands(
            lattice,
            kpath_gamma_m_k(bulk_path_samples),
            PlaneWaveBasis.bulk(lattice, bulk_cutoff),
            n_bands=2,
        )
        gap = find_te_gap(bulk)
    if gap is None:
        return []

    eta = _inverse_eps_table(_supercell_eps_matrix(lattice, S, basis))
    theta = _assemble_te(eta, np.zeros(2), basis.g_vectors)
    margin = 1e-7
    scale = 2.0 * np.pi / lattice.period_a
    lo = (gap.lower_edge * (1.0 + margin) * scale) ** 2
    hi = (gap.upper_edge * (1.0 - margin) * scale) ** 2
    try:
        vals, vecs = eigh(theta, subset_by_value=[lo, hi])
    except np.linalg.LinAlgError as exc:
        raise BandSolverError(f"supercell eigensolver failed: {exc}") from exc
    if vals.size == 0:
        return []

    ngrid = grid_per_period * S
    eps_grid = _supercell_eps_grid(lattice, S, ngrid)
    dmin = _defect_distance_grid(lattice, S, ngrid)
    near_defect = dmin < 1.5 * lattice.period_a

    # Inversion pairing G -> -G inside the basis for the parity character.
    order = {(m, n): i for i, (m, n) in enumerate(map(tuple, basis.indices))}
    neg = np.array([order[(-m, -n)] for m, n in map(tuple, basis.indices)])

    modes = []
    for val, vec in zip(vals, vecs.T):
        freq = lattice.period_a / (2.0 * np.pi) * float(np.sqrt(max(val, 0.0)))
        hz, dhx, dhy = _reconstruct_fields(vec, basis, ngrid)
        u_e = (np.abs(dhx) ** 2 + np.abs(dhy) ** 2) / eps_grid
        peak = u_e.max()
        if peak <= 0.0:
            continue
        u_e /= peak
        field = np.abs(hz) / np.sqrt(peak)
        loc = float(u_e[near_defect].sum() / u_e.sum())
        parity = float(np.sign(vec @ vec[neg]))
        modes.append(
            CavityModeProfile(
                frequency=freq,
                field_grid=field,
                energy_density=u_e,
                eps_grid=eps_grid,
                lattice=lattice,
                supercell_size=S,
                grid_per_period=grid_per_period,
                localization=loc,
                parity=parity,
            )
        )
    modes.sort(key=lambda m: m.frequency)
    return modes


def dipole_doublets(
    modes: list[CavityModeProfile],
    max_fractional_split: float = 1e-3,
    min_localization: float = 0.6,
) -> list[tuple[CavityModeProfile, CavityModeProfile]]:
    """Nearly-degenerate pairs of localized, inversion-odd in-gap modes.

    The H1 dipole doublet is inversion-odd and strongly localized; continuum
    leftovers are delocalized, and other defect families are either even
    (quadrupole) or non-degenerate singlets (hexapole), so for an ideal H1 the
    returned list has exactly one pair.
    """
    cand = [m for m in modes if m.parity < 0 and m.localization >= min_localization]
    cand.sort(key=lambda m: m.frequency)
    pairs = []
    i = 0
    while i + 1 < len(cand):
        f1, f2 = cand[i].frequency, cand[i + 1].frequency
        if (f2 - f1) / (0.5 * (f1 + f2)) < max_fractional_split:
            pairs.append((cand[i], cand[i + 1]))
            i += 2
        else:
            i += 1
    return pairs


def mode_volume(
    profile: CavityModeProfile,
    slab: SlabWaveguide,
    wavelength: float,
    vertical_height: float | None = None,
    *,
    index: float | None = None,
    region: str = "dielectric",
) -> float:
    """Effective mode volume in units of (wavelength/index)^3.

    V = [integral of eps|E|^2 dA * vertical_height] / max(eps|E|^2), with the
    maximum taken over `region`: "dielectric" (default) normalizes at the
    strongest point accessible to an embedded emitter, "all" uses the global
    peak (which for air-hole lattices sits just inside a hole wall, where the
    normal E-field jumps by the permittivity contrast).

    `vertical_height` defaults to the slab thickness and `index` to the slab
    core index.
    """
    u = profile.energy_density
    if not np.any(u > 0):
        raise ValueError("zero-field profile")
    if vertical_height is None:
        vertical_height = slab.thickness
    if index is None:
        index = slab.n_core
    if region == "dielectric":
        in_diel = profile.eps_grid == profile.lattice.eps_background
        peak = float(u[in_diel].max())
    elif region == "all":
        peak = float(u.max())
    else:
        raise ValueError(f"unknown normalization region {region!r}")
    ngrid = u.shape[0]
    area_element = profile.supercell_area / ngrid**2
    integral = float(u.sum()) * area_element
    return integral * vertical_height / peak / (wavelength / index) ** 3
