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

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import (
    SlabWaveguide,
    TriangularLattice,
    _fourier_coefficient,
    _hole_form_factor,
    gamma_m_k_path,
    real_basis,
    reciprocal_basis,
)

__all__ = [
    "hexagon_indices",
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
    "doublet_splitting",
    "mode_volume",
]


# `dipole_doublets`: the largest fractional splitting of a doublet and the
# smallest energy fraction within 1.5 periods of the defect of its modes.
DOUBLET_MAX_SPLITTING = 1e-3
DOUBLET_MIN_LOCALIZATION = 0.6
# `solve_h1_modes`: eigenvalues within this relative distance are degenerate.
DEGENERACY_RTOL = 1e-10


class BandSolverError(RuntimeError):
    """Eigensolver failure; the message names the offending k-point."""


def hexagon_indices(cutoff: int) -> np.ndarray:
    """Integer pairs (m, n), row-major, with m^2 + n^2 + m*n <= cutoff^2: on
    the 60-degree reciprocal basis, G = m*g1 + n*g2 in the ball |G| <= cutoff*|g1|.
    The set holds G = 0 and is exactly closed under the lattice's point group C6v."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    ms = np.arange(-2 * cutoff, 2 * cutoff + 1)  # the ball reaches |n| = 2N/sqrt(3)
    m, n = np.meshgrid(ms, ms, indexing="ij")
    inside = m * m + n * n + m * n <= cutoff * cutoff
    return np.stack([m[inside], n[inside]], axis=-1)


@dataclass(frozen=True, eq=False)
class PlaneWaveBasis:
    """Plane waves G = m*g1 + n*g2 on the reciprocal lattice of an S x S
    supercell, g = b / S, with (m, n) the hexagonal ball `hexagon_indices`.

    S = 1 is the bulk crystal. Because the ball is closed under the point
    group, symmetry-equivalent k-points give the same bands and degenerate
    defect modes stay degenerate to machine precision.
    """

    g1: np.ndarray
    g2: np.ndarray
    indices: np.ndarray  # (n_pw, 2) integer coefficients (m, n)
    supercell_size: int  # S; 1 for the bulk

    @classmethod
    def bulk(cls, lattice: TriangularLattice, cutoff: int) -> "PlaneWaveBasis":
        """The basis on the bulk reciprocal lattice: `supercell` with S = 1."""
        return cls.supercell(lattice, 1, cutoff)

    @classmethod
    def supercell(
        cls, lattice: TriangularLattice, supercell_size: int, cutoff: int
    ) -> "PlaneWaveBasis":
        """The basis of radius `cutoff` on the S x S supercell's reciprocal lattice;
        ValueError where the solvers' squared wavevectors leave the normal
        floats: the largest, at a corner of the `_eps_matrix` table, overflows,
        or the smallest nonzero, |g1|^2, underflows (the bands would read 0)."""
        if supercell_size < 1:
            raise ValueError("supercell_size must be >= 1")
        indices = hexagon_indices(cutoff)
        g = 4.0 * math.pi / (math.sqrt(3.0) * lattice.period_a) / supercell_size  # |g1|
        edge = math.sqrt(3.0) * 2 * int(np.abs(indices).max()) * g  # dm = dn = span
        if not (math.isfinite(edge * edge) and g * g >= sys.float_info.min):
            raise ValueError(f"{lattice.period_a} nm gives squared wavevectors from {g * g:.3g} "
                             f"to {edge * edge:.3g} nm^-2, beyond the normal float range")
        g1, g2 = (b / supercell_size for b in reciprocal_basis(lattice))
        return cls(g1, g2, indices, supercell_size)

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def g_vectors(self) -> np.ndarray:
        """Cartesian G vectors, shape (n_pw, 2), in 1/nm."""
        return self.indices @ np.stack([self.g1, self.g2])


def _eps_matrix(lattice: TriangularLattice, basis: PlaneWaveBasis) -> np.ndarray:
    """Permittivity matrix E[i, j] = eps_hat(G_i - G_j).

    The bulk crystal for a bulk basis, otherwise the basis's S x S supercell
    with the central hole removed. That hole arrangement is periodic with the
    supercell, so its structure factor is analytic: S^2 - 1 on bulk
    reciprocal vectors (supercell indices that are multiples of S) and -1
    elsewhere, times the single-hole form factor.

    E depends on i, j only through the index difference (dm, dn), so the
    formula is evaluated once per difference, on the table of all |dm|,
    |dn| <= `span`, and E is gathered from that table.
    """
    idx = basis.indices
    span = 2 * int(np.abs(idx).max())
    d = np.arange(-span, span + 1)
    dm, dn = np.meshgrid(d, d, indexing="ij")
    dg = dm[..., None] * basis.g1 + dn[..., None] * basis.g2
    gnorm = np.linalg.norm(dg, axis=-1)
    origin = (dm == 0) & (dn == 0)
    S = basis.supercell_size
    if S == 1:
        table = _fourier_coefficient(lattice, gnorm, origin)
    else:
        deps = 1.0 - lattice.eps_background  # air holes
        structure = np.where((dm % S == 0) & (dn % S == 0), float(S * S - 1), -1.0)
        # One hole over the supercell area: fill fraction f / S^2.
        table = deps * (lattice.fill_fraction / S**2) * structure * _hole_form_factor(
            gnorm * lattice.hole_radius
        )
        table[origin] += lattice.eps_background
    width = 2 * span + 1
    flat = idx[:, 0] * width + idx[:, 1]
    return table.ravel()[flat[:, None] - flat[None, :] + span * (width + 1)]


def _inverse_eps_table(E: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(E)
    except np.linalg.LinAlgError as exc:  # physically impossible for eps > 0
        raise BandSolverError(f"singular permittivity matrix: {exc}") from exc


# Point-group operations (m, n) -> (a m + b n, c m + d n) on the hexagonal
# basis, as (a, b, c, d): the inversion G -> -G, and the mirrors y -> -y and
# through the Gamma-M line (along b1) and the Gamma-K line (along b1 + b2).
_INVERSION = (-1, 0, 0, -1)
_MIRROR_Y = (1, 0, -1, -1)
_MIRROR_GM = (1, 1, 0, -1)
_MIRROR_GK = (0, 1, 1, 0)


def _basis_image(basis: PlaneWaveBasis, operation) -> np.ndarray:
    """Position in `basis` of the image of each plane wave under `operation`.

    The basis is closed under the point group, and its row-major (m, n) are
    sorted by the key m * width + n, so each image is found by bisection.
    """
    a, b, c, d = operation
    m, n = basis.indices.T
    width = 2 * int(np.abs(basis.indices).max()) + 1
    return np.searchsorted(m * width + n, (a * m + b * n) * width + (c * m + d * n))


def _class_blocks(matrix: np.ndarray, image: np.ndarray, sign: np.ndarray) -> dict:
    """Split symmetric `matrix` (..., n, n) by a signed basis permutation.

    P e_i = sign[i] e_image[i] must be an involution that commutes with
    `matrix`. Its class c (+1 or -1) is spanned by e_f for the fixed points
    f = image[f] with sign[f] = c, then by (e_p + w e_q)/sqrt(2), w = c sign[p],
    for the pairs p < q = image[p]. There the matrix is the block
        [[M[f, f'],            sqrt(2) M[f, p']],
         [sqrt(2) M[p, f'],    M[p, p'] + w' M[p, q']]].
    Returns {c: (block, column, weight)}: basis vector i enters the class's
    vector column[i] with coefficient weight[i], 0 when it is not in the
    class, so a vector y of the block is weight * y[column] in the basis.
    """
    index = np.arange(len(image))
    p = np.flatnonzero(index < image)
    q = image[p]
    m_pp, m_pq = matrix[..., p[:, None], p], matrix[..., p[:, None], q]
    classes = {}
    for c in (+1, -1):
        f = np.flatnonzero((index == image) & (sign == c))
        w = c * sign[p]
        nf = len(f)
        block = np.empty(matrix.shape[:-2] + (nf + len(p),) * 2)
        block[..., :nf, :nf] = matrix[..., f[:, None], f]
        block[..., :nf, nf:] = np.sqrt(2.0) * matrix[..., f[:, None], p]
        block[..., nf:, :nf] = np.swapaxes(block[..., :nf, nf:], -1, -2)
        np.add(m_pp, w * m_pq, out=block[..., nf:, nf:])
        column, weight = np.zeros(len(image), dtype=int), np.zeros(len(image))
        column[f], weight[f] = np.arange(nf), 1.0
        column[p] = column[q] = nf + np.arange(len(p))
        weight[p], weight[q] = np.sqrt(0.5), w * np.sqrt(0.5)
        classes[c] = block, column, weight
    return classes


def _inverse_by_classes(matrix: np.ndarray, image: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """inv(matrix) from the inverses of its class blocks (`_class_blocks`)."""
    inverse = np.zeros_like(matrix)
    for block, column, weight in _class_blocks(matrix, image, sign).values():
        inverse += np.outer(weight, weight) * _inverse_eps_table(block)[column[:, None], column]
    return inverse


def _reduce_k(k: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """The shortest k - G over reciprocal vectors G: k moved into the first
    Brillouin zone. Of the nine cells around the nearest lattice point, k
    moves only to one shorter beyond round-off, so zone-boundary points (M,
    K, the M-K edge) keep their vector.
    """
    basis = np.stack([b1, b2])
    nearest = np.rint(np.linalg.solve(basis.T, k))
    best = k
    for shift in itertools.product((-1, 0, 1), repeat=2):
        cand = k - (nearest + shift) @ basis
        if cand @ cand < (1.0 - 1e-12) * (best @ best):
            best = cand
    return best


def _assemble_te(eta: np.ndarray, k: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The operator at wavevector k, shape (2,), or at a stack of them, (..., 2).
    `eta` is symmetrized first, so the operator is exactly symmetric. The
    stack of (k + G).(k + G') is scaled in place: one stack-sized array."""
    kg = k[..., None, :] + g
    theta = kg @ np.swapaxes(kg, -1, -2)
    theta *= 0.5 * (eta + eta.T)
    return theta


def build_te_operator(
    lattice: TriangularLattice, k, basis: PlaneWaveBasis
) -> np.ndarray:
    """Hermitian TE operator Theta_{GG'} = eta(G-G') (k+G).(k+G') at wavevector k.

    k may lie anywhere; it is reduced into the first Brillouin zone, so band
    frequencies are exactly periodic under k -> k + b1 and equivalent zone
    points (the six M, the six K) agree. Eigenvalues are (omega/c)^2 >= 0.
    No solver here calls it: it is the single-k entry point the tests check
    against analytic oracles (empty lattice, hermiticity, periodicity in k).
    """
    k = _reduce_k(np.asarray(k, dtype=float), *reciprocal_basis(lattice))
    eta = _inverse_eps_table(_eps_matrix(lattice, basis))
    return _assemble_te(eta, k, basis.g_vectors)


@dataclass(frozen=True, eq=False)
class BandStructure:
    """TE band frequencies (a/lambda) along a k-path; rows sorted ascending."""

    k_fractions: np.ndarray  # (n_k, 2)
    arc_lengths: np.ndarray  # (n_k,)
    frequencies: np.ndarray  # (n_k, n_bands)

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
    samples_per_segment: int,
    basis: PlaneWaveBasis,
    n_bands: int,
) -> BandStructure:
    """Lowest `n_bands` TE bands along the Gamma-M-K-Gamma path (`gamma_m_k_path`)
    with `samples_per_segment` points per segment.

    Eigenvalues lambda of the TE operator are converted to a/lambda via
    (a/2pi) * sqrt(lambda). On the Gamma-M and K-Gamma segments k lies on a
    mirror line of C6v, so the operator splits into that mirror's two
    classes (`_class_blocks`); the M-K points are solved whole. At Gamma it
    splits by inversion, and the even class's G = 0 row, which is zero, is
    dropped: band 1 starts at exactly 0. The operators of one segment's
    points are built as one stack, which is freed once split into its
    classes, and the class blocks are freed before the next segment's
    stack is built: at most one segment's operators are live.
    """
    if n_bands > len(basis):
        raise ValueError(f"n_bands={n_bands} exceeds basis size {len(basis)}")
    frac, kpts, arc = gamma_m_k_path(lattice, samples_per_segment)
    eta = _inverse_eps_table(_eps_matrix(lattice, basis))
    g = basis.g_vectors

    gamma = np.all(frac == 0.0, axis=1)
    on_gm = (frac[:, 1] == 0.0) & ~gamma
    on_gk = (frac[:, 0] == frac[:, 1]) & ~gamma & ~on_gm
    rest = ~(gamma | on_gm | on_gk)
    lambdas = np.empty((len(kpts), n_bands))
    for points, operation in ((gamma, _INVERSION), (on_gm, _MIRROR_GM), (on_gk, _MIRROR_GK),
                              (rest, None)):
        idx = np.flatnonzero(points)
        if idx.size == 0:
            continue
        theta = _assemble_te(eta, kpts[idx], g)  # path points lie in the first zone
        if operation is None:
            parts = [theta]
        else:
            parts = [block for block, _, _ in _class_blocks(
                theta, _basis_image(basis, operation), np.ones(len(basis))).values()]
        del theta  # the whole-k stack goes once it is split into the parts
        vals = []
        if operation is _INVERSION:
            parts[0] = parts[0][..., 1:, 1:]  # the zero G = 0 row,
            vals.append(np.zeros((len(idx), 1)))  # whose lambda is exactly 0
        try:
            vals += [np.linalg.eigvalsh(part) for part in parts]
        except np.linalg.LinAlgError as exc:
            raise BandSolverError(
                f"eigensolver failed at k-points {idx.tolist()}: {exc}") from exc
        del parts  # before the next segment's stack is assembled
        vals = np.sort(np.concatenate(vals, axis=-1), axis=-1)
        lambdas[idx] = vals[:, :n_bands]
    freqs = lattice.period_a / (2.0 * np.pi) * np.sqrt(np.clip(lambdas, 0.0, None))
    return BandStructure(k_fractions=frac, arc_lengths=arc, frequencies=freqs)


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
    """Localized supercell eigenmode: its numbers, and its field grid if it
    can be a dipole-doublet partner (else None).

    `energy_density` is the in-plane electric energy density eps*|E|^2 on a
    uniform fractional grid over the supercell, normalized to a maximum of 1;
    `density_sum` is its sum and `dielectric_peak` its maximum over the
    dielectric. `parity` is the eigenvector's inversion character, h(-G) =
    parity * h(G), exactly +1.0 or -1.0: the inversion class it was solved in.
    `localization` is the energy fraction within 1.5 periods of the defect,
    used to tell defect modes from folded continuum states.
    """

    frequency: float  # a/lambda
    energy_density: np.ndarray | None
    lattice: TriangularLattice
    supercell_size: int
    grid_per_period: int
    localization: float
    parity: float
    density_sum: float
    dielectric_peak: float

    @property
    def wavelength(self) -> float:
        """Free-space wavelength in nm."""
        return self.lattice.period_a / self.frequency

    @property
    def supercell_area(self) -> float:
        return self.supercell_size**2 * self.lattice.cell_area


def _supercell_grid(lattice: TriangularLattice, S: int, ngrid: int, rows, cols):
    """Points `rows` x `cols` (slices) of the cell-centred
    ngrid x ngrid grid over the supercell: fractional lattice coordinates
    (f1, f2) in units of a1, a2 and Cartesian (X, Y) in nm."""
    a1, a2 = real_basis(lattice)
    u = (np.arange(ngrid) + 0.5) / ngrid
    U, V = np.meshgrid(u[rows], u[cols], indexing="ij")
    f1, f2 = U * S, V * S
    return f1, f2, f1 * a1[0] + f2 * a2[0], f1 * a1[1] + f2 * a2[1]


def _supercell_eps_grid(lattice: TriangularLattice, S: int, ngrid: int) -> np.ndarray:
    """Analytic permittivity on the supercell grid (central hole absent).

    Every period cell sees its four corner sites at the same offsets, so the
    hole mask of the first cell is computed once, per corner, and tiled. The
    four cells with the removed site (the supercell corners) as a corner then
    keep only the holes of their other three corners.
    """
    a1, a2 = real_basis(lattice)
    gpp = ngrid // S
    cell = slice(0, gpp)
    f1, f2, X, Y = _supercell_grid(lattice, S, ngrid, cell, cell)
    r2 = (lattice.hole_radius) ** 2
    corner_holes = {}
    for di in (0, 1):
        for dj in (0, 1):
            n1 = np.floor(f1) + di
            n2 = np.floor(f2) + dj
            cx = n1 * a1[0] + n2 * a2[0]
            cy = n1 * a1[1] + n2 * a2[1]
            corner_holes[di, dj] = (X - cx) ** 2 + (Y - cy) ** 2 <= r2
    in_hole = np.tile(np.logical_or.reduce(list(corner_holes.values())), (S, S))
    for di, dj in corner_holes:
        # The cell whose corner (di, dj) is the removed site.
        c1, c2 = (S - 1) * di * gpp, (S - 1) * dj * gpp
        others = [h for key, h in corner_holes.items() if key != (di, dj)]
        in_hole[c1 : c1 + gpp, c2 : c2 + gpp] = np.logical_or.reduce(others)
    eps = np.full(in_hole.shape, lattice.eps_background)
    eps[in_hole] = 1.0
    return eps


def _near_defect_mask(lattice: TriangularLattice, S: int, ngrid: int) -> np.ndarray:
    """Grid points closer than 1.5 periods to a defect site (supercell corner).

    Such a point lies less than sqrt(3) cells from the site along each
    lattice axis, so only the two cells next to each corner are tested.
    """
    a1, a2 = real_basis(lattice)
    A1, A2 = S * a1, S * a2
    span = 2 * (ngrid // S)
    sides = (slice(0, span), slice(ngrid - span, ngrid))
    near = np.zeros((ngrid, ngrid), dtype=bool)
    for p in (0, 1):
        for q in (0, 1):
            _, _, X, Y = _supercell_grid(lattice, S, ngrid, sides[p], sides[q])
            cx = p * A1[0] + q * A2[0]
            cy = p * A1[1] + q * A2[1]
            near[sides[p], sides[q]] = np.hypot(X - cx, Y - cy) < 1.5 * lattice.period_a
    return near


def _energy_densities(vecs: np.ndarray, basis: PlaneWaveBasis, eps_grid: np.ndarray):
    """Yield |grad H_z|^2 / eps on the supercell grid for each column of `vecs`.

    Each column must have a definite inversion parity, h(-G) = +h(G) or
    h(-G) = -h(G), as every state of `solve_h1_modes` has. Then dH/dx and
    dH/dy are both real (even) or both imaginary (odd), so |dH/dx + i dH/dy|^2
    is |grad H|^2, and one zero-padded inverse FFT of i(G_x + i G_y) h_G gives
    the density. For a column without a definite parity the result is not
    |grad H|^2. The grid is the cell-centred one of `_supercell_grid`, where
    the permittivity and the masks are sampled: point j sits at (j + 1/2)/n,
    so plane wave (m, n') carries the half-cell phase exp(i pi (m + n')/n).
    The transform runs along axis 0 first, over only the columns
    holding plane waves, then along the contiguous last axis one band of
    grid-per-period rows at a time, each band's |field| going straight into
    the density. The padded band and its field are buffers reused across
    bands and states, a period's rows each, not the grid's; each state's
    density is a fresh array.
    """
    ngrid = eps_grid.shape[0]
    band = ngrid // basis.supercell_size
    cols, col_of = np.unique(basis.indices[:, 1] % ngrid, return_inverse=True)
    mm = basis.indices[:, 0] % ngrid
    g = basis.g_vectors
    # i(G_x + i G_y), times ngrid^2 to undo the inverse transform's 1/ngrid^2.
    weights = (1j * g[:, 0] - g[:, 1]) * ngrid**2
    weights *= np.exp(1j * np.pi * basis.indices.sum(axis=1) / ngrid)
    spectrum = np.zeros((ngrid, len(cols)), dtype=complex)
    padded = np.zeros((band, ngrid), dtype=complex)
    field = np.empty_like(padded)
    for vec in vecs.T:
        spectrum[mm, col_of] = vec * weights
        rows = np.fft.ifft(spectrum, axis=0)
        u_e = np.empty(eps_grid.shape)
        for r in range(0, ngrid, band):
            padded[:, cols] = rows[r:r + band]
            np.fft.ifft(padded, axis=-1, out=field)
            np.abs(field, out=u_e[r:r + band])
        u_e *= u_e
        u_e /= eps_grid
        yield u_e


def _h1_classes(E: np.ndarray, basis: PlaneWaveBasis):
    """The Gamma-point TE operator of the supercell in its four symmetry classes.

    By inversion first (`_class_blocks` on E with the map G -> -G): on the
    pairs p < q = -p, since G_q = -G_p, the operator's blocks are
        Theta_even = inv(E_odd) o (G_p . G_p'),
        Theta_odd = inv(E_even)[1:, 1:] o (G_p . G_p'),
    where E_even's first row is the single G = 0 index, at which the operator
    is zero: dropping it loses only the lambda = 0 state. Then by the mirror
    y -> -y, which sends pair p to the pair holding sigma G_p, with the sign
    of the parity when sigma G_p is the second of its pair: E_odd and E_even
    are inverted one mirror class at a time, and each Theta block is split
    into its two classes. The dipole doublet's partners fall in the two
    mirror classes of the odd block (Painter, Vuckovic & Scherer, JOSA B 16,
    275, 1999).

    Yields (parity, mirror, theta, to_pairs, to_waves), where the
    (column, weight) maps `to_pairs` take the block's vectors to the pairs
    and `to_waves` the pairs to the plane waves (see `_class_blocks`).
    """
    neg = _basis_image(basis, _INVERSION)
    p = np.flatnonzero(np.arange(len(basis)) < neg)
    pair = np.empty(len(basis), dtype=int)
    pair[p] = pair[neg[p]] = np.arange(len(p))
    sigma = _basis_image(basis, _MIRROR_Y)[p]
    image, second = pair[sigma], sigma > neg[sigma]
    e_classes = _class_blocks(E, neg, np.ones(len(basis)))
    (e_even, col_even, w_even), (e_odd, col_odd, w_odd) = e_classes[+1], e_classes[-1]
    eta_even = _inverse_by_classes(e_even, np.concatenate([[0], 1 + image]),
                                   np.ones(len(p) + 1))[1:, 1:]
    eta_odd = _inverse_by_classes(e_odd, image, np.where(second, -1.0, 1.0))
    # Theta_even lives on E_even's pair vectors, which follow its G = 0 one.
    to_even = (np.maximum(col_even - 1, 0), np.where(col_even > 0, w_even, 0.0))
    by_parity = {+1: (eta_odd, to_even), -1: (eta_even, (col_odd, w_odd))}
    g = basis.g_vectors[p]
    for parity, (eta, to_waves) in by_parity.items():
        theta = _assemble_te(eta, np.zeros(2), g)
        mirror_classes = _class_blocks(theta, image, np.where(second, float(parity), 1.0))
        for mirror, (block, column, weight) in mirror_classes.items():
            yield parity, mirror, block, (column, weight), to_waves


def solve_h1_modes(
    lattice: TriangularLattice,
    basis: PlaneWaveBasis,
    *,
    gap: BandGap | None,
    grid_per_period: int,
) -> list[CavityModeProfile]:
    """Eigenmodes of an H1 defect (central hole removed) inside the bulk TE gap.

    Solves the S x S supercell of `basis` (a `PlaneWaveBasis.supercell`) at
    its Gamma point and keeps states whose frequency falls strictly inside
    `gap`, the bulk crystal's TE gap (`find_te_gap`). Returns an empty list
    when the gap is None or no state lands inside it. The operator is solved
    in its four classes of inversion and the mirror y -> -y (`_h1_classes`),
    so each state's parity is exact, that of its class; the states are
    merged by frequency. Field grids use `grid_per_period` points per lattice
    period. Every state gets its grid's sum and dielectric peak; only
    dipole-doublet candidates keep the grid.

    The partners of a degenerate pair (the dipole doublet) come from the two
    mirror classes, so their fields do not depend on the last bits of `gap`
    or on the BLAS thread count. They are ordered by mirror class, odd then
    even, and keep the pair's eigenvalues in ascending order.
    """
    S = basis.supercell_size
    if S < 5 or S % 2 == 0:
        raise ValueError(f"supercell_size must be an odd integer >= 5, got {S}")
    if grid_per_period < 64:
        raise ValueError("grid_per_period must be >= 64")
    if gap is None:
        return []

    margin = 1e-7
    scale = 2.0 * np.pi / lattice.period_a
    lo = (gap.lower_edge * (1.0 + margin) * scale) ** 2
    hi = (gap.upper_edge * (1.0 - margin) * scale) ** 2
    solved = []
    for parity, mirror, theta, to_pairs, to_waves in _h1_classes(_eps_matrix(lattice, basis),
                                                                 basis):
        try:
            vals, v = np.linalg.eigh(theta)
        except np.linalg.LinAlgError as exc:
            raise BandSolverError(f"supercell eigensolver failed: {exc}") from exc
        keep = (vals > lo) & (vals <= hi)
        vecs = v[:, keep]
        for column, weight in (to_pairs, to_waves):
            vecs = weight[:, None] * vecs[column]
        n = vecs.shape[1]
        solved.append((vals[keep], np.full(n, float(parity)), np.full(n, mirror), vecs))
    vals, parities, mirrors, vecs = (np.concatenate(part, axis=-1) for part in zip(*solved))
    if vals.size == 0:
        return []
    # States by frequency, those of a degenerate group by mirror class; each
    # group's eigenvalues stay ascending.
    rank = np.argsort(vals, kind="stable")
    vals = vals[rank]
    group = np.cumsum(np.diff(vals, prepend=vals[0]) > DEGENERACY_RTOL * vals)
    rank = rank[np.lexsort((mirrors[rank], group))]
    parities, vecs = parities[rank], vecs[:, rank]

    ngrid = grid_per_period * S
    eps_grid = _supercell_eps_grid(lattice, S, ngrid)
    in_dielectric = eps_grid == lattice.eps_background
    near_defect = _near_defect_mask(lattice, S, ngrid)

    modes = []
    densities = _energy_densities(vecs, basis, eps_grid)
    for val, parity, u_e in zip(vals, parities, densities):
        freq = lattice.period_a / (2.0 * np.pi) * float(np.sqrt(max(val, 0.0)))
        peak = u_e.max()
        if peak <= 0.0:
            continue
        u_e /= peak
        total = float(u_e.sum())
        loc = float(u_e[near_defect].sum() / total)
        modes.append(
            CavityModeProfile(
                frequency=freq,
                energy_density=u_e if _doublet_candidate(parity, loc) else None,
                lattice=lattice,
                supercell_size=S,
                grid_per_period=grid_per_period,
                localization=loc,
                parity=float(parity),
                density_sum=total,
                dielectric_peak=float(u_e[in_dielectric].max()),
            )
        )
    return modes


def _doublet_candidate(parity: float, localization: float) -> bool:
    """A dipole-doublet partner is inversion-odd and localized."""
    return parity < 0 and localization >= DOUBLET_MIN_LOCALIZATION


def doublet_splitting(f_a: float, f_b: float) -> float:
    """Fractional splitting |f_b - f_a| / mean(f_a, f_b) of two mode frequencies."""
    return abs(f_b - f_a) / (0.5 * (f_a + f_b))


def dipole_doublets(
    modes: list[CavityModeProfile],
) -> list[tuple[CavityModeProfile, CavityModeProfile]]:
    """Nearly-degenerate pairs of localized, inversion-odd in-gap modes.

    Pairs are adjacent in frequency, split by less than
    `DOUBLET_MAX_SPLITTING` and each at least `DOUBLET_MIN_LOCALIZATION`
    localized. The H1 dipole doublet is inversion-odd and strongly localized;
    continuum leftovers are delocalized, and other defect families are either
    even (quadrupole) or non-degenerate singlets (hexapole), so for an ideal
    H1 the returned list has exactly one pair.
    """
    cand = [m for m in modes if _doublet_candidate(m.parity, m.localization)]
    cand.sort(key=lambda m: m.frequency)
    pairs = []
    i = 0
    while i + 1 < len(cand):
        a, b = cand[i], cand[i + 1]
        if doublet_splitting(a.frequency, b.frequency) < DOUBLET_MAX_SPLITTING:
            pairs.append((a, b))
            i += 2
        else:
            i += 1
    return pairs


def mode_volume(profile: CavityModeProfile, slab: SlabWaveguide) -> float:
    """Effective mode volume in units of (wavelength/n_core)^3.

    V = [integral of eps|E|^2 dA * slab thickness] / max(eps|E|^2), at the
    profile's own wavelength and the slab's core index. The maximum is taken
    over the dielectric, the strongest point accessible to an embedded
    emitter; the global peak sits just inside a hole wall, where the normal
    E-field jumps by the permittivity contrast. Reads no grid: the profile
    stores the sum and the dielectric peak of its grid. ValueError where
    (wavelength/n_core)^3 in nm^3 leaves the normal floats (a period above
    about 5e102 nm or below about 3e-103 nm).
    """
    if not profile.density_sum > 0.0:
        raise ValueError("zero-field profile")
    ngrid = profile.grid_per_period * profile.supercell_size
    integral = profile.density_sum * (profile.supercell_area / ngrid**2)
    length = profile.wavelength / slab.n_core
    try:
        cube = length**3
    except OverflowError:
        cube = math.inf
    if not sys.float_info.min <= cube < math.inf:
        raise ValueError(f"(wavelength/n_core)^3 = ({length:.3g} nm)^3 is beyond the "
                         f"normal float range")
    return integral * slab.thickness / profile.dielectric_peak / cube
