"""Discretized real-analytic structures on R^d / R^{d+1} and sampled fields.

Everything downstream (dyadic partitions, maximal operators, weights, norms,
potentials, solvers) works on a `Field`: a real array sampled at the cell
centers of a uniform grid over a centered box, together with a `Structure`
fixing the anisotropy exponents and the background measure.

All "R^d" objects live on a truncated box; operations that are sensitive to
the truncation radius accept the grid so callers can sweep it.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field as dfield
from pathlib import Path

import numpy as np

__all__ = [
    "ConfigError",
    "GridSpec",
    "Structure",
    "Field",
    "RadialPower",
    "SubspacePower",
    "ParabolicPower",
    "ShellPower",
    "singular_field",
    "power_integrand",
    "make_structure",
    "make_grid",
    "integrate",
    "average",
    "lp_norm",
    "mollify",
    "save_field",
    "load_field",
    "save_field_csv",
    "load_field_csv",
    "unit_sphere_area",
]

MAX_TOTAL_CELLS = 2 ** 24


class ConfigError(Exception):
    """A configuration error of the user's: a bad argument, spec or input
    file, or a resolution too coarse for what is asked.  The CLI reports it
    and exits with code 2; the check runner passes it through."""


def unit_sphere_area(d):
    """Surface area of the unit sphere S^{d-1} in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of cells over the centered box prod_i [-L_i, L_i].

    Samples live at cell centers; cell widths are h_i = 2 L_i / n_i.
    """

    half_extent: tuple
    cells: tuple
    periodic: bool = False

    def __post_init__(self):
        he = tuple(float(x) for x in self.half_extent)
        n = tuple(int(x) for x in self.cells)
        if len(he) != len(n):
            raise ValueError("half_extent and cells must have equal length")
        if any(x <= 0 for x in he):
            raise ValueError("half_extent entries must be positive")
        if any(x <= 0 or x % 2 for x in n):
            raise ValueError("cells entries must be positive even integers")
        total = 1
        for x in n:
            total *= x
        if total > MAX_TOTAL_CELLS:
            raise ValueError(f"total cell count {total} exceeds cap {MAX_TOTAL_CELLS}")
        object.__setattr__(self, "half_extent", he)
        object.__setattr__(self, "cells", n)

    @property
    def dim(self):
        return len(self.cells)

    @property
    def h(self):
        return tuple(2.0 * L / n for L, n in zip(self.half_extent, self.cells))

    @property
    def cell_volume(self):
        v = 1.0
        for h in self.h:
            v *= h
        return v

    def axis(self, i):
        """Cell-center coordinates along axis i."""
        L, n = self.half_extent[i], self.cells[i]
        h = 2.0 * L / n
        return -L + (np.arange(n) + 0.5) * h

    def axes(self):
        return [self.axis(i) for i in range(self.dim)]

    def mesh(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    def radius(self, center=None):
        """Euclidean distance of every cell center from `center` (default 0)."""
        xs = self.mesh()
        if center is None:
            center = [0.0] * self.dim
        r2 = sum((x - c) ** 2 for x, c in zip(xs, center))
        return np.sqrt(r2)

    def refine(self, factor=2):
        return GridSpec(self.half_extent, tuple(n * factor for n in self.cells), self.periodic)


def make_grid(dim, half_extent, cells, periodic=False):
    if np.isscalar(half_extent):
        half_extent = (float(half_extent),) * dim
    if np.isscalar(cells):
        cells = (int(cells),) * dim
    return GridSpec(tuple(half_extent), tuple(cells), periodic)


# ---------------------------------------------------------------------------
# Singular features: closed-form local models attached to sampled fields.
#
# Center sampling of |x|^{-gamma} at the origin is undefined, so the cell
# containing a declared singular point stores the exact cell average from
# radial closed-form integration (equal-volume ball rule).  When a requested
# power of the field is not locally integrable the exact mass is +inf, which
# propagates into norms; that is the honest value, not an overflow.
#
# Every feature answers power_masses(grid, p) and scaled(c); singular_field
# writes the cell averages and power_integrand the masses, so nothing else
# needs to know the feature types.
# ---------------------------------------------------------------------------


class _CellFeature:
    """A singular feature whose singular cells all carry one exact mass."""

    def power_masses(self, grid, p):
        """(cell index, exact mass of |f|^p) for each singular cell; the mass
        is +inf where the power is not locally integrable."""
        mass = self.exact_power_mass(grid, p)
        return [(idx, mass) for idx in self.cell_indices(grid)]

    def scaled(self, c):
        """The feature of c * f: the amplitude times |c|."""
        out = copy.copy(self)
        out.amp = abs(c) * self.amp
        return out


class RadialPower(_CellFeature):
    """Local model amp * |x - center|^{-gamma} near an isolated point."""

    def __init__(self, center, gamma, amp=1.0):
        self.center = tuple(float(c) for c in center)
        self.gamma = float(gamma)
        self.amp = float(amp)

    def cell_indices(self, grid):
        """[] or [index of the cell holding the center]."""
        idx = []
        for i, c in enumerate(self.center):
            L, n = grid.half_extent[i], grid.cells[i]
            h = 2.0 * L / n
            j = int(np.floor((c + L) / h))
            if j < 0 or j >= n:
                return []
            idx.append(j)
        return [tuple(idx)]

    def exact_power_mass(self, grid, p):
        """Exact integral of |f|^p over the singular cell (ball rule).

        The cell is replaced by the ball of equal volume centered at the
        singular point; the radial integral is then elementary.  Returns
        +inf when gamma*p >= d (non-integrable power).
        """
        d = grid.dim
        g = self.gamma * p
        vol = grid.cell_volume
        if g >= d:
            return math.inf
        s = unit_sphere_area(d)
        r_eq = (vol * d / s) ** (1.0 / d)
        return abs(self.amp) ** p * s * r_eq ** (d - g) / (d - g)


class SubspacePower(_CellFeature):
    """Local model amp * |x'|^{-gamma} where x' = coordinates in `axes`.

    Singular on the coordinate subspace {x' = 0}; every cell crossed by the
    subspace gets the exact transverse mass (ball rule in the x' plane).
    """

    def __init__(self, axes, gamma, amp=1.0):
        self.axes = tuple(int(a) for a in axes)
        self.gamma = float(gamma)
        self.amp = float(amp)

    def cell_indices(self, grid):
        """Multi-indices of all cells whose x'-projection contains 0."""
        sel = []
        for i in range(grid.dim):
            if i in self.axes:
                L, n = grid.half_extent[i], grid.cells[i]
                h = 2.0 * L / n
                j = int(np.floor(L / h))
                if j < 0 or j >= n:
                    return []
                sel.append([j])
            else:
                sel.append(list(range(grid.cells[i])))
        out = [()]
        for choices in sel:
            out = [t + (c,) for t in out for c in choices]
        return out

    def exact_power_mass(self, grid, p):
        m = len(self.axes)
        g = self.gamma * p
        if g >= m:
            return math.inf
        tv = 1.0
        rest = 1.0
        for i in range(grid.dim):
            h = grid.h[i]
            if i in self.axes:
                tv *= h
            else:
                rest *= h
        s = unit_sphere_area(m)
        r_eq = (tv * m / s) ** (1.0 / m)
        return abs(self.amp) ** p * s * r_eq ** (m - g) / (m - g) * rest


class ParabolicPower(_CellFeature):
    """Local model amp * (|x| + sqrt|t|)^{-alpha} near the origin of R^{1+1}.

    Exact cell mass by closed-form integration of (x + sqrt t)^{-alpha*p}
    over the four quadrant cells touching (0, 0); t is axis 0.  The power is
    locally integrable iff alpha*p < d + 2 (parabolic dimension), here d=1.
    """

    def __init__(self, alpha, amp=1.0):
        self.alpha = float(alpha)
        self.amp = float(amp)

    def cell_indices(self, grid):
        if grid.dim != 2:
            raise ValueError("ParabolicPower exact masses implemented for d=1 (+t) only")
        out = []
        jt = int(np.floor(grid.half_extent[0] / grid.h[0]))
        jx = int(np.floor(grid.half_extent[1] / grid.h[1]))
        for dt in (-1, 0):
            for dx in (-1, 0):
                if 0 <= jt + dt < grid.cells[0] and 0 <= jx + dx < grid.cells[1]:
                    out.append((jt + dt, jx + dx))
        return out

    @staticmethod
    def _quadrant_mass(ht, hx, g):
        """integral_0^ht integral_0^hx (x + sqrt t)^{-g} dx dt, g != 1,2,3."""
        # substitute t = s^2: dt = 2 s ds
        # I = int_0^X int_0^S (x+s)^(-g) 2 s ds dx with X=hx, S=sqrt(ht)
        if g >= 3.0:
            return math.inf
        X, S = hx, math.sqrt(ht)

        def anti_xs(x, s):
            # int (x+s)^(-g) * 2s ds = 2 [ (x+s)^{1-g}*(x+s)/(2-g) ... ]
            # computed via u = x+s: 2 int (u - x) u^{-g} du
            u = x + s
            if abs(g - 2.0) < 1e-12:
                a = math.log(u)
            else:
                a = u ** (2.0 - g) / (2.0 - g)
            if abs(g - 1.0) < 1e-12:
                b = math.log(u)
            else:
                b = u ** (1.0 - g) / (1.0 - g)
            return 2.0 * (a - x * b)

        # integrate the s-antiderivative over x numerically (smooth in x);
        # 64-point midpoint is plenty since the x-dependence is mild
        n = 256
        xs = (np.arange(n) + 0.5) * (X / n)
        tot = 0.0
        for x in xs:
            tot += anti_xs(x, S) - anti_xs(x, 0.0) if x > 0 else 0.0
        return tot * (X / n)

    def exact_power_mass(self, grid, p):
        """Mass over one of the four corner cells meeting at (0, 0)."""
        g = self.alpha * p
        if g >= 3.0:  # d + 2 with d = 1
            return math.inf
        ht, hx = grid.h[0], grid.h[1]
        m = self._quadrant_mass(ht, hx, g)
        return abs(self.amp) ** p * m


class ShellPower:
    """Model amp * |dist to shell|^{-gamma} across a codimension-1 set.

    Used for integrands that blow up on a hypersurface (e.g. the moving
    sphere |x| = sqrt t).  Cells crossed by the shell get the exact
    transverse 1-d mass; non-integrable transverse powers give +inf.
    """

    def __init__(self, cell_mask_fn, gamma, amp_field=1.0, transverse_h=None):
        self.cell_mask_fn = cell_mask_fn  # grid -> boolean mask of crossed cells
        self.gamma = float(gamma)
        self.amp_field = amp_field  # local amplitudes: ndarray on the grid, or a scalar
        self.transverse_h = transverse_h

    def power_masses(self, grid, p):
        mask = self.cell_mask_fn(grid)
        g = self.gamma * p
        hmin = self.transverse_h if self.transverse_h else min(grid.h)
        if g >= 1.0:
            mass = math.inf
        else:
            # transverse average of |s|^{-g} over a width-hmin slab, times
            # the cell volume (area of the shell slice folded into vol/hmin)
            mass = 2.0 * (hmin / 2.0) ** (1.0 - g) / ((1.0 - g) * hmin) * grid.cell_volume
        amps = np.abs(np.broadcast_to(self.amp_field, mask.shape)[mask]) ** p
        return list(zip(map(tuple, np.argwhere(mask)), (mass * amps).tolist()))

    def scaled(self, c):
        out = copy.copy(self)
        out.amp_field = abs(c) * self.amp_field
        return out


@dataclass
class Field:
    """Sampled real-valued function: one value per cell, at cell centers."""

    grid: GridSpec
    values: np.ndarray
    singular: list = dfield(default_factory=list)
    meta: dict = dfield(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != tuple(self.grid.cells):
            raise ValueError(
                f"values shape {self.values.shape} != grid cells {self.grid.cells}"
            )
        if not self.singular and not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite values in a field not flagged singular")

    def copy(self):
        return Field(self.grid, self.values.copy(), list(self.singular), dict(self.meta))

    def _combine(self, other, op):
        """op on the samples; the result keeps the features of both operands."""
        if isinstance(other, Field):
            return Field(self.grid, op(self.values, other.values), self.singular + other.singular)
        return Field(self.grid, op(self.values, other), list(self.singular))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, other):
        if not isinstance(other, Field) and np.ndim(other) == 0:
            return Field(self.grid, self.values * other, [f.scaled(other) for f in self.singular])
        ov = other.values if isinstance(other, Field) else other
        return Field(self.grid, self.values * ov, list(self.singular))

    __rmul__ = __mul__

    def __abs__(self):
        return Field(self.grid, np.abs(self.values), list(self.singular))

    def power_mass_cells(self, p):
        """(index, exact mass of |f|^p) at every singular cell of every feature;
        a mass of +inf means the continuum integral diverges there."""
        return [pair for feat in self.singular for pair in feat.power_masses(self.grid, p)]


def singular_field(grid, vals, features):
    """The Field of the samples `vals` whose singular cells hold each
    feature's exact cell average (+inf where it is not integrable)."""
    vol = grid.cell_volume
    for feat in features:
        for idx, mass in feat.power_masses(grid, 1.0):
            vals[idx] = mass / vol
    return Field(grid, vals, list(features))


@dataclass(frozen=True)
class Structure:
    """Real-analytic structure: anisotropy exponents, measure, doubling data.

    nu0 solves nu^(-2 k_1) + ... + nu^(-2 k_d) = 4; doubling_n0 is an
    empirical estimate of sup mu(Q_2l)/mu(Q_l), never an assumption.
    """

    dim: int
    anisotropy: tuple
    measure_density: object  # Field or None for the uniform density
    doubling_n0: float
    nu0: float

    @property
    def uniform(self):
        return self.measure_density is None

    @property
    def parabolic(self):
        return self.anisotropy[0] == 2 and all(k == 1 for k in self.anisotropy[1:]) \
            and len(self.anisotropy) > 1

    def density_on(self, grid):
        if self.measure_density is None:
            return np.ones(grid.cells)
        if self.measure_density.grid != grid:
            raise ValueError("measure density sampled on a different grid")
        return self.measure_density.values


def _solve_nu0(anisotropy):
    ks = np.asarray(anisotropy, dtype=float)

    def f(nu):
        return float(np.sum(nu ** (-2.0 * ks))) - 4.0

    lo, hi = 1e-8, 1e8
    # f decreases in nu; bisect
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    nu = math.sqrt(lo * hi)
    assert abs(f(nu)) < 1e-10
    return nu


def _estimate_doubling(anisotropy, density_field):
    """Empirical sup of mu(Q_2l)/mu(Q_l) over a deterministic (x, l) lattice."""
    ks = tuple(anisotropy)
    if density_field is None:
        return float(2 ** sum(ks))
    grid = density_field.grid
    dens = density_field.values
    ratio_max = 1.0
    ls = []
    lmax = min(L ** (1.0 / k) for L, k in zip(grid.half_extent, ks)) / 2.0
    lmin = 8.0 * max(grid.h)  # below this the discrete cubes degenerate
    l = lmax
    for _ in range(6):
        if l < lmin:
            break
        ls.append(l)
        l /= 2.0
    # centers: every 8th cell per axis
    centers = np.meshgrid(*[g[:: max(1, len(g) // 8)] for g in grid.axes()], indexing="ij")
    centers = np.stack([c.ravel() for c in centers], axis=1)
    xs = grid.mesh()
    vol = grid.cell_volume
    for l in ls:
        for c in centers:
            m_small = None
            for fac in (1.0, 2.0):
                inside = np.ones(grid.cells, dtype=bool)
                ok = True
                for i, k in enumerate(ks):
                    half = (fac * l) ** k / 2.0
                    if abs(c[i]) + half > grid.half_extent[i]:
                        ok = False
                        break
                    inside &= np.abs(xs[i] - c[i]) < half
                if not ok:
                    m_small = None
                    break
                m = float(dens[inside].sum()) * vol
                if fac == 1.0:
                    m_small = m
                else:
                    if m_small and m_small > 0:
                        ratio_max = max(ratio_max, m / m_small)
    return float(ratio_max)


def make_structure(dim, anisotropy=None, density=None):
    """Build a Structure; density None means the uniform (Lebesgue) measure."""
    if anisotropy is None:
        anisotropy = (1,) * dim
    anisotropy = tuple(int(k) for k in anisotropy)
    if len(anisotropy) != dim:
        raise ValueError("anisotropy length != dim")
    if any(k < 1 for k in anisotropy):
        raise ValueError("anisotropy entries must be >= 1")
    if density is not None:
        if np.any(density.values <= 0):
            raise ValueError("measure density must be positive at every sample")
    nu0 = _solve_nu0(anisotropy)
    n0 = _estimate_doubling(anisotropy, density)
    return Structure(dim, anisotropy, density, n0, nu0)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def _region_mask(grid, region):
    if region is None:
        return np.ones(grid.cells, dtype=bool)
    lo, hi = region
    xs = grid.mesh()
    mask = np.ones(grid.cells, dtype=bool)
    for i in range(grid.dim):
        mask &= (xs[i] >= lo[i]) & (xs[i] <= hi[i])
    return mask


def power_integrand(field, p, dens):
    """Per-cell integrand |f|^p * dens with exact singular-cell masses.

    Returns (arr, inf_mask): arr is the midpoint integrand whose singular
    cells hold the exact masses (per unit cell volume) in place of the
    samples; inf_mask marks the cells whose continuum mass diverges.
    """
    grid = field.grid
    dens = np.broadcast_to(dens, grid.cells)
    with np.errstate(over="ignore", invalid="ignore"):
        arr = np.abs(field.values) ** float(p) * dens
    inf_mask = ~np.isfinite(arr)
    arr[inf_mask] = 0.0
    vol = grid.cell_volume
    pairs = field.power_mass_cells(float(p))
    for idx, _ in pairs:  # the exact masses replace the samples
        inf_mask[idx] = False
    for idx, mass in pairs:
        with np.errstate(invalid="ignore"):
            val = mass / vol * dens[idx]
        if math.isfinite(val):
            arr[idx] = val
        else:
            inf_mask[idx] = True
            arr[idx] = 0.0
    return arr, inf_mask


def _cell_density(grid, structure, weight):
    """Per-cell density of w dmu: the structure's density times the weight's
    exact cell averages, +inf where the weight is not integrable."""
    dens = structure.density_on(grid) if structure is not None else 1.0
    if weight is None:
        return dens
    w, w_inf = power_integrand(weight, 1.0, dens)
    return np.where(w_inf, np.inf, w)


def integrate(field, region=None, structure=None, weight=None):
    """Midpoint quadrature of f (optionally times a weight) against d(mu).

    region is (lo, hi) per axis; cells whose centers lie inside count.
    Singular cells count their exact masses; one that diverges inside the
    region makes the integral infinite, with the sign of its sample.
    """
    mask = _region_mask(field.grid, region)
    arr, inf_mask = power_integrand(field, 1.0, _cell_density(field.grid, structure, weight))
    hit = mask & inf_mask
    if hit.any():
        return float(np.copysign(np.inf, field.values[hit]).sum())
    return float(np.copysign(arr, field.values)[mask].sum()) * field.grid.cell_volume


def average(field, region=None, structure=None):
    """mu-average over the region with the convention 0/0 := 0."""
    grid = field.grid
    mask = _region_mask(grid, region)
    if not mask.any():
        return 0.0
    dens = structure.density_on(grid) if structure is not None else np.ones(grid.cells)
    if np.isscalar(dens):
        dens = np.full(grid.cells, dens)
    denom = float(dens[mask].sum()) * grid.cell_volume
    if denom == 0.0:
        return 0.0
    num = float((field.values * dens)[mask].sum()) * grid.cell_volume
    return num / denom


def lp_norm(field, p, region=None, structure=None, weight=None, slashed=False):
    """(integral over region of |f|^p w dmu)^(1/p); p = inf -> max over samples.

    slashed=True divides the measure of the region first ("slash norm").
    Singular cells of the field and of the weight inside the region count
    their exact closed-form masses; one that diverges makes the norm +inf.
    """
    grid = field.grid
    mask = _region_mask(grid, region)
    if p == math.inf or p == "inf":
        if not mask.any():
            return 0.0
        return float(np.abs(field.values[mask]).max())
    p = float(p)
    arr, inf_mask = power_integrand(field, p, _cell_density(grid, structure, weight))
    if inf_mask[mask].any():
        return math.inf
    total = float(arr[mask].sum()) * grid.cell_volume
    if slashed:
        dens = np.broadcast_to(structure.density_on(grid) if structure is not None else 1.0,
                               grid.cells)
        mu = float(dens[mask].sum()) * grid.cell_volume
        if mu == 0.0:
            return 0.0
        total /= mu
    return total ** (1.0 / p)


# ---------------------------------------------------------------------------
# Mollification
# ---------------------------------------------------------------------------


def _bump(r):
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


def mollifier_kernel(grid, eps, parabolic=False):
    """Discrete samples of the scaled bump zeta_eps, normalized to unit mass."""
    if parabolic:
        # anisotropic scaling with support in C_1(-1, 0): t in (-eps^2, 0)
        sizes = [max(3, 2 * int(np.ceil(eps ** 2 / grid.h[0])) + 1)]
        sizes += [max(3, 2 * int(np.ceil(eps / grid.h[i])) + 1) for i in range(1, grid.dim)]
        offs = [
            (np.arange(n) - n // 2) * h for n, h in zip(sizes, grid.h)
        ]
        t = offs[0]
        tprof = _bump(2.0 * (t / eps ** 2) + 1.0) * (t <= 0)
        r2 = 0.0
        mesh = np.meshgrid(*offs[1:], indexing="ij")
        for m in mesh:
            r2 = r2 + (m / eps) ** 2
        xprof = _bump(np.sqrt(r2)) if grid.dim > 1 else np.ones(())
        ker = tprof.reshape((-1,) + (1,) * (grid.dim - 1)) * xprof
    else:
        sizes = [max(3, 2 * int(np.ceil(eps / h)) + 1) for h in grid.h]
        offs = [(np.arange(n) - n // 2) * h for n, h in zip(sizes, grid.h)]
        mesh = np.meshgrid(*offs, indexing="ij")
        r = np.sqrt(sum((m / eps) ** 2 for m in mesh))
        ker = _bump(r)
    s = ker.sum() * grid.cell_volume
    if s <= 0:
        raise ValueError("degenerate mollifier: eps below grid resolution")
    return ker / s


def mollify(field, eps, structure=None):
    """Convolution with the scaled unit-mass bump zeta_eps.

    For parabolic structures the anisotropic scaling (t/eps^2, x/eps) with
    support in C_1(-1,0) is used, so the output at time t only sees earlier
    inputs.
    """
    grid = field.grid
    if eps > min(grid.half_extent) / 4.0:
        raise ValueError("mollification width eps exceeds half_extent / 4")
    parab = structure is not None and structure.parabolic
    ker = mollifier_kernel(grid, eps, parabolic=parab)
    from .maximal import _fft_correlate  # local import: maximal builds on this module

    kflip = np.flip(ker)
    if grid.periodic:
        # circular convolution: correlate the wrap-padded values, keep n cells
        wrapped = np.pad(field.values, [(s // 2, s // 2) for s in ker.shape], mode="wrap")
        out = _fft_correlate(wrapped, kflip, (0,) * ker.ndim)[tuple(map(slice, grid.cells))]
    else:
        out = _fft_correlate(field.values, kflip, [s // 2 for s in ker.shape])
    return Field(grid, out * grid.cell_volume)


# ---------------------------------------------------------------------------
# Wavenumbers
# ---------------------------------------------------------------------------


def _wavenumbers(grid, axes):
    """Angular wavenumbers 2 pi fftfreq(n, h) of each of `axes`, in fft
    order, each shaped to broadcast over an array whose axes are `axes`."""
    out = []
    for i, a in enumerate(axes):
        shape = [1] * len(axes)
        shape[i] = -1
        out.append(2.0 * np.pi * np.fft.fftfreq(grid.cells[a], d=grid.h[a]).reshape(shape))
    return out


# ---------------------------------------------------------------------------
# Field I/O: JSON sidecar + raw little-endian float64 (row-major); CSV d<=2.
# ---------------------------------------------------------------------------


# Singular features a sidecar can hold: kind -> (class, constructor arguments).
_SAVED_FEATURES = {
    "radial_power": (RadialPower, ("center", "gamma", "amp")),
    "subspace_power": (SubspacePower, ("axes", "gamma", "amp")),
    "parabolic_power": (ParabolicPower, ("alpha", "amp")),
}


def _feature_record(feat):
    for kind, (cls, args) in _SAVED_FEATURES.items():
        if type(feat) is cls:
            return {"kind": kind, **{a: getattr(feat, a) for a in args}}
    raise ValueError(
        f"cannot save a field with a {type(feat).__name__} singular feature: it holds a "
        "callable, and dropping it would make a singular field finite")


def save_field(field, path, anisotropy=None):
    """Raw values plus a JSON sidecar with the grid, the anisotropy (the
    argument, else the field's meta, else isotropic), the singular features
    and any meta["closed_form"], so that exact singular masses and the
    closed forms of weights survive a round trip."""
    path = Path(path)
    if anisotropy is None:
        anisotropy = field.meta.get("anisotropy") or (1,) * field.grid.dim
    meta = {
        "dim": field.grid.dim,
        "anisotropy": list(anisotropy),
        "shape": list(field.grid.cells),
        "half_extent": list(field.grid.half_extent),
        "periodic": field.grid.periodic,
        "singular": [_feature_record(f) for f in field.singular],
    }
    if "closed_form" in field.meta:
        meta["closed_form"] = list(field.meta["closed_form"])
    path.with_suffix(".json").write_text(json.dumps(meta, indent=2))
    field.values.astype("<f8").tofile(path.with_suffix(".f64"))


def load_field(path):
    """Inverse of save_field; the anisotropy goes to meta["anisotropy"] and
    a closed form to meta["closed_form"], as a tuple."""
    path = Path(path)
    meta = json.loads(path.with_suffix(".json").read_text())
    grid = GridSpec(tuple(meta["half_extent"]), tuple(meta["shape"]), meta["periodic"])
    raw = np.fromfile(path.with_suffix(".f64"), dtype="<f8").reshape(meta["shape"])
    singular = []
    for rec in meta.get("singular", []):  # sidecars written before features were saved lack it
        cls, args = _SAVED_FEATURES[rec["kind"]]
        singular.append(cls(*(rec[a] for a in args)))
    out = {"anisotropy": tuple(meta["anisotropy"])}
    if "closed_form" in meta:
        out["closed_form"] = tuple(meta["closed_form"])
    return Field(grid, raw, singular, out)


def save_field_csv(field, path):
    if field.grid.dim > 2:
        raise ValueError("CSV export supported for d <= 2 only")
    header = json.dumps(
        {
            "shape": list(field.grid.cells),
            "half_extent": list(field.grid.half_extent),
            "periodic": field.grid.periodic,
        }
    )
    np.savetxt(path, np.atleast_2d(field.values), delimiter=",", header=header)


def load_field_csv(path):
    with open(path) as fh:
        header = fh.readline().lstrip("# ").strip()
    meta = json.loads(header)
    vals = np.loadtxt(path, delimiter=",", skiprows=1).reshape(meta["shape"])
    grid = GridSpec(tuple(meta["half_extent"]), tuple(meta["shape"]), meta["periodic"])
    return Field(grid, vals)
