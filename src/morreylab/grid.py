"""Discretized real-analytic structures on R^d / R^{d+1} and sampled fields.

Everything downstream (dyadic partitions, maximal operators, weights, norms,
potentials, solvers) works on a `Field`: a real array sampled at the cell
centers of a uniform grid over a centered box, together with a `Structure`
fixing the anisotropy exponents; the measure is the Lebesgue measure dx,
and weights enter as w dx.

All "R^d" objects live on a truncated box; operations that are sensitive to
the truncation radius accept the grid so callers can sweep it.
"""

from __future__ import annotations

import copy
import functools
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
    "lp_norm",
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

    @functools.cached_property
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
        xs = np.meshgrid(*self.axes(), indexing="ij", sparse=True)
        if center is None:
            center = [0.0] * self.dim
        r2 = sum((x - c) ** 2 for x, c in zip(xs, center))
        return np.sqrt(r2)


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
    """Real-analytic structure on R^d with the Lebesgue measure: the
    anisotropy exponents k_i.

    nu0 solves nu^(-2 k_1) + ... + nu^(-2 k_d) = 4.  The doubling constant
    of the measure is measured on demand along the dyadic filtration, by
    dyadic.box_doubling_constant, never assumed.
    """

    dim: int
    anisotropy: tuple
    nu0: float

    @property
    def parabolic(self):
        return self.anisotropy[0] == 2 and all(k == 1 for k in self.anisotropy[1:]) \
            and len(self.anisotropy) > 1


@functools.lru_cache(maxsize=64)
def _solve_nu0(anisotropy):
    """The nu0 > 0 with sum nu0^(-2 k_i) = 4, by bisection; memoized by the
    int anisotropy tuple."""
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


def make_structure(dim, anisotropy=None):
    """Build a Structure; anisotropy None means the isotropic (1, ..., 1)."""
    if anisotropy is None:
        anisotropy = (1,) * dim
    anisotropy = tuple(int(k) for k in anisotropy)
    if len(anisotropy) != dim:
        raise ValueError("anisotropy length != dim")
    if any(k < 1 for k in anisotropy):
        raise ValueError("anisotropy entries must be >= 1")
    return Structure(dim, anisotropy, _solve_nu0(anisotropy))


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


def power_integrand(field, p, dens=None):
    """Per-cell integrand |f|^p, times the per-cell density dens of a weight
    if one is given, with exact singular-cell masses.

    Returns (arr, inf_mask): arr is the midpoint integrand whose singular
    cells hold the exact masses (per unit cell volume) in place of the
    samples; inf_mask marks the cells whose continuum mass diverges.
    """
    grid = field.grid
    with np.errstate(over="ignore", invalid="ignore"):
        arr = np.abs(field.values) ** float(p)
        if dens is not None:
            arr = arr * dens
    inf_mask = ~np.isfinite(arr)
    arr[inf_mask] = 0.0
    vol = grid.cell_volume
    pairs = field.power_mass_cells(float(p))
    for idx, _ in pairs:  # the exact masses replace the samples
        inf_mask[idx] = False
    for idx, mass in pairs:
        val = mass / vol
        if dens is not None:
            with np.errstate(invalid="ignore"):
                val = val * dens[idx]
        if math.isfinite(val):
            arr[idx] = val
        else:
            inf_mask[idx] = True
            arr[idx] = 0.0
    return arr, inf_mask


def _cell_density(weight):
    """Per-cell density of w dx: the weight's exact cell averages, +inf where
    the weight is not integrable; None (dx itself) without a weight."""
    if weight is None:
        return None
    w, w_inf = power_integrand(weight, 1.0)
    return np.where(w_inf, np.inf, w)


def integrate(field, weight=None):
    """Midpoint quadrature of f (optionally times a weight) against dx over
    the whole grid.

    Singular cells count their exact masses; one that diverges makes the
    integral infinite, with the sign of its sample.
    """
    arr, inf_mask = power_integrand(field, 1.0, _cell_density(weight))
    if inf_mask.any():
        return float(np.copysign(np.inf, field.values[inf_mask]).sum())
    return float(np.copysign(arr, field.values).sum()) * field.grid.cell_volume


def lp_norm(field, p, region=None, weight=None):
    """(integral over region of |f|^p w dx)^(1/p); p = inf -> max over samples.

    region is (lo, hi) per axis; cells whose centers lie inside count.
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
    arr, inf_mask = power_integrand(field, p, _cell_density(weight))
    if inf_mask[mask].any():
        return math.inf
    return (float(arr[mask].sum()) * grid.cell_volume) ** (1.0 / p)


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
