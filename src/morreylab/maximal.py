"""Classical maximal operators over ball/ellipsoid/cylinder families, the
Euclidean sharp function, and the weighted maximal operator.

Every sup over the (continuum) family is approximated by a finite family:
geometric radii rho_j = rho_min * gamma^j and anchor points on a decimated
sublattice whose stride scales with the radius.  Every reported maximal
value is therefore a certified lower bound; checks compare ratios, which
converge as the family is refined (the `density` knob).
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Field

__all__ = [
    "BallFamily",
    "member_offsets",
    "member_averages",
    "classical_maximal",
    "classical_sharp",
    "weighted_maximal",
]


@dataclass(frozen=True)
class BallFamily:
    """Finite family of members (balls / ellipsoids / cylinders / cubes).

    radii are geometric: rho_min * gamma^j up to rho_max; anchors sit on a
    sublattice of stride ~ rho/(density*h) cells, so larger members are
    anchored more sparsely at equal covering quality.
    """

    radii: tuple
    shape: str  # 'ball' | 'ellipsoid' | 'cylinder' | 'cube'
    density: float = 4.0

    @staticmethod
    def for_structure(structure, grid, gamma=2 ** 0.25, rho_min=None, rho_max=None,
                      density=4.0, shape=None):
        hs = grid.h
        if rho_min is None:
            rho_min = 2.0 * max(hs)
        if rho_max is None:
            rho_max = min(grid.half_extent)
        if shape is None:
            shape = _member_shape(structure)
        radii = []
        r = float(rho_min)
        while r <= rho_max * (1 + 1e-12):
            radii.append(r)
            r *= gamma
        if not radii:
            raise ValueError("empty radius family")
        return BallFamily(tuple(radii), shape, float(density))


def _member_shape(structure):
    """Member shape of a structure: balls when it is isotropic, cylinders
    when it is parabolic, anisotropic ellipsoids otherwise."""
    if all(k == 1 for k in structure.anisotropy):
        return "ball"
    return "cylinder" if structure.parabolic else "ellipsoid"


def member_offsets(grid, structure, rho, shape):
    """Boolean stencil of cell offsets in one member, plus the origin index.

    'ball': |o| < rho.          'ellipsoid': sum (o_i/(rho^{k_i} nu0^{k_i}))^2 < 1.
    'cylinder': o_t in [0, rho^2), |o_x| < rho (axis 0 is t).
    'cube': |o_i| < rho^{k_i}/2.

    Stencils come from a bounded table keyed by value (cell widths,
    anisotropy, nu0, rho, shape) and are read-only: callers share them.
    """
    return _member_stencil(tuple(grid.h), tuple(structure.anisotropy), float(structure.nu0),
                           float(rho), shape)


# Entries of the stencil table: a fixed bound keeps it small whatever the run.
_STENCIL_TABLE_SIZE = 128
# id(stencil) -> _fill_spans(stencil) for every stencil the table built; an
# entry is dropped when its stencil is freed, so an id here is never stale.
_FILL_SPANS = {}


@functools.lru_cache(maxsize=_STENCIL_TABLE_SIZE)
def _member_stencil(hs, ks, nu0, rho, shape):
    if shape == "ball_x":
        # x-only ball stencil for (t, x) grids: offsets over axes 1..d
        hx = hs[1:]
        half = [max(1, int(np.ceil(rho / h)) + 1) for h in hx]
        axes = [(np.arange(-hc, hc + 1)) * h for hc, h in zip(half, hx)]
        mesh = np.meshgrid(*axes, indexing="ij")
        mask = sum(m ** 2 for m in mesh) < rho ** 2
        return _frozen(mask), tuple(half)
    dim = len(hs)
    if shape == "ball":
        ext = [rho] * dim
    elif shape == "ellipsoid":
        ext = [rho ** k * nu0 ** k for k in ks]
    elif shape == "cylinder":
        ext = [rho ** 2] + [rho] * (dim - 1)
    elif shape == "cube":
        ext = [rho ** k / 2.0 for k in ks]
    else:
        raise ValueError(f"unknown member shape {shape!r}")
    half_cells = [max(1, int(np.ceil(e / h)) + 1) for e, h in zip(ext, hs)]
    axes = []
    for i, hc in enumerate(half_cells):
        if shape == "cylinder" and i == 0:
            axes.append(np.arange(0, hc + 1) * hs[0])
        else:
            axes.append((np.arange(-hc, hc + 1)) * hs[i])
    mesh = np.meshgrid(*axes, indexing="ij")
    if shape == "ball":
        mask = sum(m ** 2 for m in mesh) < rho ** 2
    elif shape == "ellipsoid":
        mask = sum((m / e) ** 2 for m, e in zip(mesh, ext)) < 1.0
    elif shape == "cylinder":
        xmask = sum(m ** 2 for m in mesh[1:]) < rho ** 2 if dim > 1 else True
        mask = (mesh[0] >= 0) & (mesh[0] < rho ** 2) & xmask
    else:
        mask = np.ones(mesh[0].shape, dtype=bool)
        for m, e in zip(mesh, ext):
            mask &= np.abs(m) < e
    origin = tuple(0 if (shape == "cylinder" and i == 0) else hc
                   for i, hc in enumerate(half_cells))
    return _frozen(mask), origin


def _frozen(mask):
    """Make a table stencil read-only and record its fill spans."""
    mask.flags.writeable = False
    _FILL_SPANS[id(mask)] = _fill_spans(mask)
    weakref.finalize(mask, _FILL_SPANS.pop, id(mask), None)
    return mask


def _fill_spans(stencil):
    """Per-axis (first, last) index of the bounding box of a boolean stencil
    when the stencil fills that box, else None."""
    spans = [np.flatnonzero(stencil.any(axis=tuple(a for a in range(stencil.ndim) if a != ax)))
             for ax in range(stencil.ndim)]
    box = tuple((int(s[0]), int(s[-1])) for s in spans)
    return box if stencil[tuple(slice(a, b + 1) for a, b in box)].all() else None


def _correlate(values, stencil, origin, forward=None):
    """corr(c) = sum_{o in stencil} values(c + o), zero outside the domain,
    over the trailing stencil.ndim axes of values; leading axes are a batch.

    A boolean stencil that fills its bounding box (cubes, intervals,
    1+1-D cylinders, the smallest balls) is summed exactly by _box_sum;
    any other shape goes through _fft_correlate, which takes `forward`.
    Table stencils (member_offsets) carry their fill spans; others are
    scanned here.
    """
    key = id(stencil)
    spans = _FILL_SPANS[key] if key in _FILL_SPANS else _fill_spans(stencil)
    if spans is None:
        return _fft_correlate(values, stencil, origin, forward)
    batch = [(0, 0)] * (values.ndim - stencil.ndim)
    return _box_sum(values, batch + [(a - o, b - o) for (a, b), o in zip(spans, origin)])


class _Forward:
    """The forward spectrum of one values array at its last transform shape.

    A radius loop over one field passes one of these to every correlation
    of that field.  Ascending radii give non-decreasing padded shapes, so
    consecutive radii that pad to the same shape share one forward
    transform, and at most one spectrum is alive.
    """

    def __init__(self):
        self.values = self.lens = self.spec = None

    def rfftn(self, values, lens, axes):
        if values is not self.values or lens != self.lens:
            self.spec = None  # drop the old spectrum before making the next
            self.spec = np.fft.rfftn(values, s=lens, axes=axes)
            self.values, self.lens = values, lens
        return self.spec


@functools.lru_cache(maxsize=1024)
def _fast_len(n):
    """Smallest 5-smooth integer >= n, the lengths pocketfft transforms
    fastest (scipy.fft.next_fast_len(n, real=True) returns the same)."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^k >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fft_correlate(values, kernel, origin, forward=None):
    """corr(c) = sum_k kernel[k] values(c + k - origin) over the trailing
    kernel.ndim axes of values, zero outside the domain; leading axes are a
    batch.  Any real kernel.

    One linear correlation by numpy.fft.  Each axis is padded only as far as
    the longer side of the kernel reaches, n + max(origin, s - 1 - origin),
    rounded up to _fast_len, and the kernel spectrum is pruned: one axis at
    a time, last to first, so each pass transforms only the lines the kernel
    (or its partial transform) occupies.  Kernel entries past the transform
    length meet only padding.  A _Forward holder passed as `forward` keeps
    the forward spectrum of values for the next call at the same shape.
    The inverse is pruned too: each pass crops its axis to the cells kept,
    so the next pass transforms only their lines.
    """
    axes = tuple(range(values.ndim - kernel.ndim, values.ndim))
    cells = values.shape[axes[0]:]
    lens = tuple(_fast_len(n + max(o, s - 1 - o)) for n, s, o in zip(cells, kernel.shape, origin))
    spec = np.fft.rfft(np.flip(kernel), n=lens[-1], axis=-1)
    for ax in range(kernel.ndim - 2, -1, -1):
        spec = np.fft.fft(spec, n=lens[ax], axis=ax)
    spec = (forward or _Forward()).rfftn(values, lens, axes) * spec
    # corr(c) sits at index c + (s - 1 - origin) of the linear convolution
    keep = [slice(s - 1 - o, s - 1 - o + n) for s, o, n in zip(kernel.shape, origin, cells)]
    for ax, m, k in zip(axes[:-1], lens, keep):
        spec = np.fft.ifft(spec, n=m, axis=ax)[(slice(None),) * ax + (k,)]
    return np.fft.irfft(spec, n=lens[-1], axis=-1)[..., keep[-1]]


def _max_filter(values, footprint, origin):
    """out(c) = max of values(c + k - origin) over the cells k of a boolean
    footprint, -inf outside the domain.

    The footprint is split into runs along its last axis.  The running max
    of each run width is built once, from power-of-two windows by doubling,
    and each run then costs one np.maximum over the grid.  A max is exact,
    so the result does not depend on how the windows are combined.
    """
    cells, shape = values.shape, footprint.shape
    padded = np.full([n + s - 1 for n, s in zip(cells, shape)], -np.inf)
    padded[tuple(slice(o, o + n) for o, n in zip(origin, cells))] = values
    # run edges along the last axis, in C order: start, end, start, end, ...
    line = np.zeros(shape[:-1] + (shape[-1] + 2,), dtype=bool)
    line[..., 1:-1] = footprint
    edges = np.argwhere(line[..., 1:] != line[..., :-1])
    starts, widths = edges[0::2], edges[1::2, -1] - edges[0::2, -1]
    out = np.full(cells, -np.inf)
    win, width = padded, 1  # win[..., j] = max of padded[..., j:j + width]
    for w in sorted(set(widths.tolist())):
        while 2 * width <= w:
            win = np.maximum(win[..., :-width], win[..., width:])
            width *= 2
        run = win if w == width else np.maximum(win[..., :width - w], win[..., w - width:])
        for start in starts[widths == w].tolist():
            np.maximum(out, run[tuple(slice(i, i + n) for i, n in zip(start, cells))], out=out)
    return out


def _prefix_diff(arr, ax, lo, w):
    """d[i] = sum of arr[lo[i]:lo[i] + w] along axis ax, the range clipped to
    [0, n], from one summed-area table step in the dtype np.cumsum gives."""
    n, lead = arr.shape[ax], (slice(None),) * ax
    c = np.empty(arr.shape[:ax] + (n + 1,) + arr.shape[ax + 1:],
                 arr.dtype if arr.dtype.kind == "f" else np.cumsum(arr[:0]).dtype)
    c[lead + (0,)] = 0  # c[k] = sum of the first k cells
    np.cumsum(arr, axis=ax, out=c[lead + (slice(1, None),)])
    return (np.take(c, np.minimum(np.maximum(lo + w, 0), n), axis=ax)
            - np.take(c, np.minimum(np.maximum(lo, 0), n), axis=ax))


def _box_sum(values, bounds):
    """box(c) = sum of values(c + o) over lo_i <= o_i <= hi_i, zero outside
    the domain, by separable prefix sums (summed-area tables).  bounds holds
    one (lo, hi) pair per axis; an axis with lo == hi == 0 is skipped."""
    out = values
    for ax, (lo, hi) in enumerate(bounds):
        if lo == hi == 0:
            continue
        out = _prefix_diff(out, ax, np.arange(out.shape[ax]) + lo, hi - lo + 1)
    return out


def _stencil_count(stencil, origin, cells):
    """Exact uniform measure of every clipped member: count(c) = number of
    stencil offsets o with c + o - origin inside a grid of shape `cells`.

    Along each axis the offsets that stay inside form one interval, so the
    count is a box sum of the stencil itself, read off its summed-area
    table axis by axis.  No FFT, and integers stay exact.
    """
    out = stencil.astype(float)
    for ax, (o, n) in enumerate(zip(origin, cells)):
        out = _prefix_diff(out, ax, o - np.arange(n), n)
    return out


def _member_means(weighted, dens, structure, stencil, origin, forward=None):
    """(means, measures): mu(E)^-1 int_E g dmu over the member E anchored at
    every cell, members clipped to the domain, and mu(E).  weighted holds
    g dens; `forward` is its _Forward holder in a radius loop.  mu(E) is the
    exact cell count for the uniform measure, a correlation of the density
    dens otherwise.  Axes of weighted before the stencil's are a batch, as
    in _correlate; the count carries none and broadcasts over them.  An
    empty member has mean 0."""
    num = _correlate(weighted, stencil, origin, forward)
    if structure.uniform:
        den = _stencil_count(stencil, origin, weighted.shape[weighted.ndim - stencil.ndim:])
    else:
        den = _correlate(dens, stencil, origin)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, num / den, 0.0), den


# Gathered elements per block of _mean_oscillation: bounds its working set.
# A gathered block lays the stencil axis outermost, so its reductions run
# along the lattice points of the block; 2**16 left too few of them for
# large 3-D stencils.
_GATHER_BLOCK = 2 ** 17


def _mean_oscillation(values, dens, stencil, origin, strides):
    """Mean oscillation of values about its dens-weighted mean, over the
    member anchored at each point of the lattice arange(0, n_i, strides[i]),
    members clipped to the domain; dens None is the uniform measure.

    Returns an array shaped like the lattice.  Every member holds its own
    anchor cell (the stencil contains its origin), so its measure is
    positive.  Members are read through one strided window view per array,
    a block of lattice rows at a time; zero padding carries zero measure,
    the same as clipping to the domain.
    """
    pad = [(o, s - 1 - o) for o, s in zip(origin, stencil.shape)]
    lattice = tuple(slice(None, None, s) for s in strides)

    def members(arr):
        return sliding_window_view(np.pad(arr, pad), stencil.shape)[lattice]

    gw = members(values)
    # the uniform measure is the in-domain indicator; its mass is the count
    mw = members(np.ones(values.shape, dtype=bool) if dens is None else dens)
    count = _stencil_count(stencil, origin, values.shape)[lattice] if dens is None else None
    out = np.empty(gw.shape[:values.ndim])
    # A block is a run of lattice points along axis k, with the axes before k
    # fixed and those after it whole: k is the first axis whose trailing
    # slab fits the bound, and the runs along it are cut to equal lengths.
    row = int(np.count_nonzero(stencil))
    k = 0
    while k < out.ndim - 1 and row * math.prod(out.shape[k + 1:]) > _GATHER_BLOCK:
        k += 1
    slab = row * math.prod(out.shape[k + 1:])
    runs = -(-out.shape[k] * slab // _GATHER_BLOCK)
    step = -(-out.shape[k] // runs)
    sel = (...,) + np.nonzero(stencil)
    for lead in np.ndindex(out.shape[:k]):
        for s in range(0, out.shape[k], step):
            blk = lead + (slice(s, s + step),)
            gv, mv = gw[blk][sel], mw[blk][sel]
            if dens is None:
                # the padding holds zeros, so gv * mv would equal gv bitwise
                mass = count[blk]
                mean = gv.sum(axis=-1) / mass
            else:
                mass = mv.sum(axis=-1)
                mean = (gv * mv).sum(axis=-1) / mass
            gv -= mean[..., None]
            np.abs(gv, out=gv)
            gv *= mv
            out[blk] = gv.sum(axis=-1) / mass
    return out


def _anchor_stride(grid, rho, density):
    """Anchor lattice stride of the rho-members: ~ rho / (density h) cells."""
    return max(1, int(min(rho / (density * h) for h in grid.h)))


def member_averages(field, structure, rho, shape):
    """(averages, counts): member mu-averages of |f| at every anchor cell,
    members clipped to the domain with their measure recomputed.
    """
    dens = structure.density_on(field.grid)
    stencil, origin = member_offsets(field.grid, structure, rho, shape)
    return _member_means(np.abs(field.values) * dens, dens, structure, stencil, origin)


def _centred(stencil):
    """The centre (s - 1) // 2 of every axis of a stencil."""
    return tuple((s - 1) // 2 for s in stencil.shape)


def _scatter_max(vals, grid, structure, rho, shape, density):
    """out(z) = max over anchors c on the stride lattice with z in member(c).

    Stride 1 uses the member itself as the footprint; coarser lattices use
    the conservatively shrunken footprint of _coarse_dilation.
    """
    stride = _anchor_stride(grid, rho, density)
    if stride > 1:
        sub = tuple(slice(None, None, stride) for _ in range(grid.dim))
        return _coarse_dilation(vals[sub], grid, structure, rho, shape, stride)
    stencil, _origin = member_offsets(grid, structure, rho, shape)
    # Centred, not at the stencil origin: a cylinder's values land on the
    # wrong t rows (the FOUND on _scatter_max in CHANGES.md).  The exact
    # placement is the reflected footprint np.flip(stencil) at the
    # reflected origin s - 1 - origin.
    return _max_filter(vals, stencil, _centred(stencil))


def _coarse_dilation(coarse, grid, structure, rho, shape, stride):
    """Full-grid max of the values on the stride lattice (coarse) over the
    members that contain each cell, each member shrunk by one coarse cell
    diagonal so that the result stays a true lower bound for the family sup.
    """
    margin = math.sqrt(sum((stride * h) ** 2 for h in grid.h))
    rho_eff = max(rho - margin, min(grid.h))
    stencil, _origin = member_offsets(_CoarseGrid(grid, stride), structure, rho_eff, shape)
    # centred, as in _scatter_max (same FOUND in CHANGES.md)
    dil = _max_filter(coarse, stencil, _centred(stencil))
    return dil[np.ix_(*[np.arange(n) // stride for n in grid.cells])]


class _CoarseGrid:
    """Just enough grid interface for member_offsets on a strided lattice."""

    def __init__(self, grid, stride):
        self.h = tuple(h * stride for h in grid.h)
        self.dim = grid.dim


def classical_maximal(field, structure, beta=0.0, family=None):
    """M_beta f(x) = sup over family members E containing x of
    rho(E)^beta * average_E |f|.

    beta omitted means the plain Hardy-Littlewood maximal function.
    """
    grid = field.grid
    if family is None:
        family = BallFamily.for_structure(structure, grid)
    dens = structure.density_on(grid)
    weighted, forward = np.abs(field.values) * dens, _Forward()
    out = np.full(grid.cells, -np.inf)
    for rho in family.radii:
        stencil, origin = member_offsets(grid, structure, rho, family.shape)
        avg, _den = _member_means(weighted, dens, structure, stencil, origin, forward)
        vals = rho ** beta * avg
        scattered = _scatter_max(vals, grid, structure, rho, family.shape, family.density)
        out = np.maximum(out, scattered)
    out[out == -np.inf] = 0.0
    return Field(grid, out)


def classical_sharp(field, structure, family=None):
    """g^sharp(x) = sup over members containing x of the mean oscillation
    of g there; satisfies g^sharp <= 2 M g by the triangle inequality.
    """
    grid = field.grid
    if family is None:
        family = BallFamily.for_structure(structure, grid)
    dens = None if structure.uniform else structure.density_on(grid)
    out = np.zeros(grid.cells)
    for rho in family.radii:
        stencil, origin = member_offsets(grid, structure, rho, family.shape)
        stride = _anchor_stride(grid, rho, family.density)
        osc = _mean_oscillation(field.values, dens, stencil, origin, (stride,) * grid.dim)
        # the shrunken footprint at every stride keeps this a lower bound
        full = _coarse_dilation(osc, grid, structure, rho, family.shape, stride)
        out = np.maximum(out, np.where(np.isfinite(full), full, 0.0))
    return Field(grid, out)


def weighted_maximal(field, weight, structure, family=None):
    """M_w f(x) = sup over cubes Q containing x of w(Q)^{-1} int_Q |f| w dmu.

    `weight` may be a Field or a weights.Weight wrapper.
    """
    grid = field.grid
    if family is None:
        family = BallFamily.for_structure(structure, grid, shape="cube")
    dens = structure.density_on(grid)
    wvals = weight.field.values if hasattr(weight, "field") else weight.values
    wmu = wvals * dens
    weighted = np.abs(field.values) * wmu
    num_fwd, den_fwd = _Forward(), _Forward()
    out = np.full(grid.cells, -np.inf)
    for rho in family.radii:
        stencil, origin = member_offsets(grid, structure, rho, family.shape)
        num = _correlate(weighted, stencil, origin, num_fwd)
        den = _correlate(wmu, stencil, origin, den_fwd)
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = np.where(den > 0, num / den, 0.0)
        scattered = _scatter_max(avg, grid, structure, rho, family.shape, family.density)
        out = np.maximum(out, scattered)
    out[out == -np.inf] = 0.0
    return Field(grid, out)

