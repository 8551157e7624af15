"""Classical maximal operators over ball/ellipsoid/cylinder families, the
Euclidean sharp function, and the weighted maximal operator.

Every sup over the (continuum) family is approximated by a finite family:
geometric radii rho_j = 2 max(h) gamma^j and anchor points on a decimated
sublattice whose stride scales with the radius.  Every reported maximal
value is therefore a certified lower bound; checks compare ratios, which
converge as the family is refined (the `density` knob).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as _field

import numpy as np

from .grid import Field

__all__ = [
    "BallFamily",
    "member_offsets",
    "classical_maximal",
    "classical_sharp",
    "weighted_maximal",
]


@dataclass(frozen=True)
class BallFamily:
    """Finite family of members (balls / ellipsoids / cylinders / cubes).

    radii are geometric: 2 max(h) gamma^j up to rho_max; anchors sit on a
    sublattice of stride ~ rho/(density*h) cells, so larger members are
    anchored more sparsely at equal covering quality.
    """

    radii: tuple
    shape: str  # 'ball' | 'ellipsoid' | 'cylinder' | 'cube'
    density: float = 4.0

    @staticmethod
    def for_structure(structure, grid, gamma=2 ** 0.25, rho_max=None, density=4.0,
                      shape=None):
        if rho_max is None:
            rho_max = min(grid.half_extent)
        if shape is None:
            shape = _member_shape(structure)
        radii = []
        r = 2.0 * max(grid.h)
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
    """The _Member record of one family member: its boolean stencil of cell
    offsets, origin index and fill spans.

    'ball': |o| < rho.          'ellipsoid': sum (o_i/(rho^{k_i} nu0^{k_i}))^2 < 1.
    'cylinder': o_t in [0, rho^2), |o_x| < rho (axis 0 is t).
    'cube': |o_i| < rho^{k_i}/2.
    'box': the full box of 2 c_i + 1 cells, c_i = max(1, ceil(rho^{k_i} / (2 h_i))),
    centred: the A_p cube of weights.
    'ball_x': the ball over axes 1.., for the x slices of a (t, x) grid.

    Each stencil is cut to the bounding box of its cells.  Records come from
    one bounded table keyed by the value they are made from (cell widths,
    anisotropy, nu0, rho, shape); a record's own key is its cell set, so
    radii with equal cell sets give equal records.  Stencils are read-only:
    callers share them.
    """
    hs, ks = tuple(grid.h), tuple(structure.anisotropy)
    if shape == "ball_x":
        hs, ks, shape = hs[1:], ks[1:], "ball"
    return _member(hs, ks, float(structure.nu0), float(rho), shape)


@dataclass(frozen=True)
class _Member:
    """One family member: its boolean stencil `mask`, the `origin` index of
    the anchor cell in it, and its `key`, the exact cell set (_cell_key).

    Records compare and hash by key alone, so records of equal cell sets
    are equal, whatever radius, shape or grid made them, or none, and share
    their entries in the count, offset and footprint tables.
    """

    mask: np.ndarray = _field(compare=False)
    origin: tuple = _field(compare=False)
    key: tuple = _field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "key", _cell_key(self.mask, self.origin))

    @functools.cached_property
    def spans(self):
        """Per-axis (first, last) index of the stencil's bounding box when the
        stencil fills that box, else None."""
        box = _bounding_box(self.mask)
        return box if self.mask[tuple(slice(a, b + 1) for a, b in box)].all() else None


def _cell_key(mask, origin):
    """The exact cell set of a stencil as a record key: its shape, its bits
    packed in C order, and its origin."""
    return mask.shape, np.packbits(mask).tobytes(), tuple(origin)


def _bounding_box(mask):
    """Per-axis (first, last) index of the True cells of a boolean array, or
    None when it has none."""
    lines = [np.flatnonzero(mask.any(axis=tuple(a for a in range(mask.ndim) if a != ax)))
             for ax in range(mask.ndim)]
    if not lines[0].size:
        return None
    return tuple((int(line[0]), int(line[-1])) for line in lines)


# Entries of the member table: a fixed bound keeps it small whatever the run.
_STENCIL_TABLE_SIZE = 128


@functools.lru_cache(maxsize=_STENCIL_TABLE_SIZE)
def _member(hs, ks, nu0, rho, shape):
    dim = len(hs)
    if shape == "ball":
        ext = [rho] * dim
    elif shape == "ellipsoid":
        ext = [rho ** k * nu0 ** k for k in ks]
    elif shape == "cylinder":
        ext = [rho ** 2] + [rho] * (dim - 1)
    elif shape in ("cube", "box"):
        ext = [rho ** k / 2.0 for k in ks]
    else:
        raise ValueError(f"unknown member shape {shape!r}")
    # a box reaches its last cell; the other shapes test one cell further
    reach = 0 if shape == "box" else 1
    half_cells = [max(1, int(np.ceil(e / h)) + reach) for e, h in zip(ext, hs)]
    axes = []
    for i, hc in enumerate(half_cells):
        if shape == "cylinder" and i == 0:
            axes.append(np.arange(0, hc + 1) * hs[0])
        else:
            axes.append((np.arange(-hc, hc + 1)) * hs[i])
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    if shape == "ball":
        mask = sum(m ** 2 for m in mesh) < rho ** 2
    elif shape == "ellipsoid":
        mask = sum((m / e) ** 2 for m, e in zip(mesh, ext)) < 1.0
    elif shape == "cylinder":
        xmask = sum(m ** 2 for m in mesh[1:]) < rho ** 2 if dim > 1 else True
        mask = (mesh[0] >= 0) & (mesh[0] < rho ** 2) & xmask
    else:
        mask = np.ones([len(a) for a in axes], dtype=bool)
        if shape == "cube":
            for m, e in zip(mesh, ext):
                mask &= np.abs(m) < e
    origin = tuple(0 if (shape == "cylinder" and i == 0) else hc
                   for i, hc in enumerate(half_cells))
    # the strict tests leave the outer layers empty: cut them, so that no
    # correlation pads or transforms lines the stencil does not reach
    box = _bounding_box(mask)
    mask = np.ascontiguousarray(mask[tuple(slice(a, b + 1) for a, b in box)])
    origin = tuple(o - a for o, (a, _b) in zip(origin, box))
    mask.flags.writeable = False
    return _Member(mask, origin)


def _correlate(values, member, forward=None, span=None):
    """corr(c) = sum_{o in stencil} values(c + o), zero outside the domain,
    over the trailing stencil.ndim axes of values for the stencil of a
    _Member; leading axes are a batch.

    A stencil that fills its bounding box (cubes, boxes, intervals, 1+1-D
    cylinders, the smallest balls) is summed exactly by _box_sum from the
    record's fill spans; any other shape goes through _fft_correlate.  Both
    take `forward`, and `span`, the anchors kept along each stencil axis
    (as in _fft_correlate).
    """
    if member.spans is None:
        return _fft_correlate(values, member.mask, member.origin, forward, span)
    batch = values.shape[:values.ndim - member.mask.ndim]
    bounds = [(0, 0)] * len(batch) + [(a - o, b - o) for (a, b), o in zip(member.spans,
                                                                          member.origin)]
    if span is not None:
        span = [(0, n) for n in batch] + list(span)
    return _box_sum(values, bounds, forward, span)


class _Forward:
    """What the correlations of one values array share across radii: its
    forward spectrum at the last transform shape, or its summed-area table
    along the first axis that a box member sums.

    A radius loop over one field passes one of these to every correlation
    of that field.  Ascending radii give non-decreasing padded shapes, so
    consecutive radii that pad to the same shape share one forward
    transform, and box members of one field share one table.  The holder
    keeps one array at a time: making a spectrum drops the table, and
    making a table drops the spectrum.  Callers only read what it returns.
    """

    def __init__(self):
        self.values = self.key = self.array = None

    def _keep(self, values, key, make):
        if values is not self.values or key != self.key:
            self.array = None  # drop the old array before making the next
            self.array = make()
            self.values, self.key = values, key
        return self.array

    def rfftn(self, values, lens, axes):
        return self._keep(values, lens, lambda: np.fft.rfftn(values, s=lens, axes=axes))

    def table(self, values, ax, pre, post):
        """(pre, c) of _summed_table along ax, extended by the axis length
        m past each end, which serves every window of a box sum of values
        over its own anchors, or by as far as a call's span reaches, if
        that is further; a span that reaches past the held table remakes it."""
        m = values.shape[ax]
        if values is self.values and self.key == ("table", ax):
            held, c = self.array
            if held < pre or c.shape[ax] - held - m - 1 < post:
                self.key = None
        ext = max(m, pre, post)
        return self._keep(values, ("table", ax), lambda: _summed_table(values, ax, ext, ext))


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


def _transform_lens(cells, shape, origin, span=None):
    """Per-axis transform lengths of _fft_correlate for a kernel of the given
    shape and origin, keeping the anchors [lo, hi) of `span` (None: the
    cells): max(hi - 1 + s - 1 - origin, n - 1 + origin - lo) + 1, rounded
    up to _fast_len.  At that length no nonzero output of the linear
    correlation wraps onto a kept one; with no span it is
    n + max(origin, s - 1 - origin)."""
    return tuple(_fast_len(max(hi - 1 + s - 1 - o, n - 1 + o - lo) + 1) for n, s, o, (lo, hi)
                 in zip(cells, shape, origin, span or [(0, n) for n in cells]))


def _spectrum_bytes(cells, member):
    """Bytes of the forward spectrum that _fft_correlate makes of one array
    of shape `cells` for the stencil of a _Member."""
    lens = _transform_lens(cells, member.mask.shape, member.origin)
    return 16 * math.prod(lens[:-1]) * (lens[-1] // 2 + 1)


def _fft_correlate(values, kernel, origin, forward=None, span=None):
    """corr(c) = sum_k kernel[k] values(c + k - origin) over the trailing
    kernel.ndim axes of values, zero outside the domain; leading axes are a
    batch.  Any real kernel.  The anchors c kept are those of `span`, one
    (lo, hi) pair per kernel axis relative to index 0 of values, which may
    reach past either end; None keeps the cells of values.

    One linear correlation by numpy.fft.  Each axis is transformed at the
    shortest length at which no nonzero output wraps onto a kept anchor
    (_transform_lens), and the kernel spectrum is pruned: one axis at a
    time, last to first, so each pass transforms only the lines the kernel
    (or its partial transform) occupies.  Kernel entries or values past the
    transform length reach no kept anchor.  A span that starts before the
    first output, lo < origin - (s - 1), keeps anchors that no kernel cell
    reaches from the values, and is refused.  A _Forward holder passed as
    `forward` keeps the forward spectrum of values for the next call at the
    same lengths.  The product overwrites the kernel spectrum, which is this
    call's own, unless batch axes broadcast it, and every complex inverse
    pass runs in place; each crops its axis to the anchors kept, so the next
    pass transforms only their lines.
    """
    axes = tuple(range(values.ndim - kernel.ndim, values.ndim))
    cells = values.shape[axes[0]:]
    lens = _transform_lens(cells, kernel.shape, origin, span)
    spec = np.fft.rfft(np.flip(kernel), n=lens[-1], axis=-1)
    for ax in range(kernel.ndim - 2, -1, -1):
        spec = np.fft.fft(spec, n=lens[ax], axis=ax)
    spec = spec.reshape((1,) * axes[0] + spec.shape)  # batch axes of length one
    fwd = (forward or _Forward()).rfftn(values, lens, axes)
    # in place only where the product has the kernel spectrum's shape and
    # dtype: a batch of more than one broadcasts it
    same = fwd.shape == spec.shape and fwd.dtype == spec.dtype
    spec = np.multiply(fwd, spec, out=spec if same else None)
    # corr(c) sits at index c + (s - 1 - origin) of the linear correlation
    keep = [slice(lo + s - 1 - o, hi + s - 1 - o) for s, o, (lo, hi)
            in zip(kernel.shape, origin, span or [(0, n) for n in cells])]
    if any(k.start < 0 for k in keep):
        raise ValueError(f"span {span} starts before the first output of a kernel "
                         f"of shape {kernel.shape} and origin {origin}")
    for ax, m, k in zip(axes[:-1], lens, keep):
        spec = np.fft.ifft(spec, n=m, axis=ax, out=spec)[(slice(None),) * ax + (k,)]
    return np.fft.irfft(spec, n=lens[-1], axis=-1)[..., keep[-1]]


def _circular_correlate(values, kernel):
    """corr(c) = sum_k kernel[k] values((c + k - s // 2) mod n): the periodic
    correlation with a kernel centred at s // 2, by _fft_correlate on the
    values wrap-padded by s // 2 cells on each side."""
    wrapped = np.pad(values, [(s // 2, s // 2) for s in kernel.shape], mode="wrap")
    return _fft_correlate(wrapped, kernel, (0,) * kernel.ndim)[tuple(map(slice, values.shape))]


def _footprint_runs(footprint):
    """The runs of a boolean footprint along its last axis, grouped by
    width: ((width, (start, ...)), ...) by ascending width, each start the
    index tuple of a run's first cell, in C order."""
    shape = footprint.shape
    # run edges along the last axis, in C order: start, end, start, end, ...
    line = np.zeros(shape[:-1] + (shape[-1] + 2,), dtype=bool)
    line[..., 1:-1] = footprint
    edges = np.argwhere(line[..., 1:] != line[..., :-1])
    starts, widths = edges[0::2], edges[1::2, -1] - edges[0::2, -1]
    return tuple((w, tuple(map(tuple, starts[widths == w].tolist())))
                 for w in sorted(set(widths.tolist())))


def _max_filter(values, footprint, origin, runs, out=None):
    """out(c) = max of out(c) and of values(c + k - origin) over the cells k
    of a boolean footprint, whose runs are _footprint_runs(footprint); out
    omitted starts at -inf, the value where no offset stays in the domain.

    The running max of each run width is built once, from power-of-two
    windows by doubling, and each run then costs one np.maximum over the
    grid, read through its window (_run_windows).  A max is exact, so the
    result does not depend on how the windows are combined.
    """
    cells, shape = values.shape, footprint.shape
    padded = np.full([n + s - 1 for n, s in zip(cells, shape)], -np.inf)
    padded[tuple(slice(o, o + n) for o, n in zip(origin, cells))] = values
    if out is None:
        out = np.full(cells, -np.inf)
    win, width = padded, 1  # win[..., j] = max of padded[..., j:j + width]
    for w, windows in _run_windows(runs, cells):
        while 2 * width <= w:
            win = np.maximum(win[..., :-width], win[..., width:])
            width *= 2
        run = win if w == width else np.maximum(win[..., :width - w], win[..., w - width:])
        for window in windows:
            np.maximum(out, run[window], out=out)
    return out


@functools.lru_cache(maxsize=_STENCIL_TABLE_SIZE)
def _run_windows(runs, cells):
    """The runs of _footprint_runs with each start made the window of a grid
    of shape `cells` that it reads: ((width, (slices, ...)), ...).  Shared
    from a bounded table keyed by the runs and the grid shape."""
    return tuple((w, tuple(tuple(slice(i, i + n) for i, n in zip(start, cells))
                           for start in starts)) for w, starts in runs)


def _summed_table(arr, ax, pre, post):
    """(pre, c): the summed-area table of arr along axis ax, c[pre + k] = sum
    of the first k of its m cells, in the dtype np.cumsum gives, extended by
    pre copies of c[pre] = 0 before it and post copies of c[pre + m] after."""
    m, lead = arr.shape[ax], (slice(None),) * ax
    c = np.empty(arr.shape[:ax] + (pre + m + 1 + post,) + arr.shape[ax + 1:],
                 arr.dtype if arr.dtype.kind == "f" else np.cumsum(arr[:0]).dtype)
    c[lead + (slice(None, pre + 1),)] = 0
    np.cumsum(arr, axis=ax, out=c[lead + (slice(pre + 1, pre + m + 1),)])
    c[lead + (slice(pre + m + 1, None),)] = c[lead + (slice(pre + m, pre + m + 1),)]
    return pre, c


def _prefix_diff(arr, ax, lo, w, n, table=_summed_table):
    """d[i] = sum of arr[j:j + w] along axis ax, j = lo + i for i < n, each
    range clipped to [0, m], from one summed-area table of arr along ax.

    The table reaches past each end as far as the windows do, so both ends
    of every window are plain slices of it.  `table(arr, ax, pre, post)`
    gives it, with at least pre and post cells of extension: _summed_table
    makes one only as long as the windows need, and a _Forward holder's
    table keeps one across calls.
    """
    m, lead = arr.shape[ax], (slice(None),) * ax
    # a start below -n or past m reads the same ends as one at -n or m
    a, b = (min(max(j, -n), m) for j in (lo, lo + w))
    pre, c = table(arr, ax, max(0, -a), max(0, b + n - 1 - m))
    ends, starts = (c[lead + (slice(pre + j, pre + j + n),)] for j in (b, a))
    return ends - starts


def _box_sum(values, bounds, forward=None, span=None):
    """box(c) = sum of values(c + o) over lo_i <= o_i <= hi_i, zero outside
    the domain, by separable prefix sums (summed-area tables).  bounds holds
    one (lo, hi) pair per axis; an axis with lo == hi == 0 is skipped unless
    `span` cuts it.  The anchors c kept are those of `span`, one (first,
    end) pair per axis relative to index 0 of values, which may reach past
    either end; None keeps the cells of values.  In a radius loop `forward`
    is the _Forward holder of values, whose table serves the first summed
    axis."""
    out = values
    for ax, (lo, hi) in enumerate(bounds):
        first, end = span[ax] if span else (0, values.shape[ax])
        if lo == hi == 0 and (first, end) == (0, values.shape[ax]):
            continue
        table = forward.table if forward is not None and out is values else _summed_table
        out = _prefix_diff(out, ax, first + lo, hi - lo + 1, end - first, table=table)
    return out


class _CountTable:
    """Bounded table of the uniform member counts of records.

    Keyed by (member.key, cells), so a count outlives the record it was made
    for and serves every equal one.  A count of at most `entry_bytes` is
    stored whole; a larger one is stored compressed (_compressed_count) and
    expanded on every read, unless even that exceeds `total_bytes`.  Past
    `total_bytes` the least recently used go first.  Stored counts are
    read-only.  A read returns the count on `box`, a tuple of slices of the
    grid (() is all of it), and expands only the cells that box holds.
    """

    def __init__(self, entry_bytes, total_bytes):
        self.entry_bytes, self.total_bytes, self.nbytes = entry_bytes, total_bytes, 0
        self.counts = {}  # key -> count, least recently used first

    def get(self, member, cells, box=()):
        cells = tuple(cells)
        key = (member.key, cells)
        count = self.counts.pop(key, None)
        if count is None:
            if 8 * math.prod(cells) <= self.entry_bytes:
                count = _stencil_count(member.mask, member.origin, cells)
            else:
                count = _compressed_count(member, cells)
            if count.nbytes > self.total_bytes:
                return _expand_count(count, member.origin, cells, box)
            count.flags.writeable = False
            self.nbytes += count.nbytes
        self.counts[key] = count
        while self.nbytes > self.total_bytes:
            self.nbytes -= self.counts.pop(next(iter(self.counts))).nbytes
        return _expand_count(count, member.origin, cells, box)


# Bounds of the count table: whole counts up to 64 KB (8,192 cells), and
# ~1 MB in all.
_COUNTS = _CountTable(entry_bytes=64 * 1024, total_bytes=1024 * 1024)


def _compressed_count(member, cells):
    """The uniform count of a member on the grid of min(n_i, s_i) cells per
    axis, s_i the stencil's extent, as int32 (exact).

    Where n_i > s_i, every anchor from origin_i to origin_i + n_i - s_i holds
    the stencil's whole extent along axis i, so those anchors share one
    count: the one at index origin_i of the compressed grid.  The anchors
    before them are clipped as on the compressed grid, and those after them
    as its anchors past origin_i.  _expand_count restores the full count.
    """
    small = tuple(min(n, s) for n, s in zip(cells, member.mask.shape))
    return _stencil_count(member.mask, member.origin, small).astype(np.int32)


def _expand_count(count, origin, cells, box=()):
    """The count on `box` (a tuple of slices; () is the whole grid) of the
    grid of shape `cells`, from a _compressed_count (or a whole count,
    sliced to the box).  Along each axis i that the compression shortened
    to m_i cells, grid index j reads compressed index min(j, o_i) +
    max(j - (n_i - m_i), o_i) - o_i: the n_i - m_i + 1 anchors from origin_i
    on all read index origin_i.  Only the box's cells are gathered."""
    if count.shape == cells:
        return count[box] if box else count
    box = tuple(box) + (slice(None),) * (len(cells) - len(box))
    for ax, (o, n, sl) in enumerate(zip(origin, cells, box)):
        m = count.shape[ax]
        if m < n:
            j = np.arange(n)[sl]
            count = np.take(count, np.minimum(j, o) + np.maximum(j - (n - m), o) - o, axis=ax)
        else:
            count = count[(slice(None),) * ax + (sl,)]
    return count


def _stencil_count(stencil, origin, cells):
    """Exact uniform measure of every clipped member: count(c) = number of
    stencil offsets o with c + o - origin inside a grid of shape `cells`.

    Along each axis the offsets that stay inside form one interval, so the
    count is a box sum of the stencil itself, read off its summed-area
    table axis by axis (the windows of anchors 0..n - 1 start at o down to
    o - n + 1, so they are the forward windows from o - n + 1, flipped).  No
    FFT, and integers stay exact.
    """
    out = stencil.astype(float)
    for ax, (o, n) in enumerate(zip(origin, cells)):
        out = np.flip(_prefix_diff(out, ax, o - n + 1, n, n), ax)
    return out


def _member_means(weighted, dens, member, forward=None, dens_forward=None, window=None):
    """(means, measures): mu(E)^-1 int_E g dmu over the member E anchored at
    every cell, members clipped to the domain, and mu(E), for the measure
    dmu = dens dx (M_w's w dx); dens None is dx itself.  weighted holds g dens
    (g when dens is None); in a radius loop `forward` and `dens_forward` are
    the _Forward holders of weighted and of dens.
    mu(E) is the exact cell count for dx, a correlation of dens otherwise.
    Axes of weighted before the stencil's are a batch, as in _correlate; the
    count carries none and broadcasts over them.  Every member holds its
    anchor cell, so the count on dx is >= 1; a member of mu-measure 0 has
    mean 0.

    On dx, `window` = (cells, start, span) says that weighted is the part of
    a grid of shape `cells` from index `start` on, and that the grid is zero
    outside it: the means are those of the anchors start + span (as in
    _correlate; the span stays in the grid), over members clipped to the
    whole grid, so the count is the grid's, read on those anchors alone."""
    cells, start, span = window or (weighted.shape[weighted.ndim - member.mask.ndim:], (), None)
    num = _correlate(weighted, member, forward, span)
    if dens is None:
        box = tuple(slice(a + lo, a + hi) for a, (lo, hi) in zip(start, span or ()))
        den = _COUNTS.get(member, cells, box)
        return num / den, den
    den = _correlate(dens, member, dens_forward)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, num / den, 0.0), den


# Gathered elements per block of _mean_oscillation: bounds its working set.
# A gathered block lays the stencil axis outermost, so its reductions run
# along the lattice points of the block; 2**16 left too few of them for
# large 3-D stencils.
_GATHER_BLOCK = 2 ** 17


def _mean_oscillation(values, member, strides):
    """Mean oscillation of values about its mean, over the member anchored at
    each point of the lattice arange(0, n_i, strides[i]), members clipped to
    the domain.

    Returns an array shaped like the lattice.  Every member holds its own
    anchor cell (the stencil contains its origin), so its cell count is
    positive.  Members are read through one read-only strided view of the
    zero-padded grid, a block of lattice rows at a time: each lattice point
    sees the run of the flat padded grid from the first cell of its
    stencil's box to its member's last cell, and the K = count_nonzero(stencil)
    values g of the member are gathered from it once, by one flat index per
    stencil cell (_flat_offsets).

    Within a member sum (g - m) = 0 and |g - m| = 2 max(g, m) - g - m, so
    sum |g - m| = 2 (sum max(g, m) - sum g): one in-place max with the mean
    and one sum after it, with no subtraction, abs or mask product per
    value.  The K - mass padded zeros that a clipped member gathers each add
    max(0, m) to its sum of maxima, and that is taken off the row's sum, so
    no mask is gathered (the mass is the exact count) and every value takes
    one max whatever the clipping and the sign of the mean.  The values are
    not shifted, so each member's rounding depends on its own values and
    its pad count only.
    """
    stencil, origin = member.mask, member.origin
    cells, lattice = values.shape, tuple(slice(None, None, s) for s in strides)
    inside = tuple(slice(o, o + n) for o, n in zip(origin, cells))
    padded_shape = tuple(n + s - 1 for n, s in zip(cells, stencil.shape))
    flat = _flat_offsets(member, padded_shape)
    out = np.empty([-(-n // s) for n, s in zip(cells, strides)])
    padded = np.zeros(padded_shape)
    padded[inside] = values
    steps = tuple(s * b for s, b in zip(strides, padded.strides)) + (padded.itemsize,)
    gw = np.ndarray(out.shape + (int(flat[-1]) + 1,), padded.dtype, padded, 0, steps)
    gw.flags.writeable = False
    count = _COUNTS.get(member, cells, lattice)
    # A block is a run of lattice points along axis k, with the axes before k
    # fixed and those after it whole: k is the first axis whose trailing
    # slab fits the bound, and the runs along it are cut to equal lengths.
    row = flat.size
    k = 0
    while k < out.ndim - 1 and row * math.prod(out.shape[k + 1:]) > _GATHER_BLOCK:
        k += 1
    slab = row * math.prod(out.shape[k + 1:])
    runs = -(-out.shape[k] * slab // _GATHER_BLOCK)
    step = -(-out.shape[k] // runs)
    sel = (..., flat)
    for lead in np.ndindex(out.shape[:k]):
        for s in range(0, out.shape[k], step):
            blk = lead + (slice(s, s + step),)
            gv, mass = gw[blk][sel], count[blk]
            total = gv.sum(axis=-1)
            mean = total / mass
            np.maximum(gv, mean[..., None], out=gv)
            pads = (row - mass) * np.maximum(mean, 0.0)
            out[blk] = 2.0 * np.abs(gv.sum(axis=-1) - pads - total) / mass
            del gv  # free this block's gather before the next one is made
    return out


@functools.lru_cache(maxsize=_STENCIL_TABLE_SIZE)
def _flat_offsets(member, padded_shape):
    """Flat offset of each stencil cell of a _Member in a C-order grid of
    padded_shape, in cells, ascending.  Read-only and shared from a bounded
    table keyed by the record's key and the shape."""
    flat = np.ravel_multi_index(np.nonzero(member.mask), padded_shape)
    flat.flags.writeable = False
    return flat


def _anchor_stride(grid, rho, density):
    """Anchor lattice stride of the rho-members: ~ rho / (density h) cells."""
    return max(1, int(min(rho / (density * h) for h in grid.h)))


def _sweep(grid, structure, radii, shape, density=None):
    """The radius loop of every family sup: (rho, member, stride, new) for
    each rho in radii, with the member_offsets record of the rho-member, its
    anchor stride (_anchor_stride; 1 when density is None, so every cell is
    an anchor), and whether (member, stride) differs from the previous
    radius's.  A radius that is not new may reuse what the last new one
    made: its member and lattice are the same."""
    last = None
    for rho in radii:
        member = member_offsets(grid, structure, rho, shape)
        stride = 1 if density is None else _anchor_stride(grid, rho, density)
        yield rho, member, stride, (member, stride) != last
        last = member, stride


def _scatter_max(lattice, member, stride, out):
    """out(z) <- max of out(z) and of the values on the stride lattice over
    the anchors whose member holds the whole stride block of
    z (cells stride * (z // stride) + [0, stride)^dim); a lower bound of the
    max over the anchors whose member holds z, and equal to it at stride 1,
    where the lattice is the grid and the runs max straight into out.
    Returns out.
    """
    footprint, origin, runs = _block_footprint(member, stride)
    if stride == 1:
        return _max_filter(lattice, footprint, origin, runs, out)
    block = _max_filter(lattice, footprint, origin, runs)
    for ax, n in enumerate(out.shape):
        block = np.repeat(block, stride, axis=ax)[(slice(None),) * ax + (slice(n),)]
    return np.maximum(out, block, out=out)


@functools.lru_cache(maxsize=_STENCIL_TABLE_SIZE)
def _block_footprint(member, stride):
    """(footprint, origin, runs) for _max_filter: the block offsets d whose
    block d * stride + [0, stride)^dim of member offsets lies wholly in the
    member, reflected, since an anchor's value reaches the cells its member
    holds, and its _footprint_runs.  Read-only and shared from a bounded
    table keyed by the record's key and the stride."""
    stencil, origin = member.mask, member.origin
    # pad with False so that the origin starts a block and every block is whole
    pad = [(-o % stride, (o - s) % stride) for o, s in zip(origin, stencil.shape)]
    padded = np.zeros([a + s + b for (a, b), s in zip(pad, stencil.shape)], dtype=bool)
    padded[tuple(slice(a, a + s) for (a, _b), s in zip(pad, stencil.shape))] = stencil
    blocks = padded.reshape([x for n in padded.shape for x in (n // stride, stride)])
    inside = blocks.all(axis=tuple(range(1, 2 * padded.ndim, 2)))
    footprint = np.flip(inside)
    footprint.flags.writeable = False
    reflected = tuple(n - 1 - (o + p) // stride for n, o, (p, _) in zip(inside.shape, origin, pad))
    return footprint, reflected, _footprint_runs(footprint)


def classical_maximal(field, structure, beta=0.0, family=None):
    """M_beta f(x) = sup over family members E containing x of
    rho(E)^beta * average_E |f|.

    beta omitted means the plain Hardy-Littlewood maximal function.
    """
    if family is None:
        family = BallFamily.for_structure(structure, field.grid)
    return _sup_of_means(field, None, structure, family, beta)


def classical_sharp(field, structure, family=None):
    """g^sharp(x) = sup over members containing x of the mean oscillation
    of g there; satisfies g^sharp <= 2 M g by the triangle inequality.
    """
    grid = field.grid
    if family is None:
        family = BallFamily.for_structure(structure, grid)
    out = np.zeros(grid.cells)
    for _rho, member, stride, new in _sweep(grid, structure, family.radii, family.shape,
                                            family.density):
        if not new:  # an equal member on an equal lattice adds nothing
            continue
        osc = _mean_oscillation(field.values, member, (stride,) * grid.dim)
        _scatter_max(osc, member, stride, out)
    return Field(grid, out)


def weighted_maximal(field, weight, structure, family=None):
    """M_w f(x) = sup over cubes Q containing x of w(Q)^{-1} int_Q |f| w dx:
    the maximal function of the measure w dx.

    `weight` may be a Field or a weights.Weight wrapper.
    """
    grid = field.grid
    if family is None:
        family = BallFamily.for_structure(structure, grid, shape="cube")
    wvals = weight.field.values if hasattr(weight, "field") else weight.values
    return _sup_of_means(field, wvals, structure, family)


def _sup_of_means(field, dens, structure, family, beta=0.0):
    """sup over family members E containing x of rho(E)^beta times the
    dens dx-average of |f| over E; dens None is dx itself.  Each
    radius scatters the means on its anchor lattice; a cell no member holds
    reads 0.  A radius whose member and stride equal the last radius's
    reuses its means, and at beta 0 scatters nothing new."""
    grid = field.grid
    weighted = np.abs(field.values) if dens is None else np.abs(field.values) * dens
    forward, dens_forward = _Forward(), _Forward()
    out = np.full(grid.cells, -np.inf)
    for rho, member, stride, new in _sweep(grid, structure, family.radii, family.shape,
                                           family.density):
        if new:
            avg, _den = _member_means(weighted, dens, member, forward, dens_forward)
        elif beta == 0:
            continue
        lattice = rho ** beta * avg[(slice(None, None, stride),) * grid.dim]
        _scatter_max(lattice, member, stride, out)
    out[out == -np.inf] = 0.0
    return Field(grid, out)
