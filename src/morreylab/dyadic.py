"""Dyadic filtration of partitions, stopping times, CZ decomposition and the
dyadic maximal / sharp operators for the Lebesgue measure.

Generations are numbered g = 0 (the whole domain as one box) up to
max_generation(); a generation-g box spans cells[i] >> (k_i * g) cells along
axis i, so every axis must hold a power of two cells.  The filtration is
anchored at the domain corner; translate the grid itself when a different
anchor is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field

__all__ = [
    "DyadicBox",
    "GenerationMap",
    "max_generation",
    "conditional_average",
    "stopping_time",
    "cz_decompose",
    "dyadic_maximal",
    "dyadic_sharp",
    "box_doubling_constant",
]

INFINITY = -1  # generation code for "never stopped" (tau = infinity)


@dataclass(frozen=True)
class DyadicBox:
    """Generation-g box: along axis i it spans cells [i_g, i_g + span_i)."""

    generation: int
    index: tuple

    def cell_slices(self, grid, anisotropy):
        sl = []
        for ax, (n, k) in enumerate(zip(grid.cells, anisotropy)):
            span = n >> (k * self.generation)
            start = self.index[ax] * span
            sl.append(slice(start, start + span))
        return tuple(sl)

    def corner_coords(self, grid, anisotropy):
        lo, hi = [], []
        for ax, (n, k, L) in enumerate(
            zip(grid.cells, anisotropy, grid.half_extent)
        ):
            span = n >> (k * self.generation)
            h = 2.0 * L / n
            lo.append(-L + self.index[ax] * span * h)
            hi.append(-L + (self.index[ax] + 1) * span * h)
        return lo, hi


def _check_pow2(grid, anisotropy):
    for n, k in zip(grid.cells, anisotropy):
        if n & (n - 1):
            raise ValueError("dyadic operations need power-of-two cell counts")


def max_generation(grid, anisotropy):
    """Finest generation at which every box still spans >= 1 cell per axis."""
    _check_pow2(grid, anisotropy)
    gmax = math.inf
    for n, k in zip(grid.cells, anisotropy):
        gmax = min(gmax, int(math.log2(n)) // k)
    return int(gmax)


def _block_shape(grid, anisotropy, g):
    """(boxes_per_axis, cells_per_box_per_axis) at generation g."""
    nb, bs = [], []
    for n, k in zip(grid.cells, anisotropy):
        span = n >> (k * g)
        if span < 1:
            raise ValueError(f"generation {g} out of range")
        nb.append(n // span)
        bs.append(span)
    return tuple(nb), tuple(bs)


def _box_view(values, nb, bs):
    """Reshape to (nb0, bs0, nb1, bs1, ...) for per-box reductions."""
    shape = []
    for b, s in zip(nb, bs):
        shape.extend([b, s])
    return values.reshape(shape)


def _box_reduce(values, nb, bs, op="sum"):
    v = _box_view(values, nb, bs)
    axes = tuple(range(1, 2 * len(nb), 2))
    return getattr(v, op)(axis=axes)


def _broadcast_boxes(box_vals, bs):
    out = box_vals
    for ax, s in enumerate(bs):
        out = np.repeat(out, s, axis=ax)
    return out


def _box_means(values, nb, bs):
    """Average of values on each box of shape (nb, bs): its sum over its
    cell count."""
    return _box_reduce(values, nb, bs, "sum") / math.prod(bs)


def conditional_average(field, structure, g):
    """f_{|g}: constant on each generation-g box, the average of f there.

    Preserves box integrals: for every generation-g box B,
    integral_B f_{|g} dx = integral_B f dx.
    """
    grid = field.grid
    ks = structure.anisotropy
    _check_pow2(grid, ks)
    nb, bs = _block_shape(grid, ks, g)
    return Field(grid, _broadcast_boxes(_box_means(field.values, nb, bs), bs))


@dataclass
class GenerationMap:
    """Map x -> tau(x): the generation where the trajectory stopped.

    Stored per cell; INFINITY (= -1) encodes tau = infinity.  The level set
    {tau = g} is a union of generation-g boxes by construction.
    """

    grid: object
    anisotropy: tuple
    generations: np.ndarray  # int array over cells

    def is_stopping_time(self):
        """Verify {tau = g} is box-aligned at generation g, for each g."""
        for g in range(0, int(self.generations.max()) + 1):
            mask = (self.generations == g).astype(float)
            nb, bs = _block_shape(self.grid, self.anisotropy, g)
            per_box = _box_reduce(mask, nb, bs, "mean")
            if not np.all((per_box == 0.0) | (per_box == 1.0)):
                return False
        return True

    def stopped_value(self, field, structure):
        """f_{|tau}: f_{|tau(x)}(x) where stopped, f(x) where tau = inf."""
        out = field.values.copy()
        for g in range(0, int(self.generations.max()) + 1):
            mask = self.generations == g
            if mask.any():
                avg = conditional_average(field, structure, g).values
                out[mask] = avg[mask]
        return Field(field.grid, out)


def stopping_time(field, structure, lam):
    """First generation g >= 1 with f_{|g}(x) > lam, else inf.

    Requires f >= 0 and f_{|0} <= lam everywhere (the discrete surrogate
    of f_{|n} -> 0 as n -> -infinity); ties (equality) do not stop.
    """
    grid = field.grid
    ks = structure.anisotropy
    if np.any(field.values < 0):
        raise ValueError("stopping_time requires f >= 0")
    if np.any(conditional_average(field, structure, 0).values > lam):
        box = np.unravel_index(0, (1,) * grid.dim)  # the one generation-0 box
        raise ValueError(f"precondition f_(|0) <= lambda fails on generation-0 box {box}")
    taus = np.full(grid.cells, INFINITY, dtype=int)
    undecided = np.ones(grid.cells, dtype=bool)
    for g in range(1, max_generation(grid, ks) + 1):
        avg = conditional_average(field, structure, g).values
        newly = undecided & (avg > lam)
        taus[newly] = g
        undecided &= ~newly
        if not undecided.any():
            break
    return GenerationMap(grid, ks, taus)


def cz_decompose(field, structure, lam):
    """Riesz-Calderon-Zygmund decomposition at level lam.

    Returns (bad_boxes, good_mask): bad boxes are the maximal selected
    boxes (pairwise disjoint) on which the average first exceeds lam; on the
    good region every computed conditional average is <= lam.
    """
    tau = stopping_time(field, structure, lam)
    grid = field.grid
    ks = structure.anisotropy
    bad_boxes = []
    for g in range(1, int(tau.generations.max()) + 1):
        mask = tau.generations == g
        if not mask.any():
            continue
        nb, bs = _block_shape(grid, ks, g)
        per_box = _box_reduce(mask.astype(float), nb, bs, "mean")
        avg = _box_means(field.values, nb, bs)
        for idx in np.argwhere(per_box == 1.0):
            bad_boxes.append((DyadicBox(g, tuple(int(i) for i in idx)), float(avg[tuple(idx)])))
    good_mask = tau.generations == INFINITY
    return bad_boxes, good_mask


def dyadic_maximal(field, structure, g_max=None):
    """M f(x) = max over generations of |f|_{|g}(x); equals M|f| by definition."""
    grid = field.grid
    ks = structure.anisotropy
    if g_max is None:
        g_max = max_generation(grid, ks)
    absf = Field(grid, np.abs(field.values))
    out = np.zeros(grid.cells)
    for g in range(g_max + 1):
        out = np.maximum(out, conditional_average(absf, structure, g).values)
    return Field(grid, out)


def dyadic_sharp(field, structure, g_max=None):
    """f^#(x) = max over generations of the mean oscillation on the box at x."""
    grid = field.grid
    ks = structure.anisotropy
    if g_max is None:
        g_max = max_generation(grid, ks)
    out = np.zeros(grid.cells)
    for g in range(g_max + 1):
        avg = conditional_average(field, structure, g)
        dev = Field(grid, np.abs(field.values - avg.values))
        out = np.maximum(out, conditional_average(dev, structure, g).values)
    return Field(grid, out)


def box_doubling_constant(grid, structure):
    """The largest ratio |parent|/|child| of cell counts over the
    generations of the filtration; a generation's boxes share one shape, so
    one ratio per generation is the max over every parent-child pair."""
    ks = structure.anisotropy
    worst = 1.0
    for g in range(1, max_generation(grid, ks) + 1):
        parent, child = (math.prod(_block_shape(grid, ks, j)[1]) for j in (g - 1, g))
        worst = max(worst, parent / child)
    return worst
