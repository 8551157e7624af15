"""Shared helpers for the check implementations."""

from __future__ import annotations

import functools
import math

import numpy as np

from ..grid import Field, GridSpec, make_grid, make_structure
from ..testfunctions import test_function

__all__ = [
    "elliptic_structure",
    "parabolic_structure",
    "parabolic_grid",
    "random_nonneg",
    "random_signed",
    "bump_mix",
    "mean_zero_source",
    "centred",
    "stability",
    "growth_verdict",
    "grid_label",
    "worst",
    "run_levels",
    "refine",
]


def elliptic_structure(d):
    return make_structure(d, (1,) * d)


def parabolic_structure(d_space):
    return make_structure(d_space + 1, (2,) + (1,) * d_space)


def parabolic_grid(cfg, nt=64, nx=64, lt=1.0, lx=math.pi, periodic=True):
    """The (1+1)-D (t, x) grid of nt x nx cells at the run's resolution."""
    return make_grid(2, (lt, lx), (cfg.cells(nt), cfg.cells(nx)), periodic)


def random_nonneg(grid, seed):
    """Uniform draws cubed: nonnegative, with rare large values."""
    return Field(grid, np.random.default_rng(seed).random(grid.cells) ** 3)


def random_signed(grid, seed, kmax=5):
    return test_function("random_band", grid, kmax=kmax, seed=seed)


def bump_mix(grid, seed, nonneg=True):
    """Sum of three randomly placed smooth bumps, compactly supported."""
    rng = np.random.default_rng(seed)
    vals = np.zeros(grid.cells)
    for _ in range(3):
        center = [rng.uniform(-0.4 * L, 0.4 * L) for L in grid.half_extent]
        radius = rng.uniform(0.15, 0.4) * min(grid.half_extent)
        amp = rng.uniform(0.5, 1.5) * (1.0 if nonneg else rng.choice([-1.0, 1.0]))
        b = test_function("bump", grid, radius=radius, center=center, amp=amp)
        vals += b.values
    return Field(grid, vals)


def centred(f):
    """f less its mean."""
    return Field(f.grid, f.values - f.values.mean())


def mean_zero_source(grid, seed):
    """bump_mix with random signs, less its mean."""
    return centred(bump_mix(grid, seed, nonneg=False))


def stability(values):
    """max growth factor across consecutive refinement levels (inf-safe)."""
    worst = 0.0
    for a, b in zip(values, values[1:]):
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        if a <= 0:
            return math.inf
        worst = max(worst, b / a)
    return worst


def growth_verdict(values, grow_factor=1.25):
    """True when the sequence diverges: hits inf or grows monotonically by
    at least `grow_factor` in total across the refinement levels."""
    if any(not math.isfinite(v) for v in values):
        return True
    if values[0] <= 0:
        return False
    monotone = all(b >= a * 0.999 for a, b in zip(values, values[1:]))
    return monotone and values[-1] / values[0] >= grow_factor


def grid_label(structure, grids):
    """The report's `grid` column, read off the grids a check ran: '(1+k)'
    for a parabolic structure (None is not one), else '<d>d', then the
    first-axis cells of the one grid, or 'first-last' over the levels of a
    refinement, in the order they ran."""
    if isinstance(grids, GridSpec):
        grids = [grids]
    first, last = grids[0], grids[-1]
    dim = first.dim
    head = f"(1+{dim - 1})" if structure is not None and structure.parabolic else f"{dim}d"
    cells = f"{first.cells[0]}" if len(grids) == 1 else f"{first.cells[0]}-{last.cells[0]}"
    return f"{head}/{cells}"


def worst(values):
    """The trials' running max from 0.0: an empty or all-negative fold is
    0.0, and a NaN never replaces the value held (max keeps its first
    argument unless the second is larger)."""
    return functools.reduce(max, values, 0.0)


def refinement_report(structure, grids, *levels, params, bound=1.10):
    """The existential report of a check that is stable under refinement:
    lhs the worst growth factor (stability) of its level sequences, one
    value per grid of `grids`, against rhs 1 and `bound`.  Checks build it
    through `refine`; only the two whose level loop may return early
    (sharp-compare, rh) call it themselves."""
    return {"lhs": max(stability(v) for v in levels), "rhs": 1.0, "bound": bound,
            "bound_class": "existential", "grid": grid_label(structure, grids),
            "params": params}


def run_levels(grids, level):
    """The one refinement loop: `level(g)` once per grid, in order, each
    call a dict of named quantities; returns one list per name."""
    seqs = {}
    for g in grids:
        for name, value in level(g).items():
            seqs.setdefault(name, []).append(value)
    return seqs


def refine(structure, grids, level, params=None, bound=1.10):
    """The existential report of `level`'s named quantities over `grids`:
    every named sequence is a level sequence of `refinement_report`, and
    params are the sequences plus the check's extra `params`."""
    seqs = run_levels(grids, level)
    return refinement_report(structure, grids, *seqs.values(),
                             params={**seqs, **(params or {})}, bound=bound)
