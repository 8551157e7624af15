"""Shared helpers for the check implementations."""

from __future__ import annotations

import math

import numpy as np

from ..grid import Field, make_grid, make_structure
from ..testfunctions import test_function

__all__ = [
    "elliptic_structure",
    "parabolic_structure",
    "parabolic_grid",
    "random_nonneg",
    "random_signed",
    "bump_mix",
    "stability",
    "growth_verdict",
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


def random_signed(grid, seed, kmax=5, mean_zero=True):
    return test_function("random_band", grid, kmax=kmax, seed=seed, mean_zero=mean_zero)


def bump_mix(grid, seed, n=3, nonneg=True):
    """Sum of a few randomly placed smooth bumps, compactly supported."""
    rng = np.random.default_rng(seed)
    vals = np.zeros(grid.cells)
    for _ in range(n):
        center = [rng.uniform(-0.4 * L, 0.4 * L) for L in grid.half_extent]
        radius = rng.uniform(0.15, 0.4) * min(grid.half_extent)
        amp = rng.uniform(0.5, 1.5) * (1.0 if nonneg else rng.choice([-1.0, 1.0]))
        b = test_function("bump", grid, radius=radius, center=center, amp=amp)
        vals += b.values
    return Field(grid, vals)


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
