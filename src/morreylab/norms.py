"""Morrey, homogeneous Morrey, mixed and parabolic mixed Morrey norms, drift
and BMO seminorms.

All sups over scales and centers run over the shared finite family
discipline (geometric radii, every grid cell as a center, members clipped
to the domain with recomputed measure), so every reported value is a
certified lower bound; divergence is declared either via the octave-growth
criterion or exactly, when a closed-form singular cell mass is infinite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Field, lp_norm, power_integrand
from .maximal import (BallFamily, _box_sum, _correlate, _Forward, _mean_oscillation,
                      _member_means, _member_shape, member_offsets)

__all__ = [
    "NormSpec",
    "evaluate_norm",
    "drift_seminorm",
    "bmo_seminorms",
    "power_integrand",
    "mixed_norm",
]

_KINDS = (
    "Lp",
    "LpW",
    "Epbr",
    "EpbDot",
    "Lpq",
    "Lqp_reversed",
    "Epqb",
    "EpqbDot",
    "Lqpb_reversed_morrey",
)


@dataclass
class NormSpec:
    """Which norm: exponents, Morrey weight beta, scale cap r, weight."""

    kind: str
    p: float
    q: float = None
    beta: float = None
    r: float = 1.0
    weight: object = None  # Field

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}; use one of {_KINDS}")

    def advisory(self, structure):
        """Warn when beta exceeds the d/p (+2/q) threshold: above it the
        homogeneous space is {0} and the local one collapses to local Lp."""
        if self.beta is None:
            return
        d = structure.dim if not structure.parabolic else structure.dim - 1
        if self.kind in ("Epqb", "EpqbDot", "Lqpb_reversed_morrey"):
            thr = d / self.p + 2.0 / self.q
        elif structure.parabolic:
            thr = (d + 2.0) / self.p  # unmixed norm over parabolic cylinders
        else:
            thr = d / self.p
        if self.beta > thr + 1e-12:
            warnings.warn(
                f"beta={self.beta} above the threshold {thr:g}: the homogeneous "
                "space is trivial / the local space equals local Lp", stacklevel=2
            )


def _morrey_sup(field, p, beta, structure, radii, return_profile=False):
    """sup over rho in radii, members centered at every cell, of
    rho^beta * slashed L_p over the member."""
    grid = field.grid
    shape = _member_shape(structure)
    dens = structure.density_on(grid)
    arr, inf_mask = power_integrand(field, p, dens)
    # one forward spectrum per field, shared by radii that pad alike
    mask = inf_mask.astype(float) if inf_mask.any() else None
    arr_fwd, mask_fwd = _Forward(), _Forward()
    best = 0.0
    profile = []
    for rho in radii:
        stencil, origin = member_offsets(grid, structure, rho, shape)
        s, _ = _member_means(arr, dens, structure, stencil, origin, arr_fwd)
        val = rho ** beta * np.maximum(s, 0.0) ** (1.0 / p)
        if mask is not None:
            hit = _correlate(mask, stencil, origin, mask_fwd) > 0.5
            val = np.where(hit, np.inf, val)
        m = float(val.max())
        profile.append((rho, m))
        best = max(best, m)
    if return_profile:
        return best, profile
    return best


def mixed_norm(field, p, q, structure, reversed_order=False):
    """Global L_{p,q} (inner x with p, outer t with q) or reversed L_{q,p}
    (inner t with q, outer x with p).  Axis 0 is t; the structure's measure
    density weighs the inner integrand, so p = q gives the L_p norm."""
    grid = field.grid
    ht = grid.h[0]
    volx = grid.cell_volume / ht
    v = np.abs(field.values)
    dens = structure.density_on(grid)
    if not reversed_order:
        inner = (v ** p * dens).sum(axis=tuple(range(1, grid.dim))) * volx
        return float(((inner ** (q / p)).sum() * ht) ** (1.0 / q))
    inner = (v ** q * dens).sum(axis=0) * ht
    return float(((inner ** (p / q)).sum() * volx) ** (1.0 / p))


def _window_sums(arr, wlen):
    """Sliding sums over axis 0 with window wlen at every valid anchor."""
    sums = _box_sum(arr, [(0, wlen - 1)] + [(0, 0)] * (arr.ndim - 1))
    return sums[: arr.shape[0] - wlen + 1]


def _mixed_morrey_sup(field, p, q, beta, structure, radii, reversed_order=False,
                      return_profile=False):
    """sup over cylinders C_rho of rho^beta * slashed mixed norm.

    Standard order: inner x with exponent p, outer t with exponent q.
    Reversed: inner t with exponent q, outer x with exponent p.
    """
    grid = field.grid
    ht = grid.h[0]
    best = 0.0
    profile = []
    inner_p = p if not reversed_order else q
    dens = structure.density_on(grid)
    arr, inf_mask = power_integrand(field, inner_p, dens)
    mask = inf_mask.astype(float) if inf_mask.any() else None
    arr_fwd, mask_fwd = _Forward(), _Forward()
    for rho in radii:
        wlen = max(1, int(round(rho ** 2 / ht)))
        if wlen > grid.cells[0]:
            continue
        stencil, origin = member_offsets(grid, structure, rho, "ball_x")
        if not reversed_order:
            # X(t,c) = slashed L_p over the ball at (t, c)
            X, _ = _member_means(arr, dens, structure, stencil, origin, arr_fwd)
            Y = _window_sums(np.maximum(X, 0.0) ** (q / p), wlen) / wlen
            val = rho ** beta * np.maximum(Y, 0.0) ** (1.0 / q)
            if mask is not None:
                hit = _correlate(mask, stencil, origin, mask_fwd) > 0.5
                hits = _window_sums(hit.astype(float), wlen) > 0.5
                val = np.where(hits, np.inf, val)
        else:
            # U(tau, x) = slashed t-window average of |f|^q
            U = np.maximum(_window_sums(arr / dens.clip(min=1e-300), wlen) / wlen, 0.0)
            dens_u = dens[: U.shape[0]]
            V, _ = _member_means(U ** (p / q) * dens_u, dens_u, structure, stencil, origin)
            val = rho ** beta * np.maximum(V, 0.0) ** (1.0 / p)
            if mask is not None:
                hit = _window_sums(mask, wlen) > 0.5
                hit2 = _correlate(hit.astype(float), stencil, origin) > 0.5
                val = np.where(hit2, np.inf, val)
        m = float(val.max())
        profile.append((rho, m))
        best = max(best, m)
    if return_profile:
        return best, profile
    return best


def _family_radii(grid, structure, r_cap=None):
    """The geometric radii of BallFamily.for_structure up to the cap, plus
    the cap itself; the smallest radius alone when the family is empty."""
    rho_max = min(grid.half_extent) if r_cap is None else min(r_cap, min(grid.half_extent))
    try:
        radii = BallFamily.for_structure(structure, grid, rho_max=rho_max).radii
    except ValueError:  # empty radius family
        return (2.0 * max(grid.h),)
    if radii[-1] < rho_max * (1 - 1e-12):
        radii += (float(rho_max),)  # the cap scale itself is always a member
    return radii


def evaluate_norm(field, spec, structure, radii=None, return_profile=False):
    """Evaluate the norm described by `spec` on `field`.

    Morrey kinds sup over the finite scale family (rho <= spec.r for the
    inhomogeneous kinds, up to the truncation radius for the homogeneous
    ones); mixed kinds use iterated integrals in the declared order.
    """
    grid = field.grid
    spec.advisory(structure)
    kind = spec.kind
    if kind == "Lp":
        return lp_norm(field, spec.p, structure=structure)
    if kind == "LpW":
        return lp_norm(field, spec.p, structure=structure, weight=spec.weight)
    if kind == "Lpq":
        return mixed_norm(field, spec.p, spec.q, structure)
    if kind == "Lqp_reversed":
        return mixed_norm(field, spec.p, spec.q, structure, reversed_order=True)
    # Morrey kinds; the inhomogeneous ones cap the scales at spec.r
    cap = spec.r if kind in ("Epbr", "Epqb") else None
    rr = radii if radii is not None else _family_radii(grid, structure, cap)
    if cap is not None:
        rr = tuple(r for r in rr if r <= cap * (1 + 1e-12)) or rr[:1]
    if kind in ("Epbr", "EpbDot"):
        return _morrey_sup(field, spec.p, spec.beta, structure, rr, return_profile)
    return _mixed_morrey_sup(field, spec.p, spec.q, spec.beta, structure, rr,
                             reversed_order=(kind == "Lqpb_reversed_morrey"),
                             return_profile=return_profile)


def drift_seminorm(b, p_b, rho_b, structure, q_b=None, reversed_order=False,
                   radii=None, return_profile=False):
    """sup_{rho <= rho_b} rho * sup over rho-members of the slashed norm of b.

    Elliptic: slashed L_{p_b} over balls.  Parabolic/mixed (set q_b): the
    slashed mixed norm over cylinders, standard or reversed order.
    """
    grid = b.grid
    if radii is None:
        radii = _family_radii(grid, structure, rho_b)
    radii = tuple(r for r in radii if r <= rho_b * (1 + 1e-12)) or radii[:1]
    if q_b is None:
        return _morrey_sup(b, p_b, 1.0, structure, radii, return_profile=return_profile)
    return _mixed_morrey_sup(b, p_b, q_b, 1.0, structure, radii,
                             reversed_order=reversed_order,
                             return_profile=return_profile)


def bmo_seminorms(a_entries, rho, structure, stride=4):
    """(a_sharp_rho, a_sharpsharp_rho) for a bounded (matrix-valued) field.

    a_sharp_rho: sup over balls of radius <= rho of the mean oscillation.
    a_sharpsharp: sup over cylinders of the mean deviation from the
    x-average profile  a~_C(t)  (parabolic structures only).
    """
    if isinstance(a_entries, Field):
        a_entries = [a_entries]
    grid = a_entries[0].grid
    dens = None if structure.uniform else structure.density_on(grid)
    radii = _family_radii(grid, structure, rho)
    sharp = 0.0
    # not _member_shape: parabolic structures take ellipsoids here, not cylinders
    shape = "ball" if all(k == 1 for k in structure.anisotropy) else "ellipsoid"
    strides = (stride,) * grid.dim
    for a in a_entries:
        for r in radii:
            stencil, origin = member_offsets(grid, structure, r, shape)
            osc = _mean_oscillation(a.values, dens, stencil, origin, strides)
            sharp = max(sharp, float(osc.max()))
    sharpsharp = 0.0
    if structure.parabolic:
        ht = grid.h[0]
        # members: the x-ball at every (t, c), c on the decimated lattice;
        # mean deviation from the x-average profile, then averaged over t
        strides = (1,) + strides[1:]
        for a in a_entries:
            for r in radii:
                wlen = max(1, int(round(r ** 2 / ht)))
                if wlen > grid.cells[0]:
                    continue
                stencil, origin = member_offsets(grid, structure, r, "ball_x")
                dev = _mean_oscillation(a.values, dens, stencil[None], (0,) + tuple(origin),
                                        strides)
                sharpsharp = max(sharpsharp, float((_window_sums(dev, wlen) / wlen).max()))
    return sharp, sharpsharp

