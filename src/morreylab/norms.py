"""Morrey, homogeneous Morrey, mixed and parabolic mixed Morrey norms, drift
and BMO seminorms.

All sups over scales and centers run over the shared finite family
discipline (geometric radii, every grid cell as a center, members clipped
to the domain with recomputed measure), so every reported value is a
certified lower bound; divergence is declared either via the octave-growth
criterion or exactly, when a closed-form singular cell mass is infinite.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Field, lp_norm, power_integrand
from .maximal import (BallFamily, _bounding_box, _box_sum, _cell_key, _Forward, _Member,
                      _mean_oscillation, _member_means, _member_shape, _spectrum_bytes,
                      member_offsets)

__all__ = [
    "NormSpec",
    "evaluate_norm",
    "evaluate_norms",
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


# Bytes of the forward spectra of one stack of fields in _morrey_sup.  A
# stack of k > 1 fields also makes their product with the kernel spectrum,
# which broadcasts over the stack, so a stack holds about twice this.  32 MB
# takes the two 125^3 spectra (15 MB each) of `adams` at the default grid,
# whose Riesz potential peaks higher: `check '*'` read 4.59 s and 169 MB
# peak RSS with it, against 4.78 s and 175 MB with a 4.5 MB cap, which
# stacks that pair at --grid 0.5 only.
_STACK_BYTES = 32 * 2 ** 20


def _morrey_sup(fields, p, beta, structure, radii):
    """[(best, profile)] for each of a list of fields on one grid: the sup
    over rho in radii, members centered at every cell, of rho^beta times
    the slashed L_p norm over the member, and its (rho, value) profile.

    The fields are correlated as stacks along a leading batch axis, each as
    large as keeps its forward spectra within _STACK_BYTES, so each radius
    makes one kernel spectrum and reads one count per stack.  Every member
    holds its anchor cell, so a field with a divergent cell reads inf at
    every radius and joins no stack.

    A stack is cut once to its support, the bounding box [a_i, b_i] of its
    nonzero cells, and each radius keeps only the window of anchors whose
    members reach it: along axis i, a stencil of extent s_i and origin o_i
    reaches it from the anchors in [a_i - (s_i - 1 - o_i), b_i + o_i], cut
    to the grid.  That window is the correlation's span, so its transforms
    are as long as the support and the window need (_transform_lens), and
    one forward spectrum of the support serves every radius of equal
    lengths.  An anchor outside the window has mean 0, which the clamp at 0
    covers.  So fields whose supports differ widely are best not stacked.
    A stack whose support is the grid keeps every anchor.  A radius whose
    member equals the last radius's reuses its largest means; the profile
    still lists every radius."""
    grid = fields[0].grid
    shape = _member_shape(structure)
    members = [member_offsets(grid, structure, rho, shape) for rho in radii]
    size = max(1, _STACK_BYTES // max((_spectrum_bytes(grid.cells, m) for m in members),
                                      default=1))
    out = [[(rho, math.inf) for rho in radii] for _ in fields]  # the profiles
    finite = ((i, arr) for i, (arr, inf_mask) in
              enumerate(power_integrand(f, p) for f in fields) if not inf_mask.any())
    while chunk := list(itertools.islice(finite, size)):
        index, arrs = zip(*chunk)
        stack = np.stack(arrs)
        del chunk, arrs
        # an all-zero stack takes any one cell as its support
        support = _bounding_box(stack.any(axis=0)) or ((0, 0),) * grid.dim
        start = tuple(a for a, _b in support)
        values = stack[(slice(None),) + tuple(slice(a, b + 1) for a, b in support)]
        fwd = _Forward()  # one forward spectrum of values, shared by radii of equal lengths
        last = None
        profiles = [[] for _ in index]
        for rho, member in zip(radii, members):
            if member != last:
                # the window's anchors, relative to the support's first cell
                span = tuple((max(-a, -(s - 1 - o)), min(n - a, b - a + o + 1)) for (a, b), s, o, n
                             in zip(support, member.mask.shape, member.origin, grid.cells))
                # the scale is monotone, so the largest mean gives the largest
                # value; the means are dropped before the next radius correlates
                top = np.maximum(_member_means(values, None, member, fwd,
                                               window=(grid.cells, start, span))[0]
                                 .reshape(len(index), -1).max(axis=1), 0.0)
                last = member
            for profile, m in zip(profiles, rho ** beta * top ** (1.0 / p)):
                profile.append((rho, m.item()))
        for i, profile in zip(index, profiles):
            out[i] = profile
    return [(max([0.0] + [m for _rho, m in profile]), profile) for profile in out]


def mixed_norm(field, p, q, reversed_order=False):
    """Global L_{p,q} (inner x with p, outer t with q) or reversed L_{q,p}
    (inner t with q, outer x with p).  Axis 0 is t; p = q gives the L_p
    norm.  Singular cells count their exact masses; one that diverges makes
    the norm inf."""
    grid = field.grid
    ht = grid.h[0]
    volx = grid.cell_volume / ht
    arr, inf_mask = power_integrand(field, q if reversed_order else p)
    if inf_mask.any():
        return math.inf
    if not reversed_order:
        inner = arr.sum(axis=tuple(range(1, grid.dim))) * volx
        return float(((inner ** (q / p)).sum() * ht) ** (1.0 / q))
    inner = arr.sum(axis=0) * ht
    return float(((inner ** (p / q)).sum() * volx) ** (1.0 / p))


def _window_sums(arr, wlen):
    """Sliding sums over axis 0 with window wlen at every valid anchor."""
    sums = _box_sum(arr, [(0, wlen - 1)] + [(0, 0)] * (arr.ndim - 1))
    return sums[: arr.shape[0] - wlen + 1]


def _mixed_morrey_sup(field, p, q, beta, structure, radii, reversed_order=False):
    """(best, profile): the sup over cylinders C_rho of rho^beta * slashed
    mixed norm, and its (rho, value) profile over the kept radii.

    Standard order: inner x with exponent p, outer t with exponent q.
    Reversed: inner t with exponent q, outer x with exponent p.  Every
    cylinder holds its anchor cell, so a divergent cell of |f|^(inner
    exponent) makes every kept radius inf.  A radius whose x-ball (and, in
    the reversed order, t-window) equals the last radius's reuses its ball
    means.
    """
    grid = field.grid
    ht = grid.h[0]
    best = 0.0
    profile = []
    arr, inf_mask = power_integrand(field, q if reversed_order else p)
    diverges = inf_mask.any()
    arr_fwd = _Forward()
    last = None
    for rho in radii:
        wlen = max(1, int(round(rho ** 2 / ht)))
        if wlen > grid.cells[0]:
            continue
        member = member_offsets(grid, structure, rho, "ball_x")
        if diverges:
            m = np.inf
        elif not reversed_order:
            if member != last:
                # X(t,c) = (slashed L_p over the ball at (t, c))^(q/p)
                X = np.maximum(_member_means(arr, None, member, arr_fwd)[0], 0.0) ** (q / p)
                last = member
            Y = _window_sums(X, wlen) / wlen
            m = float((rho ** beta * np.maximum(Y, 0.0) ** (1.0 / q)).max())
        else:
            if (member, wlen) != last:
                # U(tau, x) = slashed t-window average of |f|^q
                U = np.maximum(_window_sums(arr, wlen) / wlen, 0.0)
                V = np.maximum(_member_means(U ** (p / q), None, member)[0], 0.0)
                last = member, wlen
            m = float((rho ** beta * V ** (1.0 / p)).max())
        profile.append((rho, m))
        best = max(best, m)
    return best, profile


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
    return evaluate_norms([field], spec, structure, radii, return_profile)[0]


def evaluate_norms(fields, spec, structure, radii=None, return_profile=False):
    """[evaluate_norm(f, ...) for f in fields], for fields on one grid.  The
    Morrey kinds Epbr and EpbDot sup over all of them in one pass of the
    radius loop, which makes one kernel spectrum per radius and stack."""
    grid = fields[0].grid
    spec.advisory(structure)
    kind = spec.kind
    if kind in ("Lp", "LpW"):
        weight = spec.weight if kind == "LpW" else None
        return [lp_norm(f, spec.p, weight=weight) for f in fields]
    if kind in ("Lpq", "Lqp_reversed"):
        return [mixed_norm(f, spec.p, spec.q, reversed_order=(kind == "Lqp_reversed"))
                for f in fields]
    # Morrey kinds; the inhomogeneous ones cap the scales at spec.r
    cap = spec.r if kind in ("Epbr", "Epqb") else None
    rr = radii if radii is not None else _family_radii(grid, structure, cap)
    if cap is not None:
        rr = tuple(r for r in rr if r <= cap * (1 + 1e-12)) or rr[:1]
    if kind in ("Epbr", "EpbDot"):
        sups = _morrey_sup(fields, spec.p, spec.beta, structure, rr)
    else:
        sups = [_mixed_morrey_sup(f, spec.p, spec.q, spec.beta, structure, rr,
                                  reversed_order=(kind == "Lqpb_reversed_morrey"))
                for f in fields]
    return sups if return_profile else [best for best, _profile in sups]


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
        best, profile = _morrey_sup([b], p_b, 1.0, structure, radii)[0]
    else:
        best, profile = _mixed_morrey_sup(b, p_b, q_b, 1.0, structure, radii,
                                          reversed_order=reversed_order)
    return (best, profile) if return_profile else best


def bmo_seminorms(a_entries, rho, structure):
    """(a_sharp_rho, a_sharpsharp_rho) for a bounded (matrix-valued) field.

    a_sharp_rho: sup over balls of radius <= rho, centred on every fourth
    cell along each axis, of the mean oscillation.
    a_sharpsharp: sup over cylinders of the mean deviation from the
    x-average profile  a~_C(t)  (parabolic structures only).
    """
    if isinstance(a_entries, Field):
        a_entries = [a_entries]
    grid = a_entries[0].grid
    radii = _family_radii(grid, structure, rho)
    sharp = 0.0
    # not _member_shape: parabolic structures take ellipsoids here, not cylinders
    shape = "ball" if all(k == 1 for k in structure.anisotropy) else "ellipsoid"
    strides = (4,) * grid.dim
    for a in a_entries:
        last = None
        for r in radii:
            member = member_offsets(grid, structure, r, shape)
            if member != last:  # an equal member has an equal oscillation
                sharp = max(sharp, float(_mean_oscillation(a.values, member, strides).max()))
                last = member
    sharpsharp = 0.0
    if structure.parabolic:
        ht = grid.h[0]
        # members: the x-ball at every (t, c), c on the decimated lattice;
        # mean deviation from the x-average profile, then averaged over t
        strides = (1,) + strides[1:]
        for a in a_entries:
            last = None
            for r in radii:
                wlen = max(1, int(round(r ** 2 / ht)))
                if wlen > grid.cells[0]:
                    continue
                ball = member_offsets(grid, structure, r, "ball_x")
                if ball != last:
                    # the x-ball as a one-row cylinder, keyed by its cells
                    row, origin = ball.mask[None], (0,) + ball.origin
                    dev = _mean_oscillation(a.values, _Member(row, origin, _cell_key(row, origin)),
                                            strides)
                    last = ball
                sharpsharp = max(sharpsharp, float((_window_sums(dev, wlen) / wlen).max()))
    return sharp, sharpsharp

