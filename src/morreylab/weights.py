"""Muckenhoupt A_p machinery: constants, reverse Holder, self-improvement,
the Rubio de Francia iteration and Jones factorization.

Constants computed over a finite cube family are certified lower bounds of
the continuum constants.  Finiteness vs. divergence is decided by the
stabilizes-under-refinement criterion; weights whose defining integrals are
not locally integrable report +inf directly through the exact singular-cell
masses of the power-law generators (divergence there is a fact of the
continuum integral, not a discretization artifact).
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Field, ParabolicPower, RadialPower, lp_norm, singular_field
from .maximal import (BallFamily, _correlate, _Forward, _member_means, classical_maximal,
                      member_offsets)

__all__ = [
    "Weight",
    "power_weight",
    "parabolic_power_weight",
    "ap_constant",
    "a1_constant",
    "ainf_profile",
    "reverse_holder",
    "self_improve",
    "rdf_iterate",
    "jones_factorize",
    "RdfDivergence",
]


class RdfDivergence(RuntimeError):
    """Raised when the Rubio de Francia partial sums diverge, which means
    the empirical operator norm was underestimated."""

    def __init__(self, norm_estimate):
        super().__init__(
            f"divergent partial sums; re-estimate the operator norm (used {norm_estimate})"
        )
        self.norm_estimate = norm_estimate


class Weight:
    """Strictly positive field."""

    def __init__(self, field):
        if np.any(field.values <= 0):
            raise ValueError("weight must be positive at every sample")
        self.field = field

    @property
    def grid(self):
        return self.field.grid


def power_weight(grid, alpha):
    """w(x) = |x|^alpha sampled with exact singular-cell averages.

    Negative alpha is a genuine singularity at 0; the singular cell carries
    the closed-form average (or +inf when non-integrable).
    """
    r = grid.radius()
    with np.errstate(divide="ignore"):
        vals = np.where(r > 0, r ** alpha, np.inf if alpha < 0 else 0.0)
    feats = [RadialPower((0.0,) * grid.dim, -alpha)] if alpha < 0 else []
    f = singular_field(grid, vals, feats)
    f.meta["closed_form"] = ("radial_power", float(alpha))
    return Weight(f)


def parabolic_power_weight(grid, alpha):
    """w(t, x) = (|x| + sqrt|t|)^{-alpha} on a (1+d)-grid (t is axis 0)."""
    xs = grid.mesh()
    rr = np.sqrt(sum(m ** 2 for m in xs[1:])) if grid.dim > 1 else 0.0
    rho = rr + np.sqrt(np.abs(xs[0]))
    with np.errstate(divide="ignore"):
        vals = np.where(rho > 0, rho ** (-alpha), np.inf)
    # the exact corner-cell averages are known for d = 1 only
    feats = [ParabolicPower(alpha)] if grid.dim == 2 and alpha > 0 else []
    f = singular_field(grid, vals, feats)
    f.meta["closed_form"] = ("parabolic_power", float(-alpha))
    return Weight(f)


def _dual_field(weight, p):
    """The field w^{-1/(p-1)} with exact singular-cell masses when the
    closed form of w is known; pointwise powers otherwise."""
    grid = weight.grid
    expo = -1.0 / (p - 1.0)
    cf = weight.field.meta.get("closed_form")
    if cf is not None and cf[0] == "radial_power":
        return power_weight(grid, cf[1] * expo).field
    if cf is not None and cf[0] == "parabolic_power":
        return parabolic_power_weight(grid, -cf[1] * expo).field
    with np.errstate(divide="ignore", over="ignore"):
        vals = weight.field.values ** expo
    return Field(grid, np.where(np.isfinite(vals), vals, np.inf), weight.field.singular)


def _cube_family(structure, grid, family):
    if family is None:
        family = BallFamily.for_structure(structure, grid, shape="cube",
                                          rho_max=2.0 * min(grid.half_extent))
    return family


def _cube_field(values):
    """What the cube means of one array share across radii: the array with
    its non-finite values zeroed, the float mask of those (None when there
    are none), and a _Forward holder for each, which keeps its summed-area
    table."""
    inf_mask = ~np.isfinite(values)
    marks = inf_mask.astype(float) if inf_mask.any() else None
    return np.where(inf_mask, 0.0, values), marks, _Forward(), _Forward()


def _cube_means(cube_field, box):
    """Means over the 'box' member anchored at every cell of the array that
    _cube_field prepared, boxes clipped to the domain; inf where the box
    holds a non-finite value."""
    zeroed, marks, forward, marks_forward = cube_field
    avg, _ = _member_means(zeroed, None, box, forward)
    if marks is not None:
        hit = _correlate(marks, box, marks_forward) > 0.5
        avg = np.where(hit, np.inf, avg)
    return avg


def _running_min(values, size):
    """min of values over the box of size[i] cells centred at every cell
    (start size[i] // 2 cells before it), the box clipped to the domain:
    scipy.ndimage.minimum_filter with mode='nearest'.  Separable; along each
    axis the edge-padded values are reduced by shifted np.minimum passes
    whose window doubles until it spans size[i] cells."""
    out = values
    for ax, w in enumerate(size):
        lead, n, lo = (slice(None),) * ax, out.shape[ax], w // 2
        run = np.empty(out.shape[:ax] + (n + w - 1,) + out.shape[ax + 1:])
        run[lead + (slice(lo, lo + n),)] = out
        run[lead + (slice(None, lo),)] = out[lead + (slice(None, 1),)]
        run[lead + (slice(lo + n, None),)] = out[lead + (slice(n - 1, None),)]
        width = 1  # run[..., j, ...] = min of the padded axis over [j, j + width)
        while width < w:
            step = min(width, w - width)
            run = np.minimum(run[lead + (slice(None, -step),)], run[lead + (slice(step, None),)])
            width += step
        out = run
    return out


def ap_constant(weight, p, structure, family=None, return_argmax=False):
    """sup over family cubes of w_Q ((w^{-1/(p-1)})_Q)^{p-1} (p > 1), or of
    w_Q / essinf_Q w (p = 1).  A certified lower bound of [w]_{A_p}.
    """
    grid = weight.grid
    if p < 1:
        raise ValueError("p must be >= 1")
    family = _cube_family(structure, grid, family)
    wv = weight.field.values
    w_cube = _cube_field(wv)
    if p > 1:
        dual_cube = _cube_field(_dual_field(weight, p).values)
    else:
        capped = np.where(np.isfinite(wv), wv, np.finfo(float).max)
    best = 1.0
    arg = last = None
    for rho in family.radii:
        box = member_offsets(grid, structure, rho, "box")
        if box == last:  # an equal box gives an equal sup
            continue
        last = box
        w_q = _cube_means(w_cube, box)
        if p == 1:
            ess = _running_min(capped, box.mask.shape)
            with np.errstate(invalid="ignore", divide="ignore"):
                prod = np.where(ess > 0, w_q / ess, np.inf)
        else:
            d_q = _cube_means(dual_cube, box)
            prod = w_q * d_q ** (p - 1.0)
        m = float(np.nanmax(prod))
        if m > best:
            best = m
            arg = (rho, np.unravel_index(int(np.nanargmax(prod)), grid.cells))
    if return_argmax:
        return best, arg
    return best


def a1_constant(field, structure, family=None):
    return ap_constant(Weight(field), 1.0, structure, family)


def ainf_profile(weight, p, structure, family=None, seed=0):
    """Fit (beta, N) with w(S)/w(Q) <= N (|S|/|Q|)^beta over 400 random
    S inside Q pairs; all sampled pairs satisfy the returned bound.
    Also returns the worst violation margin of the lower-bound direction
    [w]_{A_p} w(S)/w(Q) >= (|S|/|Q|)^p.
    """
    grid = weight.grid
    rng = np.random.default_rng(seed)
    wv = weight.field.values
    wfin = np.where(np.isfinite(wv), wv, 0.0)
    ratios = []
    apw = ap_constant(weight, p, structure, family)
    lower_margin = math.inf
    for _ in range(400):
        # random cube Q and random sub-box S
        k = structure.anisotropy
        l = math.exp(rng.uniform(math.log(4 * max(grid.h)), math.log(min(grid.half_extent))))
        center = [rng.uniform(-L / 2, L / 2) for L in grid.half_extent]
        sl_q = []
        ok = True
        for i in range(grid.dim):
            half = l ** k[i] / 2.0
            lo = center[i] - half
            hi = center[i] + half
            i0 = max(0, int((lo + grid.half_extent[i]) / grid.h[i]))
            i1 = min(grid.cells[i], int(np.ceil((hi + grid.half_extent[i]) / grid.h[i])))
            if i1 - i0 < 2:
                ok = False
                break
            sl_q.append((i0, i1))
        if not ok:
            continue
        sl_s = []
        for (i0, i1) in sl_q:
            n = i1 - i0
            m = rng.integers(1, n + 1)
            st = rng.integers(i0, i1 - m + 1)
            sl_s.append((int(st), int(st + m)))
        q_idx = tuple(slice(a, b) for a, b in sl_q)
        s_idx = tuple(slice(a, b) for a, b in sl_s)
        w_q, w_s = float(wfin[q_idx].sum()), float(wfin[s_idx].sum())
        if w_q <= 0:
            continue
        # |S| / |Q| by cell counts, both positive
        x = math.prod(b - a for a, b in sl_s) / math.prod(b - a for a, b in sl_q)
        y = w_s / w_q
        ratios.append((x, y))
        lower_margin = min(lower_margin, apw * y / x ** p)
    xs = np.array([r[0] for r in ratios])
    ys = np.array([r[1] for r in ratios])
    keep = (xs > 0) & (xs < 1) & (ys > 0)
    xs, ys = xs[keep], ys[keep]
    # largest beta whose uniform constant over all sampled pairs stays moderate
    beta = 0.0
    for b in np.linspace(0.05, 1.0, 96):
        n_req = float(np.max(ys / xs ** b))
        if n_req <= 4.0:
            beta = float(b)
    n_fit = float(np.max(ys / xs ** beta)) if beta > 0 else float(np.max(ys / xs))
    return float(beta), float(n_fit), float(lower_margin)


def reverse_holder(weight, p, structure, family=None, eps_grid=None):
    """Largest eps on a search grid with a finite uniform constant N in
    (w^{1+eps})_Q <= N (w_Q)^{1+eps} over the family; returns (eps, N)."""
    grid = weight.grid
    family = _cube_family(structure, grid, family)
    if eps_grid is None:
        eps_grid = [0.05 * 2 ** j for j in range(7)]  # 0.05 .. 3.2
    cf = weight.field.meta.get("closed_form")
    w_cube = _cube_field(weight.field.values)
    w_q = {}  # cube means of w, by box: the same for every eps
    best = (0.0, 1.0)
    for eps in eps_grid:
        if cf is not None and cf[0] == "radial_power":
            wpow = power_weight(grid, cf[1] * (1 + eps)).field
        else:
            with np.errstate(over="ignore"):
                wpow = Field(grid, np.where(
                    np.isfinite(weight.field.values),
                    weight.field.values ** (1 + eps), np.inf))
        wpow_cube = _cube_field(wpow.values)
        sup = 1.0
        finite = True
        last = None
        for rho in family.radii:
            box = member_offsets(grid, structure, rho, "box")
            if box == last:  # an equal box gives an equal ratio
                continue
            last = box
            lhs = _cube_means(wpow_cube, box)
            if box not in w_q:
                w_q[box] = _cube_means(w_cube, box)
            rhs = w_q[box] ** (1 + eps)
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = np.where(rhs > 0, lhs / rhs, np.inf)
            m = float(np.nanmax(ratio))
            if not math.isfinite(m):
                finite = False
                break
            sup = max(sup, m)
        if finite:
            best = (eps, sup)
        else:
            break
    return best


def self_improve(weight, p, structure, family=None):
    """q < p with finite A_q estimate, via reverse Holder applied to
    w^{-1/(p-1)} exactly as in the self-improvement proof:
    (1 + eps)/(p - 1) = 1/(q - 1)."""
    if p <= 1:
        raise ValueError("self improvement needs p > 1")
    dual = Weight(_dual_field(weight, p))
    eps, _ = reverse_holder(dual, p / (p - 1.0), structure, family)
    if eps == 0.0:
        import warnings

        warnings.warn("no reverse-Holder gain found; returning q = p")
        return p, ap_constant(weight, p, structure, family)
    q = 1.0 + (p - 1.0) / (1.0 + eps)
    return q, ap_constant(weight, q, structure, family)


def _estimate_op_norm(op, shape, norm, seed):
    """Six power iterations on random nonnegative inputs, inflated by 1.2
    for safety."""
    rng = np.random.default_rng(seed)
    u = rng.random(shape) + 0.1
    est = 1.0
    for _ in range(6):
        nu = norm(u)
        if nu == 0:
            break
        u = u / nu
        u = op(u)
        est = norm(u)
    return max(est, 1.0) * 1.2


def _rdf_series(op, start, exponent, weight, seed):
    """sum_{n < 24} op^n(start) / (2 ||op||)^n with ||op|| estimated in
    L_exponent(w).

    Raises RdfDivergence once a partial sum exceeds 4 ||start||.
    Returns (sum, op_norm_estimate).
    """

    def pnorm(u):
        return lp_norm(Field(weight.grid, u), exponent, weight=weight.field)

    op_norm = _estimate_op_norm(op, start.shape, pnorm, seed)
    term = start
    v = term.copy()
    nf = pnorm(term)
    for _ in range(1, 24):
        term = op(term) / (2.0 * op_norm)
        v = v + term
        if pnorm(v) > 4.0 * nf:
            raise RdfDivergence(op_norm)
    return v, op_norm


def rdf_iterate(f, weight, p_prime, structure, family=None, seed=0):
    """Rubio de Francia majorant v = sum_n T^n f / (2^n ||T||^n) with
    T u = w^{-1} M(u w); guarantees f <= v, ||v|| <= 2 ||f||, and
    M(v w) <= 2 ||T|| v w pointwise up to family slack.

    Returns (v, op_norm_estimate).
    """
    grid = f.grid
    wv = weight.field.values
    if family is None:
        family = BallFamily.for_structure(structure, grid, shape="cube", density=6.0)

    def T(u):
        return classical_maximal(Field(grid, np.abs(u) * wv), structure, 0.0, family).values / wv

    v, t_norm = _rdf_series(T, np.abs(f.values).astype(float), p_prime, weight, seed)
    return Field(grid, v), t_norm


def jones_factorize(weight, p, structure, family=None, seed=0):
    """Jones factorization w = w1^{1-p} w2 with both factors A_1.

    Runs the fixed-point construction with S the sum of the two sublinear
    pieces; returns (w1, w2, S_norm_estimate).
    """
    if not 1.0 < p <= 2.0:
        raise ValueError("factorization implemented for p in (1, 2]")
    grid = weight.grid
    wv = weight.field.values
    if family is None:
        family = BallFamily.for_structure(structure, grid, shape="cube", density=6.0)

    def S(u):
        t1 = classical_maximal(Field(grid, np.abs(u) * wv), structure, 0.0, family).values / wv
        t2 = classical_maximal(Field(grid, np.abs(u) ** (1 / (p - 1))), structure, 0.0,
                               family).values ** (p - 1)
        return t1 + t2

    v, s_norm = _rdf_series(S, np.ones(grid.cells), p / (p - 1.0), weight, seed)
    w2 = Field(grid, v * wv)
    w1 = Field(grid, v ** (1.0 / (p - 1.0)))
    return w1, w2, s_norm

