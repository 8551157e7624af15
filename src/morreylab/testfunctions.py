"""Canonical test-function library.

Each entry returns sampled fields plus closed-form companion data (exact
derivatives, residuals, singular features) so checks can evaluate
derivative-sensitive quantities without numerical differentiation where a
closed form exists.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Field, RadialPower, ShellPower, SubspacePower, singular_field
from .weights import parabolic_power_weight, power_weight

__all__ = ["test_function", "TEST_FUNCTION_IDS"]


def _power(grid, gamma, amp=1.0):
    """|x|^{-gamma}: the field of power_weight(grid, -gamma), whose singular
    cell holds the exact ball-rule average and which keeps its closed form;
    amp times that field otherwise."""
    f = power_weight(grid, -gamma).field
    return f if amp == 1.0 else amp * f


def _gaussian(grid, sigma=1.0, center=None, amp=1.0):
    r = grid.radius(center)
    f = Field(grid, amp * np.exp(-(r ** 2) / (2.0 * sigma ** 2)))
    f.meta["closed_form"] = ("gaussian", sigma)
    return f


def _bump(grid, radius=1.0, center=None, amp=1.0):
    r = grid.radius(center) / radius
    vals = np.zeros(grid.cells)
    inside = r < 1.0
    vals[inside] = amp * np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return Field(grid, vals)


def _random_band(grid, kmax=4, seed=0, mean_zero=True):
    """Random band-limited field on the periodic torus over the grid box."""
    rng = np.random.default_rng(seed)
    spec = np.zeros(grid.cells, dtype=complex)
    freqs = [np.fft.fftfreq(n, d=1.0 / n) for n in grid.cells]
    mesh = np.meshgrid(*freqs, indexing="ij", sparse=True)
    band = np.ones(grid.cells, dtype=bool)
    for m in mesh:
        band &= np.abs(m) <= kmax
    idx = np.argwhere(band)
    amps = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    spec[tuple(idx.T)] = amps
    if mean_zero:
        spec[(0,) * grid.dim] = 0.0
    vals = np.fft.ifftn(spec).real
    vals /= max(np.abs(vals).max(), 1e-300)
    return Field(grid, vals)


# -- cz_bump: the disjoint-support construction showing E_{p,1} membership
#    without any L_q control, q > p -------------------------------------------


def _cz_bump(grid, p=None):
    """Sum of scaled copies of |x|^{-1} 1_{|x|<1} with disjoint supports.

    Radii r_n satisfy r_n^{d-p} = c / (n log^2(n+1)) normalized so that
    sum r_n^{d-p} = 1/2, truncated at r_n < 2h; centers march along e_1.
    """
    d = grid.dim
    if p is None:
        p = d - 0.5
    if not (d - 1 <= p < d):
        raise ValueError("need p in [d-1, d)")
    weights = np.array([1.0 / (n * math.log(n + 1) ** 2) for n in range(1, 4000)])
    c = 0.5 / weights.sum()
    rho = c * weights  # rho_n = r_n^{d-p}
    r = rho ** (1.0 / (d - p))
    hmax = max(grid.h)
    keep = r >= 2.0 * hmax
    r, rho = r[keep], rho[keep]
    vals = np.zeros(grid.cells)
    sing = []
    x0 = 1.0
    xs = grid.mesh()
    for rn, rhon in zip(r, rho):
        xn = x0 - 2.0 * rhon
        cn = 0.5 * (xn + x0)
        x0 = xn
        center = [cn] + [0.0] * (d - 1)
        rr = np.sqrt(sum((xs[i] - center[i]) ** 2 for i in range(d)))
        with np.errstate(divide="ignore"):
            local = np.where((rr < rn) & (rr > 0), 1.0 / rr, 0.0)
        vals += local
        sing.append(RadialPower(center, 1.0))
    return singular_field(grid, vals, sing), r


# -- kappa_ridge: the profile refuting the eps-absorption inequality ---------


def _smooth_window(t, a, b, c, e):
    """C^inf window: 0 on (-inf,a], 1 on [b,c], 0 on [e,inf)."""

    def rise(s):
        # smooth 0 -> 1 on [0, 1]
        s = np.clip(s, 0.0, 1.0)
        out = np.zeros_like(s)
        mid = (s > 0) & (s < 1)
        es = np.exp(-1.0 / np.maximum(s[mid], 1e-300))
        ees = np.exp(-1.0 / np.maximum(1 - s[mid], 1e-300))
        out[mid] = es / (es + ees)
        out[s >= 1] = 1.0
        return out

    return rise((t - a) / (b - a)) * rise((e - t) / (e - c))


def _kappa_ridge(grid, kappa, beta, h_deriv=1e-5):
    """u_k(x) = f(|x|/kappa), f = t^{2-beta} on [2,3], smooth, 0 outside (1,4).

    Returns (u, |b Du|, |D^2 u|) with b = |x|^{-1}, all sampled from closed
    forms (f', f'' by second-order central differences of the analytic f,
    which is smooth; the result carries no grid differentiation error).
    Each is evaluated one slab along axis 0 at a time, straight into its
    output, so the peak holds the three outputs and one slab's temporaries.
    """

    def f(t):
        return t ** (2.0 - beta) * _smooth_window(t, 1.0, 2.0, 3.0, 4.0)

    d = grid.dim
    # |D^2 u| takes over the buffer of r: each slab of r is read before its
    # slab of |D^2 u| is written
    r = d2 = grid.radius()
    u, b_du = np.empty_like(r), np.empty_like(r)
    for i in range(grid.cells[0]):
        ri = r[i]
        t = ri / kappa
        # f at the three points of the differences, each evaluated once
        ui, up, um = f(t), f(t + h_deriv), f(t - h_deriv)
        fpv = (up - um) / (2 * h_deriv)
        fppv = (up - 2 * ui + um) / h_deriv ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            b_du[i] = np.where(ri > 0, np.abs(fpv) / (kappa * ri), 0.0)
            radial = np.where(ri > 0, fpv / (kappa * ri), 0.0)
        u[i] = ui
        d2[i] = np.sqrt((fppv / kappa ** 2) ** 2 + (d - 1) * radial ** 2)
    return Field(grid, u), Field(grid, b_du), Field(grid, d2)


# -- exp_drift_pair: the Remark showing the a-priori bound fails --------------


def _exp_drift_pair(grid, lam=1.0):
    """(u, |b|, residual) for b = -(d-1) x / |x|^2, u = exp(-sqrt(lam) |x|).

    The operator Delta u + b . Du - lam u annihilates u away from the
    origin; the residual field is assembled from the closed-form pieces, so
    it vanishes identically up to floating-point roundoff.
    """
    d = grid.dim
    mu = math.sqrt(lam)
    r = grid.radius()
    u = np.exp(-mu * r)
    with np.errstate(divide="ignore", invalid="ignore"):
        lap = (mu ** 2 - (d - 1) * mu / np.where(r > 0, r, np.inf)) * u
        b_du = (d - 1) * mu * u / np.where(r > 0, r, np.inf)
        b_mag = (d - 1) / np.where(r > 0, r, np.inf)
    resid = lap + b_du - lam * u
    bfield = singular_field(grid, b_mag, [RadialPower((0.0,) * d, 1.0, d - 1)])
    resid[~np.isfinite(resid)] = 0.0
    return Field(grid, u), bfield, Field(grid, resid)


# -- parab_sing: (|x| + sqrt|t|)^{-1} on the unit cylinder --------------------


def _parab_sing(grid):
    """The field of parabolic_power_weight(grid, 1.0), with its exact
    corner-cell masses, cut to |t| <= 1, |x| <= 1."""
    w = parabolic_power_weight(grid, 1.0).field
    xs = grid.mesh()
    rr = np.sqrt(sum(m ** 2 for m in xs[1:])) if grid.dim > 1 else 0.0
    box = (np.abs(xs[0]) <= 1.0) & (rr <= 1.0)
    return Field(grid, np.where(box, w.values, 0.0), w.singular)


# -- lqp_vs_lpq: finite reversed-order norm, divergent standard order --------


def _lqp_vs_lpq(grid, p0):
    """f = 1_{t>0} |x|^{-1} |sqrt(t)/|x| - 1|^{-1/p0} on a (t, x) grid, d>=2.

    The x-integral of f^{p0} at fixed t diverges logarithmically on the
    moving sphere |x| = sqrt t; the shell cells carry the exact transverse
    masses (infinite at exponent p0, finite below).
    """
    if grid.dim < 3:
        raise ValueError("need d >= 2 space dimensions (grid dim >= 3)")
    xs = grid.mesh()
    t = xs[0]
    rr = np.sqrt(sum(m ** 2 for m in xs[1:]))
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = np.abs(np.sqrt(np.maximum(t, 0.0)) / np.where(rr > 0, rr, np.inf) - 1.0)
        vals = np.where(
            (t > 0) & (rr > 0) & (dist > 0),
            rr ** -1.0 * dist ** (-1.0 / p0),
            0.0,
        )
    vals[~np.isfinite(vals)] = 0.0
    hx = grid.h[1]

    def shell_mask(g):
        xs2 = g.mesh()
        t2 = xs2[0]
        rr2 = np.sqrt(sum(m ** 2 for m in xs2[1:]))
        return (t2 > 0) & (np.abs(rr2 - np.sqrt(np.maximum(t2, 0.0))) < hx / 2.0)

    mask = shell_mask(grid)
    with np.errstate(divide="ignore"):
        amp = np.where(rr > 0, rr ** (-1.0 + 1.0 / p0), 0.0)
    feat = ShellPower(shell_mask, 1.0 / p0, amp_field=amp, transverse_h=hx)
    vals[mask] = 0.0  # the mass lives in the feature, not the samples
    return Field(grid, vals, [feat])


def _cylinder_slab(grid, d_prime=2):
    """|x'|^{-1} with x' the first d' coordinates; singular on a subspace."""
    xs = grid.mesh()
    rp = np.sqrt(sum(xs[i] ** 2 for i in range(d_prime)))
    with np.errstate(divide="ignore"):
        vals = np.where(rp > 0, 1.0 / rp, np.inf)
    return singular_field(grid, vals, [SubspacePower(tuple(range(d_prime)), 1.0)])


def _mollified_power(grid, gamma, eps):
    """|x|^{-gamma} smoothed at scale eps: (|x|^2 + eps^2)^{-gamma/2}."""
    r = grid.radius()
    return Field(grid, (r ** 2 + eps ** 2) ** (-gamma / 2.0))


_TABLE = {
    "power": _power,
    "gaussian": _gaussian,
    "bump": _bump,
    "random_band": _random_band,
    "cz_bump": _cz_bump,
    "kappa_ridge": _kappa_ridge,
    "exp_drift_pair": _exp_drift_pair,
    "parab_sing": _parab_sing,
    "lqp_vs_lpq": _lqp_vs_lpq,
    "cylinder_slab": _cylinder_slab,
    "mollified_power": _mollified_power,
}
TEST_FUNCTION_IDS = tuple(_TABLE)


def test_function(name, grid, **params):
    """Dispatch into the library; unknown ids raise ValueError."""
    if name not in _TABLE:
        raise ValueError(f"unknown test function {name!r}; known: {TEST_FUNCTION_IDS}")
    return _TABLE[name](grid, **params)
