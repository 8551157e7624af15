"""Closed-form kernels and potential operators: Riesz, Newtonian, elliptic
resolvent, heat kernel and resolvent, generalized parabolic kernels
p_{alpha,k} / P_{alpha,k} with conjugates, and the a(t) kernel machinery.

Spatially translation-invariant kernels are applied by zero-padded FFT
convolution (linear, non-circular) so potentials on R^d do not wrap; a
periodic mode exists for solver cross-checks.  Time-ordered kernels (heat
resolvent, a(t) kernel) integrate exactly over time slabs per spatial mode.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Field, _ball_rule_mass, _wavenumbers, unit_sphere_area
from .maximal import _circular_correlate, _fft_correlate, _flip, _Slabs

__all__ = [
    "KernelSpec",
    "newtonian_constant",
    "riesz_kernel_array",
    "elliptic_resolvent_kernel",
    "parabolic_kernel_array",
    "apply_kernel",
    "apply_parabolic",
    "apply_parabolic_conjugate",
    "heat_resolvent_modewise",
    "sigma",
    "at_kernel_array",
    "kernel_decay_check",
]


@dataclass
class KernelSpec:
    """Which kernel plus its parameters and the truncation policy."""

    kind: str  # riesz | newtonian | elliptic_resolvent | heat_resolvent
    #          | parabolic | parabolic_conjugate | at_kernel
    alpha: float = None
    k: float = 4.0
    lam: float = 0.0
    a_of_t: np.ndarray = None  # (nt, d, d) path for at_kernel
    policy: str = "linear"  # linear (zero-padded) | periodic

    def __post_init__(self):
        kinds = ("riesz", "newtonian", "elliptic_resolvent", "heat_resolvent",
                 "parabolic", "parabolic_conjugate", "at_kernel")
        if self.kind not in kinds:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "riesz" and self.alpha is not None and self.alpha <= 0:
            raise ValueError("riesz needs 0 < alpha < d")


def newtonian_constant(d):
    """c_d with u = c_d |x|^{2-d} * f solving -Delta u = f (d >= 3)."""
    return math.gamma(d / 2.0 - 1.0) / (4.0 * math.pi ** (d / 2.0))


def _offset_mesh(grid):
    offs = [
        (np.arange(-(n - 1), n)) * h for n, h in zip(grid.cells, grid.h)
    ]
    return np.meshgrid(*offs, indexing="ij", sparse=True)


def _radial_kernel(grid, profile, self_avg):
    """profile(|x|) on the (2n-1)^d offset grid, as _Slabs along axis 0:
    each slab is evaluated when it is read.  The origin and every
    non-finite value get self_avg."""
    first, *rest = _offset_mesh(grid)
    origin = tuple(n - 1 for n in grid.cells)

    def slab(i):
        # slab i keeps its axis of length one, so that a 1-D kernel is
        # evaluated as an array, not as a scalar
        r = np.sqrt(sum(m ** 2 for m in [first[i:i + 1]] + rest))
        with np.errstate(divide="ignore", invalid="ignore"):
            ker = profile(r)
        if i == origin[0]:
            ker[(0,) + origin[1:]] = self_avg
        ker[~np.isfinite(ker)] = self_avg
        return ker[0]

    return _Slabs(tuple(2 * n - 1 for n in grid.cells), slab)


def _riesz_kernel(grid, alpha):
    d = grid.dim
    if not 0 < alpha < d:
        raise ValueError("need 0 < alpha < d")
    avg = _ball_rule_mass(1.0, grid.cell_volume, d, d - alpha, mean=True)
    return _radial_kernel(grid, lambda r: r ** (alpha - d), avg)


def riesz_kernel_array(grid, alpha):
    """|x|^{alpha-d} on the offset grid (bare kernel, no constant): the stack
    of the slabs that apply_kernel transforms."""
    return _riesz_kernel(grid, alpha).array()


def _newtonian_kernel(grid):
    d = grid.dim
    if d < 3:
        raise ValueError("newtonian kernel needs d >= 3")
    c = newtonian_constant(d)
    avg = _ball_rule_mass(c, grid.cell_volume, d, d - 2, mean=True)
    return _radial_kernel(grid, lambda r: c * r ** (2.0 - d), avg)


def newtonian_kernel_array(grid):
    """c_d |x|^{2-d} on the offset grid: the stack of the slabs that
    apply_kernel transforms."""
    return _newtonian_kernel(grid).array()


def elliptic_resolvent_kernel(grid, lam):
    """G_lam(x) = integral_0^inf (4 pi t)^{-d/2} exp(-|x|^2/4t - lam t) dt.

    Closed form (2 pi)^{-d/2} (sqrt(lam)/|x|)^{d/2-1} K_{d/2-1}(sqrt(lam)|x|);
    decays exponentially.  Self cell via fine radial quadrature.  The stack
    of the slabs that apply_kernel transforms.
    """
    return _elliptic_resolvent_kernel(grid, lam).array()


def _elliptic_resolvent_kernel(grid, lam):
    from scipy.special import kv as _besselk  # the only scipy use of the package

    if lam <= 0:
        raise ValueError("need lam > 0")
    d = grid.dim
    ml = math.sqrt(lam)
    nu = d / 2.0 - 1.0

    def profile(r):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = (2 * math.pi) ** (-d / 2.0) * (ml / r) ** nu * _besselk(nu, ml * r)
        return out

    s = unit_sphere_area(d)
    vol = grid.cell_volume
    r_eq = (vol * d / s) ** (1.0 / d)
    rr = (np.arange(4000) + 0.5) * (r_eq / 4000)
    avg = float((profile(rr) * s * rr ** (d - 1)).sum() * (r_eq / 4000) / vol)
    return _radial_kernel(grid, profile, avg)


def parabolic_kernel_array(grid, alpha, k):
    """p_{alpha,k}(s, |x|) on the (t, x) offset grid; axis 0 is t, s > 0 only.

    The first slab's mass is normalized to the exact closed form
    integral_0^{ht} s^{(alpha-2)/2} (pi k s)^{d/2} ds (alpha > 0).
    """
    d = grid.dim - 1
    ht = grid.h[0]
    nt = grid.cells[0]
    offs_t = (np.arange(nt) + 0.5) * ht  # s > 0 half, slab centers
    mesh_x = np.meshgrid(
        *[(np.arange(-(n - 1), n)) * h for n, h in zip(grid.cells[1:], grid.h[1:])],
        indexing="ij", sparse=True,
    )
    r2 = sum(m ** 2 for m in mesh_x) if mesh_x else np.zeros(())
    s = offs_t.reshape((-1,) + (1,) * d)
    ker = s ** (-(d + 2 - alpha) / 2.0) * np.exp(-r2 / (k * s))
    if alpha > 0:
        volx = 1.0
        for h in grid.h[1:]:
            volx *= h
        mass0 = float(ker[0].sum()) * volx * ht
        exact0 = (math.pi * k) ** (d / 2.0) * (2.0 / alpha) * ht ** (alpha / 2.0)
        if mass0 > 0:
            ker[0] *= exact0 / (mass0)
    return ker


def _linear_convolve(values, ker):
    """out(c) = sum_j ker[j] values(c - j + n - 1), zero outside the domain:
    the linear convolution with a kernel (an array or _Slabs) whose index j
    holds the offset j - (n - 1) on each axis (ker.shape = m, offsets
    -(n - 1) .. m - n)."""
    return _fft_correlate(values, _flip(ker), [m - n for m, n in zip(ker.shape, values.shape)])


def _support_margin_warning(field, policy):
    if policy != "linear":
        return
    v = field.values
    edge = 0.0
    for ax in range(v.ndim):
        sl0 = [slice(None)] * v.ndim
        sl0[ax] = 0
        sl1 = [slice(None)] * v.ndim
        sl1[ax] = -1
        edge = max(edge, float(np.abs(v[tuple(sl0)]).max()),
                   float(np.abs(v[tuple(sl1)]).max()))
    peak = float(np.abs(v).max())
    if peak > 0 and edge > 1e-8 * peak:
        warnings.warn(
            f"source support reaches the boundary (edge/peak = {edge / peak:.2e}); "
            "estimated tail error of the same order", stacklevel=3
        )


def apply_kernel(field, spec):
    """Discrete convolution with the requested kernel.

    Translation-invariant kinds use zero-padded FFT (linear); heat_resolvent
    and at_kernel run the time-ordered mode-wise quadrature (periodic in x).
    """
    grid = field.grid
    if spec.kind in ("heat_resolvent", "at_kernel"):
        u, _ = heat_resolvent_modewise(field, spec.lam, a_of_t=spec.a_of_t)
        return u
    if spec.kind in ("parabolic", "parabolic_conjugate"):
        if spec.kind == "parabolic":
            return apply_parabolic(field, spec.alpha, spec.k)
        return apply_parabolic_conjugate(field, spec.alpha, spec.k)
    _support_margin_warning(field, spec.policy)
    if spec.kind == "riesz":
        ker = _riesz_kernel(grid, spec.alpha)
    elif spec.kind == "newtonian":
        ker = _newtonian_kernel(grid)
    elif spec.kind == "elliptic_resolvent":
        ker = _elliptic_resolvent_kernel(grid, spec.lam)
    else:
        raise AssertionError
    if spec.policy == "periodic":
        # ker holds the offsets -(n - 1) .. n - 1, centred at index n - 1
        return Field(grid, _circular_correlate(field.values, np.flip(ker.array()))
                     * grid.cell_volume)
    return Field(grid, _linear_convolve(field.values, ker) * grid.cell_volume)


def apply_parabolic(field, alpha, k):
    """P_{alpha,k} f(t,x) = int p_{alpha,k}(s-t, |y-x|) f(s,y): future-ordered."""
    grid = field.grid
    ker = parabolic_kernel_array(grid, alpha, k)
    # correlate in t (kernel looks forward), convolve in x; the first t row
    # of ker is the s - t = +ht/2 slab
    out = _linear_convolve(field.values, ker[::-1]) * grid.cell_volume
    return Field(grid, out)


def apply_parabolic_conjugate(field, alpha, k):
    """P*_{alpha,k} g(s,x) = (P_{alpha,k} g(-., -.))(-s, -x)."""
    grid = field.grid
    flipped = Field(grid, field.values[tuple(slice(None, None, -1)
                                             for _ in grid.cells)].copy())
    out = apply_parabolic(flipped, alpha, k)
    return Field(grid, out.values[tuple(slice(None, None, -1) for _ in grid.cells)].copy())


def heat_resolvent_modewise(field, lam, a_of_t=None, delta=None):
    """u = R_lam f by exact per-slab exponential integration per x-mode.

    f is treated as piecewise constant on time slabs; the returned (u, ut)
    solve  du/dt = (lam + q(t, xi)) u - f  exactly at slab centers, where
    q = |xi|^2 for the heat kernel or (a(t) xi, xi) for a coefficient path.
    Causality is exact: u vanishes at and after the last slab where f does.
    """
    grid = field.grid
    nt = grid.cells[0]
    ht = grid.h[0]
    kx = _wavenumbers(grid, range(1, grid.dim))
    ksq = sum(k ** 2 for k in kx)
    fh = np.fft.fftn(field.values, axes=tuple(range(1, grid.dim)))
    if a_of_t is None:
        q = np.broadcast_to(ksq, (nt,) + ksq.shape)
    else:
        a = np.asarray(a_of_t, dtype=float)
        if a.shape[0] != nt:
            raise ValueError("a_of_t must have one matrix per time slab")
        if delta is not None:
            _check_sdelta(a, delta)
        d = grid.dim - 1
        q = np.zeros((nt,) + ksq.shape)
        for i in range(d):
            for j in range(d):
                q += a[:, i, j].reshape((-1,) + (1,) * d) * kx[i] * kx[j]
    kap = lam + q
    uh = np.zeros_like(fh)
    v_next = np.zeros_like(fh[0])  # exact solution value at slab left edges
    for i in range(nt - 1, -1, -1):
        k_i = kap[i]
        with np.errstate(invalid="ignore", divide="ignore"):
            w_half = np.where(k_i != 0, -np.expm1(-k_i * ht / 2.0) / k_i, ht / 2.0)
            w_full = np.where(k_i != 0, -np.expm1(-k_i * ht) / k_i, ht)
        uh[i] = fh[i] * w_half + np.exp(-k_i * ht / 2.0) * v_next
        v_next = fh[i] * w_full + np.exp(-k_i * ht) * v_next
    u = np.fft.ifftn(uh, axes=tuple(range(1, grid.dim))).real
    uth = kap * uh - fh
    ut = np.fft.ifftn(uth, axes=tuple(range(1, grid.dim))).real
    return Field(grid, u), Field(grid, ut)


def _check_sdelta(a, delta):
    """ValueError naming the first slab of the path a (one matrix per slab)
    with an eigenvalue outside [delta, 1/delta]."""
    ev = np.linalg.eigvalsh(a)  # ascending per slab
    bad = (ev[:, 0] < delta - 1e-12) | (ev[:, -1] > 1.0 / delta + 1e-12)
    if bad.any():
        raise ValueError(
            f"coefficient path leaves S_delta (eigenvalues [{ev.min():.4g}, {ev.max():.4g}]) "
            f"first at slab {int(np.argmax(bad))}"
        )


def sigma(a_of_t, t, s, ht, delta=None):
    """sigma_{t,s} = ((s-t)^{-1} integral_t^s a dr)^{1/2}, symmetric PSD root.

    a_of_t holds one matrix per slab of width ht starting at r = 0; t < s.
    Eigenvalues are clamped at delta; clamping beyond 1e-12 relative errors.
    """
    a = np.asarray(a_of_t, dtype=float)
    nt = a.shape[0]
    if not t < s:
        raise ValueError("need t < s")
    lo_i = t / ht
    hi_i = s / ht
    acc = np.zeros_like(a[0])
    i0 = int(math.floor(lo_i))
    i1 = int(math.ceil(hi_i))
    for i in range(max(i0, 0), min(i1, nt)):
        a_lo = max(lo_i, i)
        a_hi = min(hi_i, i + 1)
        acc += a[i] * (a_hi - a_lo) * ht
    mean = acc / (s - t)
    w, v = np.linalg.eigh(mean)
    if delta is not None:
        if np.any(w < delta * (1 - 1e-12)):
            rel = float((delta - w.min()) / delta)
            if rel > 1e-12:
                raise ValueError(f"eigenvalue clamping of {rel:.3e} exceeds 1e-12")
        w = np.maximum(w, delta)
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)) @ v.T


def at_kernel_array(grid_x, a_of_t, t, s, ht, delta=None):
    """p(t, s, x) = p(s - t, sigma^{-1} x) det sigma^{-1} on the x grid."""
    sg = sigma(a_of_t, t, s, ht, delta)
    sg_inv = np.linalg.inv(sg)
    det = np.linalg.det(sg_inv)
    xs = grid_x.mesh()
    pts = np.stack([m.ravel() for m in xs], axis=0)
    y = sg_inv @ pts
    r2 = (y ** 2).sum(axis=0).reshape(grid_x.cells)
    d = grid_x.dim
    tt = s - t
    return (4.0 * math.pi * tt) ** (-d / 2.0) * np.exp(-r2 / (4.0 * tt)) * det


def kernel_decay_check(grid, alpha, k, seed=0):
    """Verify p_{alpha,k}(s,|x|) <= N rho(s,x)^{-(d+2-alpha)} at 2000 random
    points (alpha <= d+2) and return the fitted envelope constant."""
    d = grid.dim - 1
    if alpha > d + 2:
        raise ValueError("decay bound needs alpha <= d+2")
    rng = np.random.default_rng(seed)
    ts = rng.uniform(1e-6, grid.half_extent[0], 2000)
    xs = rng.uniform(-grid.half_extent[1], grid.half_extent[1], (2000, d))
    r = np.sqrt((xs ** 2).sum(axis=1))
    p = ts ** (-(d + 2 - alpha) / 2.0) * np.exp(-r ** 2 / (k * ts))
    rho = np.sqrt(ts) + r
    env = rho ** (-(d + 2 - alpha))
    ratio = p / env
    return float(ratio.max())
