"""Reference computations made apart from morreylab, with numpy only.

Each function restates a definition or a closed form directly, so the
benchmark can check the program's outputs without calling the code it
measures.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def ball_offsets(h, rho):
    """Integer cell offsets k with |k * h| < rho (a discrete ball member)."""
    half = [int(math.ceil(rho / hi)) + 1 for hi in h]
    out = []
    for k in itertools.product(*[range(-n, n + 1) for n in half]):
        if sum((ki * hi) ** 2 for ki, hi in zip(k, h)) < rho ** 2:
            out.append(k)
    return out


def _shifted_sum(arr, offsets):
    """out(c) = sum over offsets o with c + o inside the array of arr(c + o)."""
    out = np.zeros_like(arr, dtype=float)
    n = arr.shape
    for o in offsets:
        dst, src = [], []
        for oi, ni in zip(o, n):
            lo, hi = max(0, -oi), min(ni, ni - oi)
            dst.append(slice(lo, hi))
            src.append(slice(lo + oi, hi + oi))
        out[tuple(dst)] += arr[tuple(src)]
    return out


def ball_morrey_sup(values, h, p, beta, radii):
    """sup over radii and centre cells of rho^beta (mean over the clipped ball
    of |f|^p)^(1/p), by direct summation over every member cell."""
    powered = np.abs(values) ** p
    ones = np.ones_like(powered)
    best = 0.0
    for rho in radii:
        offs = ball_offsets(h, rho)
        mean = _shifted_sum(powered, offs) / _shifted_sum(ones, offs)
        best = max(best, rho ** beta * float(mean.max()) ** (1.0 / p))
    return best


def quadrant_mass(ht, hx, g):
    """int_0^ht int_0^hx (x + sqrt t)^(-g) dx dt in closed form, g < 3 and
    g not in {1, 2, 3}.

    With t = s^2 the x integral is elementary, and so are the remaining
    s integrals of s^(3-g-1) and of s (X + s)^(1-g).
    """
    if g in (1.0, 2.0) or g >= 3.0:
        raise ValueError("closed form written for g < 3, g != 1, 2")
    X, S = hx, math.sqrt(ht)
    a = ((X + S) ** (3.0 - g) - X ** (3.0 - g)) / (3.0 - g)
    b = X * ((X + S) ** (2.0 - g) - X ** (2.0 - g)) / (2.0 - g)
    c = S ** (3.0 - g) / (3.0 - g)
    return 2.0 / (1.0 - g) * (a - b - c)


def box_sums(values, boxes_per_axis):
    """Sum of values over each box of a regular partition into boxes."""
    shape = []
    for n, b in zip(values.shape, boxes_per_axis):
        shape.extend([b, n // b])
    return values.reshape(shape).sum(axis=tuple(range(1, 2 * values.ndim, 2)))


def power_weight_admissible(alpha, p, d):
    """|x|^alpha is in A_p (p > 1) on R^d iff -d < alpha < d (p - 1)."""
    return -d < alpha < d * (p - 1.0)


def reverse_holder_eps(alpha, d, eps_grid):
    """Largest eps of the search grid for which |x|^(alpha (1 + eps)) stays
    locally integrable, scanning in order and stopping at the first loss."""
    best = 0.0
    for eps in eps_grid:
        if alpha * (1.0 + eps) <= -d:
            break
        best = eps
    return best


def weighted_lp(values, weight, p, cell_volume):
    """(sum |v|^p w dx)^(1/p) for a weight with no singular cells."""
    return float((np.abs(values) ** p * weight).sum() * cell_volume) ** (1.0 / p)


def spectral_hessian(values, h):
    """All second derivatives of a periodic sample by exact Fourier
    differentiation: {(i, j): D_ij f}."""
    fh = np.fft.fftn(values)
    ks = [2.0 * np.pi * np.fft.fftfreq(n, d=hi) for n, hi in zip(values.shape, h)]
    mesh = np.meshgrid(*ks, indexing="ij")
    return {(i, j): np.fft.ifftn(-mesh[i] * mesh[j] * fh).real
            for i in range(values.ndim) for j in range(i, values.ndim)}
