"""Checks for the time-dependent-coefficient machinery: matrix inequalities,
energy identity, the averaged-coefficient kernel, the Fourier solver, its
oscillation estimate and the reversed-order mixed-norm bound."""

from __future__ import annotations

import math

import numpy as np

from ..grid import Field, _wavenumbers, make_grid
from ..norms import NormSpec
from ..potentials import at_kernel_array, sigma
from ..solvers import (
    OperatorSpec,
    _sdelta_from_draws,
    apply_operator,
    apriori_ratios,
    oscillation_estimate,
    random_sdelta,
    sdelta_brackets,
    solve_heat,
    spectral_derivative_fields,
)
from .common import (grid_label, mean_zero_source, parabolic_grid, parabolic_structure,
                     random_signed, refine, worst)
from .report import register


def _random_path(rng, nt, d, delta):
    return np.array([random_sdelta(rng, d, delta) for _ in range(nt)])


def _sdelta_pairs(rng, n, delta):
    """n stacked pairs (a, u): a built from its draws as random_sdelta builds
    it, u a symmetrised normal 3x3.  The draws are three stacked calls: the
    n normal 3x3 of a, its n eigenvalue triples, then the n normal 3x3 of u."""
    g = rng.normal(size=(n, 3, 3))
    ev = rng.uniform(delta, 1.0 / delta, size=(n, 3))
    u = rng.normal(size=(n, 3, 3))
    return _sdelta_from_draws(g, ev), 0.5 * (u + np.swapaxes(u, 1, 2))


@register("at-matrix", "ellipticity bracket inequalities for matrices with pinched spectra")
def check_at_matrix(cfg):
    rng = np.random.default_rng(cfg.seed)
    n_pairs = 3000

    def excesses():
        for delta in (0.2, 0.5, 0.9):
            a, u = _sdelta_pairs(rng, n_pairs, delta)
            br = sdelta_brackets(a, u)
            lower = delta ** 2 * (u ** 2).sum(axis=(1, 2))
            br_shift = sdelta_brackets(a - delta * np.eye(3), u)
            yield float((lower - br).max())
            yield float((-br_shift).max())
            yield float((br_shift - (1 - delta ** 2) ** 2 * br).max())

    return {
        "lhs": worst(excesses()), "rhs": 1.0, "bound": 1e-12, "bound_class": "paper",
        "slack": 0.0, "params": {"pairs": 3 * n_pairs},
    }


@register("at-energy", "energy identity with time-dependent coefficients against the ellipticity bound")
def check_at_energy(cfg):
    s = parabolic_structure(1)
    delta = 0.5
    g = parabolic_grid(cfg)
    rng = np.random.default_rng(cfg.seed)

    def ratios():
        for k in range(5):
            a_path = _random_path(rng, g.cells[0], 1, delta)
            u = random_signed(g, cfg.seed + k)
            _, d2, _, ut = spectral_derivative_fields(u, s)
            f = apply_operator(u, OperatorSpec("heat_at", lam=0.0, a_of_t=a_path, delta=delta), s)
            lhs = float((ut ** 2).sum()) + delta ** 2 * float((d2[0][0] ** 2).sum())
            yield lhs / (float((f.values ** 2).sum()) / delta ** 2)

    return {
        "lhs": worst(ratios()), "rhs": 1.0, "bound": 1.0, "bound_class": "paper",
        "slack": 0.01, "grid": grid_label(s, g), "params": {"delta": delta},
    }


@register("at-kernel", "averaged-coefficient kernel: unit mass, pinched square root, symbol derivative")
def check_at_kernel(cfg):
    rng = np.random.default_rng(cfg.seed)
    delta = 0.5
    nt, ht = 64, 1.0 / 64
    d = 2
    a_path = _random_path(rng, nt, d, delta)
    gx = make_grid(d, 10.0, cfg.cells(128))
    mass_errs, sg_margins, symbol_errs = [], [], []
    for (t, s_t) in ((0.1, 0.5), (0.2, 0.9), (0.0, 0.3)):
        ker = at_kernel_array(gx, a_path, t, s_t, ht, delta=delta)
        mass_errs.append(abs(float(ker.sum()) * gx.cell_volume - 1.0))
        ev = np.linalg.eigvalsh(sigma(a_path, t, s_t, ht, delta=delta))
        sg_margins.append(float(max(0.0, math.sqrt(delta) - ev.min())))
        # symbol derivative: d/ds exp(-(A_{t,s} xi, xi)) = -(a(s) xi, xi) *
        # the symbol; exact within a slab where a is constant
        xi = rng.normal(size=d)
        i_mid = int((s_t / ht)) - 2
        s_lo, s_hi = (i_mid) * ht, (i_mid + 1) * ht

        def a_quad(t0, t1):
            acc = np.zeros((d, d))
            i0, i1 = int(math.floor(t0 / ht)), int(math.ceil(t1 / ht))
            for i in range(max(i0, 0), min(i1, nt)):
                acc += a_path[i] * (min(t1, (i + 1) * ht) - max(t0, i * ht))
            return acc

        sym_lo = math.exp(-float(xi @ a_quad(t, s_lo) @ xi))
        sym_hi = math.exp(-float(xi @ a_quad(t, s_hi) @ xi))
        q_mid = float(xi @ a_path[i_mid] @ xi)
        # exact relation for piecewise-constant coefficients
        symbol_errs.append(abs(sym_hi - sym_lo * math.exp(-q_mid * ht)) / max(sym_hi, 1e-300))
    worst_mass, worst_sg, worst_symbol = worst(mass_errs), worst(sg_margins), worst(symbol_errs)
    return {
        "lhs": max(worst_mass / 1e-8, worst_sg / 1e-12, worst_symbol / 1e-12),
        "rhs": 1.0, "bound": 1.0, "bound_class": "paper",
        "slack": 0.0, "grid": grid_label(None, gx),
        "params": {"mass_err": worst_mass, "sigma_margin": worst_sg,
                   "symbol_err": worst_symbol},
    }


@register("at-solve", "Fourier solver agrees with independent quadrature; causality and reduction exact")
def check_at_solve(cfg):
    s = parabolic_structure(1)
    delta = 0.5
    g = parabolic_grid(cfg)
    rng = np.random.default_rng(cfg.seed)
    nt = g.cells[0]
    ht = g.h[0]
    a_path = _random_path(rng, nt, 1, delta)
    xs = g.mesh()
    f = Field(g, np.exp(-4.0 * xs[1] ** 2) * ((xs[0] > -0.6) & (xs[0] < 0.2)))
    lam = 2.0
    u, ut = solve_heat(f, lam, a_of_t=a_path, delta=delta)
    # causality: u vanishes where the source has already switched off
    tail = xs[0][:, 0] >= 0.2 + ht
    caus = float(np.abs(u.values[tail]).max()) / max(float(np.abs(u.values).max()), 1e-300)
    # independent quadrature of the explicit mode formula at sampled modes
    fh = np.fft.fft(f.values, axis=1)
    (ks,) = _wavenumbers(g, (1,))
    t0_axis = g.axis(0)
    quad_errs = []
    a_scalar = a_path[:, 0, 0]
    nodes, weights = np.polynomial.legendre.leggauss(20)

    def a_cumint(t_lo, t_hi):
        i0, i1 = (t_lo + g.half_extent[0]) / ht, (t_hi + g.half_extent[0]) / ht
        acc = 0.0
        for i in range(int(math.floor(i0)), min(int(math.ceil(i1)), nt)):
            acc += a_scalar[i] * (min(i1, i + 1) - max(i0, i)) * ht
        return acc

    for (i_t, i_k) in ((10, 3), (20, 7), (5, 1)):
        t_here = t0_axis[i_t]
        val = 0.0
        for j in range(i_t, nt):
            lo = max(t0_axis[j] - ht / 2, t_here)
            hi = t0_axis[j] + ht / 2
            # on time cell j the source mode is fh[j, i_k] and the exponent is
            # affine in t, so a 20-node Gauss-Legendre rule is exact to rounding
            tt = (lo + hi) / 2 + (hi - lo) / 2 * nodes
            expo = -lam * (tt - t_here) - ks[i_k] ** 2 * (a_cumint(t_here, lo)
                                                           + a_scalar[j] * (tt - lo))
            val += (hi - lo) / 2 * float(weights @ (fh[j, i_k] * np.exp(expo)).real)
        uh = np.fft.fft(u.values, axis=1)
        quad_errs.append(float(abs(val - uh[i_t, i_k].real) / max(abs(uh[i_t, i_k]), 1e-300)))
    worst_quad = worst(quad_errs)
    # identity coefficients reduce to the plain heat resolvent exactly
    a_id = np.repeat(np.eye(1)[None], nt, axis=0)
    u_id, _ = solve_heat(f, lam, a_of_t=a_id)
    u_heat, _ = solve_heat(f, lam)
    red = float(np.abs(u_id.values - u_heat.values).max())
    return {
        "lhs": max(caus / 1e-13, worst_quad / 1e-8, red / 1e-13),
        "rhs": 1.0, "bound": 1.0, "bound_class": "paper",
        "slack": 0.0, "grid": grid_label(s, g),
        "params": {"causality": caus, "quad_err": worst_quad, "reduction": red},
    }


@register("at-osc", "two-scale oscillation bound for the Hessian under time-dependent coefficients")
def check_at_osc(cfg):
    s = parabolic_structure(1)
    delta = 0.5
    grids = [parabolic_grid(cfg, n, n) for n in (48, 96)]

    def ratios(g):
        a_path = _random_path(np.random.default_rng(cfg.seed), g.cells[0], 1, delta)
        f = mean_zero_source(g, cfg.seed)
        u, _ = solve_heat(f, 0.5, a_of_t=a_path, delta=delta)
        # anchor the two-scale bound where the source actually acts
        imax = np.unravel_index(int(np.argmax(np.abs(f.values))), g.cells)
        center = [float(g.axis(a)[imax[a]]) for a in range(2)]
        center[0] = max(min(center[0], 0.0), -0.5)
        for kappa in (2.0, 3.0, 4.0):
            data = oscillation_estimate(u, Field(g, np.abs(f.values)), s, kappa,
                                        0.3, 2.0, center=center)
            den = data["term_local"] + data["term_tail"]
            if den > 0:
                yield data["osc"] / den

    return refine(s, grids, lambda g: {"fitted_N": worst(ratios(g))}, bound=1.15)


@register("at-mixed", "lambda-scaled reversed-order mixed bound for time-dependent coefficients")
def check_at_mixed(cfg):
    s = parabolic_structure(1)
    delta = 0.5
    p, q = 2.0, 3.0
    grids = [parabolic_grid(cfg, n, n) for n in (48, 96)]
    spec = NormSpec("Lqp_reversed", p=p, q=q)

    def level(g):
        a_path = _random_path(np.random.default_rng(cfg.seed), g.cells[0], 1, delta)
        ops = [OperatorSpec("heat_at", lam=lam, a_of_t=a_path, delta=delta)
               for lam in (1.0, 10.0, 100.0)]
        return {"ratios": worst(
            r["ratio"] for k in range(4)
            for r in apriori_ratios(random_signed(g, cfg.seed + 37 * k), ops, spec, s))}

    return refine(s, grids, level)
