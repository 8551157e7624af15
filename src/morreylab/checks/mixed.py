"""Mixed-norm checks: extrapolation transfer, maximal and sharp bounds in
iterated norms, traces, embeddings, drift seminorms in both integration
orders, and the order-asymmetry counterexample."""

from __future__ import annotations

import math

import numpy as np

from ..dyadic import dyadic_sharp
from ..grid import Field, lp_norm, make_grid, make_structure
from ..maximal import BallFamily, classical_maximal
from ..norms import NormSpec, drift_seminorm, evaluate_norm, mixed_norm
from ..solvers import OperatorSpec, apriori_ratios, spectral_derivative_fields
from ..testfunctions import test_function
from ..weights import power_weight
from .common import (bump_mix, elliptic_structure, parabolic_grid, parabolic_structure,
                     random_signed, stability)
from .report import register


@register("mixed-transfer", "single-weight hypotheses transfer to iterated norms with the explicit factor")
def check_mixed_transfer(cfg):
    # product structure: two 1-d factors, cubes = squares
    s = make_structure(2, (1, 1))
    g = make_grid(2, (1.0, 1.0), (cfg.cells(128), cfg.cells(128)))
    p, p1, p2 = 2.0, 2.0, 3.0
    rng = np.random.default_rng(cfg.seed)
    fam = BallFamily.for_structure(s, g, shape="cube", density=cfg.density)
    probes = [power_weight(g, 0.0), power_weight(g, 0.5), power_weight(g, -0.5)]
    worst = 0.0
    for k in range(3):
        gfun = bump_mix(g, cfg.seed + k)
        mg = classical_maximal(gfun, s, family=fam)
        scale = max(
            lp_norm(mg, p, weight=w.field) / lp_norm(gfun, p, weight=w.field)
            for w in probes
        )
        f = Field(g, mg.values / scale)
        # hypothesis now holds on every probe; check the mixed-norm conclusion
        num = mixed_norm(f, p1, p2)
        den = mixed_norm(gfun, p1, p2)
        worst = max(worst, num / den)
    alpha = 2.0 + 1.0 / p1 + 1.0 / p2
    return {
        "lhs": worst, "rhs": 2.0 ** alpha, "bound": 1.0, "bound_class": "paper",
        "grid": f"2d/{g.cells[0]}", "params": {"alpha": alpha, "worst": worst},
    }


@register("hl-mixed", "maximal operator bounded in both iterated-norm orders")
def check_hl_mixed(cfg):
    s = parabolic_structure(1)
    p, q = 2.0, 3.0
    fits = {"std": [], "rev": []}
    for n in (48, 96):
        g = parabolic_grid(cfg, n, n, 1.0, 1.0, periodic=False)
        w_s, w_r = 0.0, 0.0
        for k in range(3):
            f = bump_mix(g, cfg.seed + k)
            m = classical_maximal(f, s, family=BallFamily.for_structure(
                s, g, density=cfg.density))
            w_s = max(w_s, mixed_norm(m, p, q) / mixed_norm(f, p, q))
            w_r = max(w_r, mixed_norm(m, p, q, reversed_order=True)
                      / mixed_norm(f, p, q, reversed_order=True))
        fits["std"].append(w_s)
        fits["rev"].append(w_r)
    growth = max(stability(fits["std"]), stability(fits["rev"]))
    return {
        "lhs": growth, "rhs": 1.0, "bound": 1.10, "bound_class": "existential",
        "grid": "(1+1)/48-96", "params": fits,
    }


@register("fs-mixed", "sharp function controls the iterated norm")
def check_fs_mixed(cfg):
    s = parabolic_structure(1)
    p, q = 2.0, 3.0
    fits = []
    for n in (64, 128):
        g = parabolic_grid(cfg, n, n, 1.0, 1.0, periodic=False)
        worst = 0.0
        for k in range(4):
            f = random_signed(g, cfg.seed + 3 * k, kmax=20)
            f = Field(g, f.values - f.values.mean())
            sharp = dyadic_sharp(f, s)
            den = mixed_norm(sharp, p, q)
            if den > 0:
                worst = max(worst, mixed_norm(f, p, q) / den)
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/64-128",
        "params": {"fitted_N": fits},
    }


@register("heat-mixed", "lambda-scaled heat resolvent bound in the iterated norm")
def check_heat_mixed(cfg):
    s = parabolic_structure(1)
    p, q = 2.0, 3.0
    vals = []
    for n in (48, 96):
        g = parabolic_grid(cfg, n, n)
        worst = 0.0
        for k in range(4):
            u = random_signed(g, cfg.seed + 7 * k)
            ops = [OperatorSpec("heat", lam=lam) for lam in (1.0, 10.0, 100.0)]
            for r in apriori_ratios(u, ops, NormSpec("Lpq", p=p, q=q), s):
                worst = max(worst, r["ratio"])
        vals.append(worst)
    return {
        "lhs": stability(vals), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/48-96",
        "params": {"ratios": vals},
    }


@register("poincare", "cylinder Poincare inequality for the gradient around its mean")
def check_poincare(cfg):
    s = parabolic_structure(1)
    fits = []
    for n in (64, 96):
        g = parabolic_grid(cfg, n, n)
        worst = 0.0
        for k in range(3):
            u = random_signed(g, cfg.seed + 5 * k)
            du, d2, _, ut = spectral_derivative_fields(u, s)
            xs = g.mesh()
            for rho in (0.5, 0.8):
                cyl = (xs[0] >= -0.9) & (xs[0] < -0.9 + rho ** 2) & (np.abs(xs[1]) < rho)
                if not cyl.any():
                    continue
                dv = du[0][cyl]
                dev = float(np.abs(dv - dv.mean()).mean())
                rhs = rho * float(np.sqrt(ut[cyl] ** 2 + d2[0][0][cyl] ** 2).mean())
                if rhs > 0:
                    worst = max(worst, dev / rhs)
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.15,
        "bound_class": "existential", "grid": "(1+1)/64-96",
        "params": {"fitted_N": fits},
    }


@register("trace-lr", "time-slice trace of the gradient bounded by the mixed-norm operator part")
def check_trace_lr(cfg):
    s = parabolic_structure(1)
    p, q, r = 1.5, 3.0, 2.0
    gamma = 1.0 / p + 2.0 / q - 1.0 / r
    fits = []
    for n in (48, 96):
        g = parabolic_grid(cfg, n, n)
        worst = 0.0
        for k in range(4):
            u = random_signed(g, cfg.seed + 11 * k)
            du, d2, _, ut = spectral_derivative_fields(u, s)
            it0 = g.cells[0] // 2
            trace = np.abs(du[0][it0])
            num = float((trace ** r).sum() * g.h[1]) ** (1.0 / r)
            op_part = mixed_norm(Field(g, np.sqrt(ut ** 2 + d2[0][0] ** 2)), p, q)
            nu = mixed_norm(u, p, q)
            for eps in (0.5, 1.0):
                den = eps * op_part + eps ** (-(1 + gamma) / (1 - gamma)) * nu
                worst = max(worst, num / den)
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/48-96",
        "params": {"fitted_N": fits, "gamma": gamma},
    }


@register("trace-morrey", "time-slice trace lands in the matching Morrey space")
def check_trace_morrey(cfg):
    s = parabolic_structure(1)
    p, q, r, beta = 1.8, 2.2, 2.0, 1.3
    s1 = elliptic_structure(1)
    fits = []
    for n in (48, 96):
        g = parabolic_grid(cfg, n, n)
        gx = make_grid(1, g.half_extent[1], g.cells[1], periodic=True)
        worst = 0.0
        for k in range(4):
            u = random_signed(g, cfg.seed + 13 * k)
            du, d2, _, ut = spectral_derivative_fields(u, s)
            it0 = g.cells[0] // 2
            trace = Field(gx, du[0][it0].copy())
            num = evaluate_norm(trace, NormSpec("EpbDot", p=r, beta=beta - 1.0), s1)
            den = evaluate_norm(Field(g, np.sqrt(ut ** 2 + d2[0][0] ** 2)),
                                NormSpec("EpqbDot", p=p, q=q, beta=beta), s)
            if den > 0:
                worst = max(worst, num / den)
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/48-96",
        "params": {"fitted_N": fits},
    }


@register("mixed-morrey-max", "maximal operator bounded on the mixed-norm Morrey scale")
def check_mixed_morrey_max(cfg):
    s = parabolic_structure(1)
    p, q, beta = 2.0, 3.0, 1.0
    fits = []
    for n in (48, 96):
        g = parabolic_grid(cfg, n, n, 1.0, 1.0, periodic=False)
        worst = 0.0
        for k in range(3):
            f = bump_mix(g, cfg.seed + k)
            m = classical_maximal(f, s, family=BallFamily.for_structure(
                s, g, density=cfg.density))
            num = evaluate_norm(m, NormSpec("EpqbDot", p=p, q=q, beta=beta), s)
            den = evaluate_norm(f, NormSpec("EpqbDot", p=p, q=q, beta=beta), s)
            worst = max(worst, num / den)
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/48-96",
        "params": {"fitted_N": fits},
    }


@register("mixed-embed", "gradient embedding between iterated norms at the matched exponents")
def check_mixed_embed(cfg):
    s = parabolic_structure(1)
    q1, q2 = 1.5, 1.5
    beta = 1.0 / q1 + 2.0 / q2
    r1, r2 = q1 * beta / (beta - 1.0), q2 * beta / (beta - 1.0)
    fits = []
    for n in (48, 96):
        g = parabolic_grid(cfg, n, n)
        worst = 0.0
        for k in range(3):
            u = random_signed(g, cfg.seed + 17 * k)
            du, _, lap, ut = spectral_derivative_fields(u, s)
            num = mixed_norm(Field(g, np.abs(du[0])), r1, r2)
            den = mixed_norm(Field(g, np.abs(ut + lap)), q1, q2)
            worst = max(worst, num / den)
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/48-96",
        "params": {"fitted_N": fits, "r": (r1, r2)},
    }


@register("lps-drift", "critical-class drift term absorbed by the heat operator in mixed Morrey norms")
def check_lps_drift(cfg):
    s = parabolic_structure(1)
    q1, q2, beta = 1.3, 1.3, 1.4
    s1, s2 = beta * q1, beta * q2
    fits = []
    for n in (48, 96):
        g = make_grid(2, (1.5, 1.5), (cfg.cells(n), cfg.cells(n)), periodic=True)
        b = test_function("parab_sing", g)
        nb = evaluate_norm(b, NormSpec("EpqbDot", p=s1, q=s2, beta=1.0), s)
        worst = 0.0
        for k in range(3):
            u = random_signed(g, cfg.seed + 19 * k, kmax=4)
            du, _, lap, ut = spectral_derivative_fields(u, s)
            num = evaluate_norm(Field(g, np.abs(b.values * du[0])),
                                NormSpec("EpqbDot", p=q1, q=q2, beta=beta), s)
            den = nb * evaluate_norm(Field(g, np.abs(ut + lap)),
                                     NormSpec("EpqbDot", p=q1, q=q2, beta=beta), s)
            worst = max(worst, num / den)
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/48-96",
        "params": {"fitted_N": fits},
    }


@register("drift-seminorm", "scaled drift seminorm controls the drift term against the Hessian and mass")
def check_drift_seminorm(cfg):
    d = 3
    s = elliptic_structure(d)
    p_b, beta = 2.0, 1.4
    p = p_b / beta
    rho_b = 1.0
    fits = []
    for n in (32, 48):
        g = make_grid(d, math.pi, cfg.cells(n), periodic=True)
        b = test_function("power", g, gamma=1.0)
        bbar = drift_seminorm(b, p_b, rho_b, s)
        worst = 0.0
        for k in range(2):
            u = random_signed(g, cfg.seed + 23 * k, kmax=3)
            du, d2, _, _ = spectral_derivative_fields(u, s)
            du_mag = np.sqrt(sum(x ** 2 for x in du))
            d2_mag = np.sqrt(sum(d2[i][j] ** 2 for i in range(d) for j in range(d)))
            num = evaluate_norm(Field(g, b.values * du_mag),
                                NormSpec("Epbr", p=p, beta=beta, r=rho_b), s)
            den = bbar * (
                evaluate_norm(Field(g, d2_mag), NormSpec("Epbr", p=p, beta=beta, r=rho_b), s)
                + rho_b ** -2 * evaluate_norm(u, NormSpec("Epbr", p=p, beta=beta, r=rho_b), s)
            )
            worst = max(worst, num / den)
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.15,
        "bound_class": "existential", "grid": "3d/32-48",
        "params": {"fitted_N": fits, "seminorm": None},
    }


@register("mixed-morrey-heat", "lambda-scaled heat resolvent bound on the mixed Morrey scale")
def check_mixed_morrey_heat(cfg):
    s = parabolic_structure(1)
    p, q, beta = 2.0, 3.0, 1.1
    vals = []
    for n in (48, 96):
        g = parabolic_grid(cfg, n, n)
        worst = 0.0
        for k in range(3):
            u = random_signed(g, cfg.seed + 29 * k)
            for r in apriori_ratios(u, [OperatorSpec("heat", lam=lam) for lam in (1.0, 10.0)],
                                    NormSpec("EpqbDot", p=p, q=q, beta=beta), s):
                worst = max(worst, r["ratio"])
        vals.append(worst)
    return {
        "lhs": stability(vals), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/48-96",
        "params": {"ratios": vals},
    }


@register("mixed-interp", "gradient interpolation on the mixed Morrey scale")
def check_mixed_interp(cfg):
    s = parabolic_structure(1)
    p, q, beta = 2.0, 3.0, 1.1
    fits = []
    for n in (48, 96):
        g = parabolic_grid(cfg, n, n)
        worst = 0.0
        for k in range(3):
            u = random_signed(g, cfg.seed + 31 * k)
            du, d2, _, ut = spectral_derivative_fields(u, s)
            nb = lambda a: evaluate_norm(Field(g, a), NormSpec(
                "EpqbDot", p=p, q=q, beta=beta), s)
            ndu = nb(np.abs(du[0]))
            nop = nb(np.sqrt(ut ** 2 + d2[0][0] ** 2))
            nu = nb(u.values)
            for eps in (0.25, 0.5, 1.0):
                worst = max(worst, ndu / (eps * nop + nu / eps))
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/48-96",
        "params": {"fitted_N": fits},
    }


@register("lqp-asym", "moving-sphere profile: reversed-order seminorm finite, standard order divergent")
def check_lqp_asym(cfg):
    s = parabolic_structure(2)
    p, q, beta = 2.0, 1.6, 1.25  # q beta = 2, p beta = 2.5 < d + 1 = 3
    p0, q0 = p * beta, q * beta
    rev_vals = []
    std_vals = []
    for n in (32, 48):
        g = make_grid(3, (1.0, 1.2, 1.2),
                      (cfg.cells(n), cfg.cells(int(1.5 * n)), cfg.cells(int(1.5 * n))))
        b = test_function("lqp_vs_lpq", g, p0=p0)
        rev_vals.append(drift_seminorm(b, p0, 1.0, s, q_b=q0, reversed_order=True))
        std_vals.append(drift_seminorm(b, p0, 1.0, s, q_b=q0, reversed_order=False))
    finite_rev = all(math.isfinite(v) for v in rev_vals) and stability(rev_vals) <= 1.15
    # the standard-order inner integral diverges on every shell cell: the
    # exact transverse masses are infinite at every resolution
    diverged_std = all(not math.isfinite(v) or v > 1e6 for v in std_vals)
    verdict = "diverged_as_expected" if (finite_rev and diverged_std) else "fail"
    return {
        "lhs": rev_vals[-1], "rhs": 1.0, "bound": math.inf, "verdict": verdict,
        "bound_class": "counterexample", "grid": "(1+2)/32-48",
        "params": {"reversed": rev_vals, "standard": [str(v) for v in std_vals],
                   "p0": p0, "q0": q0},
    }


@register("cyl-slab", "axis-singular drift: in the Morrey class but not locally d'-integrable")
def check_cyl_slab(cfg):
    d, d_prime, p = 3, 2, 1.5
    s = elliptic_structure(d)
    semis = []
    l2s = []
    for n in (32, 48):
        g = make_grid(d, 1.2, cfg.cells(n))
        b = test_function("cylinder_slab", g, d_prime=d_prime)
        semis.append(evaluate_norm(b, NormSpec("Epbr", p=p, beta=1.0, r=1.0), s))
        l2s.append(lp_norm(b, float(d_prime), region=([-1.0] * d, [1.0] * d)))
    finite = all(math.isfinite(v) for v in semis) and stability(semis) <= 1.15
    diverged = all(not math.isfinite(v) for v in l2s)
    verdict = "diverged_as_expected" if (finite and diverged) else "fail"
    return {
        "lhs": semis[-1], "rhs": 1.0, "bound": math.inf, "verdict": verdict,
        "bound_class": "counterexample", "grid": "3d/32-48",
        "params": {"seminorms": semis, "L_dprime": [str(v) for v in l2s]},
    }
