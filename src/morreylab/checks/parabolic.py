"""Heat-equation checks: energy identity, CZ and sharp bounds, parabolic
Adams inequalities, the space-time power weight, parabolic Morrey machinery
and potential-kernel estimates."""

from __future__ import annotations

import math

import numpy as np

from ..dyadic import dyadic_sharp
from ..grid import Field, integrate, lp_norm, make_grid
from ..maximal import BallFamily, classical_maximal, classical_sharp
from ..norms import NormSpec, evaluate_norm, evaluate_norms
from ..potentials import apply_parabolic, apply_parabolic_conjugate, kernel_decay_check
from ..solvers import (
    OperatorSpec,
    apriori_ratio,
    apriori_ratios,
    solve_heat,
    spectral_derivative_fields,
)
from ..weights import ap_constant, parabolic_power_weight
from .common import bump_mix, parabolic_grid, parabolic_structure, random_signed, stability
from .report import register


@register("heat-energy", "exact space-time energy identity for the heat operator")
def check_heat_energy(cfg):
    s = parabolic_structure(1)
    g = parabolic_grid(cfg)
    worst = 0.0
    for k in range(5):
        u = random_signed(g, cfg.seed + k)
        _, d2, lap, ut = spectral_derivative_fields(u, s)
        f = ut + lap
        lhs = float((ut ** 2).sum()) + float((d2[0][0] ** 2).sum())
        rhs = float((f ** 2).sum())
        worst = max(worst, abs(lhs / rhs - 1.0))
    return {
        "lhs": worst, "rhs": 1.0, "bound": 1e-8, "bound_class": "paper",
        "slack": 0.0, "grid": f"(1+1)/{g.cells[0]}", "params": {},
    }


@register("heat-cz", "time derivative and Hessian controlled by the heat operator in L_p")
def check_heat_cz(cfg):
    s = parabolic_structure(1)
    fits = []
    for n in (32, 64, 128):
        g = parabolic_grid(cfg, n, n)
        worst = 0.0
        for k in range(4):
            u = random_signed(g, cfg.seed + 9 * k)
            _, d2, lap, ut = spectral_derivative_fields(u, s)
            f = Field(g, ut + lap)
            num = lp_norm(Field(g, np.abs(ut)), 3.0) + lp_norm(Field(g, np.abs(d2[0][0])), 3.0)
            worst = max(worst, num / lp_norm(f, 3.0))
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/32-128",
        "params": {"fitted_N": fits},
    }


@register("heat-sharp", "sharp function of the Hessian bounded by the maximal p-mean of the heat source")
def check_heat_sharp(cfg):
    s = parabolic_structure(1)
    p = 1.5
    fits = []
    for n in (48, 96):
        g = parabolic_grid(cfg, n, n)
        f = bump_mix(g, cfg.seed, nonneg=False)
        f = Field(g, f.values - f.values.mean())
        u, _ = solve_heat(f, 1.0)
        _, d2, _, _ = spectral_derivative_fields(u, s)
        fam = BallFamily.for_structure(s, g, density=cfg.density)
        sharp = classical_sharp(Field(g, np.abs(d2[0][0])), s, family=fam)
        mp = classical_maximal(Field(g, np.abs(f.values) ** p), s, family=fam)
        rhs = np.maximum(mp.values, 1e-300) ** (1.0 / p)
        fits.append(float((sharp.values / rhs).max()))
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/48-96",
        "params": {"fitted_N": fits, "p": p},
    }


@register("parab-adams", "parabolic Adams inequality for the cylinder-Morrey drift class")
def check_parab_adams(cfg):
    s = parabolic_structure(1)
    p, q = 2.0, 2.5
    ratios, bad_semis = [], []
    from ..testfunctions import test_function
    from .elliptic import _profile_slope

    for n in (48, 64, 96):
        g = make_grid(2, (1.5, 1.5), (cfg.cells(n), cfg.cells(n)), periodic=True)
        b = test_function("parab_sing", g)
        bn = evaluate_norm(b, NormSpec("EpbDot", p=q, beta=1.0), s)
        worst = 0.0
        for k in range(3):
            u = random_signed(g, cfg.seed + 11 * k, kmax=4)
            du, d2, _, ut = spectral_derivative_fields(u, s)
            num = integrate(Field(g, np.abs(b.values * du[0]) ** p))
            den = bn ** p * float(((d2[0][0] ** 2 + ut ** 2) ** (p / 2.0)).sum()) * g.cell_volume
            worst = max(worst, num / den)
        ratios.append(worst)
        # escalated space-time power: out of the admissible class
        from ..weights import parabolic_power_weight as ppw

        bad = ppw(g, 1.35).field
        v, prof = evaluate_norm(Field(g, np.where(np.isfinite(bad.values), bad.values, 0.0),
                                      bad.singular),
                                NormSpec("EpbDot", p=q, beta=1.0), s, return_profile=True)
        bad_semis.append((v, prof))
    slope = _profile_slope(bad_semis[-1][1])
    stable = stability(ratios) <= 1.10
    diverged = slope <= -0.10
    verdict = "pass" if (stable and diverged) else "fail"
    return {
        "lhs": ratios[-1], "rhs": 1.0, "bound": math.inf, "verdict": verdict,
        "bound_class": "existential", "grid": "(1+1)/48-96",
        "params": {"ratios": ratios, "bad_slope": slope},
    }


@register("w-alpha-a1", "space-time power weight: A_1 inside the parabolic-dimension range only")
def check_w_alpha_a1(cfg):
    s = parabolic_structure(1)
    finite_alphas = (0.0, 1.0, 2.0)  # d + 1 = 2
    divergent_alpha = 3.0  # d + 2
    estimates = {}
    worst = 0.0
    for alpha in finite_alphas:
        vals = []
        for n in (64, 128):
            g = make_grid(2, (1.0, 1.0), (cfg.cells(n), cfg.cells(n)))
            w = parabolic_power_weight(g, alpha)
            vals.append(ap_constant(w, 1.0, s))
        estimates[str(alpha)] = vals
        worst = max(worst, stability(vals) if all(map(math.isfinite, vals)) else math.inf)
    vals = []
    for n in (64, 128):
        g = make_grid(2, (1.0, 1.0), (cfg.cells(n), cfg.cells(n)))
        w = parabolic_power_weight(g, divergent_alpha)
        vals.append(ap_constant(w, 1.0, s))
    estimates[str(divergent_alpha)] = vals
    if all(map(math.isfinite, vals)) and stability(vals) < 2.0:
        worst = math.inf
    return {
        "lhs": worst, "rhs": 1.0, "bound": 1.15, "bound_class": "paper",
        "grid": "(1+1)/64-128", "params": estimates,
    }


@register("parab-weight-int", "capped power weight integrates test functions against the maximal mean")
def check_parab_weight_int(cfg):
    s = parabolic_structure(1)
    alpha, beta = 2.0, 1.5  # alpha + beta > d + 2 = 3
    fits = []
    for n in (64, 128):
        g = make_grid(2, (1.0, 1.0), (cfg.cells(n), cfg.cells(n)))
        w = parabolic_power_weight(g, alpha).field
        wcap = Field(g, np.minimum(w.values, 1.0))
        worst = 0.0
        for k in range(4):
            f = bump_mix(g, cfg.seed + k)
            num = integrate(Field(g, f.values * wcap.values))
            m = classical_maximal(f, s, beta=beta,
                                  family=BallFamily.for_structure(s, g, density=cfg.density))
            i0 = tuple(n_ // 2 for n_ in g.cells)
            den = float(m.values[i0])
            if den > 0:
                worst = max(worst, num / den)
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/64-128",
        "params": {"fitted_N": fits},
    }


@register("hl-parab-morrey", "maximal operator bounded on the homogeneous parabolic Morrey scale")
def check_hl_parab_morrey(cfg):
    s = parabolic_structure(1)
    p, beta = 2.0, 1.0
    fits = []
    for n in (48, 96):
        g = parabolic_grid(cfg, n, n, 1.0, 1.0, periodic=False)
        worst = 0.0
        for k in range(3):
            f = bump_mix(g, cfg.seed + k)
            m = classical_maximal(f, s, family=BallFamily.for_structure(
                s, g, density=cfg.density))
            num = evaluate_norm(m, NormSpec("EpbDot", p=p, beta=beta), s)
            den = evaluate_norm(f, NormSpec("EpbDot", p=p, beta=beta), s)
            worst = max(worst, num / den)
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/48-96",
        "params": {"fitted_N": fits},
    }


@register("fs-parab-morrey", "sharp function controls the parabolic Morrey norm")
def check_fs_parab_morrey(cfg):
    s = parabolic_structure(1)
    p, beta = 2.0, 1.0
    fits = []
    for n in (64, 128):
        g = parabolic_grid(cfg, n, n, 1.0, 1.0, periodic=False)
        worst = 0.0
        for k in range(3):
            f = random_signed(g, cfg.seed + 3 * k, kmax=20)
            f = Field(g, f.values - f.values.mean())
            sharp = dyadic_sharp(f, s)
            num = evaluate_norm(f, NormSpec("EpbDot", p=p, beta=beta), s)
            den = evaluate_norm(sharp, NormSpec("EpbDot", p=p, beta=beta), s)
            if den > 0:
                worst = max(worst, num / den)
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/64-128",
        "params": {"fitted_N": fits},
    }


@register("heat-morrey", "lambda-scaled heat resolvent bound on the parabolic Morrey scale")
def check_heat_morrey(cfg):
    s = parabolic_structure(1)
    p, beta = 2.0, 1.2
    vals = []
    for n in (48, 96):
        g = parabolic_grid(cfg, n, n)
        worst = 0.0
        for k in range(3):
            u = random_signed(g, cfg.seed + 7 * k)
            for r in apriori_ratios(u, [OperatorSpec("heat", lam=lam) for lam in (1.0, 10.0)],
                                    NormSpec("EpbDot", p=p, beta=beta), s):
                worst = max(worst, r["ratio"])
        vals.append(worst)
    return {
        "lhs": stability(vals), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/48-96",
        "params": {"ratios": vals},
    }


@register("parab-embed", "sup bound from parabolic Morrey-Sobolev control, two forms")
def check_parab_embed(cfg):
    s = parabolic_structure(1)
    p, gamma = 2.0, 1.5
    fits = {"plain": [], "eps": []}
    for n in (48, 96):
        g = parabolic_grid(cfg, n, n)
        w_plain, w_eps = 0.0, 0.0
        for k in range(3):
            u = random_signed(g, cfg.seed + 13 * k)
            _, d2, _, ut = spectral_derivative_fields(u, s)
            nu, nd2, nut, n2 = evaluate_norms(
                [u, Field(g, np.abs(d2[0][0])), Field(g, np.abs(ut)),
                 Field(g, np.sqrt(d2[0][0] ** 2 + ut ** 2))],
                NormSpec("EpbDot", p=p, beta=gamma), s)
            sup_u = float(np.abs(u.values).max())
            w_plain = max(w_plain, sup_u / (nu + nd2 + nut))
            for eps in (0.25, 0.5, 1.0):
                w_eps = max(w_eps, sup_u / (eps ** (2 - gamma) * n2 + eps ** -gamma * nu))
        fits["plain"].append(w_plain)
        fits["eps"].append(w_eps)
    growth = max(stability(fits["plain"]), stability(fits["eps"]))
    return {
        "lhs": growth, "rhs": 1.0, "bound": 1.10, "bound_class": "existential",
        "grid": "(1+1)/48-96", "params": fits,
    }


@register("parab-morrey-potential", "parabolic kernel maps between homogeneous cylinder-Morrey spaces")
def check_parab_morrey_potential(cfg):
    s = parabolic_structure(1)
    alpha, k_par, beta, q = 1.0, 4.0, 1.5, 1.2
    r_t = q * beta / (beta - alpha)
    fits = []
    for n in (48, 96):
        g = make_grid(2, (1.5, 1.5), (cfg.cells(n), cfg.cells(n)))
        f = bump_mix(g, cfg.seed)
        pf = apply_parabolic(f, alpha, k_par)
        num = evaluate_norm(pf, NormSpec("EpbDot", p=r_t, beta=beta - alpha), s)
        den = evaluate_norm(f, NormSpec("EpbDot", p=q, beta=beta), s)
        fits.append(num / den)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/48-96",
        "params": {"fitted": fits, "r": r_t},
    }


@register("parab-grad-embed", "gradient Morrey embedding under the matched exponent relation")
def check_parab_grad_embed(cfg):
    s = parabolic_structure(1)
    p, beta = 1.2, 1.5
    r_t = p * beta / (beta - 1.0)
    fits = []
    for n in (48, 96):
        g = parabolic_grid(cfg, n, n)
        worst = 0.0
        for k in range(3):
            u = random_signed(g, cfg.seed + 17 * k)
            du, _, lap, ut = spectral_derivative_fields(u, s)
            num = evaluate_norm(Field(g, np.abs(du[0])), NormSpec("EpbDot", p=r_t, beta=beta - 1), s)
            den = evaluate_norm(Field(g, np.abs(ut + lap)), NormSpec("EpbDot", p=p, beta=beta), s)
            worst = max(worst, num / den)
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/48-96",
        "params": {"fitted_N": fits, "r": r_t},
    }


@register("parab-holder", "parabolic Holder modulus from Morrey control of the full operator part")
def check_parab_holder(cfg):
    s = parabolic_structure(1)
    p, beta = 2.0, 1.5
    alpha = 2.0 - beta
    fits = []
    for n in (48, 96):
        g = parabolic_grid(cfg, n, n)
        worst = 0.0
        rng = np.random.default_rng(cfg.seed)
        for k in range(3):
            u = random_signed(g, cfg.seed + 19 * k)
            _, d2, _, ut = spectral_derivative_fields(u, s)
            U = evaluate_norm(Field(g, np.sqrt(ut ** 2 + d2[0][0] ** 2)),
                              NormSpec("EpbDot", p=p, beta=beta), s)
            xs = g.axes()
            for _ in range(60):
                i1 = (rng.integers(g.cells[0]), rng.integers(g.cells[1]))
                i2 = (rng.integers(g.cells[0]), rng.integers(g.cells[1]))
                rho = max(math.sqrt(abs(xs[0][i1[0]] - xs[0][i2[0]])),
                          abs(xs[1][i1[1]] - xs[1][i2[1]]))
                if rho == 0 or rho > 1.0:
                    continue
                diff = abs(float(u.values[i1]) - float(u.values[i2]))
                worst = max(worst, diff / (rho ** alpha * U))
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "(1+1)/48-96",
        "params": {"fitted_N": fits},
    }


@register("heat-drift-morrey", "heat resolvent with mixed-class drift keeps the Morrey ratio finite")
def check_heat_drift_morrey(cfg):
    from ..solvers import DriftDivergence, solve_drift
    from ..testfunctions import test_function

    s = parabolic_structure(1)
    g = make_grid(2, (1.5, 1.5), (cfg.cells(48), cfg.cells(48)), periodic=True)
    f = bump_mix(g, cfg.seed, nonneg=False)
    f = Field(g, f.values - f.values.mean())
    b0 = test_function("parab_sing", g)
    scale = 0.05
    b = [Field(g, scale * b0.values)]
    try:
        u, trace = solve_drift(f, 4.0, b, s)
        op = OperatorSpec("heat", lam=4.0, b=b)
        ratio = apriori_ratio(u, op, NormSpec("EpbDot", p=1.2, beta=1.3), s)["ratio"]
        ok = math.isfinite(ratio)
    except DriftDivergence:
        ratio = math.inf
        ok = False
    return {
        "lhs": ratio, "rhs": 1.0, "bound": math.inf,
        "verdict": "pass" if ok else "fail",
        "bound_class": "existential", "grid": f"(1+1)/{g.cells[0]}",
        "params": {"drift_scale": scale, "ratio": ratio},
    }


@register("parab-sharp-pot", "sharp function of the parabolic potential bounded by the fractional maximal")
def check_parab_sharp_pot(cfg):
    from ..potentials import potential_sharp_check

    s = parabolic_structure(1)
    fits = []
    for n in (48, 96):
        g = make_grid(2, (1.5, 1.5), (cfg.cells(n), cfg.cells(n)))
        f = bump_mix(g, cfg.seed)
        fam = BallFamily.for_structure(s, g, density=cfg.density)
        n_fit, _ = potential_sharp_check(f, s, alpha=1.0, k=4.0, family=fam)
        fits.append(n_fit)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.15,
        "bound_class": "existential", "grid": "(1+1)/48-96",
        "params": {"fitted_N": fits},
    }


@register("mw-parab", "norm comparison between the parabolic potential and the fractional maximal")
def check_mw_parab(cfg):
    s = parabolic_structure(1)
    r = 2.0
    fits = []
    for n in (48, 96):
        g = make_grid(2, (1.5, 1.5), (cfg.cells(n), cfg.cells(n)))
        worst = 0.0
        for k in range(3):
            f = bump_mix(g, cfg.seed + k)
            pf = apply_parabolic(f, 1.0, 4.0)
            m = classical_maximal(f, s, beta=1.0,
                                  family=BallFamily.for_structure(s, g, density=cfg.density))
            worst = max(worst, lp_norm(pf, r) / lp_norm(m, r))
        fits.append(worst)
    # conjugation identity on random compact pairs
    g = make_grid(2, (1.5, 1.5), (cfg.cells(48), cfg.cells(48)))
    f1 = bump_mix(g, cfg.seed, nonneg=False)
    g1 = bump_mix(g, cfg.seed + 1, nonneg=False)
    lhs = integrate(Field(g, apply_parabolic(f1, 1.0, 4.0).values * g1.values))
    rhs = integrate(Field(g, f1.values * apply_parabolic_conjugate(g1, 1.0, 4.0).values))
    dual_err = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    decay_n = kernel_decay_check(g, 1.0, 8.0, seed=cfg.seed)
    ok = stability(fits) <= 1.15 and dual_err <= 1e-10 and math.isfinite(decay_n)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.15,
        "verdict": "pass" if ok else "fail",
        "bound_class": "existential", "grid": "(1+1)/48-96",
        "params": {"fitted_N": fits, "conjugation_err": dual_err,
                   "decay_envelope": decay_n},
    }
