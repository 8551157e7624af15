"""Heat-equation checks: energy identity, CZ and sharp bounds, parabolic
Adams inequalities, the space-time power weight, parabolic Morrey machinery
and potential-kernel estimates."""

from __future__ import annotations

import math

import numpy as np

from ..dyadic import dyadic_sharp
from ..grid import Field, integrate, lp_norm, make_grid
from ..maximal import classical_maximal, classical_sharp
from ..norms import NormSpec, evaluate_norm, evaluate_norms
from ..potentials import apply_parabolic, apply_parabolic_conjugate, kernel_decay_check
from ..solvers import (
    DriftDivergence,
    OperatorSpec,
    apriori_ratio,
    apriori_ratios,
    solve_drift,
    solve_heat,
    spectral_derivative_fields,
)
from ..testfunctions import test_function
from ..weights import ap_constant, parabolic_power_weight
from .common import (bump_mix, centred, grid_label, mean_zero_source, parabolic_grid,
                     parabolic_structure, random_signed, refine, run_levels, stability, worst)
from .elliptic import _profile_slope
from .report import register


@register("heat-energy", "exact space-time energy identity for the heat operator")
def check_heat_energy(cfg):
    s = parabolic_structure(1)
    g = parabolic_grid(cfg)

    def errors():
        for k in range(5):
            _, d2, lap, ut = spectral_derivative_fields(random_signed(g, cfg.seed + k), s)
            lhs = float((ut ** 2).sum()) + float((d2[0][0] ** 2).sum())
            yield abs(lhs / float(((ut + lap) ** 2).sum()) - 1.0)

    return {
        "lhs": worst(errors()), "rhs": 1.0, "bound": 1e-8, "bound_class": "paper",
        "slack": 0.0, "grid": grid_label(s, g), "params": {},
    }


@register("heat-cz", "time derivative and Hessian controlled by the heat operator in L_p")
def check_heat_cz(cfg):
    s = parabolic_structure(1)
    grids = [parabolic_grid(cfg, n, n) for n in (32, 64, 128)]

    def ratios(g):
        for k in range(4):
            _, d2, lap, ut = spectral_derivative_fields(random_signed(g, cfg.seed + 9 * k), s)
            num = lp_norm(Field(g, np.abs(ut)), 3.0) + lp_norm(Field(g, np.abs(d2[0][0])), 3.0)
            yield num / lp_norm(Field(g, ut + lap), 3.0)

    return refine(s, grids, lambda g: {"fitted_N": worst(ratios(g))})


@register("heat-sharp", "sharp function of the Hessian bounded by the maximal p-mean of the heat source")
def check_heat_sharp(cfg):
    s = parabolic_structure(1)
    p = 1.5
    grids = [parabolic_grid(cfg, n, n) for n in (48, 96)]

    def level(g):
        f = mean_zero_source(g, cfg.seed)
        _, d2, _, _ = spectral_derivative_fields(solve_heat(f, 1.0)[0], s)
        sharp = classical_sharp(Field(g, np.abs(d2[0][0])), s)
        mp = classical_maximal(Field(g, np.abs(f.values) ** p), s)
        rhs = np.maximum(mp.values, 1e-300) ** (1.0 / p)
        return {"fitted_N": float((sharp.values / rhs).max())}

    return refine(s, grids, level, {"p": p})


@register("parab-adams", "parabolic Adams inequality for the cylinder-Morrey drift class")
def check_parab_adams(cfg):
    s = parabolic_structure(1)
    p, q = 2.0, 2.5
    grids = [make_grid(2, (1.5, 1.5), (cfg.cells(n), cfg.cells(n)), periodic=True)
             for n in (48, 64, 96)]

    def drift_ratios(g):
        b = test_function("parab_sing", g)
        bn = evaluate_norm(b, NormSpec("EpbDot", p=q, beta=1.0), s)
        for k in range(3):
            u = random_signed(g, cfg.seed + 11 * k, kmax=4)
            du, d2, _, ut = spectral_derivative_fields(u, s)
            num = integrate(Field(g, np.abs(b.values * du[0]) ** p))
            yield num / (bn ** p * float(((d2[0][0] ** 2 + ut ** 2) ** (p / 2.0)).sum())
                         * g.cell_volume)

    def level(g):
        fitted = worst(drift_ratios(g))
        # escalated space-time power: out of the admissible class
        bad = parabolic_power_weight(g, 1.35).field
        _, prof = evaluate_norm(Field(g, np.where(np.isfinite(bad.values), bad.values, 0.0),
                                      bad.singular),
                                NormSpec("EpbDot", p=q, beta=1.0), s, return_profile=True)
        return {"ratios": fitted, "bad_profile": prof}

    seqs = run_levels(grids, level)
    ratios = seqs["ratios"]
    slope = _profile_slope(seqs["bad_profile"][-1])
    stable = stability(ratios) <= 1.10
    diverged = slope <= -0.10
    verdict = "pass" if (stable and diverged) else "fail"
    return {
        "lhs": ratios[-1], "rhs": 1.0, "bound": math.inf, "verdict": verdict,
        "bound_class": "existential", "grid": grid_label(s, grids),
        "params": {"ratios": ratios, "bad_slope": slope},
    }


@register("w-alpha-a1", "space-time power weight: A_1 inside the parabolic-dimension range only")
def check_w_alpha_a1(cfg):
    s = parabolic_structure(1)
    finite_alphas = (0.0, 1.0, 2.0)  # d + 1 = 2
    divergent_alpha = 3.0  # d + 2
    grids = [make_grid(2, (1.0, 1.0), (cfg.cells(n), cfg.cells(n))) for n in (64, 128)]
    estimates = run_levels(grids, lambda g: {
        str(alpha): ap_constant(parabolic_power_weight(g, alpha), 1.0, s)
        for alpha in finite_alphas + (divergent_alpha,)})
    growth = worst(stability(vals) if all(map(math.isfinite, vals)) else math.inf
                   for vals in (estimates[str(alpha)] for alpha in finite_alphas))
    vals = estimates[str(divergent_alpha)]
    if all(map(math.isfinite, vals)) and stability(vals) < 2.0:
        growth = math.inf
    return {
        "lhs": growth, "rhs": 1.0, "bound": 1.15, "bound_class": "paper",
        "grid": grid_label(s, grids), "params": estimates,
    }


@register("parab-weight-int", "capped power weight integrates test functions against the maximal mean")
def check_parab_weight_int(cfg):
    s = parabolic_structure(1)
    alpha, beta = 2.0, 1.5  # alpha + beta > d + 2 = 3
    grids = [make_grid(2, (1.0, 1.0), (cfg.cells(n), cfg.cells(n))) for n in (64, 128)]

    def ratios(g):
        wcap = np.minimum(parabolic_power_weight(g, alpha).field.values, 1.0)
        i0 = tuple(n_ // 2 for n_ in g.cells)
        for k in range(4):
            f = bump_mix(g, cfg.seed + k)
            num = integrate(Field(g, f.values * wcap))
            den = float(classical_maximal(f, s, beta=beta).values[i0])
            if den > 0:
                yield num / den

    return refine(s, grids, lambda g: {"fitted_N": worst(ratios(g))})


@register("hl-parab-morrey", "maximal operator bounded on the homogeneous parabolic Morrey scale")
def check_hl_parab_morrey(cfg):
    s = parabolic_structure(1)
    p, beta = 2.0, 1.0
    spec = NormSpec("EpbDot", p=p, beta=beta)
    grids = [parabolic_grid(cfg, n, n, 1.0, 1.0, periodic=False) for n in (48, 96)]

    def ratios(g):
        for k in range(3):
            f = bump_mix(g, cfg.seed + k)
            yield evaluate_norm(classical_maximal(f, s), spec, s) / evaluate_norm(f, spec, s)

    return refine(s, grids, lambda g: {"fitted_N": worst(ratios(g))})


@register("fs-parab-morrey", "sharp function controls the parabolic Morrey norm")
def check_fs_parab_morrey(cfg):
    s = parabolic_structure(1)
    p, beta = 2.0, 1.0
    spec = NormSpec("EpbDot", p=p, beta=beta)
    grids = [parabolic_grid(cfg, n, n, 1.0, 1.0, periodic=False) for n in (64, 128)]

    def ratios(g):
        for k in range(3):
            f = centred(random_signed(g, cfg.seed + 3 * k, kmax=20))
            sharp = dyadic_sharp(f, s)
            num = evaluate_norm(f, spec, s)
            den = evaluate_norm(sharp, spec, s)
            if den > 0:
                yield num / den

    return refine(s, grids, lambda g: {"fitted_N": worst(ratios(g))})


@register("heat-morrey", "lambda-scaled heat resolvent bound on the parabolic Morrey scale")
def check_heat_morrey(cfg):
    s = parabolic_structure(1)
    p, beta = 2.0, 1.2
    grids = [parabolic_grid(cfg, n, n) for n in (48, 96)]
    ops = [OperatorSpec("heat", lam=lam) for lam in (1.0, 10.0)]
    spec = NormSpec("EpbDot", p=p, beta=beta)
    return refine(s, grids, lambda g: {"ratios": worst(
        r["ratio"] for k in range(3)
        for r in apriori_ratios(random_signed(g, cfg.seed + 7 * k), ops, spec, s))})


@register("parab-embed", "sup bound from parabolic Morrey-Sobolev control, two forms")
def check_parab_embed(cfg):
    s = parabolic_structure(1)
    p, gamma = 2.0, 1.5
    grids = [parabolic_grid(cfg, n, n) for n in (48, 96)]

    def level(g):
        plain, scaled = [], []
        for k in range(3):
            u = random_signed(g, cfg.seed + 13 * k)
            _, d2, _, ut = spectral_derivative_fields(u, s)
            nu, nd2, nut, n2 = evaluate_norms(
                [u, Field(g, np.abs(d2[0][0])), Field(g, np.abs(ut)),
                 Field(g, np.sqrt(d2[0][0] ** 2 + ut ** 2))],
                NormSpec("EpbDot", p=p, beta=gamma), s)
            sup_u = float(np.abs(u.values).max())
            plain.append(sup_u / (nu + nd2 + nut))
            scaled += [sup_u / (eps ** (2 - gamma) * n2 + eps ** -gamma * nu)
                     for eps in (0.25, 0.5, 1.0)]
        return {"plain": worst(plain), "eps": worst(scaled)}

    return refine(s, grids, level)


@register("parab-morrey-potential", "parabolic kernel maps between homogeneous cylinder-Morrey spaces")
def check_parab_morrey_potential(cfg):
    s = parabolic_structure(1)
    alpha, k_par, beta, q = 1.0, 4.0, 1.5, 1.2
    r_t = q * beta / (beta - alpha)
    grids = [make_grid(2, (1.5, 1.5), (cfg.cells(n), cfg.cells(n))) for n in (48, 96)]

    def level(g):
        f = bump_mix(g, cfg.seed)
        pf = apply_parabolic(f, alpha, k_par)
        num = evaluate_norm(pf, NormSpec("EpbDot", p=r_t, beta=beta - alpha), s)
        return {"fitted": num / evaluate_norm(f, NormSpec("EpbDot", p=q, beta=beta), s)}

    return refine(s, grids, level, {"r": r_t})


@register("parab-grad-embed", "gradient Morrey embedding under the matched exponent relation")
def check_parab_grad_embed(cfg):
    s = parabolic_structure(1)
    p, beta = 1.2, 1.5
    r_t = p * beta / (beta - 1.0)
    grids = [parabolic_grid(cfg, n, n) for n in (48, 96)]

    def ratios(g):
        for k in range(3):
            du, _, lap, ut = spectral_derivative_fields(random_signed(g, cfg.seed + 17 * k), s)
            num = evaluate_norm(Field(g, np.abs(du[0])), NormSpec("EpbDot", p=r_t, beta=beta - 1), s)
            den = evaluate_norm(Field(g, np.abs(ut + lap)), NormSpec("EpbDot", p=p, beta=beta), s)
            yield num / den

    return refine(s, grids, lambda g: {"fitted_N": worst(ratios(g))}, {"r": r_t})


@register("parab-holder", "parabolic Holder modulus from Morrey control of the full operator part")
def check_parab_holder(cfg):
    s = parabolic_structure(1)
    p, beta = 2.0, 1.5
    alpha = 2.0 - beta
    grids = [parabolic_grid(cfg, n, n) for n in (48, 96)]

    def ratios(g):
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
                yield diff / (rho ** alpha * U)

    return refine(s, grids, lambda g: {"fitted_N": worst(ratios(g))})


@register("heat-drift-morrey", "heat resolvent with mixed-class drift keeps the Morrey ratio finite")
def check_heat_drift_morrey(cfg):
    s = parabolic_structure(1)
    g = make_grid(2, (1.5, 1.5), (cfg.cells(48), cfg.cells(48)), periodic=True)
    f = mean_zero_source(g, cfg.seed)
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
        "bound_class": "existential", "grid": grid_label(s, g),
        "params": {"drift_scale": scale, "ratio": ratio},
    }


@register("parab-sharp-pot", "sharp function of the parabolic potential bounded by the fractional maximal")
def check_parab_sharp_pot(cfg):
    # fitted N in (P_{1,4} f)^sharp <= N M_1 f on every fourth cell along each axis
    s = parabolic_structure(1)
    grids = [make_grid(2, (1.5, 1.5), (cfg.cells(n), cfg.cells(n))) for n in (48, 96)]
    sub = (slice(None, None, 4),) * 2

    def level(g):
        f = bump_mix(g, cfg.seed)
        pot = apply_parabolic(f, 1.0, 4.0)
        den = classical_maximal(f, s, beta=1.0).values[sub]
        num = classical_sharp(pot, s).values[sub]
        with np.errstate(invalid="ignore", divide="ignore"):
            return {"fitted_N": float(np.nanmax(np.where(den > 0, num / den, 0.0)))}

    return refine(s, grids, level, bound=1.15)


@register("mw-parab", "norm comparison between the parabolic potential and the fractional maximal")
def check_mw_parab(cfg):
    s = parabolic_structure(1)
    r = 2.0
    grids = [make_grid(2, (1.5, 1.5), (cfg.cells(n), cfg.cells(n))) for n in (48, 96)]

    def ratios(g):
        for k in range(3):
            f = bump_mix(g, cfg.seed + k)
            pf = apply_parabolic(f, 1.0, 4.0)
            yield lp_norm(pf, r) / lp_norm(classical_maximal(f, s, beta=1.0), r)

    # conjugation identity on random compact pairs
    g = make_grid(2, (1.5, 1.5), (cfg.cells(48), cfg.cells(48)))
    f1 = bump_mix(g, cfg.seed, nonneg=False)
    g1 = bump_mix(g, cfg.seed + 1, nonneg=False)
    lhs = integrate(Field(g, apply_parabolic(f1, 1.0, 4.0).values * g1.values))
    rhs = integrate(Field(g, f1.values * apply_parabolic_conjugate(g1, 1.0, 4.0).values))
    dual_err = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    decay_n = kernel_decay_check(g, 1.0, 8.0, seed=cfg.seed)
    report = refine(s, grids, lambda g: {"fitted_N": worst(ratios(g))},
                    {"conjugation_err": dual_err, "decay_envelope": decay_n}, bound=1.15)
    ok = report["lhs"] <= 1.15 and dual_err <= 1e-10 and math.isfinite(decay_n)
    return {**report, "verdict": "pass" if ok else "fail"}
