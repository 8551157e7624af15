"""Muckenhoupt-weight checks: constant ranges, reverse Holder profile,
self-improvement, weighted maximal/sharp bounds, factorization and the
majorant-iteration transfer machinery."""

from __future__ import annotations

import math

import numpy as np

from ..dyadic import dyadic_sharp
from ..grid import Field, lp_norm, make_grid
from ..maximal import BallFamily, classical_maximal
from ..norms import NormSpec, evaluate_norm
from ..solvers import OperatorSpec, apriori_ratio, apriori_ratios
from ..weights import (
    Weight,
    a1_constant,
    ainf_profile,
    ap_constant,
    jones_factorize,
    power_weight,
    rdf_iterate,
    reverse_holder,
    self_improve,
)
from .common import bump_mix, elliptic_structure, random_signed, stability
from .report import register


@register("ap-range", "power-weight constants: stable inside the admissible range, divergent outside")
def check_ap_range(cfg):
    s = elliptic_structure(1)
    p = 2.0
    inside = (-0.9, 0.0, 0.5, 0.9)
    outside = (-1.5, 1.0, 1.5)
    worst_growth = 0.0
    estimates = {}
    for alpha in inside + outside:
        vals = []
        for n in (256, 512, 1024):
            g = make_grid(1, 1.0, cfg.cells(n))
            vals.append(ap_constant(power_weight(g, alpha), p, s))
        estimates[str(alpha)] = vals
        if alpha in inside:
            if any(not math.isfinite(v) for v in vals):
                worst_growth = math.inf
            else:
                worst_growth = max(worst_growth, stability(vals))
        else:
            # outside (-d, (p-1)d) the defining integrals are not locally
            # integrable: the exact singular-cell mass is infinite, which is
            # growth beyond any factor per refinement octave
            if all(math.isfinite(v) for v in vals) and stability(vals) < 2.0:
                worst_growth = math.inf
    return {
        "lhs": worst_growth, "rhs": 1.0, "bound": 1.10,
        "bound_class": "paper", "grid": "1d/256-1024", "params": estimates,
    }


@register("rh", "reverse Holder exponent and constant for the square-root power weight")
def check_rh(cfg):
    s = elliptic_structure(1)
    vals = []
    for n in (512, 1024):
        g = make_grid(1, 1.0, cfg.cells(n))
        w = power_weight(g, 0.5)
        eps, n_const = reverse_holder(w, 2.0, s)
        vals.append(n_const)
        if eps <= 0:
            return {"lhs": math.inf, "rhs": 1.0, "bound": 1.10,
                    "bound_class": "existential", "grid": f"1d/{n}", "params": {}}
    # integrability threshold: |x|^{-1/2} caps the search below eps = 1
    g = make_grid(1, 1.0, cfg.cells(512))
    wneg = power_weight(g, -0.5)
    eps_neg, _ = reverse_holder(wneg, 2.0, s)
    ok_threshold = eps_neg < 1.0
    return {
        "lhs": stability(vals) if ok_threshold else math.inf, "rhs": 1.0,
        "bound": 1.10, "bound_class": "existential", "grid": "1d/512-1024",
        "params": {"N": vals, "eps_capped_below_1": eps_neg},
    }


@register("ainf", "measure-ratio profile of a weight against its A_p lower bound")
def check_ainf(cfg):
    s = elliptic_structure(1)
    g = make_grid(1, 1.0, cfg.cells(1024))
    w = power_weight(g, 0.5)
    beta, n_fit, lower_margin = ainf_profile(w, 2.0, s, seed=cfg.seed)
    w1 = Weight(Field(g, np.ones(g.cells)))
    beta1, n1, _ = ainf_profile(w1, 2.0, s, seed=cfg.seed)
    ok = (0.0 < beta <= 1.0) and math.isfinite(n_fit) \
        and lower_margin >= 1.0 - 1e-9 and beta1 >= 0.99 and abs(n1 - 1.0) < 1e-9
    return {
        "lhs": 1.0 if ok else math.inf, "rhs": 1.0, "bound": 1.0,
        "bound_class": "paper", "slack": 0.0, "grid": f"1d/{g.cells[0]}",
        "params": {"beta": beta, "N": n_fit, "lower_margin": lower_margin,
                   "beta_const_weight": beta1},
    }


@register("self-improve", "weight class self-improvement with the dual-exponent identity")
def check_self_improve(cfg):
    s = elliptic_structure(1)
    g = make_grid(1, 1.0, cfg.cells(512))
    w = power_weight(g, 0.5)
    p = 3.0
    q, a_q = self_improve(w, p, s)
    dual = power_weight(g, -0.5 / (p - 1.0))
    eps, _ = reverse_holder(dual, p / (p - 1.0), s)
    consistent = abs((1.0 + eps) / (p - 1.0) - 1.0 / (q - 1.0)) < 1e-9
    ok = q < p and math.isfinite(a_q) and consistent
    return {
        "lhs": 1.0 if ok else math.inf, "rhs": 1.0, "bound": 1.0,
        "bound_class": "paper", "slack": 0.0, "grid": f"1d/{g.cells[0]}",
        "params": {"q": q, "A_q": a_q, "eps": eps},
    }


@register("muck-max", "maximal operator bounded on the weighted p-space")
def check_muck_max(cfg):
    s = elliptic_structure(1)
    p = 2.0
    fits = []
    for n in (512, 1024):
        g = make_grid(1, 1.0, cfg.cells(n))
        w = power_weight(g, 0.5)
        worst = 0.0
        for k in range(4):
            f = bump_mix(g, cfg.seed + k)
            m = classical_maximal(f, s, family=BallFamily.for_structure(
                s, g, shape="cube", density=cfg.density))
            worst = max(worst, lp_norm(m, p, weight=w.field) / lp_norm(f, p, weight=w.field))
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "1d/512-1024",
        "params": {"fitted_N": fits},
    }


@register("fs-weighted", "sharp function controls the weighted p-norm")
def check_fs_weighted(cfg):
    s = elliptic_structure(1)
    p = 2.0
    fits = []
    for n in (512, 1024):
        g = make_grid(1, 1.0, cfg.cells(n))
        w = power_weight(g, 0.5)
        worst = 0.0
        for k in range(5):
            f = random_signed(g, cfg.seed + 7 * k, kmax=40)
            f = Field(g, f.values - f.values.mean())
            sharp = dyadic_sharp(f, s)
            ns = lp_norm(sharp, p, weight=w.field)
            if ns > 0:
                worst = max(worst, lp_norm(f, p, weight=w.field) / ns)
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "1d/512-1024",
        "params": {"fitted_N": fits},
    }


@register("fs-morrey", "sharp function controls the homogeneous Morrey norm")
def check_fs_morrey(cfg):
    s = elliptic_structure(1)
    p, beta = 2.0, 0.4
    fits = []
    for n in (512, 1024):
        g = make_grid(1, 1.0, cfg.cells(n))
        worst = 0.0
        for k in range(4):
            f = random_signed(g, cfg.seed + 3 * k, kmax=40)
            f = Field(g, f.values - f.values.mean())
            sharp = dyadic_sharp(f, s)
            ns = evaluate_norm(sharp, NormSpec("EpbDot", p=p, beta=beta), s)
            if ns > 0:
                worst = max(worst, evaluate_norm(f, NormSpec("EpbDot", p=p, beta=beta), s) / ns)
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "1d/512-1024",
        "params": {"fitted_N": fits},
    }


@register("jones", "factorization into two A_1 pieces that reconstructs the weight exactly")
def check_jones(cfg):
    s = elliptic_structure(1)
    g = make_grid(1, 1.0, cfg.cells(512))
    w = power_weight(g, 0.5)
    p = 2.0
    w1, w2, s_norm = jones_factorize(w, p, s, seed=cfg.seed)
    recon = w1.values ** (1.0 - p) * w2.values
    rec_err = float(np.abs(recon / w.field.values - 1.0).max())
    a1_1 = a1_constant(w1, s)
    a1_2 = a1_constant(w2, s)
    # product direction: u v^{1-p} lands in A_p with constant a1(u) a1(v)^{p-1}
    prod = Weight(Field(g, w2.values * w1.values ** (1.0 - p)))
    ap_prod = ap_constant(prod, p, s)
    product_ok = ap_prod <= a1_2 * a1_1 ** (p - 1.0) * 1.05
    ok = rec_err <= 1e-10 and math.isfinite(a1_1) and math.isfinite(a1_2) and product_ok
    return {
        "lhs": rec_err, "rhs": 1.0, "bound": 1e-10, "slack": 0.0,
        "verdict": "pass" if ok else "fail",
        "bound_class": "paper", "grid": f"1d/{g.cells[0]}",
        "params": {"a1_w1": a1_1, "a1_w2": a1_2, "S_norm": s_norm,
                   "ap_product": ap_prod},
    }


@register("rdf", "sublinear majorant iteration: domination, norm control, A_1 output")
def check_rdf(cfg):
    s = elliptic_structure(1)
    g = make_grid(1, 1.0, cfg.cells(512))
    w = power_weight(g, 0.5)
    rng = np.random.default_rng(cfg.seed)
    f = Field(g, rng.random(g.cells) + 0.05)
    v, t_norm = rdf_iterate(f, w, 2.0, s, seed=cfg.seed)
    dom = bool(np.all(f.values <= v.values * (1 + 1e-12)))
    nv = lp_norm(v, 2.0, weight=w.field)
    nf = lp_norm(f, 2.0, weight=w.field)
    fam = BallFamily.for_structure(s, g, shape="cube", density=6.0)
    vw = Field(g, v.values * w.field.values)
    mvw = classical_maximal(vw, s, family=fam)
    ptwise = float((mvw.values / vw.values).max())
    ok = dom and nv <= 2.0 * nf and ptwise <= 2.0 * t_norm * 1.05
    return {
        "lhs": nv / nf if dom else math.inf, "rhs": 2.0, "bound": 1.0,
        "verdict": "pass" if ok else "fail",
        "bound_class": "paper", "grid": f"1d/{g.cells[0]}",
        "params": {"T_norm": t_norm, "pointwise_ratio": ptwise,
                   "bound_pointwise": 2.0 * t_norm},
    }


@register("adams-weighted", "weighted potential inequality for power weights inside the admissible wedge")
def check_adams_weighted(cfg):
    d, p, q = 3, 1.5, 2.0
    s = elliptic_structure(d)
    beta_w = 0.5  # in (-(p-1)d, (q-p)d/q) = (-3, 0.75)
    fits = []
    for n in (48, 64):
        g = make_grid(d, math.pi, cfg.cells(n), periodic=True)
        w = power_weight(g, -beta_w).field
        b_p = Field(g, np.minimum(g.radius() ** -p, (min(g.h)) ** -p))
        worst = 0.0
        for k in range(3):
            u = random_signed(g, cfg.seed + 5 * k, kmax=4)
            from ..solvers import spectral_derivative_fields

            du, _, _, _ = spectral_derivative_fields(u, s)
            du2 = np.sqrt(sum(x ** 2 for x in du))
            num = float((np.abs(u.values) ** p * b_p.values * w.values).sum())
            den = float((du2 ** p * w.values).sum())
            worst = max(worst, num / den)
        fits.append(worst)
    return {
        "lhs": stability(fits), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "3d/48-64",
        "params": {"fitted": fits, "beta": beta_w},
    }


@register("adams-weighted-model", "model case: weighted Hardy with the drift and weight both powers")
def check_adams_weighted_model(cfg):
    d, p, q = 3, 1.5, 2.0
    beta_w = 0.5
    s = elliptic_structure(d)
    # integrability side condition: p + beta < d
    cond = p + beta_w < d
    g = make_grid(d, 4.0, cfg.cells(48))
    r = g.radius()
    fits = []
    from .elliptic import _radial_profiles

    for name, parm, u, du2, _lap in _radial_profiles(g, d):
        wvals = np.minimum(r ** (-beta_w), (min(g.h) / 2) ** (-beta_w))
        num = float((np.abs(u) ** p * r ** (-p) * wvals).sum())
        den = float((du2 ** (p / 2.0) * wvals).sum())
        if den > 0:
            fits.append(num / den)
    ok = cond and all(math.isfinite(v) for v in fits)
    return {
        "lhs": max(fits), "rhs": 1.0, "bound": math.inf,
        "verdict": "pass" if ok else "fail",
        "bound_class": "existential", "grid": f"3d/{g.cells[0]}",
        "params": {"fits": fits, "p_plus_beta_lt_d": cond},
    }


@register("laplace-weighted", "lambda-scaled resolvent bound in the weighted p-norm")
def check_laplace_weighted(cfg):
    s = elliptic_structure(2)
    p = 2.0
    vals = []
    for n in (48, 96):
        g = make_grid(2, math.pi, cfg.cells(n), periodic=True)
        w = power_weight(g, 0.5).field
        worst = 0.0
        for k in range(4):
            u = random_signed(g, cfg.seed + 3 * k)
            ops = [OperatorSpec("laplace", lam=lam) for lam in (1.0, 10.0, 100.0)]
            for rr in apriori_ratios(u, ops, NormSpec("LpW", p=p, weight=w), s):
                worst = max(worst, rr["ratio"])
        vals.append(worst)
    return {
        "lhs": stability(vals), "rhs": 1.0, "bound": 1.10,
        "bound_class": "existential", "grid": "2d/48-96",
        "params": {"ratios": vals},
    }


@register("drift-weighted", "weighted resolvent with inverse-distance drift: small drift keeps the ratio finite")
def check_drift_weighted(cfg):
    from ..solvers import DriftDivergence, solve_drift
    from .elliptic import _drift_critical_scale

    d = 2
    s = elliptic_structure(d)
    g = make_grid(d, math.pi, cfg.cells(64), periodic=True)
    w = power_weight(g, 0.5).field
    f = bump_mix(g, cfg.seed, nonneg=False)
    f = Field(g, f.values - f.values.mean())
    xs = g.mesh()
    r2 = np.maximum(sum(x ** 2 for x in xs), (min(g.h) / 2) ** 2)
    b_unit = [Field(g, -x / r2) for x in xs]
    crit = _drift_critical_scale(f, 4.0, b_unit, s)
    ratio = math.inf
    try:
        b = [Field(g, 0.1 * crit * bi.values) for bi in b_unit]
        u, _ = solve_drift(f, 4.0, b, s)
        op = OperatorSpec("laplace", lam=4.0, b=b)
        ratio = apriori_ratio(u, op, NormSpec("LpW", p=2.0, weight=w), s)["ratio"]
    except DriftDivergence:
        pass
    diverged_large = False
    try:
        b = [Field(g, 10.0 * crit * bi.values) for bi in b_unit]
        solve_drift(f, 4.0, b, s, max_iter=25)
    except DriftDivergence:
        diverged_large = True
    ok = math.isfinite(ratio) and diverged_large
    return {
        "lhs": ratio, "rhs": 1.0, "bound": math.inf,
        "verdict": "pass" if ok else "fail",
        "bound_class": "existential", "grid": f"2d/{g.cells[0]}",
        "params": {"critical_scale": crit, "weighted_ratio": ratio},
    }
