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
from ..solvers import (DriftDivergence, OperatorSpec, apriori_ratio, apriori_ratios,
                       gradient_magnitude, solve_drift, spectral_derivative_fields)
from ..weights import (
    Weight,
    _rdf_family,
    a1_constant,
    ainf_profile,
    ap_constant,
    jones_factorize,
    power_weight,
    rdf_iterate,
    reverse_holder,
    self_improve,
)
from .common import (bump_mix, centred, elliptic_structure, grid_label, random_signed, refine,
                     refinement_report, run_levels, stability, worst)
from .elliptic import _inverse_distance_drift, _radial_profiles
from .report import register


@register("ap-range", "power-weight constants: stable inside the admissible range, divergent outside")
def check_ap_range(cfg):
    s = elliptic_structure(1)
    p = 2.0
    inside = (-0.9, 0.0, 0.5, 0.9)
    outside = (-1.5, 1.0, 1.5)
    grids = [make_grid(1, 1.0, cfg.cells(n)) for n in (256, 512, 1024)]
    estimates = run_levels(grids, lambda g: {
        str(alpha): ap_constant(power_weight(g, alpha), p, s) for alpha in inside + outside})
    worst_growth = worst(stability(vals) if all(map(math.isfinite, vals)) else math.inf
                         for vals in (estimates[str(alpha)] for alpha in inside))
    # outside (-d, (p-1)d) the defining integrals are not locally
    # integrable: the exact singular-cell mass is infinite, which is
    # growth beyond any factor per refinement octave
    if any(all(map(math.isfinite, vals)) and stability(vals) < 2.0
           for vals in (estimates[str(alpha)] for alpha in outside)):
        worst_growth = math.inf
    return {
        "lhs": worst_growth, "rhs": 1.0, "bound": 1.10,
        "bound_class": "paper", "grid": grid_label(s, grids), "params": estimates,
    }


@register("rh", "reverse Holder exponent and constant for the square-root power weight")
def check_rh(cfg):
    s = elliptic_structure(1)
    grids = [make_grid(1, 1.0, cfg.cells(n)) for n in (512, 1024)]
    vals = []
    # its own level loop, not refine's: a level with no reverse Holder
    # exponent ends the check there
    for g in grids:
        eps, n_const = reverse_holder(power_weight(g, 0.5), 2.0, s)
        vals.append(n_const)
        if eps <= 0:
            return {"lhs": math.inf, "rhs": 1.0, "bound": 1.10,
                    "bound_class": "existential", "grid": grid_label(s, g), "params": {}}
    # integrability threshold: |x|^{-1/2} caps the search below eps = 1
    g = make_grid(1, 1.0, cfg.cells(512))
    wneg = power_weight(g, -0.5)
    eps_neg, _ = reverse_holder(wneg, 2.0, s)
    report = refinement_report(s, grids, vals, params={"N": vals, "eps_capped_below_1": eps_neg})
    if eps_neg >= 1.0:  # the threshold did not cap the search
        report["lhs"] = math.inf
    return report


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
        "bound_class": "paper", "slack": 0.0, "grid": grid_label(s, g),
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
        "bound_class": "paper", "slack": 0.0, "grid": grid_label(s, g),
        "params": {"q": q, "A_q": a_q, "eps": eps},
    }


@register("muck-max", "maximal operator bounded on the weighted p-space")
def check_muck_max(cfg):
    s = elliptic_structure(1)
    p = 2.0
    grids = [make_grid(1, 1.0, cfg.cells(n)) for n in (512, 1024)]

    def ratios(g):
        w = power_weight(g, 0.5)
        for k in range(4):
            f = bump_mix(g, cfg.seed + k)
            m = classical_maximal(f, s, family=BallFamily.for_structure(s, g, shape="cube"))
            yield lp_norm(m, p, weight=w.field) / lp_norm(f, p, weight=w.field)

    return refine(s, grids, lambda g: {"fitted_N": worst(ratios(g))})


@register("fs-weighted", "sharp function controls the weighted p-norm")
def check_fs_weighted(cfg):
    s = elliptic_structure(1)
    p = 2.0
    grids = [make_grid(1, 1.0, cfg.cells(n)) for n in (512, 1024)]

    def ratios(g):
        w = power_weight(g, 0.5)
        for k in range(5):
            f = centred(random_signed(g, cfg.seed + 7 * k, kmax=40))
            ns = lp_norm(dyadic_sharp(f, s), p, weight=w.field)
            if ns > 0:
                yield lp_norm(f, p, weight=w.field) / ns

    return refine(s, grids, lambda g: {"fitted_N": worst(ratios(g))})


@register("fs-morrey", "sharp function controls the homogeneous Morrey norm")
def check_fs_morrey(cfg):
    s = elliptic_structure(1)
    p, beta = 2.0, 0.4
    spec = NormSpec("EpbDot", p=p, beta=beta)
    grids = [make_grid(1, 1.0, cfg.cells(n)) for n in (512, 1024)]

    def ratios(g):
        for k in range(4):
            f = centred(random_signed(g, cfg.seed + 3 * k, kmax=40))
            ns = evaluate_norm(dyadic_sharp(f, s), spec, s)
            if ns > 0:
                yield evaluate_norm(f, spec, s) / ns

    return refine(s, grids, lambda g: {"fitted_N": worst(ratios(g))})


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
        "bound_class": "paper", "grid": grid_label(s, g),
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
    vw = Field(g, v.values * w.field.values)
    mvw = classical_maximal(vw, s, family=_rdf_family(s, g))
    ptwise = float((mvw.values / vw.values).max())
    ok = dom and nv <= 2.0 * nf and ptwise <= 2.0 * t_norm * 1.05
    return {
        "lhs": nv / nf if dom else math.inf, "rhs": 2.0, "bound": 1.0,
        "verdict": "pass" if ok else "fail",
        "bound_class": "paper", "grid": grid_label(s, g),
        "params": {"T_norm": t_norm, "pointwise_ratio": ptwise,
                   "bound_pointwise": 2.0 * t_norm},
    }


@register("adams-weighted", "weighted potential inequality for power weights inside the admissible wedge")
def check_adams_weighted(cfg):
    d, p, q = 3, 1.5, 2.0
    s = elliptic_structure(d)
    beta_w = 0.5  # in (-(p-1)d, (q-p)d/q) = (-3, 0.75)
    grids = [make_grid(d, math.pi, cfg.cells(n), periodic=True) for n in (48, 64)]

    def ratios(g):
        w = power_weight(g, -beta_w).field
        b_p = Field(g, np.minimum(g.radius() ** -p, (min(g.h)) ** -p))
        for k in range(3):
            u = random_signed(g, cfg.seed + 5 * k, kmax=4)
            du2 = gradient_magnitude(spectral_derivative_fields(u, s)[0])
            num = float((np.abs(u.values) ** p * b_p.values * w.values).sum())
            yield num / float((du2 ** p * w.values).sum())

    return refine(s, grids, lambda g: {"fitted": worst(ratios(g))}, {"beta": beta_w})


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
        "bound_class": "existential", "grid": grid_label(s, g),
        "params": {"fits": fits, "p_plus_beta_lt_d": cond},
    }


@register("laplace-weighted", "lambda-scaled resolvent bound in the weighted p-norm")
def check_laplace_weighted(cfg):
    s = elliptic_structure(2)
    p = 2.0
    grids = [make_grid(2, math.pi, cfg.cells(n), periodic=True) for n in (48, 96)]
    ops = [OperatorSpec("laplace", lam=lam) for lam in (1.0, 10.0, 100.0)]

    def level(g):
        spec = NormSpec("LpW", p=p, weight=power_weight(g, 0.5).field)
        return {"ratios": worst(
            rr["ratio"] for k in range(4)
            for rr in apriori_ratios(random_signed(g, cfg.seed + 3 * k), ops, spec, s))}

    return refine(s, grids, level)


@register("drift-weighted", "weighted resolvent with inverse-distance drift: small drift keeps the ratio finite")
def check_drift_weighted(cfg):
    s, g, f, b, crit, diverged_large = _inverse_distance_drift(cfg)
    w = power_weight(g, 0.5).field
    ratio = math.inf
    try:
        u, _ = solve_drift(f, 4.0, b, s)
        op = OperatorSpec("laplace", lam=4.0, b=b)
        ratio = apriori_ratio(u, op, NormSpec("LpW", p=2.0, weight=w), s)["ratio"]
    except DriftDivergence:
        pass
    ok = math.isfinite(ratio) and diverged_large
    return {
        "lhs": ratio, "rhs": 1.0, "bound": math.inf,
        "verdict": "pass" if ok else "fail",
        "bound_class": "existential", "grid": grid_label(s, g),
        "params": {"critical_scale": crit, "weighted_ratio": ratio},
    }
