"""Laplace-equation estimates: energy identity, CZ bound, sharp-function
control, interpolation, resolvent a-priori families, Hardy and Adams
inequalities, Morrey-space variants, and the two counterexamples."""

from __future__ import annotations

import math

import numpy as np

from ..grid import Field, integrate, lp_norm, make_grid
from ..maximal import classical_maximal, classical_sharp
from ..norms import NormSpec, drift_seminorm, evaluate_norm, evaluate_norms
from ..potentials import KernelSpec, apply_kernel
from ..solvers import (
    DriftDivergence,
    OperatorSpec,
    apriori_ratios,
    gradient_magnitude,
    hessian_magnitude,
    oscillation_estimate,
    solve_drift,
    solve_laplace,
    spectral_derivative_fields,
)
from ..testfunctions import test_function
from .common import (
    bump_mix,
    elliptic_structure,
    grid_label,
    growth_verdict,
    mean_zero_source,
    random_signed,
    refine,
    run_levels,
    stability,
    worst,
)
from .report import register


@register("energy-laplace", "exact L2 identity between the full Hessian and the Laplacian")
def check_energy_laplace(cfg):
    s = elliptic_structure(2)
    g = make_grid(2, math.pi, cfg.cells(64), periodic=True)

    def errors():
        for k in range(5):
            _, d2, lap, _ = spectral_derivative_fields(random_signed(g, cfg.seed + k), s)
            num = math.sqrt(sum(float((d2[i][j] ** 2).sum()) for i in range(2) for j in range(2)))
            yield abs(num / math.sqrt(float((lap ** 2).sum())) - 1.0)

    return {
        "lhs": worst(errors()), "rhs": 1.0, "bound": 1e-10, "bound_class": "paper",
        "slack": 0.0, "grid": grid_label(s, g), "params": {"p": 2, "lam": 0},
    }


@register("cz-lp", "Hessian controlled by the Laplacian in L_p, refinement-stable")
def check_cz_lp(cfg):
    s = elliptic_structure(2)
    grids = [make_grid(2, math.pi, cfg.cells(n), periodic=True) for n in (32, 64, 128)]

    def level(g):
        fields = [spectral_derivative_fields(random_signed(g, cfg.seed + 13 * k), s)[1:3]
                  for k in range(4)]
        return {str(p): worst(lp_norm(Field(g, hessian_magnitude(d2)), p)
                              / lp_norm(Field(g, lap), p) for d2, lap in fields)
                for p in (1.5, 3.0)}

    return refine(s, grids, level)


@register("sharp-d2u", "sharp function of the Hessian bounded by the maximal p-mean of the source")
def check_sharp_d2u(cfg):
    s = elliptic_structure(2)
    p = 1.5
    grids = [make_grid(2, math.pi, cfg.cells(n), periodic=True) for n in (48, 96)]

    def level(g):
        f = mean_zero_source(g, cfg.seed)
        _, d2, _, _ = spectral_derivative_fields(solve_laplace(f, 0.0), s)
        sharp = classical_sharp(Field(g, hessian_magnitude(d2)), s)
        mp = classical_maximal(Field(g, np.abs(f.values) ** p), s)
        rhs = np.maximum(mp.values, 1e-300) ** (1.0 / p)
        return {"fitted_N": float(np.max(sharp.values / rhs))}

    return refine(s, grids, level, {"p": p})


@register("interp-grad", "gradient interpolation between the function and its Hessian")
def check_interp_grad(cfg):
    s = elliptic_structure(2)
    g = make_grid(2, math.pi, cfg.cells(64), periodic=True)
    p = 2.0
    trials = {"local": [], "sharp": [], "global": []}
    for k in range(5):
        u = random_signed(g, cfg.seed + 3 * k)
        du, d2, _, _ = spectral_derivative_fields(u, s)
        du_mag = gradient_magnitude(du)
        d2_mag = hessian_magnitude(d2)
        xs = g.mesh()
        for r in (1.0, 2.0):
            ball = sum(x ** 2 for x in xs) < r ** 2
            iu = float((np.abs(u.values[ball]) ** p).sum())
            idu = float((du_mag[ball] ** p).sum())
            id2 = float((d2_mag[ball] ** p).sum())
            trials["local"] += [idu / (eps ** p * id2 + eps ** -p * iu)
                                for eps in (r / 4, r / 2, r)]
        m2 = classical_maximal(Field(g, d2_mag), s)
        m0 = classical_maximal(u, s)
        rhs = np.sqrt(np.maximum(m2.values * m0.values, 1e-300))
        trials["sharp"] += [float((classical_sharp(Field(g, du[i]), s).values / rhs).max())
                            for i in range(2)]
        trials["global"].append(lp_norm(Field(g, du_mag), p) ** 2
                                / (lp_norm(Field(g, d2_mag), p) * lp_norm(u, p)))
    fits = {name: worst(vals) for name, vals in trials.items()}
    ok = all(math.isfinite(v) for v in fits.values())
    return {
        "lhs": 1.0 if ok else math.inf, "rhs": 1.0, "bound": 1.0,
        "bound_class": "existential", "slack": 0.0,
        "grid": grid_label(s, g), "params": fits,
    }


@register("resolvent-apriori", "lambda-scaled elliptic resolvent a-priori ratio, stable under refinement")
def check_resolvent_apriori(cfg):
    s = elliptic_structure(2)
    spec = NormSpec("Lp", p=3.0)
    grids = [make_grid(2, math.pi, cfg.cells(n), periodic=True) for n in (32, 64, 128)]
    ops = [OperatorSpec("laplace", lam=lam) for lam in (1.0, 10.0, 100.0)]
    # the worst L_3 ratio at each refinement level
    return refine(s, grids, lambda g: {"ratios": worst(
        r["ratio"] for k in range(8)
        for r in apriori_ratios(random_signed(g, cfg.seed + 7 * k), ops, spec, s))}, {"p": 3.0})


@register("osc-kappa", "two-scale oscillation bound for the Hessian with local and tail terms")
def check_osc_kappa(cfg):
    s = elliptic_structure(2)
    p = 2.0
    grids = [make_grid(2, math.pi, cfg.cells(n), periodic=True) for n in (64, 128)]

    def ratios(g):
        f = mean_zero_source(g, cfg.seed)
        u = solve_laplace(f, 0.0)
        for kappa in (2.0, 4.0, 8.0):
            data = oscillation_estimate(u, Field(g, np.abs(f.values)), s, kappa, 0.1, p)
            denom = data["term_local"] + data["term_tail"]
            if denom > 0:
                yield data["osc"] / denom

    return refine(s, grids, lambda g: {"fitted_N": worst(ratios(g))}, {"p": p}, bound=1.15)


def _radial_profiles(g, d):
    """(u, |Du|^2, |Delta u|) triples from closed forms."""
    r = g.radius()
    out = []
    for sigma in (0.5, 1.0):
        u = np.exp(-(r ** 2) / (2 * sigma ** 2))
        du2 = (r / sigma ** 2) ** 2 * u ** 2
        lap = (r ** 2 / sigma ** 4 - d / sigma ** 2) * u
        out.append(("gaussian", sigma, u, du2, np.abs(lap)))
    for big_r in (1.2,):
        t = r / big_r
        inside = t < 1
        u = np.zeros_like(r)
        du2 = np.zeros_like(r)
        lap = np.zeros_like(r)
        ti = t[inside]
        phi = -1.0 / (1.0 - ti ** 2)
        phip = -2.0 * ti / (1.0 - ti ** 2) ** 2
        phipp = -2.0 / (1.0 - ti ** 2) ** 2 - 8.0 * ti ** 2 / (1.0 - ti ** 2) ** 3
        uu = np.exp(phi)
        up = phip * uu / big_r
        upp = (phipp + phip ** 2) * uu / big_r ** 2
        u[inside] = uu
        du2[inside] = up ** 2
        with np.errstate(invalid="ignore", divide="ignore"):
            lp_ = upp + (d - 1) * up / np.maximum(r[inside], 1e-12)
        lap[inside] = lp_
        out.append(("bump", big_r, u, du2, np.abs(lap)))
    cut_r = 0.8 * min(g.half_extent)
    for eps in (0.2, 0.4):
        gam = 0.5
        base = r ** 2 + eps ** 2
        v = base ** (-gam / 2)
        vp = -gam * r * base ** (-gam / 2 - 1)
        vpp = -gam * base ** (-gam / 2 - 1) + gam * (gam + 2) * r ** 2 * base ** (-gam / 2 - 2)
        # smooth tail cutoff keeps the Dirichlet integral finite on R^d
        t = r / cut_r
        inside = t < 1
        chi = np.zeros_like(r)
        chip = np.zeros_like(r)
        chipp = np.zeros_like(r)
        ti = t[inside]
        e = np.exp(1.0 - 1.0 / (1.0 - ti ** 2))
        ep = e * (-2.0 * ti / (1.0 - ti ** 2) ** 2) / cut_r
        epp = e * ((-2.0 / (1.0 - ti ** 2) ** 2 - 8.0 * ti ** 2 / (1.0 - ti ** 2) ** 3)
                   + (2.0 * ti / (1.0 - ti ** 2) ** 2) ** 2) / cut_r ** 2
        chi[inside] = e
        chip[inside] = ep
        chipp[inside] = epp
        u = v * chi
        up = vp * chi + v * chip
        upp = vpp * chi + 2.0 * vp * chip + v * chipp
        with np.errstate(invalid="ignore", divide="ignore"):
            lap = upp + (d - 1) * up / np.maximum(r, 1e-12)
        du2 = up ** 2
        out.append(("mollified_power", eps, u, du2, np.abs(lap)))
    return out


@register("hardy-grad", "Hardy inequality: u over |x| controlled by the gradient, sharp constant")
def check_hardy_grad(cfg):
    d = 3
    g = make_grid(d, 4.0, cfg.cells(64))
    w2 = test_function("power", g, gamma=2.0)
    ratios = [(name, integrate(Field(g, u ** 2), weight=w2) / (float(du2.sum()) * g.cell_volume))
              for name, parm, u, du2, _lap in _radial_profiles(g, d)]
    gauss_ratio = next(ratio for name, ratio in ratios if name == "gaussian")
    sharp = (2.0 / (d - 2.0)) ** 2
    gauss_err = abs(gauss_ratio - 4.0 / 3.0) / (4.0 / 3.0)
    ok_gauss = gauss_err <= 0.02
    return {
        "lhs": worst(ratio for _, ratio in ratios) if ok_gauss else math.inf,
        "rhs": sharp, "bound": 1.0,
        "bound_class": "paper", "slack": 0.05, "grid": grid_label(None, g),
        "params": {"gaussian_ratio": gauss_ratio, "sharp_const": sharp},
    }


@register("hardy-lap", "second-order Hardy inequality against the Laplacian")
def check_hardy_lap(cfg):
    d = 3
    r_exp = 1.25  # needs 1 < r < d/2
    grids = [make_grid(d, 4.0, cfg.cells(n)) for n in (48, 64)]

    def ratios(g):
        w = test_function("power", g, gamma=2.0 * r_exp)
        for name, parm, u, _du2, lap in _radial_profiles(g, d):
            num = integrate(Field(g, np.abs(u) ** r_exp), weight=w)
            den = float((lap ** r_exp).sum()) * g.cell_volume
            if den > 0:
                yield num / den

    return refine(None, grids, lambda g: {"fitted_N": worst(ratios(g)) ** (1.0 / r_exp)},
                  {"r": r_exp})


def _profile_slope(profile):
    rs = np.log([r for r, _ in profile])
    vs = [v for _, v in profile]
    if any(not math.isfinite(v) or v <= 0 for v in vs):
        return -math.inf
    return float(np.polyfit(rs, np.log(vs), 1)[0])


@register("adams", "Riesz potential weighted by a Morrey function: norm transfer plus out-of-class divergence")
def check_adams(cfg):
    d = 3
    s = elliptic_structure(d)
    r_exp, p0 = 1.5, 2.0
    grids = [make_grid(d, 1.5, cfg.cells(n)) for n in (40, 56, 80)]

    def level(g):
        # the in-class and the escalated power share p, beta and the radii
        (a_norm, _), (bad, bad_prof) = evaluate_norms(
            [test_function("power", g, gamma=1.0), test_function("power", g, gamma=1.2)],
            NormSpec("EpbDot", p=p0, beta=1.0), s, return_profile=True)
        f = bump_mix(g, cfg.seed)
        rf = apply_kernel(f, KernelSpec("riesz", alpha=1.0))
        w_r = test_function("power", g, gamma=r_exp)  # |x|^{-r}
        num = integrate(Field(g, np.abs(rf.values) ** r_exp), weight=w_r.copy())
        den = a_norm ** r_exp * float((np.abs(f.values) ** r_exp).sum()) * g.cell_volume
        return {"ratios": num / den, "bad_seminorms": bad, "bad_profile": bad_prof}

    seqs = run_levels(grids, level)
    ratios = seqs["ratios"]
    # divergence of the escalated seminorm: the sup rides the smallest scales
    # with a genuinely negative power-law exponent, so it is unbounded as the
    # family refines; the in-class exponent is scale-invariant (slope ~ 0)
    slope = _profile_slope(seqs["bad_profile"][-1])
    diverged = slope <= -0.10 and growth_verdict(seqs["bad_seminorms"], grow_factor=1.10)
    stable = stability(ratios) <= 1.10
    verdict = "pass" if (stable and diverged) else "fail"
    return {
        "lhs": ratios[-1], "rhs": 1.0, "bound": math.inf, "verdict": verdict,
        "bound_class": "existential", "grid": grid_label(s, grids),
        "params": {"ratios": ratios, "bad_slope": slope, "bad_seminorms": seqs["bad_seminorms"]},
    }


@register("adams-cf", "gradient version of the weighted potential inequality")
def check_adams_cf(cfg):
    d = 3
    s = elliptic_structure(d)
    r_exp = 1.5
    grids = [make_grid(d, math.pi, cfg.cells(n), periodic=True) for n in (48, 64)]

    def ratios(g):
        b_r = test_function("power", g, gamma=r_exp)
        for k in range(3):
            du, d2, _, _ = spectral_derivative_fields(random_signed(g, cfg.seed + k, kmax=4), s)
            num = integrate(Field(g, gradient_magnitude(du) ** r_exp), weight=b_r.copy())
            yield num / (float((hessian_magnitude(d2) ** r_exp).sum()) * g.cell_volume)

    return refine(s, grids, lambda g: {"fitted": worst(ratios(g))})


@register("morrey-b-ex", "disjoint-bump field: Morrey-bounded but not in any better Lebesgue class")
def check_morrey_b_ex(cfg):
    d, p, q = 2, 1.0, 1.3
    s = elliptic_structure(d)
    grids = [make_grid(d, 1.25, cfg.cells(n)) for n in (128, 256, 512)]

    def level(g):
        b, radii = test_function("cz_bump", g, p=p)
        return {"seminorms": evaluate_norm(b, NormSpec("EpbDot", p=p, beta=1.0), s),
                "Lq_norms": lp_norm(b, q, region=([0.0, -0.6], [1.05, 0.6]))}

    seqs = run_levels(grids, level)
    stable = stability(seqs["seminorms"]) <= 1.12
    diverged = growth_verdict(seqs["Lq_norms"], grow_factor=1.15)
    verdict = "pass" if (stable and diverged) else "fail"
    return {
        "lhs": seqs["seminorms"][-1], "rhs": 1.0, "bound": math.inf, "verdict": verdict,
        "bound_class": "counterexample", "grid": grid_label(s, grids),
        "params": {**seqs, "q": q},
    }


@register("morrey-interp", "gradient interpolation inside the Morrey scale")
def check_morrey_interp(cfg):
    s = elliptic_structure(2)
    p, beta = 2.0, 0.8
    grids = [make_grid(2, math.pi, cfg.cells(n), periodic=True) for n in (64, 128)]

    def ratios(g):
        for k in range(3):
            u = random_signed(g, cfg.seed + 11 * k)
            du, d2, _, _ = spectral_derivative_fields(u, s)
            ndu, nd2, nu = evaluate_norms(
                [Field(g, gradient_magnitude(du)), Field(g, hessian_magnitude(d2)), u],
                NormSpec("Epbr", p=p, beta=beta), s)
            for eps in (0.25, 0.5, 1.0):
                yield ndu / (eps * nd2 + nu / eps)

    return refine(s, grids, lambda g: {"fitted_N": worst(ratios(g))})


@register("riesz-morrey", "Riesz potential maps between homogeneous Morrey spaces")
def check_riesz_morrey(cfg):
    d, alpha, beta, p = 2, 1.0, 1.5, 1.2
    r_t = p * beta / (beta - alpha)
    s = elliptic_structure(d)
    grids = [make_grid(d, 2.0, cfg.cells(n)) for n in (64, 128)]

    def level(g):
        f = bump_mix(g, cfg.seed)
        rf = apply_kernel(f, KernelSpec("riesz", alpha=alpha))
        num = evaluate_norm(rf, NormSpec("EpbDot", p=r_t, beta=beta - alpha), s)
        return {"fitted": num / evaluate_norm(f, NormSpec("EpbDot", p=p, beta=beta), s)}

    return refine(s, grids, level, {"r": r_t})


@register("morrey-embed", "sup bound and Holder modulus from Morrey-Sobolev control")
def check_morrey_embed(cfg):
    s = elliptic_structure(2)
    p, beta = 2.0, 0.8
    grids = [make_grid(2, math.pi, cfg.cells(n), periodic=True) for n in (64, 128)]

    def level(g):
        sups, holders = [], []
        for k in range(3):
            u = random_signed(g, cfg.seed + 23 * k)
            du, d2, _, _ = spectral_derivative_fields(u, s)
            nd2, nu, ndu = evaluate_norms(
                [Field(g, hessian_magnitude(d2)), u, Field(g, gradient_magnitude(du))],
                NormSpec("Epbr", p=p, beta=beta), s)
            sups += [float(np.abs(u.values).max()) / (eps ** (2 - beta) * nd2 + eps ** (-beta) * nu)
                     for eps in (0.25, 0.5, 1.0)]
            # Holder quotient of the gradient components, beta < 1
            rng = np.random.default_rng(cfg.seed + k)
            idx = rng.integers(0, min(g.cells), size=(40, 2, 2))
            xs = g.axes()
            for a_pt, b_pt in idx:
                dx = math.hypot(xs[0][a_pt[0]] - xs[0][b_pt[0]],
                                xs[1][a_pt[1]] - xs[1][b_pt[1]])
                if dx == 0 or dx > 1.0:
                    continue
                diff = abs(float(u.values[tuple(a_pt)]) - float(u.values[tuple(b_pt)]))
                holders.append(diff / (dx ** (1 - beta) * (ndu + nu)))
        return {"sup": worst(sups), "holder": worst(holders)}

    return refine(s, grids, level)


@register("fail-1.17.4", "ridge profile: drift term not absorbable into the Hessian at any small eps")
def check_fail_1174(cfg):
    d, beta, p = 3, 1.5, 4.0 / 3.0
    s = elliptic_structure(d)
    g = make_grid(d, 0.75, cfg.cells(96))
    radii = tuple(2.0 * max(g.h) * 2 ** (0.5 * j) for j in range(9))
    ratios = {}
    for kappa in (0.25, 0.1, 0.05):
        # u is not read: only the two fields of the ratio are kept
        b_du, d2 = test_function("kappa_ridge", g, kappa=kappa, beta=beta)[1:]
        n_num = evaluate_norm(b_du, NormSpec("Epbr", p=p, beta=beta, r=0.7), s,
                              radii=radii)
        n_den = evaluate_norm(d2, NormSpec("Epbr", p=p, beta=beta, r=0.7), s,
                              radii=radii)
        ratios[kappa] = n_num / n_den
    vals = list(ratios.values())
    lo, hi = min(vals), max(vals)
    no_decay = lo > 0 and lo >= 0.3 * hi
    return {
        "lhs": lo, "rhs": 1.0, "bound": math.inf,
        "verdict": "diverged_as_expected" if no_decay else "fail",
        "bound_class": "counterexample", "grid": grid_label(s, g),
        "params": {"ratios": {str(k): v for k, v in ratios.items()},
                   "beta": beta, "p": p},
    }


@register("fail-1.17.1", "inverse-square drift with exponential profile: zero-residual eigenpair")
def check_fail_1171(cfg):
    d, lam = 3, 1.0
    s = elliptic_structure(d)
    g = make_grid(d, 4.0, cfg.cells(64))
    u, b, resid = test_function("exp_drift_pair", g, lam=lam)
    r = g.radius()
    outside = r > 0.1
    res_out = float(np.abs(resid.values[outside]).max())
    scale = float(np.abs(u.values).max())
    den = math.sqrt(float((resid.values[outside] ** 2).sum()) * g.cell_volume)
    u_norm = lp_norm(u, 2)
    seminorm = drift_seminorm(b, 2.5, 1.0, s)
    diverged = res_out <= 1e-8 * scale and den <= 1e-10 * u_norm and math.isfinite(seminorm)
    return {
        "lhs": res_out / scale, "rhs": 1.0, "bound": 1e-8,
        "verdict": "diverged_as_expected" if diverged else "fail",
        "bound_class": "counterexample", "grid": grid_label(s, g),
        "params": {"drift_seminorm": seminorm, "denominator": den,
                   "u_norm": u_norm},
    }


@register("laplace-morrey", "lambda-scaled resolvent bound in the local Morrey norm")
def check_laplace_morrey(cfg):
    s = elliptic_structure(2)
    p, beta = 2.0, 0.8
    grids = [make_grid(2, math.pi, cfg.cells(n), periodic=True) for n in (48, 96)]
    ops = [OperatorSpec("laplace", lam=lam) for lam in (1.0, 10.0)]
    spec = NormSpec("Epbr", p=p, beta=beta)
    return refine(s, grids, lambda g: {"ratios": worst(
        r["ratio"] / (1.0 + 1.0 / op.lam) for k in range(4)
        for op, r in zip(ops, apriori_ratios(random_signed(g, cfg.seed + 3 * k), ops, spec, s)))})


def _drift_critical_scale(f, lam, b_unit, s):
    """Smallest power-of-two scale at which the iteration diverges."""
    scale = 0.25
    for _ in range(14):
        b = [Field(f.grid, scale * bi.values) for bi in b_unit]
        try:
            solve_drift(f, lam, b, s, max_iter=25)
        except DriftDivergence:
            return scale
        scale *= 2.0
    return scale


def _inverse_distance_drift(cfg):
    """The set-up of the inverse-distance drift checks at lam = 4 on the
    64^2 torus: (s, g, f, b, crit, diverged_large), f a mean-zero source,
    crit the critical scale of the drift -x/|x|^2 (|x|^2 floored at
    (h/2)^2), b that drift at 0.1 crit, and whether the iteration diverges
    at 10 crit."""
    s = elliptic_structure(2)
    g = make_grid(2, math.pi, cfg.cells(64), periodic=True)
    f = mean_zero_source(g, cfg.seed)
    xs = g.mesh()
    r2 = np.maximum(sum(x ** 2 for x in xs), (min(g.h) / 2) ** 2)
    b_unit = [Field(g, -x / r2) for x in xs]
    crit = _drift_critical_scale(f, 4.0, b_unit, s)
    try:
        solve_drift(f, 4.0, [Field(g, 10.0 * crit * bi.values) for bi in b_unit], s, max_iter=25)
        diverged_large = False
    except DriftDivergence:
        diverged_large = True
    return s, g, f, [Field(g, 0.1 * crit * bi.values) for bi in b_unit], crit, diverged_large


@register("drift-morrey", "inverse-distance drift: converges well below the critical size, diverges above")
def check_drift_morrey(cfg):
    s, g, f, b, crit, diverged_large = _inverse_distance_drift(cfg)
    ok_small = True
    try:
        u, trace = solve_drift(f, 4.0, b, s)
    except DriftDivergence:
        ok_small = False
        trace = []
    verdict = "pass" if (ok_small and diverged_large) else "fail"
    return {
        "lhs": crit, "rhs": 1.0, "bound": math.inf, "verdict": verdict,
        "bound_class": "existential", "grid": grid_label(s, g),
        "params": {"critical_scale": crit, "iters_small": len(trace)},
    }
