"""Dyadic filtration, maximal-inequality and Fefferman-Stein checks."""

from __future__ import annotations

import math

import numpy as np

from ..dyadic import (
    box_doubling_constant,
    conditional_average,
    cz_decompose,
    dyadic_maximal,
    dyadic_sharp,
    stopping_time,
)
from ..grid import Field, integrate, lp_norm, make_grid
from ..maximal import classical_maximal, classical_sharp
from .common import (centred, elliptic_structure, grid_label, random_nonneg, random_signed,
                     refine, refinement_report, worst)
from .report import register


@register("dyadic-mean", "conditional averages preserve integrals over stopped sets")
def check_dyadic_mean(cfg):
    s = elliptic_structure(1)
    g = make_grid(1, 2.0, cfg.cells(1024))
    rng = np.random.default_rng(cfg.seed)
    errs = []  # (|int f_tau - int f|, |int f|) over each stopped set, then the whole space
    for trial in range(6):
        f = random_nonneg(g, cfg.seed + trial)
        lam = rng.uniform(1.2, 3.0) * float(f.values.mean())
        tau = stopping_time(f, s, lam)
        ftau = tau.stopped_value(f, s)
        for gsel in range(1, int(tau.generations.max()) + 1 if tau.generations.max() >= 1 else 1):
            mask = tau.generations == gsel
            if not mask.any():
                continue
            a = float((ftau.values * mask).sum()) * g.cell_volume
            b = float((f.values * mask).sum()) * g.cell_volume
            errs.append((abs(a - b), abs(b)))
        # whole space: integral preserved exactly
        a = integrate(ftau)
        b = integrate(f)
        errs.append((abs(a - b), abs(b)))
    return {
        "lhs": worst(e for e, _ in errs), "rhs": max(worst(b for _, b in errs), 1e-300),
        "bound": 1e-12,
        "bound_class": "paper", "slack": 0.0,
        "grid": grid_label(s, g), "params": {"trials": 6},
    }


@register("cz-sandwich", "decomposition measure sandwich between the level and its double")
def check_cz_sandwich(cfg):
    s = elliptic_structure(1)
    g = make_grid(1, 2.0, cfg.cells(1024))
    rng = np.random.default_rng(cfg.seed)
    n0 = box_doubling_constant(g, s)

    def ratios():
        for trial in range(8):
            f = random_nonneg(g, cfg.seed + 17 * trial)
            lam = rng.uniform(1.3, 4.0) * float(f.values.mean())
            boxes, good = cz_decompose(f, s, lam)
            if not boxes:
                continue
            bad_mask = ~good
            mu_bad = float(bad_mask.sum()) * g.cell_volume
            int_bad = float(f.values[bad_mask].sum()) * g.cell_volume
            if mu_bad > 0:
                yield int_bad / (n0 * lam) / mu_bad
                yield mu_bad / (int_bad / lam)

    return {
        "lhs": worst(ratios()), "rhs": 1.0, "bound": 1.0, "bound_class": "paper",
        "grid": grid_label(s, g), "params": {"N0": n0},
    }


@register("maximal-weak", "weak-type sandwich for the dyadic maximal function")
def check_maximal_weak(cfg):
    s = elliptic_structure(1)
    g = make_grid(1, 2.0, cfg.cells(1024))
    rng = np.random.default_rng(cfg.seed)
    n0 = box_doubling_constant(g, s)

    def ratios():
        for trial in range(8):
            f = random_nonneg(g, cfg.seed + 31 * trial)
            m = dyadic_maximal(f, s)
            lam = rng.uniform(1.1, 3.0) * float(f.values.mean())
            above = m.values > lam
            mu = float(above.sum()) * g.cell_volume
            mass = float(f.values[above].sum()) * g.cell_volume
            if mu > 0:
                yield mass / (n0 * lam) / mu
                yield mu / (mass / lam)

    return {
        "lhs": worst(ratios()), "rhs": 1.0, "bound": 1.0, "bound_class": "paper",
        "grid": grid_label(s, g), "params": {"N0": n0},
    }


@register("dyadic-strong", "strong-type dyadic maximal bound with the dual-exponent constant")
def check_dyadic_strong(cfg):
    p, d, n_seeds = 2.0, 1, 20
    s = elliptic_structure(d)
    g = make_grid(d, 1.0, cfg.cells(1024))
    fitted = worst(lp_norm(dyadic_maximal(f, s), p) / lp_norm(f, p)
                   for f in (random_nonneg(g, cfg.seed + 101 * k) for k in range(n_seeds)))
    return {
        "lhs": fitted, "rhs": p / (p - 1.0), "bound": 1.0, "bound_class": "paper",
        "grid": grid_label(s, g), "params": {"p": p, "d": d, "seeds": n_seeds},
    }


@register("lebesgue-diff", "piecewise-constant fields are reproduced once boxes refine below the pieces")
def check_lebesgue_diff(cfg):
    s = elliptic_structure(1)
    g = make_grid(1, 2.0, cfg.cells(1024))
    rng = np.random.default_rng(cfg.seed)
    # constant on generation-4 boxes
    block = g.cells[0] // 16
    vals = np.repeat(rng.random(16), block)
    f = Field(g, vals)
    err = 0.0
    for gen in (4, 5, 6):
        avg = conditional_average(f, s, gen)
        err = max(err, float(np.abs(avg.values - f.values).max()))
    return {
        "lhs": err, "rhs": 1.0, "bound": 1e-14, "bound_class": "paper",
        "slack": 0.0, "grid": grid_label(s, g), "params": {"pieces": 16},
    }


@register("fs-dyadic", "dyadic sharp function controls the p-norm with the explicit constant")
def check_fs_dyadic(cfg):
    s = elliptic_structure(1)
    g = make_grid(1, 2.0, cfg.cells(1024))
    params = {}
    n0 = box_doubling_constant(g, s)
    pairs = [(f, dyadic_sharp(f, s))
             for f in (centred(random_signed(g, cfg.seed + 7 * k, kmax=40)) for k in range(10))]
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        bound = (2.0 * q) ** p * n0 ** (p - 1.0)
        norms = [(lp_norm(f, p), lp_norm(sharp, p)) for f, sharp in pairs]
        params[f"p{p}"] = {"ratio": worst(nf / ns for nf, ns in norms if ns > 0), "bound": bound}
    return {
        "lhs": worst(v["ratio"] / v["bound"] for v in params.values()),
        "rhs": 1.0, "bound": 1.0, "bound_class": "paper",
        "grid": grid_label(s, g), "params": params,
    }


@register("sharp-compare", "dyadic sharp dominated by the Euclidean sharp; modulus bound exact")
def check_sharp_compare(cfg):
    s = elliptic_structure(1)
    grids = [make_grid(1, 2.0, cfg.cells(n)) for n in (512, 1024)]
    fitted = []
    # its own level loop, not refine's: a level that breaks the exact
    # modulus bound ends the check there
    for g in grids:
        n_fit = 0.0
        for k in range(4):
            f = random_signed(g, cfg.seed + k, kmax=20)
            sharp_d = dyadic_sharp(f, s)
            sharp_e = classical_sharp(f, s)
            with np.errstate(invalid="ignore", divide="ignore"):
                r = np.where(sharp_e.values > 1e-12, sharp_d.values / sharp_e.values, 0.0)
            n_fit = max(n_fit, float(r.max()))
            # |f|^# <= 2 f^# pointwise, exactly
            sharp_abs = dyadic_sharp(Field(g, np.abs(f.values)), s)
            if np.any(sharp_abs.values > 2.0 * sharp_d.values + 1e-12):
                return {"lhs": math.inf, "rhs": 1.0, "bound": 1.1,
                        "bound_class": "paper", "grid": grid_label(s, g), "params": {}}
        fitted.append(n_fit)
    return refinement_report(s, grids, fitted, params={"fitted_N": fitted})


@register("hl-classical", "classical maximal operator bounded on L_p, stable under refinement")
def check_hl_classical(cfg):
    s = elliptic_structure(2)
    grids = [make_grid(2, 1.0, cfg.cells(n)) for n in (64, 128, 256)]
    return refine(s, grids, lambda g: {"ratios": worst(
        lp_norm(classical_maximal(f, s), 2) / lp_norm(f, 2)
        for f in (random_nonneg(g, cfg.seed + 5 * k) for k in range(3)))})
