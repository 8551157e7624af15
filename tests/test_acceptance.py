"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they complete."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from morreylab.dyadic import dyadic_maximal
from morreylab.grid import Field, integrate, lp_norm, make_grid, make_structure
from morreylab.maximal import BallFamily, classical_maximal
from morreylab.norms import NormSpec, drift_seminorm, evaluate_norm, mixed_norm
from morreylab.solvers import (
    OperatorSpec,
    apply_operator,
    random_sdelta,
    sdelta_brackets,
    solve_heat,
    spectral_derivative_fields,
)
from morreylab.testfunctions import test_function as tf
from morreylab.weights import (
    ap_constant,
    jones_factorize,
    power_weight,
    rdf_iterate,
)

SEED = 0x5EED


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


# -- 1 ------------------------------------------------------------------


def test_criterion_1_dyadic_strong():
    ok = True
    worst = {}
    for d in (1, 2):
        s = make_structure(d, (1,) * d)
        n = 1024 if d == 1 else 64
        g = make_grid(d, 1.0, n)
        for p in (1.5, 2.0, 3.0):
            q = p / (p - 1.0)
            w = 0.0
            for k in range(20):
                f = Field(g, np.random.default_rng(SEED + 101 * k + d).random(g.cells) ** 3)
                m = dyadic_maximal(f, s)
                w = max(w, lp_norm(m, p) / lp_norm(f, p))
            worst[(d, p)] = w
            ok &= w <= q * 1.05
    assert _line(1, ok, f"dyadic maximal strong bound, worst margins "
                 f"{ {k: round(v, 3) for k, v in worst.items()} }")


# -- 2 ------------------------------------------------------------------


def test_criterion_2_energy_identities():
    s2 = make_structure(2, (1, 1))
    g = make_grid(2, math.pi, 64, periodic=True)
    worst_e = 0.0
    for k in range(5):
        u = tf("random_band", g, kmax=5, seed=SEED + k)
        _, d2, lap, _ = spectral_derivative_fields(u, s2)
        num = math.sqrt(sum(float((d2[i][j] ** 2).sum()) for i in range(2)
                            for j in range(2)))
        den = math.sqrt(float((lap ** 2).sum()))
        worst_e = max(worst_e, abs(num / den - 1.0))
    sp = make_structure(2, (2, 1))
    gp = make_grid(2, (1.0, math.pi), (64, 64), periodic=True)
    worst_h = 0.0
    worst_at = 0.0
    delta = 0.5
    rng = np.random.default_rng(SEED)
    for k in range(5):
        u = tf("random_band", gp, kmax=5, seed=SEED + 7 * k)
        _, d2, lap, ut = spectral_derivative_fields(u, sp)
        f = ut + lap
        worst_h = max(worst_h, abs((float((ut ** 2).sum())
                                    + float((d2[0][0] ** 2).sum()))
                                   / float((f ** 2).sum()) - 1.0))
        a_path = np.array([random_sdelta(rng, 1, delta) for _ in range(gp.cells[0])])
        op = OperatorSpec("heat_at", lam=0.0, a_of_t=a_path, delta=delta)
        fat = apply_operator(u, op, sp).values
        lhs = float((ut ** 2).sum()) + delta ** 2 * float((d2[0][0] ** 2).sum())
        worst_at = max(worst_at, lhs / (float((fat ** 2).sum()) / delta ** 2))
    ok = worst_e <= 1e-10 and worst_h <= 1e-8 and worst_at <= 1.01
    assert _line(2, ok, f"energy identities: elliptic err {worst_e:.2e}, "
                 f"parabolic err {worst_h:.2e}, coefficient-path ratio {worst_at:.3f}")


# -- 3 ------------------------------------------------------------------


def test_criterion_3_hardy():
    from morreylab.checks.elliptic import _radial_profiles

    d = 3
    g = make_grid(d, 4.0, 64)
    w2 = tf("power", g, gamma=2.0)
    worst = 0.0
    gauss_ratio = None
    for name, parm, u, du2, _lap in _radial_profiles(g, d):
        num = integrate(Field(g, u ** 2), weight=w2)
        den = float(du2.sum()) * g.cell_volume
        ratio = num / den
        worst = max(worst, ratio)
        if name == "gaussian" and gauss_ratio is None:
            gauss_ratio = ratio
    ok = worst <= 4.0 * 1.05 and abs(gauss_ratio - 4.0 / 3.0) <= 0.02 * 4.0 / 3.0
    assert _line(3, ok, f"Hardy: sup ratio {worst:.3f} <= 4.2, "
                 f"gaussian ratio {gauss_ratio:.4f} vs 4/3")


# -- 4 ------------------------------------------------------------------


def test_criterion_4_ap_range():
    s = make_structure(1, (1,))
    results = {}
    ok = True
    for alpha in (-1.5, -0.9, 0.0, 0.5, 0.9, 1.0, 1.5):
        vals = []
        for n in (256, 512, 1024):
            g = make_grid(1, 1.0, n)
            vals.append(ap_constant(power_weight(g, alpha), 2.0, s))
        inside = -1.0 < alpha < 1.0
        if inside:
            good = all(map(math.isfinite, vals)) and max(
                b / a for a, b in zip(vals, vals[1:])) <= 1.10
        else:
            # outside the range the defining cell integrals diverge: the
            # exact singular masses are infinite at every resolution, which
            # dominates any per-octave growth factor
            good = any(not math.isfinite(v) for v in vals) or min(
                b / a for a, b in zip(vals, vals[1:])) >= 2.0
        ok &= good
        results[alpha] = [f"{v:.3g}" for v in vals]
    assert _line(4, ok, f"A_2 sweep {results}")


# -- 5 ------------------------------------------------------------------


def test_criterion_5_rdf_jones():
    s = make_structure(1, (1,))
    g = make_grid(1, 1.0, 512)
    w = power_weight(g, 0.5)
    rng = np.random.default_rng(SEED)
    f = Field(g, rng.random(512) + 0.05)
    v, tn = rdf_iterate(f, w, 2.0, s, seed=SEED)
    dom = bool(np.all(f.values <= v.values * (1 + 1e-12)))
    norm_ok = lp_norm(v, 2, weight=w.field) <= 2.0 * lp_norm(f, 2, weight=w.field)
    vw = Field(g, v.values * w.field.values)
    fam = BallFamily.for_structure(s, g, shape="cube", density=6.0)
    mvw = classical_maximal(vw, s, family=fam)
    ptwise = float((mvw.values / vw.values).max())
    pt_ok = ptwise <= 2.0 * tn * 1.05
    w1, w2, _ = jones_factorize(w, 2.0, s, seed=SEED)
    rec_err = float(np.abs(w1.values ** (1 - 2.0) * w2.values
                           / w.field.values - 1.0).max())
    ok = dom and norm_ok and pt_ok and rec_err <= 1e-10
    assert _line(5, ok, f"majorant: dominates={dom}, norm ok={norm_ok}, "
                 f"pointwise {ptwise:.3f} <= {2 * tn * 1.05:.3f}, "
                 f"reconstruction err {rec_err:.1e}")


# -- 6 ------------------------------------------------------------------


def test_criterion_6_drift_eigenpair():
    d, lam = 3, 1.0
    g = make_grid(d, 4.0, 64)
    u, b, resid = tf("exp_drift_pair", g, lam=lam)
    outside = g.radius() > 0.1
    res_out = float(np.abs(resid.values[outside]).max())
    scale = float(np.abs(u.values).max())
    den = math.sqrt(float((resid.values ** 2).sum()) * g.cell_volume)
    u_norm = lp_norm(u, 2)
    ok = res_out <= 1e-8 * scale and den <= 1e-10 * u_norm
    assert _line(6, ok, f"eigenpair residual {res_out / scale:.1e}, "
                 f"denominator {den / u_norm:.1e} of the solution norm")


# -- 7 ------------------------------------------------------------------


def test_criterion_7_ridge_no_absorption():
    d, beta, p = 3, 1.5, 4.0 / 3.0
    s = make_structure(d, (1,) * d)
    g = make_grid(d, 0.75, 96)
    radii = tuple(2.0 * max(g.h) * 2 ** (0.5 * j) for j in range(9))
    ratios = {}
    for kappa in (0.25, 0.1, 0.05):
        _u, b_du, d2 = tf("kappa_ridge", g, kappa=kappa, beta=beta)
        n_num = evaluate_norm(b_du, NormSpec("Epbr", p=p, beta=beta, r=0.7), s,
                              radii=radii)
        n_den = evaluate_norm(d2, NormSpec("Epbr", p=p, beta=beta, r=0.7), s,
                              radii=radii)
        ratios[kappa] = n_num / n_den
    vals = list(ratios.values())
    ok = min(vals) > 0 and min(vals) >= 0.3 * max(vals)
    assert _line(7, ok, f"ridge ratios { {k: round(v, 4) for k, v in ratios.items()} } "
                 "bounded below uniformly in kappa")


# -- 8 ------------------------------------------------------------------


def test_criterion_8_causality():
    gp = make_grid(2, (1.0, math.pi), (64, 64), periodic=True)
    xs = gp.mesh()
    f = Field(gp, np.exp(-xs[1] ** 2) * (xs[0] < 0.0))
    worst = 0.0
    rng = np.random.default_rng(SEED)
    for a_path in (None, np.array([random_sdelta(rng, 1, 0.5)
                                   for _ in range(gp.cells[0])])):
        u, _ = solve_heat(f, 1.0, a_of_t=a_path, delta=0.5 if a_path is not None else None)
        tail = xs[0][:, 0] >= gp.h[0]
        total = float(np.abs(u.values).max())
        worst = max(worst, float(np.abs(u.values[tail]).max()) / total)
    ok = worst <= 1e-13
    assert _line(8, ok, f"causal tail fraction {worst:.1e}")


# -- 9 ------------------------------------------------------------------


def _ratio_engine(kind, levels, make_struct_grid, norm_for, n_fields=20,
                  lams=(1.0, 10.0, 100.0), kmax=3):
    """max a-priori ratio per refinement level for one norm flavor."""
    out = []
    for lev in levels:
        s, g, a_path = make_struct_grid(lev)
        norm_eval = norm_for(s, g)
        worst = 0.0
        for k in range(n_fields):
            u = tf("random_band", g, kmax=kmax, seed=SEED + 11 * k)
            du, d2, lap, ut = spectral_derivative_fields(u, s)
            nd = len(du)
            d2_mag = np.sqrt(sum(d2[i][j] ** 2 for i in range(nd) for j in range(nd)))
            du_mag = np.sqrt(sum(x ** 2 for x in du))
            n_d2 = norm_eval(Field(g, d2_mag))
            n_du = norm_eval(Field(g, du_mag))
            n_u = norm_eval(u)
            n_ut = norm_eval(Field(g, ut)) if ut is not None else 0.0
            for lam in lams:
                op = OperatorSpec(kind, lam=lam, a_of_t=a_path,
                                  delta=0.5 if a_path is not None else None)
                resid = apply_operator(u, op, s)
                den = norm_eval(resid)
                num = max(n_d2, math.sqrt(lam) * n_du, lam * n_u, n_ut)
                worst = max(worst, num / den)
        out.append(worst)
    return out


def test_criterion_9_resolvent_family():
    details = {}
    ok = True

    def stable(vals):
        return all(map(math.isfinite, vals)) and max(
            b / a for a, b in zip(vals, vals[1:])) <= 1.10 and min(
            b / a for a, b in zip(vals, vals[1:])) >= 0.90

    # elliptic, plain L_p
    def msg_elliptic(lev):
        return make_structure(2, (1, 1)), make_grid(2, math.pi, lev, periodic=True), None

    vals = _ratio_engine("laplace", (32, 64, 128), msg_elliptic,
                         lambda s, g: (lambda fld: lp_norm(fld, 3.0)))
    details["elliptic"] = vals
    ok &= stable(vals)

    # heat, plain L_p
    def msg_heat(lev):
        return (make_structure(2, (2, 1)),
                make_grid(2, (1.0, math.pi), (lev, lev), periodic=True), None)

    vals = _ratio_engine("heat", (32, 64, 128), msg_heat,
                         lambda s, g: (lambda fld: lp_norm(fld, 3.0)))
    details["heat"] = vals
    ok &= stable(vals)

    # local Morrey norm, d = 3
    def msg_morrey(lev):
        return make_structure(3, (1, 1, 1)), make_grid(3, math.pi, lev, periodic=True), None

    radii = tuple(2 * (2 * math.pi / 16) * 2 ** (0.5 * j) for j in range(6))

    def morrey_norm(s, g):
        spec = NormSpec("Epbr", p=2.0, beta=1.5, r=radii[-1])
        return lambda fld: evaluate_norm(fld, spec, s, radii=radii)

    vals = _ratio_engine("laplace", (16, 32, 64), msg_morrey, morrey_norm,
                         n_fields=20, lams=(4.0,), kmax=2)
    details["morrey"] = vals
    ok &= stable(vals)

    # weighted L_p
    def msg_weighted(lev):
        return make_structure(2, (1, 1)), make_grid(2, math.pi, lev, periodic=True), None

    def weighted_norm(s, g):
        w = power_weight(g, 0.5).field
        return lambda fld: lp_norm(fld, 2.0, weight=w)

    vals = _ratio_engine("laplace", (32, 64, 128), msg_weighted, weighted_norm)
    details["weighted"] = vals
    ok &= stable(vals)

    # mixed norm, standard order
    def mixed_norm_eval(s, g):
        return lambda fld: mixed_norm(fld, 2.0, 3.0)

    vals = _ratio_engine("heat", (32, 64, 128), msg_heat, mixed_norm_eval)
    details["mixed"] = vals
    ok &= stable(vals)

    # coefficient path, reversed order
    rng = np.random.default_rng(SEED)

    def msg_at(lev):
        s = make_structure(2, (2, 1))
        g = make_grid(2, (1.0, math.pi), (lev, lev), periodic=True)
        a_path = np.array([random_sdelta(np.random.default_rng(SEED + i), 1, 0.5)
                           for i in range(lev)])
        return s, g, a_path

    def rev_norm(s, g):
        return lambda fld: mixed_norm(fld, 2.0, 3.0, reversed_order=True)

    vals = _ratio_engine("heat_at", (32, 64, 128), msg_at, rev_norm)
    details["at"] = vals
    ok &= stable(vals)
    assert _line(9, ok, "resolvent ratios per level " +
                 str({k: [round(x, 3) for x in v] for k, v in details.items()}))


# -- 10 -----------------------------------------------------------------


def test_criterion_10_adams_family():
    from morreylab.checks import run_check

    r1 = run_check("adams")
    r2 = run_check("parab-adams")
    ok = r1.verdict == "pass" and r2.verdict == "pass"
    assert _line(10, ok, f"adams={r1.verdict} (out-of-class slope "
                 f"{r1.params.get('bad_slope', 0):.3f}), parab-adams={r2.verdict}")


# -- 11 -----------------------------------------------------------------


def test_criterion_11_order_asymmetry():
    s = make_structure(3, (2, 1, 1))
    p, q, beta = 2.0, 1.6, 1.25
    p0, q0 = p * beta, q * beta
    rev, std = [], []
    for n in (32, 48):
        g = make_grid(3, (1.0, 1.2, 1.2), (n, int(1.5 * n), int(1.5 * n)))
        b = tf("lqp_vs_lpq", g, p0=p0)
        rev.append(drift_seminorm(b, p0, 1.0, s, q_b=q0, reversed_order=True))
        std.append(drift_seminorm(b, p0, 1.0, s, q_b=q0, reversed_order=False))
    ok = all(map(math.isfinite, rev)) and all(not math.isfinite(v) for v in std)
    assert _line(11, ok, f"reversed-order values {[round(v, 3) for v in rev]}, "
                 f"standard-order {[str(v) for v in std]}")


# -- 12 -----------------------------------------------------------------


def test_criterion_12_matrix_inequalities():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for delta in (0.2, 0.5, 0.9):
        for _ in range(10000):
            a = random_sdelta(rng, 3, delta)
            u = rng.normal(size=(3, 3))
            u = 0.5 * (u + u.T)
            br = sdelta_brackets(a, u)
            worst = max(worst, delta ** 2 * float((u ** 2).sum()) - br)
            shifted = sdelta_brackets(a - delta * np.eye(3), u)
            worst = max(worst, -shifted, shifted - (1 - delta ** 2) ** 2 * br)
    ok = worst <= 1e-12 * 100  # absolute scale of the random matrices
    assert _line(12, ok, f"bracket inequalities, worst violation {worst:.2e}")


# -- 13 -----------------------------------------------------------------


GOLDEN = Path(__file__).parent / "golden" / "default_seed.csv"


def _same_params(got, want):
    """Parsed params equal: numbers within 1e-9 relative, every inf still
    inf; keys, lengths, strings and bools exactly."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() \
            and all(_same_params(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) \
            and all(map(_same_params, got, want))
    if type(want) in (int, float) and type(got) in (int, float):
        return math.isclose(got, want, rel_tol=1e-9)
    return type(got) is type(want) and got == want


def test_criterion_13_full_suite():
    """The full registry passes at the default seed, and its report matches
    the golden file row by row: the same ids and verdicts, lhs/rhs/ratio
    and every number in params within 1e-9 relative, every inf still inf,
    the rest of params exactly.

    A change that moves a number on purpose regenerates the golden file from
    the repository root with

        PYTHONPATH=src python -m morreylab.cli check '*' --csv tests/golden/default_seed.csv
    """
    import time

    from morreylab.checks import run_suite
    from morreylab.checks.report import OK_VERDICTS

    t0 = time.time()
    reports = run_suite("*")
    elapsed = time.time() - t0
    bad = [r.check_id for r in reports if r.verdict not in OK_VERDICTS]
    ok = not bad and elapsed <= 1800
    assert _line(13, ok, f"{len(reports)} checks in {elapsed:.0f}s, failures: {bad}")
    _assert_matches_golden(reports, GOLDEN)


def test_grid_half_report_matches_its_golden_file():
    """The second regression oracle: every check but the `o*` ones at half
    resolution matches tests/golden/grid_half.csv as criterion 13 matches
    the default file.  Regenerate it from the repository root with

        PYTHONPATH=src python -m morreylab.cli check '[!o]*' --grid 0.5 --csv tests/golden/grid_half.csv
    """
    from morreylab.checks import CheckConfig, run_suite

    _assert_matches_golden(run_suite("[!o]*", CheckConfig(grid=0.5)),
                           GOLDEN.with_name("grid_half.csv"))


def _assert_matches_golden(reports, path):
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r.check_id for r in reports] == [row["check_id"] for row in rows]
    for r, row in zip(reports, rows):
        assert r.verdict == row["verdict"], r.check_id
        for key in ("lhs", "rhs", "ratio"):
            got, want = getattr(r, key), row[key]
            if want == "":
                assert got is None, (r.check_id, key, got)
            else:
                # isclose keeps inf equal only to inf of the same sign
                assert math.isclose(float(got), float(want), rel_tol=1e-9), \
                    (r.check_id, key, got, want)
        got = json.loads(r.csv_row()[3])
        assert _same_params(got, json.loads(row["params"])), (r.check_id, got, row["params"])
