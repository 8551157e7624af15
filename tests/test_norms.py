import math

import numpy as np
import pytest

from morreylab.grid import Field, lp_norm, make_grid, make_structure, mollify, power_integrand
from morreylab.maximal import BallFamily, _correlate, member_offsets
from morreylab.norms import (
    NormSpec,
    bmo_seminorms,
    drift_seminorm,
    evaluate_norm,
    mixed_norm,
)
from morreylab.testfunctions import TEST_FUNCTION_IDS
from morreylab.testfunctions import test_function as tf

S1 = make_structure(1, (1,))
S2 = make_structure(2, (1, 1))
S3 = make_structure(3, (1, 1, 1))
SP = make_structure(2, (2, 1))


def test_constant_local_morrey():
    g = make_grid(2, 1.5, 128)
    c = Field(g, np.full(g.cells, 2.5))
    v = evaluate_norm(c, NormSpec("Epbr", p=2, beta=0.5, r=1.0), S2)
    assert v == pytest.approx(2.5, rel=1e-9)


def test_power_morrey_membership_and_divergence():
    g = make_grid(3, 1.5, 64)
    f = tf("power", g, gamma=1.0)
    fin = evaluate_norm(f, NormSpec("Epbr", p=2, beta=1.0, r=1.0), S3)
    assert math.isfinite(fin)
    div = evaluate_norm(f, NormSpec("Epbr", p=3, beta=1.0, r=1.0), S3)
    assert not math.isfinite(div)


def test_morrey_scaling_law():
    # ||u||_{E_{p,beta;rs}} = r^beta ||u(r .)||_{E_{p,beta;s}}
    p, beta, r_sc = 2.0, 0.4, 2.0
    n = 256
    g_small = make_grid(1, 1.0, n)
    g_big = make_grid(1, 2.0, n)
    prof = lambda x: np.cos(3 * x) + 0.3 * np.sin(7 * x)
    u_big = Field(g_big, prof(g_big.axis(0)))
    u_small = Field(g_small, prof(r_sc * g_small.axis(0)))
    radii_small = tuple(2 * g_small.h[0] * 2 ** (0.25 * j) for j in range(12))
    radii_big = tuple(r_sc * r for r in radii_small)
    lhs = evaluate_norm(u_big, NormSpec("Epbr", p=p, beta=beta, r=2.0), S1,
                        radii=radii_big)
    rhs = r_sc ** beta * evaluate_norm(u_small, NormSpec("Epbr", p=p, beta=beta, r=1.0),
                                       S1, radii=radii_small)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_advisory_above_threshold():
    g = make_grid(2, 1.0, 32)
    f = Field(g, np.ones(g.cells))
    with pytest.warns(UserWarning):
        evaluate_norm(f, NormSpec("EpbDot", p=2.0, beta=1.5), S2)


def test_mixed_norm_orders_differ():
    g = make_grid(2, (1.0, 1.0), (64, 64))
    xs = g.mesh()
    f = Field(g, np.exp(-8 * xs[0] ** 2) + 0.1 * np.abs(xs[1]))
    a = mixed_norm(f, 2.0, 3.0, SP)
    b = mixed_norm(f, 2.0, 3.0, SP, reversed_order=True)
    assert a > 0 and b > 0 and abs(a - b) > 1e-6


def test_mixed_norm_matches_lp_when_equal_exponents():
    g = make_grid(2, (1.0, 1.0), (64, 64))
    rng = np.random.default_rng(0)
    f = Field(g, rng.random(g.cells))
    assert mixed_norm(f, 2.0, 2.0, SP) == pytest.approx(lp_norm(f, 2.0), rel=1e-12)


@pytest.mark.parametrize("reversed_order", [False, True])
def test_mixed_norm_weighs_the_measure(reversed_order):
    g = make_grid(2, (1.0, 1.0), (12, 12))
    rng = np.random.default_rng(1)
    dens = 0.5 + rng.random(g.cells)
    s = make_structure(2, (2, 1), density=Field(g, dens))
    f = Field(g, rng.random(g.cells))
    ht, hx = g.h
    for p, q in ((2.0, 2.0), (1.5, 3.0)):
        # iterated integrals cell by cell: the density weighs the inner one
        if not reversed_order:
            inner = [sum(f.values[i, j] ** p * dens[i, j] * hx for j in range(12))
                     for i in range(12)]
            want = sum(v ** (q / p) * ht for v in inner) ** (1.0 / q)
        else:
            inner = [sum(f.values[i, j] ** q * dens[i, j] * ht for i in range(12))
                     for j in range(12)]
            want = sum(v ** (p / q) * hx for v in inner) ** (1.0 / p)
        got = mixed_norm(f, p, q, s, reversed_order=reversed_order)
        assert got == pytest.approx(want, rel=1e-12)
    kind = "Lqp_reversed" if reversed_order else "Lpq"
    assert evaluate_norm(f, NormSpec(kind, p=2.0, q=2.0), s) == pytest.approx(
        evaluate_norm(f, NormSpec("Lp", p=2.0), s), rel=1e-12)


def test_drift_seminorm_constant():
    g = make_grid(2, 1.0, 128)
    b = Field(g, np.ones(g.cells))
    for rho_b in (0.25, 0.5, 1.0):
        assert drift_seminorm(b, 2.0, rho_b, S2) == pytest.approx(rho_b, rel=1e-9)


def test_drift_seminorm_inverse_distance_scale_invariant():
    g = make_grid(3, 1.5, 64)
    b = tf("power", g, gamma=1.0)
    vals = [drift_seminorm(b, 2.0, rho_b, S3) for rho_b in (0.25, 0.5, 1.0)]
    assert max(vals) / min(vals) < 1.05
    assert math.isfinite(vals[0])


@pytest.mark.parametrize("reversed_order", [False, True])
def test_drift_seminorm_with_a_density_matches_brute_force(reversed_order):
    # every x-ball x t-window cylinder on a (1+1)-D grid with a non-uniform
    # measure.  Standard order: the t-mean of the dens-weighted x-ball means
    # of |b|^p, raised to q/p.  Reversed: the t-mean of |b|^q, raised to p/q,
    # then its x-ball mean weighted by the density of the window's first row.
    g = make_grid(2, (1.0, 1.0), (12, 12))
    rng = np.random.default_rng(13)
    dens = 0.5 + rng.random(g.cells)
    s = make_structure(2, (2, 1), density=Field(g, dens))
    b = Field(g, rng.standard_normal(g.cells))
    p, q, radii = 2.0, 3.0, (0.25, 0.4, 0.6)
    (nt, nx), (ht, hx) = g.cells, g.h
    absb = np.abs(b.values)
    want = 0.0
    for rho in radii:
        wlen = max(1, int(round(rho ** 2 / ht)))
        for c in range(nx):
            ball = ((np.arange(nx) - c) * hx) ** 2 < rho ** 2
            for tau in range(nt - wlen + 1):
                rows = slice(tau, tau + wlen)
                if not reversed_order:
                    x_means = ((absb[rows] ** p * dens[rows])[:, ball].sum(axis=1)
                               / dens[rows][:, ball].sum(axis=1))
                    val = (x_means ** (q / p)).mean() ** (1.0 / q)
                else:
                    t_means = (absb[rows] ** q).mean(axis=0) ** (p / q)
                    val = ((t_means * dens[tau])[ball].sum() / dens[tau][ball].sum()) ** (1.0 / p)
                want = max(want, rho * val)
    got = drift_seminorm(b, p, 1.0, s, q_b=q, reversed_order=reversed_order, radii=radii)
    assert got == pytest.approx(want, rel=1e-10)


def test_cz_bump_drift_vs_lq():
    g = make_grid(2, 1.25, 256)
    b, radii = tf("cz_bump", g, p=1.0)
    semi = drift_seminorm(b, 1.0, 1.0, S2)
    assert math.isfinite(semi)
    lq_256 = lp_norm(b, 1.3, region=([0.0, -0.6], [1.05, 0.6]))
    g2 = make_grid(2, 1.25, 512)
    b2, _ = tf("cz_bump", g2, p=1.0)
    lq_512 = lp_norm(b2, 1.3, region=([0.0, -0.6], [1.05, 0.6]))
    assert lq_512 > lq_256 * 1.05  # grows without bound under refinement


def test_bmo_constant_is_zero():
    g = make_grid(2, (1.0, 1.0), (32, 32))
    a = Field(g, np.full(g.cells, 1.7))
    sharp, sharpsharp = bmo_seminorms(a, 0.5, SP)
    assert sharp < 1e-12 and sharpsharp < 1e-12


def test_bmo_time_only_coefficient_x_average_vanishes():
    g = make_grid(2, (1.0, 1.0), (32, 32))
    xs = g.mesh()
    a = Field(g, 1.0 + 0.3 * np.sin(3 * xs[0]))  # depends on t only
    sharp, sharpsharp = bmo_seminorms(a, 0.5, SP)
    assert sharpsharp < 1e-12
    assert sharp > 0.01


def _sharpsharp_reference(a, rho, structure, stride=4):
    """a## by a per-anchor loop: at every t and every x-anchor on the stride
    lattice, the mu-mean deviation of a over the x-ball from its mu-average
    there, then averaged over t-windows of length rho^2 / ht."""
    from morreylab.maximal import member_offsets
    from morreylab.norms import _family_radii

    grid = a.grid
    mu = structure.density_on(grid)
    lim = np.asarray(grid.cells[1:])
    best = 0.0
    for r in _family_radii(grid, structure, rho):
        wlen = max(1, int(round(r ** 2 / grid.h[0])))
        if wlen > grid.cells[0]:
            continue
        stencil, origin = member_offsets(grid, structure, r, "ball_x")
        offs = np.argwhere(stencil) - np.asarray(origin)
        for c in np.ndindex(*[len(range(0, n, stride)) for n in grid.cells[1:]]):
            idx = stride * np.asarray(c) + offs
            cells = tuple(idx[np.all((idx >= 0) & (idx < lim), axis=1)].T)
            dev = []
            for t in range(grid.cells[0]):
                v, m = a.values[t][cells], mu[t][cells]
                mean = (v * m).sum() / m.sum()
                dev.append((np.abs(v - mean) * m).sum() / m.sum())
            for t0 in range(grid.cells[0] - wlen + 1):
                best = max(best, sum(dev[t0:t0 + wlen]) / wlen)
    return best


@pytest.mark.parametrize("cells", [(32, 32), (16, 24, 24)])
def test_bmo_sharpsharp_matches_per_anchor_reference(cells):
    g = make_grid(len(cells), 1.0, cells)
    rng = np.random.default_rng(11)
    a = Field(g, 1.0 + rng.random(cells) + np.sin(3.0 * g.mesh()[1]))
    aniso = (2,) + (1,) * (len(cells) - 1)
    structures = [make_structure(len(cells), aniso)]
    if len(cells) == 2:  # a non-uniform measure: mu-averages throughout
        structures.append(make_structure(2, aniso, Field(g, 1.0 + 0.5 * rng.random(cells))))
    for s in structures:
        _, sharpsharp = bmo_seminorms(a, 0.6, s)
        assert sharpsharp == pytest.approx(_sharpsharp_reference(a, 0.6, s), rel=1e-12)


def test_bmo_log_oscillation_bounded():
    g = make_grid(2, 1.0, 128)
    r = g.radius()
    a = Field(g, np.sin(np.log(np.maximum(r, 1e-12))))
    sharp, _ = bmo_seminorms(a, 0.3, S2)
    assert 0.05 < sharp <= 2.0


def test_test_function_power_zero_gamma():
    g = make_grid(2, 1.0, 32)
    f = tf("power", g, gamma=0.0)
    assert np.allclose(f.values, 1.0)


def test_test_function_unknown_id():
    g = make_grid(1, 1.0, 16)
    with pytest.raises(ValueError) as info:
        tf("nope", g)
    assert str(info.value).endswith(f"known: {TEST_FUNCTION_IDS}")


def test_test_function_ids_are_dispatched():
    g = make_grid(3, 1.0, 8)
    params = {"power": {"gamma": 1.0}, "kappa_ridge": {"kappa": 0.2, "beta": 1.0},
              "lqp_vs_lpq": {"p0": 2.0}, "mollified_power": {"gamma": 1.0, "eps": 0.1}}
    for name in TEST_FUNCTION_IDS:
        tf(name, g, **params.get(name, {}))


def test_exp_drift_pair_residual_vanishes():
    g = make_grid(3, 4.0, 64)
    u, b, resid = tf("exp_drift_pair", g, lam=1.0)
    r = g.radius()
    outside = r > 0.1
    assert np.abs(resid.values[outside]).max() <= 1e-8 * np.abs(u.values).max()


def test_kappa_ridge_norm_bounds():
    # slashed norms behave like the closed-form envelopes
    g = make_grid(3, 0.75, 64)
    beta, p = 1.5, 4.0 / 3.0
    kappa = 0.1
    u, b_du, d2 = tf("kappa_ridge", g, kappa=kappa, beta=beta)
    r3 = 3 * kappa
    n_bdu = lp_norm(b_du, p, region=([-r3] * 3, [r3] * 3), slashed=True)
    assert n_bdu >= 0.05 * (3 * kappa) ** -2.0  # N1 (3 kappa)^{-2} envelope
    for r in (0.3, 0.6):
        n_d2 = lp_norm(d2, p, region=([-r] * 3, [r] * 3), slashed=True)
        assert n_d2 <= 40.0 * kappa ** (beta - 2.0) * r ** (-beta)


def test_parab_sing_finite_morrey():
    g = make_grid(2, (1.5, 1.5), (96, 96))
    b = tf("parab_sing", g)
    v = evaluate_norm(b, NormSpec("EpbDot", p=2.0, beta=1.0), SP)
    assert math.isfinite(v)


def test_cylinder_slab_classification():
    g = make_grid(3, 1.2, 48)
    b = tf("cylinder_slab", g, d_prime=2)
    fin = evaluate_norm(b, NormSpec("Epbr", p=1.5, beta=1.0, r=1.0), S3)
    assert math.isfinite(fin)
    assert not math.isfinite(lp_norm(b, 2.0))


def test_comparability_across_scale_caps():
    # sup over scale-r members is controlled by the sup over smaller scales
    # with the dimensional factor
    g = make_grid(2, 1.5, 128)
    rng = np.random.default_rng(3)
    f = Field(g, rng.random(g.cells))
    mu = 0.5
    big = evaluate_norm(f, NormSpec("Epbr", p=2.0, beta=0.5, r=1.0), S2)
    small = evaluate_norm(f, NormSpec("Epbr", p=2.0, beta=0.5, r=mu), S2)
    assert big <= (1 + 1 / mu) ** (2 / 2.0) * small / mu ** 0.5 * (1 + 1e-9)


def test_mollify_approximation_monotone():
    # ||f^(eps) - f||_{E_{p,beta}(B)} decreases along an eps-sequence
    # for f in a slightly better Morrey class
    g = make_grid(2, 1.0, 256)
    f = tf("mollified_power", g, gamma=0.4, eps=0.02)
    errs = []
    for eps in (0.12, 0.06, 0.03):
        fm = mollify(f, eps)
        diff = Field(g, np.where(np.abs(np.stack(g.mesh())).max(axis=0) < 0.6,
                                 fm.values - f.values, 0.0))
        errs.append(evaluate_norm(diff, NormSpec("Epbr", p=2.0, beta=0.8, r=0.5), S2))
    assert errs[0] > errs[1] > errs[2]


def test_mollified_maximal_bounded_in_morrey():
    from morreylab.maximal import classical_maximal

    g = make_grid(2, 1.0, 128)
    rng = np.random.default_rng(5)
    f = Field(g, rng.random(g.cells))
    sup_eps = np.maximum.reduce([mollify(f, e).values for e in (0.05, 0.1, 0.2)])
    spec = NormSpec("Epbr", p=2.0, beta=0.5, r=0.5)
    lhs = evaluate_norm(Field(g, sup_eps), spec, S2)
    rhs = evaluate_norm(f, spec, S2)
    assert lhs <= 3.0 * rhs


def test_lqp_asym_field_masses():
    g = make_grid(3, (1.0, 1.2, 1.2), (32, 48, 48))
    p0, q0 = 2.5, 2.0
    b = tf("lqp_vs_lpq", g, p0=p0)
    std = drift_seminorm(b, p0, 1.0, make_structure(3, (2, 1, 1)), q_b=q0)
    rev = drift_seminorm(b, p0, 1.0, make_structure(3, (2, 1, 1)), q_b=q0,
                         reversed_order=True)
    assert not math.isfinite(std)
    assert math.isfinite(rev)


def brute_members_holding(mask, stencil, origin):
    """Anchor by anchor: does some in-domain cell c + o - origin of the
    member anchored at c lie in mask?"""
    offs = np.argwhere(stencil) - np.asarray(origin)
    lim = np.asarray(mask.shape)
    out = np.zeros(mask.shape, dtype=bool)
    for c in np.ndindex(mask.shape):
        idx = np.asarray(c) + offs
        idx = idx[np.all((idx >= 0) & (idx < lim), axis=1)]
        out[c] = bool(mask[tuple(idx.T)].any())
    return out


@pytest.mark.parametrize("case", ["power-2d", "parab-cylinder"])
def test_divergent_anchor_set_is_exact_membership(case):
    # the anchors that _morrey_sup sets to inf: every member holding a cell
    # of divergent mass, on |x|^-1.5 at p = 2 in 2-D and on the parabolic
    # singularity over cylinders at p = 3 (alpha p = 3 = d + 2)
    if case == "power-2d":
        g, s, p, shape = make_grid(2, 1.0, 24), S2, 2.0, "ball"
        f = tf("power", g, gamma=1.5)
    else:
        g, s, p, shape = make_grid(2, (1.0, 1.0), (24, 20)), SP, 3.0, "cylinder"
        f = tf("parab_sing", g)
    _, inf_mask = power_integrand(f, p, np.ones(g.cells))
    assert 1 <= inf_mask.sum() <= 4
    for rho in BallFamily.for_structure(s, g).radii:
        stencil, origin = member_offsets(g, s, rho, shape)
        # the mask correlation _morrey_sup reads: its sums count marked cells
        hit = _correlate(inf_mask.astype(float), stencil, origin) > 0.5
        assert np.array_equal(hit, brute_members_holding(inf_mask, stencil, origin)), rho
    spec = NormSpec("EpbDot", p=p, beta=1.0)
    assert evaluate_norm(f, spec, s) == math.inf


def test_morrey_sup_shares_forward_spectra_across_radii(monkeypatch):
    # radii whose stencils pad to the same transform shape share one forward
    # transform of the field; the sups are bit-identical to one radius per call
    from morreylab import maximal
    from morreylab.norms import _morrey_sup

    g = make_grid(2, 1.0, 40)
    f = Field(g, np.random.default_rng(3).normal(size=g.cells))
    radii = BallFamily.for_structure(S2, g).radii
    shapes = []
    for rho in radii:
        stencil, origin = member_offsets(g, S2, rho, "ball")
        if maximal._fill_spans(stencil) is None:  # the FFT path
            shapes.append(tuple(maximal._fast_len(n + max(o, s - 1 - o))
                                for n, s, o in zip(g.cells, stencil.shape, origin)))
    assert len(set(shapes)) < len(shapes)  # the case holds shared shapes
    alone = [_morrey_sup(f, 2.0, 0.5, S2, [rho], return_profile=True)[1][0]
             for rho in radii]
    calls = []
    rfftn = np.fft.rfftn

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return rfftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", counting)
    best, profile = _morrey_sup(f, 2.0, 0.5, S2, radii, return_profile=True)
    assert len(calls) == len(set(shapes))
    assert profile == alone
    assert best == max(m for _, m in alone)
