import math

import numpy as np
import pytest

from morreylab.grid import Field, lp_norm, make_grid, make_structure, power_integrand
from morreylab.maximal import BallFamily, _correlate, member_offsets
from morreylab.norms import (
    NormSpec,
    _mixed_morrey_sup,
    bmo_seminorms,
    drift_seminorm,
    evaluate_norm,
    evaluate_norms,
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
    a = mixed_norm(f, 2.0, 3.0)
    b = mixed_norm(f, 2.0, 3.0, reversed_order=True)
    assert a > 0 and b > 0 and abs(a - b) > 1e-6


def test_mixed_norm_matches_lp_when_equal_exponents():
    g = make_grid(2, (1.0, 1.0), (64, 64))
    rng = np.random.default_rng(0)
    f = Field(g, rng.random(g.cells))
    assert mixed_norm(f, 2.0, 2.0) == pytest.approx(lp_norm(f, 2.0), rel=1e-12)
    # singular cells count their exact masses in both orders: |x|^-1 is not
    # square integrable in 2-D, |x|^-0.5 is
    g = make_grid(2, (1.0, 1.0), (32, 32))
    for gamma in (1.0, 0.5):
        f = tf("power", g, gamma=gamma)
        want = lp_norm(f, 2.0)
        assert (want == math.inf) == (gamma == 1.0)
        for reversed_order in (False, True):
            got = mixed_norm(f, 2.0, 2.0, reversed_order=reversed_order)
            assert got == want or got == pytest.approx(want, rel=1e-12), (gamma, got, want)


@pytest.mark.parametrize("reversed_order", [False, True])
def test_mixed_norm_weighs_the_measure(reversed_order):
    g = make_grid(2, (1.0, 1.0), (12, 12))
    rng = np.random.default_rng(1)
    f = Field(g, rng.random(g.cells))
    ht, hx = g.h
    for p, q in ((2.0, 2.0), (1.5, 3.0)):
        # iterated integrals cell by cell, each cell weighing its width
        if not reversed_order:
            inner = [sum(f.values[i, j] ** p * hx for j in range(12)) for i in range(12)]
            want = sum(v ** (q / p) * ht for v in inner) ** (1.0 / q)
        else:
            inner = [sum(f.values[i, j] ** q * ht for i in range(12)) for j in range(12)]
            want = sum(v ** (p / q) * hx for v in inner) ** (1.0 / p)
        got = mixed_norm(f, p, q, reversed_order=reversed_order)
        assert got == pytest.approx(want, rel=1e-12)
    kind = "Lqp_reversed" if reversed_order else "Lpq"
    assert evaluate_norm(f, NormSpec(kind, p=2.0, q=2.0), SP) == pytest.approx(
        evaluate_norm(f, NormSpec("Lp", p=2.0), SP), rel=1e-12)


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
    # every x-ball x t-window cylinder on a (1+1)-D grid.  Standard order:
    # the t-mean of the x-ball means of |b|^p, raised to q/p.  Reversed: the
    # t-mean of |b|^q, raised to p/q, then its x-ball mean.
    g = make_grid(2, (1.0, 1.0), (12, 12))
    rng = np.random.default_rng(13)
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
                    x_means = (absb[rows] ** p)[:, ball].mean(axis=1)
                    val = (x_means ** (q / p)).mean() ** (1.0 / q)
                else:
                    t_means = (absb[rows] ** q).mean(axis=0) ** (p / q)
                    val = t_means[ball].mean() ** (1.0 / p)
                want = max(want, rho * val)
    # the mixed sup behind drift_seminorm(b, p, 1.0, SP, q_b=q), on these radii
    got = _mixed_morrey_sup(b, p, q, 1.0, SP, radii, reversed_order=reversed_order)[0]
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
    lattice, the mean deviation of a over the x-ball from its average there,
    then averaged over t-windows of length rho^2 / ht."""
    from morreylab.maximal import member_offsets
    from morreylab.norms import _family_radii

    grid = a.grid
    lim = np.asarray(grid.cells[1:])
    best = 0.0
    for r in _family_radii(grid, structure, rho):
        wlen = max(1, int(round(r ** 2 / grid.h[0])))
        if wlen > grid.cells[0]:
            continue
        member = member_offsets(grid, structure, r, "ball_x")
        offs = np.argwhere(member.mask) - np.asarray(member.origin)
        for c in np.ndindex(*[len(range(0, n, stride)) for n in grid.cells[1:]]):
            idx = stride * np.asarray(c) + offs
            cells = tuple(idx[np.all((idx >= 0) & (idx < lim), axis=1)].T)
            dev = []
            for t in range(grid.cells[0]):
                v = a.values[t][cells]
                dev.append(np.abs(v - v.mean()).mean())
            for t0 in range(grid.cells[0] - wlen + 1):
                best = max(best, sum(dev[t0:t0 + wlen]) / wlen)
    return best


@pytest.mark.parametrize("cells", [(32, 32), (16, 24, 24)])
def test_bmo_sharpsharp_matches_per_anchor_reference(cells):
    g = make_grid(len(cells), 1.0, cells)
    rng = np.random.default_rng(11)
    a = Field(g, 1.0 + rng.random(cells) + np.sin(3.0 * g.mesh()[1]))
    s = make_structure(len(cells), (2,) + (1,) * (len(cells) - 1))
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


def test_exp_drift_pair_drift_holds_its_exact_singular_cell_average():
    # |b| = 2/|x| in 3-D: the cell at the origin holds the ball-rule average
    # 4 pi r^2 / vol over the ball of the cell's volume, not its sample
    g = make_grid(3, 4.0, 32)
    _, b, _ = tf("exp_drift_pair", g, lam=1.0)
    [(idx, _mass)] = b.power_mass_cells(1.0)
    r_eq = (3.0 * g.cell_volume / (4.0 * math.pi)) ** (1.0 / 3.0)
    assert b.values[idx] == pytest.approx(4.0 * math.pi * r_eq ** 2 / g.cell_volume, rel=1e-12)
    assert b.values[idx] == pytest.approx(19.3439, rel=1e-5)


def test_kappa_ridge_norm_bounds():
    # slashed norms behave like the closed-form envelopes
    g = make_grid(3, 0.75, 64)
    beta, p = 1.5, 4.0 / 3.0
    kappa = 0.1
    u, b_du, d2 = tf("kappa_ridge", g, kappa=kappa, beta=beta)

    def slashed(f, r):
        """The L_p norm over the cube [-r, r]^3 of the measure-normalised
        integral: the integral divided by the measure of the cells inside."""
        inside = np.all(np.abs(np.stack(g.mesh())) <= r, axis=0)
        return lp_norm(f, p, region=([-r] * 3, [r] * 3)) \
            / (float(inside.sum()) * g.cell_volume) ** (1.0 / p)

    n_bdu = slashed(b_du, 3 * kappa)
    assert n_bdu >= 0.05 * (3 * kappa) ** -2.0  # N1 (3 kappa)^{-2} envelope
    for r in (0.3, 0.6):
        n_d2 = slashed(d2, r)
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


def test_lqp_asym_field_masses():
    g = make_grid(3, (1.0, 1.2, 1.2), (32, 48, 48))
    p0, q0 = 2.5, 2.0
    b = tf("lqp_vs_lpq", g, p0=p0)
    std = drift_seminorm(b, p0, 1.0, make_structure(3, (2, 1, 1)), q_b=q0)
    rev = drift_seminorm(b, p0, 1.0, make_structure(3, (2, 1, 1)), q_b=q0,
                         reversed_order=True)
    assert not math.isfinite(std)
    assert math.isfinite(rev)


def test_mixed_morrey_kinds_on_a_smooth_field():
    # Lqpb_reversed_morrey at beta 1 sups over the radii up to L, the least
    # half extent, as the reversed drift seminorm at rho_b = L does; Epqb
    # with r >= L keeps all of the radii of EpqbDot
    g = make_grid(2, (1.0, 1.2), (32, 40))
    t, x = g.mesh()
    f = Field(g, np.exp(-2.0 * (t ** 2 + x ** 2)) + 0.5 * np.cos(x))
    p, q = 2.0, 3.0
    L = min(g.half_extent)
    rev = evaluate_norm(f, NormSpec("Lqpb_reversed_morrey", p=p, q=q, beta=1.0), SP)
    assert rev == drift_seminorm(f, p, L, SP, q_b=q, reversed_order=True)
    assert math.isfinite(rev) and rev != drift_seminorm(f, p, L, SP, q_b=q)
    dot = evaluate_norm(f, NormSpec("EpqbDot", p=p, q=q, beta=1.0), SP)
    for r in (L, 2.0 * L):
        assert evaluate_norm(f, NormSpec("Epqb", p=p, q=q, beta=1.0, r=r), SP) == dot


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
    # the anchors whose member holds a cell of divergent mass, on |x|^-1.5 at
    # p = 2 in 2-D and on the parabolic singularity over cylinders at p = 3
    # (alpha p = 3 = d + 2); the norm is inf
    if case == "power-2d":
        g, s, p, shape = make_grid(2, 1.0, 24), S2, 2.0, "ball"
        f = tf("power", g, gamma=1.5)
    else:
        g, s, p, shape = make_grid(2, (1.0, 1.0), (24, 20)), SP, 3.0, "cylinder"
        f = tf("parab_sing", g)
    _, inf_mask = power_integrand(f, p)
    assert 1 <= inf_mask.sum() <= 4
    for rho in BallFamily.for_structure(s, g).radii:
        member = member_offsets(g, s, rho, shape)
        # a mask correlation, as weights._cube_means reads: its sums count marked cells
        hit = _correlate(inf_mask.astype(float), member) > 0.5
        assert np.array_equal(hit, brute_members_holding(inf_mask, member.mask, member.origin)), rho
    spec = NormSpec("EpbDot", p=p, beta=1.0)
    assert evaluate_norm(f, spec, s) == math.inf


@pytest.mark.parametrize("case", ["power-2d", "parab-cylinder"])
def test_divergent_fields_make_every_radius_inf_without_a_correlation(case, monkeypatch):
    # every member holds its anchor cell, so a cell of divergent mass makes
    # every kept radius inf in the Morrey sup and in both orders of the mixed
    # sup, with no member sum or mask correlation at all
    from morreylab import maximal, norms
    from morreylab.norms import _mixed_morrey_sup, _morrey_sup

    if case == "power-2d":
        g, s, p = make_grid(2, 1.0, 24), S2, 2.0
        f = tf("power", g, gamma=1.5)
    else:
        g, s, p = make_grid(2, (1.0, 1.0), (24, 20)), SP, 3.0
        f = tf("parab_sing", g)
    # the last radius's t-window is longer than the grid: the mixed sups skip it
    radii = BallFamily.for_structure(s, g).radii + (2.0,)
    kept = [rho for rho in radii if max(1, int(round(rho ** 2 / g.h[0]))) <= g.cells[0]]
    assert len(kept) == len(radii) - 1
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(maximal, "_fft_correlate", counting(maximal._fft_correlate))
    monkeypatch.setattr(maximal, "_box_sum", counting(maximal._box_sum))
    monkeypatch.setattr(norms, "_box_sum", counting(norms._box_sum))
    (best, profile), = _morrey_sup([f], p, 1.0, s, radii)
    assert best == math.inf and profile == [(rho, math.inf) for rho in radii]
    for reversed_order in (False, True):
        best, profile = _mixed_morrey_sup(f, p, p, 1.0, s, radii, reversed_order=reversed_order)
        assert best == math.inf and profile == [(rho, math.inf) for rho in kept]
    assert calls == []


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
        member = member_offsets(g, S2, rho, "ball")
        if member.spans is None:  # the FFT path
            shapes.append(tuple(maximal._fast_len(n + max(o, s - 1 - o))
                                for n, s, o in zip(g.cells, member.mask.shape, member.origin)))
    assert len(set(shapes)) < len(shapes)  # the case holds shared shapes
    alone = [_morrey_sup([f], 2.0, 0.5, S2, [rho])[0][1][0]
             for rho in radii]
    calls = []
    rfftn = np.fft.rfftn

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return rfftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", counting)
    (best, profile), = _morrey_sup([f], 2.0, 0.5, S2, radii)
    assert len(calls) == len(set(shapes))
    assert profile == alone
    assert best == max(m for _, m in alone)


@pytest.mark.parametrize("p, beta", [(1.0, 0.0), (2.0, 0.5), (3.0, 1.5), (1.5, 2.0)])
def test_morrey_sup_scales_only_the_largest_mean(p, beta):
    # the sup applies rho^beta max(., 0)^(1/p) to the largest member mean
    # alone; it is bit-identical to scaling every mean and taking the max,
    # and a member holding a divergent cell makes the radius inf
    from morreylab.maximal import _member_means
    from morreylab.norms import _morrey_sup

    g = make_grid(2, 1.0, 32)
    rng = np.random.default_rng(int(10 * p + beta))
    for f in (Field(g, rng.standard_normal(g.cells) * rng.random(g.cells) ** 4),
              tf("power", g, gamma=2.5 / p)):
        arr, inf_mask = power_integrand(f, p)
        radii = BallFamily.for_structure(S2, g).radii
        want = []
        for rho in radii:
            member = member_offsets(g, S2, rho, "ball")
            s, _ = _member_means(arr, None, member)
            val = rho ** beta * np.maximum(s, 0.0) ** (1.0 / p)
            hit = _correlate(inf_mask.astype(float), member) > 0.5
            want.append((rho, float(np.where(hit, np.inf, val).max())))
        (best, profile), = _morrey_sup([f], p, beta, S2, radii)
        assert profile == want
        assert best == max(m for _, m in want)
        assert inf_mask.any() == (best == math.inf)


def _batch_fields(g, p):
    """Fields on one grid for the stacked sups: random, smooth, one with a
    divergent cell at p (the third) and an isolated singular cell."""
    rng = np.random.default_rng(len(g.cells))
    return [Field(g, rng.standard_normal(g.cells)),
            Field(g, np.cos(sum(g.mesh()))),
            tf("power", g, gamma=g.dim / p + 0.2),
            Field(g, rng.random(g.cells) ** 6),
            tf("power", g, gamma=0.5 * g.dim / p),
            Field(g, rng.standard_normal(g.cells) * rng.random(g.cells) ** 4)]


@pytest.mark.parametrize("case", ["ball-2d", "ball-3d", "cylinder"])
@pytest.mark.parametrize("stack_bytes", [None, "two"])
def test_stacked_morrey_sup_is_one_call_per_field(case, stack_bytes, monkeypatch):
    # a stack's (best, profile) is bit-identical to one call per field; a
    # divergent field reads inf at every radius and joins no stack, the
    # byte cap splits the others into stacks, and each stack correlates
    # once per distinct member of the radii
    from morreylab import maximal, norms
    from morreylab.maximal import _spectrum_bytes
    from morreylab.norms import _morrey_sup

    g, s, p = {"ball-2d": (make_grid(2, 1.0, 32), S2, 2.0),
               "ball-3d": (make_grid(3, 1.0, 12), S3, 1.5),
               "cylinder": (make_grid(2, (1.0, 1.0), (24, 20)), SP, 3.0)}[case]
    fields = _batch_fields(g, p)
    radii = BallFamily.for_structure(s, g).radii
    members = [member_offsets(g, s, rho, maximal._member_shape(s)) for rho in radii]
    distinct = [m for i, m in enumerate(members) if i == 0 or m != members[i - 1]]
    alone = [_morrey_sup([f], p, 0.7, s, radii)[0] for f in fields]
    assert alone[2] == (math.inf, [(rho, math.inf) for rho in radii])
    if stack_bytes == "two":  # room for the spectra of two fields
        monkeypatch.setattr(norms, "_STACK_BYTES",
                            2 * max(_spectrum_bytes(g.cells, m) for m in members))
    stacks = []

    def counting(fn):
        def wrapped(values, *args, **kwargs):
            if values.ndim > g.dim:  # a stack, not a count or a table
                stacks.append(values.shape[0])
            return fn(values, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(maximal, "_fft_correlate", counting(maximal._fft_correlate))
    monkeypatch.setattr(maximal, "_box_sum", counting(maximal._box_sum))
    assert _morrey_sup(fields, p, 0.7, s, radii) == alone
    # one correlation per distinct member and stack, none for the divergent
    # field
    sizes = [5] if stack_bytes is None else [2, 2, 1]
    assert stacks == [n for n in sizes for _ in distinct]


def _direct_profile(f, p, beta, structure, radii):
    """_morrey_sup's profile of one field by direct summation: each member's
    sum and clipped cell count, one stencil offset at a time."""
    from morreylab.maximal import _member_shape

    arr, _ = power_integrand(f, p)
    cells = arr.shape
    profile = []
    for rho in radii:
        member = member_offsets(f.grid, structure, rho, _member_shape(structure))
        # values(c + k - origin) is padded[c + k]
        pad = [(o, s - 1 - o) for s, o in zip(member.mask.shape, member.origin)]
        padded, inside = np.pad(arr, pad), np.pad(np.ones(cells), pad)
        total, count = np.zeros(cells), np.zeros(cells)
        for k in zip(*np.nonzero(member.mask)):
            at = tuple(slice(i, i + n) for i, n in zip(k, cells))
            total += padded[at]
            count += inside[at]
        profile.append((rho, rho ** beta * float((total / count).max()) ** (1.0 / p)))
    return profile


def _bump(g, centre, width):
    """A smooth bump of the given width about centre, zero past it."""
    rr = sum((x - c) ** 2 for x, c in zip(g.mesh(), centre)) / width ** 2
    return Field(g, np.maximum(1.0 - rr, 0.0) ** 2)


def _compact_cases(g):
    """Stacks of compactly supported fields on g: an off-centre bump, a
    support that touches the face at the start of axis 0, one nonzero
    corner cell, one nonzero interior cell (whose largest means sit where
    the members reach past the window), an all-zero field stacked with the
    bump, and the ridge fields of kappa_ridge at kappa = 0.05."""
    lo = -0.75
    bump = _bump(g, (0.2,) + (-0.15,) * (g.dim - 1), 0.3)
    corner, spike = np.zeros(g.cells), np.zeros(g.cells)
    corner[(-1,) * g.dim] = 2.0
    spike[tuple(n // 3 for n in g.cells)] = 3.0
    _u, b_du, d2 = tf("kappa_ridge", g, kappa=0.05, beta=1.5)
    return [[bump], [_bump(g, (lo + 0.1,) + (0.1,) * (g.dim - 1), 0.35)],
            [Field(g, corner)], [Field(g, spike)], [Field(g, np.zeros(g.cells)), bump],
            [b_du], [d2]]


@pytest.mark.parametrize("case", ["interval", "ball-2d", "cylinder", "ball-3d"])
def test_windowed_morrey_sup_matches_direct_summation(case):
    # a stack is correlated over the window of anchors that reach its
    # support; every profile matches the direct sums over the whole grid
    from morreylab.norms import _morrey_sup

    g, s = {"interval": (make_grid(1, 0.75, 96), S1),
            "ball-2d": (make_grid(2, 0.75, 40), S2),
            "cylinder": (make_grid(2, 0.75, (40, 32)), SP),
            "ball-3d": (make_grid(3, 0.75, 20), S3)}[case]
    radii = BallFamily.for_structure(s, g, rho_max=0.5).radii
    p, beta = 4.0 / 3.0, 1.5
    for stack in _compact_cases(g):
        for got, f in zip(_morrey_sup(stack, p, beta, s, radii), stack):
            want = _direct_profile(f, p, beta, s, radii)
            assert got[1] == [(rho, pytest.approx(m, rel=1e-12, abs=0.0)) for rho, m in want]
            assert got[0] == max(m for _rho, m in got[1])


def test_windowed_morrey_sup_correlates_no_more_than_the_window(monkeypatch):
    # every correlation reads the stack's support box and keeps exactly the
    # radius's window of anchors whose members reach it, at the lengths of
    # the one rule, which are shorter than padding the window itself
    from scipy.fft import next_fast_len

    from morreylab import maximal
    from morreylab.maximal import _bounding_box
    from morreylab.norms import _morrey_sup

    g = make_grid(2, 0.75, 48)
    f = _bump(g, (0.3, -0.2), 0.2)
    radii = BallFamily.for_structure(S2, g, rho_max=0.5).radii
    support = _bounding_box(f.values != 0)
    box = tuple(slice(a, b + 1) for a, b in support)
    calls = []
    correlate = maximal._fft_correlate

    def recording(values, kernel, origin, forward=None, span=None):
        out = correlate(values, kernel, origin, forward, span)
        calls.append((values, kernel.shape, origin, span, forward.key))
        return out

    monkeypatch.setattr(maximal, "_fft_correlate", recording)
    _morrey_sup([f], 2.0, 1.0, S2, radii)
    assert calls  # the case holds FFT members
    shorter = False
    for values, shape, origin, span, lens in calls:
        assert values.shape[1:] == tuple(b + 1 - a for a, b in support)
        assert np.array_equal(values[0], f.values[box] ** 2)
        window = [(max(0, a - (s - 1 - o)) - a, min(n, b + o + 1) - a) for (a, b), s, o, n
                  in zip(support, shape, origin, g.cells)]
        assert list(span) == window
        m = values.shape[1:]
        assert lens == tuple(next_fast_len(max(hi - 1 + s - 1 - o, n - 1 + o - lo) + 1, real=True)
                             for n, s, o, (lo, hi) in zip(m, shape, origin, span))
        # the window padded as if it were dense, before rounding up
        padded = [hi - lo + max(o, s - 1 - o) for s, o, (lo, hi) in zip(shape, origin, span)]
        assert all(k <= next_fast_len(w, real=True) for k, w in zip(lens, padded))
        shorter |= any(k < w for k, w in zip(lens, padded))
        assert all(hi - lo < n for (lo, hi), n in zip(span, g.cells))
    assert shorter


@pytest.mark.parametrize("spec", [NormSpec("Lp", p=3.0), NormSpec("Epbr", p=2.0, beta=0.8),
                                  NormSpec("EpbDot", p=1.5, beta=1.2),
                                  NormSpec("Epqb", p=2.0, q=3.0, beta=1.0)])
def test_evaluate_norms_is_evaluate_norm_per_field(spec):
    g = make_grid(2, (1.0, 1.0), (24, 20))
    fields = _batch_fields(g, spec.p)
    got = evaluate_norms(fields, spec, SP, return_profile=spec.kind != "Lp")
    assert got == [evaluate_norm(f, spec, SP, return_profile=spec.kind != "Lp")
                   for f in fields]


def test_bmo_seminorms_store_every_count(monkeypatch):
    # the x-ball cylinder of a# # is a keyed record: a second call recounts
    # nothing
    from morreylab import maximal

    g = make_grid(2, (1.0, 1.0), (24, 20))
    a = Field(g, 1.0 + np.random.default_rng(5).random(g.cells))
    first = bmo_seminorms(a, 0.5, SP)
    calls, count = [], maximal._stencil_count

    def counting(*args):
        calls.append(args[2])
        return count(*args)

    monkeypatch.setattr(maximal, "_stencil_count", counting)
    assert bmo_seminorms(a, 0.5, SP) == first
    assert calls == []
