import math

import numpy as np
import pytest

from morreylab.grid import Field, lp_norm, make_grid, make_structure
from morreylab.maximal import BallFamily, classical_maximal, member_offsets
from morreylab.testfunctions import test_function as tf
from morreylab.weights import (
    Weight,
    a1_constant,
    ainf_profile,
    ap_constant,
    jones_factorize,
    parabolic_power_weight,
    power_weight,
    rdf_iterate,
    reverse_holder,
    self_improve,
)
from morreylab.weights import _running_min

S1 = make_structure(1, (1,))


def test_ap_constant_unit_weight():
    g = make_grid(1, 1.0, 256)
    w = Weight(Field(g, np.ones(256)))
    for p in (1.0, 1.5, 2.0, 3.0):
        assert ap_constant(w, p, S1) == pytest.approx(1.0, abs=1e-12)


def brute_force_a2_intervals(w_vals, x, h, n_centers=160, n_widths=60):
    """Dense scan over nested intervals: sup of avg(w) avg(1/w)."""
    best = 1.0
    n = len(x)
    for ci in np.linspace(0, n - 1, n_centers).astype(int):
        for wd in np.unique(np.linspace(2, n // 2, n_widths).astype(int)):
            lo, hi = max(0, ci - wd), min(n, ci + wd)
            seg = w_vals[lo:hi]
            best = max(best, float(seg.mean() * (1.0 / seg).mean()))
    return best


def test_a2_sqrt_weight_brute_force_oracle():
    g = make_grid(1, 1.0, 1024)
    w = power_weight(g, 0.5)
    est = ap_constant(w, 2.0, S1)
    oracle = brute_force_a2_intervals(w.field.values, g.axis(0), g.h[0])
    assert math.isfinite(est)
    assert est == pytest.approx(oracle, rel=0.15)
    assert est >= 4.0 / 3.0  # the centered-interval continuum value


def test_ap_monotone_in_p():
    g = make_grid(1, 1.0, 512)
    w = power_weight(g, 0.5)
    c2 = ap_constant(w, 2.0, S1)
    c3 = ap_constant(w, 3.0, S1)
    assert c3 <= c2 * (1 + 1e-9)


def test_ap_at_least_one():
    g = make_grid(1, 1.0, 256)
    rng = np.random.default_rng(0)
    w = Weight(Field(g, rng.random(256) + 0.2))
    for p in (1.0, 2.0):
        assert ap_constant(w, p, S1) >= 1.0 - 1e-12


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_ap_constant_with_a_density_matches_brute_force(p):
    # every cube mean divides by the clipped cube's cell count; the direct
    # max runs cell by cell
    g = make_grid(2, 1.0, 16)
    rng = np.random.default_rng(11)
    s = make_structure(2, (1, 1))
    wv = 0.2 + rng.random(g.cells) ** 3
    dual = wv ** (-1.0 / (p - 1.0))
    fam = BallFamily.for_structure(s, g, shape="cube", rho_max=2.0 * min(g.half_extent))
    want = 1.0
    for rho in fam.radii:
        half = member_offsets(g, s, rho, "box").origin  # the half widths of the cube
        for c in np.ndindex(g.cells):
            box = tuple(slice(max(0, i - hc), i + hc + 1) for i, hc in zip(c, half))
            w_q, d_q = wv[box].mean(), dual[box].mean()
            want = max(want, w_q * d_q ** (p - 1.0))
    assert ap_constant(Weight(Field(g, wv)), p, s) == pytest.approx(want, rel=1e-12)


def test_ap_constant_keeps_one_table_per_field_across_radii(monkeypatch):
    # one ap_constant call masks each field once and keeps one holder per
    # array across radii: one summed-area table per array (w with its
    # non-finite values zeroed, their mask, the dual) and summed axis, one
    # cube mean of w and of the dual per distinct box, and every cube mean
    # bit for bit the one made without holders
    from morreylab import maximal, weights

    g, s = make_grid(2, 1.0, 32), make_structure(2, (1, 1))
    w = power_weight(g, -2.5)  # its singular cell is not integrable: +inf
    assert np.isinf(w.field.values).sum() == 1
    radii = BallFamily.for_structure(s, g, shape="cube", rho_max=2.0).radii
    boxes = [member_offsets(g, s, rho, "box") for rho in radii]
    distinct = [b for i, b in enumerate(boxes) if i == 0 or b != boxes[i - 1]]
    assert len(distinct) < len(radii)  # the family repeats a box
    table, cube_means = maximal._Forward.table, weights._cube_means

    def run():
        means = []

        def keeping(cube_field, box):
            means.append(cube_means(cube_field, box))
            return means[-1]

        monkeypatch.setattr(weights, "_cube_means", keeping)
        return ap_constant(w, 2.0, s, return_argmax=True), means

    asks = []

    def asking(holder, values, ax, pre, post):
        asks.append((values, ax, table(holder, values, ax, pre, post)[1]))
        return table(holder, values, ax, pre, post)

    monkeypatch.setattr(maximal._Forward, "table", asking)
    held, held_means = run()
    arrays = {(id(values), ax) for values, ax, _ in asks}
    assert len(arrays) == 3 and len(asks) == 3 * len(distinct)
    assert len({id(c) for _, _, c in asks}) == len(arrays)
    monkeypatch.setattr(weights, "_Forward", lambda: None)
    asks.clear()
    alone, alone_means = run()
    assert not asks and held == alone
    assert len(held_means) == 2 * len(distinct)
    assert all(np.array_equal(a, b) for a, b in zip(held_means, alone_means))


@pytest.mark.parametrize("alpha,finite", [
    (-1.5, False), (-0.9, True), (0.0, True), (0.5, True),
    (0.9, True), (1.0, False), (1.5, False),
])
def test_ap_power_range_classification(alpha, finite):
    g = make_grid(1, 1.0, 512)
    c = ap_constant(power_weight(g, alpha), 2.0, S1)
    assert math.isfinite(c) == finite


def test_duality_identity():
    # [w^{-1/(p-1)}]_{A_{p'}} = [w]_{A_p}^{1/(p-1)}
    g = make_grid(1, 1.0, 512)
    p = 3.0
    w = power_weight(g, 0.5)
    dual = power_weight(g, -0.5 / (p - 1.0))
    lhs = ap_constant(dual, p / (p - 1.0), S1)
    rhs = ap_constant(w, p, S1) ** (1.0 / (p - 1.0))
    assert lhs == pytest.approx(rhs, rel=0.05)


def test_doubling_from_ap():
    g = make_grid(1, 1.0, 512)
    w = power_weight(g, 0.5)
    apw = ap_constant(w, 2.0, S1)
    n0 = 2.0
    x = g.axis(0)
    wv = w.field.values
    rng = np.random.default_rng(2)
    for _ in range(50):
        c = rng.uniform(-0.4, 0.4)
        l = rng.uniform(8 * g.h[0], 0.5)
        small = np.abs(x - c) < l / 2
        big = np.abs(x - c) < l
        ws, wb = wv[small].sum(), wv[big].sum()
        assert wb <= ws * apw * n0 ** 2 * (1 + 1e-9)


def test_ainf_profile_unit_and_power():
    g = make_grid(1, 1.0, 512)
    b1, n1, lm1 = ainf_profile(Weight(Field(g, np.ones(512))), 2.0, S1)
    assert b1 == pytest.approx(1.0, abs=0.02)
    assert n1 == pytest.approx(1.0, abs=1e-9)
    bw, nw, lmw = ainf_profile(power_weight(g, 0.5), 2.0, S1)
    assert 0.0 < bw <= 1.0 and math.isfinite(nw)
    assert lmw >= 1.0 - 1e-9  # lower-bound direction on every sampled pair


def test_ainf_profile_reads_the_constant_of_its_own_structure():
    # the lower margin scales with [w]_{A_2} of the structure passed in, so a
    # weight profiled under one structure and then another must not carry
    # the first structure's constant into the second
    g = make_grid(2, 1.0, 64)
    w = power_weight(g, 0.5)
    iso, parab = make_structure(2), make_structure(2, (2, 1))
    ainf_profile(w, 2.0, iso)
    again = ainf_profile(w, 2.0, parab)
    assert again == ainf_profile(power_weight(g, 0.5), 2.0, parab)
    assert again[2] != ainf_profile(power_weight(g, 0.5), 2.0, iso)[2]


def test_reverse_holder_unit_weight():
    g = make_grid(1, 1.0, 256)
    eps, n = reverse_holder(Weight(Field(g, np.ones(256))), 2.0, S1)
    assert eps > 0 and n == pytest.approx(1.0, abs=1e-9)


def test_reverse_holder_integrability_threshold():
    # |x|^{-1/2}: powers (1+eps)/2 must stay below 1
    g = make_grid(1, 1.0, 512)
    eps, _ = reverse_holder(power_weight(g, -0.5), 2.0, S1)
    assert 0.0 < eps < 1.0


def test_reverse_holder_parabolic_power_keeps_its_closed_form():
    # (|x| + sqrt|t|)^{-(1+eps)} is locally integrable in (1+1)-D only for
    # 1 + eps < 3: 1.6 is the largest default-grid eps below that.  N near
    # the threshold carries the midpoint error of the corner-cell masses,
    # so only its finiteness is asserted.
    g = make_grid(2, (1.0, 1.0), (64, 64))
    eps, n = reverse_holder(parabolic_power_weight(g, 1.0), 2.0, make_structure(2, (2, 1)))
    assert eps == 1.6 and math.isfinite(n)


def test_reverse_holder_takes_a_pointwise_weight_with_a_singular_cell():
    # |x|^-1 without its closed form: the pointwise power keeps the
    # singular features, so the infinite cell stays a legal Field
    w = power_weight(make_grid(1, 1.0, 256), -1.0)
    pointwise = Weight(Field(w.grid, w.field.values, w.field.singular))
    assert not np.isfinite(pointwise.field.values).all()
    assert reverse_holder(pointwise, 2.0, S1) == reverse_holder(w, 2.0, S1)


@pytest.mark.filterwarnings("error")
def test_reverse_holder_finds_no_gain_for_a_non_integrable_weight_without_a_nan():
    # |x|^-1 is not locally integrable in 1-D: a cube mean of w is +inf, and
    # that alone ends the search, with no inf / inf ratio and no warning
    w = power_weight(make_grid(1, 1.0, 256), -1.0)
    assert reverse_holder(w, 2.0, S1) == (0.0, 1.0)


def test_power_test_function_keeps_its_closed_form_as_a_weight():
    # the power test field is power_weight's field, so as a weight its dual
    # w^{-1} is rebuilt with the exact singular-cell mass, not raised pointwise
    g = make_grid(1, 1.0, 256)
    w = Weight(tf("power", g, gamma=0.5))
    assert ap_constant(w, 2.0, S1) == ap_constant(power_weight(g, -0.5), 2.0, S1)


def test_reverse_holder_sqrt_weight_grid_oracle():
    # independent grid search oracle at one scale family
    g = make_grid(1, 1.0, 512)
    w = power_weight(g, 0.5)
    eps, n = reverse_holder(w, 2.0, S1)
    assert eps > 0 and math.isfinite(n)
    wv = w.field.values
    seg = wv  # the full interval is one of the cubes
    lhs = (seg ** (1 + eps)).mean()
    rhs = seg.mean() ** (1 + eps)
    assert lhs <= n * rhs * (1 + 1e-9)


def test_self_improve_consistency():
    g = make_grid(1, 1.0, 512)
    w = power_weight(g, 0.5)
    p = 3.0
    q, aq = self_improve(w, p, S1)
    assert 1.0 < q < p and math.isfinite(aq)
    dual = power_weight(g, -0.5 / (p - 1.0))
    eps, _ = reverse_holder(dual, p / (p - 1.0), S1)
    assert (1.0 + eps) / (p - 1.0) == pytest.approx(1.0 / (q - 1.0), rel=1e-9)


def test_rdf_unit_weight_unit_input():
    g = make_grid(1, 1.0, 256)
    w = Weight(Field(g, np.ones(256)))
    f = Field(g, np.ones(256))
    v, tn = rdf_iterate(f, w, 2.0, S1)
    # T 1 = M 1 = 1, so v = sum 2^{-n} ||T||^{-n} is constant
    assert np.abs(v.values - v.values.mean()).max() < 1e-9
    expected = 1.0 / (1.0 - 0.5 / tn)
    assert v.values.mean() == pytest.approx(expected, rel=1e-6)


def test_rdf_guarantees_sqrt_weight():
    g = make_grid(1, 1.0, 512)
    w = power_weight(g, 0.5)
    rng = np.random.default_rng(4)
    f = Field(g, rng.random(512) + 0.05)
    v, tn = rdf_iterate(f, w, 2.0, S1)
    assert (f.values <= v.values * (1 + 1e-12)).all()
    assert lp_norm(v, 2, weight=w.field) <= 2.0 * lp_norm(f, 2, weight=w.field)
    vw = Field(g, v.values * w.field.values)
    m = classical_maximal(vw, S1, family=BallFamily.for_structure(
        S1, g, shape="cube", density=6.0))
    assert float((m.values / vw.values).max()) <= 2.0 * tn * 1.05
    # the A_1 scan runs over its own (denser) cube family: allow family slack
    assert a1_constant(vw, S1) <= 2.0 * tn * 1.25


def test_jones_unit_weight():
    g = make_grid(1, 1.0, 256)
    w = Weight(Field(g, np.ones(256)))
    w1, w2, _ = jones_factorize(w, 2.0, S1)
    assert np.allclose(w1.values, w2.values)
    assert np.abs(w1.values / w1.values.mean() - 1.0).max() < 1e-9


def test_jones_sqrt_weight():
    g = make_grid(1, 1.0, 512)
    w = power_weight(g, 0.5)
    p = 2.0
    w1, w2, _ = jones_factorize(w, p, S1)
    recon = w1.values ** (1 - p) * w2.values
    assert np.abs(recon / w.field.values - 1.0).max() < 1e-10
    assert math.isfinite(a1_constant(w1, S1))
    assert math.isfinite(a1_constant(w2, S1))


def test_a1_product_direction():
    # for A_1 pair (u, v): [u v^{1-p}]_{A_p} <= [u]_{A_1} [v]_{A_1}^{p-1}
    g = make_grid(1, 1.0, 512)
    p = 2.0
    u = power_weight(g, -0.3).field
    v = power_weight(g, -0.5).field
    prod = Weight(Field(g, u.values * v.values ** (1 - p)))
    lhs = ap_constant(prod, p, S1)
    rhs = a1_constant(u, S1) * a1_constant(v, S1) ** (p - 1)
    assert lhs <= rhs * 1.05


def test_parabolic_power_weight_a1_range():
    s = make_structure(2, (2, 1))
    g = make_grid(2, (1.0, 1.0), (128, 128))
    for alpha in (0.0, 1.0, 2.0):
        assert math.isfinite(ap_constant(parabolic_power_weight(g, alpha), 1.0, s))
    assert not math.isfinite(ap_constant(parabolic_power_weight(g, 3.0), 1.0, s))


def test_min_of_a1_weights_is_a1():
    g = make_grid(1, 1.0, 512)
    w1 = power_weight(g, -0.5).field
    w2 = Field(g, np.full(512, 2.0))
    wmin = Field(g, np.minimum(w1.values, w2.values))
    c = a1_constant(wmin, S1)
    assert math.isfinite(c)
    assert c <= a1_constant(w1, S1) * 2.0


@pytest.mark.parametrize("shape, size", [((9,), (1,)), ((9,), (4,)), ((9,), (13,)),
                                         ((6, 7), (3, 5)), ((6, 7), (2, 8)),
                                         ((4, 5, 6), (3, 1, 5)), ((4, 5, 6), (5, 4, 2))])
def test_running_min_is_the_clipped_box_min(shape, size):
    # minimum_filter(mode='nearest') semantics: the min over the box of
    # size[i] cells that starts size[i] // 2 cells before each cell, clipped
    vals = np.random.default_rng(len(shape) + sum(size)).normal(size=shape)
    want = np.empty(shape)
    for c in np.ndindex(shape):
        want[c] = vals[tuple(slice(max(0, i - w // 2), max(0, i - w // 2 + w))
                             for i, w in zip(c, size))].min()
    assert np.array_equal(_running_min(vals, size), want)
