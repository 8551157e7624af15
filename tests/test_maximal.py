import math

import numpy as np
import pytest

from morreylab.dyadic import dyadic_maximal
from morreylab.grid import Field, lp_norm, make_grid, make_structure
from morreylab.maximal import (
    BallFamily,
    classical_maximal,
    classical_sharp,
    member_averages,
    weighted_maximal,
)
from morreylab.weights import power_weight

S1 = make_structure(1, (1,))
S2 = make_structure(2, (1, 1))


def test_maximal_of_constant():
    g = make_grid(1, 2.0, 256)
    fam = BallFamily.for_structure(S1, g)
    m = classical_maximal(Field(g, np.full(256, 3.7)), S1, family=fam)
    assert np.abs(m.values - 3.7).max() < 1e-10


def brute_force_maximal_1d(f, g, point, radii):
    """Oracle: max over all intervals (a, b) containing the point from a
    dense (center, radius) scan, of the average of |f|."""
    x = g.axis(0)
    best = 0.0
    for rho in radii:
        for c in x[::2]:
            if abs(point - c) >= rho:
                continue
            mask = np.abs(x - c) < rho
            if mask.any():
                best = max(best, float(np.abs(f.values[mask]).mean()))
    return best


def test_interval_indicator_value_oracle():
    # for the indicator of (-1, 1) the maximal function at 2 approaches 2/3
    g = make_grid(1, 4.0, 1024)
    x = g.axis(0)
    f = Field(g, ((x > -1) & (x < 1)).astype(float))
    fam = BallFamily.for_structure(S1, g, density=16.0, gamma=2 ** 0.125)
    m = classical_maximal(f, S1, family=fam)
    i = int(np.searchsorted(x, 2.0))
    oracle = brute_force_maximal_1d(f, g, 2.0, fam.radii)
    assert m.values[i] <= 2.0 / 3.0 + 1e-9
    assert m.values[i] == pytest.approx(oracle, rel=0.05)
    assert m.values[i] > 0.6


def test_hl_bound_l2():
    g = make_grid(2, 1.0, 64)
    rng = np.random.default_rng(1)
    worst = 0.0
    for k in range(5):
        f = Field(g, rng.random(g.cells))
        m = classical_maximal(f, S2)
        worst = max(worst, lp_norm(m, 2) / lp_norm(f, 2))
    assert worst < 3.0  # finite, modest


def test_sharp_constant_and_affine():
    g = make_grid(1, 2.0, 256)
    fam = BallFamily.for_structure(S1, g, density=2.0)
    c = classical_sharp(Field(g, np.full(256, 2.0)), S1, family=fam)
    assert np.abs(c.values).max() < 1e-12
    a = classical_sharp(Field(g, g.axis(0).copy()), S1, family=fam)
    assert a.values.max() > 0.1


def test_sharp_vs_maximal_pointwise():
    g = make_grid(1, 1.0, 256)
    rng = np.random.default_rng(3)
    f = Field(g, rng.random(256))
    fam = BallFamily.for_structure(S1, g, density=4.0)
    sharp = classical_sharp(f, S1, family=fam)
    m = classical_maximal(f, S1, family=fam)
    assert (sharp.values <= 2.0 * m.values + 1e-10).all()


def test_dyadic_dominated_by_classical():
    g = make_grid(1, 1.0, 256)
    rng = np.random.default_rng(4)
    f = Field(g, rng.random(256))
    md = dyadic_maximal(f, S1)
    mc = classical_maximal(f, S1, family=BallFamily.for_structure(S1, g, density=8.0))
    ratio = float((md.values / np.maximum(mc.values, 1e-300)).max())
    assert ratio <= 3.0  # covering constant for boxes inside balls


def test_weighted_maximal_constant():
    g = make_grid(1, 1.0, 256)
    w = power_weight(g, 0.5)
    m = weighted_maximal(Field(g, np.full(256, 1.5)), w, S1)
    assert np.abs(m.values - 1.5).max() < 1e-10


def test_weighted_maximal_pointwise_domination():
    # (M f)^p <= N(p) [w]_{A_p} M_w(f^p)
    g = make_grid(1, 1.0, 512)
    w = power_weight(g, 0.5)
    from morreylab.weights import ap_constant

    apw = ap_constant(w, 2.0, S1)
    rng = np.random.default_rng(5)
    f = Field(g, rng.random(512))
    fam = BallFamily.for_structure(S1, g, shape="cube", density=6.0)
    m = classical_maximal(f, S1, family=fam)
    mw = weighted_maximal(Field(g, f.values ** 2), w, S1, family=fam)
    lhs = m.values ** 2
    rhs = apw * mw.values
    # allow a modest covering constant on the sampled family
    assert float((lhs / np.maximum(rhs, 1e-300)).max()) <= 4.0


def test_muckenhoupt_weighted_bound():
    g = make_grid(1, 1.0, 512)
    w = power_weight(g, 0.5)
    rng = np.random.default_rng(6)
    worst = 0.0
    for k in range(4):
        f = Field(g, rng.random(512))
        m = classical_maximal(f, S1)
        worst = max(worst, lp_norm(m, 2, weight=w.field) / lp_norm(f, 2, weight=w.field))
    assert worst < 4.0


def test_sublinearity_exact():
    g = make_grid(2, 1.0, 48)
    rng = np.random.default_rng(8)
    f = Field(g, rng.random(g.cells))
    h = Field(g, rng.random(g.cells))
    fam = BallFamily.for_structure(S2, g)
    m_sum = classical_maximal(Field(g, f.values + h.values), S2, family=fam)
    m_f = classical_maximal(f, S2, family=fam)
    m_h = classical_maximal(h, S2, family=fam)
    assert (m_sum.values <= m_f.values + m_h.values + 1e-12).all()
    m_scaled = classical_maximal(Field(g, -2.0 * f.values), S2, family=fam)
    assert np.allclose(m_scaled.values, 2.0 * m_f.values)


def test_family_enlargement_monotone():
    g = make_grid(1, 1.0, 256)
    rng = np.random.default_rng(9)
    f = Field(g, rng.random(256))
    fam_all = BallFamily.for_structure(S1, g, density=4.0)
    fam_sub = BallFamily(fam_all.radii[::2], fam_all.shape, fam_all.density)
    m_sub = classical_maximal(f, S1, family=fam_sub)
    m_all = classical_maximal(f, S1, family=fam_all)
    assert (m_all.values >= m_sub.values - 1e-12).all()


def test_fractional_beta_scaling():
    # member averages carry the rho^beta prefactor
    g = make_grid(1, 1.0, 256)
    f = Field(g, np.ones(256))
    fam = BallFamily.for_structure(S1, g)
    m = classical_maximal(f, S1, beta=1.0, family=fam)
    assert m.values.max() == pytest.approx(fam.radii[-1], rel=0.1)


def test_member_averages_clip_at_boundary():
    g = make_grid(1, 1.0, 128)
    f = Field(g, np.ones(128))
    avg, counts = member_averages(f, S1, 0.5, "ball")
    assert np.abs(avg - 1.0).max() < 1e-12  # recomputed measure keeps avg exact
    assert counts[0] < counts[64]  # clipped member has smaller measure
