import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab.dyadic import (
    box_doubling_constant,
    conditional_average,
    cz_decompose,
    dyadic_maximal,
    dyadic_sharp,
    max_generation,
    stopping_time,
)
from morreylab.grid import Field, integrate, lp_norm, make_grid, make_structure

S1 = make_structure(1, (1,))


def shifted_grid():
    # emulate the half-open interval [0, 4) with the centered box [-2, 2)
    return make_grid(1, 2.0, 64)


def block_indicator(g, lo, hi, amp):
    x = g.axis(0)
    return Field(g, amp * ((x >= lo) & (x < hi)))


def test_conditional_average_constant():
    g = shifted_grid()
    f = Field(g, np.full(64, 2.5))
    for gen in range(max_generation(g, (1,)) + 1):
        assert np.allclose(conditional_average(f, S1, gen).values, 2.5)


def test_conditional_average_block_example():
    # f = 4 on the first quarter of the domain: whole-box average 1,
    # first-half average 2
    g = shifted_grid()
    f = block_indicator(g, -2.0, -1.0, 4.0)
    assert conditional_average(f, S1, 0).values[0] == pytest.approx(1.0)
    assert conditional_average(f, S1, 1).values[0] == pytest.approx(2.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2), st.integers(0, 4))
def test_tower_property(m, n):
    g = make_grid(1, 1.0, 64)
    rng = np.random.default_rng(42)
    f = Field(g, rng.random(64))
    inner = conditional_average(f, S1, max(m, n))
    lhs = conditional_average(inner, S1, min(m, n))
    rhs = conditional_average(f, S1, min(m, n))
    assert np.allclose(lhs.values, rhs.values)


def test_box_integral_preserved():
    g = make_grid(1, 1.0, 128)
    rng = np.random.default_rng(1)
    f = Field(g, rng.random(128))
    for gen in (1, 3, 5):
        avg = conditional_average(f, S1, gen)
        assert integrate(avg) == pytest.approx(integrate(f), rel=1e-12)


def test_stopping_time_all_below_is_infinite():
    g = shifted_grid()
    f = Field(g, np.full(64, 0.5))
    tau = stopping_time(f, S1, 1.0)
    assert (tau.generations == -1).all()


def test_stopping_time_block_example():
    g = shifted_grid()
    f = block_indicator(g, -2.0, -1.0, 4.0)
    tau = stopping_time(f, S1, 1.0)
    x = g.axis(0)
    first_half = x < 0
    assert (tau.generations[first_half] == 1).all()
    assert (tau.generations[~first_half] == -1).all()
    assert tau.is_stopping_time()


def test_stopping_time_precondition_error():
    g = shifted_grid()
    f = Field(g, np.full(64, 9.0))
    with pytest.raises(ValueError):
        stopping_time(f, S1, 1.0)


def test_stopped_average_sandwich():
    # on {tau < inf}: lam < f_{|tau} <= N0 lam
    g = make_grid(1, 1.0, 256)
    n0 = box_doubling_constant(g, S1)
    rng = np.random.default_rng(5)
    for k in range(5):
        f = Field(g, rng.random(256) ** 2)
        lam = 1.3 * float(f.values.mean())
        tau = stopping_time(f, S1, lam)
        stopped = tau.stopped_value(f, S1)
        hit = tau.generations >= 0
        if hit.any():
            assert (stopped.values[hit] > lam).all()
            assert (stopped.values[hit] <= n0 * lam * (1 + 1e-12)).all()


def test_cz_empty_when_below_level():
    g = shifted_grid()
    f = Field(g, np.full(64, 0.5))
    boxes, good = cz_decompose(f, S1, 1.0)
    assert boxes == [] and good.all()


def test_cz_block_example():
    g = shifted_grid()
    f = block_indicator(g, -2.0, -1.0, 4.0)
    boxes, good = cz_decompose(f, S1, 1.0)
    assert len(boxes) == 1
    box, avg = boxes[0]
    assert box.generation == 1 and box.index == (0,)
    assert avg == pytest.approx(2.0)


def test_cz_measure_sandwich():
    g = make_grid(1, 1.0, 512)
    n0 = box_doubling_constant(g, S1)
    rng = np.random.default_rng(9)
    for k in range(5):
        f = Field(g, rng.random(512) ** 3)
        lam = 1.5 * float(f.values.mean())
        boxes, good = cz_decompose(f, S1, lam)
        if not boxes:
            continue
        bad = ~good
        mu_bad = float(bad.sum()) * g.cell_volume
        mass = float(f.values[bad].sum()) * g.cell_volume
        assert mass / (n0 * lam) <= mu_bad * (1 + 1e-12)
        assert mu_bad <= mass / lam * (1 + 1e-12)


def test_dyadic_maximal_constant():
    g = make_grid(1, 1.0, 64)
    m = dyadic_maximal(Field(g, np.full(64, -3.0)), S1)
    assert np.allclose(m.values, 3.0)


def test_dyadic_maximal_ancestor_example():
    # indicator of the first quarter, evaluated in the second quarter:
    # the best ancestor is the first half, average 1/2
    g = shifted_grid()
    f = block_indicator(g, -2.0, -1.0, 1.0)
    m = dyadic_maximal(f, S1)
    x = g.axis(0)
    i = np.searchsorted(x, -0.5)  # the point "1.5" of [0, 4)
    assert m.values[i] == pytest.approx(0.5)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_doob_bound(p):
    g = make_grid(1, 1.0, 1024)
    rng = np.random.default_rng(11)
    q = p / (p - 1.0)
    for k in range(5):
        f = Field(g, rng.random(1024) ** 2)
        m = dyadic_maximal(f, S1)
        assert lp_norm(m, p) <= q * lp_norm(f, p) * (1 + 1e-12)


def test_sharp_constant_zero():
    g = make_grid(1, 1.0, 64)
    sharp = dyadic_sharp(Field(g, np.full(64, 7.0)), S1)
    assert np.abs(sharp.values).max() < 1e-12


def test_sharp_abs_comparison():
    g = make_grid(1, 1.0, 256)
    rng = np.random.default_rng(13)
    f = Field(g, rng.normal(size=256))
    s_abs = dyadic_sharp(Field(g, np.abs(f.values)), S1)
    s = dyadic_sharp(f, S1)
    assert (s_abs.values <= 2.0 * s.values + 1e-12).all()


def test_sharp_vs_maximal():
    g = make_grid(1, 1.0, 256)
    rng = np.random.default_rng(14)
    f = Field(g, rng.random(256))
    sharp = dyadic_sharp(f, S1)
    m = dyadic_maximal(f, S1)
    assert (sharp.values <= 2.0 * m.values + 1e-12).all()


def test_weak_type_sandwich():
    g = make_grid(1, 1.0, 512)
    n0 = box_doubling_constant(g, S1)
    rng = np.random.default_rng(15)
    for k in range(5):
        f = Field(g, rng.random(512) ** 2)
        m = dyadic_maximal(f, S1)
        lam = 1.4 * float(f.values.mean())
        above = m.values > lam
        if not above.any():
            continue
        mu = float(above.sum()) * g.cell_volume
        mass = float(f.values[above].sum()) * g.cell_volume
        assert mass / (n0 * lam) <= mu * (1 + 1e-12)
        assert mu <= mass / lam * (1 + 1e-12)


def test_lebesgue_differentiation_piecewise():
    g = make_grid(1, 1.0, 256)
    rng = np.random.default_rng(17)
    vals = np.repeat(rng.random(8), 32)  # constant on generation-3 boxes
    f = Field(g, vals)
    for gen in (3, 4, 5):
        assert np.allclose(conditional_average(f, S1, gen).values, vals)


def test_fefferman_stein_dyadic_constant():
    g = make_grid(1, 1.0, 1024)
    n0 = box_doubling_constant(g, S1)
    rng = np.random.default_rng(19)
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        bound = (2 * q) ** p * n0 ** (p - 1)
        for k in range(5):
            v = rng.normal(size=1024)
            f = Field(g, v - v.mean())
            sharp = dyadic_sharp(f, S1)
            ns = lp_norm(sharp, p)
            if ns > 0:
                assert lp_norm(f, p) <= bound * ns


def test_parabolic_boxes_nest():
    s = make_structure(2, (2, 1))
    g = make_grid(2, (1.0, 1.0), (64, 16))
    rng = np.random.default_rng(21)
    f = Field(g, rng.random(g.cells))
    # generation 1 box spans nt/4 x nx/2 cells
    avg1 = conditional_average(f, s, 1)
    assert np.allclose(avg1.values[:16, :8], avg1.values[0, 0])
    lhs = conditional_average(conditional_average(f, s, 2), s, 1)
    assert np.allclose(lhs.values, avg1.values)


def test_box_nesting_by_corner_containment():
    from morreylab.dyadic import DyadicBox

    g = make_grid(2, (1.0, 1.0), (64, 16))
    ks = (2, 1)
    child = DyadicBox(2, (3, 1))
    # the generation-1 ancestor indices are the child indices shifted by k_i
    parent = DyadicBox(1, (3 >> 2, 1 >> 1))
    stranger = DyadicBox(1, ((3 >> 2) ^ 1, 1 >> 1))

    def holds(outer, inner):
        """Every axis's cell slice of `outer` holds that of `inner`."""
        return all(o.start <= i.start and i.stop <= o.stop
                   for o, i in zip(outer.cell_slices(g, ks), inner.cell_slices(g, ks)))

    assert holds(parent, child)
    assert not holds(stranger, child)
    # every finer generation nests inside exactly one ancestor per generation
    for gen in (0, 1, 2):
        anc = DyadicBox(gen, tuple(i >> (k * (child.generation - gen))
                                   for i, k in zip(child.index, ks)))
        assert holds(anc, child)
