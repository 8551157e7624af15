import math

import numpy as np
import pytest

from morreylab.dyadic import box_doubling_constant
from morreylab.grid import (
    Field,
    RadialPower,
    integrate,
    lp_norm,
    load_field,
    load_field_csv,
    make_grid,
    make_structure,
    save_field,
    save_field_csv,
)
from morreylab.solvers import spectral_derivative_fields


def test_nu0_isotropic_closed_form():
    # d nu^-2 = 4  =>  nu = sqrt(d)/2
    for d in (1, 2, 3):
        s = make_structure(d, (1,) * d)
        assert s.nu0 == pytest.approx(math.sqrt(d) / 2.0, rel=1e-12)


def test_nu0_anisotropic_closed_form():
    # nu^-4 = 4  =>  nu = 4^{-1/4}
    s = make_structure(1, (2,))
    assert s.nu0 == pytest.approx(4.0 ** -0.25, rel=1e-12)


def test_nu0_equation_residual():
    s = make_structure(3, (2, 1, 1))
    ks = np.array(s.anisotropy)
    assert abs(np.sum(s.nu0 ** (-2.0 * ks)) - 4.0) < 1e-10


def test_doubling_uniform_matches_dimension():
    # a parent box holds 2^d children of equal measure
    g = make_grid(2, 2.0, 128)
    assert box_doubling_constant(g, make_structure(2, (1, 1))) == 2 ** 2


def test_integrate_constant_box():
    g = make_grid(2, 1.0, 64)
    f = Field(g, np.ones(g.cells))
    assert integrate(f) == pytest.approx(4.0, abs=1e-12)


def test_integrate_ball_indicator_pi_richardson():
    # refine the grid and extrapolate: the area of the unit disc
    vals = []
    for n in (256, 512):
        g = make_grid(2, 2.0, n)
        f = Field(g, (g.radius() < 1.0).astype(float))
        vals.append(integrate(f))
    assert vals[-1] == pytest.approx(math.pi, abs=1e-2)
    richardson = vals[-1] + (vals[-1] - vals[0]) / 3.0
    assert richardson == pytest.approx(math.pi, abs=5e-3)


def test_lp_norm_constant():
    g = make_grid(2, 1.0, 64)
    f = Field(g, np.ones(g.cells))
    assert lp_norm(f, 2, region=([0, 0], [1, 1])) == pytest.approx(1.0, rel=1e-12)


def test_lp_norm_sup_on_centers():
    g = make_grid(1, 1.0, 64)
    x = g.axis(0)
    f = Field(g, x.copy())
    h = g.h[0]
    assert lp_norm(f, math.inf) == pytest.approx(1.0 - h / 2.0, abs=1e-14)


def test_lp_norm_singular_power_radial_oracle():
    # || |x|^{-1/2} ||_{L_2(B_1)} in d=3: radial quadrature gives
    # (int_0^1 r^{-1} 4 pi r^2 dr)^{1/2} = sqrt(2 pi)
    g = make_grid(3, 1.5, 96)
    r = g.radius()
    vals = np.where(r < 1.0, r, 0.0) ** 0.0  # placeholder, rebuilt below
    raw = np.where((r < 1.0) & (r > 0), r ** -0.5, 0.0)
    f = Field(g, raw, [RadialPower((0, 0, 0), 0.5)])
    oracle = math.sqrt(2.0 * math.pi)
    assert lp_norm(f, 2) == pytest.approx(oracle, rel=0.02)


def test_nonintegrable_singular_cell_gives_inf_not_nan():
    from morreylab.testfunctions import test_function
    from morreylab.weights import power_weight

    # |x|^-2.5 on 64^2: the singular cell's mass is infinite for every p >= 0.8
    g = make_grid(2, 1.0, 64)
    f = test_function("power", g, gamma=2.5)
    assert lp_norm(f, 1) == math.inf
    assert integrate(f) == math.inf
    assert integrate(-1.0 * f) == -math.inf  # the sign of the singular cell's sample
    assert lp_norm(power_weight(g, -2.5).field, 1) == math.inf
    # below the threshold the exact mass replaces the infinite sample
    assert math.isfinite(lp_norm(f, 0.5))


def test_lp_norm_counts_singular_masses_inside_the_region_only():
    from morreylab.testfunctions import test_function

    g = make_grid(3, 1.0, 32)
    f = test_function("cylinder_slab", g)
    p = 1.5
    lower = lp_norm(f, p, region=([-1, -1, -1], [1, 1, 0])) ** p
    upper = lp_norm(f, p, region=([-1, -1, 0], [1, 1, 1])) ** p
    assert lower + upper == pytest.approx(lp_norm(f, p) ** p, rel=1e-12)


def test_scalar_multiple_scales_singular_masses():
    from morreylab.testfunctions import test_function

    g = make_grid(2, 1.0, 64)
    f = test_function("power", g, gamma=1.0)
    for c in (2.0, -2.0):
        assert lp_norm(c * f, 1.5) == pytest.approx(2.0 * lp_norm(f, 1.5), rel=1e-12)
        assert lp_norm(f * c, 1.5) == pytest.approx(2.0 * lp_norm(f, 1.5), rel=1e-12)
    # a shell feature scales its amplitude field
    shell = test_function("lqp_vs_lpq", make_grid(3, 1.0, 8), p0=2.0)
    for (i, m), (j, m3) in zip(shell.power_mass_cells(0.5), (3 * shell).power_mass_cells(0.5)):
        assert i == j and m3 == pytest.approx(math.sqrt(3.0) * m, rel=1e-12)


def test_sum_keeps_the_features_of_both_operands():
    from morreylab.testfunctions import test_function

    g = make_grid(2, 1.0, 64)
    zero = Field(g, np.zeros(g.cells))
    f = test_function("power", g, gamma=1.0)  # |x|^-1 is not in L_2 near 0
    for s in (zero + f, f + zero, zero - f, f - zero):
        assert lp_norm(s, 2) == math.inf
        assert lp_norm(s, 1.5) == pytest.approx(lp_norm(f, 1.5), rel=1e-12)
    assert lp_norm(zero + test_function("power", g, gamma=2.5), 1) == math.inf


def test_quadrature_exact_for_cellwise_constants():
    g = make_grid(2, 1.0, 32)
    rng = np.random.default_rng(0)
    f = Field(g, rng.random(g.cells))
    assert integrate(f) == pytest.approx(float(f.values.sum()) * g.cell_volume, rel=1e-14)


def test_lp_scaling_relation():
    # ||f(r.)||_{L_p(B_1)} r^{d/p} = ||f||_{L_p(B_r)} on compatible grids
    # (equal cell counts, so the scaled cell centers coincide exactly)
    r_sc, p, d = 2.0, 2.0, 1
    g1 = make_grid(d, 1.0, 256)
    g2 = make_grid(d, 2.0, 256)
    prof = lambda x: np.cos(x) + 2.0
    f1 = Field(g1, prof(r_sc * g1.axis(0)))
    f2 = Field(g2, prof(g2.axis(0)))
    lhs = lp_norm(f1, p, region=([-1.0], [1.0])) * r_sc ** (d / p)
    rhs = lp_norm(f2, p, region=([-2.0], [2.0]))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_spectral_derivative_sine():
    g = make_grid(1, 1.0, 128, periodic=True)
    x = g.axis(0)
    (d,), _, _, _ = spectral_derivative_fields(Field(g, np.sin(np.pi * x)), None)
    assert np.abs(d - np.pi * np.cos(np.pi * x)).max() < 1e-10


def test_spectral_laplacian_plane_wave():
    g = make_grid(2, np.pi, 64, periodic=True)
    xs = g.mesh()
    k = (3, 5)
    f = Field(g, np.cos(k[0] * xs[0] + k[1] * xs[1]))
    _, _, lap, _ = spectral_derivative_fields(f, None)
    expected = -(k[0] ** 2 + k[1] ** 2) * f.values
    assert np.abs(lap - expected).max() < 1e-9 * (k[0] ** 2 + k[1] ** 2)


def test_spectral_roundtrip_solve():
    from morreylab.solvers import solve_laplace

    g = make_grid(2, np.pi, 64, periodic=True)
    from morreylab.testfunctions import test_function

    u = test_function("random_band", g, kmax=5, seed=1)
    _, _, lap, _ = spectral_derivative_fields(u, None)
    rec = solve_laplace(Field(g, -lap), 0.0)
    assert np.abs(rec.values - u.values).max() < 1e-10 * np.abs(u.values).max()


def test_field_io_roundtrip(tmp_path):
    g = make_grid(2, 1.0, 32)
    rng = np.random.default_rng(7)
    f = Field(g, rng.random(g.cells))
    save_field(f, tmp_path / "f.field")
    back = load_field(tmp_path / "f.field")
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_field_io_keeps_singular_features(tmp_path):
    from morreylab.testfunctions import test_function

    # |x|^-1 on 64^2: its square is not integrable at 0, on disk as in memory
    g = make_grid(2, 1.0, 64)
    f = test_function("power", g, gamma=1.0)
    assert lp_norm(f, 2) == math.inf
    save_field(f, tmp_path / "f.field", anisotropy=(2, 1))
    back = load_field(tmp_path / "f.field")
    assert lp_norm(back, 2) == math.inf
    assert back.meta["anisotropy"] == (2, 1)
    for name, p in (("power", 1.5), ("cylinder_slab", 1.5), ("parab_sing", 2.0)):
        grid = make_grid(3 if name == "cylinder_slab" else 2, 1.0, 16)
        f = test_function(name, grid, **({"gamma": 0.7} if name == "power" else {}))
        save_field(f, tmp_path / "g.field")
        back = load_field(tmp_path / "g.field")
        assert [type(x) for x in back.singular] == [type(x) for x in f.singular]
        assert back.power_mass_cells(p) == f.power_mass_cells(p)
        assert lp_norm(back, p) == lp_norm(f, p)
    # a shell feature holds a callable: refused, not silently dropped
    shell = test_function("lqp_vs_lpq", make_grid(3, 1.0, 8), p0=2.0)
    with pytest.raises(ValueError, match="ShellPower"):
        save_field(shell, tmp_path / "s.field")


def test_field_io_keeps_the_closed_form(tmp_path):
    from morreylab.weights import power_weight

    g = make_grid(1, 1.0, 64)
    save_field(power_weight(g, -0.9).field, tmp_path / "w.field")
    assert load_field(tmp_path / "w.field").meta["closed_form"] == ("radial_power", -0.9)
    save_field(Field(g, np.ones(g.cells)), tmp_path / "f.field")
    assert "closed_form" not in load_field(tmp_path / "f.field").meta


def test_field_csv_roundtrip(tmp_path):
    g = make_grid(2, 1.0, 16)
    rng = np.random.default_rng(8)
    f = Field(g, rng.random(g.cells))
    save_field_csv(f, tmp_path / "f.csv")
    back = load_field_csv(tmp_path / "f.csv")
    assert np.allclose(back.values, f.values)
    g3 = make_grid(3, 1.0, 8)
    with pytest.raises(ValueError):
        save_field_csv(Field(g3, np.zeros(g3.cells)), tmp_path / "g.csv")


def test_nonfinite_needs_singular_flag():
    g = make_grid(1, 1.0, 16)
    with pytest.raises(ValueError):
        Field(g, np.full(16, np.nan))
