import math

import numpy as np
import pytest
from scipy.signal import fftconvolve

from morreylab.grid import Field, integrate, make_grid, make_structure
from morreylab.potentials import (
    KernelSpec,
    apply_kernel,
    apply_parabolic,
    apply_parabolic_conjugate,
    at_kernel_array,
    elliptic_resolvent_kernel,
    heat_resolvent_modewise,
    kernel_decay_check,
    newtonian_constant,
    sigma,
)
from morreylab.solvers import random_sdelta


def test_riesz_ball_closed_form():
    # R_1 of the unit-ball indicator at the origin, d=3: the radial
    # closed form gives 4 pi int_0^1 r^{1-3} r^2 dr = 4 pi
    g = make_grid(3, 2.0, 96)
    f = Field(g, (g.radius() < 1.0).astype(float))
    rf = apply_kernel(f, KernelSpec("riesz", alpha=1.0))
    i0 = tuple(n // 2 for n in g.cells)
    assert rf.values[i0] == pytest.approx(4.0 * math.pi, rel=0.01)


def test_riesz_alpha_validation():
    with pytest.raises(ValueError):
        KernelSpec("riesz", alpha=-1.0)


def test_kernel_kinds_exclude_heat():
    # the heat kernel is applied through heat_resolvent, never by apply_kernel
    with pytest.raises(ValueError, match="unknown kernel kind"):
        KernelSpec("heat")


def test_newtonian_constant_3d():
    assert newtonian_constant(3) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)


def _fd4_laplacian(values, h):
    """4th-order centred-difference Laplacian; the two cells nearest each
    face are left at 0."""
    stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    core = tuple(slice(2, n - 2) for n in values.shape)
    out = np.zeros_like(values)
    for a, ha in enumerate(h):
        for j, c in enumerate(stencil):
            shifted = list(core)
            shifted[a] = slice(j, values.shape[a] - 4 + j)
            out[core] += c / ha ** 2 * values[tuple(shifted)]
    return out


def test_newtonian_inverts_laplacian():
    # Delta (R f) = -f verified by centred differences in the interior
    g = make_grid(3, 4.0, 64)
    f = Field(g, np.exp(-4.0 * g.radius() ** 2))
    u = apply_kernel(f, KernelSpec("newtonian"))
    lap = _fd4_laplacian(u.values, g.h)
    r = g.radius()
    inner = r < 1.0
    err = np.abs(lap + f.values)[inner].max()
    assert err < 0.02 * np.abs(f.values).max()


def test_elliptic_resolvent_matches_yukawa_3d():
    g = make_grid(3, 3.0, 48)
    lam = 4.0
    ker = elliptic_resolvent_kernel(g, lam)
    mesh = np.meshgrid(*[(np.arange(-(n - 1), n)) * h for n, h in zip(g.cells, g.h)],
                       indexing="ij")
    r = np.sqrt(sum(m ** 2 for m in mesh))
    mask = (r > 0.2) & (r < 2.0)
    exact = np.exp(-math.sqrt(lam) * r[mask]) / (4.0 * math.pi * r[mask])
    assert np.abs(ker[mask] / exact - 1.0).max() < 1e-9


def test_heat_kernel_semigroup():
    # p(t) * p(s) = p(t+s) sampled on the offset lattice
    n, L = 512, 8.0
    h = 2 * L / n
    x = (np.arange(-(n - 1), n)) * h
    p1 = (4 * math.pi * 0.1) ** -0.5 * np.exp(-x ** 2 / 0.4)
    p2 = (4 * math.pi * 0.2) ** -0.5 * np.exp(-x ** 2 / 0.8)
    conv = fftconvolve(p1, p2, mode="same") * h
    p3 = (4 * math.pi * 0.3) ** -0.5 * np.exp(-x ** 2 / 1.2)
    assert np.abs(conv - p3).max() < 1e-8


def test_heat_resolvent_of_one():
    # the zero mode integrates e^{-lam s} exactly up to the window end
    g = make_grid(2, (2.0, math.pi), (64, 64), periodic=True)
    f = Field(g, np.ones(g.cells))
    lam = 2.0
    u, ut = heat_resolvent_modewise(f, lam)
    t = g.axis(0)
    for i in (0, 5, 20):
        expected = (1.0 - math.exp(-lam * (2.0 - t[i]))) / lam
        assert u.values[i, 3] == pytest.approx(expected, abs=1e-13)
    # deep inside a long window this approaches 1/lam
    g2 = make_grid(2, (8.0, math.pi), (256, 16), periodic=True)
    u2, _ = heat_resolvent_modewise(Field(g2, np.ones(g2.cells)), lam)
    assert u2.values[0, 0] == pytest.approx(1.0 / lam, rel=1e-8)


def test_causality_exact():
    g = make_grid(2, (2.0, math.pi), (64, 64), periodic=True)
    xs = g.mesh()
    f = Field(g, np.exp(-xs[1] ** 2) * (xs[0] < -0.5))
    u, _ = heat_resolvent_modewise(f, 1.0)
    assert np.abs(u.values[xs[0][:, 0] >= -0.5 + g.h[0]]).max() == 0.0


def test_at_kernel_identity_reduces_to_heat():
    g = make_grid(2, (2.0, math.pi), (64, 64), periodic=True)
    xs = g.mesh()
    f = Field(g, np.exp(-xs[1] ** 2) * (np.abs(xs[0]) < 1.0))
    u1, _ = heat_resolvent_modewise(f, 1.0)
    a_id = np.repeat(np.eye(1)[None], g.cells[0], axis=0)
    u2, _ = heat_resolvent_modewise(f, 1.0, a_of_t=a_id)
    assert np.abs(u1.values - u2.values).max() < 1e-13


def test_sigma_identity_and_diagonal():
    a_id = np.repeat(np.eye(2)[None], 10, axis=0)
    sg = sigma(a_id, 0.0, 0.5, 0.1)
    assert np.allclose(sg, np.eye(2))
    a_d = np.repeat(np.diag([0.5, 2.0])[None], 10, axis=0)
    sg = sigma(a_d, 0.0, 0.7, 0.1)
    assert np.allclose(np.diag(sg), [math.sqrt(0.5), math.sqrt(2.0)])


def test_sigma_oscillating_diagonal_time_average():
    ht = 0.05
    nt = 40
    tt = (np.arange(nt) + 0.5) * ht
    diag = 1.0 + 0.4 * np.sin(5 * tt)
    a = np.array([np.diag([d]) for d in diag])
    t0, s0 = 0.1, 1.6
    sg = sigma(a, t0, s0, ht)
    # eigenvalue of sigma^2 equals the time average of the entry
    i0, i1 = int(t0 / ht), int(s0 / ht)
    expected = diag[i0:i1].mean()
    assert sg[0, 0] ** 2 == pytest.approx(expected, rel=1e-9)


def test_sigma_lower_bound_enforced():
    a = np.repeat(np.diag([0.1, 1.0])[None], 8, axis=0)
    with pytest.raises(ValueError):
        sigma(a, 0.0, 0.4, 0.1, delta=0.5)


def test_at_kernel_mass_and_pinch():
    rng = np.random.default_rng(0)
    delta = 0.5
    a = np.array([random_sdelta(rng, 2, delta) for _ in range(32)])
    gx = make_grid(2, 10.0, 128)
    ker = at_kernel_array(gx, a, 0.1, 0.5, 1.0 / 32, delta=delta)
    assert float(ker.sum()) * gx.cell_volume == pytest.approx(1.0, abs=1e-8)
    sg = sigma(a, 0.1, 0.5, 1.0 / 32, delta=delta)
    assert np.linalg.eigvalsh(sg).min() >= math.sqrt(delta) - 1e-12


def test_parabolic_decay_envelope():
    g = make_grid(2, (2.0, 2.0), (64, 64))
    n = kernel_decay_check(g, 1.0, 8.0)
    assert math.isfinite(n)
    # at the critical exponent the kernel is exactly bounded by a constant
    n_crit = kernel_decay_check(g, 3.0, 4.0)  # alpha = d + 2 with d = 1
    assert n_crit <= 1.0 + 1e-9


def test_parabolic_conjugation_identity():
    g = make_grid(2, (1.5, 1.5), (48, 48))
    rng = np.random.default_rng(1)
    xs = g.mesh()
    sup = (np.abs(xs[0]) < 0.8) & (np.abs(xs[1]) < 0.8)
    f = Field(g, rng.random(g.cells) * sup)
    h = Field(g, rng.random(g.cells) * sup)
    lhs = integrate(Field(g, apply_parabolic(f, 1.0, 4.0).values * h.values))
    rhs = integrate(Field(g, f.values * apply_parabolic_conjugate(h, 1.0, 4.0).values))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_riesz_as_time_marginal():
    # the time marginal of the parabolic kernel IS the Riesz kernel (up to
    # the constant Gamma(m-1) k^{m-1}); certified against an independent
    # adaptive quadrature, with the window tail in closed incomplete-gamma
    # form, then the discrete slab marginal is checked to converge to it
    from scipy.integrate import quad
    from scipy.special import gamma as G, gammaincc

    d, alpha, k = 2, 1.0, 4.0
    m = (d + 2 - alpha) / 2.0
    a = m - 1.0
    T = 16.0
    for r in (0.5, 1.0, 1.7):
        oracle = quad(lambda s: s ** -m * math.exp(-r ** 2 / (k * s)), 0, T,
                      limit=400)[0]
        closed = k ** a * r ** (2 - 2 * m) * G(a) * gammaincc(a, r ** 2 / (k * T))
        assert oracle == pytest.approx(closed, rel=1e-10)
    # discrete slab marginal converges to the closed form under refinement
    r = 1.0
    closed = k ** a * r ** (2 - 2 * m) * G(a) * gammaincc(a, r ** 2 / (k * T))
    errs = []
    for nt in (128, 256, 512):
        ht = T / nt
        s = (np.arange(nt) + 0.5) * ht
        marg = float((s ** -m * np.exp(-r ** 2 / (k * s))).sum() * ht)
        errs.append(abs(marg / closed - 1.0))
    assert errs[0] > errs[1] > errs[2]


def test_pointwise_bound_by_gradient_potential():
    # |u| <= N R_1 |Du| for compactly supported smooth u
    g = make_grid(3, 2.0, 48)
    r = g.radius()
    t = r / 1.2
    inside = t < 1
    u = np.zeros(g.cells)
    u[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    du = np.zeros(g.cells)
    ti = t[inside]
    du[inside] = np.abs(np.exp(-1.0 / (1.0 - ti ** 2)) * (-2 * ti / (1 - ti ** 2) ** 2) / 1.2)
    r1 = apply_kernel(Field(g, du), KernelSpec("riesz", alpha=1.0))
    s3 = 4.0 * math.pi  # unit-sphere area in d=3: the sharp comparison factor
    assert (np.abs(u) <= r1.values / s3 * (1 + 1e-6) + 1e-12).all()


def test_boundary_support_warning():
    g = make_grid(2, 1.0, 32)
    f = Field(g, np.ones(g.cells))
    with pytest.warns(UserWarning):
        apply_kernel(f, KernelSpec("riesz", alpha=1.0))


def test_riesz_interpolation_between_maximal_means():
    # R_alpha f <= N (M_beta f)^{(a-g)/(b-g)} (M_gamma f)^{(b-a)/(b-g)}
    from morreylab.maximal import BallFamily, classical_maximal
    from morreylab.grid import make_structure

    d, alpha, beta, gamma_e = 2, 1.0, 1.5, 0.5
    s = make_structure(d, (1,) * d)
    g = make_grid(d, 2.0, 64)
    rng = np.random.default_rng(3)
    f = Field(g, np.exp(-6.0 * g.radius() ** 2) * (1 + 0.3 * rng.random(g.cells)))
    rf = apply_kernel(f, KernelSpec("riesz", alpha=alpha))
    fam = BallFamily.for_structure(s, g, density=6.0)
    mb = classical_maximal(f, s, beta=beta, family=fam).values
    mg = classical_maximal(f, s, beta=gamma_e, family=fam).values
    w1 = (alpha - gamma_e) / (beta - gamma_e)
    rhs = mb ** w1 * mg ** (1 - w1)
    ratio = rf.values / np.maximum(rhs, 1e-300)
    sub = tuple(slice(None, None, 4) for _ in g.cells)
    assert float(ratio[sub].max()) < 20.0  # finite fitted constant
