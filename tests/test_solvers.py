import math

import numpy as np
import pytest

from morreylab import solvers
from morreylab.checks.at_checks import _sdelta_pairs
from morreylab.grid import ConfigError, Field, make_grid, make_structure
from morreylab.norms import NormSpec
from morreylab.solvers import (
    DriftDivergence,
    OperatorSpec,
    apply_operator,
    apriori_ratio,
    apriori_ratios,
    gradient_magnitude,
    hessian_magnitude,
    oscillation_estimate,
    random_sdelta,
    sdelta_brackets,
    solve_drift,
    solve_heat,
    solve_laplace,
    spectral_derivative_fields,
)
from morreylab.testfunctions import test_function as tf

S2 = make_structure(2, (1, 1))
SP = make_structure(2, (2, 1))


def test_solve_laplace_exact_symbol():
    g = make_grid(2, math.pi, 64, periodic=True)
    xs = g.mesh()
    k = (3, 2)
    lam = 2.0
    f = Field(g, np.cos(k[0] * xs[0] + k[1] * xs[1]))
    u = solve_laplace(f, lam)
    expected = f.values / (k[0] ** 2 + k[1] ** 2 + lam)
    assert np.abs(u.values - expected).max() < 1e-13


def test_solve_laplace_residual():
    g = make_grid(2, math.pi, 64, periodic=True)
    f = tf("random_band", g, kmax=6, seed=0)
    lam = 3.0
    u = solve_laplace(f, lam)
    resid = apply_operator(u, OperatorSpec("laplace", lam=lam), S2).values + f.values
    assert np.sqrt((resid ** 2).mean()) <= 1e-10 * np.sqrt((f.values ** 2).mean())


def test_solve_laplace_validation():
    g = make_grid(1, 1.0, 64, periodic=True)
    with pytest.raises(ValueError):
        solve_laplace(Field(g, np.ones(64)), -1.0)
    g_np = make_grid(1, 1.0, 64, periodic=False)
    with pytest.raises(ValueError):
        solve_laplace(Field(g_np, np.ones(64)), 1.0)


def test_linearity():
    g = make_grid(2, math.pi, 64, periodic=True)
    f1 = tf("random_band", g, kmax=5, seed=1)
    f2 = tf("random_band", g, kmax=5, seed=2)
    a, b = 2.0, -0.7
    u1 = solve_laplace(f1, 2.0)
    u2 = solve_laplace(f2, 2.0)
    u12 = solve_laplace(Field(g, a * f1.values + b * f2.values), 2.0)
    err = np.abs(u12.values - a * u1.values - b * u2.values).max()
    assert err <= 1e-12 * max(np.abs(u12.values).max(), 1e-30)


def test_hessian_energy_identity_every_u():
    g = make_grid(2, math.pi, 64, periodic=True)
    u = tf("random_band", g, kmax=6, seed=3)
    _, d2, lap, _ = spectral_derivative_fields(u, S2)
    lhs = sum(float((d2[i][j] ** 2).sum()) for i in range(2) for j in range(2))
    rhs = float((lap ** 2).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)


def _complex_derivatives(u, parab):
    """The derivatives as real parts of complex fftn/ifftn: the reference
    for the real transforms, Nyquist planes included."""
    g = u.grid
    ks = np.meshgrid(*[2 * np.pi * np.fft.fftfreq(n, d=h) for n, h in zip(g.cells, g.h)],
                     indexing="ij")
    uh = np.fft.fftn(u.values)
    xaxes = range(1 if parab else 0, g.dim)
    du = [np.fft.ifftn(1j * ks[a] * uh).real for a in xaxes]
    d2 = [[np.fft.ifftn(-ks[a] * ks[b] * uh).real for b in xaxes] for a in xaxes]
    ut = np.fft.ifftn(1j * ks[0] * uh).real if parab else None
    return du, d2, sum(d2[i][i] for i in range(len(d2))), ut


@pytest.mark.parametrize("dim, cells, parab", [
    (2, (8, 8), False),
    (2, (64, 64), False),
    (3, (16, 12, 20), False),
    (3, (16, 12, 20), True),
])
def test_spectral_derivatives_match_complex_transforms_on_white_noise(dim, cells, parab):
    # white noise fills the Nyquist planes, which band-limited fields leave empty
    g = make_grid(dim, (1.0,) + (math.pi,) * (dim - 1), cells, periodic=True)
    s = make_structure(dim, (2,) + (1,) * (dim - 1)) if parab else make_structure(dim, (1,) * dim)
    u = Field(g, np.random.default_rng(dim + 2 * parab).standard_normal(cells))
    du, d2, lap, ut = spectral_derivative_fields(u, s)
    want_du, want_d2, want_lap, want_ut = _complex_derivatives(u, parab)

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    assert len(du) == len(want_du) == dim - parab
    assert all(close(x, y) for x, y in zip(du, want_du))
    for i in range(len(du)):
        for j in range(len(du)):
            assert d2[i][j] is d2[j][i]
            assert close(d2[i][j], want_d2[i][j]), (i, j)
    assert close(lap, want_lap)
    if parab:
        assert close(ut, want_ut)
    else:
        assert ut is None


def test_spectral_derivatives_need_a_periodic_grid():
    g = make_grid(2, math.pi, 16)
    with pytest.raises(ValueError, match="periodic"):
        spectral_derivative_fields(Field(g, np.zeros(g.cells)), S2)


def test_heat_modewise_formula():
    # f = e^{ikx} g(t): the mode solves the scalar backward ODE exactly
    g = make_grid(2, (1.0, math.pi), (64, 32), periodic=True)
    xs = g.mesh()
    kx = 3
    prof = ((xs[0] > -0.5) & (xs[0] < 0.3)).astype(float)
    f = Field(g, prof * np.cos(kx * xs[1]))
    lam = 1.5
    u, ut = solve_heat(f, lam)
    t = g.axis(0)
    ht = g.h[0]
    kappa = lam + kx ** 2

    def exact(ti):
        val = 0.0
        for j in range(len(t)):
            if prof[j, 0] == 0:
                continue
            lo, hi = max(t[j] - ht / 2, ti), t[j] + ht / 2
            if hi > lo:
                val += (math.exp(-kappa * (lo - ti)) - math.exp(-kappa * (hi - ti))) / kappa
        return val

    for i in (4, 10, 30):
        expected = exact(t[i]) * np.cos(kx * xs[1][i])
        assert np.abs(u.values[i] - expected).max() < 1e-12


def test_heat_energy_identity_torus():
    u = tf("random_band", make_grid(2, (1.0, math.pi), (64, 64), periodic=True),
           kmax=5, seed=4)
    _, d2, lap, ut = spectral_derivative_fields(u, SP)
    f = ut + lap
    lhs = float(((ut ** 2) + (d2[0][0] ** 2)).sum())
    assert lhs == pytest.approx(float((f ** 2).sum()), rel=1e-12)


def test_heat_roundtrip_bandlimited():
    # u = R_lam(lam u - L0 u) for compactly-in-t supported u
    g = make_grid(2, (2.0, math.pi), (128, 32), periodic=True)
    xs = g.mesh()
    window = np.exp(-1.0 / np.maximum(1 - (xs[0] / 1.2) ** 2, 1e-12)) * (np.abs(xs[0]) < 1.2)
    u0 = Field(g, window * np.cos(2 * xs[1]))
    lam = 2.0
    # the time derivative of the piecewise-constant interpolant is encoded by
    # the solver itself: feed g = lam u - L0 u computed from closed forms
    t = xs[0]
    dwin = window * (-2 * t / 1.2 ** 2) / np.maximum(1 - (t / 1.2) ** 2, 1e-12) ** 2
    dwin = np.where(np.abs(t) < 1.2, dwin, 0.0)
    ut0 = dwin * np.cos(2 * xs[1])
    lap0 = -4.0 * u0.values
    src = Field(g, lam * u0.values - ut0 - lap0)
    u, _ = solve_heat(src, lam)
    err = np.abs(u.values - u0.values).max() / np.abs(u0.values).max()
    assert err < 2e-3  # slab interpolation of a smooth source


def test_causality_after_support():
    g = make_grid(2, (1.0, math.pi), (64, 32), periodic=True)
    xs = g.mesh()
    f = Field(g, np.exp(-xs[1] ** 2) * (xs[0] < -0.2))
    u, _ = solve_heat(f, 1.0)
    after = xs[0][:, 0] >= -0.2 + g.h[0]
    assert np.abs(u.values[after]).max() == 0.0


def test_at_solver_rejects_bad_path():
    g = make_grid(2, (1.0, math.pi), (32, 32), periodic=True)
    f = Field(g, np.ones(g.cells))
    bad = np.repeat(np.diag([0.05])[None], 32, axis=0)
    with pytest.raises(ValueError):
        solve_heat(f, 1.0, a_of_t=bad, delta=0.5)


def test_every_s_delta_error_names_the_first_bad_slab():
    # slab 5 leaves S_delta above 1/delta; slab 6 holds the least eigenvalue
    g = make_grid(2, (1.0, math.pi), (8, 8), periodic=True)
    a = np.repeat(np.eye(1)[None], 8, axis=0)
    a[5], a[6] = 3.0, 0.1
    with pytest.raises(ValueError, match=r"leaves S_delta .* first at slab 5$"):
        OperatorSpec("heat_at", a_of_t=a, delta=0.5)
    with pytest.raises(ValueError, match=r"leaves S_delta .* first at slab 5$"):
        solve_heat(Field(g, np.ones(g.cells)), 1.0, a_of_t=a, delta=0.5)


def test_drift_zero_converges_immediately():
    g = make_grid(2, math.pi, 64, periodic=True)
    f = tf("random_band", g, kmax=4, seed=5)
    b0 = [Field(g, np.zeros(g.cells)) for _ in range(2)]
    u, trace = solve_drift(f, 2.0, b0, S2)
    assert len(trace) == 2
    resid = apply_operator(u, OperatorSpec("laplace", lam=2.0), S2).values + f.values
    assert np.abs(resid).max() < 1e-10


def test_drift_small_geometric_convergence():
    g = make_grid(2, math.pi, 64, periodic=True)
    f = tf("random_band", g, kmax=4, seed=6)
    xs = g.mesh()
    b = [Field(g, 0.4 * np.sin(xs[i])) for i in range(2)]
    u, trace = solve_drift(f, 2.0, b, S2)
    rates = [trace[i + 1] / trace[i] for i in range(1, min(5, len(trace) - 1))]
    assert all(r < 0.6 for r in rates)
    resid = apply_operator(u, OperatorSpec("laplace", lam=2.0, b=b), S2).values + f.values
    assert np.abs(resid).max() < 1e-7 * np.abs(u.values).max()


def test_drift_divergence_raises_with_factor():
    g = make_grid(2, math.pi, 64, periodic=True)
    f = tf("random_band", g, kmax=4, seed=7)
    xs = g.mesh()
    b = [Field(g, 40.0 * np.sin(xs[i])) for i in range(2)]
    with pytest.raises(DriftDivergence) as exc:
        solve_drift(f, 2.0, b, S2, max_iter=25)
    assert exc.value.kappa_c >= 1.0


def test_eigenpair_annihilated_and_ratio_infinite():
    # the inverse-square drift pair: the operator annihilates u, so the
    # a-priori ratio denominator is floored and the ratio is infinite
    g = make_grid(3, 4.0, 48)
    u, b, resid = tf("exp_drift_pair", g, lam=1.0)
    den = math.sqrt(float((resid.values ** 2).sum()) * g.cell_volume)
    u_norm = math.sqrt(float((u.values ** 2).sum()) * g.cell_volume)
    assert den <= 1e-10 * u_norm
    from morreylab.solvers import denominator_floor

    assert denominator_floor(den, u_norm) == math.inf


def test_apriori_ratio_energy_case_exact():
    g = make_grid(2, math.pi, 64, periodic=True)
    u = tf("random_band", g, kmax=5, seed=8)
    out = apriori_ratio(u, OperatorSpec("laplace", lam=0.0),
                        NormSpec("Lp", p=2.0), S2)
    assert out["parts"]["d2"] / out["denominator"] == pytest.approx(1.0, abs=1e-10)


def test_apriori_ratio_floored_denominator():
    g = make_grid(2, math.pi, 32, periodic=True)
    u = Field(g, np.zeros(g.cells))
    out = apriori_ratio(u, OperatorSpec("laplace", lam=1.0),
                        NormSpec("Lp", p=2.0), S2)
    assert out["floored"] and out["ratio"] == math.inf



@pytest.mark.parametrize("structure, kind, parts", [(S2, "laplace", 4), (SP, "heat", 5)])
def test_apriori_ratio_evaluates_each_field_once(structure, kind, parts):
    # d2, du, u, the residual (and ut on a parabolic structure): one norm each
    g = make_grid(2, math.pi, 32, periodic=True)
    u = tf("random_band", g, kmax=4, seed=3)
    calls = {}

    def counting_norm(fld):
        key = fld.values.tobytes()
        calls[key] = calls.get(key, 0) + 1
        return float(np.abs(fld.values).max())

    apriori_ratio(u, OperatorSpec(kind, lam=2.0), NormSpec("Lp", p=2.0), structure,
                  norm_eval=counting_norm)
    assert len(calls) == parts
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("structure, op", [
    (S2, OperatorSpec("laplace", lam=2.0)),
    (SP, OperatorSpec("heat", lam=1.0)),
    (SP, OperatorSpec("heat_at", lam=0.5, a_of_t=np.full((32, 1, 1), 0.7), delta=0.5)),
])
def test_apriori_ratio_takes_one_derivative_pass(monkeypatch, structure, op):
    # the residual reuses the derivative fields of the numerator parts, and
    # reads the same as apply_operator's
    g = make_grid(2, math.pi, 32, periodic=True)
    u = tf("random_band", g, kmax=4, seed=5)

    def norm(fld):
        return float(np.sqrt((fld.values ** 2).sum()))

    want = norm(apply_operator(u, op, structure))
    passes = []
    taken = solvers.spectral_derivative_fields

    def counting(*args, **kwargs):
        passes.append(1)
        return taken(*args, **kwargs)

    monkeypatch.setattr(solvers, "spectral_derivative_fields", counting)
    out = apriori_ratio(u, op, NormSpec("Lp", p=2.0), structure, norm_eval=norm)
    assert len(passes) == 1
    assert out["denominator"] == want


def _lam_sweep(case, g):
    """(structure, ops, norm spec) of one a-priori sweep over lam."""
    xs = g.mesh()
    if case == "laplace-Lp":
        drift = [Field(g, 0.3 * np.sin(xs[1])), Field(g, 0.2 * np.cos(xs[0]))]
        return S2, [OperatorSpec("laplace", lam=1.0), OperatorSpec("laplace", lam=10.0),
                    OperatorSpec("laplace", lam=4.0, b=drift)], NormSpec("Lp", p=3.0)
    if case == "laplace-Epbr":
        return S2, [OperatorSpec("laplace", lam=lam) for lam in (0.0, 1.0, 10.0)], \
            NormSpec("Epbr", p=2.0, beta=0.8)
    if case == "heat-EpqbDot":
        return SP, [OperatorSpec("heat", lam=lam) for lam in (1.0, 10.0)], \
            NormSpec("EpqbDot", p=2.0, q=3.0, beta=1.1)
    a_path = np.stack([np.full((1, 1), 0.6 + 0.5 * t) for t in np.linspace(0, 1, g.cells[0])])
    return SP, [OperatorSpec("heat_at", lam=lam, a_of_t=a_path, delta=0.5)
                for lam in (1.0, 10.0, 100.0)], NormSpec("Lqp_reversed", p=2.0, q=3.0)


@pytest.mark.parametrize("case", ["laplace-Lp", "laplace-Epbr", "heat-EpqbDot", "heat_at-Lqp"])
def test_apriori_ratios_are_apriori_ratio_per_op(case):
    # one sweep over the ops returns, bit for bit, the dict of one
    # apriori_ratio call per op
    g = make_grid(2, math.pi, 32, periodic=True)
    u = tf("random_band", g, kmax=4, seed=11)
    structure, ops, spec = _lam_sweep(case, g)
    got = apriori_ratios(u, ops, spec, structure)
    assert got == [apriori_ratio(u, op, spec, structure) for op in ops]
    assert len({r["denominator"] for r in got}) == len(ops)  # each op its own residual


@pytest.mark.parametrize("case, parts", [("laplace-Lp", 3), ("heat_at-Lqp", 4)])
def test_apriori_ratios_take_one_pass_and_evaluate_each_field_once(monkeypatch, case, parts):
    # one derivative pass per u; norm_eval sees u, |D2 u|, |Du| (and u_t),
    # then one residual per op, each field once
    g = make_grid(2, math.pi, 32, periodic=True)
    u = tf("random_band", g, kmax=4, seed=12)
    structure, ops, spec = _lam_sweep(case, g)
    passes, calls = [], {}
    taken = solvers.spectral_derivative_fields

    def counting(*args, **kwargs):
        passes.append(1)
        return taken(*args, **kwargs)

    def counting_norm(fld):
        key = fld.values.tobytes()
        calls[key] = calls.get(key, 0) + 1
        return float(np.sqrt((fld.values ** 2).sum()))

    monkeypatch.setattr(solvers, "spectral_derivative_fields", counting)
    got = apriori_ratios(u, ops, spec, structure, norm_eval=counting_norm)
    assert len(passes) == 1
    assert len(calls) == parts + len(ops)
    assert set(calls.values()) == {1}
    assert [r["denominator"] for r in got] == [
        float(np.sqrt((apply_operator(u, op, structure).values ** 2).sum())) for op in ops]


def test_oscillation_quadratic_is_zero():
    g = make_grid(2, math.pi, 128, periodic=True)
    xs = g.mesh()
    u = Field(g, np.cos(xs[0]))
    # cos has nonzero osc; a genuinely quadratic poly is not periodic, so
    # check instead that a single Fourier mode on a tiny ball has tiny osc
    # (the ball holds cells at two distances from the origin, so osc > 0)
    data = oscillation_estimate(u, Field(g, np.abs(u.values)), S2, 4.0, 0.1, 2.0)
    assert 0 < data["osc"] < 0.05


def test_oscillation_of_an_empty_member_is_a_config_error():
    # a 0.1 ball about the origin of a 32^2 grid on a 2 pi box holds no cell
    # centre (the nearest lie 0.139 away); 64^2 puts four inside it
    g = make_grid(2, math.pi, 32, periodic=True)
    u = Field(g, np.cos(g.mesh()[0]))
    with pytest.raises(ConfigError, match=r"rho = 0\.1 .*32x32 grid"):
        oscillation_estimate(u, Field(g, np.abs(u.values)), S2, 2.0, 0.1, 2.0)
    g = make_grid(2, math.pi, 64, periodic=True)
    u = Field(g, np.cos(g.mesh()[0]))
    assert oscillation_estimate(u, Field(g, np.abs(u.values)), S2, 2.0, 0.1, 2.0)["osc"] > 0


def test_matrix_bracket_inequalities_bulk():
    rng = np.random.default_rng(9)
    for delta in (0.2, 0.5, 0.9):
        for _ in range(500):
            a = random_sdelta(rng, 3, delta)
            u = rng.normal(size=(3, 3))
            u = 0.5 * (u + u.T)
            br = sdelta_brackets(a, u)
            assert br >= delta ** 2 * float((u ** 2).sum()) - 1e-12
            shifted = sdelta_brackets(a - delta * np.eye(3), u)
            assert -1e-12 <= shifted <= (1 - delta ** 2) ** 2 * br + 1e-10


class _Replay:
    """An rng stand-in that hands random_sdelta one pair's stacked draws."""

    def __init__(self, g, ev):
        self.g, self.ev = g, ev

    def normal(self, size):
        assert size == self.g.shape
        return self.g

    def uniform(self, low, high, size):
        assert (size,) == self.ev.shape and ((low <= self.ev) & (self.ev <= high)).all()
        return self.ev


def test_stacked_brackets_match_pair_by_pair():
    # at-matrix's stacked pairs against pairs made one at a time from the
    # same three stacked draws (the normal 3x3 of every a, its eigenvalues,
    # the normal 3x3 of every u): each a is what random_sdelta builds from
    # its draws, in S_delta, and each stacked bracket is the pair's own
    n = 300
    for delta in (0.2, 0.5, 0.9):
        a, u = _sdelta_pairs(np.random.default_rng(11), n, delta)
        rng = np.random.default_rng(11)
        g = rng.normal(size=(n, 3, 3))
        ev = rng.uniform(delta, 1.0 / delta, size=(n, 3))
        un = rng.normal(size=(n, 3, 3))
        stacked = sdelta_brackets(a, u)
        shifted = sdelta_brackets(a - delta * np.eye(3), u)
        for k in range(n):
            ak = random_sdelta(_Replay(g[k], ev[k]), 3, delta)
            uk = 0.5 * (un[k] + un[k].T)
            assert np.allclose(a[k], ak, rtol=0, atol=1e-12)
            assert np.allclose(np.linalg.eigvalsh(ak), np.sort(ev[k]), rtol=0, atol=1e-12)
            assert np.array_equal(u[k], uk)
            assert isinstance(sdelta_brackets(ak, uk), float)
            assert stacked[k] == pytest.approx(sdelta_brackets(ak, uk), rel=1e-12, abs=1e-12)
            assert shifted[k] == pytest.approx(sdelta_brackets(ak - delta * np.eye(3), uk),
                                               rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("case", ["elliptic-2d", "elliptic-3d", "parabolic"])
def test_gradient_pass_is_the_full_pass_gradient(case):
    # the drift iteration's gradient-only pass gives, bit for bit, the Du
    # list of the full derivative pass
    g, s = {"elliptic-2d": (make_grid(2, math.pi, 32, periodic=True), S2),
            "elliptic-3d": (make_grid(3, math.pi, 16, periodic=True), make_structure(3, (1, 1, 1))),
            "parabolic": (make_grid(2, (1.0, math.pi), (16, 32), periodic=True), SP)}[case]
    u = tf("random_band", g, kmax=4, seed=9)
    got = solvers._spectral_gradient(u, s)
    want = spectral_derivative_fields(u, s)[0]
    assert len(got) == len(want) == (g.dim - 1 if s.parabolic else g.dim)
    assert all(np.array_equal(x, y) for x, y in zip(got, want))


def test_drift_iteration_takes_no_full_derivative_pass(monkeypatch):
    # b . Du needs Du alone: the drift solve never builds D2 u
    g = make_grid(2, math.pi, 32, periodic=True)
    f = tf("random_band", g, kmax=4, seed=6)
    b = [Field(g, 0.4 * np.sin(x)) for x in g.mesh()]
    want = solve_drift(f, 2.0, b, S2)

    def refused(*args, **kwargs):
        raise AssertionError("a full derivative pass")

    monkeypatch.setattr(solvers, "spectral_derivative_fields", refused)
    u, trace = solve_drift(f, 2.0, b, S2)
    assert np.array_equal(u.values, want[0].values) and trace == want[1]


def test_interpolation_gradient_family():
    g = make_grid(2, math.pi, 64, periodic=True)
    for eps in (0.25, 0.5, 1.0):
        worst = 0.0
        for seed in range(5):
            u = tf("random_band", g, kmax=5, seed=seed)
            du, d2, _, _ = spectral_derivative_fields(u, S2)
            ndu = math.sqrt(sum(float((x ** 2).sum()) for x in du))
            nd2 = math.sqrt(sum(float((d2[i][j] ** 2).sum())
                                for i in range(2) for j in range(2)))
            nu = math.sqrt(float((u.values ** 2).sum()))
            worst = max(worst, ndu / (eps * nd2 + nu / eps))
        assert worst <= 0.51  # L2 interpolation constant is 1/2 at worst


def test_whole_space_insensitivity_to_box_doubling():
    # spectral solves on a doubled box with the same source stay put
    vals = []
    for L, n in ((math.pi, 64), (2 * math.pi, 128)):
        g = make_grid(2, L, n, periodic=True)
        xs = g.mesh()
        f = Field(g, np.exp(-2.0 * (xs[0] ** 2 + xs[1] ** 2)))
        u = solve_laplace(f, 2.0)
        i0 = tuple(c // 2 for c in g.cells)
        vals.append(u.values[i0])
    assert vals[0] == pytest.approx(vals[1], rel=1e-3)


def test_derivative_magnitudes_sum_their_entries_in_index_order():
    # |Du| and |D^2 u| are bit-identical to the sums written out entry by
    # entry, row by row for the Hessian
    g = make_grid(3, math.pi, 16, periodic=True)
    du, d2, _, _ = spectral_derivative_fields(tf("random_band", g, kmax=3, seed=2),
                                              make_structure(3, (1, 1, 1)))
    assert np.array_equal(gradient_magnitude(du), np.sqrt(du[0] ** 2 + du[1] ** 2 + du[2] ** 2))
    want = np.sqrt(sum(d2[i][j] ** 2 for i in range(3) for j in range(3)))
    assert np.array_equal(hessian_magnitude(d2), want)
