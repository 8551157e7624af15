"""Tests of the benchmark itself: the tracer's bindings and self times, and
the reference computations on tiny hand-computed cases.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import morreylab  # noqa: E402
from morreylab.checks import REGISTRY  # noqa: E402
from morreylab.checks.report import load_all_checks  # noqa: E402

import references as ref  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

load_all_checks()


def _bindings():
    """id of every attribute of every morreylab module and class, of the
    external kernel modules, and of every registry entry."""
    def ident(obj):  # a static method counts as the function it holds
        return id(spans._callable(obj) or obj)

    out = {}
    for modname, mod in spans._package_modules():
        for name, obj in vars(mod).items():
            out[(modname, name)] = ident(obj)
            if inspect.isclass(obj) and (obj.__module__ or "").startswith("morreylab"):
                for mname, mobj in vars(obj).items():
                    out[(modname, name, mname)] = ident(mobj)
    for modname, mod, _names in spans._external_modules():
        for name, obj in vars(mod).items():
            out[(modname, name)] = ident(obj)
    for cid, entry in REGISTRY.items():
        out[("REGISTRY", cid)] = id(entry[0])
    return out


def _tiny_ops(seed):
    """A few cheap operations that cross several layers."""
    from morreylab.grid import Field, make_grid, make_structure
    from morreylab.maximal import BallFamily, classical_sharp
    from morreylab.norms import NormSpec, evaluate_norm
    from morreylab.solvers import solve_laplace
    from morreylab.testfunctions import test_function

    g2 = make_grid(2, math.pi, 16, periodic=True)
    s2 = make_structure(2)
    u = test_function("random_band", g2, kmax=2, seed=seed)
    fam = BallFamily.for_structure(s2, g2)
    return [
        workloads.Op("norm", lambda out: evaluate_norm(u, NormSpec("Epbr", p=2.0, beta=1.0), s2)),
        workloads.Op("sharp", lambda out: classical_sharp(u, s2, family=fam)),
        workloads.Op("solve", lambda out: solve_laplace(u, 1.0)),
        workloads.Op("check", lambda out: morreylab.checks.run_check("dyadic-mean")),
    ]


@pytest.fixture
def tiny_workload(monkeypatch):
    monkeypatch.setitem(workloads.SETUPS, "tiny", _tiny_ops)
    return "tiny"


def test_untraced_round_rebinds_nothing(tiny_workload):
    before = _bindings()
    result = worker.run_round(tiny_workload, 3, trace=False)
    assert result["failed"] == 0 and result["attempted"] == 4
    assert _bindings() == before


def test_traced_install_replaces_every_binding():
    before = _bindings()
    tracer = spans.Tracer()
    targets = tracer.install(REGISTRY)
    try:
        originals = {id(fn) for fn, _name, _layer in targets.values()}
        assert id(morreylab.maximal.classical_sharp) not in originals
        stale = [key for key, obj_id in _bindings().items() if obj_id in originals]
        assert stale == []
        # names bound at import time now hold the wrappers
        assert morreylab.norms._correlate is morreylab.maximal._correlate
        assert morreylab.norms._correlate.__traced_original__ is not None
        assert morreylab.maximal.fftconvolve is morreylab.norms.fftconvolve
        import scipy.signal

        assert scipy.signal.fftconvolve is morreylab.maximal.fftconvolve
        assert all(hasattr(entry[0], "__traced_original__") for entry in REGISTRY.values())
        sm = vars(morreylab.maximal.BallFamily)["for_structure"]
        assert hasattr(sm.__func__, "__traced_original__")
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_self_times_sum_to_traced_wall(tiny_workload):
    before = _bindings()
    result = worker.run_round(tiny_workload, 5, trace=True)
    assert _bindings() == before
    t = result["trace"]
    total = sum(layer["self_s"] for layer in t["layers"].values())
    assert total == pytest.approx(t["wall_s"], abs=1e-9)
    assert t["layers"]["maximal"]["calls"] >= 1
    assert t["layers"]["fft"]["calls"] >= 1
    assert t["layers"]["checks"]["calls"] >= 1
    assert set(t["check_s"]) == {"dyadic-mean"}
    assert 0 < t["span_cost_s"] < 1e-3
    setup_total = sum(layer["self_s"] for layer in t["setup_layers"].values())
    assert t["setup_layers"]["testfunctions"]["calls"] == 1
    assert setup_total > 0


def test_nested_transforms_count_once():
    import scipy.signal

    tracer = spans.Tracer()
    tracer.install(REGISTRY)
    try:
        a, k = np.ones((6, 5)), np.ones((3, 3))
        with tracer.root("op", "ops"):
            scipy.signal.fftconvolve(a, k, mode="full")
            scipy.signal.fftconvolve(a, k, mode="full")
            scipy.signal.fftconvolve(2 * a, k, mode="full")
            np.fft.fftn(a)
        scipy.signal.fftconvolve(a, k)  # outside any root span: not recorded
    finally:
        tracer.uninstall()
    c = tracer.counters()
    assert tracer.calls[("ops", "fft")] == 4
    assert c["correlations"] == 3
    assert c["melems"] * 1e6 == 3 * 3 * (8 * 7) + 30
    assert c["kernel_repeat_share"] == pytest.approx(2 / 3)
    assert c["result_repeat_share"] == pytest.approx(1 / 3)


# -- references on hand-computed cases -------------------------------------------


def test_ball_morrey_sup_hand_cases():
    v1 = np.array([1.0, 3.0])
    assert ref.ball_morrey_sup(v1, (1.0,), 1.0, 0.0, (0.5,)) == 3.0
    # radius 1.5 holds both cells: mean 2 at either centre, times 1.5^1
    assert ref.ball_morrey_sup(v1, (1.0,), 1.0, 1.0, (0.5, 1.5)) == pytest.approx(3.0)
    v2 = np.array([[1.0, 2.0], [3.0, 4.0]])
    # rho = 1.2 reaches the four axis neighbours; at (1, 1): 4, 3, 2
    assert ref.ball_morrey_sup(v2, (1.0, 1.0), 1.0, 0.0, (1.2,)) == pytest.approx(3.0)
    assert ref.ball_morrey_sup(v2, (1.0, 1.0), 2.0, 0.0, (1.2,)) == pytest.approx(
        math.sqrt(29.0 / 3.0))


def test_ball_morrey_sup_matches_program_on_tiny_grid():
    from morreylab.grid import Field, make_grid, make_structure
    from morreylab.norms import NormSpec, evaluate_norm

    g = make_grid(3, 1.0, 4)
    vals = np.arange(64, dtype=float).reshape(4, 4, 4) - 20.0
    radii = (0.6, 1.1)
    got = evaluate_norm(Field(g, vals), NormSpec("Epbr", p=2.0, beta=1.0, r=1.1),
                        make_structure(3), radii=radii)
    assert got == pytest.approx(ref.ball_morrey_sup(vals, g.h, 2.0, 1.0, radii), rel=1e-12)


def test_quadrant_mass_hand_cases():
    assert ref.quadrant_mass(0.01, 0.05, 0.0) == pytest.approx(0.01 * 0.05, rel=1e-14)
    from scipy.integrate import dblquad

    for g in (0.5, 2.5):
        num = dblquad(lambda x, t: (x + math.sqrt(t)) ** -g, 0.0, 0.01, 0.0, 0.05,
                      epsabs=1e-15, epsrel=1e-12)[0]
        assert ref.quadrant_mass(0.01, 0.05, g) == pytest.approx(num, rel=1e-10)
    with pytest.raises(ValueError):
        ref.quadrant_mass(0.01, 0.05, 2.0)


def test_box_sums_and_weighted_norm_hand_cases():
    v = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert ref.box_sums(v, (1, 1)).tolist() == [[10.0]]
    assert ref.box_sums(v, (2, 1)).tolist() == [[3.0], [7.0]]
    assert ref.weighted_lp(np.array([1.0, 2.0]), np.ones(2), 2.0, 0.5) == pytest.approx(
        math.sqrt(2.5))


def test_power_weight_classes_hand_cases():
    assert ref.power_weight_admissible(-0.5, 2.0, 1)
    assert not ref.power_weight_admissible(1.0, 2.0, 1)  # alpha = d (p - 1)
    assert not ref.power_weight_admissible(-2.0, 3.0, 2)  # alpha = -d
    grid = [0.05 * 2 ** j for j in range(7)]
    # -0.5 (1 + eps) > -1 iff eps < 1: the scan stops at 1.6
    assert ref.reverse_holder_eps(-0.5, 1, grid) == 0.8
    assert ref.reverse_holder_eps(0.5, 1, grid) == 3.2


def test_spectral_hessian_of_a_sine():
    n = 16
    x = (np.arange(n) + 0.5) * (2 * math.pi / n) - math.pi
    vals = np.sin(x)[:, None] * np.cos(2 * x)[None, :]
    h = ref.spectral_hessian(vals, (2 * math.pi / n,) * 2)
    assert np.allclose(h[(0, 0)], -vals, atol=1e-12)
    assert np.allclose(h[(1, 1)], -4 * vals, atol=1e-12)
    assert np.allclose(h[(0, 1)], -2 * np.cos(x)[:, None] * np.sin(2 * x)[None, :],
                       atol=1e-12)


def test_registry_pattern_leaves_out_only_osc_kappa():
    import fnmatch

    left_out = [cid for cid in REGISTRY if not fnmatch.fnmatch(cid, workloads.REGISTRY_PATTERN)]
    assert left_out == ["osc-kappa"]
    assert set(workloads.SLOW_CHECKS) <= set(REGISTRY)


def test_oscillation_round_fails_only_the_known_fault():
    result = worker.run_round("oscillation", 11, trace=False)
    assert result["failed"] == 4
    assert result["unexpected"] == []


@pytest.mark.parametrize("workload", ["morrey-apriori", "weights-cz"])
def test_by_hand_rounds_fail_nothing(workload):
    result = worker.run_round(workload, 11, trace=False)
    assert result["failed"] == 0
    assert result["unexpected"] == []
