import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morreylab.checks import CheckConfig, list_checks, run_check, run_suite
from morreylab.checks.report import REGISTRY, load_all_checks

EXPECTED_IDS = {
    "dyadic-mean", "cz-sandwich", "maximal-weak", "dyadic-strong",
    "lebesgue-diff", "fs-dyadic", "sharp-compare", "hl-classical",
    "energy-laplace", "cz-lp", "sharp-d2u", "interp-grad",
    "resolvent-apriori", "osc-kappa", "hardy-grad", "hardy-lap", "adams",
    "adams-cf", "morrey-b-ex", "morrey-interp", "riesz-morrey",
    "morrey-embed", "fail-1.17.4", "fail-1.17.1", "laplace-morrey",
    "drift-morrey", "ap-range", "rh", "ainf", "self-improve", "muck-max",
    "fs-weighted", "fs-morrey", "jones", "adams-weighted",
    "adams-weighted-model", "laplace-weighted", "drift-weighted",
    "heat-energy", "heat-cz", "heat-sharp", "parab-adams", "w-alpha-a1",
    "parab-weight-int", "hl-parab-morrey", "fs-parab-morrey", "heat-morrey",
    "parab-embed", "parab-morrey-potential", "parab-grad-embed",
    "parab-holder", "heat-drift-morrey", "rdf", "mixed-transfer", "hl-mixed",
    "fs-mixed", "heat-mixed", "poincare", "trace-lr", "trace-morrey",
    "mixed-morrey-max", "mixed-embed", "lps-drift", "drift-seminorm",
    "mixed-morrey-heat", "mixed-interp", "at-matrix", "at-energy",
    "at-kernel", "at-solve", "at-osc", "at-mixed", "parab-sharp-pot",
    "mw-parab", "lqp-asym", "cyl-slab",
}


def test_registry_complete():
    load_all_checks()
    assert set(REGISTRY) == EXPECTED_IDS


def test_missing_check_module_surfaces(monkeypatch):
    # a check module that cannot be imported must not shrink the registry silently
    monkeypatch.setitem(sys.modules, "morreylab.checks.mixed", None)
    with pytest.raises(ModuleNotFoundError, match="mixed"):
        load_all_checks()


def test_run_check_energy_laplace():
    r = run_check("energy-laplace")
    assert r.verdict == "pass"
    assert r.ratio <= 1e-10


def test_run_check_dyadic_strong_p2_bound():
    r = run_check("dyadic-strong")
    assert r.verdict == "pass"
    assert r.lhs <= 2.0  # the dual-exponent constant at p = 2


def test_run_check_counterexample_verdict():
    r = run_check("fail-1.17.1")
    assert r.verdict == "diverged_as_expected"


def test_unknown_check_id():
    with pytest.raises(KeyError):
        run_check("not-a-check")


def test_cli_unknown_id_exit_code_2():
    out = subprocess.run(
        [sys.executable, "-m", "morreylab.cli", "check", "zzz-no-such"],
        capture_output=True, text=True)
    assert out.returncode == 2


def test_suite_filter_subset():
    reports = run_suite("dyadic-*")
    ids = {r.check_id for r in reports}
    assert ids == {"dyadic-mean", "dyadic-strong"}


def test_determinism_byte_identical_csv():
    cfg = CheckConfig(seed=123)
    rows1 = [",".join(run_check(cid, cfg).csv_row())
             for cid in ("dyadic-mean", "maximal-weak", "rh")]
    rows2 = [",".join(run_check(cid, cfg).csv_row())
             for cid in ("dyadic-mean", "maximal-weak", "rh")]
    assert rows1 == rows2


def test_list_checks_formats_identical_content():
    rows = list_checks()
    assert len(rows) == len(EXPECTED_IDS)
    out = subprocess.run([sys.executable, "-m", "morreylab.cli", "list-checks",
                          "--format", "json"], capture_output=True, text=True)
    data = json.loads(out.stdout)
    assert {d["id"] for d in data} == {i for i, _, _ in rows}
    out_md = subprocess.run([sys.executable, "-m", "morreylab.cli", "list-checks",
                             "--format", "md"], capture_output=True, text=True)
    md_ids = [line.split("`")[1] for line in out_md.stdout.splitlines()
              if line.startswith("| `")]
    assert set(md_ids) == {i for i, _, _ in rows}


def test_cli_crashing_check_gets_an_error_row_and_exit_3(tmp_path, monkeypatch, capsys):
    # an internal error in one check is not a refuted estimate: the other
    # checks still run and report, in order, and the run exits 3
    from morreylab.cli import main

    def crash(cfg):
        raise RuntimeError("internal")

    load_all_checks()
    monkeypatch.setitem(REGISTRY, "dyadic-n-crash", (crash, "raises", ()))
    csv, out = tmp_path / "r.csv", tmp_path / "r.json"
    with pytest.raises(SystemExit) as info:
        main(["check", "dyadic-*", "--csv", str(csv), "--out", str(out)])
    assert info.value.code == 3
    rows = json.loads(out.read_text())
    assert [r["check_id"] for r in rows] == ["dyadic-mean", "dyadic-n-crash", "dyadic-strong"]
    assert [r["verdict"] for r in rows] == ["pass", "error", "pass"]
    assert rows[1]["params"] == {"error": "RuntimeError: internal"}
    assert [line.split(",")[0] for line in csv.read_text().splitlines()[1:]] == [
        '"dyadic-mean"', '"dyadic-n-crash"', '"dyadic-strong"']
    assert "RuntimeError: internal" in capsys.readouterr().err


def test_import_graph_leaves_out_scipy():
    # start-up cost of every CLI call: the package runs on numpy alone, so no
    # scipy module loads with it, nor on the paths that once imported one
    # lazily (the at-solve quadrature, the A_1 running min, the 3-D max filter)
    import morreylab

    src = Path(morreylab.__file__).resolve().parents[1]
    code = "\n".join([
        "import sys, morreylab",
        "from morreylab.checks.report import load_all_checks, run_check",
        "from morreylab.grid import Field, make_grid, make_structure",
        "from morreylab.maximal import classical_maximal",
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "load_all_checks()",
        "print(loaded())",
        "assert run_check('at-solve').verdict == 'pass'",
        "assert run_check('w-alpha-a1').verdict == 'pass'",
        "g = make_grid(3, 1.0, 16)",
        "classical_maximal(Field(g, g.radius()), make_structure(3))",
        "print(loaded())",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.split() == ["[]", "[]"]
    assert [p for p in src.rglob("*.py") if "scipy.signal" in p.read_text()] == []


def test_empty_member_is_a_config_error_of_the_cli(tmp_path):
    # at half resolution the rho = 0.1 ball of osc-kappa holds no grid cell:
    # a configuration error (exit 2), not a fail verdict
    out = subprocess.run(
        [sys.executable, "-m", "morreylab.cli", "check", "osc-kappa", "--grid", "0.5",
         "--csv", str(tmp_path / "r.csv")], capture_output=True, text=True)
    assert out.returncode == 2
    assert "rho = 0.1" in out.stderr and "32x32" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "r.csv").exists()


def test_report_schema_keys():
    r = run_check("lebesgue-diff")
    payload = json.loads(r.to_json())
    for key in ("check_id", "seed", "grid", "params", "lhs", "rhs", "ratio",
                "bound", "bound_class", "verdict", "runtime_ms"):
        assert key in payload


def test_cli_field_pipeline(tmp_path):
    from morreylab.grid import Field, make_grid, save_field

    g = make_grid(1, 2.0, 64)
    x = g.axis(0)
    save_field(Field(g, 4.0 * ((x >= -2) & (x < -1))), tmp_path / "f.field")
    out = subprocess.run(
        [sys.executable, "-m", "morreylab.cli", "czd",
         "--field", str(tmp_path / "f.field"), "--level", "1.0"],
        capture_output=True, text=True)
    boxes = json.loads(out.stdout)
    assert boxes == [{"n": 1, "i": [0], "avg": 2.0}]
    out = subprocess.run(
        [sys.executable, "-m", "morreylab.cli", "maximal",
         "--field", str(tmp_path / "f.field"), "--out", str(tmp_path / "m.field")],
        capture_output=True, text=True)
    assert out.returncode == 0
    from morreylab.grid import load_field

    m = load_field(tmp_path / "m.field")
    assert m.values.max() <= 4.0 + 1e-9


def test_cli_weighted_maximal_honours_family_density(tmp_path):
    import numpy as np

    from morreylab.grid import Field, load_field, make_grid, make_structure, save_field
    from morreylab.maximal import BallFamily, weighted_maximal
    from morreylab.weights import power_weight

    g = make_grid(1, 1.0, 128)
    s = make_structure(1, (1,))
    f = Field(g, np.random.default_rng(0).random(128) ** 4)
    w = power_weight(g, 0.5)
    save_field(f, tmp_path / "f.field")
    save_field(w.field, tmp_path / "w.field")
    out = subprocess.run(
        [sys.executable, "-m", "morreylab.cli", "maximal",
         "--field", str(tmp_path / "f.field"), "--weight", str(tmp_path / "w.field"),
         "--family-density", "1", "--out", str(tmp_path / "m.field")],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    fam = BallFamily.for_structure(s, g, shape="cube", density=1.0)
    want = weighted_maximal(f, w, s, family=fam).values
    assert not np.allclose(want, weighted_maximal(f, w, s).values)  # the flag matters here
    assert np.array_equal(load_field(tmp_path / "m.field").values, want)


def test_cli_weight_and_norm(tmp_path):
    from morreylab.grid import save_field
    from morreylab.weights import power_weight
    from morreylab.grid import make_grid

    g = make_grid(1, 1.0, 256)
    save_field(power_weight(g, 0.5).field, tmp_path / "w.field")
    out = subprocess.run(
        [sys.executable, "-m", "morreylab.cli", "weight", "ap",
         "--field", str(tmp_path / "w.field"), "--p", "2"],
        capture_output=True, text=True)
    data = json.loads(out.stdout)
    assert data["stabilized"] and data["constant"] > 1.0
    out = subprocess.run(
        [sys.executable, "-m", "morreylab.cli", "norm",
         "--spec", json.dumps({"kind": "Epbr", "p": 2.0, "beta": 1.0, "r": 1.0}),
         "--function", "power:gamma=1", "--dim", "3", "--grid-cells", "48",
         "--half-extent", "1.5"],
        capture_output=True, text=True)
    data = json.loads(out.stdout)
    assert math.isfinite(data["value"]) and data["value"] > 0


@pytest.mark.parametrize("alpha, action, p", [(1.5, "ap", 2.0), (-0.9, "rh", 1.5)])
def test_cli_weight_on_a_saved_weight_matches_the_library(tmp_path, alpha, action, p):
    # the CLI sees the closed form of a saved power weight, as the library does:
    # |x|^1.5 is outside A_2, and |x|^-0.9 has reverse Holder exponent 0.1 on [0, 3.2]
    from morreylab.cli import main
    from morreylab.grid import make_grid, make_structure, save_field
    from morreylab.maximal import BallFamily
    from morreylab.weights import ap_constant, power_weight, reverse_holder

    g = make_grid(1, 1.0, 256)
    w = power_weight(g, alpha)
    save_field(w.field, tmp_path / "w.field")
    main(["weight", action, "--field", str(tmp_path / "w.field"), "--p", str(p),
          "--out", str(tmp_path / "r.json")])
    data = json.loads((tmp_path / "r.json").read_text())
    s = make_structure(1)
    fam = BallFamily.for_structure(s, g, shape="cube", density=4.0)
    if action == "ap":
        assert data["constant"] == ap_constant(w, p, s, fam) == math.inf
    else:
        eps, n = reverse_holder(w, p, s, fam)
        assert (data["eps"], data["constant"]) == (eps, n)
        assert eps == 0.1


def test_cli_solve_pipeline(tmp_path):
    from morreylab.grid import Field, make_grid, save_field
    from morreylab.testfunctions import test_function as tf

    g = make_grid(2, math.pi, 32, periodic=True)
    f = tf("random_band", g, kmax=3, seed=0)
    save_field(f, tmp_path / "f.field")
    out = subprocess.run(
        [sys.executable, "-m", "morreylab.cli", "solve",
         "--op", json.dumps({"kind": "laplace", "lam": 2.0}),
         "--rhs", str(tmp_path / "f.field"), "--out", str(tmp_path / "u.field"),
         "--norm", json.dumps({"kind": "Lp", "p": 2.0})],
        capture_output=True, text=True)
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert math.isfinite(data["ratio"])


@pytest.mark.parametrize("command", ["maximal", "potential", "solve", "weight jones"])
def test_cli_outputs_keep_the_input_anisotropy(tmp_path, command):
    import numpy as np

    from morreylab.cli import main
    from morreylab.grid import Field, make_grid, save_field

    g = make_grid(2, math.pi, 16, periodic=True)
    f = Field(g, 1.0 + np.random.default_rng(4).random(g.cells))
    save_field(f, tmp_path / "f.field", anisotropy=(2, 1))
    src, out = str(tmp_path / "f.field"), str(tmp_path / "m.field")
    argv = {
        "maximal": ["maximal", "--field", src, "--out", out],
        "potential": ["potential", "--kernel", json.dumps({"kind": "parabolic", "alpha": 1.0}),
                      "--field", src, "--out", out],
        # a heat solve runs on the parabolic (2, 1) structure whatever its input
        "solve": ["solve", "--op", json.dumps({"kind": "heat", "lam": 1.0}),
                  "--rhs", src, "--out", out],
        "weight jones": ["weight", "jones", "--field", src, "--p", "1.5",
                         "--out", str(tmp_path / "j.json"), "--out-factors", out],
    }[command]
    main(argv)
    written = [tmp_path / "m.json"] if command != "weight jones" else [
        tmp_path / "m.field_w1.json", tmp_path / "m.field_w2.json"]
    for sidecar in written:
        assert json.loads(sidecar.read_text())["anisotropy"] == [2, 1]


@pytest.mark.parametrize("exc", [ValueError, KeyError])
def test_cli_internal_error_is_not_a_config_error(tmp_path, monkeypatch, exc):
    # a library error that no user input caused surfaces with its traceback;
    # exit code 2 stays reserved for configuration errors
    import morreylab.maximal
    from morreylab.cli import main
    from morreylab.grid import Field, make_grid, save_field

    g = make_grid(1, 1.0, 32)
    save_field(Field(g, g.axis(0) ** 2), tmp_path / "f.field")

    def broken(*args, **kwargs):
        raise exc("internal")

    monkeypatch.setattr(morreylab.maximal, "classical_maximal", broken)
    with pytest.raises(exc, match="internal"):
        main(["maximal", "--field", str(tmp_path / "f.field"), "--out", str(tmp_path / "m.field")])


def test_cli_config_errors_exit_2(tmp_path):
    import numpy as np

    from morreylab.cli import main
    from morreylab.grid import Field, make_grid, save_field

    g = make_grid(1, 1.0, 24)
    save_field(Field(g, g.axis(0)), tmp_path / "f.field")  # not a weight: has signs
    f = str(tmp_path / "f.field")
    bad = [
        ["maximal", "--field", str(tmp_path / "missing.field"), "--out", f],
        ["maximal", "--field", f, "--out", f, "--anisotropy", "1", "1"],
        ["maximal", "--field", f, "--out", f, "--family-density", "0"],
        ["czd", "--field", f, "--level", "1"],  # 24 cells: no dyadic boxes
        ["weight", "ap", "--field", f],
        ["weight", "jones", "--field", f, "--p", "3"],
        ["norm", "--spec", "{not json", "--field", f],
        ["norm", "--spec", json.dumps({"kind": "nope", "p": 2.0}), "--field", f],
        ["norm", "--spec", json.dumps({"kind": "Lp", "p": 2.0}), "--function", "nope"],
        ["potential", "--kernel", json.dumps({"kind": "riesz", "alpha": 1.5}),
         "--field", f, "--out", f],
        ["solve", "--op", json.dumps({"kind": "laplace"}), "--rhs", f, "--out", f],
        ["solve", "--op", json.dumps({"kind": "wave"}), "--rhs", f, "--out", f],
    ]
    for argv in bad:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
    assert np.array_equal(np.fromfile(tmp_path / "f.f64"), g.axis(0))  # nothing overwrote it
