import json
import math
import os
import pkgutil
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import morreylab
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

SRC = Path(morreylab.__file__).resolve().parents[1]  # the src directory of this checkout


def run_python(*args, check=False):
    """`python *args` in a child process that imports morreylab from SRC,
    whether or not the caller's PYTHONPATH names it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          check=check)


def test_pyproject_declares_the_numpy_the_fft_needs():
    # maximal._fft_correlate passes out= to np.fft.ifft, which numpy added in
    # 2.0.  A regex reads the floor: tomllib is missing on Python 3.10.
    floor = re.search(r'"numpy>=(\d+)', (SRC.parent / "pyproject.toml").read_text())
    assert floor is not None and int(floor.group(1)) >= 2


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
    out = run_python("-m", "morreylab.cli", "check", "zzz-no-such")
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
    out = run_python("-m", "morreylab.cli", "list-checks", "--format", "json")
    data = json.loads(out.stdout)
    assert {d["id"] for d in data} == {i for i, _, _ in rows}
    assert all(set(d) == {"id", "description"} for d in data)
    out_md = run_python("-m", "morreylab.cli", "list-checks", "--format", "md")
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
    monkeypatch.setitem(REGISTRY, "dyadic-n-crash", (crash, "raises"))
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
    out = run_python("-c", code, check=True)
    assert out.stdout.split() == ["[]", "[]"]
    assert [p for p in SRC.rglob("*.py") if "scipy.signal" in p.read_text()] == []


def test_empty_member_is_a_config_error_of_the_cli(tmp_path):
    # at half resolution the rho = 0.1 ball of osc-kappa holds no grid cell:
    # a configuration error (exit 2), not a fail verdict
    out = run_python("-m", "morreylab.cli", "check", "osc-kappa", "--grid", "0.5",
                     "--csv", str(tmp_path / "r.csv"))
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


def test_grid_label_reads_the_grids_that_ran():
    from morreylab.checks.common import elliptic_structure, grid_label, parabolic_structure
    from morreylab.grid import make_grid

    # one level: '<d>d/<cells>', from a grid or a list of one
    one = make_grid(2, 1.0, 64)
    assert grid_label(elliptic_structure(2), one) == "2d/64"
    assert grid_label(elliptic_structure(2), [one]) == "2d/64"
    assert grid_label(None, one) == "2d/64"
    # several levels: first-last, whatever the levels between them
    levels = [make_grid(3, 1.0, n) for n in (20, 28, 40)]
    assert grid_label(elliptic_structure(3), levels) == "3d/20-40"
    # a parabolic structure: '(1+k)', and the cells of the time axis
    cylinders = [make_grid(3, (1.0, 1.2, 1.2), (n, 3 * n // 2, 3 * n // 2)) for n in (16, 24)]
    assert grid_label(parabolic_structure(2), cylinders) == "(1+2)/16-24"
    assert grid_label(parabolic_structure(1), make_grid(2, 1.0, 32)) == "(1+1)/32"


def test_refinement_report_is_the_worst_growth_of_its_levels():
    from morreylab.checks.common import elliptic_structure, refinement_report, stability
    from morreylab.grid import make_grid

    grids = [make_grid(1, 1.0, n) for n in (128, 256, 512)]
    a, b = [1.0, 1.05, 1.02], [2.0, 1.9, 2.1]
    params = {"a": a, "b": b}
    report = refinement_report(elliptic_structure(1), grids, a, b, params=params)
    assert report == {"lhs": max(stability(a), stability(b)), "rhs": 1.0, "bound": 1.10,
                      "bound_class": "existential", "grid": "1d/128-512", "params": params}
    assert report["params"] is params
    assert refinement_report(None, grids, a, params={}, bound=1.15)["bound"] == 1.15
    assert refinement_report(None, grids, [1.0, math.inf, 1.0], params={})["lhs"] == math.inf


def test_refine_calls_the_level_function_once_per_grid_in_order():
    from morreylab.checks.common import elliptic_structure, refine, refinement_report, run_levels
    from morreylab.grid import make_grid

    grids = [make_grid(1, 1.0, n) for n in (128, 256, 512)]
    a = {128: 1.0, 256: 1.05, 512: 1.02}
    b = {128: 2.0, 256: 1.9, 512: 2.1}
    calls = []

    def level(g):
        calls.append(g.cells[0])
        return {"a": a[g.cells[0]], "b": b[g.cells[0]]}

    seqs = {"a": [1.0, 1.05, 1.02], "b": [2.0, 1.9, 2.1]}
    assert run_levels(grids, level) == seqs
    assert calls == [128, 256, 512]
    calls.clear()
    # params: the named sequences, then the check's extra keys
    report = refine(elliptic_structure(1), grids, level, {"p": 2.0}, bound=1.15)
    assert calls == [128, 256, 512]
    assert report["params"] == {**seqs, "p": 2.0}
    assert report == refinement_report(elliptic_structure(1), grids, *seqs.values(),
                                       params={**seqs, "p": 2.0}, bound=1.15)
    assert refine(None, grids, level) == refinement_report(None, grids, *seqs.values(),
                                                           params=seqs)


def test_worst_is_the_running_max_from_zero():
    from morreylab.checks.common import worst

    assert worst([]) == 0.0
    assert worst([-2.0]) == 0.0
    assert worst([math.nan, 1.0]) == 1.0
    assert worst([1.0, math.nan]) == 1.0
    assert worst(v for v in (0.5, 3.0, 2.0)) == 3.0


def test_cli_field_pipeline(tmp_path):
    from morreylab.grid import Field, make_grid, save_field

    g = make_grid(1, 2.0, 64)
    x = g.axis(0)
    save_field(Field(g, 4.0 * ((x >= -2) & (x < -1))), tmp_path / "f.field")
    out = run_python("-m", "morreylab.cli", "czd",
                     "--field", str(tmp_path / "f.field"), "--level", "1.0")
    boxes = json.loads(out.stdout)
    assert boxes == [{"n": 1, "i": [0], "avg": 2.0}]
    out = run_python("-m", "morreylab.cli", "maximal",
                     "--field", str(tmp_path / "f.field"), "--out", str(tmp_path / "m.field"))
    assert out.returncode == 0
    from morreylab.grid import load_field

    m = load_field(tmp_path / "m.field")
    assert m.values.max() <= 4.0 + 1e-9


@pytest.mark.parametrize("command", ["ap", "rh", "jones", "rdf", "maximal", "weighted-maximal"])
def test_cli_reports_the_library_numbers(tmp_path, command):
    # the CLI builds no family: each command prints or writes exactly what
    # the library call gives with its own families
    import numpy as np

    from morreylab.cli import main
    from morreylab.grid import Field, load_field, make_grid, make_structure, save_field
    from morreylab.maximal import classical_maximal, weighted_maximal
    from morreylab.weights import (ap_constant, jones_factorize, power_weight, rdf_iterate,
                                   reverse_holder)

    g, s = make_grid(1, 1.0, 128), make_structure(1)
    f = Field(g, np.random.default_rng(0).random(128) ** 4)
    w = power_weight(g, 0.5)
    save_field(f, tmp_path / "f.field")
    save_field(w.field, tmp_path / "w.field")
    src, wsrc, out = str(tmp_path / "f.field"), str(tmp_path / "w.field"), tmp_path / "o"
    if command.endswith("maximal"):
        if command == "maximal":
            main(["maximal", "--field", src, "--beta", "0.5", "--out", str(out)])
            want = classical_maximal(f, s, beta=0.5)
        else:
            main(["maximal", "--field", src, "--weight", wsrc, "--out", str(out)])
            want = weighted_maximal(f, w, s)
        assert np.array_equal(load_field(out).values, want.values)
        return
    main(["weight", command, "--field", wsrc, "--p", "2", "--seed", "24301", "--out", str(out)])
    data = json.loads(out.read_text())
    if command == "ap":
        assert data == {"p": 2.0, "constant": ap_constant(w, 2.0, s), "stabilized": True}
    elif command == "rh":
        eps, n = reverse_holder(w, 2.0, s)
        assert data == {"p": 2.0, "constant": n, "eps": eps, "stabilized": eps > 0}
    elif command == "jones":
        assert data == {"p": 2.0, "constant": jones_factorize(w, 2.0, s)[2], "stabilized": True}
    else:
        rdf_f = Field(w.grid, np.random.default_rng(24301).random(w.grid.cells) + 0.1)
        assert data == {"p": 2.0, "constant": rdf_iterate(rdf_f, w, 2.0, s)[1],
                        "stabilized": True}


def test_check_runs_the_library_families():
    # a check's families are the library's own: no density is configured
    import dataclasses

    from morreylab.cli import main

    assert [f.name for f in dataclasses.fields(CheckConfig)] == ["seed", "grid"]
    with pytest.raises(SystemExit) as info:
        main(["check", "hl-classical", "--family-density", "2"])
    assert info.value.code == 2


def test_cli_usage_block_names_the_options_of_each_command():
    # each usage line of the cli docstring (with its indented continuations)
    # names every option of its subcommand, by one of its spellings, and no other
    import argparse
    import re

    from morreylab import cli

    usage = cli.__doc__.split("\n\n")[1]
    named = {}
    for line in usage.splitlines():
        head = re.match(r"\s*morreylab (\S+)", line)
        if head:
            cmd = head.group(1)
        named.setdefault(cmd, set()).update(re.findall(r"--[a-z-]+", line))
    sub, = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(named) == set(sub.choices)
    for cmd, parser in sub.choices.items():
        spellings = [set(a.option_strings) for a in parser._actions
                     if a.option_strings and a.dest != "help"]
        missing = [sorted(s) for s in spellings if not s & named[cmd]]
        assert (cmd, missing, named[cmd] - set().union(*spellings)) == (cmd, [], set())


def test_cli_weight_and_norm(tmp_path):
    from morreylab.grid import save_field
    from morreylab.weights import power_weight
    from morreylab.grid import make_grid

    g = make_grid(1, 1.0, 256)
    save_field(power_weight(g, 0.5).field, tmp_path / "w.field")
    out = run_python("-m", "morreylab.cli", "weight", "ap",
                     "--field", str(tmp_path / "w.field"), "--p", "2")
    data = json.loads(out.stdout)
    assert data["stabilized"] and data["constant"] > 1.0
    out = run_python("-m", "morreylab.cli", "norm",
                     "--spec", json.dumps({"kind": "Epbr", "p": 2.0, "beta": 1.0, "r": 1.0}),
                     "--function", "power:gamma=1", "--dim", "3", "--grid-cells", "48",
                     "--half-extent", "1.5")
    data = json.loads(out.stdout)
    assert math.isfinite(data["value"]) and data["value"] > 0



@pytest.mark.parametrize("gamma, want", [(1.5, math.inf), (0.5, 2.3782)])
def test_cli_norm_of_a_csv_field_keeps_its_singularity(tmp_path, gamma, want):
    # the L^3 norm of |x|^-gamma on 64^2 read back from CSV: |x|^-1.5 stays
    # infinite, and |x|^-0.5 keeps the exact mass of its singular cell
    from morreylab.grid import make_grid, save_field_csv
    from morreylab.testfunctions import test_function as tf

    save_field_csv(tf("power", make_grid(2, 1.0, 64), gamma=gamma), tmp_path / "f.csv")
    out = run_python("-m", "morreylab", "norm",
                     "--spec", json.dumps({"kind": "Lp", "p": 3.0}),
                     "--field", str(tmp_path / "f.csv"))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["value"] == pytest.approx(want, rel=1e-4)


def test_python_m_morreylab_runs_the_cli():
    out = run_python("-m", "morreylab", "list-checks")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[0] == sorted(EXPECTED_IDS)[0]

@pytest.mark.parametrize("kind, alpha, action, p, want", [
    ("radial", 1.5, "ap", 2.0, math.inf),
    ("radial", -0.9, "rh", 1.5, 0.1),
    ("parabolic", 1.0, "rh", 2.0, 1.6),
], ids=["1.5-ap-2.0", "-0.9-rh-1.5", "parabolic-1.0-rh-2.0"])
def test_cli_weight_on_a_saved_weight_matches_the_library(tmp_path, kind, alpha, action, p,
                                                          want):
    # the CLI sees the closed form of a saved power weight, as the library does:
    # |x|^1.5 is outside A_2, |x|^-0.9 has reverse Holder exponent 0.1 on
    # [0, 3.2], and (|x| + sqrt|t|)^-1 has 1.6, the last grid eps with 1 + eps < 3
    from morreylab.cli import main
    from morreylab.grid import make_grid, make_structure, save_field
    from morreylab.weights import (ap_constant, parabolic_power_weight, power_weight,
                                   reverse_holder)

    if kind == "radial":
        w, s = power_weight(make_grid(1, 1.0, 256), alpha), make_structure(1)
    else:
        w = parabolic_power_weight(make_grid(2, (1.0, 1.0), (64, 64)), alpha)
        s = make_structure(2, (2, 1))
    save_field(w.field, tmp_path / "w.field", s.anisotropy)
    main(["weight", action, "--field", str(tmp_path / "w.field"), "--p", str(p),
          "--out", str(tmp_path / "r.json")])
    data = json.loads((tmp_path / "r.json").read_text())
    if action == "ap":
        assert data["constant"] == ap_constant(w, p, s) == want
    else:
        eps, n = reverse_holder(w, p, s)
        assert (data["eps"], data["constant"]) == (eps, n)
        assert eps == want


def test_cli_solve_pipeline(tmp_path):
    from morreylab.grid import Field, make_grid, save_field
    from morreylab.testfunctions import test_function as tf

    g = make_grid(2, math.pi, 32, periodic=True)
    f = tf("random_band", g, kmax=3, seed=0)
    save_field(f, tmp_path / "f.field")
    out = run_python("-m", "morreylab.cli", "solve",
                     "--op", json.dumps({"kind": "laplace", "lam": 2.0}),
                     "--rhs", str(tmp_path / "f.field"), "--out", str(tmp_path / "u.field"),
                     "--norm", json.dumps({"kind": "Lp", "p": 2.0}))
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
        ["check", "hl-classical", "--grid", "0"],
        ["czd", "--field", f, "--level", "1"],  # 24 cells: no dyadic boxes
        ["weight", "ap", "--field", f],
        ["weight", "jones", "--field", f, "--p", "3"],
        ["norm", "--spec", "{not json", "--field", f],
        ["norm", "--spec", json.dumps({"kind": "nope", "p": 2.0}), "--field", f],
        ["norm", "--spec", json.dumps({"kind": "Lp", "p": 2.0}), "--function", "nope"],
        ["potential", "--kernel", json.dumps({"kind": "riesz", "alpha": 1.5}),
         "--field", f, "--out", f],
        ["potential", "--kernel", json.dumps({"kind": "heat"}), "--field", f, "--out", f],
        ["solve", "--op", json.dumps({"kind": "laplace"}), "--rhs", f, "--out", f],
        ["solve", "--op", json.dumps({"kind": "wave"}), "--rhs", f, "--out", f],
    ]
    for argv in bad:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
    assert np.array_equal(np.fromfile(tmp_path / "f.f64"), g.axis(0))  # nothing overwrote it


MODULES = ["morreylab"] + [m.name for m in pkgutil.walk_packages(morreylab.__path__,
                                                                  "morreylab.")]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # every name in a module's __all__ must exist: a deleted function whose
    # name stayed in __all__ fails here
    exec(f"from {module} import *", {})


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    # the demos call the public API: one that breaks on an API change fails
    # here, and one whose printed numbers move by a bit fails against its
    # golden output, tests/golden/demos/<stem>.txt
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert list(tmp_path.iterdir()) == []  # a demo writes no file
    golden = Path(__file__).resolve().parent / "golden" / "demos" / f"{demo.stem}.txt"
    assert capsys.readouterr().out == golden.read_text()
