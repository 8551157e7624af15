"""Command-line interface.

    morreylab check '<id|glob>' [--seed N] [--grid X] [--out report.json]
              [--csv report.csv] [--plot-data dir] [--verbose]
    morreylab list-checks [--format plain|json|md]
    morreylab czd --field F --level L [--anisotropy K ...] [--out boxes.json]
    morreylab maximal --field F --out G [--beta B] [--weight W]
              [--anisotropy K ...]
    morreylab weight {ap|rh|jones|rdf} --field W [--p P] [--seed N]
              [--anisotropy K ...] [--out out.json] [--out-factors PREFIX]
    morreylab norm --spec JSON (--field F | --function id[:k=v,...]) [--dim D]
              [--half-extent L] [--grid-cells N]
    morreylab potential --kernel JSON --field F --out G
    morreylab solve --op JSON --rhs F --out G [--norm JSON]

Exit codes: 0 all pass, 1 any check failed, 2 configuration error, 3 a
check raised (its row reads "error").  Any other exception is an internal
error and surfaces with its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .grid import ConfigError


@contextmanager
def _user_input(what):
    """Turn the errors raised while user input becomes library objects (files,
    specs, weights, structures) into a ConfigError."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _require(ok, msg):
    if not ok:
        raise ConfigError(msg)


def _positive(text):
    """argparse type of --grid."""
    val = float(text)
    if not val > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return val


def _load_field(path):
    from .grid import load_field, load_field_csv

    p = Path(path)
    with _user_input(f"cannot read field {path}"):
        return load_field_csv(p) if p.suffix == ".csv" else load_field(p)


def _save_field(field, path, anisotropy=None):
    """Write a field; the JSON sidecar or CSV header records anisotropy
    (None: the field's own, else isotropic), so a later command runs on the
    same structure."""
    from .grid import save_field, save_field_csv

    p = Path(path)
    with _user_input(f"cannot write field {path}"):
        (save_field_csv if p.suffix == ".csv" else save_field)(field, p, anisotropy)


def _structure_for(field, anisotropy=None):
    """The structure of a field: the given anisotropy, else the one its file
    recorded, else isotropic."""
    from .grid import make_structure

    if anisotropy is None:
        anisotropy = field.meta.get("anisotropy") or (1,) * field.grid.dim
    with _user_input("bad anisotropy"):
        return make_structure(field.grid.dim, tuple(anisotropy))


def _weight(path):
    from .weights import Weight

    field = _load_field(path)
    with _user_input(f"bad weight {path}"):
        return Weight(field)


def cmd_check(args):
    from .checks import CheckConfig, run_suite
    from .checks.report import OK_VERDICTS, CheckReport

    cfg = CheckConfig(seed=args.seed, grid=args.grid)
    reports = run_suite(args.pattern, cfg,
                        progress=(lambda cid: print(f"running {cid} ...", flush=True))
                        if args.verbose else None)
    _require(reports, f"no checks match {args.pattern!r}")
    for r in reports:
        status = "OK " if r.verdict in OK_VERDICTS else "ERR " if r.verdict == "error" else "FAIL"
        ratio = "inf" if math.isinf(r.ratio) else f"{r.ratio:.4g}"
        print(f"[{status}] {r.check_id:24s} verdict={r.verdict:22s} "
              f"ratio={ratio} bound={r.bound:.4g} ({r.runtime_ms:.0f} ms)")
    if args.out:
        Path(args.out).write_text(
            "[" + ",\n".join(r.to_json() for r in reports) + "]\n")
    if args.csv:
        lines = [",".join(CheckReport.CSV_HEADER)]
        for r in reports:
            lines.append(",".join('"' + c.replace('"', '""') + '"' for c in r.csv_row()))
        Path(args.csv).write_text("\n".join(lines) + "\n")
    if args.plot_data:
        outdir = Path(args.plot_data)
        outdir.mkdir(parents=True, exist_ok=True)
        for r in reports:
            for key, val in r.params.items():
                if isinstance(val, (list, tuple)) and len(val) > 1 and all(
                        isinstance(v, (int, float)) for v in val):
                    fn = outdir / f"{r.check_id}__{key}.txt"
                    fn.write_text("\n".join(f"{i} {v}" for i, v in enumerate(val)) + "\n")
    verdicts = {r.verdict for r in reports}
    sys.exit(3 if "error" in verdicts else 0 if verdicts <= set(OK_VERDICTS) else 1)


def cmd_list_checks(args):
    from .checks import list_checks

    rows = list_checks()
    if args.format == "json":
        print(json.dumps([{"id": i, "description": d} for i, d, _ in rows], indent=2))
    elif args.format == "md":
        print("| id | description |")
        print("|----|-------------|")
        for i, d, _ in rows:
            print(f"| `{i}` | {d} |")
    else:
        for i, d, _ in rows:
            print(f"{i:26s} {d}")


def cmd_czd(args):
    from .dyadic import cz_decompose, max_generation

    f = _load_field(args.field)
    s = _structure_for(f, args.anisotropy)
    with _user_input("czd"):
        max_generation(f.grid, s.anisotropy)  # dyadic boxes need power-of-two cells
    boxes, _good = cz_decompose(f, s, args.level)
    out = [{"n": b.generation, "i": list(b.index), "avg": avg} for b, avg in boxes]
    text = json.dumps(out, indent=2)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)


def cmd_maximal(args):
    from .maximal import classical_maximal, weighted_maximal

    f = _load_field(args.field)
    s = _structure_for(f, args.anisotropy)
    if args.weight:
        out = weighted_maximal(f, _weight(args.weight), s)
    else:
        out = classical_maximal(f, s, beta=args.beta)
    _save_field(out, args.out, s.anisotropy)


def cmd_weight(args):
    from .weights import ap_constant, jones_factorize, rdf_iterate, reverse_holder
    from .grid import Field

    if args.action in ("ap", "rh"):
        _require(args.p >= 1, f"weight {args.action} needs p >= 1")
    elif args.action == "jones":
        _require(1 < args.p <= 2, "weight jones needs p in (1, 2]")
    else:
        _require(args.p > 1, "weight rdf needs p > 1")
    w = _weight(args.field)
    s = _structure_for(w.field, args.anisotropy)
    result = {"p": args.p}
    if args.action == "ap":
        c = ap_constant(w, args.p, s)
        result.update({"constant": c, "stabilized": math.isfinite(c)})
    elif args.action == "rh":
        eps, n = reverse_holder(w, args.p, s)
        result.update({"constant": n, "eps": eps, "stabilized": eps > 0})
    elif args.action == "jones":
        w1, w2, sn = jones_factorize(w, args.p, s)
        result.update({"constant": sn, "stabilized": True})
        if args.out_factors:
            # the explicit suffix keeps a dotted prefix from naming one file twice
            _save_field(w1, args.out_factors + "_w1.field", s.anisotropy)
            _save_field(w2, args.out_factors + "_w2.field", s.anisotropy)
    elif args.action == "rdf":
        rng = np.random.default_rng(args.seed)
        f = Field(w.grid, rng.random(w.grid.cells) + 0.1)
        v, tn = rdf_iterate(f, w, args.p / (args.p - 1.0), s)
        result.update({"constant": tn, "stabilized": True})
    text = json.dumps(result, indent=2)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)


def _parse_function(spec):
    if ":" in spec:
        name, raw = spec.split(":", 1)
        params = {}
        for item in raw.split(","):
            k, v = item.split("=")
            params[k] = float(v) if not v.isalpha() else v
    else:
        name, params = spec, {}
    return name, params


def cmd_norm(args):
    from .norms import NormSpec, evaluate_norm
    from .testfunctions import test_function
    from .grid import make_grid

    with _user_input("bad --spec"):
        spec_d = json.loads(args.spec)
        aniso = spec_d.pop("anisotropy", None)
        spec = NormSpec(**spec_d)
    if args.field:
        f = _load_field(args.field)
    elif args.function:
        with _user_input("bad --function"):
            name, params = _parse_function(args.function)
            g = make_grid(int(args.dim), args.half_extent, args.grid_cells)
            f = test_function(name, g, **params)
        if isinstance(f, tuple):
            f = f[0]
    else:
        raise ConfigError("norm needs --field or --function")
    s = _structure_for(f, aniso)
    val = evaluate_norm(f, spec, s)
    print(json.dumps({"norm": spec_d, "value": val}))


def cmd_potential(args):
    from .potentials import KernelSpec, apply_kernel

    with _user_input("bad --kernel"):
        spec = KernelSpec(**json.loads(args.kernel))
    f = _load_field(args.field)
    d = f.grid.dim
    if spec.kind == "riesz":
        _require(spec.alpha is not None and spec.alpha < d, f"riesz needs 0 < alpha < {d}")
    elif spec.kind == "newtonian":
        _require(d >= 3, "the newtonian kernel needs d >= 3")
    elif spec.kind == "elliptic_resolvent":
        _require(spec.lam > 0, "elliptic_resolvent needs lam > 0")
    out = apply_kernel(f, spec)
    _save_field(out, args.out, f.meta.get("anisotropy"))


def cmd_solve(args):
    from .norms import NormSpec
    from .solvers import OperatorSpec, apriori_ratio, solve_heat, solve_laplace

    with _user_input("bad --op"):
        op_d = json.loads(args.op)
        kind = op_d.get("kind", "laplace")
        lam = float(op_d.get("lam", 1.0))
        a_of_t = np.asarray(op_d["a_of_t"]) if "a_of_t" in op_d else None
        op = OperatorSpec(kind, lam=lam, a_of_t=a_of_t)
    spec = None
    if args.norm:
        with _user_input("bad --norm"):
            spec = NormSpec(**json.loads(args.norm))
    f = _load_field(args.rhs)
    if kind == "laplace":
        _require(lam >= 0, "the laplace solve needs lam >= 0")
        _require(f.grid.periodic, "the laplace solve needs a periodic grid")
        aniso = (1,) * f.grid.dim
        u = solve_laplace(f, lam)
    else:
        aniso = (2,) + (1,) * (f.grid.dim - 1)
        u, _ = solve_heat(f, lam, a_of_t=a_of_t, delta=op_d.get("delta"))
    _save_field(u, args.out, aniso)
    if spec is not None:
        s = _structure_for(f, aniso)
        r = apriori_ratio(u, op, spec, s)
        print(json.dumps({k: v for k, v in r.items() if k != "parts"}
                         | {"parts": {k: float(v) for k, v in r["parts"].items()}}))


def _parser():
    ap = argparse.ArgumentParser(prog="morreylab",
                                 description="desk-scale harmonic-analysis checks")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("check", help="run registry checks")
    c.add_argument("pattern", help="check id or glob")
    c.add_argument("--seed", type=int, default=0x5EED)
    c.add_argument("--grid", type=_positive, default=1.0, help="resolution multiplier")
    c.add_argument("--out", help="JSON report path")
    c.add_argument("--csv", help="CSV report path")
    c.add_argument("--plot-data", help="directory for sweep data files")
    c.add_argument("--verbose", action="store_true")
    c.set_defaults(fn=cmd_check)

    lc = sub.add_parser("list-checks", help="list the registry")
    lc.add_argument("--format", choices=("plain", "json", "md"), default="plain")
    lc.set_defaults(fn=cmd_list_checks)

    d = sub.add_parser("czd", help="emit the bad boxes of a decomposition")
    d.add_argument("--field", required=True)
    d.add_argument("--level", type=float, required=True)
    d.add_argument("--anisotropy", type=int, nargs="+")
    d.add_argument("--out")
    d.set_defaults(fn=cmd_czd)

    m = sub.add_parser("maximal", help="apply a maximal operator")
    m.add_argument("--field", required=True)
    m.add_argument("--out", required=True)
    m.add_argument("--beta", type=float, default=0.0)
    m.add_argument("--weight")
    m.add_argument("--anisotropy", type=int, nargs="+")
    m.set_defaults(fn=cmd_maximal)

    w = sub.add_parser("weight", help="weight-class computations")
    w.add_argument("action", choices=("ap", "rh", "jones", "rdf"))
    w.add_argument("--field", required=True)
    w.add_argument("--p", type=float, default=2.0)
    w.add_argument("--seed", type=int, default=0x5EED)
    w.add_argument("--anisotropy", type=int, nargs="+")
    w.add_argument("--out")
    w.add_argument("--out-factors")
    w.set_defaults(fn=cmd_weight)

    n = sub.add_parser("norm", help="evaluate a norm")
    n.add_argument("--spec", required=True, help="NormSpec as JSON")
    n.add_argument("--field")
    n.add_argument("--function", help="library id, e.g. power:gamma=1")
    n.add_argument("--dim", type=int, default=2)
    n.add_argument("--half-extent", type=float, default=1.0)
    n.add_argument("--grid-cells", type=int, default=128)
    n.set_defaults(fn=cmd_norm)

    p = sub.add_parser("potential", help="apply a kernel")
    p.add_argument("--kernel", required=True, help="KernelSpec as JSON")
    p.add_argument("--in", "--field", dest="field", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_potential)

    so = sub.add_parser("solve", help="spectral solves with ratio report")
    so.add_argument("--op", required=True, help="operator spec as JSON")
    so.add_argument("--rhs", required=True)
    so.add_argument("--out", required=True)
    so.add_argument("--norm", help="NormSpec as JSON for the a-priori ratio")
    so.set_defaults(fn=cmd_solve)
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
