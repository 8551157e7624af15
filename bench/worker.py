"""One round of one workload, in a fresh Python process.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --result PATH
                            [--spans PATH] [--setup-only]

Run from the root of the repository.  The round imports morreylab, loads the
check registry and builds the workload's inputs (timed as set-up), runs
every operation (each call timed), then checks every output.  It writes one
JSON object to PATH.  With --trace 1 the tracer wraps the program's
functions after the registry is loaded and records spans for the input
generation and for every operation; --spans writes every span out.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def _error_text(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def run_round(workload, seed, trace, setup_only=False, spans_path=None):
    """Set up, run and check one round; returns the result dict."""
    import morreylab  # noqa: F401  (the import is part of the set-up time)
    from morreylab.checks import REGISTRY
    from morreylab.checks.report import load_all_checks

    import workloads

    load_all_checks()
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(REGISTRY)
    try:
        if workload == "registry":
            runner = workloads.Registry(OUT_DIR, SRC / "morreylab")
            ops = None
        else:
            with (tracer.root("setup", "setup") if tracer else contextlib.nullcontext()):
                ops = workloads.SETUPS[workload](seed)
        setup_s = time.perf_counter() - T_START
        result = {"setup_s": setup_s}
        if setup_only:
            return result

        wall = cpu = 0.0
        unexpected = []
        if ops is None:
            t0, c0 = time.perf_counter(), time.process_time()
            with (tracer.root("registry", "ops") if tracer else contextlib.nullcontext()):
                runner.call()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            attempted, failed, unexpected = runner.outcome()
            result["check_s"] = runner.check_times()
        else:
            outputs, errors, op_s = {}, {}, {}
            for op in ops:
                with (tracer.root(op.name, "ops") if tracer else contextlib.nullcontext()):
                    t0, c0 = time.perf_counter(), time.process_time()
                    try:
                        outputs[op.name] = op.call(outputs)
                    except Exception as exc:  # an operation that raises has failed
                        errors[op.name] = _error_text(exc)
                    op_s[op.name] = time.perf_counter() - t0
                    wall += op_s[op.name]
                    cpu += time.process_time() - c0
            result["op_s"] = op_s
            if tracer:
                tracer.uninstall()  # the checks below are not traced
            attempted, failed = len(ops), 0
            for op in ops:
                msg = errors.get(op.name)
                if msg is None and op.check is not None:
                    try:
                        msg = op.check(outputs)
                    except Exception as exc:  # a check that cannot run fails its op
                        msg = f"check raised {_error_text(exc)}"
                if msg is not None:
                    failed += 1
                    if not op.known_fault:
                        unexpected.append(f"{op.name}: {msg}")
        result.update(attempted=attempted, failed=failed, wall_s=wall, cpu_s=cpu,
                      unexpected=unexpected)
        if tracer:
            result["trace"] = trace_result(tracer)
            if spans_path:
                Path(spans_path).write_text(json.dumps(tracer.span_table()))
        return result
    finally:
        if tracer:
            tracer.uninstall()


def trace_result(tracer):
    import spans

    return {
        "span_cost_s": spans.span_cost_s(),
        "wall_s": tracer.root_seconds("ops"),
        "layers": tracer.summary("ops"),
        "setup_layers": tracer.summary("setup"),
        "counters": tracer.counters(),
        "check_s": dict(tracer.check_s),
        "spans": len(tracer.spans),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    result = run_round(args.workload, args.seed, bool(args.trace), args.setup_only,
                       args.spans)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
