"""Benchmark of morreylab: four workloads (two in BENCHMARK.json), end-to-end
and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  A run repeats whole rounds of the
workload for about S seconds: it starts no round that would end more than
half a round past S.  Each round is a fresh Python process
(bench/worker.py), because every morreylab invocation starts with cold
caches.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: wall_s (median over rounds of the
time spent in the workload's calls into morreylab), setup_s (median time to
import morreylab, load the check registry and build the inputs; at least
five set-ups per run) and peak_rss_mb (peak resident memory of every
process the run starts).

--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced rounds (medians) and the tracing overhead.  Both
kinds of run write their per-round records, including the time of every
registry check, to .bench_out/; a traced run also writes the spans of its
last traced round there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
LAYERS = spans.LAYERS + (spans.ROOT_LAYER,)
SETUP_SAMPLES = 5
HARD_LIMIT_S = 165.0  # no round starts that could end after this


class TreeRss:
    """Samples the summed resident memory of a process and its descendants."""

    def __init__(self, pid, interval=0.02):
        self.pid = pid
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    @staticmethod
    def _rss_kb(pid):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    @staticmethod
    def _children(pid):
        out = []
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children") as fh:
                    out += [int(x) for x in fh.read().split()]
        except OSError:
            pass
        return out

    def _run(self):
        while not self._stop.is_set():
            total, todo = 0, [self.pid]
            while todo:
                pid = todo.pop()
                total += self._rss_kb(pid)
                todo += self._children(pid)
            self.peak_kb = max(self.peak_kb, total)
            self._stop.wait(self.interval)

    def stop(self):
        self._stop.set()
        self._thread.join()


def run_worker(workload, seed, trace, deadline, setup_only=False):
    """One round in a fresh process; returns (result dict, sampled peak kB)."""
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"round-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--spans", str(OUT_DIR / f"{workload}-seed{seed}-spans.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr)
    sampler = TreeRss(proc.pid)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"error: a {workload} round did not finish in time")
    finally:
        sampler.stop()
    if code != 0:
        raise SystemExit(f"error: the {workload} worker exited with code {code}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result, sampler.peak_kb


def layer_metrics(traced, untraced_walls):
    flat = []
    for r in traced:
        t = r["trace"]
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = t["layers"][layer]["self_s"]
            m[f"{layer}.calls"] = t["layers"][layer]["calls"]
        for layer in ("grid", "testfunctions"):
            m[f"{layer}.setup_s"] = t["setup_layers"][layer]["self_s"]
        c = t["counters"]
        m["fft.melems"] = c["melems"]
        m["fft.correlations"] = c["correlations"]
        m["fft.kernel_repeat_share"] = c["kernel_repeat_share"]
        m["fft.result_repeat_share"] = c["result_repeat_share"]
        m["trace.hash_s"] = t["layers"][spans.TRACER_LAYER]["self_s"]
        m["trace.spans"] = t["spans"]
        m["trace.wall_s"] = t["wall_s"]
        # the overhead the spans and hashing add, from a calibration in the
        # same process; unlike overhead_s it does not depend on another round
        m["trace.span_cost_us"] = t["span_cost_s"] * 1e6
        m["trace.estimated_overhead_s"] = t["spans"] * t["span_cost_s"] + m["trace.hash_s"]
        for cid in workloads.SLOW_CHECKS:
            m[f"check.{cid}_s"] = t["check_s"].get(cid, 0.0)
        flat.append(m)
    out = {k: statistics.median(m[k] for m in flat) for k in flat[0]}
    base = statistics.median(untraced_walls)
    out["trace.untraced_wall_s"] = base
    out["trace.overhead_s"] = out["trace.wall_s"] - base
    out["trace.overhead_share"] = out["trace.overhead_s"] / base
    return out


UNITS = {"self_s": "s", "setup_s": "s", "calls": "count", "melems": "Melem",
         "correlations": "count", "kernel_repeat_share": "share",
         "result_repeat_share": "share", "hash_s": "s", "spans": "count", "wall_s": "s",
         "untraced_wall_s": "s", "overhead_s": "s", "overhead_share": "share",
         "span_cost_us": "us", "estimated_overhead_s": "s"}


def unit_of(name):
    if name.startswith("check."):
        return "s"
    return UNITS[name.split(".", 1)[1]]


def main(argv=None):
    ap = argparse.ArgumentParser(description="morreylab benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "morreylab" / "__init__.py").is_file():
        print("error: src/morreylab not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    import compileall

    compileall.compile_dir(str(ROOT / "src"), quiet=1)  # set-up reads warm bytecode
    compileall.compile_dir(str(HERE), quiet=1)

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    rounds, peak_kb, last = [], 0, 0.0
    while True:
        # --trace 1 alternates untraced and traced rounds, swapping the order
        # in every pair
        n = len(rounds)
        traced = bool(args.trace) and n % 2 != (n // 2) % 2
        t0 = time.monotonic()
        result, peak = run_worker(args.workload, args.seed, traced, deadline)
        last = time.monotonic() - t0
        result["traced"] = traced
        rounds.append(result)
        peak_kb = max(peak_kb, peak)
        # stop once another round (a pair when tracing) would end more than
        # half its length past --seconds, or past the hard limit
        elapsed = time.monotonic() - start
        ahead = last * (1 + args.trace)
        whole = not args.trace or len(rounds) % 2 == 0
        if whole and (elapsed + ahead / 2 >= args.seconds
                      or time.monotonic() + ahead > deadline):
            break

    setups = [r["setup_s"] for r in rounds if not r["traced"]]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        result, peak = run_worker(args.workload, args.seed, False, deadline, setup_only=True)
        setups.append(result["setup_s"])
        peak_kb = max(peak_kb, peak)

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    unexpected = sorted({msg for r in rounds for msg in r["unexpected"]})
    for msg in unexpected:
        print(f"incorrect: {msg}", file=sys.stderr)
    untraced_walls = [r["wall_s"] for r in rounds if not r["traced"]]
    if args.trace:
        metrics = layer_metrics([r for r in rounds if r["traced"]], untraced_walls)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "wall_s": {"value": statistics.median(untraced_walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(peak_kb, children_kb) / 1024.0, "unit": "MB"},
        }
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"rounds": rounds, "setups": setups, "metrics": metrics},
                                 indent=1))
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
