"""Check registry and report machinery.

A check is a callable cfg -> dict with keys lhs, rhs, bound, bound_class
('paper' | 'existential' | 'counterexample'), slack, params and optionally
an explicit verdict.  The runner times it, computes ratio = lhs/rhs and the
verdict (pass iff ratio <= bound * (1 + slack)), and emits a CheckReport.

Counterexample checks invert the logic: the expected outcome is divergence
or violation, and passing means the divergence was observed; they set
verdict='diverged_as_expected' themselves.
"""

from __future__ import annotations

import fnmatch
import json
import math
import time
import traceback
from dataclasses import dataclass, asdict

from ..grid import ConfigError

__all__ = ["CheckConfig", "CheckReport", "register", "REGISTRY", "run_check",
           "run_suite", "list_checks", "load_all_checks"]

DEFAULT_SEED = 0x5EED

REGISTRY = {}  # id -> (fn, description, tags)


@dataclass
class CheckConfig:
    seed: int = DEFAULT_SEED
    grid: float = 1.0  # global resolution multiplier
    density: float = 4.0  # family density knob
    slack: float = 0.05

    def cells(self, base):
        """Scale a base cell count, keeping it an even power-of-two-friendly size."""
        n = int(round(base * self.grid))
        n = max(8, n)
        if n % 2:
            n += 1
        return n


@dataclass
class CheckReport:
    check_id: str
    seed: int
    grid: str
    params: dict
    lhs: float
    rhs: float
    ratio: float
    bound: float
    bound_class: str
    verdict: str
    runtime_ms: float
    slack: float = 0.0

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, default=_jsonify)

    def csv_row(self):
        # runtime_ms is excluded: CSV bytes must be reproducible per seed
        return [
            self.check_id, str(self.seed), self.grid,
            json.dumps(self.params, sort_keys=True, default=_jsonify),
            _fmt(self.lhs), _fmt(self.rhs), _fmt(self.ratio), _fmt(self.bound),
            self.bound_class, self.verdict, _fmt(self.slack),
        ]

    CSV_HEADER = ["check_id", "seed", "grid", "params", "lhs", "rhs", "ratio",
                  "bound", "bound_class", "verdict", "slack"]


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(float(x))


def _jsonify(x):
    try:
        return float(x)
    except (TypeError, ValueError):
        return str(x)


def register(check_id, description, tags=()):
    def deco(fn):
        if check_id in REGISTRY:
            raise ValueError(f"duplicate check id {check_id}")
        REGISTRY[check_id] = (fn, description, tuple(tags))
        return fn

    return deco


def load_all_checks():
    """Import every check module so the registry is fully populated."""
    import importlib

    for mod in ("real_analysis", "elliptic", "weights_checks", "parabolic",
                "mixed", "at_checks"):
        importlib.import_module(f".{mod}", __package__)


def run_check(check_id, cfg=None):
    """Execute one registered check deterministically for the given config."""
    load_all_checks()
    if check_id not in REGISTRY:
        raise KeyError(check_id)
    cfg = cfg or CheckConfig()
    fn, _desc, _tags = REGISTRY[check_id]
    t0 = time.perf_counter()
    out = fn(cfg)
    ms = (time.perf_counter() - t0) * 1000.0
    lhs = float(out.get("lhs", math.nan))
    rhs = float(out.get("rhs", math.nan))
    if "ratio" in out:
        ratio = float(out["ratio"])
    else:
        ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    bound = float(out.get("bound", math.inf))
    slack = float(out.get("slack", cfg.slack))
    verdict = out.get("verdict")
    if verdict is None:
        verdict = "pass" if ratio <= bound * (1.0 + slack) else "fail"
    return CheckReport(
        check_id=check_id,
        seed=cfg.seed,
        grid=out.get("grid", ""),
        params=out.get("params", {}),
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        bound=bound,
        bound_class=out.get("bound_class", "existential"),
        verdict=verdict,
        runtime_ms=ms,
        slack=slack,
    )


def run_suite(pattern="*", cfg=None, progress=None):
    """Run every check whose id matches the glob; returns list of reports.

    A check that raises gets an 'error' report (nan numbers, the exception
    in params) and its traceback goes to stderr; the other checks still run.
    A ConfigError is the user's and ends the run.
    """
    load_all_checks()
    cfg = cfg or CheckConfig()
    ids = sorted(i for i in REGISTRY if fnmatch.fnmatch(i, pattern or "*"))
    reports = []
    for cid in ids:
        if progress:
            progress(cid)
        try:
            reports.append(run_check(cid, cfg))
        except ConfigError:
            raise  # the user's configuration, not a fault of the check
        except Exception as exc:  # a bug in one check must not hide the other reports
            traceback.print_exc()
            nan = math.nan
            reports.append(CheckReport(cid, cfg.seed, "", {"error": f"{type(exc).__name__}: {exc}"},
                                       nan, nan, nan, nan, "", "error", 0.0, cfg.slack))
    return reports


def list_checks():
    load_all_checks()
    return [(cid, REGISTRY[cid][1], REGISTRY[cid][2]) for cid in sorted(REGISTRY)]


OK_VERDICTS = ("pass", "diverged_as_expected")
