"""Span tracer that wraps morreylab's functions from outside the package.

A span has a name, a layer, a start, an end and a parent.  A layer's self
time is the time its spans cover minus the time covered by their child
spans, so the self times of all layers inside a root span add up to that
root span's duration.  Counters are attributed to the innermost open span.

Layers are the package's modules (``grid``, ``dyadic``, ``maximal``,
``weights``, ``norms``, ``potentials``, ``solvers``, ``testfunctions``,
``checks`` for the check bodies, ``cli`` for the command line and the check
runner) plus two for the external kernels the modules call: ``fft``
(``scipy.signal.fftconvolve``, ``numpy.fft``, ``scipy.fft``) and ``ndimage``
(``grey_dilation``, ``minimum_filter``).  Root spans opened by the benchmark
itself belong to ``other``: their self time is the time spent in morreylab
code that no wrapped function covers.

Modules bind names at import time (``from scipy.signal import
fftconvolve``), so the tracer rebinds every attribute of every morreylab
module and class that is an original function object, the attributes of
the external modules, and the callables held by the check registry.
``uninstall`` restores every binding.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("grid", "dyadic", "maximal", "weights", "norms", "potentials", "solvers",
          "testfunctions", "checks", "cli", "fft", "ndimage")
ROOT_LAYER = "other"
TRACER_LAYER = "trace"  # time the tracer spends hashing correlation inputs

FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn",
             "fft2", "ifft2", "rfft2", "irfft2")
NDIMAGE_NAMES = ("grey_dilation", "minimum_filter")


def layer_of_module(modname):
    """Layer of a morreylab module name, or None outside the package."""
    parts = modname.split(".")
    if parts[0] != "morreylab" or len(parts) < 2:
        return None
    if parts[1] == "cli" or parts[1:] == ["checks", "report"]:
        return "cli"
    if parts[1] in LAYERS:
        return parts[1]
    return None


def _package_modules():
    return sorted((name, mod) for name, mod in sys.modules.items()
                  if mod is not None and (name == "morreylab" or name.startswith("morreylab.")))


def _external_modules():
    import numpy.fft
    import scipy.fft
    import scipy.ndimage
    import scipy.signal

    return [("numpy.fft", numpy.fft, FFT_NAMES), ("scipy.fft", scipy.fft, FFT_NAMES),
            ("scipy.signal", scipy.signal, ("fftconvolve",)),
            ("scipy.ndimage", scipy.ndimage, NDIMAGE_NAMES)]


def _callable(obj):
    """The callable behind an attribute, else None.  External kernels need
    not be plain functions (numpy's are array-function dispatchers)."""
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    return obj if callable(obj) and not inspect.isclass(obj) else None


def find_targets(registry):
    """{id(function): (function, span name, layer)} for every function to wrap.

    Wrapped: public module-level functions and public methods of classes
    defined in a morreylab module, private functions that another morreylab
    module imports, the check callables in the registry, and the external
    FFT and ndimage kernels.
    """
    targets = {}
    modules = _package_modules()
    for modname, mod in modules:
        layer = layer_of_module(modname)
        if layer is None:
            continue
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == modname:
                for mname, mobj in vars(obj).items():
                    fn = _callable(mobj)
                    if inspect.isfunction(fn) and not mname.startswith("_"):
                        targets[id(fn)] = (fn, f"{modname[10:]}.{name}.{mname}", layer)
                continue
            fn = _callable(obj)
            if not inspect.isfunction(fn) or fn.__module__ != modname:
                continue
            imported_elsewhere = any(vars(other).get(name) is fn
                                     for oname, other in modules if oname != modname)
            if not name.startswith("_") or imported_elsewhere:
                targets[id(fn)] = (fn, f"{modname[10:]}.{name}", layer)
    for cid, entry in registry.items():
        fn = entry[0]
        targets[id(fn)] = (fn, f"check.{cid}", "checks")
    for modname, mod, names in _external_modules():
        layer = "ndimage" if modname == "scipy.ndimage" else "fft"
        for name in names:
            fn = _callable(getattr(mod, name, None))
            if fn is not None:
                targets[id(fn)] = (fn, f"{modname}.{name}", layer)
    return targets


def _prod(shape):
    out = 1
    for n in shape:
        out *= int(n)
    return out


def _fftconvolve_info(args, kwargs):
    """(elements, kernel key, hashable input) of one fftconvolve call."""
    import numpy as np

    a = np.asarray(args[0] if args else kwargs["in1"])
    k = np.asarray(args[1] if len(args) > 1 else kwargs["in2"])
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "full")
    axes = args[3] if len(args) > 3 else kwargs.get("axes")
    axes = tuple(range(a.ndim)) if axes is None else tuple(
        ax % a.ndim for ax in np.atleast_1d(axes))
    full = [a.shape[i] + k.shape[i] - 1 if i in axes else max(a.shape[i], k.shape[i])
            for i in range(a.ndim)]
    kernel_key = (a.shape, a.dtype.str, mode, axes, k.shape, k.dtype.str,
                  hash(k.tobytes()))
    # two forward transforms and one inverse over the full linear shape
    return 3 * _prod(full), kernel_key, (kernel_key, hash(a.tobytes()))


def _transform_elements(args, kwargs):
    """Elements of one numpy.fft / scipy.fft call: the requested length or
    shape where one is given, else the size of the input."""
    import numpy as np

    a = np.asarray(args[0] if args else kwargs.get("a", kwargs.get("x")))
    req = args[1] if len(args) > 1 else kwargs.get("s", kwargs.get("n"))
    if req is None:
        return a.size
    req = tuple(np.atleast_1d(req))
    kept = a.shape[:a.ndim - len(req)] if len(req) <= a.ndim else ()
    return _prod(kept) * _prod(req)


# fields of a span record
NAME, LAYER, PARENT, START, END, CHILD, PHASE = range(7)


class Tracer:
    """Records spans and counters; wraps and restores morreylab's bindings.

    A span is a list [name, layer, parent span, start, end, time covered by
    children, phase]; a root span's phase ("setup" or "ops") is inherited by
    every span under it.
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []
        self._stack = []
        self.self_s = defaultdict(float)  # (phase, layer) -> s
        self.calls = Counter()  # (phase, layer) -> n
        self.check_s = defaultdict(float)
        self.fft_elems = 0
        self.corr_calls = 0
        self.kernel_repeats = 0
        self.result_repeats = 0
        self._kernels = set()
        self._results = set()
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def open(self, name, layer, phase=None):
        stack = self._stack
        parent = stack[-1] if stack else None
        span = [name, layer, parent, 0.0, 0.0, 0.0,
                phase if parent is None else parent[PHASE]]
        self.spans.append(span)
        stack.append(span)
        span[START] = self.clock()
        return span

    def close(self, span):
        end = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span[NAME]} closed out of order")
        span[END] = end
        dur = end - span[START]
        key = (span[PHASE], span[LAYER])
        self.self_s[key] += dur - span[CHILD]
        self.calls[key] += 1
        if span[PARENT] is not None:
            span[PARENT][CHILD] += dur
        return dur

    @contextlib.contextmanager
    def root(self, name, phase):
        """A root span opened by the benchmark around its own calls."""
        span = self.open(name, ROOT_LAYER, phase)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, layer):
        tracer = self
        stack = self._stack
        open_, close = self.open, self.close

        if name == "scipy.signal.fftconvolve":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                # outside any root span, or nested inside another transform,
                # the call is not recorded
                if not stack or stack[-1][LAYER] == "fft":
                    return fn(*args, **kwargs)
                h = open_("hash-correlation-inputs", TRACER_LAYER)
                try:
                    elems, kkey, rkey = _fftconvolve_info(args, kwargs)
                finally:
                    close(h)
                span = open_(name, layer)
                try:
                    tracer.corr_calls += 1
                    tracer.kernel_repeats += kkey in tracer._kernels
                    tracer.result_repeats += rkey in tracer._results
                    tracer._kernels.add(kkey)
                    tracer._results.add(rkey)
                    tracer.fft_elems += elems
                    return fn(*args, **kwargs)
                finally:
                    close(span)
        elif layer == "fft":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                # scipy.signal.fftconvolve calls scipy.fft: count it once
                if not stack or stack[-1][LAYER] == "fft":
                    return fn(*args, **kwargs)
                span = open_(name, layer)
                try:
                    tracer.fft_elems += _transform_elements(args, kwargs)
                    return fn(*args, **kwargs)
                finally:
                    close(span)
        elif name.startswith("check."):
            cid = name[6:]

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not stack:
                    return fn(*args, **kwargs)
                span = open_(name, layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.check_s[cid] += close(span)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not stack:
                    return fn(*args, **kwargs)
                span = open_(name, layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(span)

        wrapper.__traced_original__ = fn
        return wrapper

    def install(self, registry):
        """Wrap every target and rebind every attribute that holds one."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        targets = find_targets(registry)
        wrappers = {key: self._wrap(fn, name, layer)
                    for key, (fn, name, layer) in targets.items()}

        def rebind(owner, name, obj):
            fn = _callable(obj)
            if fn is None or id(fn) not in wrappers or targets[id(fn)][0] is not fn:
                return
            new = wrappers[id(fn)]
            if isinstance(obj, staticmethod):
                new = staticmethod(new)
            elif isinstance(obj, classmethod):
                new = classmethod(new)
            self._restore.append((owner, name, obj))
            setattr(owner, name, new)

        for _, mod in _package_modules():
            for name, obj in list(vars(mod).items()):
                rebind(mod, name, obj)
                if inspect.isclass(obj) and (obj.__module__ or "").startswith("morreylab"):
                    for mname, mobj in list(vars(obj).items()):
                        rebind(obj, mname, mobj)
        for _, mod, _names in _external_modules():
            for name, obj in list(vars(mod).items()):
                rebind(mod, name, obj)
        for cid, entry in list(registry.items()):
            fn = entry[0]
            if id(fn) in wrappers:
                self._restore.append((registry, cid, entry))
                registry[cid] = (wrappers[id(fn)],) + tuple(entry[1:])
        return targets

    def uninstall(self):
        for owner, name, obj in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = obj
            else:
                setattr(owner, name, obj)
        self._restore = []

    # -- results -------------------------------------------------------------

    def root_seconds(self, phase):
        return sum(s[END] - s[START] for s in self.spans
                   if s[PARENT] is None and s[PHASE] == phase)

    def summary(self, phase):
        """Per-layer self time and calls for the root spans of one phase."""
        return {layer: {"self_s": self.self_s.get((phase, layer), 0.0),
                        "calls": self.calls.get((phase, layer), 0)}
                for layer in LAYERS + (ROOT_LAYER, TRACER_LAYER)}

    def counters(self):
        n = self.corr_calls
        return {
            "melems": self.fft_elems / 1e6,
            "correlations": n,
            "kernel_repeat_share": self.kernel_repeats / n if n else 0.0,
            "result_repeat_share": self.result_repeats / n if n else 0.0,
        }

    def span_table(self):
        """Every span as [name, layer, parent index or -1, start, end]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [[s[NAME], s[LAYER], index[id(s[PARENT])] if s[PARENT] is not None else -1,
                 s[START], s[END]] for s in self.spans]


def span_cost_s(n=20000):
    """Seconds that recording one span adds to a call: n calls of a wrapped
    no-op inside a root span, minus n bare calls, over n.  Measured on a
    fresh tracer so the traced round's records stay untouched."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap(noop, "calibration", "grid")
    clock = time.perf_counter
    with tracer.root("calibration", "calibration"):
        t0 = clock()
        for _ in range(n):
            wrapped()
        t1 = clock()
    t2 = clock()
    for _ in range(n):
        noop()
    t3 = clock()
    return max(0.0, ((t1 - t0) - (t3 - t2)) / n)
