"""In-process tracing of the pcqed layers, installed from outside the program.

The seven modules of pcqed are the layers. `Tracer.install` wraps every
public function of each module and rebinds the wrapper in every module
namespace that holds the original, because callers reach the functions in
three ways: `cli` binds names at import (`from .bands import compute_bands`),
`bands.solve_h1_modes` calls `compute_bands` through its own module global,
and `fitting` calls `tcspc.expected_curve` through the module attribute.

Each call records a span (name, parent span, start, end) kept in memory; a
few calls also feed counters (k-points, modes returned, LM iterations, bytes
written). `Tracer.aggregate` turns the spans into call counts and self times
per function and per layer, and `layer_metrics` derives the per-layer metrics
from the merged aggregates of one workload run.
This module does not import pcqed or numpy until `install` runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

LAYERS = ("geometry", "bands", "cavity", "tcspc", "fitting", "io", "cli")

# Eigensolver entry points counted as "bands.eigensolves" wherever the bands
# module can reach them: names bound in its namespace and numpy.linalg.
EIGEN_NAMES = ("eig", "eigh", "eigvals", "eigvalsh")
HISTOGRAM_FITS = ("fitting.fit_monoexponential", "fitting.fit_biexponential")
FITS = HISTOGRAM_FITS + ("fitting.fit_spectral_model",)
# Per-function metrics: self time, call count, and plain counters by name.
SELF_TIMED = (
    "bands.compute_bands", "bands.solve_h1_modes",
    "io.write_profile_json", "io.read_histogram_csv", "io.write_histogram_csv",
    *FITS, "tcspc.sample_histogram",
    "cavity.lifetime_ratio_multimode", "geometry.effective_index",
    "cli.cmd_bands", "cli.cmd_modes", "cli.cmd_fit", "cli.cmd_reproduce_paper", "cli.load_config",
)
CALL_COUNTED = (
    "bands.compute_bands", "fitting.select_model", "tcspc.expected_curve",
    "cavity.lifetime_ratio_multimode", "geometry.effective_index",
)
COUNTERS = (
    "bands.compute_bands.nested_calls", "bands.solve_h1_modes.modes_returned",
    "bands.eigensolves", "io.write_profile_json.bytes", "io.bytes_written",
    "fitting.lm_iterations", "fitting.nonconverged", "fitting.degenerate_flags",
    "trace.hook_errors",
)
# A call nested directly in a span of its own layer opens a span only if its
# own time is needed; otherwise (tcspc.exp_gauss_component under
# expected_curve, io.write_json under the io writers) it is only counted, as
# its time belongs to the caller's self time anyway and a span per call would
# multiply the tracing overhead.
TIMED = {*SELF_TIMED, "fitting.select_model", "tcspc.expected_curve"}


class Tracer:
    """Spans and counters of one process; install once, before the run."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.stack = []  # indices of the open spans
        self.counters = defaultdict(int)
        self.calls = defaultdict(int)
        self.volume_calls = defaultdict(int)  # mode_volume calls per profile
        self.maxima = {}  # plane-wave basis sizes
        self._hooks = {
            "bands.compute_bands": self._on_compute_bands,
            "bands.solve_h1_modes": self._on_solve_h1_modes,
            "bands.mode_volume": self._on_mode_volume,
            "tcspc.expected_curve": self._on_expected_curve,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import pcqed

        modules = {layer: importlib.import_module(f"pcqed.{layer}") for layer in LAYERS}
        namespaces = [pcqed, *modules.values()]
        for layer, module in modules.items():
            for attr, fn in vars(module).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                hook = self._hooks.get(name)
                if hook is None and name in FITS:
                    hook = self._on_fit
                if hook is None and layer == "io" and attr.startswith("write_"):
                    hook = self._on_io_write
                _rebind(namespaces, fn, self._wrap(name, fn, hook))
        self._count_eigensolves(modules["bands"])

    def _wrap(self, name, fn, hook):
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter
        signature = inspect.signature(fn) if hook else None
        own_layer = name.split(".", 1)[0] + "."
        always_span = name in TIMED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if not always_span and stack and spans[stack[-1]][0].startswith(own_layer):
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[3] = clock()
                stack.pop()
                if hook is not None:
                    try:
                        hook(lambda: signature.bind(*args, **kwargs).arguments,
                             result, error, span)
                    except Exception:  # a counter must never change the traced run
                        self.counters["trace.hook_errors"] += 1

        return traced

    def _count_eigensolves(self, bands_module) -> None:
        import numpy.linalg

        counters = self.counters

        def counting(fn):
            @functools.wraps(fn)
            def wrapper(a, *args, **kwargs):
                shape = getattr(a, "shape", ())
                counters["bands.eigensolves"] += shape[0] if len(shape) == 3 else 1
                return fn(a, *args, **kwargs)

            return wrapper

        for owner in (bands_module, numpy.linalg):
            for attr in EIGEN_NAMES:
                fn = getattr(owner, attr, None)
                if callable(fn):
                    setattr(owner, attr, counting(fn))

    # -- hooks --------------------------------------------------------------

    def _parent_name(self, span) -> str | None:
        return self.spans[span[1]][0] if span[1] >= 0 else None

    # Hooks get `bind`, which returns the call's arguments by parameter name;
    # binding is left to the hooks that need it, as it costs more than a span.

    def _on_compute_bands(self, bind, result, error, span):
        args = bind()
        if args.get("basis") is not None:
            self.maxima["bands.basis_size.bulk"] = len(args["basis"])
        if result is not None:
            self.counters["bands.kpoints"] += len(result.frequencies)
        if self._parent_name(span) == "bands.solve_h1_modes":
            self.counters["bands.compute_bands.nested_calls"] += 1

    def _on_solve_h1_modes(self, bind, result, error, span):
        args = bind()
        if args.get("basis") is not None:
            self.maxima["bands.basis_size.supercell"] = len(args["basis"])
        if result is not None:
            self.counters["bands.solve_h1_modes.modes_returned"] += len(result)

    def _on_mode_volume(self, bind, result, error, span):
        profile = _first(bind())
        self.volume_calls[(id(profile), profile.frequency)] += 1

    def _on_expected_curve(self, bind, result, error, span):
        if any(self.spans[i][0] in HISTOGRAM_FITS for i in self.stack):
            self.counters["fitting.curve_evals"] += 1

    def _on_fit(self, bind, result, error, span):
        if result is None:
            result = getattr(error, "result", None)
        if result is None:
            return
        self.counters["fitting.lm_iterations"] += result.iterations
        if span[0] in HISTOGRAM_FITS:
            self.counters["fitting.histogram_lm_iterations"] += result.iterations
        self.counters["fitting.nonconverged"] += not result.converged
        self.counters["fitting.degenerate_flags"] += any(
            w.startswith("unidentifiable") for w in result.warnings
        )

    def _on_io_write(self, bind, result, error, span):
        if (self._parent_name(span) or "").startswith("io.write_"):
            return  # counted by the outer writer, e.g. write_gap_json -> write_json
        path = os.fspath(_first(bind()))
        written = os.path.getsize(path)
        sidecar = path + ".meta.json"
        if span[0] in ("io.write_histogram_csv", "io.write_scan_csv") and os.path.exists(sidecar):
            written += os.path.getsize(sidecar)
        self.counters["io.bytes_written"] += written
        self.counters[f"{span[0]}.bytes"] += written

    # -- results ------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-function calls and self times plus counters, JSON-ready.

        Self time is taken at layer boundaries: a span's duration minus the
        spans of other layers that it reaches through calls in its own layer.
        A same-layer call (a bulk compute_bands under solve_h1_modes) stays
        inside its caller's self time as well as its own, so per-function
        times of one layer may overlap; the layer totals count each interval
        once.
        """
        spans = self.spans
        layer = [name.split(".", 1)[0] for name, *_ in spans]
        other = [0.0] * len(spans)  # time in other layers below each span
        for i, (name, parent, start, end) in enumerate(spans):
            if parent < 0 or layer[parent] == layer[i]:
                continue
            up = parent
            while up >= 0 and layer[up] == layer[parent]:
                other[up] += end - start
                up = spans[up][1]
        functions = {name: {"calls": count, "self_s": 0.0} for name, count in self.calls.items()}
        layers = defaultdict(float)
        for i, (name, parent, start, end) in enumerate(spans):
            own = end - start - other[i]
            functions[name]["self_s"] += own
            if parent < 0 or layer[parent] != layer[i]:
                layers[layer[i]] += own
        maxima = dict(self.maxima)
        maxima["bands.mode_volume.calls_per_mode"] = max(self.volume_calls.values(), default=0)
        return {"functions": functions, "layers": dict(layers), "counters": dict(self.counters),
                "maxima": maxima, "spans": len(spans)}


def _first(args):
    return next(iter(args.values()))


def _rebind(namespaces, original, wrapper) -> None:
    for namespace in namespaces:
        for attr, value in vars(namespace).items():
            if value is original:
                setattr(namespace, attr, wrapper)


def merge(aggregates) -> dict:
    """Sum the aggregates of the processes of one workload iteration."""
    functions = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    layers = defaultdict(float)
    counters = defaultdict(int)
    maxima = defaultdict(int)
    for agg in aggregates:
        for name, entry in agg["functions"].items():
            for key, value in entry.items():
                functions[name][key] += value
        for name, value in agg["layers"].items():
            layers[name] += value
        for name, value in agg["counters"].items():
            counters[name] += value
        for name, value in agg["maxima"].items():
            maxima[name] = max(maxima[name], value)
    return {"functions": dict(functions), "layers": dict(layers), "counters": dict(counters),
            "maxima": dict(maxima), "spans": sum(agg["spans"] for agg in aggregates)}


def layer_metrics(agg: dict) -> dict:
    """Per-layer metric values (name -> number) from one merged aggregate."""
    fn, counters = agg["functions"], agg["counters"]

    def self_s(name):
        return fn.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return fn.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"layer.{layer}.self_s": agg["layers"].get(layer, 0.0) for layer in LAYERS}
    m.update({f"{name}.self_s": self_s(name) for name in SELF_TIMED})
    m.update({f"{name}.calls": calls(name) for name in CALL_COUNTED})
    m.update({name: counters.get(name, 0) for name in COUNTERS})
    m.update({name: agg["maxima"].get(name, 0) for name in (
        "bands.basis_size.bulk", "bands.basis_size.supercell", "bands.mode_volume.calls_per_mode")})
    m["bands.compute_bands.ms_per_kpoint"] = 1e3 * ratio(
        self_s("bands.compute_bands"), counters.get("bands.kpoints", 0))
    m["fitting.curve_evals_per_iteration"] = ratio(
        counters.get("fitting.curve_evals", 0), counters.get("fitting.histogram_lm_iterations", 0))
    m["tcspc.expected_curve.us_per_call"] = 1e6 * ratio(
        self_s("tcspc.expected_curve"), calls("tcspc.expected_curve"))
    m["trace.spans"] = agg["spans"]
    return m
