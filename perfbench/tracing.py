"""Spans around calls into the public functions of each grippertool module.

The tracer rebinds each target function in every grippertool module
namespace that holds it (cli.max_payload, sizing.required_grip_force,
payload.max_payload, ...), so calls made inside the library are seen as
well as calls from the CLI. A span is (function, start_ns, end_ns,
parent span, request); spans of one request share the request index.
Spans stay in memory and are written out when the run ends. A target a
later version of the library no longer has is skipped and reports zero
calls.
"""

import functools
import importlib
import statistics
import sys
import time

# (module, function) pairs wrapped in the traced run, in report order.
TARGETS = (
    ("cli", "run"),
    ("designfile", "parse_design"),
    ("sizing", "maximize_stroke"),
    ("sizing", "grip_demand"),
    ("sizing", "build_dimensions"),
    ("sizing", "check_feasible"),
    ("contact", "required_grip_force"),
    ("contact", "holding_max_offset"),
    ("mechanism", "stroke"),
    ("payload", "max_payload"),
    ("payload", "payload_sweep"),
    ("pose", "gamma_sweep"),
    ("pose", "torque_margin"),
)
NAMES = tuple(f"{module}.{function}" for module, function in TARGETS)
# Functions whose median call duration is reported as <name>.p50_us.
P50 = ("designfile.parse_design", "payload.max_payload")


class Tracer:
    """Span recorder; install() before a traced request, uninstall() after."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = [-1]
        self._bindings = None
        self.reset()
        # results that feed counters, by function
        observers = {"sizing.build_dimensions": self._built,
                     "payload.max_payload": self._payload,
                     "payload.payload_sweep": self._payload_rows,
                     "pose.gamma_sweep": self._pose_curve}
        self._wrappers = []
        for index, (module, function) in enumerate(TARGETS):
            original = getattr(importlib.import_module(f"grippertool.{module}"),
                               function, None)
            if original is not None:
                wrapper = self._wrap(index, original, observers.get(NAMES[index]))
                self._wrappers.append((original, wrapper))

    def reset(self):
        self.spans.clear()
        self.built_feasible = 0
        self.zero_clamped = 0
        self.max_residual = 0.0
        self.cells = 0
        self.cells_feasible = 0
        self.pose_samples = 0

    def _built(self, dims):
        self.built_feasible += dims is not None

    def _payload(self, result):
        self.zero_clamped += bool(result.zero_clamped)
        self.max_residual = max(self.max_residual, result.residual)

    def _payload_rows(self, rows):
        self.cells += len(rows)
        self.cells_feasible += sum(row[-1] is not None for row in rows)

    def _pose_curve(self, curve):
        self.pose_samples += len(curve.samples)

    def _wrap(self, index, function, observer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(function)
        def traced(*args, **kwargs):
            position = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(position)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[position] = (index, start, end, parent, self.request)
            if observer is not None:
                observer(result)
            return result

        return traced

    def _find_bindings(self):
        """Every (module, attribute) that holds a target, with its wrapper."""
        bindings = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "grippertool" or name.startswith("grippertool.")]
        for module in modules:
            for attr, value in vars(module).items():
                for original, wrapper in self._wrappers:
                    if value is original:
                        bindings.append((module, attr, original, wrapper))
        return bindings

    def install(self):
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = [0] * len(NAMES)
        self_ns = [0] * len(NAMES)
        durations = {name: [] for name in P50}
        for position, (index, start, end, _, _) in enumerate(self.spans):
            calls[index] += 1
            self_ns[index] += end - start - child_ns[position]
            if NAMES[index] in durations:
                durations[NAMES[index]].append(end - start)
        metrics = {}
        for index, name in enumerate(NAMES):
            metrics[f"{name}.calls"] = calls[index]
            metrics[f"{name}.self_ms"] = self_ns[index] / 1e6
        for name, values in durations.items():
            metrics[f"{name}.p50_us"] = statistics.median(values) / 1e3 if values else 0.0
        build_calls = calls[NAMES.index("sizing.build_dimensions")]
        metrics["sizing.build_dimensions.feasible_ratio"] = (
            self.built_feasible / build_calls if build_calls else 0.0)
        metrics["payload.max_payload.zero_clamped"] = self.zero_clamped
        metrics["payload.max_payload.max_residual"] = self.max_residual
        metrics["payload.cells"] = self.cells
        metrics["payload.feasible_ratio"] = (
            self.cells_feasible / self.cells if self.cells else 0.0)
        metrics["pose.samples"] = self.pose_samples
        return metrics


def write_spans(path, spans):
    """Write spans as CSV, one row per span, in the order they started."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("request,span,parent,name,start_ns,end_ns\n")
        for position, (index, start, end, parent, request) in enumerate(spans):
            fh.write(f"{request},{position},{parent},{NAMES[index]},{start},{end}\n")
