"""Spans around the public functions of each atomfringe module.

A traced run replaces every module binding of the functions in TRACED
with a wrapper that records one span per call: name, start, end, the
enclosing span and the operation id.  The modules import these
functions by name (``from .fringe import averaged_fringe``), so every
binding in every atomfringe module is replaced, not only the defining
one.  Spans stay in memory until the run ends.  A layer is the module
part of a span name; its self time is the span time minus the time its
child spans cover.  ``phase`` is closed-form and left unwrapped: its
microseconds count in the caller's self time.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import sys
import time

PACKAGE = "atomfringe"

TRACED = (
    ("beam", "velocity_pdf"),
    ("fringe", "averaged_fringe"),
    ("fitkit", "fit"),
    ("fitkit", "model_curve"),
    ("compensation", "tune_counterphase"),
    ("compensation", "residual_dispersion"),
    ("cli", "main"),
    ("cli", "generate_synthetic"),
    ("cli", "load_config"),
    ("cli", "load_design"),
    ("cli", "read_observations"),
    ("cli", "write_observations"),
)

IO_SPANS = ("cli.load_config", "cli.load_design", "cli.read_observations", "cli.write_observations")
CLI_COMMANDS = ("synth", "fit", "simulate", "residual")

# (name, unit) of every per-layer metric, each a total divided by the
# number of traced operations
LAYER_METRICS = (
    ("fringe.averaged_fringe.calls", "count"),
    ("fringe.averaged_fringe.unwrap_calls", "count"),
    ("fringe.averaged_fringe.self_s", "s"),
    ("fringe.averaged_fringe.errors", "count"),
    ("fringe.unwrap_share", "ratio"),
    ("beam.velocity_pdf.calls", "count"),
    ("beam.velocity_pdf.self_s", "s"),
    ("fitkit.fit.self_s", "s"),
    ("fitkit.fit.iterations", "count"),
    ("fitkit.model_curve.calls", "count"),
    ("fitkit.model_curve.self_s", "s"),
    ("compensation.tune_counterphase.self_s", "s"),
    ("compensation.tune_counterphase.fringe_calls", "count"),
    ("compensation.residual_dispersion.calls", "count"),
    ("compensation.residual_dispersion.self_s", "s"),
    *((f"cli.main.{cmd}.self_s", "s") for cmd in CLI_COMMANDS),
    ("cli.generate_synthetic.self_s", "s"),
    ("cli.io.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "error", "child_s", "call", "iterations")

    def __init__(self, span_id, name, parent, op):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.error = None
        self.child_s = 0.0
        self.call = None
        self.iterations = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Span-recording wrappers, switched on by ``install``; ``op`` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[Span] = []
        self._bindings = []  # (module, attribute, original, wrapper)
        defining = {mod: importlib.import_module(f"{PACKAGE}.{mod}") for mod, _ in TRACED}
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, fn_name in TRACED:
            original = getattr(defining[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._bindings.append((module, attr, original, wrapper))

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        is_main = name == "cli.main"
        keep_call = name == "fringe.averaged_fringe"
        is_fit = name == "fitkit.fit"

        def wrapper(*args, **kwargs):
            label = name
            if is_main:
                argv = args[0] if args else kwargs.get("argv")
                label = f"cli.main.{argv[0] if argv else ''}"
            span = Span(len(spans), label, stack[-1] if stack else None, self.op)
            if keep_call:
                span.call = (args, kwargs)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
            if is_fit:
                span.iterations = result.iterations
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def layers(self) -> set[str]:
        return {s.name.split(".", 1)[0] for s in self.spans}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": None if s.parent is None else s.parent.id,
                    "op": s.op,
                    "error": s.error,
                }) + "\n")


def _has_ancestor(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def unwrap_share(spans, averaged_fringe, max_calls: int = 200, repeats: int = 3) -> float:
    """Share of averaged_fringe time that the unwrap takes, from the public flag alone.

    Replays a fixed random sample of the recorded successful calls
    through the untraced function, each as recorded and with
    unwrap=False, keeping the fastest of ``repeats`` timings; the share
    is the extra time of the recorded flags over unwrap=False,
    relative to the time as recorded.
    """
    calls = [s.call for s in spans if s.name == "fringe.averaged_fringe" and s.error is None]
    if not calls:
        return 0.0
    sample = random.Random(0).sample(calls, min(max_calls, len(calls)))

    def fastest(args, kwargs) -> float:
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            averaged_fringe(*args, **kwargs)
            best = min(best, time.perf_counter() - t0)
        return best

    as_recorded = plain = 0.0
    for args, kwargs in sample:
        t = fastest(args, kwargs)
        as_recorded += t
        plain += fastest(args, {**kwargs, "unwrap": False}) if kwargs.get("unwrap", True) else t
    return (as_recorded - plain) / as_recorded


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-operation totals of every LAYER_METRICS entry except the replay and overhead ones."""
    count: dict[str, int] = {}
    self_s: dict[str, float] = {}
    out = {name: 0.0 for name, _ in LAYER_METRICS}
    for s in spans:
        count[s.name] = count.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        if s.name == "fringe.averaged_fringe":
            if s.call[1].get("unwrap", True):
                out["fringe.averaged_fringe.unwrap_calls"] += 1
            if s.error == "QuadratureConvergenceError":
                out["fringe.averaged_fringe.errors"] += 1
            if _has_ancestor(s, "compensation.tune_counterphase"):
                out["compensation.tune_counterphase.fringe_calls"] += 1
        elif s.name == "fitkit.fit":
            out["fitkit.fit.iterations"] += s.iterations
    for name, _ in LAYER_METRICS:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = count.get(span, 0)
        elif kind == "self_s":
            out[name] = sum(self_s.get(n, 0.0) for n in (IO_SPANS if span == "cli.io" else (span,)))
    per_op = {"fringe.unwrap_share", "trace.overhead_s", "trace.overhead_frac"}
    return {k: (v if k in per_op else v / n_ops) for k, v in out.items()}
