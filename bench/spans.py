"""Spans around calls into su2quant's layers, recorded from outside the package.

``install`` wraps the public functions listed in ``LAYERS`` and replaces
each one wherever it is looked up: in every loaded ``su2quant`` module that
binds it (so ``from .sde import endpoint_ensemble_KC`` in ``cli`` is
covered) or, for methods, on the class.  Spans are kept in memory; the
per-layer metrics are reduced from them when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

# layer -> (module, qualified names); a call nested in a call of the same
# layer is counted in the outer span only
LAYERS = {
    "sde.ensemble": ("su2quant.sde", ("endpoint_ensemble_KC", "endpoint_ensemble_K")),
    "sde.pathwise": ("su2quant.sde", ("pathwise_identity_residual",)),
    "wigner.matrix": ("su2quant.wigner", ("wigner_matrix",)),
    "wigner.character": ("su2quant.sde", ("character_moment",)),
    "toeplitz.moment": ("su2quant.toeplitz", ("ToeplitzSampler.moment_tensors",)),
    "toeplitz.entry": ("su2quant.toeplitz", ("ToeplitzSampler.entry",)),
    "heat.recurrence": ("su2quant.heat", (
        "HeatKernelK.on_traces", "HeatKernelK.pair_on_traces", "convolve_on_traces")),
    "heat.calibrate": ("su2quant.heat", ("calibrate_nu",)),
    "hl2.inner": ("su2quant.hl2", ("hl2_inner", "hl2_inner_pointwise")),
    "algebra.quadrature": ("su2quant.algebra", ("haar_rule", "kc_quadrature")),
    "transform.adjoint_oracle": ("su2quant.transform", ("adjoint_inversion_oracle",)),
    "diffop.symbol_table": ("su2quant.diffop", ("radial_symbol_table",)),
    "euclid.check": ("su2quant.euclid", ("euclid_toeplitz_check",)),
}

# float64 array reads and writes per element per spin in the buffer-reusing
# recurrence of HeatKernelK.on_traces: tau*chi (3), -= chi_prev (3),
# chi*coeff (2), acc += (3)
RECURRENCE_BYTES_PER_ELEMENT_SPIN = 11 * 8


@dataclass
class Span:
    layer: str
    name: str
    parent: int  # index of the enclosing span, -1 at top level
    start: float = 0.0
    end: float = 0.0
    work: float = 0.0  # layer-specific unit count (paths x steps, elements, ...)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    calls: dict[str, int] = field(default_factory=dict)
    moment_builds: int = 0
    _local: threading.local = field(default_factory=threading.local)

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, layer: str, name: str, fn):
        tracer = self  # the wrapper's own arguments include the wrapped method's self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
            stack = tracer._stack()
            if any(tracer.spans[i].layer == layer for i in stack):
                return fn(*args, **kwargs)
            # a moment-tensor build is a call that adds an entry to the sampler's cache
            builds_before = len(args[0]._tensors) if layer == "toeplitz.moment" else 0
            span = Span(layer, name, stack[-1] if stack else -1)
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.work = _work(layer, name, args, result)
            if layer == "toeplitz.moment":
                tracer.moment_builds += len(args[0]._tensors) - builds_before
            return result

        return traced


def _work(layer: str, name: str, args, result) -> float:
    if layer == "sde.ensemble":
        return float(result.n_paths * result.n_steps)
    if layer == "sde.pathwise":
        return float(args[0].n_steps)
    if layer == "wigner.matrix":
        return float(result.size)
    if layer == "heat.recurrence":
        if name == "convolve_on_traces":
            traces, pairs = args[0], args[1]
            return float(traces.size * max(k.two_jmax for k, _ in pairs))
        # (self, traces) or (self, other, traces)
        return float(args[-1].size * max(k.two_jmax for k in args[:-1]))
    return 1.0


def install() -> Tracer:
    """Wrap every function in LAYERS; returns the tracer that records them."""
    tracer = Tracer()
    modules = [m for k, m in sys.modules.items() if k == "su2quant" or k.startswith("su2quant.")]
    for layer, (modname, names) in LAYERS.items():
        home = sys.modules[modname]
        for qual in names:
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, tracer.wrap(layer, qual, getattr(cls, meth)))
                continue
            original = getattr(home, qual)
            wrapped = tracer.wrap(layer, qual, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    return tracer


def wrapper_cost(n: int = 20000) -> float:
    """Seconds a traced call adds over a plain call, measured on a no-op.

    Times the wrapped calls of a round, this gives ``trace.wrapper_cost_est_s``,
    an estimate only: the tracing overhead itself is traced ``wall_s`` minus
    untraced ``wall_s``, which one run cannot measure (README.md).
    """
    noop = lambda: None  # noqa: E731
    traced = Tracer().wrap("calibration", "noop", noop)
    timings = []
    for fn in (traced, noop):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        timings.append((time.perf_counter() - t0) / n)
    return max(timings[0] - timings[1], 0.0)


def _busy(spans) -> float:
    return sum(s.end - s.start for s in spans)


def layer_metrics(tracer: Tracer, command_seconds: float,
                  walls: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per round as {name: (value, unit)}; 0 where a layer did not run.

    ``command_seconds`` is the summed time of the traced subcommands and
    ``walls`` the traced rounds' wall times.  Busy times, counts and bytes
    are per round; rates (``_ns_per_``, ``_us_per_``) are over all rounds.
    """
    by = {layer: [s for s in tracer.spans if s.layer == layer] for layer in LAYERS}
    rounds = len(walls)

    def busy(layer):
        return _busy(by[layer]) / rounds

    def count(n):
        return float(n) / rounds

    def rate(layer, scale):
        work = sum(s.work for s in by[layer])
        return _busy(by[layer]) * scale / work if work else 0.0

    entries = by["toeplitz.entry"]
    entry_ids = {id(s) for s in entries}
    nested_moment = sum(
        s.end - s.start for s in by["toeplitz.moment"]
        if s.parent >= 0 and id(tracer.spans[s.parent]) in entry_ids
    )
    contraction = _busy(entries) - nested_moment
    top_level = _busy(s for s in tracer.spans if s.parent == -1)
    element_spins = sum(s.work for s in by["heat.recurrence"])
    calls = sum(tracer.calls.values())
    return {
        "sde.ensemble_s": (busy("sde.ensemble"), "s"),
        "sde.ensemble_ns_per_path_step": (rate("sde.ensemble", 1e9), "ns"),
        "sde.pathwise_s": (busy("sde.pathwise"), "s"),
        "sde.pathwise_us_per_step": (rate("sde.pathwise", 1e6), "us"),
        "wigner.matrix_s": (busy("wigner.matrix"), "s"),
        "wigner.matrix_ns_per_element": (rate("wigner.matrix", 1e9), "ns"),
        "wigner.character_s": (busy("wigner.character"), "s"),
        "toeplitz.moment_build_s": (busy("toeplitz.moment"), "s"),
        "toeplitz.moment_requests": (count(tracer.calls.get("toeplitz.moment", 0)), "count"),
        "toeplitz.moment_builds": (count(tracer.moment_builds), "count"),
        "toeplitz.contraction_us_per_entry": (
            contraction * 1e6 / len(entries) if entries else 0.0, "us"),
        "heat.recurrence_s": (busy("heat.recurrence"), "s"),
        "heat.recurrence_ns_per_element_spin": (rate("heat.recurrence", 1e9), "ns"),
        "heat.recurrence_bytes_computed": (
            count(element_spins * RECURRENCE_BYTES_PER_ELEMENT_SPIN), "bytes"),
        "heat.calibrate_s": (busy("heat.calibrate"), "s"),
        "hl2.inner_s": (busy("hl2.inner"), "s"),
        "hl2.inner_calls": (count(tracer.calls.get("hl2.inner", 0)), "count"),
        "algebra.quadrature_s": (busy("algebra.quadrature"), "s"),
        "algebra.kc_quadrature_calls": (count(sum(
            1 for s in by["algebra.quadrature"] if s.name == "kc_quadrature")), "count"),
        "transform.adjoint_oracle_s": (busy("transform.adjoint_oracle"), "s"),
        "diffop.symbol_table_s": (busy("diffop.symbol_table"), "s"),
        "euclid.check_s": (busy("euclid.check"), "s"),
        "cli.self_s": ((command_seconds - top_level) / rounds, "s"),
        "trace.wall_s": (statistics.median(walls), "s"),
        "trace.wrapped_calls": (count(calls), "count"),
        "trace.wrapper_cost_est_s": (count(calls) * wrapper_cost(), "s"),
    }
