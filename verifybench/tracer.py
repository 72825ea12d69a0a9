"""Per-layer tracing from outside the library.

``instrument`` wraps the public functions of each gwlab module in spans.
Modules that import a builder by name (``checks`` and ``localisation``
take ``s_apply`` and ``cone_point`` from ``cone``) hold their own
binding, so every binding of a wrapped function is replaced, and methods
are wrapped on their class.  A span's self time is its duration minus
the part its child spans cover.  Spans are aggregated per layer as they
close rather than kept one by one: an op opens tens of thousands.

Spans and counts are recorded only while ``Tracer.enabled`` is set,
which the harness does around each op's timed section, so untimed
correctness checks do not show up in the layers.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

from workloads import span_counts

# layer -> (module, attribute path) of every function it wraps
SPAN_LAYERS = {
    "correlators.correlator": [("correlators", "CorrelatorEngine.correlator")],
    "correlators.kernel": [("correlators", "CorrelatorEngine.correlator_with_kernel")],
    "correlators.block": [
        ("correlators", "CorrelatorEngine.fibre_block"),
        ("correlators", "CorrelatorEngine.flow_block"),
    ],
    "cone.s_apply": [("cone", "s_apply")],
    "cone.cone_point": [("cone", "cone_point")],
    "cone.adjoint_apply": [("cone", "s_adjoint_corr_apply")],
    "cone.double_bracket": [("cone", "double_bracket")],
    "localisation.contribution": [("localisation", "contribution")],
    "checks.membership": [("checks", "_solve_membership")],
    "matrices.build": [("matrices", "s_matrix"), ("matrices", "s_adjoint_matrix")],
    "matrices.compose": [("matrices", "compose")],
    "matrices.apply_linear": [("matrices", "EndoSeries.apply_linear")],
    "series.omega": [("series", "LoopSeries.omega")],
    "series.scalar": [
        ("series", "ScalarSeries.add"),
        ("series", "ScalarSeries.scale"),
        ("series", "ScalarSeries.mul"),
    ],
}

# per-layer metric -> (unit, better)
PER_LAYER = {
    **{f"{layer}_s": ("s", "lower") for layer in SPAN_LAYERS},
    "correlators.correlator_calls": ("count", "lower"),
    "correlators.block_calls": ("count", "lower"),
    "correlators.block_hit_ratio": ("ratio", "higher"),
    "localisation.records": ("count", "lower"),
    "series.acc_adds": ("count", "lower"),
    "series.acc_kept_ratio": ("ratio", "higher"),
    "checks.span_columns": ("count", "lower"),
    "checks.span_rank": ("count", "lower"),
    "trace.named_share": ("ratio", "higher"),
    "trace.op_p50_s": ("s", "lower"),
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self._open: list[float] = []  # per open span, the time its children took
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def span(self, layer: str, fn):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._open.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.self_s[layer] += duration - self._open.pop()
                self.calls[layer] += 1
                if self._open:
                    self._open[-1] += duration

        return traced

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def _rebind(modules, owner: str, path: str, wrap) -> None:
    """Replace ``owner.path`` and every other module binding of the same object."""
    head, _, attr = path.rpartition(".")
    holder = getattr(modules[owner], head) if head else modules[owner]
    original = getattr(holder, attr)
    wrapped = wrap(original)
    if head:
        setattr(holder, attr, wrapped)
        return
    for module in modules.values():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapped)


def instrument(modules: dict) -> Tracer:
    """Wrap the layers of freshly imported gwlab modules.

    ``modules`` maps short names (``cone``, ``checks``, ...) to modules and
    includes the ``gwlab`` package itself, whose namespace re-exports the
    builders.
    """
    tracer = Tracer()
    for layer, functions in SPAN_LAYERS.items():
        for owner, path in functions:
            if layer == "correlators.block":
                _rebind(modules, owner, path, lambda fn: _block_hits(tracer, tracer.span(layer, fn)))
            else:
                _rebind(modules, owner, path, lambda fn: tracer.span(layer, fn))
    _rebind(modules, "series", "SeriesAccumulator.add", lambda fn: _count_adds(tracer, fn))
    _rebind(modules, "checks", "check_cone_in_tangent", lambda fn: _count_span(tracer, fn))
    return tracer


def _block_hits(tracer: Tracer, span):
    """A block built on a miss asks for one kernel correlator per basis
    class; a block served from the cache asks for none."""

    def block(*args, **kwargs):
        before = tracer.calls["correlators.kernel"]
        out = span(*args, **kwargs)
        if tracer.enabled and tracer.calls["correlators.kernel"] == before:
            tracer.counts["block_hits"] += 1
        return out

    return block


def _count_adds(tracer: Tracer, add):
    def counted(acc, z_exp, alpha, beta, eps, value):
        if tracer.enabled:
            tracer.counts["acc_adds"] += 1
            if value and acc.trunc.admits_grade(beta, eps):
                tracer.counts["acc_kept"] += 1
        return add(acc, z_exp, alpha, beta, eps, value)

    return counted


def _count_span(tracer: Tracer, check):
    def counted(*args, **kwargs):
        report = check(*args, **kwargs)
        if tracer.enabled:
            rank, columns = span_counts(report.notes)
            tracer.counts["span_rank"] += rank
            tracer.counts["span_columns"] += columns
        return report

    return counted


def layer_metrics(tracer: Tracer, op_wall: list[float], op_scaled: list[float], scale: float) -> dict:
    """Per-layer metrics, each a total over the run divided by the ops
    completed, plus the share of traced op time the named layers cover.
    Self times are scaled to the reference speed by ``scale``."""
    per_op = 1.0 / len(op_wall)
    out = {f"{layer}_s": tracer.self_s.get(layer, 0.0) * per_op * scale for layer in SPAN_LAYERS}
    calls, counts = tracer.calls, tracer.counts
    block_calls = calls.get("correlators.block", 0)
    out.update({
        "correlators.correlator_calls": calls.get("correlators.correlator", 0) * per_op,
        "correlators.block_calls": block_calls * per_op,
        "correlators.block_hit_ratio": counts.get("block_hits", 0) / block_calls if block_calls else 0.0,
        "localisation.records": calls.get("localisation.contribution", 0) * per_op,
        "series.acc_adds": counts.get("acc_adds", 0) * per_op,
        "series.acc_kept_ratio": (
            counts.get("acc_kept", 0) / counts["acc_adds"] if counts.get("acc_adds") else 0.0
        ),
        "checks.span_columns": counts.get("span_columns", 0) * per_op,
        "checks.span_rank": counts.get("span_rank", 0) * per_op,
        "trace.named_share": sum(tracer.self_s.values()) / sum(op_wall),
        "trace.op_p50_s": statistics.median(op_scaled),
    })
    return out
