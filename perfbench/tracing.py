"""Spans around the public entry point of each engine layer.

The benchmark wraps those entry points from its own files for the
traced run; the program's source carries no tracing.  A span records
its name, start, end, parent span and op id, plus the counts its layer
exposes at that boundary.  Spans stay in memory and are written out
when the run ends.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Summed over every span of an op, self
times equal the op's traced time, so per-layer self times plus a
residual (the untraced work: driver, wire, result conversion) add up
to op wall time.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

_CURRENT: "contextvars.ContextVar[Span | None]" = contextvars.ContextVar(
    "perfbench_span", default=None)
_OP: "contextvars.ContextVar[object]" = contextvars.ContextVar(
    "perfbench_op", default=None)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: "int | None" = None
    op: object = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "info": self.info}


def self_times(spans: "list[Span]") -> "dict[int, float]":
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span)."""
    children: "dict[int, list[Span]]" = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.sid, ()),
                            key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.sid] = span.duration - covered
    return result


class ContextThreadPool(ThreadPoolExecutor):
    """A thread pool that runs each task in a copy of the submitter's
    context, so spans started in a worker thread keep their parent and
    op id."""

    def submit(self, fn, /, *args, **kwargs):
        context = contextvars.copy_context()
        return super().submit(context.run, fn, *args, **kwargs)


def set_op(op_id) -> contextvars.Token:
    """Tag every span started in this context with ``op_id``."""
    return _OP.set(op_id)


def reset_op(token: contextvars.Token) -> None:
    _OP.reset(token)


class Tracer:
    """Installs span wrappers on entry points and collects the spans."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: "list[tuple[object, str, object]]" = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> "tuple[Span, contextvars.Token]":
        parent = _CURRENT.get()
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent=None if parent is None else parent.sid,
                    op=_OP.get())
        return span, _CURRENT.set(span)

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        with self._lock:
            self.spans.append(span)

    def wrap(self, owner, attr: str, name: str,
             before=None, after=None, nested: bool = True) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``before(args, kwargs)`` runs first and its value is handed to
        ``after(span, args, kwargs, result, state)``, which stores
        counts in ``span.info``.  With ``nested=False`` a call made
        while a span of the same name is open records no span of its
        own (recursive entry points such as ``Planner.plan``).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        def skip() -> bool:
            current = _CURRENT.get()
            return not nested and current is not None and \
                current.name == name

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if skip():
                    return await original(*args, **kwargs)
                state = before(args, kwargs) if before else None
                span, token = tracer._open(name)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer._close(span, token)
                if after:
                    after(span, args, kwargs, result, state)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if skip():
                    return original(*args, **kwargs)
                state = before(args, kwargs) if before else None
                span, token = tracer._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(span, token)
                if after:
                    after(span, args, kwargs, result, state)
                return result

        self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, value)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped entry point (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the recorded spans as one JSON document."""
        with open(path, "w") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)


# ---------------------------------------------------------------------------
# The engine's entry points
# ---------------------------------------------------------------------------


def _stage_before(args, kwargs):
    ctx, stage = args[0], args[1]
    for metrics in ctx.stages:
        if metrics.name == stage:
            return len(metrics.tasks), metrics.retries
    return 0, 0


def _stage_after(span, args, kwargs, result, state):
    ctx, stage, tasks = args[0], args[1], args[2]
    metrics = next(m for m in ctx.stages if m.name == stage)
    done, retries = state
    span.info.update(
        stage=stage,
        rows_in=sum(task.rows_in for task in tasks),
        rows_out=sum(len(part) for part in result),
        tasks=len(tasks),
        task_s=sum(t.duration_s for t in metrics.tasks[done:]),
        workers=getattr(ctx.backend, "num_workers", None) or 1,
        retries=metrics.retries - retries)


def _result_after(span, args, kwargs, result, state):
    ctx = result.context
    span.info.update(
        comparisons=ctx.dominance_comparisons,
        pipeline=ctx.pipeline, global_merge=ctx.global_merge,
        shm=ctx.shm_stats, cache_hit=result.cache_hit,
        rows=len(result.rows))


def _stats_before(args, kwargs):
    catalog, name = args[0], args[1]
    return catalog.stats.peek(name)


def _stats_after(span, args, kwargs, result, state):
    span.info["collected"] = result is not state


def _cache_before(args, kwargs):
    stats = args[0].stats
    return stats.exact_hits, stats.refilter_hits, stats.invalidations


def _lookup_after(span, args, kwargs, result, state):
    stats = args[0].stats
    span.info.update(hit=result is not None,
                     exact=stats.exact_hits > state[0],
                     refilter=stats.refilter_hits > state[1])


def _store_after(span, args, kwargs, result, state):
    span.info["stored"] = bool(result)


def _event_after(span, args, kwargs, result, state):
    span.info["invalidations"] = args[0].stats.invalidations - state[2]


def _admit_after(span, args, kwargs, result, state):
    span.info["waited_s"] = result


def install_engine(tracer: Tracer) -> None:
    """Wrap the entry point of every engine layer, including the
    serving layer's."""
    from repro.api import session as session_module
    from repro.api.session import SkylineSession
    from repro.engine.catalog import Catalog
    from repro.engine.cluster import ExecutionContext
    from repro.plan.planner import Planner
    from repro.serve.cache import SkylineResultCache
    from repro.serve.catalog import CatalogService
    from repro.serve.scheduler import AdmissionScheduler
    from repro.sql import parser

    # session.sql resolves parse_query in its own module namespace.
    tracer.wrap(session_module, "parse_query", "parse_query")
    tracer.wrap(parser, "parse_query", "parse_query")
    tracer.wrap(SkylineSession, "analyze", "SkylineSession.analyze")
    tracer.wrap(SkylineSession, "optimize", "SkylineSession.optimize")
    tracer.wrap(SkylineSession, "execute_prepared",
                "SkylineSession.execute_prepared", after=_result_after)
    tracer.wrap(Planner, "plan", "Planner.plan", nested=False)
    tracer.wrap(Catalog, "statistics", "Catalog.statistics",
                before=_stats_before, after=_stats_after)
    tracer.wrap(Catalog, "insert_into", "Catalog.insert_into")
    tracer.wrap(Catalog, "delete_from", "Catalog.delete_from")
    tracer.wrap(ExecutionContext, "run_stage", "ExecutionContext.run_stage",
                before=_stage_before, after=_stage_after)
    tracer.wrap(CatalogService, "execute", "CatalogService.execute",
                after=_result_after)
    tracer.wrap(SkylineResultCache, "lookup", "SkylineResultCache.lookup",
                before=_cache_before, after=_lookup_after)
    tracer.wrap(SkylineResultCache, "store", "SkylineResultCache.store",
                after=_store_after)
    tracer.wrap(SkylineResultCache, "on_catalog_event",
                "SkylineResultCache.on_catalog_event",
                before=_cache_before, after=_event_after)
    tracer.wrap(AdmissionScheduler, "admit", "AdmissionScheduler.admit",
                after=_admit_after)


# ---------------------------------------------------------------------------
# Per-layer attribution
# ---------------------------------------------------------------------------

#: Stage-name prefix -> layer, for ``ExecutionContext.run_stage`` spans.
STAGE_LAYERS = (
    ("ScanExec", "scan"),
    ("FilterExec", "filter_project"),
    ("ProjectExec", "filter_project"),
    ("SkylineLocal", "local_skyline"),
    ("Pipeline.", "pipeline"),
    ("SkylineGlobal", "global_merge"),
)

#: Span name -> layer, for every other span.
SPAN_LAYERS = {
    "parse_query": "sql.parse",
    "SkylineSession.analyze": "analyzer.analyze",
    "SkylineSession.optimize": "optimizer.optimize",
    "Planner.plan": "planner.plan",
    "Catalog.statistics": "stats.collect",
    "Catalog.insert_into": "catalog.dml",
    "Catalog.delete_from": "catalog.dml",
    "SkylineSession.execute_prepared": "session.materialize",
    "CatalogService.execute": "service.execute",
    "SkylineResultCache.lookup": "result_cache.lookup",
    "SkylineResultCache.store": "result_cache.store",
    "SkylineResultCache.on_catalog_event": "result_cache.event",
    "AdmissionScheduler.admit": "scheduler.wait",
}


def layer_of(span: Span) -> str:
    if span.name == "ExecutionContext.run_stage":
        stage = span.info.get("stage", "")
        for prefix, layer in STAGE_LAYERS:
            if stage.startswith(prefix):
                return layer
        return "other_stages"
    return SPAN_LAYERS.get(span.name, span.name)


def layer_self_times(spans: "list[Span]") -> "dict[str, float]":
    """Layer -> total self time (s) over ``spans``."""
    own = self_times(spans)
    totals: "dict[str, float]" = {}
    for span in spans:
        layer = layer_of(span)
        totals[layer] = totals.get(layer, 0.0) + own[span.sid]
    return totals
