"""Turning a run's samples and spans into named metrics, and printing
them."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .measure import Tally, percentile, tail_percentile
from .tracing import Span, layer_of, layer_self_times

#: End-to-end metrics every workload reports in its result line, with
#: units.  ``error_rate`` and the write latencies are printed in the
#: table instead: the first is 0 on a healthy run (the result line
#: carries it as ``failed``/``attempted``) and the others exist only
#: where a workload writes.
RESULT_METRICS = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("throughput_ops", "ops/s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of the traced run, with units.  ``*/op`` values are
#: means per query op (per write op for the write path); plain counts
#: are totals over the traced phase.
LAYER_METRICS = (
    ("sql.parse_s", "s"),
    ("analyzer.analyze_s", "s"),
    ("optimizer.optimize_s", "s"),
    ("planner.plan_s", "s"),
    ("stats.collect_s", "s"),
    ("stats.collections", "count"),
    ("scan.s", "s"),
    ("scan.rows_out", "rows/op"),
    ("filter_project.s", "s"),
    ("filter.selectivity", "ratio"),
    ("local_skyline.s", "s"),
    ("local_skyline.rows_in", "rows/op"),
    ("local_skyline.survivor_ratio", "ratio"),
    ("pipeline.s", "s"),
    ("pipeline.waves", "count/op"),
    ("pipeline.stall_s", "s"),
    ("pipeline.spilled_bytes", "bytes/op"),
    ("global_merge.s", "s"),
    ("global_merge.rows_in", "rows/op"),
    ("global_merge.rounds", "count/op"),
    ("global_merge.shortcut_ratio", "ratio"),
    ("dominance.comparisons", "count/op"),
    ("dominance.comparisons_per_row", "ratio"),
    ("backends.tasks", "count/op"),
    ("backends.retries", "count"),
    ("backends.busy_ratio", "ratio"),
    ("shm.bytes_shared", "bytes/op"),
    ("shm.pickle_fallbacks", "count"),
    ("other_stages.s", "s"),
    ("session.materialize_s", "s"),
    ("service.execute_s", "s"),
    ("scheduler.wait_s", "s"),
    ("plan_cache.hit_ratio", "ratio"),
    ("result_cache.cacheable_share", "ratio"),
    ("result_cache.hit_ratio", "ratio"),
    ("result_cache.exact_hit_share", "ratio"),
    ("result_cache.refilter_hit_share", "ratio"),
    ("result_cache.lookup_s", "s"),
    ("result_cache.store_s", "s"),
    ("result_cache.invalidations", "count"),
    ("result_cache.event_s", "s"),
    ("catalog.dml_s", "s"),
    ("wire.overhead_s", "s"),
    ("trace.op_wall_s", "s"),
    ("trace.residual_s", "s"),
    ("tracing.overhead_s", "s"),
)

#: Layers whose self time is reported per write op; every other layer
#: is reported per query op.
WRITE_LAYERS = ("catalog.dml", "result_cache.event")

#: Layer -> per-layer metric carrying its self time.
_TIME_METRIC = {
    "sql.parse": "sql.parse_s",
    "analyzer.analyze": "analyzer.analyze_s",
    "optimizer.optimize": "optimizer.optimize_s",
    "planner.plan": "planner.plan_s",
    "stats.collect": "stats.collect_s",
    "scan": "scan.s",
    "filter_project": "filter_project.s",
    "local_skyline": "local_skyline.s",
    "pipeline": "pipeline.s",
    "global_merge": "global_merge.s",
    "other_stages": "other_stages.s",
    "session.materialize": "session.materialize_s",
    "service.execute": "service.execute_s",
    "scheduler.wait": "scheduler.wait_s",
    "result_cache.lookup": "result_cache.lookup_s",
    "result_cache.store": "result_cache.store_s",
    "result_cache.event": "result_cache.event_s",
    "catalog.dml": "catalog.dml_s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class TimingSummary:
    """Median and p90 of a latency sample, with its size."""

    samples: int
    p50: float
    p90: "float | None"
    tail_pct: "float | None"
    tail: "float | None"

    @classmethod
    def of(cls, values) -> "TimingSummary":
        values = list(values)
        n = len(values)
        if not n:
            return cls(0, float("nan"), None, None, None)
        tail_pct = tail_percentile(n)
        return cls(
            samples=n, p50=percentile(values, 50.0),
            p90=percentile(values, 90.0) if tail_pct and tail_pct >= 90
            else None,
            tail_pct=tail_pct,
            tail=percentile(values, tail_pct) if tail_pct else None)


@dataclass
class TracedPhase:
    """What the traced half of a ``--trace 1`` run observed."""

    spans: "list[Span]"
    reads: int
    writes: int
    op_walls: "list[float]"
    extra: dict = field(default_factory=dict)


def layer_metrics(phase: TracedPhase) -> "dict[str, float]":
    """Every :data:`LAYER_METRICS` value for one traced phase; layers
    the workload never reaches read 0."""
    spans = phase.spans
    reads = max(phase.reads, 1)
    writes = max(phase.writes, 1)
    totals = layer_self_times(spans)
    out = {name: 0.0 for name, _ in LAYER_METRICS}
    for layer, total in totals.items():
        metric = _TIME_METRIC.get(layer)
        if metric is not None:
            out[metric] = total / (writes if layer in WRITE_LAYERS
                                   else reads)

    def stage_spans(layer):
        return [s for s in spans if layer_of(s) == layer
                and s.name == "ExecutionContext.run_stage"]

    def info_sum(items, key):
        return sum(s.info.get(key) or 0 for s in items)

    out["stats.collections"] = sum(
        1 for s in spans if s.name == "Catalog.statistics"
        and s.info.get("collected"))
    scans = stage_spans("scan")
    out["scan.rows_out"] = info_sum(scans, "rows_out") / reads
    filters = [s for s in stage_spans("filter_project")
               if s.info["stage"].startswith("FilterExec")]
    out["filter.selectivity"] = _ratio(info_sum(filters, "rows_out"),
                                       info_sum(filters, "rows_in"))
    local = stage_spans("local_skyline")
    out["local_skyline.rows_in"] = info_sum(local, "rows_in") / reads
    out["local_skyline.survivor_ratio"] = _ratio(
        info_sum(local, "rows_out"), info_sum(local, "rows_in"))
    merged = stage_spans("global_merge")
    out["global_merge.rows_in"] = info_sum(merged, "rows_in") / reads

    results = [s for s in spans
               if s.name == "SkylineSession.execute_prepared"]
    pipelines = [s.info["pipeline"] for s in results
                 if s.info.get("pipeline")]
    out["pipeline.waves"] = sum(p["waves"] for p in pipelines) / reads
    out["pipeline.stall_s"] = sum(
        op["stall_s"] for p in pipelines
        for op in p["operators"].values()) / reads
    out["pipeline.spilled_bytes"] = sum(
        p["spilled_bytes"] for p in pipelines) / reads
    merges = [s.info["global_merge"] for s in results
              if s.info.get("global_merge")]
    out["global_merge.rounds"] = sum(
        m["rounds_completed"] for m in merges) / reads
    out["global_merge.shortcut_ratio"] = _ratio(
        sum(m["concat_merges"] + m["short_circuits"] for m in merges),
        sum(sum(m["round_tasks"]) for m in merges))

    stages = [s for s in spans if s.name == "ExecutionContext.run_stage"]
    out["backends.tasks"] = info_sum(stages, "tasks") / reads
    out["backends.retries"] = info_sum(stages, "retries")
    out["backends.busy_ratio"] = _ratio(
        info_sum(stages, "task_s"),
        sum(s.duration * s.info["workers"] for s in stages))

    wall = sum(phase.op_walls)
    ops = max(len(phase.op_walls), 1)
    out["trace.op_wall_s"] = wall / ops
    out["trace.residual_s"] = (wall - sum(totals.values())) / ops
    out.update(phase.extra)
    return out


def reconciliation(phase: TracedPhase) -> "list[tuple[str, float, float]]":
    """(layer, total self time s, share of op wall) rows plus the
    residual, which together sum to the traced ops' wall time."""
    wall = sum(phase.op_walls)
    totals = layer_self_times(phase.spans)
    rows = [(layer, total, _ratio(total, wall))
            for layer, total in sorted(totals.items(),
                                       key=lambda kv: -kv[1])]
    residual = wall - sum(totals.values())
    rows.append(("(residual: driver, wire, untraced code)", residual,
                 _ratio(residual, wall)))
    rows.append(("= op wall time", wall, 1.0 if wall else 0.0))
    return rows


@dataclass
class RunReport:
    """Everything one run prints."""

    workload: str
    trace: bool
    tally: Tally = field(default_factory=Tally)
    setup: "list[float]" = field(default_factory=list)
    reads: "TimingSummary | None" = None
    writes: "TimingSummary | None" = None
    throughput: float = 0.0
    peak_rss_mb: float = 0.0
    layers: "dict[str, float]" = field(default_factory=dict)
    reconcile: list = field(default_factory=list)
    notes: "list[str]" = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        """Median set-up time."""
        return sorted(self.setup)[len(self.setup) // 2]

    def result_metrics(self) -> "dict[str, dict]":
        if self.trace:
            return {name: {"value": self.layers[name], "unit": unit}
                    for name, unit in LAYER_METRICS}
        values = {
            "setup_s": self.setup_s,
            "latency_p50_s": self.reads.p50,
            "latency_p90_s": self.reads.p90,
            "throughput_ops": self.throughput,
            "peak_rss_mb": self.peak_rss_mb,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in RESULT_METRICS}

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.tally.wrong == 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.errors,
            "metrics": self.result_metrics(),
        })

    def table(self) -> "list[str]":
        lines = [f"== {self.workload} =="]
        lines.extend(f"  {note}" for note in self.notes)
        t = self.tally
        lines.append(f"  ops attempted {t.attempted}, failed {t.failed}, "
                     f"refused {t.refused}, wrong answers {t.wrong}")
        lines.append(f"  {'metric':<22} {'value':>14}  {'unit':<6} samples")
        rows = [("setup_s", self.setup_s, "s",
                 f"{len(self.setup)} set-ups (median)"),
                ("error_rate", t.error_rate, "ratio",
                 f"{t.attempted} ops")]
        for label, summary in (("latency", self.reads),
                               ("write_latency", self.writes)):
            if summary is None:
                rows.append((f"{label}_p50_s", None, "s",
                             "n/a: no such ops"))
                rows.append((f"{label}_p90_s", None, "s",
                             "n/a: no such ops"))
                continue
            rows.append((f"{label}_p50_s", summary.p50, "s",
                         f"{summary.samples} ops"))
            rows.append((f"{label}_p90_s", summary.p90, "s",
                         f"{summary.samples} ops" if summary.p90
                         is not None else
                         f"{summary.samples} ops: too few for p90"))
            if summary.tail_pct is not None and summary.tail_pct > 90:
                rows.append((f"{label}_p{summary.tail_pct:g}_s",
                             summary.tail, "s",
                             f"{summary.samples} ops"))
        rows.append(("throughput_ops", self.throughput, "ops/s",
                     f"{t.attempted} ops"))
        rows.append(("peak_rss_mb", self.peak_rss_mb, "MB",
                     "this process + workers"))
        for name, value, unit, samples in rows:
            shown = "n/a" if value is None else f"{value:.6g}"
            lines.append(f"  {name:<22} {shown:>14}  {unit:<6} {samples}")
        if self.trace:
            lines.append("  -- per-layer (traced half of the run) --")
            for name, unit in LAYER_METRICS:
                lines.append(f"  {name:<32} {self.layers[name]:>14.6g}  "
                             f"{unit}")
            lines.append("  -- reconciliation: self time per layer --")
            for layer, total, share in self.reconcile:
                lines.append(f"  {layer:<42} {total:>10.4f} s "
                             f"{share * 100:6.1f}%")
        return lines
