"""The two single-client engine workloads.

``adhoc_store_sales``
    One closed-loop client runs a seeded rotation of fresh ``SKYLINE
    OF`` queries (``repro.connect()`` defaults: local backend, staged,
    batch plane) over store_sales at 60k rows, complete and incomplete.
    Scan/columnize, filter/project, the local kernels and the
    incomplete null-bitmap path do the work; skylines stay small, so
    the global phase is nearly idle.
``anticorr_global``
    One closed-loop client re-runs prepared 5-dim skyline queries over
    eight anti-correlated tables on the process backend.  At 4096 rows
    ``auto`` picks the pipelined executor and the shared-memory
    transport, about 70% of the rows are in the skyline, and the global
    merge takes over half of each query.

Every answer is checked against :mod:`perfbench.oracle`, computed once
per distinct query before timing starts.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass

from . import tracing
from .measure import (MIN_OPS_FOR_P90, Tally, nproc, output_dir,
                      peak_rss_mb)
from .oracle import oriented_matrix, skyline_indices
from .report import (RunReport, TimingSummary, TracedPhase, layer_metrics,
                     reconciliation)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: A run keeps going past ``--seconds`` until it has timed
#: ``MIN_OPS_FOR_P90`` ops, but never past this many seconds.
MAX_RUN_S = 120.0


@dataclass(frozen=True)
class Table:
    name: str
    columns: list          # (name, dtype, nullable)
    rows: list


@dataclass(frozen=True)
class Query:
    """One distinct query and what the oracle needs to answer it."""

    qid: int
    sql: str
    table: str
    dims: tuple            # ((column index, "min" | "max"), ...)
    predicate: "tuple | None" = None   # (column index, "<=" | ">=", value)


def expected_answer(table: Table, query: Query) -> Counter:
    """The oracle's answer to ``query`` as a multiset of row tuples.
    A NULL never satisfies the WHERE predicate, as in SQL."""
    rows = table.rows
    if query.predicate is not None:
        index, op, value = query.predicate
        rows = [row for row in rows if row[index] is not None and
                (row[index] <= value if op == "<=" else row[index] >= value)]
    picked = skyline_indices(oriented_matrix(rows, query.dims))
    return Counter(rows[i] for i in picked.tolist())


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

STORE_SALES_ROWS = 60_000

#: (column, operator, low, high) templates of the WHERE predicates,
#: used in turn; the constant is drawn per query from a narrow range, so
#: every seed filters about half of the rows.  ss_item_sk is uniform in
#: 1..18000, ss_wholesale_cost in 1..100 and ss_quantity in 1..100.
_PREDICATES = (
    ("ss_item_sk", "<=", 8000, 10000),
    ("ss_wholesale_cost", "<=", 45.0, 55.0),
    ("ss_quantity", ">=", 45, 55),
)


def adhoc_inputs(seed: int) -> "tuple[list[Table], list[Query], str]":
    """Tables, the query rotation and the warm-up query of
    ``adhoc_store_sales``.

    The rotation holds 15 distinct queries in the same mix for every
    seed: for each dimension count k = 2..6, two queries on the
    complete table and one on the incomplete one; 7 of the 15 have a
    WHERE predicate.  A k-dim query takes the first k skyline
    dimensions in the paper's order (its Section 6.2).  The seed picks
    the data, the predicate constants and the order of the rotation.

    Runs repeat the rotation whole, so with 15 queries the median and
    the p90 fall in the middle of one query's samples (ranks 7.5 and
    13.5), not on the edge between two queries of different cost.
    """
    from repro.datasets import store_sales_workload

    rng = random.Random(seed)
    tables = []
    for incomplete in (False, True):
        w = store_sales_workload(STORE_SALES_ROWS, seed=seed,
                                 incomplete=incomplete)
        tables.append(Table(w.table_name, w.columns, w.rows))
    names = [c[0] for c in w.columns]
    dims = [(names.index(n), kind) for n, kind in w.skyline_dimensions]
    complete, incomplete_t = tables[0].name, tables[1].name

    plan = []
    for k in range(2, 7):
        plan += [(complete, k, False), (complete, k, True),
                 (incomplete_t, k, k % 2 == 1)]
    queries = []
    templates = itertools.cycle(_PREDICATES)
    for table, k, filtered in plan:
        predicate = where = ""
        if filtered:
            column, op, lo, hi = next(templates)
            value = rng.randint(lo, hi) if isinstance(lo, int) \
                else round(rng.uniform(lo, hi), 2)
            predicate = (names.index(column), op, value)
            where = f" WHERE {column} {op} {value}"
        items = ", ".join(f"{names[i]} {kind.upper()}" for i, kind in dims[:k])
        queries.append((table, tuple(dims[:k]), predicate or None,
                        f"SELECT * FROM {table}{where} SKYLINE OF {items}"))
    rng.shuffle(queries)
    queries = [Query(i, sql, table, qdims, predicate)
               for i, (table, qdims, predicate, sql) in enumerate(queries)]
    warmup = (f"SELECT * FROM {complete} "
              f"SKYLINE OF ss_quantity MAX, ss_wholesale_cost MIN")
    return tables, queries, warmup


ANTICORR_ROWS = 4096
ANTICORR_DIMS = 5

#: Anti-correlated tables per run, one prepared query each.  Query cost
#: varies with the drawn data; several tables average that out of the
#: percentiles.
ANTICORR_TABLES = 8


def anticorr_inputs(seed: int) -> "tuple[list[Table], list[Query], str]":
    from repro import DOUBLE, INTEGER
    from repro.datasets import anticorrelated_rows

    columns = [("id", INTEGER, False)] + [
        (f"d{j}", DOUBLE, False) for j in range(ANTICORR_DIMS)]
    items = ", ".join(f"d{j} MIN" for j in range(ANTICORR_DIMS))
    tables, queries = [], []
    for t in range(ANTICORR_TABLES):
        rows = anticorrelated_rows(ANTICORR_ROWS, ANTICORR_DIMS,
                                   seed=seed * ANTICORR_TABLES + t)
        name = f"anticorr{t}"
        tables.append(Table(name, columns,
                            [(i,) + row for i, row in enumerate(rows)]))
        queries.append(Query(
            t, f"SELECT * FROM {name} SKYLINE OF {items}", name,
            tuple((j + 1, "min") for j in range(ANTICORR_DIMS))))
    return tables, queries, queries[0].sql


@dataclass(frozen=True)
class EngineWorkload:
    name: str
    inputs: object          # seed -> (tables, queries, warm-up sql)
    options: object         # () -> repro.connect options
    prepared: bool          # prepare each distinct query once


WORKLOADS = {
    "adhoc_store_sales": EngineWorkload(
        "adhoc_store_sales", adhoc_inputs, dict, prepared=False),
    "anticorr_global": EngineWorkload(
        "anticorr_global", anticorr_inputs,
        lambda: {"backend": "process", "num_workers": nproc()},
        prepared=True),
}


# ---------------------------------------------------------------------------
# Running one
# ---------------------------------------------------------------------------


class _Client:
    """The closed-loop client: one op per call, answers checked."""

    def __init__(self, workload: EngineWorkload, session, queries,
                 expected) -> None:
        from repro.sql import parser
        self.parser = parser
        self.workload = workload
        self.session = session
        self.queries = queries
        self.expected = expected
        self.prepared: dict = {}
        self.tally = Tally()
        self.latencies: "list[float]" = []
        self.busy_s = 0.0
        #: qid -> dominance comparisons of its first execution.
        self.comparisons: "dict[int, int]" = {}
        self.shm = {"bytes_shared": 0, "pickle_fallbacks": 0}

    def run_op(self, i: int) -> None:
        query = self.queries[i % len(self.queries)]
        session, parse = self.session, self.parser.parse_query
        self.tally.attempted += 1
        start = time.perf_counter()
        try:
            if self.workload.prepared:
                prepared = self.prepared.get(query.qid)
                if prepared is None:
                    prepared = session.prepare(parse(query.sql))
                    self.prepared[query.qid] = prepared
                result = session.execute_prepared(prepared)
            else:
                result = session.execute(parse(query.sql))
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            self.busy_s += time.perf_counter() - start
            self.tally.failed += 1
            print(f"op {i} failed: {type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        self.latencies.append(elapsed)
        if Counter(r.as_tuple() for r in result.rows) != \
                self.expected[query.qid]:
            self.tally.wrong += 1
            print(f"op {i}: wrong answer to {query.sql!r}")
        ctx = result.context
        self.comparisons.setdefault(query.qid, ctx.dominance_comparisons)
        if ctx.shm_stats:
            self.shm = {k: ctx.shm_stats[k] for k in self.shm}

    def loop(self, seconds: float, min_ops: int) -> int:
        """Run whole passes over the rotation for ``seconds`` (and at
        least ``min_ops`` ops, within :data:`MAX_RUN_S`); returns the
        number of ops run.  Whole passes give every query the same
        weight in the latency percentiles."""
        start = time.perf_counter()
        i = 0
        while True:
            now = time.perf_counter() - start
            if now >= MAX_RUN_S or (now >= seconds and i >= min_ops
                                    and i % len(self.queries) == 0):
                return i
            self.run_op(i)
            i += 1


def _setup(workload: EngineWorkload, tables, warmup: str):
    """Session creation, table registration and the first query (pool
    start, shared-memory store); returns (session, seconds)."""
    import repro
    from repro.sql import parser

    options = workload.options()
    start = time.perf_counter()
    session = repro.connect(**options)
    for table in tables:
        session.create_table(table.name, table.columns, table.rows)
    session.execute(parser.parse_query(warmup))
    return session, time.perf_counter() - start


def run(name: str, seed: int, seconds: float, trace: bool) -> RunReport:
    workload = WORKLOADS[name]
    tables, queries, warmup = workload.inputs(seed)
    by_name = {t.name: t for t in tables}
    expected = {q.qid: expected_answer(by_name[q.table], q)
                for q in queries}
    report = RunReport(name, trace)

    session = None
    for _ in range(SETUPS):
        if session is not None:
            session.close()
        session, took = _setup(workload, tables, warmup)
        report.setup.append(took)
    client = _Client(workload, session, queries, expected)

    try:
        if not trace:
            client.loop(seconds, MIN_OPS_FOR_P90)
            report.reads = TimingSummary.of(client.latencies)
        else:
            # The traced half replays the untraced half's ops, so the
            # two latency samples cover the same queries.
            done = client.loop(seconds / 2, 0)
            untraced = TimingSummary.of(client.latencies)
            before = len(client.latencies)
            shm_before = dict(client.shm)
            tracer = tracing.Tracer()
            tracing.install_engine(tracer)
            try:
                for i in range(done):
                    client.run_op(i)
            finally:
                tracer.uninstall()
            walls = client.latencies[before:]
            traced = TimingSummary.of(walls)
            report.reads = TimingSummary.of(client.latencies)
            phase = TracedPhase(
                tracer.spans, reads=len(walls), writes=0, op_walls=walls,
                extra=_engine_extra(client, tables, queries, done,
                                    shm_before, traced.p50 - untraced.p50))
            report.layers = layer_metrics(phase)
            report.reconcile = reconciliation(phase)
            tracer.write(output_dir() / f"trace-{name}-seed{seed}.json")
        report.peak_rss_mb = peak_rss_mb()
    finally:
        session.close()
    report.tally = client.tally
    report.throughput = len(client.latencies) / client.busy_s \
        if client.busy_s else 0.0
    rows = sum(len(t.rows) for t in tables)
    skyline = sum(sum(e.values()) for e in expected.values()) / len(expected)
    report.notes = [
        f"closed loop, 1 client, {len(queries)} distinct queries over "
        f"{rows} rows ({', '.join(t.name for t in tables)})",
        f"config: repro.connect({_describe(workload)})",
        f"answers checked against the NumPy oracle: mean skyline "
        f"{skyline:.0f} rows",
    ]
    return report


def _describe(workload: EngineWorkload) -> str:
    return ", ".join(f"{k}={v!r}" for k, v in workload.options().items())


def _engine_extra(client: _Client, tables, queries, traced_ops: int,
                  shm_before: dict, overhead: float) -> dict:
    """Per-layer values the driver sees rather than the spans."""
    by_name = {t.name: t for t in tables}
    ran = [q for q in queries if q.qid in client.comparisons]
    comparisons = sum(client.comparisons[q.qid] for q in ran)
    scanned = sum(len(by_name[q.table].rows) for q in ran)
    ops = max(traced_ops, 1)
    return {
        "dominance.comparisons": comparisons / max(len(ran), 1),
        "dominance.comparisons_per_row": comparisons / max(scanned, 1),
        "shm.bytes_shared":
            (client.shm["bytes_shared"] - shm_before["bytes_shared"]) / ops,
        "shm.pickle_fallbacks":
            client.shm["pickle_fallbacks"] - shm_before["pickle_fallbacks"],
        "tracing.overhead_s": overhead,
    }
