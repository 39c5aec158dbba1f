"""``serve_rw``: a client reads and writes through the JSON-lines server.

An in-process :class:`~repro.serve.SkylineServer` with ``max_inflight``
equal to the CPU count and its default tenant config listens on
loopback.  One client connection runs a closed loop over a 3-dim table
of 20k rows.  Reads are preference-subset skyline queries shaped like
``repro.bench.serving.QUERY_MIX``; one op in eight is a single-row
insert or delete.  Each write bumps the catalog version, which the plan
cache key includes, and may invalidate result-cache entries, so a gain
for reads that costs writes (or the reverse) shows.

One client keeps runs steady: the server's query threads share the GIL
with the loop that times the ops, so with two clients a cache hit's
latency depends on whether the other client's query is executing.
``--clients 2`` runs two connections, whose reads and writes race.

Answers are checked after the loop.  Writes touch distinct rows, so
they commute: the table a read saw is fixed by how many of each
client's writes the server had applied.  A client's own earlier writes
were all applied; of another client's, at least those acknowledged
before the read was sent and at most those sent before its answer came
back.  A read is right when it equals the oracle's skyline of one of
those table states.
"""

from __future__ import annotations

import asyncio
import functools
import json
import random
import time
from dataclasses import dataclass, field

import numpy as np

from . import tracing
from .measure import (MIN_OPS_FOR_P90, Tally, nproc, output_dir,
                      peak_rss_mb)
from .oracle import oriented_matrix, skyline_indices
from .report import (RunReport, TimingSummary, TracedPhase, layer_metrics,
                     reconciliation)

SERVE_ROWS = 20_000
CLIENTS = 1

#: The reads of one block of ops, in order, after the block's one
#: write: one op in eight is a write.  Every read but the last re-plans,
#: since the write bumped the catalog version; the last is the plan
#: cache's hit.  The 3-dim read hits the result cache exactly unless the
#: write invalidated its entry, the 2-dim reads refilter that entry, and
#: the 1-dim reads are rewritten by the optimizer and bypass the result
#: cache.  The fixed order gives every seed the same share of reads in
#: each of these modes, so p50 falls among the refilter hits and p90
#: among the 1-dim executions.
READ_BLOCK = (("a", "b", "c"), ("a", "b"), ("b", "c"), ("a", "c"),
              ("a",), ("c",), ("a", "b", "c"))
WRITE_EVERY = len(READ_BLOCK) + 1

#: One insert in this many is attractive: it beats every initial row in
#: one dimension, so it usually joins the skyline of every preference
#: set with that dimension and invalidates their cached results, which
#: ordinary uniform inserts almost never do.
ATTRACTIVE_EVERY = 4

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: Rows per ``create_table``/``insert`` request while loading the
#: table: the server reads requests with asyncio's default 64 KiB line
#: limit.
LOAD_CHUNK = 400

#: A run keeps going past ``--seconds`` until it has timed
#: ``MIN_OPS_FOR_P90`` reads, but never past this many seconds.
MAX_RUN_S = 120.0

COLUMNS = [["id", "INTEGER", False], ["a", "DOUBLE", False],
           ["b", "DOUBLE", False], ["c", "DOUBLE", False]]


def query_sql(prefs: tuple) -> str:
    return ("SELECT * FROM pts SKYLINE OF "
            + ", ".join(f"{p} MIN" for p in prefs))


@dataclass(frozen=True)
class Op:
    kind: str                  # "read" | "insert" | "delete"
    prefs: tuple = ()
    row: tuple = ()

    def request(self) -> dict:
        if self.kind == "read":
            return {"op": "query", "sql": query_sql(self.prefs)}
        return {"op": self.kind, "table": "pts", "rows": [list(self.row)]}


def initial_rows(seed: int) -> "list[tuple]":
    rng = random.Random(seed)
    return [(i, rng.uniform(0, 1000), rng.uniform(0, 1000),
             rng.uniform(0, 1000)) for i in range(SERVE_ROWS)]


def client_ops(seed: int, client: int, clients: int,
               rows: "list[tuple]"):
    """The endless seeded op stream of one of ``clients`` clients.

    Ops come in blocks of :data:`WRITE_EVERY`: one write, then one read
    of each entry of :data:`READ_BLOCK`.  The seed picks the written
    rows.  Writes alternate insert and delete; inserted ids and deleted
    rows are disjoint across clients, so writes commute.
    """
    rng = random.Random(f"{seed}/{client}")
    victims = [row for row in rows if row[0] % clients == client]
    rng.shuffle(victims)
    writes = 0
    while True:
        if writes % 2 == 0:
            values = [rng.uniform(0, 1000) for _ in range(3)]
            if writes % (2 * ATTRACTIVE_EVERY) == 0:
                values[rng.randrange(3)] = -rng.uniform(0, 1)
            new_id = SERVE_ROWS + writes * clients + client
            yield Op("insert", row=(new_id, *values))
        else:
            yield Op("delete", row=victims[writes // 2])
        writes += 1
        for prefs in READ_BLOCK:
            yield Op("read", prefs=prefs)


@dataclass
class Record:
    client: int
    op: Op
    sent: float
    received: float
    #: The reply line, parsed when checked: thousands of parsed replies
    #: held through the run would slow the server's garbage collection.
    reply: bytes
    #: Client writes applied before this op was sent.
    own_writes: int

    @property
    def latency(self) -> float:
        return self.received - self.sent

    @functools.cached_property
    def response(self) -> dict:
        return json.loads(self.reply)


@dataclass
class Client:
    cid: int
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    ops: object
    records: "list[Record]" = field(default_factory=list)
    writes_done: int = 0

    async def send(self, request: dict) -> bytes:
        self.writer.write(json.dumps(request).encode() + b"\n")
        await self.writer.drain()
        return await self.reader.readline()

    async def call(self, request: dict) -> dict:
        return json.loads(await self.send(request))

    async def loop(self, seconds: float, min_reads: int,
                   trace_ids: bool) -> None:
        start = time.perf_counter()
        reads = 0
        while True:
            now = time.perf_counter() - start
            if now >= MAX_RUN_S or (now >= seconds and reads >= min_reads):
                return
            op = next(self.ops)
            request = op.request()
            if trace_ids:
                request["trace_id"] = f"{self.cid}:{len(self.records)}"
            sent = time.perf_counter()
            reply = await self.send(request)
            self.records.append(Record(self.cid, op, sent,
                                       time.perf_counter(), reply,
                                       self.writes_done))
            if op.kind == "read":
                reads += 1
            else:
                self.writes_done += 1

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


async def _setup(rows, seed: int, n_clients: int):
    """Server start, client connections, table load over the wire and
    the first query; returns (server, clients, seconds)."""
    from repro.serve import SkylineServer

    start = time.perf_counter()
    server = SkylineServer(max_inflight=nproc())
    host, port = await server.start()
    clients = []
    for cid in range(n_clients):
        reader, writer = await asyncio.open_connection(host, port,
                                                       limit=1 << 24)
        clients.append(Client(cid, reader, writer,
                              client_ops(seed, cid, n_clients, rows)))
    loader = clients[0]
    for offset in range(0, len(rows), LOAD_CHUNK):
        chunk = [list(row) for row in rows[offset:offset + LOAD_CHUNK]]
        request = {"op": "insert", "table": "pts", "rows": chunk} \
            if offset else {"op": "create_table", "table": "pts",
                            "columns": COLUMNS, "rows": chunk}
        response = await loader.call(request)
        if not response.get("ok"):
            raise RuntimeError(f"table load failed: {response}")
    response = await loader.call(
        {"op": "query", "sql": query_sql(READ_BLOCK[0])})
    if not response.get("ok"):
        raise RuntimeError(f"warm-up query failed: {response}")
    return server, clients, time.perf_counter() - start


async def _shutdown(server, clients) -> None:
    for client in clients:
        await client.close()
    await server.aclose()


async def _stats(client: Client) -> dict:
    return (await client.call({"op": "stats"}))["service"]


def _install_tracer(server) -> "tracing.Tracer":
    """Spans for the traced phase: the engine's entry points, request
    ids taken from the wire, and a thread pool that carries both into
    the query threads."""
    from repro.serve.app import SkylineServer

    tracer = tracing.Tracer()
    tracing.install_engine(tracer)
    # The catalog holds the result cache's listener as a bound method,
    # which the class-level wrapper cannot reach: route it through the
    # class so event handling gets its own span.
    cache = server.service.result_cache
    listeners = server.service.catalog._listeners
    for i, listener in enumerate(listeners):
        if getattr(listener, "__self__", None) is cache:
            listeners[i] = functools.partial(_cache_event, cache)
    original = SkylineServer.handle

    async def handle(self, request):
        token = tracing.set_op(request.get("trace_id"))
        try:
            return await original(self, request)
        finally:
            tracing.reset_op(token)

    tracer.replace(SkylineServer, "handle", handle)
    old_pool = server._pool
    server._pool = tracing.ContextThreadPool(
        max_workers=server.scheduler.max_inflight,
        thread_name_prefix="repro-serve")
    old_pool.shutdown(wait=True)
    return tracer


def _cache_event(cache, event) -> None:
    type(cache).on_catalog_event(cache, event)


async def _measure(seed: int, seconds: float, trace: bool, n_clients: int,
                   report):
    rows = initial_rows(seed)
    server = clients = None
    for _ in range(SETUPS):
        if server is not None:
            await _shutdown(server, clients)
        server, clients, took = await _setup(rows, seed, n_clients)
        report.setup.append(took)

    traced = None
    try:
        if not trace:
            before = await _stats(clients[0])
            start = time.perf_counter()
            min_reads = -(-MIN_OPS_FOR_P90 // n_clients)
            await asyncio.gather(*(c.loop(seconds, min_reads, False)
                                   for c in clients))
            wall = time.perf_counter() - start
            after = await _stats(clients[0])
            records = [r for c in clients for r in c.records]
        else:
            await asyncio.gather(*(c.loop(seconds / 2, 0, False)
                                   for c in clients))
            marks = [len(c.records) for c in clients]
            tracer = _install_tracer(server)
            before = await _stats(clients[0])
            start = time.perf_counter()
            try:
                await asyncio.gather(*(c.loop(seconds / 2, 0, True)
                                       for c in clients))
            finally:
                tracer.uninstall()
            wall = time.perf_counter() - start
            after = await _stats(clients[0])
            records = [r for c in clients for r in c.records]
            traced = (tracer, [r for c, m in zip(clients, marks)
                               for r in c.records[m:]],
                      [r for c, m in zip(clients, marks)
                       for r in c.records[:m]])
        report.peak_rss_mb = peak_rss_mb()
    finally:
        await _shutdown(server, clients)
    return rows, records, wall, before, after, traced


def _delta(after: dict, before: dict) -> dict:
    plan = {k: after["plan_cache"][k] - before["plan_cache"][k]
            for k in ("hits", "misses")}
    cache = {k: after["result_cache"][k] - before["result_cache"][k]
             for k in ("exact_hits", "refilter_hits", "misses",
                       "invalidations")}
    return {"plan": plan, "cache": cache}


# ---------------------------------------------------------------------------
# Answer checking
# ---------------------------------------------------------------------------


class StateOracle:
    """Skylines of the table after a given number of each client's
    writes, as sets of row tuples.

    A state's skyline is derived from a neighbouring state's by the one
    write between them: an insert joins unless a member dominates it
    and evicts the members it dominates; a delete of a non-member
    changes nothing (what it dominated, its dominator dominates too).
    Only deleting a member recomputes the skyline from scratch.
    """

    def __init__(self, rows, writes_by_client) -> None:
        self.rows = rows
        self.writes = writes_by_client
        self._cache: "dict[tuple, frozenset]" = {}

    def answer(self, prefs: tuple, counts: tuple) -> frozenset:
        chain, state = [], counts
        while (prefs, state) not in self._cache and any(state):
            chain.append(state)
            back = [state[:i] + (n - 1,) + state[i + 1:]
                    for i, n in enumerate(state) if n]
            state = next((b for b in back if (prefs, b) in self._cache),
                         back[0])
        sky = self._cache.get((prefs, state))
        if sky is None:
            sky = self._cache[(prefs, state)] = self._scratch(prefs, state)
        for nxt in reversed(chain):
            client = next(i for i, (a, b) in enumerate(zip(state, nxt))
                          if a != b)
            op = self.writes[client][state[client]]
            sky = self._apply(prefs, sky, op, nxt)
            self._cache[(prefs, nxt)] = sky
            state = nxt
        return sky

    @staticmethod
    def _key(prefs: tuple, row: tuple) -> np.ndarray:
        return np.array([row[1 + "abc".index(p)] for p in prefs])

    def _apply(self, prefs, sky: frozenset, op: Op, state) -> frozenset:
        row = op.row
        if op.kind == "delete":
            return self._scratch(prefs, state) if row in sky else sky
        new = self._key(prefs, row)
        members = list(sky)
        values = np.array([self._key(prefs, m) for m in members])
        if len(members) and ((values <= new).all(axis=1)
                             & (values < new).any(axis=1)).any():
            return sky
        evicted = (new <= values).all(axis=1) & (new < values).any(axis=1) \
            if len(members) else []
        return frozenset([m for m, out in zip(members, evicted) if not out]
                         + [row])

    def _scratch(self, prefs: tuple, counts: tuple) -> frozenset:
        deleted, inserted = set(), []
        for ops, count in zip(self.writes, counts):
            for op in ops[:count]:
                if op.kind == "delete":
                    deleted.add(op.row)
                else:
                    inserted.append(op.row)
        state = [row for row in self.rows if row not in deleted] + inserted
        values = oriented_matrix(
            state, [(1 + "abc".index(p), "min") for p in prefs])
        return frozenset(state[i] for i in skyline_indices(values).tolist())


def check(rows, records, tally: Tally) -> None:
    """Count every record into ``tally``: failed and refused ops, and
    reads matching none of the table states they could have seen."""
    clients = 1 + max((r.client for r in records), default=0)
    by_client = [sorted((r for r in records if r.client == c),
                        key=lambda r: r.sent) for c in range(clients)]
    writes = [[r.op for r in recs if r.op.kind != "read"]
              for recs in by_client]
    write_times = [[(r.sent, r.received) for r in recs
                    if r.op.kind != "read"] for recs in by_client]
    oracle = StateOracle(rows, writes)
    for record in records:
        tally.attempted += 1
        response = record.response
        if not response.get("ok"):
            if response.get("error") == "overloaded":
                tally.refused += 1
            else:
                tally.failed += 1
            continue
        if record.op.kind != "read":
            done = response.get("inserted", response.get("deleted"))
            if done != 1:
                tally.failed += 1
            continue
        got = [tuple(row) for row in response["rows"]]
        options = []
        for c in range(clients):
            if c == record.client:
                options.append([record.own_writes])
                continue
            times = write_times[c]
            lo = sum(1 for _, acked in times if acked <= record.sent)
            hi = sum(1 for sent, _ in times if sent < record.received)
            options.append(list(range(lo, hi + 1)))
        states = [()]
        for choice in options:
            states = [s + (n,) for s in states for n in choice]
        if not any(len(got) == len(sky) and set(got) == sky
                   for sky in (oracle.answer(record.op.prefs, s)
                               for s in states)):
            tally.wrong += 1
            print(f"wrong answer to {query_sql(record.op.prefs)!r} "
                  f"from client {record.client}")


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool,
        clients: int = CLIENTS) -> RunReport:
    report = RunReport(name, trace)
    rows, records, wall, before, after, traced = asyncio.run(
        _measure(seed, seconds, trace, clients, report))
    check(rows, records, report.tally)

    ok = [r for r in records if r.response.get("ok")]
    reads = [r for r in ok if r.op.kind == "read"]
    writes = [r for r in ok if r.op.kind != "read"]
    report.reads = TimingSummary.of(r.latency for r in reads)
    report.writes = TimingSummary.of(r.latency for r in writes)
    in_phase = len(traced[1]) if traced else len(records)
    report.throughput = in_phase / wall if wall else 0.0

    delta = _delta(after, before)
    hits = [r for r in reads if r.response.get("cache_hit")]
    misses = [r for r in reads if not r.response.get("cache_hit")]
    plan = delta["plan"]
    cache = delta["cache"]
    lookups = cache["exact_hits"] + cache["refilter_hits"] + cache["misses"]
    report.notes = [
        f"closed loop, {clients} client(s) on loopback, max_inflight "
        f"{nproc()}, table pts: {SERVE_ROWS} rows x 3 dims, "
        f"1 op in {WRITE_EVERY} a single-row insert or delete",
        f"reads: {len(hits)} result-cache hits "
        f"(p50 {_median([r.latency for r in hits]) * 1e3:.2f} ms), "
        f"{len(misses)} executed "
        f"(p50 {_median([r.latency for r in misses]) * 1e3:.2f} ms)",
        f"plan cache: {plan['hits']} hits / {plan['misses']} misses; "
        f"result cache: {cache['exact_hits']} exact + "
        f"{cache['refilter_hits']} refilter hits of {lookups} lookups, "
        f"{cache['invalidations']} invalidations",
    ]
    if traced is not None:
        tracer, traced_records, untraced_records = traced
        phase = _traced_phase(tracer, traced_records, untraced_records,
                              delta)
        report.layers = layer_metrics(phase)
        report.reconcile = reconciliation(phase)
        tracer.write(output_dir() / f"trace-{name}-seed{seed}.json")
    return report


def _traced_phase(tracer, traced_records, untraced_records,
                  delta) -> TracedPhase:
    reads = [r for r in traced_records if r.op.kind == "read"]
    spans = tracer.spans
    executes = [s for s in spans if s.name == "CatalogService.execute"]
    lookups = [s for s in spans if s.name == "SkylineResultCache.lookup"]
    results = [s for s in spans
               if s.name == "SkylineSession.execute_prepared"]
    scans = [s for s in spans if tracing.layer_of(s) == "scan"
             and s.name == "ExecutionContext.run_stage"]
    plan = delta["plan"]
    comparisons = sum(s.info["comparisons"] for s in results)
    wire = [r.latency - r.response["elapsed_s"] for r in reads
            if r.response.get("ok")]
    untraced = [r.latency for r in untraced_records if r.op.kind == "read"]
    n_reads = max(len(reads), 1)
    extra = {
        "plan_cache.hit_ratio":
            plan["hits"] / max(plan["hits"] + plan["misses"], 1),
        "result_cache.cacheable_share":
            len(lookups) / max(len(executes), 1),
        "result_cache.hit_ratio":
            sum(s.info["hit"] for s in lookups) / max(len(lookups), 1),
        "result_cache.exact_hit_share":
            sum(s.info["exact"] for s in lookups) / max(len(lookups), 1),
        "result_cache.refilter_hit_share":
            sum(s.info["refilter"] for s in lookups)
            / max(len(lookups), 1),
        "result_cache.invalidations": sum(
            s.info["invalidations"] for s in spans
            if s.name == "SkylineResultCache.on_catalog_event"),
        "dominance.comparisons": comparisons / n_reads,
        "dominance.comparisons_per_row": comparisons / max(
            sum(s.info["rows_out"] for s in scans), 1),
        "wire.overhead_s": float(np.mean(wire)) if wire else 0.0,
        "tracing.overhead_s":
            _median([r.latency for r in reads]) - _median(untraced),
    }
    return TracedPhase(
        spans, reads=len(reads), writes=len(traced_records) - len(reads),
        op_walls=[r.latency for r in traced_records],
        extra=extra)


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0
