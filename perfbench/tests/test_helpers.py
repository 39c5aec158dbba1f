"""Tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import serve_workload, tracing  # noqa: E402
from perfbench.engine_workloads import Query, _Client  # noqa: E402
from perfbench.engine_workloads import WORKLOADS as ENGINE  # noqa: E402
from perfbench.measure import Tally, tail_percentile  # noqa: E402
from perfbench.oracle import oriented_matrix, skyline_indices  # noqa: E402
from perfbench.report import RunReport, TimingSummary  # noqa: E402

# -- the percentile rule -----------------------------------------------------


@pytest.mark.parametrize("samples, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    assert tail_percentile(samples) == expected


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_children_clipped_to_the_parent():
    parent = tracing.Span(1, "parent", start=0.0, end=10.0)
    first = tracing.Span(2, "child", start=1.0, end=3.0, parent=1)
    grandchild = tracing.Span(3, "leaf", start=1.5, end=2.0, parent=2)
    # Overlaps the first child and runs past the parent's end.
    second = tracing.Span(4, "child", start=2.0, end=12.0, parent=1)
    own = tracing.self_times([parent, first, grandchild, second])
    assert own[1] == pytest.approx(10.0 - (10.0 - 1.0))
    assert own[2] == pytest.approx(2.0 - 0.5)
    assert own[3] == pytest.approx(0.5)
    assert own[4] == pytest.approx(10.0)


def test_wrapped_calls_nest_and_unwrap():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = tracing.Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    token = tracing.set_op("op-7")
    try:
        assert Layer().outer() == 2
    finally:
        tracing.reset_op(token)
    tracer.uninstall()
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.sid and outer.parent is None
    assert inner.op == outer.op == "op-7"
    assert Layer().outer() == 2 and len(tracer.spans) == 2


# -- the oracle --------------------------------------------------------------


def test_oracle_on_a_hand_checked_table_with_nulls():
    # Incomplete dominance compares shared non-NULL dimensions only, so
    # it is not transitive: r1 beats r2 on x, r2 beats r3 on y, r3 beats
    # r1 on z, and none of the three is in the skyline.  r4 has no
    # comparable dimension with anyone; r5 is beaten by r2 on x and y.
    rows = [
        ("r1", 1.0, None, 3.0),
        ("r2", 2.0, 1.0, None),
        ("r3", None, 2.0, 1.0),
        ("r4", None, None, None),
        ("r5", 4.0, 5.0, None),
    ]
    dims = [(1, "min"), (2, "min"), (3, "min")]
    assert skyline_rows(rows, dims) == [("r4", None, None, None)]
    # With z as MAX, r1 (z=3) beats r3 (z=1) instead: r3 no longer
    # beats r1, and r1 now survives.
    dims = [(1, "min"), (2, "min"), (3, "max")]
    assert skyline_rows(rows, dims) == [("r1", 1.0, None, 3.0),
                                        ("r4", None, None, None)]


def canonical(rows) -> list:
    """``rows`` as tuples in one fixed order, NULLs last."""
    return sorted((tuple(row) for row in rows),
                  key=lambda row: tuple((v is None, 0 if v is None else v)
                                        for v in row))


def skyline_rows(rows, dims):
    """The oracle's skyline of ``rows`` in :func:`canonical` order."""
    picked = skyline_indices(oriented_matrix(rows, dims))
    return canonical(rows[i] for i in picked.tolist())


def brute_force_rows(rows, dims):
    """The skyline by its all-pairs definition."""
    def dominates(p, q) -> bool:
        better = False
        for index, kind in dims:
            a, b = p[index], q[index]
            if a is None or b is None:
                continue
            if kind == "max":
                a, b = -a, -b
            if a > b:
                return False
            better = better or a < b
        return better

    return canonical(q for q in rows
                     if not any(dominates(p, q) for p in rows))


def test_oracle_matches_all_pairs_on_random_incomplete_data():
    rng = random.Random(3)
    for _ in range(200):
        d = rng.randint(1, 4)
        rows = [tuple(None if rng.random() < 0.3 else rng.randint(0, 4)
                      for _ in range(d)) + (i,)
                for i in range(rng.randint(0, 40))]
        dims = [(j, rng.choice(("min", "max"))) for j in range(d)]
        assert skyline_rows(rows, dims) == brute_force_rows(rows, dims)


# -- error accounting --------------------------------------------------------


class _Result:
    def __init__(self, rows):
        self.rows = [_Row(r) for r in rows]
        self.context = type("Ctx", (), {"dominance_comparisons": 0,
                                        "shm_stats": None})()


class _Row(tuple):
    def as_tuple(self):
        return tuple(self)


class _FakeSession:
    """Answers every query with ``rows``."""

    def __init__(self, rows):
        self.rows = rows

    def execute(self, plan):
        return _Result(self.rows)


def test_a_corrupted_engine_answer_counts_and_fails_the_run():
    query = Query(0, "SELECT * FROM t SKYLINE OF x MIN", "t", ((0, "min"),))
    expected = {0: Counter([(1.0,)])}
    good = _Client(ENGINE["adhoc_store_sales"], _FakeSession([(1.0,)]),
                   [query], expected)
    good.run_op(0)
    assert good.tally.error_rate == 0 and good.tally.exit_code == 0
    bad = _Client(ENGINE["adhoc_store_sales"], _FakeSession([(2.0,)]),
                  [query], expected)
    bad.run_op(0)
    assert bad.tally.wrong == 1
    assert bad.tally.error_rate == 1.0 and bad.tally.exit_code == 1


def _record(client, op, sent, received, response, own=0):
    return serve_workload.Record(client, op, sent, received,
                                 json.dumps(response).encode(), own)


def test_serve_check_flags_a_corrupted_read_and_a_refused_op():
    rows = [(0, 1.0, 5.0, 5.0), (1, 5.0, 1.0, 5.0), (2, 6.0, 6.0, 6.0)]
    read = serve_workload.Op("read", prefs=("a", "b"))
    skyline = [[0, 1.0, 5.0, 5.0], [1, 5.0, 1.0, 5.0]]
    ok = _record(0, read, 0.0, 1.0, {"ok": True, "rows": skyline})
    tally = Tally()
    serve_workload.check(rows, [ok], tally)
    assert (tally.attempted, tally.errors, tally.exit_code) == (1, 0, 0)

    corrupted = _record(0, read, 2.0, 3.0,
                        {"ok": True, "rows": skyline[:1]})
    refused = _record(1, read, 2.0, 3.0,
                      {"ok": False, "error": "overloaded",
                       "retry_after_s": 0.1})
    tally = Tally()
    serve_workload.check(rows, [ok, corrupted, refused], tally)
    assert (tally.wrong, tally.refused) == (1, 1)
    assert tally.error_rate == pytest.approx(2 / 3)
    assert tally.exit_code == 1
    report = RunReport("serve_rw", False, tally=tally, setup=[0.1],
                       reads=TimingSummary.of([0.01] * 100))
    line = json.loads(report.result_line())
    assert line["correct"] is False and line["failed"] == 2


def test_serve_check_accepts_any_state_a_concurrent_write_allows():
    rows = [(0, 1.0, 5.0, 5.0), (1, 5.0, 1.0, 5.0)]
    insert = serve_workload.Op("insert", row=(9, 0.5, 0.5, 0.5))
    read = serve_workload.Op("read", prefs=("a", "b"))
    # Client 1's insert is in flight while client 0 reads: both the
    # table before and after it are valid answers.
    write = _record(1, insert, 1.0, 4.0, {"ok": True, "inserted": 1})
    before = _record(0, read, 2.0, 3.0, {"ok": True, "rows": [
        list(r) for r in rows]})
    after = _record(0, read, 2.5, 3.5, {"ok": True, "rows": [
        [9, 0.5, 0.5, 0.5]]})
    tally = Tally()
    serve_workload.check(rows, [write, before, after], tally)
    assert tally.errors == 0
    # A read sent after the insert was acknowledged must see it.
    late = _record(0, read, 5.0, 6.0, {"ok": True, "rows": [
        list(r) for r in rows]})
    tally = Tally()
    serve_workload.check(rows, [write, late], tally)
    assert tally.wrong == 1


# -- the command line --------------------------------------------------------


def test_command_fails_without_the_engine_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_rw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
