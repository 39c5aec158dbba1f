"""Data-plane grid for the staged executor.

``test_differential.py`` crosses partitioning with the kernel modes
(``vectorized``) but checks the data plane (``columnar``) only on the
``keep`` scheme or on the local backend.  This module runs the staged
local -> global chain across the full (algorithm x partitioning x
backend x data plane) grid -- complete and incomplete data -- and
asserts results bit-identical to the all-pairs oracle.  DISTINCT
representatives are compared across planes and backends directly.
"""

from __future__ import annotations

import itertools

import pytest

from repro import SessionConfig, SkylineSession
from repro.engine.backends import ProcessBackend, ThreadBackend
from repro.engine.types import DOUBLE, INTEGER
from repro.plan.planner import PARTITIONING_SCHEMES
from tests.integration.test_differential import (BACKENDS,
                                                 COMPLETE_ALGORITHMS,
                                                 COMPLETE_ORACLE,
                                                 COMPLETE_ROWS,
                                                 INCOMPLETE_ORACLE,
                                                 INCOMPLETE_ROWS, SQL3,
                                                 SQL3_DISTINCT)

#: ``True`` exchanges ColumnBatches end to end (scalar-list columns
#: without NumPy); ``False`` pins the row reference plane.
PLANES = (True, False)


@pytest.fixture(scope="module")
def shared_backends():
    """One pool per parallel backend for the whole module."""
    thread = ThreadBackend(2)
    process = ProcessBackend(2)
    backends = {
        "local": lambda: "local",
        "thread": lambda: thread,
        "process": lambda: process,
    }
    yield backends
    thread.close()
    process.close()


def _make_session(rows, nullable: bool, algorithm: str, scheme: str,
                  backend, columnar) -> SkylineSession:
    session = SkylineSession(config=SessionConfig(
        num_executors=3, skyline_algorithm=algorithm,
        skyline_partitioning=scheme, skyline_partitions=3,
        backend=backend, columnar=columnar))
    session.create_table(
        "t",
        [("id", INTEGER, False), ("a", DOUBLE, nullable),
         ("b", DOUBLE, nullable), ("c", DOUBLE, nullable)],
        rows)
    return session


@pytest.mark.parametrize(
    "algorithm,scheme,backend_name,columnar",
    list(itertools.product(COMPLETE_ALGORITHMS, PARTITIONING_SCHEMES,
                           BACKENDS, PLANES)))
def test_staged_complete_matches_oracle(algorithm, scheme, backend_name,
                                        columnar, shared_backends):
    session = _make_session(COMPLETE_ROWS, False, algorithm, scheme,
                            shared_backends[backend_name](), columnar)
    result = sorted(session.sql(SQL3).to_tuples(), key=repr)
    assert result == COMPLETE_ORACLE, (
        f"staged {algorithm}/{scheme}/{backend_name}/"
        f"columnar={columnar} diverged from the all-pairs oracle")


@pytest.mark.parametrize(
    "scheme,backend_name,columnar",
    list(itertools.product(PARTITIONING_SCHEMES, BACKENDS, PLANES)))
def test_staged_incomplete_matches_oracle(scheme, backend_name, columnar,
                                          shared_backends):
    session = _make_session(INCOMPLETE_ROWS, True,
                            "distributed-incomplete", scheme,
                            shared_backends[backend_name](), columnar)
    result = sorted(session.sql(SQL3).to_tuples(), key=repr)
    assert result == INCOMPLETE_ORACLE, (
        f"staged {scheme}/{backend_name}/columnar={columnar} "
        f"diverged from the null-aware all-pairs oracle")


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("algorithm", ("distributed-complete", "sfs"))
def test_distinct_representatives_agree_across_planes(algorithm,
                                                      backend_name,
                                                      shared_backends):
    """DISTINCT keeps the first-seen row per value set.  Both data
    planes on every backend must pick the very rows the local row
    plane picks."""
    reference = _make_session(COMPLETE_ROWS, False, algorithm, "keep",
                              "local", False)
    expected = sorted(reference.sql(SQL3_DISTINCT).to_tuples(), key=repr)
    for columnar in PLANES:
        session = _make_session(COMPLETE_ROWS, False, algorithm, "keep",
                                shared_backends[backend_name](), columnar)
        assert sorted(session.sql(SQL3_DISTINCT).to_tuples(),
                      key=repr) == expected, f"columnar={columnar}"


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_incomplete_distinct_agrees_across_planes(backend_name,
                                                  shared_backends):
    """The same first-seen rule on incomplete data, where the flag-based
    global skyline sees rows from every null-bitmap partition."""
    reference = _make_session(INCOMPLETE_ROWS, True,
                              "distributed-incomplete", "keep", "local",
                              False)
    expected = sorted(reference.sql(SQL3_DISTINCT).to_tuples(), key=repr)
    assert expected
    for columnar in PLANES:
        session = _make_session(INCOMPLETE_ROWS, True,
                                "distributed-incomplete", "keep",
                                shared_backends[backend_name](), columnar)
        assert sorted(session.sql(SQL3_DISTINCT).to_tuples(),
                      key=repr) == expected, f"columnar={columnar}"


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_context_pipeline_slot_stays_none(backend_name, shared_backends):
    """``ExecutionContext.pipeline`` is kept for readers of the per-layer
    trace; every query runs staged, so it never carries a report."""
    session = _make_session(COMPLETE_ROWS, False, "distributed-complete",
                            "keep", shared_backends[backend_name](), True)
    result = session.sql(SQL3).run()
    assert sorted(result.as_tuples(), key=repr) == COMPLETE_ORACLE
    assert result.context.pipeline is None
