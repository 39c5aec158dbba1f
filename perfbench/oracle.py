"""An independent NumPy skyline oracle, complete and incomplete data.

It shares no code with the engine.  A row is in the skyline iff no
other row dominates it, where dominance follows the incomplete-data
semantics of the paper (Khalefa et al., ICDE 2008): compare only the
dimensions on which both rows are non-NULL, be no worse on all of them
and strictly better on one.  On complete data this is plain Pareto
dominance.

All-pairs over 60k incomplete rows is too slow to run per query, so the
oracle prunes in two exact steps:

1. Rows sharing a NULL pattern compare on the same dimensions, where
   dominance is transitive: a row dominated inside its pattern group is
   out.  The survivors are the candidates.
2. A candidate ``q`` can still be dominated by a row ``p`` of another
   group ``G`` on their common dimensions ``C``.  Then ``p`` is a
   candidate of ``G`` or dominated by one on all of ``G``'s dimensions,
   which include ``C``; that candidate is no worse than ``p`` on ``C``,
   so it dominates ``q`` too.  Checking the candidates against each
   other's groups is therefore exact.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Candidate rows checked per vectorised block (bounds the temporary
#: ``block x reducers x dims`` boolean arrays).
_BLOCK = 256

#: Rows taken per step of the complete-data skyline loop.
_HEAD = 16


def oriented_matrix(rows: Sequence[tuple],
                    dims: Sequence[tuple[int, str]]) -> np.ndarray:
    """Float matrix of ``rows`` over ``dims`` (``(column index, "min" |
    "max")`` pairs), MAX columns negated so smaller is always better
    and NULL encoded as NaN."""
    values = np.empty((len(rows), len(dims)), dtype=np.float64)
    for j, (index, kind) in enumerate(dims):
        column = [np.nan if row[index] is None else float(row[index])
                  for row in rows]
        values[:, j] = column
        if kind == "max":
            values[:, j] = -values[:, j]
    return values


def _complete_skyline(values: np.ndarray) -> np.ndarray:
    """Indices of the skyline of NaN-free ``values`` (ascending).

    Rows are taken in (sum, then each column) order, a linear extension
    of dominance even when rounding makes a dominator's sum equal its
    victim's, so no row is dominated by a later one.  Each step takes
    the next ``_HEAD`` live rows, keeps those no other of them
    dominates, which are skyline members (a row dominated by an
    eliminated row is dominated by the member that eliminated it), and
    eliminates every later row one of them dominates.
    """
    if len(values) == 0:
        return np.empty(0, dtype=np.int64)
    keys = [values[:, j] for j in range(values.shape[1] - 1, -1, -1)]
    keys.append(values.sum(axis=1))
    alive = np.lexsort(keys)
    live = values[alive]
    picked = []
    while alive.size:
        head, rest = live[:_HEAD], live[_HEAD:]
        members = ~_dominated_by_any(head, head)
        picked.append(alive[:_HEAD][members])
        kept = np.ones(len(rest), dtype=bool)
        for pivot in head[members]:
            kept &= ~((pivot <= rest).all(axis=1)
                      & (pivot < rest).any(axis=1))
        alive, live = alive[_HEAD:][kept], rest[kept]
    return np.sort(np.concatenate(picked))


def _dominated_by_any(candidates: np.ndarray,
                      reducers: np.ndarray) -> np.ndarray:
    """For each NaN-free candidate row, whether some reducer row
    dominates it (same columns, smaller is better)."""
    out = np.zeros(len(candidates), dtype=bool)
    if len(reducers) == 0 or len(candidates) == 0:
        return out
    for start in range(0, len(candidates), _BLOCK):
        block = candidates[start:start + _BLOCK][:, None, :]
        le = np.all(reducers[None, :, :] <= block, axis=2)
        lt = np.any(reducers[None, :, :] < block, axis=2)
        out[start:start + _BLOCK] = np.any(le & lt, axis=1)
    return out


def skyline_indices(values: np.ndarray) -> np.ndarray:
    """Indices (ascending) of the rows of ``values`` that no other row
    dominates under incomplete-data semantics (NaN = NULL)."""
    n, d = values.shape
    if n == 0:
        return np.empty(0, dtype=np.int64)
    present = ~np.isnan(values)
    codes = present.astype(np.int64) @ (1 << np.arange(d, dtype=np.int64))
    groups: dict[int, np.ndarray] = {}
    for code in np.unique(codes).tolist():
        groups[code] = np.flatnonzero(codes == code)

    def columns(code: int) -> np.ndarray:
        return np.array([j for j in range(d) if code >> j & 1],
                        dtype=np.int64)

    candidates: dict[int, np.ndarray] = {}
    for code, members in groups.items():
        cols = columns(code)
        local = _complete_skyline(values[np.ix_(members, cols)])
        candidates[code] = members[local]

    survivors = []
    for q_code, cand in candidates.items():
        alive = np.ones(len(cand), dtype=bool)
        for p_code, reducers in candidates.items():
            common = q_code & p_code
            live = np.flatnonzero(alive)
            if p_code == q_code or common == 0 or not live.size:
                continue
            cols = columns(common)
            hit = _dominated_by_any(values[np.ix_(cand[live], cols)],
                                    values[np.ix_(reducers, cols)])
            alive[live[hit]] = False
        survivors.append(cand[alive])
    return np.sort(np.concatenate(survivors))
