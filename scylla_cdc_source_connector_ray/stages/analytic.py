"""Distributed SQL window (analytic) functions: ``row_number``, ``rank``,
``dense_rank``, ``cume_dist``, ``lag``, ``lead``, ``ntile``,
``first_value`` over a partition key.

The missing half of the window-operator family: ``stages/windows.py`` covers
TIME windows (tumbling/sliding/session) and ``stages/scan.py`` the global
running total; this module covers per-PARTITION analytic functions — the
``fn() OVER (PARTITION BY k ORDER BY ...)`` surface a user of a SQL engine
reaches for constantly.

Scale shape: ONE keyed exchange on ``hash(keys)`` (:mod:`.exchange`, the
same stream-id → shard mapping as every other conversation/key-level
stage), then pure vectorized numpy/Arrow kernels inside each shard task —
run-boundary masks over the sorted table, never a Python loop over rows or
a per-group UDF dispatch (the round-2 lesson: ``groupby(fine_key).map_groups`` over O(n)
tiny groups is Python-dispatch-bound; one coarse shard task handles
thousands of key runs with run-scan math). Partition sizes are bounded by
the key's own cardinality profile; hot keys can be pre-salted upstream the
same way the windowed aggregations do.

Semantics match ANSI window functions (the DuckDB twin in ``oracles.py``):

- ``row_number`` / ``lag`` / ``lead`` order by ``order_cols`` (must be
  unique within a key, e.g. (ts, event_id) — ties would make them
  nondeterministic).
- ``rank`` / ``dense_rank`` / ``cume_dist`` order by ``value_col`` with
  SQL peer semantics: rows not distinct in the value (NULLs included —
  NULL is a peer of NULL) share rank, and ``cume_dist`` counts the whole
  peer group. NULL values sort LAST (DuckDB's ASC default).
- a NULL partition key is ONE partition (SQL "not distinct" grouping).

Reference anchor: none — the connector has no analytic surface; this is
north-star engine surface alongside PIVOT/ROLLUP (stages/relational.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from . import exchange
from .cep import run_starts


def _run_math(first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start position of this row's run, run length per row) from a
    boolean run-start mask — the shared run-scan primitives."""
    n = len(first)
    pos = np.arange(n, dtype=np.int64)
    starts = np.maximum.accumulate(np.where(first, pos, 0))
    idx = np.flatnonzero(first)
    lens = np.diff(np.append(idx, n))
    return starts, np.repeat(lens, lens)


def analytic_kernel(
    g: pa.Table,
    keys: list[str],
    order_cols: list[str],
    value_col: str,
    ntile: int = 4,
) -> pa.Table:
    """All eight analytic columns for one shard's table (any number of key
    runs) — vectorized run-boundary math, no per-group dispatch."""
    n = g.num_rows
    if n == 0:
        out = g
        # lag/lead/first_value carry the value column's OWN type (the
        # nonempty path takes from it) — hardcoding float64 here would make
        # empty blocks schema-incompatible with nonempty ones at a union
        vt = g.schema.field(value_col).type
        for c, t in [
            ("rn", pa.int64()),
            ("rnk", pa.int64()),
            ("drnk", pa.int64()),
            ("cd", pa.float64()),
            ("lag_value", vt),
            ("lead_value", vt),
            ("nt", pa.int64()),
            ("first_value", vt),
        ]:
            out = out.append_column(c, pa.array([], t))
        return out

    # base order: (keys, order_cols) — row_number / lag / lead
    s = g.sort_by([(c, "ascending") for c in [*keys, *order_cols]])
    pos = np.arange(n, dtype=np.int64)
    kfirst = run_starts(s, keys)
    kstart, klen = _run_math(kfirst)
    rn = pos - kstart + 1

    # lag/lead via take with NULL indices at run boundaries: preserves the
    # value column's own NULLs and types without a float round-trip
    lag_idx = pc.if_else(
        pa.array(kfirst), pa.scalar(None, pa.int64()), pa.array(pos - 1, pa.int64())
    )
    klast = np.append(kfirst[1:], True)
    lead_idx = pc.if_else(
        pa.array(klast), pa.scalar(None, pa.int64()), pa.array(pos + 1, pa.int64())
    )
    val = s[value_col].combine_chunks()
    lag_v = val.take(lag_idx)
    lead_v = val.take(lead_idx)

    # ntile(N) over the base order: SQL puts the klen % N remainder rows
    # into the FIRST buckets (sizes base+1), the rest get size base
    pos0 = pos - kstart
    base = klen // ntile
    rem = klen % ntile
    big = rem * (base + 1)  # rows covered by the (base+1)-sized buckets
    in_big = pos0 < big
    nt = np.where(
        in_big,
        pos0 // np.maximum(base + 1, 1),
        rem + (pos0 - big) // np.maximum(base, 1),
    ) + 1
    # first_value(value) over the default frame = the partition's first row
    # in base order
    first_v = val.take(pa.array(kstart, pa.int64()))

    # value order: (keys, value) — rank / dense_rank / cume_dist.
    # sort_indices over the BASE table keeps the mapping back to base rows.
    vidx = pc.sort_indices(
        s,
        sort_keys=[(c, "ascending") for c in [*keys, value_col]],
        null_placement="at_end",
    ).to_numpy(zero_copy_only=False)
    sv = s.take(pa.array(vidx))
    kfirst_v = run_starts(sv, keys)
    tfirst_v = run_starts(sv, [*keys, value_col])  # peer-group starts
    kstart_v, klen_v = _run_math(kfirst_v)
    tstart_v, tlen_v = _run_math(tfirst_v)
    rank_v = tstart_v - kstart_v + 1
    cnt = np.cumsum(tfirst_v)
    dense_v = cnt - cnt[kstart_v] + 1
    tie_end = tstart_v + tlen_v - 1
    cume_v = (tie_end - kstart_v + 1) / klen_v.astype(np.float64)

    # scatter the value-ordered results back to base row positions
    rnk = np.empty(n, np.int64)
    drnk = np.empty(n, np.int64)
    cd = np.empty(n, np.float64)
    rnk[vidx] = rank_v
    drnk[vidx] = dense_v
    cd[vidx] = cume_v

    return (
        s.append_column("rn", pa.array(rn))
        .append_column("rnk", pa.array(rnk))
        .append_column("drnk", pa.array(drnk))
        .append_column("cd", pa.array(cd))
        .append_column("lag_value", lag_v)
        .append_column("lead_value", lead_v)
        .append_column("nt", pa.array(nt.astype(np.int64)))
        .append_column("first_value", first_v)
    )


def analytic_functions(
    ds: ray.data.Dataset,
    keys: list[str],
    order_cols: list[str],
    value_col: str,
    num_shards: int = 64,
    ntile: int = 4,
) -> ray.data.Dataset:
    """Append the eight analytic columns to ``ds`` (all input columns kept).

    One ``hash(keys)``-keyed exchange; everything else is shard-local
    vectorized kernels (see module docstring for the exact SQL semantics
    each column implements)."""
    keys = list(keys)
    order_cols = list(order_cols)

    # exchange.part_of routes every NULL key to one fixed partition, so the
    # SQL single-NULL-partition stays whole
    return exchange.shuffle(
        ds,
        lambda g: analytic_kernel(g, keys, order_cols, value_col, ntile=ntile),
        keys,
        num_shards,
    )
