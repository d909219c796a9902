"""Distributed prefix scan (global running total) and its training-data
application, sequence packing — the "running aggregate" operator family.

A global cumulative sum over a total order cannot be computed with one
independent-task pass; the classic two-pass scan is used instead:

1. **Partial pass** — each batch emits per-RANGE subtotals (ranges are
   contiguous slices of the order column's domain, so range id is one
   vectorized ``searchsorted``). The per-range totals (``num_ranges`` rows)
   come back to the driver.
2. **Scan pass** — the driver computes the exclusive prefix of the range
   totals (``num_ranges`` numbers — tiny), and a range-keyed exchange gives
   each range task its rows; the task sorts locally and adds its range's
   base offset to the local cumsum.

Scale shape: the data crosses the exchange once, range-partitioned (which
also leaves the output range-ordered); the only driver-side state is one
int64 per range. Skew follows the order column's distribution — pass
quantile-derived boundaries for skewed domains (the default slices the
observed [min, max] uniformly, right for dense ids).

Application: ``token_pack_plan`` assigns each document to the training
context-window "pack" containing its first token — pack id =
(exclusive-prefix token count) // capacity — the deterministic split-at-
boundary packing convention that is exactly SQL-expressible (greedy
first-fit packing is not, and belongs to a sequential packer downstream).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data


def running_total(
    ds: ray.data.Dataset,
    order_col: str,
    value_col: str,
    num_ranges: int = 64,
    boundaries: np.ndarray | None = None,
    keep_cols: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """Append int64 ``cum`` = inclusive running sum of ``value_col`` in
    ``order_col`` order (the order column must be globally unique — ties
    would make the scan order undefined). Output columns are ``order_col``,
    ``value_col``, any ``keep_cols`` passthroughs, and ``cum``; the dataset
    comes back range-ordered by ``order_col``.

    The input is MATERIALIZED once up front: a scan is inherently multi-pass
    (domain probe, subtotals, final cumsum), and Ray re-executes
    un-materialized lineage on every consumption. The materialize is
    preceded by an internal projection to exactly the columns above, so the
    cached blocks are narrow BY CONSTRUCTION — callers wanting extra columns
    in the output name them in ``keep_cols`` instead of relying on a
    convention."""
    from ray.data.aggregate import Max, Min

    cols = list(dict.fromkeys([order_col, value_col, *keep_cols]))
    ds = ds.select_columns(cols).materialize()

    if boundaries is None:
        mm = ds.aggregate(Min(order_col), Max(order_col))
        if not mm or mm.get(f"min({order_col})") is None:  # empty input
            return ds.map_batches(
                lambda t: t.append_column("cum", pa.array([], pa.int64())),
                batch_format="pyarrow",
            )
        lo, hi = mm[f"min({order_col})"], mm[f"max({order_col})"]
        # num_ranges-1 interior cut points over the observed domain
        boundaries = np.linspace(lo, hi, num_ranges + 1)[1:-1].astype(np.float64)
    else:
        boundaries = np.asarray(boundaries, dtype=np.float64)

    def with_range(t: pa.Table) -> pa.Table:
        o = t[order_col].combine_chunks().to_numpy(zero_copy_only=False)
        r = np.searchsorted(boundaries, o.astype(np.float64), side="right")
        return t.append_column("_range", pa.array(r.astype(np.int32)))

    ranged = ds.map_batches(with_range, batch_format="pyarrow")

    # pass 1: per-range subtotals (num_ranges rows back to the driver)
    def partial(t: pa.Table) -> pa.Table:
        r = t["_range"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ur, inv = np.unique(r, return_inverse=True)
        s = np.zeros(len(ur), np.int64)
        np.add.at(s, inv, v)
        return pa.table({"r": ur, "s": s})

    totals = np.zeros(len(boundaries) + 1, dtype=np.int64)
    for row in ranged.map_batches(partial, batch_format="pyarrow").take_all():
        totals[int(row["r"])] += int(row["s"])
    base = np.zeros_like(totals)
    np.cumsum(totals[:-1], out=base[1:])  # exclusive prefix per range

    # pass 2: range-keyed exchange, local sort + cumsum + base offset
    def per_range(g: pa.Table) -> pa.Table:
        r = int(g["_range"][0].as_py())
        g = g.sort_by([(order_col, "ascending")])
        v = g[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cum = np.cumsum(v) + base[r]
        return g.drop_columns(["_range"]).append_column("cum", pa.array(cum))

    return ranged.groupby("_range").map_groups(per_range, batch_format="pyarrow")


def token_pack_plan(
    docs: ray.data.Dataset,
    capacity: int,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_ranges: int = 64,
) -> ray.data.Dataset:
    """Assign each document to its training-sequence pack: pack_id =
    (tokens before this doc) // capacity, tokens counted by the text-count
    kernel with the BPE pattern of ``text_stats``, docs ordered by
    ``id_col``. Output: (id_col, n_tokens, pack_id)."""
    from ..functions.textops import TEXT_PATTERNS, count_patterns

    bpe = TEXT_PATTERNS["bpe_tokens"].engine

    def count_tokens(t: pa.Table) -> pa.Table:
        n = count_patterns(t[text_col], {"n_tokens": bpe})["n_tokens"]
        return pa.table({id_col: t[id_col], "n_tokens": n})

    counted = docs.map_batches(count_tokens, batch_format="pyarrow")
    with_cum = running_total(
        counted, order_col=id_col, value_col="n_tokens", num_ranges=num_ranges
    )

    def pack(t: pa.Table) -> pa.Table:
        cum = t["cum"].to_numpy(zero_copy_only=False)
        tok = t["n_tokens"].to_numpy(zero_copy_only=False)
        pid = (cum - tok) // capacity  # pack holding the doc's FIRST token
        return pa.table(
            {
                id_col: t[id_col],
                "n_tokens": t["n_tokens"],
                "pack_id": pa.array(pid.astype(np.int64)),
            }
        )

    return with_cum.map_batches(pack, batch_format="pyarrow")
