"""Image-mode correlation: PRE_IMAGE / delta / POST_IMAGE → one change event
(reference ST1 — ``ScyllaChangesConsumer.java:104-233`` + the ``TaskInfo``
completion state machine ``TaskInfo.java:108-458``; straggler GC ST2
``ScyllaChangesConsumer.java:147-185``; key semantics ``RowKey.java:26-58``).

Input model: an image-mode CDC log where one logical change is up to three
rows sharing ``(conv_id, turn_idx, ts)`` — an optional ``PRE_IMAGE`` row, one
delta row (``INSERT``/``UPDATE``/``DELETE``), an optional ``POST_IMAGE`` row.
Rows of one change may arrive interleaved/type-grouped within a window (the
``CdcBatchPreimageMisalignmentIT`` regression): correlation keys on the full
``(conv_id, turn_idx, ts)`` identity, never on arrival order.

Completion rules (``TaskInfo.java``): INSERT needs {delta[, post]}, UPDATE
needs {pre?, delta[, post]} with pre required iff preimages enabled, DELETE
needs {pre?, delta}. Incomplete changes older than ``straggler_timeout_us``
*in event time* relative to the block's max ``ts`` are dropped and counted
(deterministic replays — SURVEY.md §7.4), younger ones are returned as a
carry-over residual for the next micro-batch.

Fully vectorized: one sort + numpy scatter per image kind; no per-row Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import SEQ_COL, VALUE_COLS

#: op_kind values in the image-mode log
PRE_IMAGE = "PRE_IMAGE"
INSERT = "INSERT"
UPDATE = "UPDATE"
DELETE = "DELETE"
POST_IMAGE = "POST_IMAGE"

_DELTAS = (INSERT, UPDATE, DELETE)
_OP_CODE = {INSERT: "c", UPDATE: "u", DELETE: "d"}


def correlate_images(
    tbl: pa.Table,
    want_preimage: bool = True,
    want_postimage: bool = True,
    straggler_timeout_us: int = 15_000_000,
    carry: pa.Table | None = None,
) -> tuple[pa.Table, pa.Table, int]:
    """One co-located block of image-mode rows → (events, residual, n_dropped).

    ``carry``: residual rows from the previous micro-batch (same schema as
    input). Returns the correlated flat events (same column layout as
    ``op_derive.derive_ops`` output, including ``modified_cols`` diffed from
    the pre/post images), the new residual, and the straggler-dropped count.
    """
    if carry is not None and carry.num_rows:
        # conform the carry to the batch's encoding: a carry written from an
        # exchange block may hold large_string where the batch has string
        tbl = pa.concat_tables([carry.select(tbl.column_names).cast(tbl.schema), tbl])
    if tbl.num_rows == 0:
        return _empty_events(tbl), tbl, 0

    has_cid = "change_id" in tbl.column_names
    sort_keys = [("conv_id", "ascending"), ("turn_idx", "ascending"), ("ts", "ascending")]
    if has_cid:
        sort_keys.append(("change_id", "ascending"))
    sort_keys.append((SEQ_COL, "ascending"))
    tbl = tbl.sort_by(sort_keys)
    n = tbl.num_rows
    conv = tbl["conv_id"].combine_chunks()
    turn = tbl["turn_idx"].combine_chunks()
    ts = tbl["ts"].combine_chunks().cast(pa.int64())
    kind = tbl["op_kind"].combine_chunks().to_numpy(zero_copy_only=False)

    # group id per (conv_id, turn_idx, ts[, change_id]) — one logical change;
    # change_id (when the log carries it) keeps two changes that collide on
    # the same event time distinct, like cdc$time timeuuid uniqueness
    same = pc.and_(
        pc.and_(
            pc.equal(conv.slice(0, n - 1), conv.slice(1)),
            pc.equal(turn.slice(0, n - 1), turn.slice(1)),
        ),
        pc.equal(ts.slice(0, n - 1), ts.slice(1)),
    ).to_numpy(zero_copy_only=False)
    if has_cid:
        cid = tbl["change_id"].combine_chunks()
        same &= pc.equal(cid.slice(0, n - 1), cid.slice(1)).to_numpy(zero_copy_only=False)
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = ~same
    gid = np.cumsum(new_group) - 1
    G = int(gid[-1]) + 1
    g_start = np.flatnonzero(new_group)

    # scatter each image kind to its group slot
    has = {k: np.zeros(G, dtype=bool) for k in (PRE_IMAGE, POST_IMAGE, "delta")}
    row_of = {k: np.zeros(G, dtype=np.int64) for k in (PRE_IMAGE, POST_IMAGE, "delta")}
    delta_kind = np.empty(G, dtype=object)
    for k in (PRE_IMAGE, POST_IMAGE):
        rows = np.flatnonzero(kind == k)
        has[k][gid[rows]] = True
        row_of[k][gid[rows]] = rows
    drows = np.flatnonzero(np.isin(kind, _DELTAS))
    has["delta"][gid[drows]] = True
    row_of["delta"][gid[drows]] = drows
    delta_kind[gid[drows]] = kind[drows]

    # completion per TaskInfo rules
    complete = has["delta"].copy()
    if want_preimage:
        need_pre = np.isin(delta_kind, (UPDATE, DELETE))
        complete &= ~need_pre | has[PRE_IMAGE]
    if want_postimage:
        need_post = np.isin(delta_kind, (INSERT, UPDATE))
        complete &= ~need_post | has[POST_IMAGE]

    # stragglers: incomplete changes older than the block frontier
    g_ts = ts.to_numpy(zero_copy_only=False)[g_start]
    frontier = int(g_ts.max())
    too_old = g_ts < frontier - straggler_timeout_us
    dropped = (~complete) & too_old
    residual_groups = (~complete) & ~too_old
    n_dropped = int(dropped.sum())

    residual = tbl.filter(pa.array(residual_groups[gid]))

    emit = np.flatnonzero(complete)
    if len(emit) == 0:
        return _empty_events(tbl), residual, n_dropped

    take = lambda rows: pa.array(rows, pa.int64())  # noqa: E731
    d_rows = row_of["delta"][emit]
    op = pa.array([_OP_CODE[k] for k in delta_kind[emit]], pa.string())
    is_del = delta_kind[emit] == DELETE

    cols: dict[str, pa.Array] = {
        "conv_id": pc.take(conv, take(g_start[emit])),
        "turn_idx": pc.take(turn, take(g_start[emit])),
        "op": op,
    }
    # after: post image if present (and wanted) else the delta row; NULL for deletes
    after_src = np.where(
        want_postimage & has[POST_IMAGE][emit], row_of[POST_IMAGE][emit], d_rows
    )
    pre_rows = row_of[PRE_IMAGE][emit]
    has_pre = has[PRE_IMAGE][emit] & want_preimage
    modified_parts = []
    for vc in VALUE_COLS:
        # the row-state ts value (≙ writetime) is carried as ``row_ts`` when
        # the log separates it from the correlation key ``ts`` (≙ cdc$time)
        src_name = "row_ts" if vc == "ts" and "row_ts" in tbl.column_names else vc
        col = tbl[src_name].combine_chunks()
        after = pc.take(col, take(after_src))
        after = pc.if_else(pa.array(is_del), pa.nulls(len(emit), col.type), after)
        before = pc.take(col, take(pre_rows))
        before = pc.if_else(pa.array(has_pre), before, pa.nulls(len(emit), col.type))
        cols["after_" + vc] = after
        cols["before_" + vc] = before
        if vc != "ts":
            # image-mode modified-columns (reference getModifiedColumns,
            # ScyllaChangeRecordEmitter.java:361-398): pre vs post image diff
            from .op_derive import _values_neq

            modified_parts.append((vc, _values_neq(after, before)))
    from .op_derive import modified_cols_string

    cols["modified_cols"] = modified_cols_string(modified_parts, len(emit))
    cols["ts"] = pc.take(ts, take(g_start[emit])).cast(pa.timestamp("us"))
    cols[SEQ_COL] = pc.take(tbl[SEQ_COL].combine_chunks(), take(d_rows))
    if "shard" in tbl.column_names:
        cols["shard"] = pc.take(tbl["shard"].combine_chunks(), take(g_start[emit]))
    return pa.table(cols), residual, n_dropped


def _empty_events(src: pa.Table | None = None) -> pa.Table:
    """Zero-row output with the SAME schema as non-empty output (incl. the
    shard passthrough) — empty and non-empty blocks must concat/unify."""
    cols: dict[str, pa.Array] = {
        "conv_id": pa.nulls(0, pa.string()),
        "turn_idx": pa.nulls(0, pa.int32()),
        "op": pa.nulls(0, pa.string()),
    }
    for vc, t in (
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ):
        cols["after_" + vc] = pa.nulls(0, t)
        cols["before_" + vc] = pa.nulls(0, t)
    cols["modified_cols"] = pa.nulls(0, pa.string())
    cols["ts"] = pa.nulls(0, pa.timestamp("us"))
    cols[SEQ_COL] = pa.nulls(0, pa.int64())
    if src is not None and "shard" in src.column_names:
        cols["shard"] = pa.nulls(0, src.schema.field("shard").type)
    return pa.table(cols)
