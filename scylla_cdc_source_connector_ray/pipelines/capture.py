"""The flagship CDC capture pipeline, Ray-Data-first.

Batch-mode capture (one logical window over a whole Dataset):

    read_parquet → map_batches(with_shard)           (stateless, zero-copy)
    → exchange.shuffle(derive_ops)                   (the ONE keyed shuffle)
    → map_batches(build_envelope)                    (stateless)
    → write_parquet / downstream stages

The keyed shuffle (:mod:`..stages.exchange`, one call per shard) co-locates
every row of a conversation (``hash(conv_id) % num_shards``) exactly like
the reference's stream-id → Vnode → task assignment
(``ConfigSerializerUtil.java:39-52``), and the within-shard
``(conv_id, turn_idx, ts, seq)`` sort enforces the ordering
invariant the reference inherits from Scylla's per-stream ``cdc$time`` order
(SURVEY.md §2.6). ``num_shards`` — not cluster size — bounds per-task memory:
at 100 TB set ``num_shards`` so one shard's window ≪ worker heap; shards are
processed independently so the streaming executor pipelines them.

The windowed / checkpointed micro-batch loop lives in
:mod:`..pipelines.runner`; this module is the pure data-plane.
"""

from __future__ import annotations

import os

import pyarrow as pa

import ray.data

from ..config import EngineConfig
from ..schema import with_shard
from ..sources.events_adapter import events_to_transcripts
from ..stages import exchange
from ..stages.envelope import build_envelope, flatten_envelope
from ..stages.op_derive import derive_ops


#: which events columns each transcript column derives from (for read pruning)
_EVENT_DEPS = {
    "conv_id": ["user_id"],
    "turn_idx": ["event_id"],
    "role": ["event_type"],
    "text": ["props", "event_type"],
    "tool": ["event_type"],
    "tags": ["event_type", "value"],
    "attrs": ["event_type", "value"],
    "meta": ["event_type", "props"],
    "pair": ["event_type", "value"],
    "ts": ["ts"],
    "seq": ["event_id"],
}


def read_transcripts_from_events(
    sf_dir: str, columns: list[str] | None = None
) -> ray.data.Dataset:
    """Transcript CDC log derived from the testdata ``events`` table
    (see :mod:`..sources.events_adapter` for the deterministic mapping).

    ``columns``: transcript columns actually needed downstream — prunes the
    events READ to their source columns (a 2-column consumer must not pay for
    the text payload leaving storage)."""
    src_cols = None
    if columns is not None:
        src_cols = sorted({c for col in columns for c in _EVENT_DEPS[col]})
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=src_cols)
    out = ds.map_batches(
        lambda b: events_to_transcripts(b, columns=columns), batch_format="pyarrow"
    )
    return out


def derive_stage(
    ds: ray.data.Dataset, cfg: EngineConfig, shard_fn=None, value_cols=None
) -> ray.data.Dataset:
    """shard → keyed shuffle → per-shard sort + op-derive (flat columns).
    ``shard_fn(batch) -> batch-with-shard`` defaults to plain hash sharding;
    the salted variant passes its own. ``value_cols`` extends the value-column
    set (e.g. the list/struct collection columns)."""
    from ..schema import VALUE_COLS

    vcols = tuple(value_cols) if value_cols is not None else VALUE_COLS
    nested = bool(set(vcols) - set(VALUE_COLS))
    if shard_fn is None:
        shard_fn = lambda b: with_shard(b, cfg.num_shards)  # noqa: E731
    # nested (list/struct) value columns cross the shuffle in the flat
    # transport encoding (schema.encode_nested): Ray's sort exchange mangles
    # nested layouts (polars blocks rewrite string→large_string per worker
    # and the merge fails), and flat columns shuffle cheaper anyway. The
    # partition task decodes before compute.
    from ..schema import decode_nested, encode_nested

    if nested:
        encode, decode = encode_nested, decode_nested
    else:
        encode = decode = lambda b: b  # noqa: E731

    def project(b: pa.Table) -> pa.Table:
        # the (possibly salted) shard IS the partition, and stays a column:
        # the envelope reports it as source.shard
        b = encode(shard_fn(b))
        return b.append_column(exchange.PART_COL, b["shard"])

    return exchange.shuffle(
        ds.map_batches(project, batch_format="pyarrow"),
        lambda t: derive_ops(decode(t), value_cols=vcols),
    )


def capture(
    ds: ray.data.Dataset, cfg: EngineConfig, shard_fn=None, value_cols=None
) -> ray.data.Dataset:
    """Transcript log Dataset → envelope change-event Dataset."""
    from ..schema import VALUE_COLS

    vcols = tuple(value_cols) if value_cols is not None else VALUE_COLS
    flat = derive_stage(ds, cfg, shard_fn, value_cols=vcols)
    return flat.map_batches(
        lambda t: build_envelope(t, cfg, value_cols=vcols),
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
    )


def capture_salted(
    ds: ray.data.Dataset, cfg: EngineConfig, hot_convs: list[str] | None = None
) -> ray.data.Dataset:
    """Capture with hot-conversation salting (see :mod:`..stages.salt`):
    one cheap count pre-aggregation finds hot convs, then the normal
    derive/envelope path runs on the salted sharding. Output content is
    identical to :func:`capture`; only placement differs."""
    from ..stages.salt import detect_hot_convs, with_salted_shard

    if hot_convs is None:
        hot_convs = detect_hot_convs(ds, cfg.hot_key_threshold)
    hot = frozenset(hot_convs)
    salt_chunk = max(1, cfg.hot_key_threshold // cfg.salt_factor)
    return capture(
        ds, cfg, shard_fn=lambda b: with_salted_shard(b, cfg.num_shards, hot, salt_chunk)
    )


def compaction(ds: ray.data.Dataset, cfg: EngineConfig) -> ray.data.Dataset:
    """Materialized current-state view: fold the CDC log per key and keep the
    last surviving row state (deleted keys drop out) — the engine's answer to
    "replay the changelog into a table". Same single shuffle as capture."""
    import numpy as np
    import pyarrow.compute as pc

    def last_per_key(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    "conv_id": pa.nulls(0, pa.string()),
                    "turn_idx": pa.nulls(0, pa.int32()),
                    "role": pa.nulls(0, pa.string()),
                    "text": pa.nulls(0, pa.string()),
                    "tool": pa.nulls(0, pa.string()),
                    "ts_us": pa.nulls(0, pa.int64()),
                }
            )
        conv = t["conv_id"].combine_chunks()
        turn = t["turn_idx"].combine_chunks()
        nxt_same = pc.and_(
            pc.equal(conv.slice(0, n - 1), conv.slice(1)),
            pc.equal(turn.slice(0, n - 1), turn.slice(1)),
        ).to_numpy(zero_copy_only=False)
        is_last = np.ones(n, dtype=bool)
        is_last[:-1] = ~nxt_same
        last = t.filter(pa.array(is_last))
        live = last.filter(pc.not_equal(last["op"], "d"))
        return pa.table(
            {
                "conv_id": live["conv_id"],
                "turn_idx": live["turn_idx"],
                "role": live["after_role"],
                "text": live["after_text"],
                "tool": live["after_tool"],
                "ts_us": live["after_ts"].combine_chunks().cast(pa.int64()),
            }
        )

    # fold inside the same per-shard partition task (a map_batches after
    # derive_stage could split a key across batch boundaries)
    return exchange.shuffle(
        ds, lambda t: last_per_key(derive_ops(t)), ["conv_id"], cfg.num_shards
    )


def capture_pd(ds: ray.data.Dataset, cfg: EngineConfig) -> ray.data.Dataset:
    """Capture over a log containing conversation tombstones (``turn_idx IS
    NULL`` ⇒ partition delete, reference M2 ``ScyllaChangesConsumer.java:271-283``):
    flattened change events with wiped before-images, synthetic per-key
    expansion deletes, and ``op='pd'`` marker records. Same single keyed
    shuffle as :func:`capture` — conversation tombstones hash to the same
    shard as their conversation's rows."""
    from ..stages.partition_delete import derive_flat_pd

    return exchange.shuffle(ds, derive_flat_pd, ["conv_id"], cfg.num_shards)


def history_intervals(ds: ray.data.Dataset, cfg: EngineConfig) -> ray.data.Dataset:
    """SCD2 history materialization: each change version of a key becomes a
    row with its validity interval [ts, next change of the same key); the
    current version stays open (valid_to NULL) — the temporal-table consumer
    view of the changelog, one keyed exchange + a vectorized within-key
    shift per shard."""
    import numpy as np
    import pyarrow.compute as pc

    def lead_per_key(t: pa.Table) -> pa.Table:
        t = t.sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending"),
             ("ts", "ascending"), ("seq", "ascending")]
        )
        n = t.num_rows
        ts_us = t["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        conv = t["conv_id"].combine_chunks()
        turn = t["turn_idx"].combine_chunks()
        valid_to = np.full(n, np.nan)
        if n > 1:
            same = pc.and_(
                pc.equal(conv.slice(0, n - 1), conv.slice(1)),
                pc.equal(turn.slice(0, n - 1), turn.slice(1)),
            ).to_numpy(zero_copy_only=False)
            valid_to[:-1] = np.where(same, ts_us[1:].astype(np.float64), np.nan)
        return pa.table(
            {
                "conv_id": conv,
                "turn_idx": turn,
                "seq": t["seq"],
                "text": t["text"],
                "valid_from_us": pa.array(ts_us, pa.int64()),
                "valid_to_us": pa.Array.from_pandas(
                    __import__("pandas").Series(valid_to), type=pa.float64()
                ).cast(pa.int64()),
            }
        )

    return exchange.shuffle(ds, lead_per_key, ["conv_id"], cfg.num_shards)


def compaction_pd(ds: ray.data.Dataset, cfg: EngineConfig) -> ray.data.Dataset:
    """Current-state view honouring conversation tombstones: keys whose last
    event precedes the conversation's final tombstone drop out."""
    from ..stages.partition_delete import compact_pd

    return exchange.shuffle(ds, compact_pd, ["conv_id"], cfg.num_shards)


def ttl_deletes(ds: ray.data.Dataset, cfg: EngineConfig, ttl_us: int) -> ray.data.Dataset:
    """Per-row TTL expiry events (reference ``CdcPerRowTtlDeleteIT``): same
    single keyed shuffle as capture; the log-wide horizon is one column-pruned
    aggregate computed up front."""
    import pyarrow.compute as pc

    from ..stages.ttl import ttl_delete_events

    def _max_ts(b: pa.Table) -> pa.Table:
        return pa.table({"m": [pc.max(b["ts"].cast(pa.int64())).as_py()]})

    parts = ds.select_columns(["ts"]).map_batches(_max_ts, batch_format="pyarrow").take_all()
    stamps = [r["m"] for r in parts if r["m"] is not None]
    if not stamps:  # empty log (or all-NULL ts): no timespan, no expiries
        return ray.data.from_arrow(ttl_delete_events(pa.table({}), ttl_us, 0))
    horizon_us = max(stamps)

    return exchange.shuffle(
        ds, lambda t: ttl_delete_events(t, ttl_us, horizon_us), ["conv_id"], cfg.num_shards
    )


def list_rebuild(ds: ray.data.Dataset, cfg: EngineConfig, element_col: str = "role") -> ray.data.Dataset:
    """Non-frozen list reconstruction (reference
    ``ScyllaChangeRecordEmitter.java:669-746``: non-frozen list cells are
    keyed by timeuuid and the consumer reorders elements by that key). The
    transcript analogue: each event appends ``element_col`` to its key's
    list, the timeuuid is ``(ts, seq)`` — elements may ARRIVE in any order,
    the rebuilt list is always in timeuuid order. One keyed shuffle, then a
    vectorized per-key run join (no per-group Python)."""
    import numpy as np
    import pyarrow.compute as pc

    def rebuild(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "conv_id": pa.nulls(0, pa.string()),
                "turn_idx": pa.nulls(0, pa.int32()),
                "elements_csv": pa.nulls(0, pa.string()),
                "n_elements": pa.nulls(0, pa.int64()),
            }
        )
        if t.num_rows == 0:
            return empty
        # NULL-safe grouping (SQL GROUP BY semantics: NULL keys form ONE
        # group) via a -1 sentinel for the boundary scan only
        t = t.append_column(
            "_turn_g", pc.fill_null(t["turn_idx"].combine_chunks(), -1)
        ).sort_by(
            [
                ("conv_id", "ascending"),
                ("_turn_g", "ascending"),
                ("ts", "ascending"),
                ("seq", "ascending"),
            ]
        )
        n = t.num_rows
        conv = t["conv_id"].combine_chunks()
        turn_g = t["_turn_g"].combine_chunks()
        first = np.empty(n, dtype=bool)
        first[0] = True
        if n > 1:
            same = pc.and_(
                pc.equal(conv.slice(0, n - 1), conv.slice(1)),
                pc.equal(turn_g.slice(0, n - 1), turn_g.slice(1)),
            ).to_numpy(zero_copy_only=False)
            np.logical_not(same, out=first[1:])
        starts = np.flatnonzero(first)
        lens = np.diff(np.concatenate((starts, [n])))
        # csv joins only NON-NULL elements (string_agg semantics);
        # n_elements counts all rows (count(*) semantics)
        elems = t[element_col].combine_chunks().cast(pa.string())
        valid = pc.is_valid(elems).to_numpy(zero_copy_only=False)
        group_of = np.repeat(np.arange(len(starts)), lens)
        kept_lens = np.bincount(group_of[valid], minlength=len(starts))
        offsets = np.zeros(len(starts) + 1, dtype=np.int32)
        np.cumsum(kept_lens, out=offsets[1:])
        lst = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), elems.filter(pa.array(valid))
        )
        keys = pa.array(starts, pa.int64())
        return pa.table(
            {
                "conv_id": conv.take(keys),
                "turn_idx": t["turn_idx"].combine_chunks().take(keys),
                "elements_csv": pc.binary_join(lst, ","),
                "n_elements": pa.array(lens, pa.int64()),
            }
        )

    return exchange.shuffle(ds, rebuild, ["conv_id"], cfg.num_shards)


def capture_flat(ds: ray.data.Dataset, cfg: EngineConfig) -> ray.data.Dataset:
    """Capture, then flatten the envelope back to plain columns — the shape
    the DuckDB oracle emits (drops engine-internal shard/modified cols)."""
    ev = capture(ds, cfg)
    return ev.map_batches(flatten_envelope, batch_format="pyarrow", batch_size=cfg.batch_size)


def _element_capture(ds: ray.data.Dataset, cfg: EngineConfig, fold_name: str) -> ray.data.Dataset:
    """Shared element-op exchange: encode nested cols into the flat counted
    transport, one keyed shuffle on conv_id, decode + fold per partition. The
    three collection kinds differ only in the fold kernel."""
    from ..schema import decode_nested, encode_nested
    from ..stages import element_ops

    fold = getattr(element_ops, fold_name)
    flat = ds.map_batches(encode_nested, batch_format="pyarrow")
    return exchange.shuffle(
        flat, lambda t: fold(decode_nested(t)), ["conv_id"], cfg.num_shards
    )


def element_ops_capture(ds: ray.data.Dataset, cfg: EngineConfig) -> ray.data.Dataset:
    """Element-level non-frozen collection capture (reference M8 tail,
    ``ScyllaChangeRecordEmitter.java:683-746`` / ``:361-398``): per-element
    add/remove/overwrite deltas folded into per-change post/pre images in
    timeuuid order. Same single keyed shuffle as :func:`capture`; the element
    lists cross the exchange in the flat counted-join transport."""
    return _element_capture(ds, cfg, "fold_element_ops")


def set_element_ops_capture(ds: ray.data.Dataset, cfg: EngineConfig) -> ray.data.Dataset:
    """Set variant of :func:`element_ops_capture`: add/remove-by-value/wipe
    deltas folded into value-ordered distinct post/pre images (re-adds
    idempotent). Consumes the same element-op log shape as the list variant."""
    return _element_capture(ds, cfg, "fold_set_element_ops")


def map_element_ops_capture(ds: ray.data.Dataset, cfg: EngineConfig) -> ray.data.Dataset:
    """Map variant of :func:`element_ops_capture`: upsert/delete-by-key/wipe
    entry deltas folded into key-ordered post/pre images."""
    return _element_capture(ds, cfg, "fold_map_element_ops")
