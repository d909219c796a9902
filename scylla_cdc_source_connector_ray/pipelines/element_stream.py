"""Streaming element-level collection capture: the M8 element-op folds
(list / set / map) running in the checkpointed micro-batch model.

Each micro-batch is folded with the SAME kernels as the batch path
(``stages/element_ops.py``); cross-batch continuity comes from per-shard
state holding each key's live cells in emission order plus the key's last
post-image. A state row is replayed into the next batch as one synthetic
``kind='seed'`` row sorted before every real row of its key (ts = -2^62 µs,
seq = -1): the fold's own lagging then yields the correct pre-image for the
batch's first real event, removes/wipes/overwrites kill seed cells exactly
like cells added in-batch, and seed rows are dropped from the emitted
envelope. Output is SPLIT-INVARIANT: any windowing of an in-order log
produces byte-identical events to the single-batch fold (property-tested).

Ordering contract: the log must be (ts, seq)-ordered across window files per
key — the same in-order contract as the capture runner's windowed layout.

Scale shape: rows exchange once per batch on the key shard (same
``with_shard`` hash as batch capture). State holds one row per key ever seen
(live cells only per key — killed cells leave it; an empty row is
load-bearing for the empty-vs-null pre-image distinction), but only keys
with rows in the CURRENT batch are replayed as seeds (state semi-join), so
per-batch fold cost is proportional to the batch's keys, not the stream's
total key count. Exactly-once: deterministic
per-(batch, shard) sink files + manifest-gated ``read_output``, replay
regenerates both state and output byte-identically (``Checkpoint``
primitives shared with ``CaptureRunner`` / ``DedupStreamRunner``).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..state.checkpoint import current_hash_impl
from ._microbatch import KeyedStateRunner

#: sorts before any real event's timestamp (timestamp[us] int64 range)
_SEED_TS_US = -(2**62)

_KINDS = {
    # kind -> (fold name, add/vals/rem columns, has vals)
    "list": ("fold_element_ops", ("add_elems", None, "rem_elems")),
    "set": ("fold_set_element_ops", ("add_elems", None, "rem_elems")),
    "map": ("fold_map_element_ops", ("add_keys", "add_vals", "rem_keys")),
}


class ElementStreamRunner(KeyedStateRunner):
    """Micro-batch element-op capture over ``log_dir/window-*.parquet``."""

    STATE_KIND = "estate"
    STATS = ("events",)

    def __init__(
        self,
        log_dir: str,
        num_shards: int,
        sink_dir: str,
        checkpoint_dir: str,
        collection: str = "list",
    ):
        if collection not in _KINDS:
            raise ValueError(f"collection must be one of {sorted(_KINDS)}")
        super().__init__(log_dir, num_shards, sink_dir, checkpoint_dir)
        self.collection = collection

    def pins(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "collection": self.collection,
            # with_shard hashes conv_id via the polars-backed shard_of: a
            # polars upgrade could remap keys and orphan their carry state
            # (same guard CaptureRunner carries) — pin the hash identity
            "hash_impl": current_hash_impl(),
        }

    def plan(self, batch_id: int, bfiles: list[str]):
        from ..schema import decode_nested, encode_nested, with_shard
        from ..stages import element_ops

        fold_name, (add_col, vals_col, rem_col) = _KINDS[self.collection]
        fold_ops = getattr(element_ops, fold_name)
        num_shards = self.num_shards
        in_schema = pq.read_schema(bfiles[0])

        def route(b: pa.Table) -> pa.Table:
            return encode_nested(with_shard(b, num_shards, "_shard"))

        def fold(t: pa.Table, st: pa.Table | None):
            t = decode_nested(t)
            untouched = None
            if st is not None:
                # only keys with rows in THIS batch need seed replay — the
                # rest of the state carries through untouched, so per-batch
                # fold cost is proportional to the batch's keys, not every
                # key ever seen
                bkeys = _key_strings(t).unique()
                touched_mask = pc.is_in(_key_strings(st), value_set=bkeys)
                touched = st.filter(touched_mask)
                untouched = st.filter(pc.invert(touched_mask))
                seeds = _seed_rows(touched, in_schema, add_col, vals_col, rem_col)
                t = pa.concat_tables([seeds, t], promote_options="permissive")
            events, state = fold_ops(t, with_final_state=True)
            out = events.filter(pc.not_equal(events["kind"], "seed"))
            if untouched is not None and untouched.num_rows:
                state = pa.concat_tables([state, untouched], promote_options="permissive")
            # the seed concat can promote string->large_string in some
            # batches but not others: pin one sink schema so read_output's
            # concat never sees mixed widths, and canonicalize STATE types
            # too — replayed state files must be byte-identical
            return _narrow_strings(out), _narrow_strings(state), {"events": out.num_rows}

        return route, fold


def _narrow_strings(t: pa.Table) -> pa.Table:
    return t.cast(
        pa.schema(
            [
                pa.field(f.name, pa.string() if pa.types.is_large_string(f.type) else f.type)
                for f in t.schema
            ]
        )
    )


def _key_strings(t: pa.Table) -> pa.Array:
    """(conv_id, turn_idx) as one string key for the state semi-join."""
    return pc.binary_join_element_wise(
        t["conv_id"].combine_chunks().cast(pa.string()),
        t["turn_idx"].combine_chunks().cast(pa.string()),
        "\x1f",
    )


def _seed_rows(
    state: pa.Table, in_schema: pa.Schema, add_col: str, vals_col: str | None, rem_col: str
) -> pa.Table:
    """One synthetic ``kind='seed'`` row per state key, carrying the key's
    live cells as its adds — sorted before every real row (ts = -2^62 µs,
    seq = -1) so the fold replays them as pre-existing cells."""
    n = state.num_rows
    ts_type = in_schema.field("ts").type
    ts = pa.array([_SEED_TS_US] * n, pa.int64())
    if pa.types.is_timestamp(ts_type):
        ts = ts.cast(ts_type)
    cols = {
        "conv_id": state["conv_id"].combine_chunks(),
        "turn_idx": state["turn_idx"].combine_chunks(),
        "ts": ts,
        "seq": pa.array([-1] * n, pa.int64()),
        "kind": pa.array(["seed"] * n, pa.string()),
        add_col: state["elems"].combine_chunks(),
        rem_col: pa.array([[]] * n, pa.list_(pa.string())),
    }
    if vals_col is not None:
        cols[vals_col] = state["vals"].combine_chunks()
    return pa.table(cols)
