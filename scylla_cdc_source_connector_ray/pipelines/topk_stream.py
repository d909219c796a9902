"""Streaming per-group top-k: checkpointed bounded state over a windowed
log — the streaming face of ``stages/topk.py::top_k_per_group``.

Top-k is a MERGEABLE aggregate: top-k(union) = top-k(state ∪ batch-top-k),
so per-key state is bounded at k rows and micro-batching can never change
the result (the oracle is the batch row_number SQL verbatim, independent of
arrival order). Each micro-batch prunes to k rows per (key, block) first
(the same partial prune as the batch operator), exchanges at most
k × keys × blocks rows on ``hash(key)``, and each shard task re-ranks its
state slice ∪ batch survivors and keeps k per key.

Composes the shared micro-batch protocol: resume pins (num_shards /
hash_impl / k / value_col), exactly-once replay, manifest-gated reads.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from ..state.checkpoint import current_hash_impl
from ._microbatch import BatchResult, KeyedStateRunner


class TopKStreamRunner(KeyedStateRunner):
    """Micro-batch per-group top-k over ``log_dir/window-*.parquet``.
    ``columns`` (keys + value + tiebreak at minimum) are the state/output
    payload; supply tiebreak columns forming a total order or replay is
    nondeterministic across block layouts."""

    STATE_KIND = "topk"
    STATS = ("state_rows",)

    def __init__(
        self,
        log_dir: str,
        num_shards: int,
        checkpoint_dir: str,
        keys: list[str],
        value_col: str,
        k: int,
        tiebreak: list[str] = (),
        columns: list[str] | None = None,
    ):
        super().__init__(log_dir, num_shards, None, checkpoint_dir)
        self.keys = list(keys)
        self.value_col = value_col
        self.k = k
        self.tiebreak = list(tiebreak)
        self.columns = list(
            columns or [*self.keys, value_col, *self.tiebreak]
        )

    def pins(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "hash_impl": current_hash_impl(),
            # EVERY ranking ingredient is replay identity — a resumed run
            # with a different tiebreak or payload would silently replay
            # a batch under different pruning
            "topk_impl": "/".join(
                [
                    str(self.k),
                    self.value_col,
                    ",".join(self.keys),
                    ",".join(self.tiebreak),
                    ",".join(self.columns),
                ]
            ),
        }

    def plan(self, batch_id: int, bfiles: list[str]):
        keys, columns = self.keys, self.columns
        value_col, tiebreak, k = self.value_col, self.tiebreak, self.k
        num_shards = self.num_shards

        def prune(t: pa.Table) -> pa.Table:
            # plain closure over scalars — a bound method would ship the
            # whole runner (incl. its Checkpoint) into every map task
            from ..stages.topk import _rank_in_key

            t, pos = _rank_in_key(t, keys, value_col, tiebreak, True)
            return t.filter(pa.array(pos < k))

        def partial(t: pa.Table) -> pa.Table:
            from ..schema import shard_of

            t = prune(t.select(columns))
            return t.append_column("_shard", shard_of(t[keys[0]], num_shards))

        def fold(g: pa.Table, st: pa.Table | None):
            if st is not None:
                g = pa.concat_tables([st, g], promote_options="permissive")
            merged = prune(g)
            # canonical string type: the exchange may promote large_string,
            # which would make replayed state files byte-unstable
            for i, f in enumerate(merged.schema):
                if pa.types.is_large_string(f.type):
                    merged = merged.set_column(
                        i, f.name, merged[f.name].cast(pa.string())
                    )
            return None, merged, {"state_rows": merged.num_rows}

        return partial, fold

    def process(self, batch_id: int, bfiles: list[str]) -> BatchResult:
        r = super().process(batch_id, bfiles)
        # input rows from footers: the route prunes each slice to its top k
        # per key BEFORE the exchange, so a per-shard count would depend on
        # how the files were sliced
        r.stats = {"rows": sum(pq.read_metadata(f).num_rows for f in bfiles), **r.stats}
        return r

    # --------------------------------------------------------------- output
    def read_topk(self) -> pa.Table:
        """Final top-k rows + 1-based int64 ``rank`` from the COMMITTED
        state."""
        from ..stages.topk import _rank_in_key

        frames = self.read_state()
        if not frames:
            # typed empty result (an all-empty log commits but writes no
            # state): schema from the log + the rank column
            files = sorted(
                f for f in os.listdir(self.log_dir) if f.endswith(".parquet")
            )
            schema = pq.read_schema(os.path.join(self.log_dir, files[0]))
            empty = pa.table(
                {c: pa.array([], schema.field(c).type) for c in self.columns}
            )
            return empty.append_column("rank", pa.array([], pa.int64()))
        t = pa.concat_tables(frames, promote_options="permissive")
        t, pos = _rank_in_key(t, self.keys, self.value_col, self.tiebreak, True)
        return t.append_column("rank", pa.array(pos + 1, pa.int64()))
