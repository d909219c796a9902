"""Streaming curation chain: the full repetition → decontamination →
exact-dedup → per-source-cap composition as ONE checkpointed exactly-once
micro-batch runner.

The batch form (``functions/corpus.py::curation_chain``) runs the four
stages as one lazy Dataset chain; this runner is its ingest-time twin: a
windowed document log is consumed micro-batch by micro-batch, and the two
stateful stages carry checkpointed per-shard state across batches —

* **seen-hash state** (kind ``cseen``): the dedup stage's first-occurrence
  filter, 16-byte content hashes per shard, sorted — the exact kernel of
  ``DedupStreamRunner`` (``_hash128`` / ``_member128`` are imported from
  there, and the same ``NORM_IMPL`` pin protects the normalization).
* **admission-count state** (kind ``ccap``): the cap stage's per-source
  admitted counts plus the emitted ``rank`` — the ``SourceCapRunner``
  kernel, extended to carry rank so the output matches the batch chain's
  ``top_k_per_group`` columns exactly.

Both stages commit state keyed by ``batch_id`` BEFORE the batch manifest
commits (the shared ``_microbatch`` protocol), so a crash anywhere replays
the whole batch from both pre-batch snapshots and regenerates byte-identical
output — one commit point for the whole chain, not one per stage.

With a ``doc_id``-ordered log the admitted set equals the batch chain's
(first arrival = min doc_id), so the SQL twin IS ``oracles.CURATION_CHAIN``
— micro-batching must never change the curated corpus.

Scale shape (100 TB): the two stateless filters run BEFORE anything moves
(corpus reduced in-task; decontamination's gram blocklist is built once per
task); the dedup exchange ships only (hash, id, source) — text never
crosses an exchange; the cap exchange ships the deduped survivors (≤ cap·
|sources| long-run). State families are the two smallest here: hashes/shard
and one int per source/shard.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..state.checkpoint import current_hash_impl
from ._microbatch import BatchResult, KeyedStateRunner, _as_format, exchange_metrics
from .cap_stream import admit_first, drop_saturated, saturated_keys
from .dedup_stream import _hash128, first_occurrence


class CurationStreamRunner(KeyedStateRunner):
    """Micro-batch curation over ``log_dir/window-*.parquet``.

    Output: ``sink_dir/batch-B/shard-K.parquet`` with columns
    ``(id_col, source_col, rank)`` — the admitted documents, rank =
    global per-source admission index (1-based, arrival order)."""

    SEEN_KIND = "cseen"
    CAP_KIND = "ccap"
    STATS = ("cap_in", "admitted")

    def __init__(
        self,
        log_dir: str,
        num_shards: int,
        sink_dir: str,
        checkpoint_dir: str,
        max_dup_micro: int = 60_000,
        cap_k: int = 10,
        text_col: str = "text",
        id_col: str = "doc_id",
        source_col: str = "source",
    ):
        super().__init__(log_dir, num_shards, sink_dir, checkpoint_dir)
        self.max_dup_micro = int(max_dup_micro)
        self.cap_k = int(cap_k)
        self.text_col = text_col
        self.id_col = id_col
        self.source_col = source_col

    def pins(self) -> dict:
        from ..functions.textops import NORM_IMPL

        return {
            "num_shards": self.num_shards,
            "norm_impl": NORM_IMPL,
            "max_dup_micro": self.max_dup_micro,
            "cap_k": self.cap_k,
            "curation_cols": f"{self.text_col}/{self.id_col}/{self.source_col}",
            # sources route through the polars-backed shard_of: a polars
            # upgrade could move a source away from its admitted count
            "hash_impl": current_hash_impl(),
        }

    def process(self, batch_id: int, bfiles: list[str]) -> BatchResult:
        from ..functions.corpus import RepDecontamFilter
        from ..schema import shard_of

        text_col, id_col, source_col = self.text_col, self.id_col, self.source_col
        num_shards, cap_k, max_dup_micro = self.num_shards, self.cap_k, self.max_dup_micro

        def hash_route(b: pa.Table) -> pa.Table:
            # text is consumed HERE: only (hash words, id, source) cross the
            # dedup exchange (the DedupStreamRunner transport)
            if b.num_rows == 0:
                return pa.table(
                    {
                        id_col: pa.array([], pa.int64()),
                        source_col: pa.array([], pa.string()),
                        "_h1": pa.array([], pa.uint64()),
                        "_h2": pa.array([], pa.uint64()),
                        "_shard": pa.array([], pa.int32()),
                    }
                )
            h1, h2 = _hash128(b[text_col])
            return pa.table(
                {
                    id_col: b[id_col],
                    source_col: b[source_col],
                    "_h1": h1,
                    "_h2": h2,
                    "_shard": (h1 % np.uint64(num_shards)).astype(np.int32),
                }
            )

        def dedup_fold(g: pa.Table, st: pa.Table | None):
            """First-occurrence filter per hash shard; state = sorted
            (h1, h2) seen set (the DedupStreamRunner kernel, returning
            survivors downstream instead of writing a sink)."""
            rows, state = first_occurrence(g, id_col, st)
            return g.select([id_col, source_col]).take(rows), state, {}

        class FilterHashRoute:
            """Repetition + decontamination filter, then :func:`hash_route`:
            the filter (and its gram blocklist) is built once per task and
            sees each slice as pandas."""

            def __init__(self):
                self.filter = RepDecontamFilter(
                    max_dup_micro, text_col=text_col, id_col=id_col, source_col=source_col
                )

            def __call__(self, t: pa.Table) -> pa.Table:
                return hash_route(_as_format(self.filter(_as_format(t, "pandas")), "pyarrow"))

        # --- cap stage: route survivors by source -------------------------
        sat = saturated_keys(self, batch_id, self.CAP_KIND, source_col, cap_k)
        sat_ref = ray.put(sat) if sat is not None else None

        def cap_route(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or source_col not in t.column_names:
                return pa.table(
                    {
                        id_col: pa.array([], pa.int64()),
                        source_col: pa.array([], pa.string()),
                        "_cshard": pa.array([], pa.int32()),
                    }
                )
            key = t[source_col]
            # an all-null pandas block types source as NULL; a large_string
            # block as large_string — normalize both to string so the
            # saturated-set is_in cast and the state schema stay stable
            if pa.types.is_null(key.type) or pa.types.is_large_string(key.type):
                t = t.set_column(
                    t.schema.get_field_index(source_col), source_col, key.cast(pa.string())
                )
            t = drop_saturated(t, source_col, sat_ref)
            return t.append_column("_cshard", shard_of(t[source_col], num_shards))

        sink_schema = pa.schema(
            [(id_col, pa.int64()), (source_col, pa.string()), ("rank", pa.int64())]
        )

        def cap_fold(gt: pa.Table, st: pa.Table | None):
            out, rank, state = admit_first(gt, st, source_col, id_col, cap_k, pa.string())
            out = out.select([id_col, source_col]).append_column("rank", pa.array(rank))
            return out.cast(sink_schema), state, {"cap_in": gt.num_rows, "admitted": out.num_rows}

        survivors = self.keyed(
            bfiles, FilterHashRoute, dedup_fold, batch_id, kind=self.SEEN_KIND, emit=True,
            columns=[id_col, text_col, source_col],
        )
        shards = ray.get(
            self.keyed(
                survivors, cap_route, cap_fold, batch_id, kind=self.CAP_KIND, shard_col="_cshard"
            )
        )
        # per-stage splits (filtered vs dup) are the standalone runners'
        # metrics; the composed runner reports the chain's endpoints
        rows = sum(pq.read_metadata(f).num_rows for f in bfiles)
        return BatchResult(
            {"rows": rows, **self.sum_stats(shards)}, metrics=exchange_metrics(shards)
        )
