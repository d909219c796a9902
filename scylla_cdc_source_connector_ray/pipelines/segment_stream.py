"""Streaming segment-level (sub-document) exact dedup: checkpointed
first-occurrence filter over fixed word spans of a document stream — the
micro-batch form of :func:`functions.dedup.segment_dedup` (RefinedWeb/CCNet
line-dedup with a fixed span standing in for the line).

Semantics: a segment survives iff it was never seen in ANY earlier committed
batch and is the (doc_id, seg_idx)-minimal occurrence within its own batch —
with doc ids monotone across windows (the ingest contract every runner here
shares) that is exactly the batch operator's global first-occurrence order,
so batching never changes the result. Output per doc: (doc_id, text_dedup,
n_segs_kept, n_segs_total), NULL text_dedup when every segment was seen.

Scale shape (100 TB): per batch, ONE segment-hash exchange of 24 B/segment
decision rows (md5-128 + packed (doc,seg) key — segment text never crosses
it) into per-shard sorted seen-state (the ``dedup_stream`` state family:
state ∝ unique segments / num_shards, one ``searchsorted`` probe), then ONE
chained exchange keyed by reassembly part (``_pid``, a hash of the doc id)
over the decision blocks and the batch's files, carrying each doc's text
once plus its kept pairs; each part's fold reassembles its docs and writes
sink ``part-K``. Both are ``_microbatch.exchange`` task graphs. Replay of a
committed batch reads the state as-of the batch start, so output is
byte-identical (same exactly-once contract as ``CaptureRunner``).

Reference anchor: the connector's at-least-once delivery + idempotent sink
(README.md:9,18) strengthened to exactly-once, reused for corpus curation.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ._microbatch import BatchResult, KeyedStateRunner, each_partition, exchange, exchange_metrics
from .dedup_stream import _member128, _seen128, _union128


class SegmentDedupStreamRunner(KeyedStateRunner):
    """Micro-batch segment dedup over ``log_dir/window-*.parquet``.

    Output: ``sink_dir/batch-B/part-K.parquet`` — one row per non-empty doc
    of the batch, doc_id-ordered inside each part file (deterministic for
    replay). ``read_output`` returns only COMMITTED batches."""

    STATE_KIND = "segs"
    STATS = ("docs", "segs_kept", "segs_total")
    BATCH_FORMAT = "pandas"
    #: pinned sink schema: an empty or all-dropped part must not let pandas
    #: degrade text_dedup to null type in the file (state/sink parquet is
    #: always written with an explicit schema)
    OUT_SCHEMA = pa.schema(
        [
            pa.field("doc_id", pa.int64()),
            pa.field("text_dedup", pa.string()),
            pa.field("n_segs_kept", pa.int64()),
            pa.field("n_segs_total", pa.int64()),
        ]
    )

    def __init__(
        self,
        log_dir: str,
        num_shards: int,
        sink_dir: str,
        checkpoint_dir: str,
        seg_words: int = 20,
        text_col: str = "text",
        id_col: str = "doc_id",
        num_parts: int = 16,
    ):
        super().__init__(log_dir, num_shards, sink_dir, checkpoint_dir)
        self.seg_words = seg_words
        self.text_col = text_col
        self.id_col = id_col
        self.num_parts = num_parts

    def pins(self) -> dict:
        return {
            "num_shards": self.num_shards,
            # segment boundaries, hash, and the reassembly file layout are
            # all replay identity: a checkpoint written under a different
            # span width / tokenizer / part fan-out must fail loudly.
            # ws-re2 = the RE2-exact [\t\n\f\r ] whitespace class;
            # md5-2x64 = little-endian md5 halves (DuckDB md5_number_*).
            "seg_impl": f"{self.seg_words}/{self.text_col}/{self.id_col}"
            f"/ws-re2/md5-2x64",
            "sink_layout": f"part-v1/{self.num_parts}",
        }

    def process(self, batch_id: int, bfiles: list[str]) -> BatchResult:
        """Keyed decision stage (packed (doc, position) keys ``_pk`` out),
        then ONE chained doc-keyed exchange over the decided keys and the
        batch's documents, reassembled per part into the sink."""
        from ..functions.dedup import _seg_doc_rows_table, _seg_unpack_table

        self._check_monotone_ids(batch_id, bfiles)
        route, fold = self.plan(batch_id, bfiles)
        text_col, id_col, num_parts = self.text_col, self.id_col, self.num_parts
        reassemble, out_schema, stats = self.reassembler(), self.OUT_SCHEMA, self.STATS

        def part_route(b: pd.DataFrame) -> pa.Table:
            """Decided keys or a document slice → reassembly rows by ``_pid``."""
            if "_pk" in b.columns:
                return _seg_unpack_table(b["_pk"].to_numpy(), num_parts)
            return _seg_doc_rows_table(b, text_col, id_col, num_parts)

        def part_fold(pid: int, b: pd.DataFrame, priors: dict):
            out = reassemble(b).sort_values("doc_id", kind="mergesort")
            # docs, then the per-doc n_<stat> columns summed
            counts = {"docs": len(out), **{c: int(out[f"n_{c}"].sum()) for c in stats[1:]}}
            table = pa.Table.from_pandas(out, schema=out_schema, preserve_index=False)
            return {"": table}, {}, counts

        decided = self.keyed(bfiles, route, fold, batch_id, emit=True)
        shards = ray.get(
            exchange(
                [*decided, *bfiles], each_partition(part_fold), num_parts, batch_id=batch_id,
                ckpt_dir=self.ckpt.dir, sink_dir=self.sink_dir, name="part-{:05d}",
                route=part_route, fmt="pandas", shard_col="_pid",
                columns=[text_col, id_col], num_shards=self.num_shards,
            )
        )
        return BatchResult(self.sum_stats(shards), metrics=exchange_metrics(shards))

    def reassembler(self):
        from ..functions.dedup import _seg_reassemble_part

        seg_words = self.seg_words
        return lambda b: _seg_reassemble_part(b, seg_words)

    def plan(self, batch_id: int, bfiles: list[str]):
        from ..functions.dedup import _first_pk_per_hash, _seg_decision_arrays

        text_col, id_col = self.text_col, self.id_col
        seg_words, num_shards = self.seg_words, self.num_shards

        def decisions(b: pd.DataFrame) -> pa.Table:
            h1, h2, pk = _seg_decision_arrays(b, text_col, id_col, seg_words)
            return pa.table(
                {
                    "_h1": pa.array(h1, pa.int64()),
                    "_h2": pa.array(h2, pa.int64()),
                    "_pk": pa.array(pk, pa.int64()),
                    "_shard": pa.array(
                        (h1.view(np.uint64) % np.uint64(num_shards)).astype(
                            np.int32
                        )
                    ),
                }
            )

        def fold(g: pd.DataFrame, st: pa.Table | None):
            """First occurrence per segment hash: batch-min packed key vs
            the shard's seen-state; state = prev ∪ newly-kept, (h1,h2)-sorted.
            Emits the kept packed keys (ints only — text never enters the
            decision plane)."""
            s1, s2 = _seen128(st, np.int64)
            h1, h2, pk = _first_pk_per_hash(
                g["_h1"].to_numpy(), g["_h2"].to_numpy(), g["_pk"].to_numpy()
            )
            # batch winners vs prior state: the probe is one searchsorted
            # over the (h1, h2)-sorted state (h1-run scan for collisions;
            # _member128 is dtype-agnostic, state here is int64 end-to-end)
            seen = _member128(s1, s2, h1, h2)
            state = _union128(s1, s2, h1[~seen], h2[~seen])
            return pa.table({"_pk": pa.array(pk[~seen], pa.int64())}), state, {}

        return decisions, fold

    def _check_monotone_ids(self, batch_id: int, bfiles: list[str]) -> None:
        """Fail loudly when a batch's min doc id does not exceed every prior
        batch's max — the monotone-id ingest contract the stream≡batch
        equivalence rests on. A duplicate id arriving in a LATER batch would
        otherwise emit a second output row for the same doc (the batch
        operator raises instead). Footer stats only (no data read); the
        running max rides the checkpoint as a one-row ``idrg`` state on
        shard 0, so the guard survives kill-resume. Files without id stats
        skip the check for that boundary (carried max unchanged)."""
        lo = hi = None
        for f in bfiles:
            md = pq.ParquetFile(f).metadata
            try:
                ci = md.schema.names.index(self.id_col)
            except ValueError:
                return
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(ci).statistics
                if st is None or not st.has_min_max:
                    continue
                lo = st.min if lo is None else min(lo, st.min)
                hi = st.max if hi is None else max(hi, st.max)
        prev = self.ckpt.load_state(0, before_batch=batch_id, kind="idrg")
        prev_max = None
        if prev is not None:
            col = prev["max_id"]
            prev_max = col[0].as_py() if len(col) else None
        if prev_max is not None and lo is not None and lo <= prev_max:
            raise ValueError(
                f"batch {batch_id} contains doc ids from {lo} but an earlier "
                f"batch reached {prev_max}: window files must carry "
                f"monotonically increasing {self.id_col} (a repeated id would "
                "emit duplicate output rows)"
            )
        carried = hi if hi is not None else prev_max
        self.ckpt.write_state(
            0,
            batch_id,
            pa.table({"max_id": pa.array([carried], pa.int64())}),
            kind="idrg",
        )
