"""Streaming repeated-substring span removal: checkpointed first-occurrence
gram filter over a document stream — the micro-batch form of
:func:`functions.dedup.substring_dedup` (the Lee et al. ACL'22 substring-
dedup analogue over word k-grams), completing the dedup matrix:
(doc, segment, substring) x (batch, streaming).

Semantics: a word k-gram occurrence survives iff its gram was never seen in
ANY earlier committed batch and it is the (doc_id, position)-minimal
occurrence within its own batch — with doc ids monotone across windows (the
shared ingest contract, guarded by the inherited footer check) that is
exactly the batch operator's global first-occurrence order, so batching
never changes the result. Every later occurrence cuts its ``[pos, pos+k)``
word span; uncovered words re-join in original case and order. Output per
non-empty doc: (doc_id, text_dedup, n_words_kept, n_words_total), NULL
text_dedup when everything was covered.

Scale shape (100 TB): per batch ONE gram-keyed exchange of 24 B/instance
decision rows — minus within-block repeats, which short-circuit straight to
the reassembly exchange as pre-decided cuts (on duplicate-heavy corpora most
instances never reach the gram exchange). Shard state is the sorted seen-gram
set (8 B/unique gram — HALF the segment runner's md5-128 family; gram-hash
equality stands in for gram equality exactly as in the batch operator and
its SQL twin). Text crosses only the doc-keyed reassembly exchange, once.
Replay reads state as-of the batch start — byte-identical output, the same
exactly-once contract as ``CaptureRunner``.

Reference anchor: the connector's at-least-once delivery + idempotent sink
(README.md:9,18) strengthened to exactly-once, reused for corpus curation.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ._microbatch import KeyedStateRunner
from .segment_stream import SegmentDedupStreamRunner


class SubstringDedupStreamRunner(SegmentDedupStreamRunner):
    """Micro-batch substring dedup over ``log_dir/window-*.parquet``.

    Output: ``sink_dir/batch-B/part-K.parquet`` — one row per non-empty doc
    of the batch, doc_id-ordered inside each part file. The decision
    stage emits CUT keys; the id guard, reassembly exchange and
    ``read_output`` are inherited."""

    STATE_KIND = "grams"
    STATS = ("docs", "words_kept", "words_total")
    OUT_SCHEMA = pa.schema(
        [
            pa.field("doc_id", pa.int64()),
            pa.field("text_dedup", pa.string()),
            pa.field("n_words_kept", pa.int64()),
            pa.field("n_words_total", pa.int64()),
        ]
    )

    def __init__(
        self,
        log_dir: str,
        num_shards: int,
        sink_dir: str,
        checkpoint_dir: str,
        k: int = 8,
        text_col: str = "text",
        id_col: str = "doc_id",
        num_parts: int = 16,
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        KeyedStateRunner.__init__(self, log_dir, num_shards, sink_dir, checkpoint_dir)
        self.k = k
        self.text_col = text_col
        self.id_col = id_col
        self.num_parts = num_parts

    def pins(self) -> dict:
        return {
            "num_shards": self.num_shards,
            # gram width, tokenizer, hash and the reassembly fan-out are all
            # replay identity (ws-re2 split, md5 word hash mod 2^61-1,
            # polynomial fold — the shared gram kernel)
            "gram_impl": f"{self.k}/{self.text_col}/{self.id_col}"
            f"/ws-re2/md5-mersenne-fold",
            "sink_layout": f"part-v1/{self.num_parts}",
        }

    @property
    def num_partitions(self) -> int:
        """Gram shards, then one pass-through partition per reassembly part
        for the cuts a route task already decided."""
        return self.num_shards + self.num_parts

    def reassembler(self):
        from ..functions.dedup import _substring_reassemble_part

        k = self.k
        return lambda b: _substring_reassemble_part(b, k)

    def plan(self, batch_id: int, bfiles: list[str]):
        from ..functions.dedup import (
            _SAMPLE_MIX,
            _SEG_IDX_BITS,
            _batch_gram_positional,
            _ranges,
        )

        text_col, id_col = self.text_col, self.id_col
        k, num_shards = self.k, self.num_shards
        num_parts = self.num_parts

        def decisions(b: pd.DataFrame) -> pa.Table:
            texts = b[text_col].fillna("")
            gh, counts = _batch_gram_positional(list(texts), k)
            ids = b[id_col].to_numpy(np.int64)
            if len(ids) and (
                ids.min() < 0 or ids.max() >= (1 << (63 - _SEG_IDX_BITS))
            ):
                raise ValueError(f"{id_col} must fit [0, 2^43) for the packed key")
            if len(counts) and counts.max() >= (1 << _SEG_IDX_BITS):
                raise ValueError(
                    f"a document has {counts.max()} gram positions; the "
                    f"packed key holds at most 2^{_SEG_IDX_BITS}"
                )
            pk = (np.repeat(ids, counts) << _SEG_IDX_BITS) | _ranges(counts)
            order = np.lexsort((pk, gh))
            gh, pk = gh[order], pk[order]
            first = np.ones(len(gh), dtype=bool)
            first[1:] = gh[1:] != gh[:-1]
            # within-block repeats are ALREADY cuts (batch min <= block min):
            # route them straight to their reassembly partition
            cut_pk = pk[~first]
            cut_doc = (cut_pk >> _SEG_IDX_BITS).astype(np.uint64)
            return pa.table(
                {
                    "_gh": pa.array(
                        np.concatenate(
                            [gh[first].view(np.int64), np.full(len(cut_pk), -1, np.int64)]
                        )
                    ),
                    "_pk": pa.array(np.concatenate([pk[first], cut_pk])),
                    "_shard": pa.array(
                        np.concatenate(
                            [
                                (gh[first] % np.uint64(num_shards)),
                                np.uint64(num_shards)
                                + (cut_doc * _SAMPLE_MIX) % np.uint64(num_parts),
                            ]
                        ).astype(np.int32)
                    ),
                }
            )

        def fold(g: pd.DataFrame, st: pa.Table | None):
            """Cut decisions for one gram shard: in-batch later occurrences
            plus batch-first occurrences of already-seen grams; state = prev
            ∪ newly-first gram hashes, sorted (ints only — text never enters
            the decision plane). Pass-through shards (>= num_shards, every
            ``_gh`` -1) carry block-local pre-decided cuts and touch no
            state."""
            pk = g["_pk"].to_numpy()
            gh = g["_gh"].to_numpy()
            if gh[0] < 0:
                return pa.table({"_pk": pa.array(pk, pa.int64())}), None, {}
            order = np.lexsort((pk, gh))
            gh, pk = gh[order], pk[order]
            first = np.ones(len(gh), dtype=bool)
            first[1:] = gh[1:] != gh[:-1]
            cand_gh, cand_pk = gh[first], pk[first]
            st = (
                st["gh"].to_numpy(zero_copy_only=False)
                if st is not None
                else np.array([], np.int64)
            )
            # gram hashes are < 2^61, so int64 order == uint64 order
            idx = np.searchsorted(st, cand_gh)
            seen = np.zeros(len(cand_gh), dtype=bool)
            inb = idx < len(st)
            seen[inb] = st[idx[inb]] == cand_gh[inb]
            new = np.sort(np.concatenate([st, cand_gh[~seen]]))
            state = pa.table({"gh": pa.array(new, pa.int64())})
            cuts = np.concatenate([pk[~first], cand_pk[seen]])
            return pa.table({"_pk": pa.array(cuts, pa.int64())}), state, {}

        return decisions, fold
