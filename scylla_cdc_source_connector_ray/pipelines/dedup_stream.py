"""Streaming exact dedup: checkpointed first-occurrence filter over a
document stream.

The training-data composition of §2.7 (exactly-once sink) with the exact-dedup
operator: a micro-batch runner that consumes a windowed document log and emits
only the FIRST occurrence of each normalized text, where "first" is global
across micro-batches — the seen-hash set is per-shard checkpointed state, so a
resumed run never re-admits a duplicate and a replayed batch regenerates
byte-identical output (same exactly-once contract as ``CaptureRunner``;
``state/checkpoint.py`` primitives are shared).

Scale shape (100 TB): rows are exchanged ONCE per batch, hash-partitioned on
the 16-byte content hash (uniform by construction — no skew, no salt needed);
each shard task touches only its own seen-set slice, proportional to unique
docs / num_shards and stored sorted so the membership probe is one
``np.searchsorted`` over sorted arrays. The seen set is content hashes only (~16
B/doc → ~1.6 TB state for 100 G docs, spread over shards); a longer-lived
deployment would tier it into sorted runs with periodic merge (LSM-style) —
the per-batch union write here is the simple variant of that and is the only
state I/O.

Blocks stay Arrow end to end: the route hashes the text column straight off
its Arrow buffer (``textops.md5_normalized``) and appends the hash words, the
combiner and the fold work on those numpy words, and the fold writes the
kept rows with one ``take`` — the text column is never converted to pandas.

Reference anchor: the connector itself offers at-least-once delivery with a
downstream idempotent sink (README.md:9,18); this runner strengthens the same
micro-batch loop to exactly-once and reuses it for corpus dedup.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ._microbatch import KeyedStateRunner


def _hash128(texts) -> tuple[np.ndarray, np.ndarray]:
    """Full 16-byte md5 of the normalized text as two uint64 words — the
    128-bit key keeps the stream EXACT (a bare 64-bit key expects ~n²/2^65
    birthday collisions; real at 10^11 docs). ``texts`` is a pandas Series
    or an Arrow string column; the kernel's joined digests are viewed as
    uint64 pairs, no per-row parsing."""
    from ..functions import textops

    u = np.frombuffer(textops.md5_normalized(texts), dtype=np.uint64).reshape(-1, 2)
    return u[:, 0].copy(), u[:, 1].copy()


def _member128(h1s: np.ndarray, h2s: np.ndarray, h1q: np.ndarray, h2q: np.ndarray) -> np.ndarray:
    """Exact membership of (h1q, h2q) in the state sorted by (h1, h2):
    searchsorted on the first word, second-word equality inside the run
    (runs longer than 1 are h1 collisions — essentially never)."""
    out = np.zeros(len(h1q), dtype=bool)
    if len(h1s) == 0 or len(h1q) == 0:
        return out
    lo = np.searchsorted(h1s, h1q, "left")
    hi = np.searchsorted(h1s, h1q, "right")
    single = (hi - lo) == 1
    out[single] = h2s[lo[single]] == h2q[single]
    for i in np.flatnonzero((hi - lo) > 1):
        out[i] = h2q[i] in h2s[lo[i] : hi[i]]
    return out


def _seen128(st: pa.Table | None, dtype=np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """The (h1, h2)-sorted seen-hash state as two arrays (empty when the
    shard has no prior state)."""
    if st is None:
        return np.array([], dtype), np.array([], dtype)
    return (
        st["h1"].to_numpy(zero_copy_only=False).astype(dtype),
        st["h2"].to_numpy(zero_copy_only=False).astype(dtype),
    )


def _union128(s1: np.ndarray, s2: np.ndarray, h1: np.ndarray, h2: np.ndarray) -> pa.Table:
    """New seen state = prior ∪ new hashes, (h1, h2)-sorted so the next
    batch's searchsorted probe stays O(log n)."""
    n1 = np.concatenate([s1, h1])
    n2 = np.concatenate([s2, h2])
    so = np.lexsort((n2, n1))
    return pa.table({"h1": pa.array(n1[so]), "h2": pa.array(n2[so])})


def _first128(h1: np.ndarray, h2: np.ndarray, tie: np.ndarray) -> np.ndarray:
    """Mask of the ``tie``-minimal row of every equal (h1, h2) run: group
    equal hashes with ``tie`` as the final lexsort key — run starts are
    the representatives."""
    order = np.lexsort((tie, h2, h1))
    oh1, oh2 = h1[order], h2[order]
    run_start = np.ones(len(h1), dtype=bool)
    run_start[1:] = (oh1[1:] != oh1[:-1]) | (oh2[1:] != oh2[:-1])
    first = np.zeros(len(h1), dtype=bool)
    first[order[run_start]] = True
    return first


def first_occurrence(
    g: pa.Table, order_col: str, st: pa.Table | None
) -> tuple[np.ndarray, pa.Table]:
    """The exact-dedup fold over one shard's rows, which carry the uint64
    hash words ``_h1``/``_h2``: the rows are put in arrival order by a
    stable sort on ``order_col``, and keep = first occurrence within the
    batch AND unseen in the prior state. Returns (the kept rows' indices
    into ``g``, in arrival order, for one ``take``; new seen state)."""
    order = pc.sort_indices(g, [(order_col, "ascending")]).to_numpy()  # stable
    h1, h2 = g["_h1"].to_numpy()[order], g["_h2"].to_numpy()[order]
    s1, s2 = _seen128(st)
    keep = _first128(h1, h2, np.arange(len(h1))) & ~_member128(s1, s2, h1, h2)
    return order[keep], _union128(s1, s2, h1[keep], h2[keep])


class DedupStreamRunner(KeyedStateRunner):
    """Micro-batch first-occurrence dedup over ``log_dir/window-*.parquet``.

    Output: ``sink_dir/batch-B/shard-K.parquet`` — surviving rows, original
    columns, ordered by ``order_col`` inside each shard file (deterministic
    for replay). ``read_output`` returns only COMMITTED batches."""

    STATE_KIND = "seen"
    STATS = ("rows", "kept", "dups")
    BATCH_FORMAT = "pyarrow"

    def __init__(
        self,
        log_dir: str,
        num_shards: int,
        sink_dir: str,
        checkpoint_dir: str,
        text_col: str = "text",
        order_col: str = "doc_id",
    ):
        super().__init__(log_dir, num_shards, sink_dir, checkpoint_dir)
        self.text_col = text_col
        self.order_col = order_col

    def pins(self) -> dict:
        # shard key is the md5 first word (hashlib) — version-independent —
        # but the NORMALIZATION feeding the md5 is not: pin its version so a
        # checkpoint written under different \s semantics fails loudly
        # instead of silently re-admitting previously-seen docs.
        from ..functions.textops import NORM_IMPL

        return {
            "num_shards": self.num_shards,
            "norm_impl": NORM_IMPL,
            # the deduped quantity is replay identity too
            "dedup_cols": f"{self.text_col}/{self.order_col}",
        }

    def plan(self, batch_id: int, bfiles: list[str]):
        text_col, order_col = self.text_col, self.order_col
        num_shards = self.num_shards

        def add_hash(b: pa.Table) -> pa.Table:
            """Hash + route + LOCAL COMBINER: pre-dedup within the block,
            keeping the min-``order_col`` row per (h1, h2) and carrying the
            dropped count as a weight column ``_w``. The block-local min
            preserves the global arrival-first winner, so output is
            byte-identical — but only unique-per-block rows cross the
            exchange (at real web-corpus dup rates of 30-60% that halves the
            all-to-all bytes; state merge still happens in the shard task).
            The text column is hashed straight off its Arrow buffer and the
            combiner works on the numpy hash words; the block itself is only
            filtered and extended, never converted.

            ADAPTIVE: a count of equal h2 words (a superset of (h1, h2)
            duplicates) gates the fold — on low-dup corpora the
            combiner is pure lexsort overhead (A/B on sf0.1 transcripts:
            unconditional fold 15.8 s vs 12.8 s without), so blocks with no
            hash collisions pass through untouched and the O(d log d) fold
            runs only over the collided rows. Measured on the same 2.2M-row
            job with text truncated to a high-dup pool: 6.3 s adaptive vs
            8.3 s no-combiner (−24%); low-dup transcripts 13.4 s vs 12.8 s
            (~5% probe+weight overhead)."""
            h1, h2 = _hash128(b[text_col])
            w = np.ones(len(h1), np.int64)
            _, inv, cnt = np.unique(h2, return_inverse=True, return_counts=True)
            dup = cnt[inv] > 1
            if dup.any():
                idx = np.flatnonzero(dup)  # fold only the collided rows
                sh1, sh2 = h1[idx], h2[idx]
                ordv = b[order_col].to_numpy()[idx]
                order = np.lexsort((ordv, sh2, sh1))
                oh1, oh2 = sh1[order], sh2[order]
                rs = np.ones(len(idx), dtype=bool)
                rs[1:] = (oh1[1:] != oh1[:-1]) | (oh2[1:] != oh2[:-1])
                winners = idx[order[rs]]
                w[winners] = np.bincount(np.cumsum(rs) - 1)  # rows folded into each run
                keep = ~dup
                keep[winners] = True
                b, h1, h2, w = b.filter(pa.array(keep)), h1[keep], h2[keep], w[keep]
            shard = (h1 % np.uint64(num_shards)).astype(np.int32)
            for name, col in (("_h1", h1), ("_h2", h2), ("_shard", shard), ("_w", w)):
                b = b.append_column(name, pa.array(col))
            return b

        # sink schema pinned from the log footer: the kept rows are cast to
        # it, so every sink file of a batch has one schema whatever string
        # encoding the exchange's permissive concat produced
        out_schema = pq.read_schema(bfiles[0])

        def fold(g: pa.Table, st: pa.Table | None):
            n_in = pc.sum(g["_w"]).as_py()  # combiner-folded rows count as seen
            rows, state = first_occurrence(g, order_col, st)
            out = g.select(out_schema.names).take(rows).cast(out_schema)
            kept = len(rows)
            return out, state, {"rows": n_in, "kept": kept, "dups": n_in - kept}

        return add_hash, fold
