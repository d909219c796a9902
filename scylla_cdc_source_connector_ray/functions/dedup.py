"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup — the standard large-corpus dedup toolbox
(Broder resemblance / Charikar simhash / MinHashLSH banding; PAPERS.md).

Scale shapes (ray_guide "Aggregation at scale"):

* exact: content-key hash partitions, keep min doc_id per key — ONE shuffle
  of (key, doc_id) pairs, not of documents.
* MinHash-LSH: signatures per batch (vectorized universal hashing) → explode
  to (band, band_hash, doc_id) rows → groupby buckets → candidate pairs →
  Jaccard verify. Only bucket rows shuffle.
* SimHash: 64-bit signature per batch; near-dup candidates via 4×16-bit
  chunk banding (Hamming ≤ 3 guarantees one identical chunk).
* embedding near-dup / ANN verify: numpy matmul per batch against a
  broadcast matrix.
"""

from __future__ import annotations

import hashlib
import os

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..stages import exchange
from ..stages.join import shuffle_hash_join

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup(
    ds: ray.data.Dataset, key_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Keep the minimum ``id_col`` per distinct ``key_col`` value.

    One keyed shuffle of the (key, id) pairs on the hash of the key, then
    one Arrow ``group_by`` per partition over all the keys it holds. The
    key value crosses as payload (it must — it's in the output)."""
    from ..schema import select_agg

    def per_part(g: pa.Table) -> pa.Table:
        return select_agg(
            g.group_by([key_col]).aggregate([(id_col, "min"), (id_col, "count")]),
            [key_col],
            [(f"{id_col}_min", "keep_id"), (f"{id_col}_count", "n_copies")],
        )

    pairs = ds.map_batches(lambda t: t.select([key_col, id_col]), batch_format="pyarrow")
    return exchange.shuffle(pairs, per_part, [key_col])


def first_row_per_key(
    ds: ray.data.Dataset, key_col: str, id_col: str
) -> ray.data.Dataset:
    """Keep the full min-``id_col`` ROW per distinct ``key_col`` —
    ``exact_dedup``'s row-carrying sibling (same one-keyed-exchange shape;
    project ``ds`` to the columns you need BEFORE calling so only those
    cross the exchange). One call per hash partition selects every key's
    first row with a run-boundary scan, never one call per key."""
    from ..stages.cep import run_starts

    def per_part(g: pa.Table) -> pa.Table:
        g = g.sort_by([(key_col, "ascending"), (id_col, "ascending")])
        return g.filter(pa.array(run_starts(g, [key_col])))

    return exchange.shuffle(ds, per_part, [key_col])


def with_content_hash(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """md5 of the normalized text — the 16-byte shuffle key for exact dedup.
    Shares the oracle-critical normalization with ``textops.fingerprint``."""
    from . import textops

    batch = batch.copy()
    batch["content_hash"] = textops.md5_hex(textops.md5_normalized(batch[text_col]))
    return batch


def exact_dedup_hashed(ds: ray.data.Dataset, id_col: str = "doc_id") -> ray.data.Dataset:
    """Exact dedup shuffling only (hash, id) pairs — the 100 TB shape."""
    hashed = ds.map_batches(with_content_hash, batch_format="pandas")
    return exact_dedup(hashed, key_col="content_hash", id_col=id_col)


# ---------------------------------------------------------------------------
# segment-level (sub-document) exact dedup — the RefinedWeb/CCNet line-dedup
# analogue over fixed word spans (the corpus has no line structure)
# ---------------------------------------------------------------------------

#: packed (doc_id, seg_idx) ordering key: doc_id << 20 | seg_idx. 2^20
#: segments/doc = ~21M words/doc at the default span; doc_id must fit 43
#: bits (guarded) so the packed min is the lexicographic (doc_id, seg_idx)
#: min — "first occurrence wins" exactly like SQL row_number() ordering.
_SEG_IDX_BITS = 20


def _md5_2x64_vec(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Full-width md5 per string as two uint64 halves (little-endian first /
    last 8 digest bytes — the DuckDB ``md5_number_upper`` / ``_lower``
    convention, verified equal in tests). Engine-internal exchange key for
    exact segment dedup: 128 bits ⇒ collision-free by the same assumption
    ``exact_dedup_hashed`` already makes, so segment TEXT never has to cross
    the decision exchange. Vectorized through the shared per-worker DuckDB
    connection past ``_VEC_HASH_MIN`` (same size gate as the word hash).
    Accepts a list or an Arrow string array (zero-copy into DuckDB)."""
    if len(texts) < _VEC_HASH_MIN:
        if isinstance(texts, (pa.Array, pa.ChunkedArray)):
            texts = texts.to_pylist()
        h1 = np.empty(len(texts), dtype=np.uint64)
        h2 = np.empty(len(texts), dtype=np.uint64)
        for i, s in enumerate(texts):
            d = hashlib.md5(s.encode()).digest()
            h1[i] = int.from_bytes(d[:8], "little")
            h2[i] = int.from_bytes(d[8:], "little")
        return h1, h2
    t = _duck_md5(texts, "md5_number_upper(w) AS u, md5_number_lower(w) AS l")
    return (
        t["u"].to_numpy().astype(np.uint64),
        t["l"].to_numpy().astype(np.uint64),
    )


def _segment_texts(texts, seg_words: int) -> tuple[list[str], np.ndarray]:
    """Per-doc fixed-span word segments: ``' '.join(words[j*S:(j+1)*S])`` for
    each doc, plus the per-doc segment counts. SCALAR REFERENCE — the hot
    path is :func:`_segment_strings_vec` (pinned equal by a parity test);
    the two MUST cut identical boundaries or reassembly picks the wrong
    spans."""
    segs: list[str] = []
    counts = np.zeros(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        ws = _ws_split(t or "")
        n = (len(ws) + seg_words - 1) // seg_words
        counts[i] = n
        for j in range(n):
            segs.append(" ".join(ws[j * seg_words : (j + 1) * seg_words]))
    return segs, counts


def _segment_strings_vec(texts, seg_words: int) -> tuple[pa.Array, np.ndarray]:
    """Vectorized :func:`_segment_texts`: polars ``extract_all`` over the
    complement of ``_WS_CHARS`` (Rust regex — a negated literal-char class,
    so Unicode whitespace and ``\\v`` stay INSIDE words exactly like
    ``_ws_split``), Arrow ``list_flatten`` for the word stream, and one
    ``binary_join`` over segment-boundary offsets (every ``seg_words``-th
    within-doc word position). No per-doc Python; returns (segment strings
    as an Arrow array, per-doc segment counts)."""
    import polars as pl

    s = pl.Series(list(texts) if not isinstance(texts, pl.Series) else texts)
    wa = s.cast(pl.String).fill_null("").str.extract_all(_WS_TOKEN_RE).to_arrow()
    nwords = pc.list_value_length(wa).cast(pa.int64()).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(wa)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    nseg = (nwords + seg_words - 1) // seg_words
    pos = _ranges(nwords)  # within-doc word positions, concatenated
    starts = np.flatnonzero((pos % seg_words) == 0)
    offsets = np.empty(len(starts) + 1, np.int64)
    offsets[:-1] = starts
    offsets[-1] = len(flat)
    lists = pa.LargeListArray.from_arrays(pa.array(offsets, pa.int64()), flat)
    segs = pc.binary_join(lists, pa.scalar(" ", flat.type))
    return segs, nseg


def segment_dedup(
    ds: ray.data.Dataset,
    seg_words: int = 20,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_parts: int = 64,
) -> ray.data.Dataset:
    """Sub-document exact dedup (RefinedWeb/CCNet line-level dedup, with a
    fixed ``seg_words``-word span standing in for the line): every segment
    that already occurred anywhere earlier in the corpus — ordered by
    (doc_id, seg_idx) — is removed; survivors are re-joined in order.
    Output per doc: ``(doc_id, text_dedup, n_segs_kept, n_segs_total)``,
    ``text_dedup`` NULL when every segment was seen before.

    Scale shape (100 TB): the DECISION plane ships 24 B/segment — (md5-128
    as two uint64, packed ordering key) through one groupby whose min picks
    the first occurrence; segment text NEVER crosses it. Reassembly is ONE
    coarse exchange keyed by hash(doc_id) (``num_parts`` groups, never
    per-doc dispatch) carrying each doc's text once plus the kept
    (doc, seg_idx) pairs; the re-split + span selection is local to the
    partition. No ``Dataset.join`` (empty-partition finalize hazard on
    small inputs) and no driver-side collection. Assumes one doc's text
    fits a task — the same bound every per-doc operator here carries.

    The streaming variant (``pipelines/segment_stream.py``) reuses the SAME
    module-level kernels (decision rows, unpack, doc rows, reassembly) with
    checkpointed seen-segment state in place of the global groupby-min."""
    # few/unsplittable input blocks would fuse segmentation+md5 onto a
    # couple of cores; a shuffle-free repartition slices them first (57 s →
    # 17 s on a 2-file 2M-doc transcript read). Coarse bound = num_parts.
    ds = ds.repartition(num_parts, shuffle=False)

    def decisions(b: pd.DataFrame) -> pa.Table:
        h1, h2, packed = _seg_decision_arrays(b, text_col, id_col, seg_words)
        return pa.table(
            {
                "_h1": pa.array(h1, pa.int64()),
                "_h2": pa.array(h2, pa.int64()),
                "_pk": pa.array(packed, pa.int64()),
                # coarse hash partition: Ray's sort-aggregate over O(unique
                # segments) tiny groups costs ~1 s/block (the
                # embedding_centroids pathology) — 256 partitions + a
                # vectorized per-partition min replaces it
                "_hpid": pa.array(
                    (h1.view(np.uint64) * _SAMPLE_MIX) % np.uint64(256), pa.int64()
                ),
            }
        )

    def winner_part(g: pd.DataFrame) -> pd.DataFrame:
        h1, h2, pk = _first_pk_per_hash(
            g["_h1"].to_numpy(), g["_h2"].to_numpy(), g["_pk"].to_numpy()
        )
        return pd.DataFrame({"_keep": pd.Series(pk, dtype="int64")})

    winners = (
        ds.map_batches(decisions, batch_format="pandas")
        .groupby("_hpid")
        .map_groups(winner_part, batch_format="pandas")
    )

    def unpack(t: pa.Table) -> pa.Table:
        return _seg_unpack_table(
            t["_keep"].to_numpy(zero_copy_only=False), num_parts
        )

    # the 256-group winner stage emits ~256 TINY blocks; feeding them raw
    # into the reassembly groupby anti-scales Ray's sort shuffle (the
    # round-1 many-small-blocks pathology: 92 s → 17 s on a 2M-doc
    # transcript corpus with this one shuffle-free coalesce)
    kept = winners.map_batches(unpack, batch_format="pyarrow").repartition(
        num_parts, shuffle=False
    )
    docs = ds.map_batches(
        lambda b: _seg_doc_rows_table(b, text_col, id_col, num_parts),
        batch_format="pandas",
    )
    return (
        kept.union(docs)
        .groupby("_pid")
        .map_groups(lambda b: _seg_reassemble_part(b, seg_words), batch_format="pandas")
    )


def _first_pk_per_hash(h1, h2, pk):
    """min ``pk`` per distinct (h1, h2), vectorized: lexsort puts the
    smallest packed key first within each hash run."""
    if len(h1) == 0:  # np.r_[True, ...] would index a len-1 mask into len-0
        return h1, h2, pk
    order = np.lexsort((pk, h2, h1))
    h1, h2, pk = h1[order], h2[order], pk[order]
    first = np.r_[True, (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])]
    return h1[first], h2[first], pk[first]


def _seg_decision_arrays(
    b: pd.DataFrame, text_col: str, id_col: str, seg_words: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block segment decision rows: (md5-h1, md5-h2, packed (doc,seg)
    key) as int64 arrays, block-locally combined to the min packed key per
    hash (within-block duplicate segments collapse before anything crosses
    an exchange). ONE definition for the batch operator and the streaming
    runner — their duplicate decisions must be identical."""
    texts = b[text_col].fillna("")
    segs, counts = _segment_strings_vec(texts, seg_words)
    h1, h2 = _md5_2x64_vec(segs)
    ids = b[id_col].to_numpy(np.int64)
    if len(ids) and (ids.min() < 0 or ids.max() >= (1 << (63 - _SEG_IDX_BITS))):
        raise ValueError(f"{id_col} must fit [0, 2^43) for the packed ordering key")
    if len(counts) and counts.max() > (1 << _SEG_IDX_BITS):
        raise ValueError(
            f"a document has {counts.max()} segments; the packed ordering "
            f"key holds at most 2^{_SEG_IDX_BITS} — raise seg_words"
        )
    packed = (np.repeat(ids, counts) << _SEG_IDX_BITS) | _ranges(counts)
    return _first_pk_per_hash(h1.view(np.int64), h2.view(np.int64), packed)


def _seg_unpack_table(keep: np.ndarray, num_parts: int) -> pa.Table:
    """Kept packed keys → (doc_id, seg_idx, NULL text, reassembly _pid)."""
    mask = np.int64((1 << _SEG_IDX_BITS) - 1)
    doc = keep >> _SEG_IDX_BITS
    return pa.table(
        {
            "doc_id": pa.array(doc, pa.int64()),
            "seg_idx": pa.array(keep & mask, pa.int64()),
            "text": pa.nulls(len(keep), pa.string()),
            "_pid": pa.array(
                (doc.astype(np.uint64) * _SAMPLE_MIX) % np.uint64(num_parts),
                pa.int64(),
            ),
        }
    )


def _seg_doc_rows_table(
    b: pd.DataFrame, text_col: str, id_col: str, num_parts: int
) -> pa.Table:
    """One (doc_id, seg_idx=-1, text) carrier row per non-empty document,
    tagged with the SAME reassembly ``_pid`` as the kept pairs. Zero-word
    docs have no segments: the SQL twin's words CTE emits no rows for them,
    so they are absent from the output on both sides (vectorized:
    has-a-word ⇔ non-empty after trimming the _WS_CHARS set — no per-doc
    word-list materialization on this pass)."""
    texts = b[text_col].fillna("")
    arr = pa.array(texts, type=pa.string())
    nonempty = (
        pc.greater(pc.utf8_length(pc.utf8_trim(arr, _WS_CHARS)), 0)
        .to_numpy(zero_copy_only=False)
        .astype(bool)
    )
    ids = b[id_col].to_numpy(np.int64)[nonempty]
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "seg_idx": pa.array(np.full(len(ids), -1, np.int64), pa.int64()),
            "text": pa.array(texts[nonempty], pa.string()),
            "_pid": pa.array(
                (ids.astype(np.uint64) * _SAMPLE_MIX) % np.uint64(num_parts),
                pa.int64(),
            ),
        }
    )


def _seg_reassemble_part(b: pd.DataFrame, seg_words: int) -> pd.DataFrame:
    """Partition-local reassembly: re-split each doc row's text with the
    SAME boundaries as the decision pass and join the kept spans in order.
    Expects doc rows (seg_idx = -1, text) unioned with kept pairs
    (seg_idx ≥ 0, NULL text) sharing the partition key. Fully vectorized:
    one segmentation pass over the partition's docs, one ``take`` of the
    kept spans, one ``binary_join`` per doc group — no per-doc Python."""
    if len(b) == 0:
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "text_dedup": pd.Series([], dtype="object"),
                "n_segs_kept": pd.Series([], dtype="int64"),
                "n_segs_total": pd.Series([], dtype="int64"),
            }
        )
    b = b.sort_values(["doc_id", "seg_idx"])
    ids = b["doc_id"].to_numpy()
    seg = b["seg_idx"].to_numpy()
    is_doc = seg == -1
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    docs_per_run = np.add.reduceat(is_doc.astype(np.int64), starts)
    if (docs_per_run > 1).any():
        # a second doc row in a run would have sent Python's segs[-1]
        # wrapping to the LAST segment and silently corrupted the output
        bad = ids[starts[docs_per_run > 1][0]]
        raise ValueError(
            f"duplicate {bad!r} rows in segment_dedup input — "
            "document ids must be unique"
        )
    # seg_idx=-1 sorts the doc row first within its run; a kept pair
    # without its doc row is impossible (same _pid function)
    assert (docs_per_run == 1).all(), "kept segment without its document row"
    doc_idx = np.flatnonzero(is_doc)  # == starts, one per run
    doc_ids = ids[doc_idx].astype(np.int64)
    texts = pd.Series(b["text"].to_numpy()[doc_idx]).fillna("")
    segs_all, nseg = _segment_strings_vec(texts, seg_words)
    base = np.zeros(len(nseg) + 1, np.int64)
    np.cumsum(nseg, out=base[1:])
    kept_doc = ids[~is_doc]
    kept_seg = seg[~is_doc]
    di = np.searchsorted(doc_ids, kept_doc)  # doc_ids sorted (b sorted)
    kept_strings = pc.take(segs_all, pa.array(base[di] + kept_seg, pa.int64()))
    if isinstance(kept_strings, pa.ChunkedArray):
        kept_strings = kept_strings.combine_chunks()
    kcnt = np.bincount(di, minlength=len(doc_ids)).astype(np.int64)
    koff = np.zeros(len(doc_ids) + 1, np.int64)
    np.cumsum(kcnt, out=koff[1:])
    joined = pc.binary_join(
        pa.LargeListArray.from_arrays(pa.array(koff, pa.int64()), kept_strings),
        pa.scalar(" ", kept_strings.type),
    )
    # zero-kept docs emit NULL, not "" (binary_join of an empty list)
    out_text = pc.if_else(pa.array(kcnt > 0), joined, pa.nulls(len(kcnt), joined.type))
    return pd.DataFrame(
        {
            "doc_id": pd.Series(doc_ids, dtype="int64"),
            "text_dedup": pd.Series(out_text.to_pandas(), dtype="object"),
            "n_segs_kept": pd.Series(kcnt, dtype="int64"),
            "n_segs_total": pd.Series(nseg, dtype="int64"),
        }
    )


# ---------------------------------------------------------------------------
# repeated-substring span removal — the Lee et al. (ACL'22 "Deduplicating
# Training Data Makes Language Models Better") analogue over word k-grams:
# every k-word span whose k-gram occurs anywhere EARLIER in the corpus
# (ordered by (doc_id, position)) is cut; the global first occurrence stays.
# ---------------------------------------------------------------------------


def substring_dedup(
    ds: ray.data.Dataset,
    k: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_parts: int = 64,
    num_gram_parts: int = 256,
) -> ray.data.Dataset:
    """Sub-document repeated-substring removal: for every word ``k``-gram
    with more than one occurrence corpus-wide, all occurrences except the
    global first (min (doc_id, position)) mark their ``k``-word span as
    duplicate; covered words are removed and the survivors re-joined in
    order. Output per non-empty doc: ``(doc_id, text_dedup, n_words_kept,
    n_words_total)``, ``text_dedup`` NULL when everything was covered.
    Grams are computed on lowered text (the shared gram kernel); the cut
    spans re-join the ORIGINAL-case words (case mapping never produces
    whitespace, so positions align).

    Scale shape (100 TB): substring dedup is inherently global over token
    INSTANCES (Lee et al. build a corpus-wide suffix array); here the
    decision plane is 24 B per gram instance through ONE coarse gram-keyed
    exchange — minus within-block repeats, which short-circuit straight to
    the reassembly exchange as local cuts (on duplicate-heavy corpora, the
    case that matters, most instances never reach the gram exchange). Text
    crosses only the doc-keyed reassembly exchange, once, exactly like
    :func:`segment_dedup` (same carrier/reassembly kernels). Both
    exchanges are coarse hash partitions, never per-key dispatch."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # few/unsplittable input blocks would fuse tokenize+fold onto a couple
    # of cores (the segment_dedup lesson: 57 s → 17 s on a 2-file read);
    # a shuffle-free repartition slices them first
    ds = ds.repartition(num_parts, shuffle=False)

    def decisions(b: pd.DataFrame) -> pa.Table:
        texts = b[text_col].fillna("")
        gh, counts = _batch_gram_positional(list(texts), k)
        ids = b[id_col].to_numpy(np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= (1 << (63 - _SEG_IDX_BITS))):
            raise ValueError(f"{id_col} must fit [0, 2^43) for the packed key")
        if len(counts) and counts.max() >= (1 << _SEG_IDX_BITS):
            raise ValueError(
                f"a document has {counts.max()} gram positions; the packed "
                f"key holds at most 2^{_SEG_IDX_BITS} — split the document"
            )
        pk = (np.repeat(ids, counts) << _SEG_IDX_BITS) | _ranges(counts)
        order = np.lexsort((pk, gh))
        gh, pk = gh[order], pk[order]
        first = np.ones(len(gh), dtype=bool)
        first[1:] = gh[1:] != gh[:-1]
        # block-first occurrences compete globally; later in-block repeats
        # are ALREADY cuts (global min <= block min) and route straight to
        # their reassembly partition, skipping the gram exchange
        ship_gh = gh[first].view(np.int64)
        ship_pk = pk[first]
        cut_pk = pk[~first]
        cut_doc = (cut_pk >> _SEG_IDX_BITS).astype(np.uint64)
        return pa.table(
            {
                "_gh": pa.array(
                    np.concatenate([ship_gh, np.full(len(cut_pk), -1, np.int64)])
                ),
                "_pk": pa.array(np.concatenate([ship_pk, cut_pk])),
                "_hpid": pa.array(
                    np.concatenate(
                        [
                            (gh[first] * _SAMPLE_MIX) % np.uint64(num_gram_parts),
                            np.uint64(num_gram_parts)
                            + (cut_doc * _SAMPLE_MIX) % np.uint64(num_parts),
                        ]
                    ).astype(np.int64)
                ),
            }
        )

    def gram_part(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return _seg_unpack_table(np.zeros(0, np.int64), num_parts)
        pk = g["_pk"].to_numpy()
        if int(g["_hpid"].iloc[0]) >= num_gram_parts:
            return _seg_unpack_table(pk, num_parts)  # pre-decided local cuts
        gh = g["_gh"].to_numpy()
        order = np.lexsort((pk, gh))
        gh, pk = gh[order], pk[order]
        first = np.ones(len(gh), dtype=bool)
        first[1:] = gh[1:] != gh[:-1]
        return _seg_unpack_table(pk[~first], num_parts)

    cuts = (
        ds.map_batches(decisions, batch_format="pandas")
        .groupby("_hpid")
        .map_groups(gram_part, batch_format="pandas")
        .repartition(num_parts, shuffle=False)  # many tiny winner blocks
    )
    docs = ds.map_batches(
        lambda b: _seg_doc_rows_table(b, text_col, id_col, num_parts),
        batch_format="pandas",
    )
    return (
        cuts.union(docs)
        .groupby("_pid")
        .map_groups(
            lambda b: _substring_reassemble_part(b, k), batch_format="pandas"
        )
    )


def _substring_reassemble_part(b: pd.DataFrame, k: int) -> pd.DataFrame:
    """Partition-local span cutting: re-split each doc row's text into words
    (the segment kernel at span 1), mark every word covered by a cut gram's
    ``[pos, pos+k)`` window via one difference-array pass, and re-join the
    uncovered words per doc. Same input contract as
    :func:`_seg_reassemble_part` (doc rows ``seg_idx=-1`` unioned with cut
    rows ``seg_idx`` = 0-based gram position, shared ``_pid``)."""
    if len(b) == 0:
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "text_dedup": pd.Series([], dtype="object"),
                "n_words_kept": pd.Series([], dtype="int64"),
                "n_words_total": pd.Series([], dtype="int64"),
            }
        )
    b = b.sort_values(["doc_id", "seg_idx"])
    ids = b["doc_id"].to_numpy()
    pos = b["seg_idx"].to_numpy()
    is_doc = pos == -1
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    docs_per_run = np.add.reduceat(is_doc.astype(np.int64), starts)
    if (docs_per_run != 1).any():
        bad = ids[starts[(docs_per_run != 1).argmax()]]
        raise ValueError(
            f"substring_dedup: doc {bad!r} has {docs_per_run.max()} carrier "
            "rows — document ids must be unique (or a cut lost its doc row)"
        )
    doc_idx = np.flatnonzero(is_doc)
    doc_ids = ids[doc_idx].astype(np.int64)
    texts = pd.Series(b["text"].to_numpy()[doc_idx]).fillna("")
    words, nw = _segment_strings_vec(texts, 1)  # span 1 == the words
    base = np.zeros(len(nw) + 1, np.int64)
    np.cumsum(nw, out=base[1:])
    total = int(base[-1])
    cut_doc = ids[~is_doc]
    cut_pos = pos[~is_doc]
    di = np.searchsorted(doc_ids, cut_doc)  # doc_ids sorted (b sorted)
    diff = np.zeros(total + 1, np.int64)
    np.add.at(diff, base[di] + cut_pos, 1)
    np.add.at(diff, base[di] + np.minimum(cut_pos + k, nw[di]), -1)
    kept = np.cumsum(diff[:-1]) <= 0
    kcnt = (
        np.add.reduceat(kept.astype(np.int64), base[:-1])
        if total
        else np.zeros(len(nw), np.int64)
    )
    kcnt[nw == 0] = 0  # reduceat artifacts on empty docs (carrier rows are
    # non-empty by construction, but keep the kernel total)
    koff = np.zeros(len(doc_ids) + 1, np.int64)
    np.cumsum(kcnt, out=koff[1:])
    kept_words = words.filter(pa.array(kept))
    if isinstance(kept_words, pa.ChunkedArray):
        kept_words = kept_words.combine_chunks()
    joined = pc.binary_join(
        pa.LargeListArray.from_arrays(pa.array(koff, pa.int64()), kept_words),
        pa.scalar(" ", kept_words.type),
    )
    out_text = pc.if_else(pa.array(kcnt > 0), joined, pa.nulls(len(kcnt), joined.type))
    return pd.DataFrame(
        {
            "doc_id": pd.Series(doc_ids, dtype="int64"),
            "text_dedup": pd.Series(out_text.to_pandas(), dtype="object"),
            "n_words_kept": pd.Series(kcnt, dtype="int64"),
            "n_words_total": pd.Series(nw, dtype="int64"),
        }
    )


# ---------------------------------------------------------------------------
# shingles + MinHash
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1
_GRAM_B = np.uint64(1000003)  # polynomial base for the word-hash fold


#: ASCII-whitespace splitter matching the oracle's RE2 ``\\s+``
#: (regexp_split_to_array): RE2's ``\s`` is exactly ``[\t\n\f\r ]`` — it
#: does NOT include ``\v`` (verified: DuckDB regexp_matches(chr(11),'\s')
#: is false), and Python ``str.split()`` also splits on Unicode whitespace
#: (NBSP, \x1c-\x1f); both would diverge from the twin
_WS_CHARS = " \t\n\r\f"
_WS_RE = re.compile(f"[{_WS_CHARS}]+")
#: complement class for the vectorized tokenizers (Rust regex): a word is a
#: maximal run of anything NOT in _WS_CHARS — same split as _ws_split
_WS_TOKEN_RE = f"[^{_WS_CHARS}]+"


def _ws_split(text: str) -> list[str]:
    return [w for w in _WS_RE.split(text) if w]


def _word_hash(word: str) -> int:
    """Word hash shared with the SQL oracle: little-endian uint64 of the
    first 8 md5 bytes (DuckDB ``md5_number_upper``), reduced mod 2^61-1.

    Scalar reference; the batch hot path is :func:`_word_hashes_vec`."""
    return int.from_bytes(hashlib.md5(word.encode()).digest()[:8], "little") % _MERSENNE


_MD5_CON = None  # process-local DuckDB connection for the vectorized md5 paths


def _duck_md5(strings, cols_sql: str) -> pa.Table:
    """One ``md5_number_*`` projection over a string column through the
    shared per-worker single-threaded DuckDB connection (each Ray worker
    owns one CPU slot). The ONE bootstrap both vectorized hash paths
    (:func:`_word_hashes_vec`, :func:`_md5_2x64_vec`) share — connection
    settings / registration quirks get fixed in one place."""
    global _MD5_CON
    if _MD5_CON is None:
        import duckdb

        _MD5_CON = duckdb.connect()
        _MD5_CON.execute("SET threads=1")
    if isinstance(strings, pa.ChunkedArray):
        strings = strings.combine_chunks()
    if not isinstance(strings, pa.Array):
        strings = pa.array(list(strings), type=pa.string())
    wt = pa.table({"w": strings})
    _MD5_CON.register("_md5_in", wt)
    try:
        return _MD5_CON.execute(f"SELECT {cols_sql} FROM _md5_in").fetch_arrow_table()
    finally:
        _MD5_CON.unregister("_md5_in")


#: below this many unique words the per-call DuckDB overhead (~2 ms) beats
#: the vectorized win; measured breakeven ~2.5k, gated with headroom
_VEC_HASH_MIN = 4096


def _word_hashes_vec(words) -> np.ndarray:
    """Vectorized :func:`_word_hash` over an array of words: DuckDB's own
    ``md5_number_upper`` C++ kernel (the exact function the gram-CTE oracles
    call, so parity is by construction), modulo taken in numpy — 3-5x the
    Python ``hashlib`` loop once the unique-word count amortizes the call
    (real web text; Zipf keeps small fixtures under ``_VEC_HASH_MIN``, where
    the scalar loop stays). One in-process single-threaded connection per
    worker (each Ray worker owns one CPU slot)."""
    if len(words) < _VEC_HASH_MIN:
        if isinstance(words, (pa.Array, pa.ChunkedArray)):
            words = words.to_pylist()
        return np.fromiter(
            (_word_hash(w) for w in words), dtype=np.uint64, count=len(words)
        )
    raw = (
        _duck_md5(words, "md5_number_upper(w) AS h")["h"]
        .to_numpy()
        .astype(np.uint64)
    )
    return raw % np.uint64(_MERSENNE)


def _word_ngram_hashes(text: str, n: int) -> np.ndarray:
    """Unique shingle hashes of ``text``: polynomial fold (base 1000003,
    mod 2^61-1) over md5 word hashes in each n-word window; docs shorter
    than ``n`` contribute one fold over all their words; empty docs none.

    Reference implementation (tests + Jaccard verify); the batch hot path is
    :func:`_batch_gram_hashes`. Exactly mirrored by the DuckDB oracle in
    ``oracles.DEDUP_MINHASH_LSH`` — change both together or neither."""
    words = _ws_split(text.lower())
    if not words:
        return np.zeros(0, dtype=np.uint64)
    wh = [_word_hash(w) for w in words]
    windows = [wh] if len(wh) < n else [wh[i : i + n] for i in range(len(wh) - n + 1)]
    grams = []
    for win in windows:
        h = 0
        for v in win:
            h = (h * int(_GRAM_B) + v) % _MERSENNE
        grams.append(h)
    return np.unique(np.array(grams, dtype=np.uint64))


def _addmod(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(h*B + w) mod 2^61-1 on uint64 arrays, overflow-safe."""
    s = _mulmod_mersenne(h, _GRAM_B) + w  # both < 2^61 -> sum < 2^62, no overflow
    return np.where(s >= _MERSENNE, s - np.uint64(_MERSENNE), s)


def _batch_gram_hashes(texts, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`_word_ngram_hashes` over a whole batch: md5 once per
    *unique word* (the only Python loop), polynomial fold and per-doc dedup in
    numpy. Returns (flat sorted-unique gram hashes, doc offsets len D+1)."""
    flat, offsets, _ = _batch_gram_hashes_lens(texts, n)
    return flat, offsets


def _batch_word_hashes_ref(texts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar reference for :func:`_batch_word_hashes` (per-doc Python
    ``_ws_split`` + pandas factorize) — kept for the parity test that pins
    the vectorized tokenizer byte-equal; not on any hot path."""
    words_per_doc = [_ws_split(t.lower()) for t in texts]
    lens = np.array([len(w) for w in words_per_doc], dtype=np.int64)
    D = len(lens)
    word_off = np.zeros(D + 1, dtype=np.int64)
    np.cumsum(lens, out=word_off[1:])
    flat_words = [w for ws in words_per_doc for w in ws]
    if not flat_words:
        return np.zeros(0, dtype=np.uint64), lens, word_off
    codes, uniques = pd.factorize(np.asarray(flat_words, dtype=object), sort=False)
    wh = _word_hashes_vec(uniques)[codes]  # per occurrence, already mod M
    return wh, lens, word_off


def _batch_word_hashes(texts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The TOKENIZE+HASH half of :func:`_batch_gram_hashes_lens`: lower +
    RE2-class whitespace split + md5-per-unique-word (the expensive pass).
    Returns (word hash per occurrence, per-doc word counts, word offsets
    len D+1). Callers needing several n-gram views of one batch (the fused
    repetition+decontamination filter) pay this ONCE and fold each view
    with :func:`_fold_gram_view`.

    Fully vectorized — the round-4 verdict's last per-row Python in the
    gram family: polars ``to_lowercase`` (Rust Unicode full case mapping,
    same table as ``str.lower``) + ``extract_all`` over the complement of
    ``_WS_CHARS`` (the :func:`_segment_strings_vec` tokenizer), Arrow
    ``list_flatten`` + ``dictionary_encode`` for the unique-word pass, md5
    only per DICTIONARY entry. ~4x the scalar path on transcript-shaped
    batches (200k docs / 5.9M words: 2.5 s → 0.64 s single-threaded);
    pinned byte-equal to :func:`_batch_word_hashes_ref` by
    ``test_functions.py``'s tokenizer parity test."""
    import polars as pl

    s = pl.Series(list(texts) if not isinstance(texts, pl.Series) else texts)
    wa = s.cast(pl.String).fill_null("").str.to_lowercase().str.extract_all(
        _WS_TOKEN_RE
    ).to_arrow()
    lens = pc.list_value_length(wa).cast(pa.int64()).to_numpy(zero_copy_only=False)
    D = len(lens)
    word_off = np.zeros(D + 1, dtype=np.int64)
    np.cumsum(lens, out=word_off[1:])
    flat = pc.list_flatten(wa)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    if len(flat) == 0:
        return np.zeros(0, dtype=np.uint64), lens, word_off
    de = flat.dictionary_encode()
    codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    wh = _word_hashes_vec(de.dictionary)[codes]  # per occurrence, already mod M
    return wh, lens, word_off


def _batch_gram_hashes_lens(
    texts, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """As :func:`_batch_gram_hashes`, additionally returning the per-doc WORD
    counts — callers that need window totals (repetition scoring) must not
    re-run the lower+regex tokenization this function already paid for."""
    wh, lens, word_off = _batch_word_hashes(texts)
    grams, offsets = _fold_gram_view(wh, lens, word_off, n)
    return grams, offsets, lens


def _fold_gram_view(
    wh: np.ndarray, lens: np.ndarray, word_off: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The FOLD half: n-gram polynomial fold + per-doc dedup over a
    pre-tokenized batch (cheap numpy; no Python loops). Returns (flat
    per-doc-unique gram hashes, doc offsets len D+1)."""
    D = len(lens)
    if len(wh) == 0:
        return np.zeros(0, dtype=np.uint64), np.zeros(D + 1, dtype=np.int64)

    # full n-windows: starts whose window stays inside one doc (L >= n)
    full = lens >= n
    starts_list, gram_doc_list = [], []
    if full.any():
        counts = np.where(full, lens - n + 1, 0)
        starts = np.repeat(word_off[:-1], counts) + _ranges(counts)
        h = wh[starts].copy()
        for j in range(1, n):
            h = _addmod(h, wh[starts + j])
        starts_list.append(h)
        gram_doc_list.append(np.repeat(np.arange(D), counts))
    # short docs (0 < L < n): one fold over all words
    short = (lens > 0) & (lens < n)
    if short.any():
        s_idx = np.nonzero(short)[0]
        s_off = word_off[:-1][s_idx]
        s_len = lens[s_idx]
        h = wh[s_off].copy()
        for j in range(1, n - 1):
            m = s_len > j
            h[m] = _addmod(h[m], wh[s_off[m] + j])
        starts_list.append(h)
        gram_doc_list.append(s_idx)
    grams = np.concatenate(starts_list)
    gdoc = np.concatenate(gram_doc_list)
    # per-doc unique: sort by (doc, gram), drop consecutive dups
    order = np.lexsort((grams, gdoc))
    grams, gdoc = grams[order], gdoc[order]
    keep = np.ones(len(grams), dtype=bool)
    keep[1:] = (gdoc[1:] != gdoc[:-1]) | (grams[1:] != grams[:-1])
    grams, gdoc = grams[keep], gdoc[keep]
    offsets = np.zeros(D + 1, dtype=np.int64)
    np.cumsum(np.bincount(gdoc, minlength=D), out=offsets[1:])
    return grams, offsets


def _batch_gram_positional(texts, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Positional n-gram hashes — duplicates kept, document order preserved:
    the winnowing input. Same word hash + polynomial fold as
    :func:`_batch_gram_hashes_lens`'s full-window branch WITHOUT the per-doc
    set dedup; docs with fewer than ``n`` words contribute no grams (no full
    window — mirrored by the SQL twin's ``WHERE L >= n``). Returns
    (flat gram hashes, per-doc gram counts)."""
    wh, lens, word_off = _batch_word_hashes(texts)
    counts = np.maximum(lens - n + 1, 0)
    if not counts.any():
        return np.zeros(0, dtype=np.uint64), counts
    starts = np.repeat(word_off[:-1], counts) + _ranges(counts)
    h = wh[starts].copy()
    for j in range(1, n):
        h = _addmod(h, wh[starts + j])
    return h, counts


def _ranges(counts: np.ndarray) -> np.ndarray:
    """[0..c0), [0..c1), ... concatenated (vectorized arange per segment)."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts_at = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts_at, counts)


class MinHasher:
    """Permutation parameters for MinHash, built once per actor — the single
    source of truth shared with the SQL oracle (``oracles.DEDUP_MINHASH_LSH``
    embeds ``a``/``b`` as literals from this same constructor)."""

    def __init__(self, num_perm: int = 64, ngram: int = 3, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.ngram = ngram


class FastMinHasher(MinHasher):
    """Actor-pool signature stage, fully vectorized: the whole batch's
    shingles as one flat array per permutation (split multiply-mod on uint64,
    segment-min via reduceat). Emits one row per *non-empty* doc:
    (doc_id, sig list<int64>, grams binary) — the grams blob (sorted unique
    uint64 shingle hashes) rides along for the join-based Jaccard verify."""

    def signature_matrix(self, flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """flat: all shingle hashes concatenated; offsets: doc boundaries
        (len D+1). Returns (D, num_perm) signature matrix."""
        D = len(offsets) - 1
        sigs = np.full((D, self.num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
        if len(flat) == 0:
            return sigs
        x = flat % _MERSENNE
        nonempty = offsets[:-1] < offsets[1:]
        red_idx = offsets[:-1][nonempty]
        for i in range(self.num_perm):
            hv = _mulmod_mersenne(x, self.a[i]) + self.b[i]
            hv = (hv & _MERSENNE) + (hv >> np.uint64(61))
            hv = np.where(hv >= _MERSENNE, hv - _MERSENNE, hv)
            if len(red_idx):
                # segment-min via reduceat over non-empty doc ranges
                sigs[nonempty, i] = np.minimum.reduceat(hv, red_idx)
        return sigs

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "doc_id": pd.Series(dtype="int64"),
                "sig": pd.Series(dtype=object),
                "grams": pd.Series(dtype=object),
            }
        )
        if len(batch) == 0 or "doc_id" not in batch.columns:
            return empty
        flat, offsets = _batch_gram_hashes(list(batch["text"].fillna("")), self.ngram)
        sigs = self.signature_matrix(flat, offsets)
        nonempty = offsets[:-1] < offsets[1:]  # shingle-less docs leave the pipeline
        if not nonempty.any():
            return empty
        out = pd.DataFrame({"doc_id": batch["doc_id"].values[nonempty].astype("int64")})
        out["sig"] = [s.astype("int64") for s in sigs[nonempty]]
        out["grams"] = [
            flat[offsets[i] : offsets[i + 1]].tobytes()
            for i in np.nonzero(nonempty)[0]
        ]
        return out


class MinHashSpillWriter(FastMinHasher):
    """Arrow-table twin of :class:`FastMinHasher` for the parquet spill
    fork: emits ``sig`` as a PLAIN ``list<int64>`` column. The pandas
    object-of-ndarrays output would be converted to Ray's fixed-shape
    tensor extension type at the block boundary, and that type's pandas
    metadata does NOT survive a parquet round-trip — reading the spill back
    and converting to pandas raises on the unparseable
    ``"numpy.ndarray(shape=(P,), dtype=int64)"`` dtype string."""

    def __call__(self, batch: pd.DataFrame) -> pa.Table:  # type: ignore[override]
        out = super().__call__(batch)
        if len(out):
            values = np.concatenate(list(out["sig"])).astype(np.int64)
        else:
            values = np.zeros(0, np.int64)
        offs = pa.array(
            np.arange(len(out) + 1, dtype=np.int32) * np.int32(self.num_perm),
            pa.int32(),
        )
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"].to_numpy(np.int64), pa.int64()),
                "sig": pa.ListArray.from_arrays(offs, pa.array(values, pa.int64())),
                "grams": pa.array(list(out["grams"]), pa.binary()),
            }
        )


def _mulmod_mersenne(x: np.ndarray, a: np.uint64) -> np.ndarray:
    """(a * x) mod (2^61-1) without 128-bit ints: split a into hi/lo 32-bit
    halves, reduce each partial product with the Mersenne fold."""
    a = np.uint64(a)
    x = x.astype(np.uint64)
    a_lo = a & np.uint64(0xFFFFFFFF)
    a_hi = a >> np.uint64(32)
    x_lo = x & np.uint64(0xFFFFFFFF)
    x_hi = x >> np.uint64(32)

    def fold(v):
        return (v & np.uint64(_MERSENNE)) + (v >> np.uint64(61))

    # x*a = (x_hi*a_hi)<<64 + (x_hi*a_lo + x_lo*a_hi)<<32 + x_lo*a_lo (mod p)
    # 2^64 mod p = 8 ; 2^32 mod p = 2^32
    hh = fold(x_hi * a_hi * np.uint64(8))
    mid = x_hi * a_lo + x_lo * a_hi  # < 2^63, no overflow
    mid = fold(_shift32_mod(mid))
    ll = fold(x_lo * a_lo)
    s = fold(hh + mid + ll)
    s = np.where(s >= _MERSENNE, s - _MERSENNE, s)
    return s


def _shift32_mod(v: np.ndarray) -> np.ndarray:
    """(v << 32) mod 2^64 folded — helper for _mulmod_mersenne."""
    lo = (v << np.uint64(32)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    hi = v >> np.uint64(32)
    return (lo & np.uint64(_MERSENNE)) + (lo >> np.uint64(61)) + hi * np.uint64(8)


def _bk_cols(rows_per_band: int) -> list[str]:
    return [f"bk{c}" for c in range(rows_per_band)]


def lsh_bucket_rows(
    sig_batch: pd.DataFrame, bands: int, rows_per_band: int
) -> pd.DataFrame:
    """Explode signatures into (band, bk0..bk{R-1}, doc_id) bucket rows.

    The band key is the R raw minhash values of the band as int64 columns
    (values live in [0, 2^61) so int64 is lossless) — collision-free by
    construction, so the candidate set is exactly the one the SQL oracle's
    ``string_agg(v, '-' ORDER BY p)`` equality reproduces, while the
    exchange ships 8·R fixed-width bytes per row instead of a ~R·20-char
    object-dtype string (≈4× fewer shuffled bytes at R=4, no numpy string
    concatenation pass).

    ``rows_per_band`` is required (= num_perm // bands): inferring it from
    the first row would make an EMPTY Ray block emit a guessed bk-column
    schema that disagrees with non-empty blocks and break schema
    unification at the shuffle."""
    if len(sig_batch) == 0:
        cols = {"band": pd.Series(dtype="int64")}
        for c in _bk_cols(rows_per_band):
            cols[c] = pd.Series(dtype="int64")
        cols["doc_id"] = pd.Series(dtype="int64")
        return pd.DataFrame(cols)
    sigs = np.stack(sig_batch["sig"].values).astype(np.int64)
    D, P = sigs.shape
    R = P // bands
    # band-major long form: [band0 rows for all docs, band1 rows, ...]
    bk = sigs.reshape(D, bands, R).transpose(1, 0, 2).reshape(bands * D, R)
    out = pd.DataFrame(
        {"band": np.repeat(np.arange(bands, dtype=np.int64), D)}
    )
    for c in range(R):
        out[f"bk{c}"] = bk[:, c]
    out["doc_id"] = np.tile(sig_batch["doc_id"].values.astype(np.int64), bands)
    return out


#: sub-partitions per band for pair generation: whole buckets stay together
#: (partition = f(band, hash(band_key))) while one group task handles MANY
#: buckets — per-group Python dispatch over ~O(corpus) tiny buckets was the
#: dominant cost of the old groupby((band, band_key)) plan (25s of a 30s
#: pipeline at sf0.1), and a salted coarse key also bounds group size at scale
_BUCKET_SALT = 64


def with_bucket_part(buckets: pd.DataFrame, salt: int = _BUCKET_SALT) -> pd.DataFrame:
    # Fibonacci-mix the int64 band-key columns into one 64-bit word — a
    # deterministic partition assignment only (collisions just co-locate
    # extra buckets; pair generation still compares the raw columns)
    h = np.zeros(len(buckets), dtype=np.uint64)
    for c in sorted(
        (c for c in buckets.columns if c.startswith("bk")), key=lambda c: int(c[2:])
    ):
        h = h * _SAMPLE_MIX + buckets[c].to_numpy().astype(np.uint64)
    part = h % np.uint64(salt)
    buckets = buckets.copy()
    buckets["bucket_part"] = (
        buckets["band"].values * salt + part.astype(np.int64)
    ).astype(np.int64)
    return buckets


def _triu_pairs_in_runs(run_start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-index pairs (i < j) within each equal-key run of a run-sorted
    frame; ``run_start`` marks run beginnings. THE shared pair-generation
    kernel behind minhash/simhash/embedding-LSH bucket collisions — loops
    once per collision run (k ≥ 2), never per pair."""
    run_id = np.cumsum(run_start) - 1
    counts = np.bincount(run_id)
    starts = np.concatenate(([0], np.cumsum(counts)))
    ia_parts, ib_parts = [], []
    for r in np.flatnonzero(counts >= 2):
        k, st = counts[r], starts[r]
        iu, ju = np.triu_indices(k, 1)
        ia_parts.append(st + iu)
        ib_parts.append(st + ju)
    if not ia_parts:
        e = np.array([], np.int64)
        return e, e
    return np.concatenate(ia_parts), np.concatenate(ib_parts)


def candidate_pairs_grouped(g: pd.DataFrame) -> pd.DataFrame:
    """All buckets of one salted partition → candidate pairs (a<b), pair
    generation vectorized over bucket runs; only collision runs (k≥2) loop,
    and each loops once per bucket, not per pair."""
    empty = pd.DataFrame({"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")})
    if len(g) < 2:
        return empty
    bk = sorted(
        (c for c in g.columns if c.startswith("bk")), key=lambda c: int(c[2:])
    )
    g = g.sort_values(["band", *bk, "doc_id"], kind="mergesort")
    ids = g["doc_id"].values.astype(np.int64)
    new = np.empty(len(g), dtype=bool)
    new[0] = True
    new[1:] = g["band"].values[1:] != g["band"].values[:-1]
    for c in bk:
        v = g[c].values
        new[1:] |= v[1:] != v[:-1]
    ia, ib = _triu_pairs_in_runs(new)
    if not len(ia):
        return empty
    a, b = ids[ia], ids[ib]
    keep = a != b  # a doc_id duplicated within a bucket must not self-pair
    a, b = a[keep], b[keep]
    return pd.DataFrame({"a": np.minimum(a, b), "b": np.maximum(a, b)})


def _jaccard_micro_from_blobs(batch: pd.DataFrame) -> pd.DataFrame:
    """Exact integer Jaccard from the two sorted-unique shingle blobs:
    floor(1e6 * |A∩B| / |A∪B|) — integer arithmetic end to end so the SQL
    oracle's ``inter*1000000 // union`` is bit-identical."""
    micro = np.empty(len(batch), dtype=np.int64)
    for i, (ga, gb) in enumerate(zip(batch["grams"], batch["grams_b"])):
        a = np.frombuffer(ga, dtype=np.uint64)
        b = np.frombuffer(gb, dtype=np.uint64)
        inter = len(np.intersect1d(a, b, assume_unique=True))
        union = len(a) + len(b) - inter
        micro[i] = (inter * 1_000_000) // union
    out = batch[["a", "b"]].copy()
    out["jaccard_micro"] = micro
    return out


def minhash_lsh_dedup(
    ds: ray.data.Dataset,
    num_perm: int = 64,
    bands: int = 16,
    ngram: int = 3,
    threshold: float = 0.7,
    num_partitions: int = exchange.NUM_PARTITIONS,
    spill_dir: str | None = None,
) -> ray.data.Dataset:
    """Full MinHash-LSH near-dup pipeline → verified duplicate pairs
    (a < b, exact shingle Jaccard ≥ threshold), emitted as
    (a, b, jaccard_micro).

    100 TB shape: signatures+grams computed once and FORKED VIA PARQUET
    SPILL — the signature table (~1–5% of corpus bytes) is written once to
    ``spill_dir`` and read back by both the bucketing and the verify branch,
    so it never has whole-table plasma residency (at 100 TB that would be
    1–5 TB of object store). Bucket rows are the only all-to-all shuffle;
    the verify stage attaches each side's shingle blob via a co-partitioned
    hash join on doc_id — no driver-side collect, no whole-corpus
    broadcast. The spill directory is scratch: pass ``spill_dir`` to own its
    lifetime yourself (it must outlive consumption of the returned lazy
    Dataset). ROTATION HAZARD with the default: only the newest 2 default
    spill dirs per operator are kept, so consume (or ``materialize()``) the
    returned Dataset before a 3rd default-spill call to this operator or
    ``ngram_jaccard_dedup`` — a still-unconsumed Dataset whose spill was
    rotated away fails at consumption time with a read_parquet error. Small
    estimated forks are auto-placed on /dev/shm (see
    ``_scratch_spill_dir``)."""
    thr_micro = round(threshold * 1_000_000)

    if spill_dir is None:
        # fork ≈ sig (8B·num_perm/doc) + grams (8B/token) ≈ 2× the
        # compressed text bytes; estimable only for raw local reads
        est = _estimate_source_bytes(ds)
        spill_dir = _scratch_spill_dir(
            "minhash_fork_", est_bytes=6 * est if est is not None else None
        )
    ds.map_batches(
        MinHashSpillWriter,
        batch_format="pandas",
        batch_size=2048,
        concurrency=(1, 8),
        fn_constructor_kwargs={"num_perm": num_perm, "ngram": ngram},
    ).write_parquet(spill_dir)  # fork point: both branches read from disk
    if _empty_spill(spill_dir):  # empty corpus: no spill files to read
        return ray.data.from_arrow(_PAIRS_SCHEMA.empty_table())
    # each branch re-reads ONLY its columns (explicit parquet projection —
    # the sig branch never pays for the grams blob and vice versa; the
    # grams side is read twice, once per join side)
    sig_ds = ray.data.read_parquet(spill_dir, columns=["doc_id", "sig"])
    buckets = sig_ds.map_batches(
        lambda b: with_bucket_part(
            lsh_bucket_rows(b, bands=bands, rows_per_band=num_perm // bands)
        ),
        batch_format="pandas",
    )
    pairs = buckets.groupby("bucket_part").map_groups(
        candidate_pairs_grouped, batch_format="pandas"
    )
    # dedup candidate pairs (same pair can fire in several bands): a plain
    # aggregate (no per-group Python) — one row per (a, b)
    from ray.data.aggregate import Count

    pairs = pairs.groupby(["a", "b"]).aggregate(Count(alias_name="n_bands"))
    return _verify_pairs_blob_join(pairs, spill_dir, num_partitions, thr_micro)


def _verify_pairs_blob_join(
    pairs: ray.data.Dataset, spill_dir: str, num_partitions: int, thr_micro: int
) -> ray.data.Dataset:
    """Co-partitioned exact-Jaccard verify shared by the minhash-LSH and
    AllPairs paths: hash-join each side's sorted-unique shingle blob (read
    from the parquet spill fork, grams column only) onto the candidate
    pairs, then integer Jaccard per row and the threshold filter. No
    driver-side collect, no whole-corpus broadcast."""
    grams = ray.data.read_parquet(spill_dir, columns=["doc_id", "grams"])
    grams_b = ray.data.read_parquet(spill_dir, columns=["doc_id", "grams"]).rename_columns(
        {"doc_id": "doc_id_b", "grams": "grams_b"}
    )
    witha = shuffle_hash_join(
        pairs.select_columns(["a", "b"]), grams, "a", "doc_id", num_partitions=num_partitions
    )
    withab = shuffle_hash_join(witha, grams_b, "b", "doc_id_b", num_partitions=num_partitions)
    verified = withab.map_batches(_jaccard_micro_from_blobs, batch_format="pandas")
    return verified.map_batches(
        lambda b: b[b["jaccard_micro"] >= thr_micro], batch_format="pandas"
    )


_PAIRS_SCHEMA = pa.schema(
    [("a", pa.int64()), ("b", pa.int64()), ("jaccard_micro", pa.int64())]
)


def _empty_spill(spill_dir: str) -> bool:
    """True iff the fork wrote no files — ``write_parquet`` of an EMPTY
    dataset writes nothing at all, so the branches' ``read_parquet`` would
    fail; callers short-circuit to a typed empty pair table instead."""
    import glob

    return not glob.glob(os.path.join(spill_dir, "*.parquet"))


#: scratch spill dirs kept alive per prefix: the newest N survive, older
#: ones are deleted when a new call rotates them out. Bounds repeated
#: same-process calls (bench repeats ×3 would otherwise hold full-corpus
#: gram blobs per call until exit — the spill-disk exhaustion failure mode)
#: while still allowing one prior call's unconsumed lazy Dataset to finish.
_SCRATCH_KEEP = 2
_SCRATCH_DIRS: dict[str, list[str]] = {}


#: env override for the /dev/shm spill budget (bytes); unset → 1/4 of the
#: ramdisk's current free space
_SHM_SPILL_BUDGET_ENV = "SCYLLA_CDC_RAY_SHM_SPILL_BUDGET"


def _estimate_source_bytes(ds) -> int | None:
    """Compressed on-disk bytes of the dataset's local input files, when the
    plan still knows them (raw ``read_parquet``; any transformation drops the
    file metadata in current Ray) — None otherwise. Metadata-only: never
    triggers execution."""
    try:
        files = ds.input_files()
    except Exception:
        return None
    if not files:
        return None
    tot = 0
    for f in files:
        if not os.path.exists(f):  # non-local URI: no cheap size
            return None
        tot += os.path.getsize(f)
    return tot


def _scratch_spill_dir(prefix: str, est_bytes: int | None = None) -> str:
    """Fresh scratch dir; the newest ``_SCRATCH_KEEP`` per prefix are
    kept (older ones deleted on rotation, the rest at interpreter exit).
    Callers that need a precise lifetime pass their own ``spill_dir`` —
    a Dataset from more than ``_SCRATCH_KEEP`` calls ago that is still
    unconsumed will fail loudly on its deleted spill.

    When the caller can estimate the spill size (``est_bytes``) and it fits
    the ramdisk budget (``_SHM_SPILL_BUDGET_ENV`` env, default 1/4 of
    /dev/shm's free space, never more than half of free), the dir is placed
    on /dev/shm — small-corpus forks then pay memory bandwidth instead of
    disk I/O. No estimate → /tmp, the safe default. Callers size
    ``est_bytes`` CONSERVATIVELY (the dedup forks pass 6× the compressed
    source bytes: spilled grams are ~8 B/token while parquet web text
    compresses to ~1–2 B/token, and Ray's plasma store shares /dev/shm —
    an optimistic estimate admitted here can ENOSPC mid-write or starve
    the object store, where /tmp would simply have been slower)."""
    import atexit
    import shutil
    import tempfile

    base = "/tmp"
    if est_bytes is not None and os.path.isdir("/dev/shm"):
        try:
            free = shutil.disk_usage("/dev/shm").free
        except OSError:
            free = 0
        env = os.environ.get(_SHM_SPILL_BUDGET_ENV)
        budget = int(env) if env else free // 4
        if est_bytes <= min(budget, free // 2):
            base = "/dev/shm"
    d = tempfile.mkdtemp(prefix=prefix, dir=base)
    atexit.register(shutil.rmtree, d, ignore_errors=True)
    q = _SCRATCH_DIRS.setdefault(prefix, [])
    q.append(d)
    while len(q) > _SCRATCH_KEEP:
        shutil.rmtree(q.pop(0), ignore_errors=True)
    return d


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard set-similarity self-join (AllPairs prefix filter)
# ---------------------------------------------------------------------------


class ShingleSetBuilder:
    """Actor-pool stage: one row per non-empty doc →
    (doc_id, grams binary = sorted-unique uint64 shingle hashes, n int64).
    Shares :func:`_batch_gram_hashes` (and therefore the exact shingle
    definition) with the MinHash path and the SQL oracle's shingles CTE.

    Emits an EXPLICIT Arrow table: a pandas empty frame would infer the
    grams column as null type, writing a spill file whose schema the
    read-back column projection rejects on an empty corpus (same rule as
    :class:`MinHashSpillWriter` — spill columns are never left to
    pandas→arrow inference)."""

    SCHEMA = pa.schema(
        [("doc_id", pa.int64()), ("grams", pa.binary()), ("n", pa.int64())]
    )

    def __init__(self, ngram: int = 3):
        self.ngram = ngram

    def __call__(self, batch: pd.DataFrame) -> pa.Table:
        if len(batch) == 0 or "doc_id" not in batch.columns:
            return self.SCHEMA.empty_table()
        flat, offsets = _batch_gram_hashes(list(batch["text"].fillna("")), self.ngram)
        nonempty = offsets[:-1] < offsets[1:]  # shingle-less docs leave the pipeline
        if not nonempty.any():
            return self.SCHEMA.empty_table()
        return pa.table(
            {
                "doc_id": pa.array(
                    batch["doc_id"].values[nonempty].astype("int64"), pa.int64()
                ),
                "grams": pa.array(
                    [
                        flat[offsets[i] : offsets[i + 1]].tobytes()
                        for i in np.nonzero(nonempty)[0]
                    ],
                    pa.binary(),
                ),
                "n": pa.array(
                    (offsets[1:] - offsets[:-1])[nonempty].astype("int64"), pa.int64()
                ),
            }
        )


def prefix_bucket_rows(
    batch: pd.DataFrame,
    thr_micro: int,
    num_parts: int = 512,
    vocab: tuple[np.ndarray, np.ndarray] | None = None,
) -> pd.DataFrame:
    """AllPairs prefix rows: for each doc emit its first
    ``p = n - ceil(thr·n) + 1`` shingle hashes — in ascending (document
    frequency, hash) order when a ``vocab`` table ``(sorted gh, df)`` is
    supplied (the canonical AllPairs ordering: prefixes hold the rarest
    grams), else in plain ascending-hash order (the blob is already
    sorted) — as (gh, doc_id, n, bucket_part) rows.

    Completeness holds for ANY total order shared by all docs: a pair with
    Jaccard ≥ thr has intersection ``t ≥ ceil(thr·n)`` on each side; the
    order-smallest *common* gram c is preceded in each set only by
    non-common grams, of which there are at most ``n − t ≤ p − 1`` — so c
    lies in BOTH prefixes and the bucket group-join cannot miss the pair.
    ``ceil`` uses thr_micro integer arithmetic so the bound is exact, never
    rounded tight.

    bucket_part is a Fibonacci-mix of gh into a coarse partition id: all
    rows of one gram co-locate while one group task handles many grams —
    the same salted-coarse-grouping rule as the LSH bucket path."""
    if len(batch) == 0:
        return pd.DataFrame(
            {
                "gh": pd.Series(dtype="int64"),
                "doc_id": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64"),
                "bucket_part": pd.Series(dtype="int64"),
            }
        )
    ns = batch["n"].to_numpy().astype(np.int64)
    p = _prefix_len(ns, thr_micro)
    if vocab is None:
        # hash-ascending order: the blob is already sorted, take the head
        flat = np.concatenate(
            [np.frombuffer(g, dtype=np.uint64)[:k] for g, k in zip(batch["grams"], p)]
        )
    else:
        # frequency-ascending order (the canonical AllPairs ordering): each
        # doc's prefix holds its RAREST grams, so hot grams — the quadratic
        # candidate blowup — fall out of every prefix they can fall out of
        ghs, dfs = vocab
        flat_all = np.concatenate(
            [np.frombuffer(g, dtype=np.uint64) for g in batch["grams"]]
        )
        doc_of = np.repeat(np.arange(len(ns), dtype=np.int64), ns)
        idx = np.searchsorted(ghs, flat_all)
        # a partial vocab must fail loudly, not index out of bounds or
        # silently read a neighboring gram's df — but a batch with NO grams
        # at all (every doc shorter than n words) has nothing to look up, so
        # an empty vocab is then legitimate, not missing
        if len(flat_all) and (
            len(ghs) == 0
            or (idx == len(ghs)).any()
            or not (ghs[np.minimum(idx, len(ghs) - 1)] == flat_all).all()
        ):
            raise ValueError(
                "prefix_bucket_rows: vocab is missing grams present in the "
                "batch — pass the complete (gh, df) table"
            )
        df_flat = dfs[idx]
        order = np.lexsort((flat_all, df_flat, doc_of))
        starts = np.cumsum(ns) - ns
        pos = np.arange(len(flat_all), dtype=np.int64) - np.repeat(starts, ns)
        keep = pos < np.repeat(p, ns)
        flat = flat_all[order][keep]
    out = pd.DataFrame({"gh": flat.astype(np.int64)})
    out["doc_id"] = np.repeat(batch["doc_id"].to_numpy().astype(np.int64), p)
    out["n"] = np.repeat(ns, p)
    out["bucket_part"] = ((flat * _SAMPLE_MIX) % np.uint64(num_parts)).astype(
        np.int64
    )
    return out


def _block_gram_df(b: pd.DataFrame) -> pd.DataFrame:
    """Per-block partial document-frequency counts: (gh, c) — per-doc grams
    are already unique, so occurrences across docs = document frequency.
    Pre-aggregated per block, so the df groupby exchanges O(block vocab)
    rows, not O(shingles)."""
    if len(b) == 0:
        return pd.DataFrame(
            {"gh": pd.Series(dtype="int64"), "c": pd.Series(dtype="int64")}
        )
    flat = np.concatenate([np.frombuffer(g, dtype=np.uint64) for g in b["grams"]])
    u, c = np.unique(flat, return_counts=True)
    return pd.DataFrame({"gh": u.astype(np.int64), "c": c.astype(np.int64)})


class FreqPrefixRows:
    """Actor-pool prefix-row stage holding the broadcast gram-frequency
    table: ``ray.get`` once per actor in ``__init__``, never re-shipped per
    batch (the standard small-side broadcast pattern)."""

    def __init__(self, vocab_ref, thr_micro: int, num_parts: int = 512):
        import ray

        # a plain (ghs, dfs) tuple is accepted too (direct/test use)
        self.vocab = (
            ray.get(vocab_ref) if isinstance(vocab_ref, ray.ObjectRef) else vocab_ref
        )
        self.thr_micro = thr_micro
        self.num_parts = num_parts

    def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
        return prefix_bucket_rows(
            b, self.thr_micro, num_parts=self.num_parts, vocab=self.vocab
        )


def _prefix_len(ns: np.ndarray, thr_micro: int) -> np.ndarray:
    """AllPairs prefix length ``p = n − ceil(thr·n) + 1`` clipped to
    [1, n], in exact thr_micro integer arithmetic. COMPLETENESS-CRITICAL
    and shared by the broadcast and distributed frequency paths — the two
    must compute the identical bound or one silently drops true pairs."""
    p = ns - (thr_micro * ns + 999_999) // 1_000_000 + 1
    return np.clip(p, 1, ns)


def _explode_shingle_rows(b: pd.DataFrame, num_parts: int = 512) -> pd.DataFrame:
    """(doc_id, grams blob, n) → one row per shingle (doc_id, gh, n,
    gh_part) for the distributed frequency path; gh_part co-locates all
    rows of a gram."""
    if len(b) == 0:
        return pd.DataFrame(
            {
                "doc_id": pd.Series(dtype="int64"),
                "gh": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64"),
                "gh_part": pd.Series(dtype="int64"),
            }
        )
    ns = b["n"].to_numpy().astype(np.int64)
    flat = np.concatenate([np.frombuffer(g, dtype=np.uint64) for g in b["grams"]])
    return pd.DataFrame(
        {
            "doc_id": np.repeat(b["doc_id"].to_numpy().astype(np.int64), ns),
            "gh": flat.astype(np.int64),
            "n": np.repeat(ns, ns),
            "gh_part": ((flat * _SAMPLE_MIX) % np.uint64(num_parts)).astype(np.int64),
        }
    )


def _attach_df_in_gh_partition(g: pd.DataFrame) -> pd.DataFrame:
    """One gh partition → the same rows + exact global df per gram. All
    rows of a gram are co-located and per-doc unique, so df(gh) is simply
    the run length after a gh sort — the 'vocab join' needs no separate
    vocab pipeline at all."""
    if len(g) == 0:
        return g.assign(df=pd.Series(dtype="int64")).drop(columns=["gh_part"])
    gh = g["gh"].to_numpy()
    order = np.argsort(gh, kind="stable")
    og = gh[order]
    rs = np.ones(len(g), dtype=bool)
    rs[1:] = og[1:] != og[:-1]
    rid = np.cumsum(rs) - 1
    runlen = np.bincount(rid)
    df = np.empty(len(g), dtype=np.int64)
    df[order] = runlen[rid]
    out = g.drop(columns=["gh_part"]).copy()
    out["df"] = df
    return out


def _prefix_rows_in_doc_partition(
    g: pd.DataFrame, thr_micro: int, num_parts: int = 512
) -> pd.DataFrame:
    """One doc partition of (doc_id, gh, n, df) rows → AllPairs prefix
    bucket rows, frequency-ascending: lexsort by (doc, df, gh), keep the
    first ``p(n)`` rows of each doc run (vectorized, no per-doc Python)."""
    if len(g) == 0:
        return pd.DataFrame(
            {
                "gh": pd.Series(dtype="int64"),
                "doc_id": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64"),
                "bucket_part": pd.Series(dtype="int64"),
            }
        )
    doc = g["doc_id"].to_numpy()
    gh = g["gh"].to_numpy()
    df = g["df"].to_numpy()
    ns = g["n"].to_numpy().astype(np.int64)
    order = np.lexsort((gh, df, doc))
    od, ogh, on = doc[order], gh[order], ns[order]
    rs = np.ones(len(g), dtype=bool)
    rs[1:] = od[1:] != od[:-1]
    rid = np.cumsum(rs) - 1
    pos = np.arange(len(g), dtype=np.int64) - np.repeat(
        np.flatnonzero(rs), np.bincount(rid)
    )
    keep = pos < _prefix_len(on, thr_micro)
    fl = ogh[keep].astype(np.uint64)
    return pd.DataFrame(
        {
            "gh": ogh[keep],
            "doc_id": od[keep],
            "n": on[keep],
            "bucket_part": ((fl * _SAMPLE_MIX) % np.uint64(num_parts)).astype(
                np.int64
            ),
        }
    )


def prefix_candidate_pairs(g: pd.DataFrame, thr_micro: int) -> pd.DataFrame:
    """All grams of one coarse partition → candidate pairs (a < b), with the
    AllPairs length filter (Jaccard ≥ thr ⇒ floor(1e6·min/max) ≥ thr_micro)
    applied before the exchange; vectorized over equal-gh runs."""
    empty = pd.DataFrame({"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")})
    if len(g) < 2:
        return empty
    g = g.sort_values(["gh", "doc_id"], kind="mergesort")
    ids = g["doc_id"].to_numpy().astype(np.int64)
    ns = g["n"].to_numpy().astype(np.int64)
    gh = g["gh"].to_numpy()
    new = np.empty(len(g), dtype=bool)
    new[0] = True
    new[1:] = gh[1:] != gh[:-1]
    ia, ib = _triu_pairs_in_runs(new)
    if not len(ia):
        return empty
    a, b = ids[ia], ids[ib]
    na, nb = ns[ia], ns[ib]
    lo, hi = np.minimum(na, nb), np.maximum(na, nb)
    keep = (a != b) & ((lo * 1_000_000) // hi >= thr_micro)
    a, b = a[keep], b[keep]
    a, b = np.minimum(a, b), np.maximum(a, b)
    # task-local pair dedup (a pair can share several grams in this
    # partition); CROSS-partition duplicates are removed by the coarse
    # pair_part exchange in ngram_jaccard_dedup, before the verify — this
    # local pass just shrinks what that exchange ships
    a, b = _unique_pairs(a, b)
    return pd.DataFrame({"a": a, "b": b})


def _unique_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized distinct over (a, b) pairs: lexsort + adjacent-unique.
    THE shared pair-dedup kernel (task-local and partition-level stages)."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    first = np.ones(len(a), dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return a[first], b[first]


def ngram_jaccard_dedup(
    ds: ray.data.Dataset,
    ngram: int = 3,
    threshold: float = 0.7,
    num_partitions: int = exchange.NUM_PARTITIONS,
    spill_dir: str | None = None,
    vocab_mode: str = "auto",
    broadcast_vocab_limit: int = 50_000_000,
) -> ray.data.Dataset:
    """EXACT n-gram Jaccard near-dup self-join → ALL pairs (a < b) with
    shingle-set Jaccard ≥ threshold, as (a, b, jaccard_micro). Unlike the
    MinHash path this is not probabilistic: the AllPairs prefix filter
    (Bayardo/Ma/Srikant, WWW'07) is complete, so the output is exactly the
    brute-force all-pairs answer at a fraction of its cost.

    100 TB shape: shingle sets are computed once and forked via parquet
    spill (same discipline as :func:`minhash_lsh_dedup`); the prefix-row
    exchange ships only ~(1−thr)·|shingles| fixed-width 24-byte rows, the
    only all-to-all over shingles; candidate pairs are generated per coarse
    gram partition with the length filter applied pre-exchange; the verify
    is the shared co-partitioned blob join. Prefixes are ordered by
    ascending document frequency (one extra aggregation pass over
    block-local partial counts), which is what makes AllPairs sub-quadratic
    under gram skew: a hot gram shared by k docs would otherwise sit in
    every prefix and generate O(k²) candidates — measured 25.7 s → with
    freq ordering a small multiple of the true pair count on the
    low-diversity bench corpus. Two frequency implementations, chosen by
    ``vocab_mode``: ``"broadcast"`` merges block-local partial counts on
    the driver and ships the (gh, df) table once via ``ray.put``
    (16 B/gram — right whenever the gram vocabulary fits memory);
    ``"join"`` is the 100 TB path with NO driver vocab at all — shingle
    rows are exchanged once keyed by gram (df = run length, since a gram's
    rows all co-locate and are per-doc unique) and once keyed by doc (each
    doc's rows sorted (df, gh) and cut at its prefix length), both coarse
    512-way exchanges with fully vectorized group kernels. ``"auto"``
    streams the partial counts and flips to the join path the moment they
    exceed ``broadcast_vocab_limit`` rows.

    Exact-duplicate cliques are the one cost frequency ordering cannot
    remove: k identical docs share every gram, so the k·(k−1)/2 pairs ARE
    the answer and the candidate/verify volume is output-bound (measured:
    4× docs with planted 4-cliques → 5.3× wall time). Run
    :func:`exact_dedup` first — as ``corpus.curation_chain`` does — so
    AllPairs only sees one representative per exact-duplicate class.

    ROTATION HAZARD with the default ``spill_dir``: only the newest 2
    default spill dirs per operator are kept — consume (or
    ``materialize()``) the returned Dataset before a 3rd default-spill call
    to this operator or :func:`minhash_lsh_dedup`, or pass ``spill_dir`` to
    own the lifetime."""
    thr_micro = round(threshold * 1_000_000)
    if spill_dir is None:
        est = _estimate_source_bytes(ds)
        spill_dir = _scratch_spill_dir(
            "ngramjac_fork_", est_bytes=6 * est if est is not None else None
        )
    ds.map_batches(
        ShingleSetBuilder,
        batch_format="pandas",
        batch_size=2048,
        concurrency=(1, 8),
        fn_constructor_kwargs={"ngram": ngram},
    ).write_parquet(spill_dir)  # fork point: both branches read from disk
    if _empty_spill(spill_dir):  # empty corpus: no spill files to read
        return ray.data.from_arrow(_PAIRS_SCHEMA.empty_table())
    use_join = vocab_mode == "join"
    if not use_join:
        # document-frequency pass: block-local partial counts, merged on
        # the driver with one np.unique over O(blocks × block-vocab) rows.
        # NOT a Ray groupby — a sort-aggregate over tens of thousands of
        # tiny gram groups costs ~20 s at sf0.1 (the same pathology
        # grouped_centroid_sums replaced with a merge tree); the vocab must
        # land on the driver anyway to become the broadcast table. In
        # "auto" mode the stream aborts to the join path the moment the
        # partials exceed the broadcast budget — bounded driver memory.
        parts_gh: list[np.ndarray] = []
        parts_c: list[np.ndarray] = []
        total = 0
        for b in (
            ray.data.read_parquet(spill_dir, columns=["grams"])
            .map_batches(_block_gram_df, batch_format="pandas")
            .iter_batches(batch_format="numpy")
        ):
            parts_gh.append(b["gh"].astype(np.uint64))
            parts_c.append(b["c"].astype(np.int64))
            total += len(b["gh"])
            if vocab_mode == "auto" and total > broadcast_vocab_limit:
                use_join = True
                parts_gh = parts_c = []  # free before the distributed path
                break
    if use_join:
        rows = ray.data.read_parquet(
            spill_dir, columns=["doc_id", "grams", "n"]
        ).map_batches(_explode_shingle_rows, batch_format="pandas")
        withdf = rows.groupby("gh_part").map_groups(
            _attach_df_in_gh_partition, batch_format="pandas"
        )

        def _doc_part(t: pd.DataFrame) -> pd.DataFrame:
            t = t.copy()
            t["doc_part"] = (
                (t["doc_id"].to_numpy().astype(np.uint64) * _SAMPLE_MIX)
                % np.uint64(512)
            ).astype(np.int64)
            return t

        buckets = (
            withdf.map_batches(_doc_part, batch_format="pandas")
            .groupby("doc_part")
            .map_groups(
                lambda g: _prefix_rows_in_doc_partition(
                    g.drop(columns=["doc_part"]), thr_micro
                ),
                batch_format="pandas",
            )
        )
    else:
        if parts_gh:
            flat_gh = np.concatenate(parts_gh)
            flat_c = np.concatenate(parts_c)
            ghs, inv = np.unique(flat_gh, return_inverse=True)  # sorted probe
            dfs = np.bincount(inv, weights=flat_c).astype(np.int64)
        else:
            ghs = np.zeros(0, np.uint64)
            dfs = np.zeros(0, np.int64)
        vocab_ref = ray.put((ghs, dfs))
        pref = ray.data.read_parquet(spill_dir, columns=["doc_id", "grams", "n"])
        buckets = pref.map_batches(
            FreqPrefixRows,
            batch_format="pandas",
            concurrency=(1, 8),
            fn_constructor_kwargs={"vocab_ref": vocab_ref, "thr_micro": thr_micro},
        )
    pairs = buckets.groupby("bucket_part").map_groups(
        lambda g: prefix_candidate_pairs(g, thr_micro), batch_format="pandas"
    )
    # cross-partition candidate dedup over COARSE hash partitions (256
    # groups), not a groupby((a, b)) — a sort-aggregate over ~1e5 tiny pair
    # groups costs ~11 s at sf0.1; a coarse exchange + per-group vectorized
    # unique is ~1 s for the identical result. Placed BEFORE the verify so
    # no aggregation stage sits downstream of the two joins (stacked
    # aggregator-actor pools can deadlock the CPU supply).
    def _dedup_pairs(g: pd.DataFrame) -> pd.DataFrame:
        a, b = _unique_pairs(g["a"].to_numpy(), g["b"].to_numpy())
        return pd.DataFrame({"a": a, "b": b})

    def _pair_part(t: pd.DataFrame) -> pd.DataFrame:
        t = t.copy()
        h = t["a"].to_numpy().astype(np.uint64) * _SAMPLE_MIX + t["b"].to_numpy().astype(
            np.uint64
        )
        t["pair_part"] = ((h * _SAMPLE_MIX) % np.uint64(256)).astype(np.int64)
        return t

    pairs = (
        pairs.map_batches(_pair_part, batch_format="pandas")
        .groupby("pair_part")
        .map_groups(_dedup_pairs, batch_format="pandas")
    )
    return _verify_pairs_blob_join(pairs, spill_dir, num_partitions, thr_micro)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


class SimHasher:
    """SimHash per doc (Charikar): sign-sum of shingle-hash bit vectors,
    vectorized with numpy bit unpacking over the whole batch's shingles.

    Shingle hashes live in [0, 2^61) so bits 61-63 are always clear — the
    effective signature is 61 bits, which keeps the value int64-positive and
    lets the SQL oracle recompute it with ``(gh >> bit) & 1`` over bits 0-60.
    Docs with no shingles (empty text) are excluded, matching the oracle."""

    def __init__(self, ngram: int = 3):
        self.ngram = ngram

    def simhash(self, hashes: np.ndarray) -> np.uint64:
        if len(hashes) == 0:
            return np.uint64(0)
        bits = np.unpackbits(hashes.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        # signed arithmetic is load-bearing: a uint sum would UNDERFLOW on
        # minority bits (popcount*2 < n) and read as "set"
        score = bits.sum(axis=0).astype(np.int64) * 2 - len(hashes)  # (+1/-1 sums)
        out = np.packbits((score > 0).astype(np.uint8), bitorder="little")
        return out.view(np.uint64)[0]

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0 or "doc_id" not in batch.columns:
            out = pd.DataFrame({"doc_id": pd.Series(dtype="int64")})
            out["simhash"] = pd.Series(dtype="int64")
            return out
        flat, offsets = _batch_gram_hashes(list(batch["text"].fillna("")), self.ngram)
        nonempty = offsets[:-1] < offsets[1:]
        out = pd.DataFrame({"doc_id": batch["doc_id"].values[nonempty].astype("int64")})
        out["simhash"] = [
            np.int64(self.simhash(flat[offsets[i] : offsets[i + 1]]))
            for i in np.nonzero(nonempty)[0]
        ]
        return out


def simhash_near_dups(ds: ray.data.Dataset, max_hamming: int = 3) -> ray.data.Dataset:
    """Near-dup pairs with Hamming(simhash) ≤ max_hamming via 4×16-bit chunk
    banding (pigeonhole: ≤3 differing bits ⇒ ≥1 identical 16-bit chunk)."""
    sigs = ds.map_batches(SimHasher, batch_format="pandas", concurrency=(1, 8))

    def chunks(batch: pd.DataFrame) -> pd.DataFrame:
        h = batch["simhash"].values.astype(np.uint64)
        recs = []
        for c in range(4):
            recs.append(
                pd.DataFrame(
                    {
                        "chunk": c,
                        "chunk_val": ((h >> np.uint64(16 * c)) & np.uint64(0xFFFF)).astype("int64"),
                        "doc_id": batch["doc_id"].values,
                        "simhash": batch["simhash"].values,
                    }
                )
            )
        return pd.concat(recs, ignore_index=True)

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        # salted coarse grouping (see _BUCKET_SALT): whole buckets co-locate,
        # one group task handles many buckets — avoids per-bucket Python
        # dispatch over up to 4×2^16 tiny groups
        batch = batch.copy()
        batch["bucket_part"] = (
            batch["chunk"].values * _BUCKET_SALT + batch["chunk_val"].values % _BUCKET_SALT
        ).astype(np.int64)
        return batch

    buckets = sigs.map_batches(chunks, batch_format="pandas").map_batches(
        add_part, batch_format="pandas"
    )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"), "hamming": pd.Series(dtype="int64")}
        )
        g = g.drop_duplicates(["chunk", "chunk_val", "doc_id"]).sort_values(
            ["chunk", "chunk_val", "doc_id"], kind="mergesort"
        )
        if len(g) < 2:
            return empty
        ck = g["chunk"].values
        cv = g["chunk_val"].values
        ids = g["doc_id"].values.astype(np.int64)
        hs = g["simhash"].values.astype(np.uint64)
        new = np.empty(len(g), dtype=bool)
        new[0] = True
        new[1:] = (ck[1:] != ck[:-1]) | (cv[1:] != cv[:-1])
        ia, ib = _triu_pairs_in_runs(new)
        if not len(ia):
            return empty
        x = hs[ia] ^ hs[ib]
        ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1).astype(np.int64)
        return pd.DataFrame({"a": ids[ia], "b": ids[ib], "hamming": ham})

    cand = buckets.groupby("bucket_part").map_groups(pairs, batch_format="pandas")
    from ray.data.aggregate import Min

    dedup = cand.groupby(["a", "b"]).aggregate(Min("hamming", alias_name="hamming"))
    return dedup.map_batches(
        lambda b: b[b["hamming"] <= max_hamming], batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------


def embedding_near_dups_grid(
    ds: ray.data.Dataset, threshold: float = 0.95, grid: int = 8
) -> ray.data.Dataset:
    """EXACT cosine near-dup pairs (a<b, cosine ≥ threshold) with the
    distributed theta-join grid shape: vectors are hashed into ``grid``
    blocks by vec_id, each vector is replicated to the ``grid`` block-pair
    groups it participates in, and every (p,q) group computes only the
    cross-block (or intra-block when p==q) pairs — each candidate pair is
    evaluated in EXACTLY one group, so no dedup pass and no approximation.

    100 TB shape: no driver-side collect, no whole-matrix broadcast; shuffle
    volume = n×grid embedding rows, compute = n²/grid² per task across
    grid(grid+1)/2 tasks. This is the honest cost of exact low-threshold
    near-dup; for high thresholds the approximate IVF path
    (``similarity.ann_ivf``) trades recall for a bucket-local scan."""

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0 or "vec_id" not in batch.columns:
            return pd.DataFrame(
                {
                    "gp": pd.Series(dtype="int64"),
                    "gq": pd.Series(dtype="int64"),
                    "blk": pd.Series(dtype="int64"),
                    "vec_id": pd.Series(dtype="int64"),
                    "embedding": pd.Series(dtype=object),
                }
            )
        ids = batch["vec_id"].values.astype(np.int64)
        blk = ids % grid
        recs = []
        for other in range(grid):
            gp = np.minimum(blk, other)
            gq = np.maximum(blk, other)
            recs.append(
                pd.DataFrame(
                    {
                        "gp": gp,
                        "gq": gq,
                        "blk": blk,
                        "vec_id": ids,
                        "embedding": batch["embedding"].values,
                    }
                )
            )
        out = pd.concat(recs, ignore_index=True)
        # p==q appears `grid` times in the loop above via other==blk only once;
        # but distinct `other` values can map to the same (gp,gq) only when
        # other==blk, so no duplicates to drop
        return out.drop_duplicates(["gp", "gq", "vec_id"])

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")})
        if len(g) < 2:
            return empty
        p, q = int(g["gp"].iloc[0]), int(g["gq"].iloc[0])
        M = np.stack([np.asarray(v, dtype=np.float64) for v in g["embedding"].values])
        M /= np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        ids = g["vec_id"].values.astype(np.int64)
        blk = g["blk"].values.astype(np.int64)
        if p == q:
            sims = M @ M.T
            ia, ib = np.nonzero(sims >= threshold)
            keep = ids[ia] < ids[ib]
            a, b = ids[ia][keep], ids[ib][keep]
        else:
            mp, mq = blk == p, blk == q
            if not mp.any() or not mq.any():
                return empty
            sims = M[mp] @ M[mq].T
            ia, ib = np.nonzero(sims >= threshold)
            a0, b0 = ids[mp][ia], ids[mq][ib]
            a, b = np.minimum(a0, b0), np.maximum(a0, b0)
        if not len(a):
            return empty
        return pd.DataFrame({"a": a, "b": b})

    exploded = ds.select_columns(["vec_id", "embedding"]).map_batches(
        explode, batch_format="pandas"
    )
    return exploded.groupby(["gp", "gq"]).map_groups(pairs, batch_format="pandas")


_LSH_SEED = 42


def lsh_hyperplanes(dim: int, n_tables: int = 4, n_planes: int = 8, seed: int = _LSH_SEED) -> np.ndarray:
    """Fixed random-hyperplane bank (n_tables, n_planes, dim) with ±1 entries:
    signs are what matter for SRP-LSH, and integer entries embed EXACTLY into
    the SQL oracle's literals (no float-repr round-trip)."""
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, size=(n_tables, n_planes, dim)) * 2 - 1).astype(np.float64)


def embedding_lsh_near_dups(
    ds: ray.data.Dataset,
    threshold: float = 0.35,
    n_tables: int = 4,
    n_planes: int = 8,
    dim: int | None = None,
) -> ray.data.Dataset:
    """APPROXIMATE cosine near-dup pairs via sign-random-projection LSH
    (Charikar): per table, a vector's signature is the sign bit-pattern of
    ``n_planes`` fixed hyperplane dot products; vectors colliding on a full
    table signature become candidates, verified with exact cosine in the
    bucket task. Output = candidate pairs with cosine ≥ threshold (a < b).

    Recall is the SRP collision bound 1 − θ/π per plane, amplified across
    tables — the knob between this and the EXACT grid
    (:func:`embedding_near_dups_grid`): LSH shuffles n×n_tables signature
    rows instead of n×grid vector rows and does bucket-local work instead of
    n²/grid² matmuls. Candidate-set + verify are both deterministic (fixed
    seed), so the result is SQL-exact for the same hyperplanes even though
    it is an approximation of the full near-dup relation.

    Scale shape: signature rows carry the vector (needed for in-task verify);
    one keyed exchange over salted coarse bucket partitions (whole buckets
    co-locate — the minhash pair-gen lesson), pairs deduped across tables by
    one (a, b) groupby over the (tiny) verified pair set."""
    if dim is None:
        dim = len(ds.take(1)[0]["embedding"])  # one-row peek; plans stay lazy
    H = lsh_hyperplanes(dim, n_tables, n_planes)

    def sigs(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0 or "vec_id" not in batch.columns:
            return pd.DataFrame(
                {
                    "table_id": pd.Series(dtype="int64"),
                    "sig": pd.Series(dtype="int64"),
                    "vec_id": pd.Series(dtype="int64"),
                    "embedding": pd.Series(dtype=object),
                }
            )
        M = np.stack([np.asarray(v, dtype=np.float64) for v in batch["embedding"].values])
        ids = batch["vec_id"].values.astype(np.int64)
        recs = []
        weights = (1 << np.arange(n_planes, dtype=np.int64))
        for t in range(n_tables):
            bits = (M @ H[t].T) > 0  # (n, n_planes)
            recs.append(
                pd.DataFrame(
                    {
                        "table_id": np.int64(t),
                        "sig": bits @ weights,
                        "vec_id": ids,
                        "embedding": batch["embedding"].values,
                    }
                )
            )
        return pd.concat(recs, ignore_index=True)

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["bucket_part"] = (
            batch["table_id"].values * _BUCKET_SALT + batch["sig"].values % _BUCKET_SALT
        ).astype(np.int64)
        return batch

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")})
        g = g.drop_duplicates(["table_id", "sig", "vec_id"]).sort_values(
            ["table_id", "sig", "vec_id"], kind="mergesort"
        )
        if len(g) < 2:
            return empty
        M = np.stack([np.asarray(v, dtype=np.float64) for v in g["embedding"].values])
        M /= np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        ids = g["vec_id"].values.astype(np.int64)
        tb, sg = g["table_id"].values, g["sig"].values
        new = np.empty(len(g), dtype=bool)
        new[0] = True
        new[1:] = (tb[1:] != tb[:-1]) | (sg[1:] != sg[:-1])
        ia, ib = _triu_pairs_in_runs(new)
        if not len(ia):
            return empty
        cos = (M[ia] * M[ib]).sum(axis=1)
        keep = cos >= threshold
        return pd.DataFrame({"a": ids[ia][keep], "b": ids[ib][keep]})

    buckets = (
        ds.select_columns(["vec_id", "embedding"])
        .map_batches(sigs, batch_format="pandas")
        .map_batches(add_part, batch_format="pandas")
    )
    cand = buckets.groupby("bucket_part").map_groups(pairs, batch_format="pandas")
    from ray.data.aggregate import Count

    dedup = cand.groupby(["a", "b"]).aggregate(Count(alias_name="_n"))
    return dedup.select_columns(["a", "b"])


def embedding_near_dups(
    ds: ray.data.Dataset, threshold: float = 0.95, id_limit: int | None = None
) -> ray.data.Dataset:
    """Pairs (a<b) with cosine ≥ threshold: brute-force blocked matmul of each
    batch against the broadcast normalized matrix. TEST BASELINE ONLY — it
    materializes the full table on the driver; the gated scale path is
    :func:`embedding_near_dups_grid`."""
    import ray

    all_df = ds.select_columns(["vec_id", "embedding"]).to_pandas()
    if id_limit is not None:
        all_df = all_df[all_df["vec_id"] < id_limit]
    M = np.stack(all_df["embedding"].values).astype(np.float64)
    M /= np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
    ids = all_df["vec_id"].values.astype(np.int64)
    ref = ray.put((ids, M))

    class Block:
        def __init__(self):
            self.ids, self.M = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            if id_limit is not None:
                batch = batch[batch["vec_id"] < id_limit]
            if len(batch) == 0:
                return pd.DataFrame(
                    {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"), "cosine": pd.Series(dtype="float64")}
                )
            Q = np.stack(batch["embedding"].values).astype(np.float64)
            Q /= np.maximum(np.linalg.norm(Q, axis=1, keepdims=True), 1e-12)
            sims = Q @ self.M.T
            qa = batch["vec_id"].values.astype(np.int64)
            ra, rb = np.nonzero(sims >= threshold)
            a, b = qa[ra], self.ids[rb]
            keep = a < b
            return pd.DataFrame({"a": a[keep], "b": b[keep], "cosine": sims[ra, rb][keep]})

    return ds.map_batches(Block, batch_format="pandas", batch_size=1024, concurrency=(1, 8))


# ---------------------------------------------------------------------------
# deterministic sampling
# ---------------------------------------------------------------------------


#: Fibonacci / splitmix-style multiplier (2^64 / golden ratio) — the pinned
#: engine-internal sampling mixer. The SQL twin computes the identical value
#: with HUGEINT split-multiply arithmetic (oracles._nibble_sql), so the rule
#: is vectorized on BOTH sides — no per-row hashing anywhere.
_SAMPLE_MIX = np.uint64(0x9E3779B97F4A7C15)


def _nibble_of(col: pd.Series) -> np.ndarray:
    """Sampling bucket 0..15 per id — THE rule shared by every deterministic
    sampler (one definition of the oracle-parity-critical canonicalization).

    Integer ids (the 100 TB doc_id case): ``(((u ^ (u>>33)) * phi64) mod
    2^64) >> 60`` — one vectorized numpy pass, exactly reproduced by the
    DuckDB twin via HUGEINT split-multiply (verified bit-identical incl.
    negative ids, which normalize through the uint64 wrap both sides).
    Numerics normalize through int64 so 5 and 5.0 hash alike.

    String ids keep the legacy md5 first-hex-nibble rule — the one case
    where a SQL twin literally needs md5 — paid only per UNIQUE id
    (factorize-first)."""
    if pd.api.types.is_numeric_dtype(col):
        u = col.to_numpy(dtype=np.int64).astype(np.uint64)
        h = (u ^ (u >> np.uint64(33))) * _SAMPLE_MIX  # uint64 wraps = mod 2^64
        return (h >> np.uint64(60)).astype(np.int64)
    ids = col.astype(str)
    uniq, inv = np.unique(ids.values.astype(object), return_inverse=True)
    unib = np.fromiter(
        (int(hashlib.md5(s.encode()).hexdigest()[0], 16) for s in uniq),
        dtype=np.int64,
        count=len(uniq),
    )
    return unib[inv]


def deterministic_sample(
    ds: ray.data.Dataset, id_col: str = "doc_id", buckets_kept: int = 2, out_of: int = 16
) -> ray.data.Dataset:
    """Hash-based deterministic sample (SURVEY §2.6 sampling): keep a row iff
    its ``_nibble_of`` bucket falls in the first ``buckets_kept`` of
    ``out_of`` — embarrassingly parallel, no shuffle, no RNG state,
    reproducible across runs and cluster sizes (the property a 100 TB
    sampling pass needs). DuckDB twin: ``oracles._nibble_sql`` (identical
    vectorized integer mix; md5 only for string ids)."""
    if out_of != 16:
        raise ValueError("nibble-bucket sampling is base-16 (out_of=16)")
    if not 1 <= buckets_kept <= out_of:
        raise ValueError(f"buckets_kept must be in 1..{out_of}, got {buckets_kept}")
    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[_nibble_of(batch[id_col]) < buckets_kept]

    return ds.map_batches(keep, batch_format="pandas")


# ---------------------------------------------------------------------------
# Duplicate-cluster connected components
# ---------------------------------------------------------------------------

_CC_MAX_ROUNDS = 64


def _cc_kernel(mode: str):
    """Vectorized star-round kernel over one co-located partition (all edges
    of its ``u`` keys). ``large``: emit (v, m) for neighbors v > u; ``small``:
    emit (v, m) for all neighbors plus (u, m); m = min(N(u) ∪ {u}). Input may
    carry duplicates — deduped here with one np.unique."""

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        u = g["u"].to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        uv = np.unique(np.stack([u, v], axis=1), axis=0)
        u, v = uv[:, 0], uv[:, 1]
        # segment per u (rows are sorted by u after np.unique)
        first = np.ones(len(u), dtype=bool)
        first[1:] = u[1:] != u[:-1]
        sid = np.cumsum(first) - 1
        m = np.minimum.reduceat(np.minimum(u, v), np.flatnonzero(first))
        mv = m[sid]
        if mode == "large":
            sel = v > u
            out_u, out_v = v[sel], mv[sel]
        else:
            starts = np.flatnonzero(first)
            out_u = np.concatenate([v, u[starts]])
            out_v = np.concatenate([mv, m])
        keep = out_u != out_v
        return pd.DataFrame({"u": out_u[keep], "v": out_v[keep]})

    return kernel


def connected_components(
    pairs: ray.data.Dataset,
    a: str = "a",
    b: str = "b",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Distributed connected components over an undirected int64 edge list →
    ``(doc_id, cluster_id)`` with ``cluster_id`` = the minimum node id of the
    component (the canonical duplicate-cluster representative).

    Algorithm: alternating **large-star / small-star** rounds (Kiveris et
    al., "Connected Components in MapReduce and Beyond", SoCC'14) — each
    round is ONE hash exchange of the edge list keyed by node, with a
    vectorized per-partition min-reduce; converges in O(log n) rounds. The
    edge list is the *derived duplicate-pair set* (~1% of corpus rows for
    typical near-dup rates), so the per-round materialize is small-side by
    construction — the corpus itself is never shuffled.

    Scale shape: partitions by ``node % num_partitions`` (doc ids are
    assumed roughly uniform; salt upstream if one node's degree exceeds a
    worker — a single mega-cluster degenerates to a star around the min id
    after the first rounds, which is exactly the skew-safe fixpoint)."""

    def bidir(cu: str, cv: str):
        def fn(t: pa.Table) -> pa.Table:
            ua = t[cu].combine_chunks().cast(pa.int64())
            vb = t[cv].combine_chunks().cast(pa.int64())
            return pa.table(
                {"u": pa.concat_arrays([ua, vb]), "v": pa.concat_arrays([vb, ua])}
            )

        return fn

    def part_by_u(t: pa.Table) -> pa.Table:
        u = t["u"].combine_chunks().to_numpy(zero_copy_only=False)
        part = (u & (2**31 - 1)) % num_partitions
        return t.append_column("part", pa.array(part.astype(np.int32)))

    def to_larger_first(t: pa.Table) -> pa.Table:
        u = t["u"].combine_chunks()
        v = t["v"].combine_chunks()
        hi = pc.max_element_wise(u, v)
        lo = pc.min_element_wise(u, v)
        return pa.table({"u": hi, "v": lo})

    def rename(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": t[a].combine_chunks().cast(pa.int64()),
                "v": t[b].combine_chunks().cast(pa.int64()),
            }
        )

    edges = pairs.map_batches(rename, batch_format="pyarrow").materialize()
    if edges.count() == 0:
        # map_groups over zero groups loses the schema — return a typed
        # empty table instead of running star rounds on nothing
        return ray.data.from_arrow(
            pa.table(
                {"doc_id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())}
            )
        )
    prev_sig: tuple[int, int] | None = None
    for _ in range(_CC_MAX_ROUNDS):
        # large-star sees every edge under BOTH orientations (neighborhoods
        # are undirected); small-star consumes the larger->smaller direction
        large = (
            edges.map_batches(bidir("u", "v"), batch_format="pyarrow")
            .map_batches(part_by_u, batch_format="pyarrow")
            .groupby("part")
            .map_groups(_cc_kernel("large"), batch_format="pandas")
        )
        # small-star consumes the large-star output pointed larger→smaller
        small = (
            large.map_batches(to_larger_first, batch_format="pyarrow")
            .map_batches(part_by_u, batch_format="pyarrow")
            .groupby("part")
            .map_groups(_cc_kernel("small"), batch_format="pandas")
        )
        edges = small.materialize()
        # convergence: order-insensitive signature of the (deduped) edge set
        def sig_batch(t: pa.Table) -> pa.Table:
            u = t["u"].combine_chunks().to_numpy(zero_copy_only=False)
            v = t["v"].combine_chunks().to_numpy(zero_copy_only=False)
            h = (u.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) ^ v.astype(np.uint64)
            x = int(h.sum(dtype=np.uint64)) & ((1 << 63) - 1)  # keep int64-safe
            return pa.table({"n": [len(u)], "x": [x]})

        parts = edges.map_batches(sig_batch, batch_format="pyarrow").take_all()
        sig = (sum(p["n"] for p in parts), sum(p["x"] for p in parts) % (2**63 - 1))
        if sig == prev_sig:
            break
        prev_sig = sig
    else:
        raise RuntimeError("connected_components did not converge")

    # at the fixpoint every component is a star around its min id; label
    # extraction = one more grouped min over both directions (covers roots)
    def label_kernel(g: pd.DataFrame) -> pd.DataFrame:
        u = g["u"].to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        uv = np.unique(np.stack([u, v], axis=1), axis=0)
        u, v = uv[:, 0], uv[:, 1]
        first = np.ones(len(u), dtype=bool)
        first[1:] = u[1:] != u[:-1]
        m = np.minimum.reduceat(np.minimum(u, v), np.flatnonzero(first))
        return pd.DataFrame({"doc_id": u[first], "cluster_id": m})

    return (
        edges.map_batches(bidir("u", "v"), batch_format="pyarrow")
        .map_batches(part_by_u, batch_format="pyarrow")
        .groupby("part")
        .map_groups(label_kernel, batch_format="pandas")
    )


def near_dedup_keep_canonical(
    docs: ray.data.Dataset,
    pairs: ray.data.Dataset | None = None,
    id_col: str = "doc_id",
    threshold: float = 0.7,
) -> ray.data.Dataset:
    """End-to-end near-dup corpus filter: minhash-verified pairs →
    :func:`connected_components` → drop every doc whose cluster label is not
    its own id (the min-id member is the canonical representative; docs in
    no duplicate pair pass through untouched). Returns the surviving docs.

    Scale shape: the drop set = non-canonical members of duplicate clusters
    ≈ the corpus near-dup rate (~1% typical), so it is broadcast ONCE with
    ``ray.put`` (sorted int64 ids) and each batch filters locally with a
    vectorized ``np.isin`` — the corpus itself is never shuffled. If the dup
    rate were adversarially large, swap the broadcast for a co-partitioned
    anti join on ``id_col`` (stages/join.py::shuffle_hash_join shape)."""
    if pairs is None:
        pairs = minhash_lsh_dedup(docs, threshold=threshold)
    labels = connected_components(pairs, a="a", b="b")

    def non_canonical(t: pa.Table) -> pa.Table:
        keep = pc.not_equal(t["doc_id"], t["cluster_id"])
        return t.filter(keep).select(["doc_id"])

    drop_parts = [
        b["doc_id"].to_numpy(zero_copy_only=False)
        for b in labels.map_batches(non_canonical, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    ]
    drop = np.sort(np.concatenate(drop_parts)) if drop_parts else np.array([], np.int64)
    ref = ray.put(drop)

    class Filter:
        def __init__(self):
            self.drop = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = t[id_col].combine_chunks().to_numpy(zero_copy_only=False)
            return t.filter(pa.array(~np.isin(ids, self.drop)))

    return docs.map_batches(Filter, batch_format="pyarrow", concurrency=(1, 8))


def stratified_sample(
    ds: ray.data.Dataset,
    id_col: str,
    stratum_col: str,
    rates: dict[str, int],
    default_buckets: int,
) -> ray.data.Dataset:
    """Stratified deterministic sample: per-stratum nibble-bucket counts
    (``rates[stratum] / 16``; strata not listed use ``default_buckets``).
    Same ``_nibble_of`` rule as :func:`deterministic_sample`, so it is
    shuffle-free, RNG-free, and reproducible across runs and cluster sizes —
    the knob a 100 TB corpus uses to rebalance sources (e.g. downsample the
    dominant language, keep the rare ones whole)."""
    for name, b in [("default_buckets", default_buckets), *rates.items()]:
        if not 1 <= b <= 16:
            raise ValueError(f"bucket count for {name!r} must be in 1..16, got {b}")

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        nib = _nibble_of(batch[id_col])
        # vectorized per-stratum limits: Series.map over the few strata
        limits = (
            batch[stratum_col]
            .map(rates)
            .fillna(default_buckets)
            .to_numpy(dtype=np.int64)
        )
        return batch[nib < limits]

    return ds.map_batches(keep, batch_format="pandas")


def weighted_sample(
    ds: ray.data.Dataset,
    id_col: str,
    weight_col: str,
    divisor: int = 100,
    min_buckets: int = 1,
    max_buckets: int = 8,
) -> ray.data.Dataset:
    """WEIGHTED deterministic sample: per-row keep-rate proportional to a
    weight column — keep iff ``nibble(id) < clamp(weight // divisor,
    min_buckets, max_buckets)`` of 16. The importance-sampling knob of a
    100 TB curation pass (keep long/high-quality documents at a higher rate
    than boilerplate) with the same no-shuffle, no-RNG, reproducible
    ``_nibble_of`` rule as the other samplers. NULL weights drop the row
    (SQL comparison semantics)."""
    if not 1 <= min_buckets <= max_buckets <= 16:
        raise ValueError(
            f"need 1 <= min_buckets <= max_buckets <= 16, got {min_buckets}..{max_buckets}"
        )
    if divisor < 1:
        raise ValueError(f"divisor must be >= 1, got {divisor}")

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch[weight_col].notna()]
        rate = np.clip(
            batch[weight_col].to_numpy(dtype=np.int64) // divisor,
            min_buckets,
            max_buckets,
        )
        return batch[_nibble_of(batch[id_col]) < rate]

    return ds.map_batches(keep, batch_format="pandas")
