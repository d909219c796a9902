r"""Text analysis operators for large-scale training-data pipelines:
token counting, quality scoring, language ID, document fingerprinting.

Every fixed-pattern count (words, punctuation, stopwords, BPE tokens, the
language-ID profiles) runs on one kernel, :func:`count_patterns`: one
Arrow→polars conversion and one ``select`` of ``str.count_matches``. Each
fixed pattern is defined once, in :data:`TEXT_PATTERNS`, with two
spellings: the engine's (Rust regex, behind polars) and the SQL twin's
(RE2, inside DuckDB). The twins' SQL is generated from that table.

Rust regex is Unicode-aware by default and RE2 is not. Rust's ``\s``
also matches ``\v``, NBSP, U+2003 and U+0085, and its ``\b`` treats ``é``
as a word character. RE2's ``\s`` is exactly ``[\t\n\f\r ]`` and its
``\b`` is an ASCII word boundary. So the engine spellings write the ASCII
classes out (``[^\t\n\f\r ]+`` for ``\S+``, ``(?-u:\b)`` for ``\b``),
and the counts equal the twin's by construction.

User-supplied patterns (:func:`redact`, the CEP stages) stay on Arrow's
RE2 kernels, the engine of their SQL twins. So does the exact-dedup hash,
:func:`md5_normalized`, whose twin is RE2 too: its whitespace collapse
matches only the runs that change, and its md5 reads each string straight
off the Arrow buffer, so it makes no Python string and loads no polars into
the dedup worker. Compiled state (wordlists, broadcast models)
lives in actor ``__init__`` when used as a class stage.
"""

from __future__ import annotations

import hashlib
from typing import Mapping, NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..stages.exchange import NUM_PARTITIONS
from ..stages.join import shuffle_hash_join


class CountPattern(NamedTuple):
    """One fixed count pattern: ``engine`` runs in :func:`count_patterns`
    (Rust regex), ``sql`` in the DuckDB twin (RE2). Both match the same
    spans of any text."""

    engine: str
    sql: str

    def sql_count(self, col: str = "text") -> str:
        """The twin's count of this pattern over ``col``; NULL counts 0."""
        pat = self.sql.replace("'", "''")  # SQL string-literal quoting
        return f"coalesce(length(regexp_extract_all({col}, '{pat}')), 0)"


def ascii_words(words) -> CountPattern:
    r"""Whole-word alternation bounded by RE2's ASCII ``\b``. RE2 rejects
    the ``(?-u:`` flag group, so the engine and SQL spellings differ."""
    alt = "(" + "|".join(words) + ")"
    return CountPattern(rf"(?-u:\b){alt}(?-u:\b)", rf"\b{alt}\b")


#: RE2's ``\s`` spelled out: exactly these five characters (not ``\v``).
_RE2_SPACE = r"\t\n\f\r "

#: GPT-2-style pre-tokenizer, RE2-compatible (no lookahead): contraction
#: suffixes, letter runs, digit runs, punctuation runs. ``\s`` is spelled
#: out, so this one string means the same in Rust regex and in DuckDB's
#: ``regexp_extract_all``, for extraction as well as counting.
BPE_TOKEN_RE = rf"'(?:s|t|re|ve|m|ll|d)|[A-Za-z]+|[0-9]+|[^A-Za-z0-9{_RE2_SPACE}']+"

#: The fixed text-count patterns; ``text_stats`` emits ``stat_<name>``.
TEXT_PATTERNS = {
    "words": CountPattern(rf"[^{_RE2_SPACE}]+", r"\S+"),
    "punct": CountPattern(r"[.,;:!?]", r"[.,;:!?]"),
    "stop": ascii_words(("the", "and", "of", "a", "to", "in", "is")),
    "bpe_tokens": CountPattern(BPE_TOKEN_RE, BPE_TOKEN_RE),
}

#: the counts :func:`quality_score` uses (it skips the BPE pass)
QUALITY_STATS = ("words", "punct", "stop")


def count_patterns(
    text: pa.Array | pa.ChunkedArray, patterns: Mapping[str, str]
) -> pa.Table:
    """Non-overlapping match counts of each named engine pattern over
    ``text``: one int64 column per name, NULL text counting 0. All
    patterns share one Arrow→polars conversion and one ``select``."""
    import polars as pl

    t = pl.col("t")
    return (
        pl.from_arrow(text)
        .to_frame("t")
        .select(
            t.str.count_matches(p).fill_null(0).cast(pl.Int64).alias(name)
            for name, p in patterns.items()
        )
        .to_arrow()
    )


def _with_stats(batch: pa.Table, text_col: str, names) -> pa.Table:
    txt = batch[text_col]
    counts = count_patterns(txt, {n: TEXT_PATTERNS[n].engine for n in names})
    out = batch.append_column(
        "stat_chars", pc.fill_null(pc.utf8_length(txt), 0).cast(pa.int64())
    )
    for n in names:
        out = out.append_column(f"stat_{n}", counts[n])
    return out


def text_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Vectorized per-document counts: chars, whitespace tokens, punctuation,
    stopwords and BPE tokens — the raw ingredients of quality scoring."""
    return _with_stats(batch, text_col, TEXT_PATTERNS)


def quality_score(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Deterministic quality score in [0,1]: rewards mid-length docs with
    punctuation and stopwords (C4/Gopher-style heuristics, integer-exact
    ingredients so the SQL oracle matches bit-for-bit on the components).
    Appends ``stat_chars``, ``stat_words``, ``stat_punct``, ``stat_stop``
    and ``quality``."""
    t = _with_stats(batch, text_col, QUALITY_STATS)
    n_chars = t["stat_chars"].to_numpy(zero_copy_only=False).astype("float64")
    n_words = t["stat_words"].to_numpy(zero_copy_only=False).astype("float64")
    n_punct = t["stat_punct"].to_numpy(zero_copy_only=False).astype("float64")
    n_stop = t["stat_stop"].to_numpy(zero_copy_only=False).astype("float64")
    w = np.maximum(n_words, 1.0)
    score = (
        np.minimum(n_chars / 500.0, 1.0) * 0.4
        + np.minimum(n_stop / w * 5.0, 1.0) * 0.3
        + np.minimum(n_punct / w * 10.0, 1.0) * 0.3
    )
    return t.append_column("quality", pa.array(score, pa.float64()))


class LangId:
    """Stopword-profile language ID as an actor-pool stage: one
    whole-word pattern per language (:func:`ascii_words`), all counted in
    one :func:`count_patterns` pass over the lowered text.

    Closed-form and SQL-expressible by design: prediction = language with the
    highest stopword-match count over the lowered text, ties broken by
    alphabetical language order, 'unk' when no profile matches — the DuckDB
    oracle recomputes the identical argmax with ``regexp_extract_all``."""

    PROFILES = {
        "en": {"the", "and", "of", "to", "in", "is", "you", "that", "it", "for"},
        "de": {"der", "die", "und", "das", "ist", "nicht", "ich", "ein", "zu", "mit"},
        "fr": {"le", "la", "et", "les", "des", "est", "pas", "une", "pour", "que"},
        "es": {"el", "la", "de", "que", "y", "los", "una", "por", "con", "para"},
        "it": {"il", "la", "di", "che", "e", "un", "per", "una", "non", "sono"},
    }

    @classmethod
    def patterns(cls) -> dict[str, CountPattern]:
        """Per-language patterns, in alphabetical language order."""
        return {
            lang: ascii_words(sorted(cls.PROFILES[lang]))
            for lang in sorted(cls.PROFILES)
        }

    def __init__(self):
        self.engine = {lang: p.engine for lang, p in self.patterns().items()}

    @classmethod
    def oracle_sql(cls) -> str:
        """The DuckDB twin of ``__call__`` — generated from the same profiles
        so engine and oracle can never drift."""
        pats = cls.patterns()
        counts = ",\n           ".join(
            f"{p.sql_count('t')} AS s_{lang}" for lang, p in pats.items()
        )
        g = "greatest(" + ", ".join(f"s_{lang}" for lang in pats) + ")"
        arms = "\n            ".join(
            f"WHEN s_{lang} = {g} THEN '{lang}'" for lang in pats
        )
        return f"""
WITH s AS (SELECT doc_id, lower(coalesce(text, '')) AS t FROM documents),
c AS (SELECT doc_id,
           {counts}
      FROM s)
SELECT doc_id,
       CASE WHEN {g} = 0 THEN 'unk'
            {arms}
       END AS lang_pred
FROM c
"""

    def __call__(self, batch: pa.Table) -> pa.Table:
        txt = pc.utf8_lower(pc.fill_null(batch["text"].combine_chunks(), ""))
        counts = count_patterns(txt, self.engine)
        langs = list(self.engine)
        scores = np.stack([counts[lang].to_numpy() for lang in langs])  # (L, N)
        best = scores.argmax(axis=0)  # first max → alphabetical tie-break (langs sorted)
        hit = scores.max(axis=0) > 0
        pred = np.where(hit, np.array(langs, dtype=object)[best], "unk")
        return batch.append_column("lang_pred", pa.array(pred, pa.string()))


#: Replay-identity version of the normalization below. Bump whenever the
#: normalization semantics change (e.g. the Python-re unicode-\s → RE2
#: ASCII-\s swap): streaming runners pin this into their checkpoint manifest
#: so a stale checkpoint fails loudly instead of re-admitting seen docs.
NORM_IMPL = "re2-ascii-ws-v2"


#: The whitespace runs that ``regexp_replace(text, '\s+', ' ', 'g')``
#: actually changes. RE2's ``\s`` is exactly ``[\t\n\f\r ]``; a lone space
#: maps to itself, and every other maximal run is matched whole from its
#: first character (leftmost, greedy), so replacing these with one space
#: gives the same string while leaving ordinary word gaps untouched.
_WS_CHANGED = r"[\t\n\f\r ]{2,}|[\t\n\f\r]"


def _md5_digests(arr: pa.Array) -> bytes:
    """The joined 16-byte md5 digests of each normalized string of one
    null-free string / large_string array (any slice offset)."""
    norm = pc.replace_substring_regex(arr, _WS_CHANGED, " ")
    data = norm.buffers()[2]
    ascii_only = data is None or not (np.frombuffer(data, np.uint8) >= 0x80).any()
    norm = pc.utf8_trim(pc.ascii_lower(norm) if ascii_only else pc.utf8_lower(norm), " ")
    bufs = norm.buffers()
    otype = np.int64 if pa.types.is_large_string(norm.type) else np.int32
    offs = np.frombuffer(bufs[1], otype)[norm.offset : norm.offset + len(norm) + 1].tolist()
    view = memoryview(bufs[2] if bufs[2] is not None else b"")
    md5 = hashlib.md5
    return b"".join([md5(view[a:b]).digest() for a, b in zip(offs, offs[1:])])


def md5_normalized(texts) -> bytes:
    """THE oracle normalization (one definition for fingerprint + dedup):
    collapse whitespace, lower, strip spaces, md5 — matches the DuckDB
    ``md5(trim(lower(regexp_replace(text,'\\s+',' ','g')),' '))`` twin
    (``oracles.NORM_MD5``) exactly.
    ``texts`` is a ``pd.Series`` or an Arrow (chunked, sliced) string or
    large_string array; NULL hashes as ``""``. Returns the rows' 16-byte
    digests joined into one ``bytes`` (``16 * len(texts)`` long).

    The collapse runs on Arrow's RE2 — the SAME engine DuckDB uses, so
    ``\\s`` is ``[\\t\\n\\f\\r ]`` by construction — with a pattern that
    matches only the runs that change (:data:`_WS_CHANGED`), not every word
    gap. Lowering is ``ascii_lower`` when the buffer holds no byte ≥ 0x80
    (``utf8_lower`` otherwise). The md5 reads each string straight off the
    Arrow data buffer through a ``memoryview`` slice: no Python strings."""
    if isinstance(texts, pd.Series):
        texts = pa.array(texts.fillna(""), pa.string())
    elif pa.types.is_null(texts.type):  # an all-NULL column read untyped
        texts = texts.cast(pa.string())
    chunks = texts.chunks if isinstance(texts, pa.ChunkedArray) else [texts]
    return b"".join(_md5_digests(pc.fill_null(c, "")) for c in chunks)


def md5_hex(digests: bytes) -> list[str]:
    """Joined 16-byte digests (:func:`md5_normalized`) as hex strings."""
    h = digests.hex()
    return [h[i : i + 32] for i in range(0, len(h), 32)]


def fingerprint(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Whitespace-normalized md5 content fingerprint (see ``md5_normalized``)."""
    batch = batch.copy()
    batch["fp"] = md5_hex(md5_normalized(batch[text_col]))
    return batch


def rolling_fingerprint(batch: pd.DataFrame, text_col: str = "text", k: int = 8) -> pd.DataFrame:
    """Winnowing-style fingerprint: min of Rabin-Karp rolling hashes over
    ``k``-grams of words — robust to local edits (Schleimer et al. winnowing).
    Vectorized with numpy over the token hash sequence per doc."""
    out_fp = np.zeros(len(batch), dtype=np.uint64)
    texts = batch[text_col].fillna("").str.lower().str.split()
    B = np.uint64(1000003)
    for i, words in enumerate(texts):
        if not words:
            continue
        h = np.frombuffer(
            b"".join(hashlib.md5(w.encode()).digest()[:8] for w in words), dtype=np.uint64
        ).copy()
        if len(h) >= k:
            # rolling window min over k-gram combined hashes
            acc = h[: len(h) - k + 1].copy()
            for j in range(1, k):
                acc = acc * B + h[j : len(h) - k + 1 + j]
            out_fp[i] = acc.min()
        else:
            acc = h[0]
            for j in range(1, len(h)):
                acc = acc * B + h[j]
            out_fp[i] = acc
    batch = batch.copy()
    batch["rolling_fp"] = out_fp.astype("int64")  # arrow-friendly
    return batch


def winnow_fingerprints(
    ds: ray.data.Dataset,
    ngram: int = 3,
    window: int = 4,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken, SIGMOD'03):
    per doc, the DISTINCT set of window-minimum ``ngram``-hashes over every
    ``window`` consecutive positional grams — the local-algorithm guarantee
    that any shared run of ``window + ngram - 1`` words between two documents
    shares at least one fingerprint, at ~1/window the storage of the full
    gram set (``rolling_fingerprint`` keeps only the global min; this is the
    real fingerprint SET the plagiarism/near-dup literature indexes).

    Scale shape: ZERO shuffles. A document lives in one input row, so
    block-local distinct (doc, fp) pairs are globally distinct (the
    ``inverted_index`` argument); each batch is one vectorized pass —
    positional gram hashes from the shared kernel
    (:func:`.dedup._batch_gram_positional`, md5 once per unique word), the
    sliding window-min via a numpy stride view, boundary-crossing windows
    masked by comparing the doc index at both window ends. Docs with fewer
    than ``ngram + window - 1`` words emit no fingerprints (no complete
    window), exactly like the SQL twin's ``i >= window`` filter."""
    from .dedup import _batch_gram_positional

    def fps(b: pd.DataFrame) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()), "fp": pa.array([], pa.int64())}
        )
        if not len(b):
            return empty
        grams, counts = _batch_gram_positional(
            b[text_col].fillna("").tolist(), ngram
        )
        if len(grams) < window:
            return empty
        ids = b[id_col].to_numpy(np.int64)
        doc_of = np.repeat(np.arange(len(counts)), counts)
        mins = np.lib.stride_tricks.sliding_window_view(grams, window).min(axis=1)
        valid = doc_of[: len(mins)] == doc_of[window - 1 :]
        v_doc = doc_of[: len(mins)][valid]
        v_min = mins[valid]
        order = np.lexsort((v_min, v_doc))
        v_doc, v_min = v_doc[order], v_min[order]
        keep = np.ones(len(v_doc), dtype=bool)
        keep[1:] = (v_doc[1:] != v_doc[:-1]) | (v_min[1:] != v_min[:-1])
        return pa.table(
            {
                "doc_id": pa.array(ids[v_doc[keep]], pa.int64()),
                # gram hashes live below 2^61 — int64-safe by construction
                "fp": pa.array(v_min[keep].astype(np.int64), pa.int64()),
            }
        )

    return ds.map_batches(fps, batch_format="pandas")


# ---------------------------------------------------------------------------
# Token frequency: exact distributed top-k + SpaceSaving scale path
# ---------------------------------------------------------------------------
def token_topk(
    ds: ray.data.Dataset,
    text_col: str = "text",
    k: int = 20,
    pattern: str = BPE_TOKEN_RE,
) -> ray.data.Dataset:
    """EXACT top-k most frequent tokens across the corpus (vocab building /
    corpus inspection — SURVEY §2.6 ordering family over text).

    Scale shape: each block tokenizes vectorized (polars ``extract_all`` —
    Rust regex, leftmost-first like RE2; :data:`BPE_TOKEN_RE` spells its
    classes in ASCII, so the token multiset matches the DuckDB
    ``regexp_extract_all`` twin by construction) and pre-aggregates to
    (token, cnt) partials, so the one keyed exchange carries unique-tokens-
    per-block rows, never token instances; the global groupby sums partials
    and the final sort is over the vocabulary, not the corpus. Deterministic
    tiebreak (cnt DESC, token ASC) makes the k-boundary a total order —
    SQL-exact.

    Exact-vs-sketch: a token narrowly missing every block's local top would
    still win globally, so EXACT top-k cannot prune below the vocab exchange;
    :func:`token_topk_spacesaving` is the bounded-memory approximation.
    """
    import polars as pl

    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        s = pl.from_arrow(t[text_col]).fill_null("")
        toks = s.str.extract_all(pattern).explode().drop_nulls()
        vc = toks.value_counts()  # (token, count) per block
        name = toks.name or text_col
        return pa.table(
            {
                "token": vc[name].to_arrow().cast(pa.string()),
                "cnt": vc["count"].to_arrow().cast(pa.int64()),
            }
        )

    totals = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("cnt", alias_name="n"))
    )
    return totals.sort(["n", "token"], descending=[True, False]).limit(k)


def doc_term_relevance(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 2,
    pattern: str = BPE_TOKEN_RE,
    num_partitions: int = NUM_PARTITIONS,
) -> ray.data.Dataset:
    """TF-IDF-style top-``k`` most distinctive terms per document — the
    classic corpus-analysis / keyword-extraction pipeline, kept SQL-exact by
    ranking on the integer relevance ``rel_micro = tf * 1e6 // df`` (tf/df
    has the same per-document ordering intent as tf·idf without a float
    ``ln`` whose last-ulp differs between numpy and the SQL engine).

    Output: (``id_col``, token, tf, df, rel_micro, rank) with rank 1..k per
    document, ordered (rel_micro DESC, token ASC) — a total order, so the
    k-boundary is deterministic.

    Scale shape (three bounded exchanges, corpus text never re-shipped):

    1. TF is DOC-LOCAL: one document lives in one row, so each block
       tokenizes vectorized (polars ``extract_all``, leftmost-first like
       RE2; with the ASCII-spelled :data:`BPE_TOKEN_RE` it is
       multiset-identical to the DuckDB ``regexp_extract_all`` twin) and
       emits (doc, token, tf) rows with a
       local group-count — no exchange, and downstream ships only
       unique-terms-per-doc rows (~5–20× smaller than token instances).
    2. DF = rows-per-token over those tf rows (each (doc, token) appears
       once): one keyed exchange over unique (doc, token) pairs.
    3. tf⋈df is a co-partitioned hash join on token (both sides large at
       web scale — no broadcast), and the per-doc top-k reuses
       ``stages.topk.top_k_per_group`` (map-side prune to k per block, so
       the doc-keyed exchange carries ≤ k·docs-per-block rows).
    """
    import polars as pl

    from ray.data.aggregate import Count

    from ..stages.topk import top_k_per_group

    def tf_rows(t: pa.Table) -> pa.Table:
        d = pl.DataFrame(
            {
                "_doc": pl.from_arrow(
                    t[id_col].combine_chunks()
                    if isinstance(t[id_col], pa.ChunkedArray)
                    else t[id_col]
                ),
                "_tok": pl.from_arrow(t[text_col]).fill_null("").str.extract_all(pattern),
            }
        )
        tf = (
            d.explode("_tok")
            .drop_nulls("_tok")
            .group_by(["_doc", "_tok"])
            .len(name="tf")
        )
        return pa.table(
            {
                id_col: tf["_doc"].to_arrow(),
                "token": tf["_tok"].to_arrow().cast(pa.string()),
                "tf": tf["tf"].to_arrow().cast(pa.int64()),
            }
        )

    tf = ds.map_batches(tf_rows, batch_format="pyarrow")
    df_tbl = tf.select_columns(["token"]).groupby("token").aggregate(
        Count(alias_name="df")
    )
    joined = shuffle_hash_join(tf, df_tbl, "token", num_partitions=num_partitions)

    def rel(t: pa.Table) -> pa.Table:
        tfv = t["tf"].to_numpy(zero_copy_only=False)
        dfv = t["df"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "rel_micro", pa.array((tfv * 1_000_000) // dfv, pa.int64())
        )

    scored = joined.map_batches(rel, batch_format="pyarrow")
    return top_k_per_group(
        scored, keys=[id_col], value_col="rel_micro", k=k, tiebreak=["token"]
    )


class SpaceSaving:
    """SpaceSaving heavy-hitter summary (Metwally et al., ICDT'05) with the
    mergeable combine of Agarwal et al., "Mergeable Summaries" (PODS'12):
    m counters; every tracked count overestimates the true frequency by at
    most its ``err``; any item with true frequency > n/m is guaranteed
    tracked. Deterministic (ties broken by token order), so per-block
    summaries are replay-safe to merge in any grouping.
    """

    def __init__(self, m: int = 256):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = int(m)
        self.counts: dict[str, int] = {}
        self.errs: dict[str, int] = {}
        self.n = 0

    def merge(self, other: "SpaceSaving") -> "SpaceSaving":
        """PODS'12 combine: sum counts/errs of common items, offset missing
        items by the other side's min-counter bound, keep the top m."""
        if other.m != self.m:
            raise ValueError("cannot merge summaries with different m")
        # an item the summary does not track has true count <= the summary's
        # min counter (SpaceSaving invariant; for an exact-truncated block
        # summary, min kept >= max dropped) -> use that bound as both the
        # estimate and the added error
        smin = min(self.counts.values()) if len(self.counts) >= self.m else 0
        omin = min(other.counts.values()) if len(other.counts) >= other.m else 0
        merged_c: dict[str, int] = {}
        merged_e: dict[str, int] = {}
        for t in self.counts.keys() | other.counts.keys():
            a, ae = self.counts.get(t), self.errs.get(t, 0)
            b, be = other.counts.get(t), other.errs.get(t, 0)
            if a is None:
                a = ae = smin
            if b is None:
                b = be = omin
            merged_c[t] = a + b
            merged_e[t] = ae + be
        keep = sorted(merged_c, key=lambda x: (-merged_c[x], x))[: self.m]
        self.counts = {t: merged_c[t] for t in keep}
        self.errs = {t: merged_e[t] for t in keep}
        self.n += other.n
        return self

    @classmethod
    def from_counts(cls, m: int, tokens, counts) -> "SpaceSaving":
        """Exact-truncation summary from a COMPLETE (token, count) table —
        the per-block build path: keep the top m by (count DESC, token ASC)
        with err = 0. Sound under :meth:`merge` because every dropped count
        is <= the min kept counter, the bound merge charges for missing
        items. O(U log U) instead of the eviction loop's O((U-m) * m)."""
        s = cls(m)
        pairs = sorted(zip(tokens, counts), key=lambda tc: (-int(tc[1]), tc[0]))
        s.n = int(sum(int(c) for _, c in pairs))
        for t, c in pairs[:m]:
            s.counts[t] = int(c)
            s.errs[t] = 0
        return s

    def topk(self, k: int) -> list[tuple[str, int, int]]:
        """(token, count_upper_bound, err) — count-err is a lower bound."""
        order = sorted(self.counts, key=lambda x: (-self.counts[x], x))[:k]
        return [(t, self.counts[t], self.errs[t]) for t in order]


def spacesaving_summary(text: "pa.ChunkedArray | pa.Array", m: int, pattern: str) -> "SpaceSaving":
    """Exact-truncated m-counter SpaceSaving summary of one text column:
    vectorized tokenize (polars ``extract_all``; a pattern that spells its
    classes in ASCII, like :data:`BPE_TOKEN_RE`, tokenizes as RE2 does) +
    exact in-unit
    ``value_counts``, so the Python loop runs over UNIQUE tokens only. ONE
    definition shared by the batch path (per block) and the streaming runner
    (per pinned file) — a tokenizer/truncation change must move both."""
    import polars as pl

    s = pl.from_arrow(text).fill_null("")
    toks = s.str.extract_all(pattern).explode().drop_nulls()
    vc = toks.value_counts()  # the tokens column keeps the series' own name ('' when unnamed)
    return SpaceSaving.from_counts(m, vc[toks.name].to_list(), vc["count"].to_list())


def token_topk_spacesaving(
    ds: ray.data.Dataset,
    text_col: str = "text",
    k: int = 20,
    m: int = 4096,
    pattern: str = BPE_TOKEN_RE,
) -> pd.DataFrame:
    """APPROXIMATE heavy hitters with BOUNDED memory — the 100 TB path when
    the vocabulary itself is too large to exchange (web-scale n-grams): one
    m-counter SpaceSaving summary per block (built from the block's
    value_counts, so the Python loop runs over unique tokens only), each
    emitted as a SINGLE list-column row, merged summary-wise on the driver
    (summaries are tiny: m entries each — blocks × m rows never hit the
    driver as tokens). Guarantees: every token with true frequency > n/m is
    tracked; reported counts overestimate truth by ≤ err.

    Returns (token, cnt_upper, err, cnt_lower) for the top k."""

    def summarize(t: pa.Table) -> pa.Table:
        ss = spacesaving_summary(t[text_col], m, pattern)
        rows = ss.topk(m)
        return pa.table(
            {
                "tokens": pa.array([[r[0] for r in rows]], pa.list_(pa.string())),
                "cnts": pa.array([[r[1] for r in rows]], pa.list_(pa.int64())),
                "errs": pa.array([[r[2] for r in rows]], pa.list_(pa.int64())),
                "n": pa.array([ss.n], pa.int64()),
            }
        )

    merged = SpaceSaving(m)
    for row in ds.map_batches(summarize, batch_format="pyarrow").iter_rows():
        part = SpaceSaving(m)
        part.counts = dict(zip(row["tokens"], (int(c) for c in row["cnts"])))
        part.errs = dict(zip(row["tokens"], (int(e) for e in row["errs"])))
        part.n = int(row["n"])
        merged.merge(part)
    rows = merged.topk(k)
    return pd.DataFrame(
        {
            "token": [r[0] for r in rows],
            "cnt_upper": [r[1] for r in rows],
            "err": [r[2] for r in rows],
            "cnt_lower": [r[1] - r[2] for r in rows],
        }
    )


# ---------------------------------------------------------------------------
# Repetition scoring (Gopher-style within-document duplication)
# ---------------------------------------------------------------------------


def repetition_stats(
    batch: pd.DataFrame,
    ngram: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """Within-document n-gram repetition: per doc, the total number of word
    n-gram windows, the number of DISTINCT n-grams among them, and
    ``dup_micro = floor(1e6 · (total − distinct) / total)`` — the
    duplicate-window fraction used by Gopher/RefinedWeb-style repetition
    filters. Docs with no windows (empty text) leave the pipeline, like the
    shingle-less docs of the dedup family.

    Shares the exact shingle definition (word hash + polynomial fold +
    short-doc single fold) with :mod:`.dedup` and the SQL oracle's grams
    CTE, so the DuckDB twin's ``count(*)`` / ``count(DISTINCT gh)`` per doc
    are bit-identical. Vectorized: the only Python loop is md5 per unique
    word inside :func:`.dedup._batch_gram_hashes_lens` — which also hands
    back the per-doc word counts, so tokenization runs ONCE per doc.

    The id column is echoed under its own name (``id_col``)."""
    from .dedup import _batch_gram_hashes_lens

    texts = list(batch[text_col].fillna(""))
    _, uoffsets, lens = _batch_gram_hashes_lens(texts, ngram)
    uniq = uoffsets[1:] - uoffsets[:-1]
    total = np.where(lens >= ngram, lens - ngram + 1, np.where(lens > 0, 1, 0))
    keep = total > 0
    total, uniq = total[keep], uniq[keep]
    return pd.DataFrame(
        {
            id_col: batch[id_col].to_numpy()[keep].astype("int64"),
            "total_ngrams": total,
            "uniq_ngrams": uniq.astype("int64"),
            "dup_micro": (total - uniq) * 1_000_000 // total,
        }
    )


# ---------------------------------------------------------------------------
# Benchmark decontamination (broadcast blocklist membership)
# ---------------------------------------------------------------------------

#: deterministic "held-out benchmark" corpus: any training doc sharing a
#: word 3-gram with one of these is flagged. The SQL twin embeds the same
#: phrases' gram hashes as literals — one definition, two engines.
BENCHMARK_TEXTS = (
    "batch batch batch stream spark window",
    "table scan merge part window small",
    "the fast key order sort",
    "join order batch stream",
)


def benchmark_gram_set(
    benchmark: tuple[str, ...] = BENCHMARK_TEXTS, ngram: int = 3
) -> np.ndarray:
    """Sorted-unique uint64 shingle hashes of the benchmark corpus — the
    broadcast side of decontamination (a few KB even for real benchmark
    suites; ship it to every actor, never shuffle the corpus against it)."""
    from .dedup import _word_ngram_hashes

    parts = [_word_ngram_hashes(t, ngram) for t in benchmark]
    if not parts:
        return np.zeros(0, dtype=np.uint64)
    return np.unique(np.concatenate(parts))


class ContaminationFlagger:
    """Actor-pool stage: flags docs sharing any word n-gram with the
    benchmark set. The gram set is built ONCE per actor in ``__init__``
    (broadcast-by-construction — it is deterministic from the benchmark
    literals, so there is nothing to ship); per batch the doc shingles are
    probed with a single vectorized ``np.isin`` against the sorted set.

    Emits every input doc: (doc_id, n_hits = distinct contaminated
    shingles, contaminated 0/1) — empty docs score 0."""

    def __init__(
        self,
        benchmark: tuple[str, ...] = BENCHMARK_TEXTS,
        ngram: int = 3,
        text_col: str = "text",
        id_col: str = "doc_id",
    ):
        self.ngram = ngram
        self.bench = benchmark_gram_set(benchmark, ngram)
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        from .dedup import _batch_gram_hashes

        if len(batch) == 0:
            return pd.DataFrame(
                {
                    self.id_col: pd.Series(dtype="int64"),
                    "n_hits": pd.Series(dtype="int64"),
                    "contaminated": pd.Series(dtype="int64"),
                }
            )
        flat, offsets = _batch_gram_hashes(
            list(batch[self.text_col].fillna("")), self.ngram
        )
        hit = np.isin(flat, self.bench)
        doc_of = np.repeat(np.arange(len(batch)), offsets[1:] - offsets[:-1])
        n_hits = np.bincount(doc_of[hit], minlength=len(batch)).astype(np.int64)
        return pd.DataFrame(
            {
                self.id_col: batch[self.id_col].to_numpy().astype("int64"),
                "n_hits": n_hits.astype("int64"),
                "contaminated": (n_hits > 0).astype("int64"),
            }
        )


class GramSetFlagger:
    """As :class:`ContaminationFlagger`, but the gram set arrives as a
    broadcast object-store ref (built from an arbitrary benchmark DATASET
    by :func:`decontaminate_against`) instead of deterministic literals."""

    def __init__(self, gram_ref, ngram: int, text_col: str, id_col: str):
        import ray

        self.bench = ray.get(gram_ref)
        self.ngram = ngram
        self.text_col = text_col
        self.id_col = id_col

    __call__ = ContaminationFlagger.__call__


def decontaminate_against(
    docs: ray.data.Dataset,
    bench: ray.data.Dataset,
    ngram: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    bench_text_col: str = "text",
    max_bench_grams: int = 50_000_000,
) -> ray.data.Dataset:
    """Benchmark decontamination against an arbitrary benchmark DATASET —
    the production form of :class:`ContaminationFlagger` (whose blocklist
    is fixed literals): flag every corpus doc sharing any word ``ngram``
    with any benchmark doc. Emits (``id_col``, n_hits = distinct
    contaminated shingles, contaminated 0/1) for every corpus doc.

    Scale shape (100 TB): the benchmark side is SMALL by nature (eval
    suites, not corpora) — its distinct gram hashes are built distributed
    (per-block unique partials), collected once (8 B/gram, guarded by
    ``max_bench_grams`` ≈ the ngram-join broadcast budget), and broadcast
    via ``ray.put``; the corpus never shuffles and is probed per batch
    with one vectorized ``np.isin``. The budget is checked before anything
    reaches the driver: on the partials' row count, and only when that is
    over budget (blocks may share grams), on the distinct count taken
    distributed. A benchmark past the budget is the signal to use the
    gram-keyed join path (``ngram_jaccard_dedup``'s ``vocab_mode='join'``
    shape) instead of a broadcast."""
    import ray

    from .dedup import _batch_gram_hashes

    def bench_partial(t: pa.Table) -> pa.Table:
        flat, _ = _batch_gram_hashes(
            list(pd.Series(t[bench_text_col].to_pandas()).fillna("")), ngram
        )
        return pa.table({"gh": pa.array(np.unique(flat).astype(np.int64))})

    grams = bench.map_batches(bench_partial, batch_format="pyarrow").materialize()
    if grams.count() > max_bench_grams:
        grams = grams.groupby("gh").count().materialize()
        if grams.count() > max_bench_grams:
            raise ValueError(
                f"benchmark has {grams.count()} distinct grams > budget "
                f"{max_bench_grams}; use a gram-keyed join instead of a broadcast"
            )
    gset = np.unique(grams.to_pandas()["gh"].to_numpy().astype(np.uint64))
    gram_ref = ray.put(gset)
    return docs.map_batches(
        GramSetFlagger,
        fn_constructor_kwargs={
            "gram_ref": gram_ref,
            "ngram": ngram,
            "text_col": text_col,
            "id_col": id_col,
        },
        batch_format="pandas",
        concurrency=(1, 8),
    )


# ---------------------------------------------------------------------------
# Regex redaction (PII-shaped masking transform)
# ---------------------------------------------------------------------------


def redact(
    batch: pa.Table,
    pattern: str,
    replacement: str = "[MASK]",
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pa.Table:
    """Mask every non-overlapping match of ``pattern`` (RE2) in ``text_col``
    and count the hits — the PII-scrub transform shape (emails, phone
    numbers, keys) as one zero-copy Arrow stage: ``replace_substring_regex``
    + ``count_substring_regex`` are both RE2, identical to the DuckDB
    ``regexp_replace(..., 'g')`` / ``regexp_extract_all`` twin by
    construction. NULL text stays NULL with 0 hits."""
    txt = batch[text_col].combine_chunks()
    red = pc.replace_substring_regex(txt, pattern=pattern, replacement=replacement)
    hits = pc.fill_null(pc.count_substring_regex(txt, pattern), 0).cast(pa.int64())
    return pa.table({id_col: batch[id_col], text_col: red, "n_hits": hits})


def inverted_index(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    pattern: str = BPE_TOKEN_RE,
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """Full-corpus inverted index: one row per token with its document
    frequency and the ascending-id posting list (``doc_ids``, comma-joined
    — the search/retrieval index build every curation stack ends with).

    Scale shape: each block tokenizes vectorized (polars ``extract_all``,
    leftmost-first like RE2; with the ASCII-spelled :data:`BPE_TOKEN_RE`
    it is multiset-identical to the DuckDB ``regexp_extract_all`` twin) and
    dedups to (doc, token) pairs locally —
    a document lives in ONE row, so block-unique pairs are globally unique
    and the single token-keyed coarse exchange (``num_partitions`` groups,
    never per-token dispatch) carries unique-terms-per-doc rows, never
    token instances. Posting-list assembly is partition-local: one
    (token, doc) lexsort, then a per-token string join over the vocabulary
    slice (vocab-bounded work, the token_topk cost family). Postings
    concatenate as strings because the gate hashes column values; a
    production sink would keep ``list<int64>``."""
    import polars as pl

    def pairs(t: pa.Table) -> pa.Table:
        ids = t[id_col].combine_chunks() if isinstance(t[id_col], pa.ChunkedArray) else t[id_col]
        txt = t[text_col].combine_chunks() if isinstance(t[text_col], pa.ChunkedArray) else t[text_col]
        d = pl.DataFrame({"_doc": pl.from_arrow(ids), "_tok": pl.from_arrow(txt).fill_null("")})
        e = (
            d.with_columns(pl.col("_tok").str.extract_all(pattern))
            .explode("_tok")
            .drop_nulls("_tok")
            .unique(["_doc", "_tok"])
        )
        pid = (e["_tok"].hash(seed=0) % num_partitions).cast(pl.Int64)
        return pa.table(
            {
                "doc_id": e["_doc"].to_arrow().cast(pa.int64()),
                "token": e["_tok"].to_arrow().cast(pa.string()),
                "_pid": pid.to_arrow(),
            }
        )

    def postings(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame(
                {
                    "token": pd.Series([], dtype=object),
                    "df": pd.Series([], dtype="int64"),
                    "doc_ids": pd.Series([], dtype=object),
                }
            )
        b = b.sort_values(["token", "doc_id"], kind="mergesort")
        b["_doc_str"] = b["doc_id"].astype(str)
        g = b.groupby("token", sort=False)
        out = pd.DataFrame(
            {
                "df": g.size().astype("int64"),
                "doc_ids": g["_doc_str"].agg(",".join).astype(object),
            }
        ).reset_index()
        return out[["token", "df", "doc_ids"]]

    return (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby("_pid")
        .map_groups(postings, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Unigram-LM surprise: the CCNet perplexity-filter analogue, integer-exact
# ---------------------------------------------------------------------------
class UnigramScorer:
    """Actor-pool scoring stage for :func:`unigram_surprise`: the broadcast
    model (sorted word-hash vocabulary + counts + totals) is fetched from
    the object store ONCE per actor; each batch tokenizes through the
    shared vectorized kernel and scores with numpy lookups only."""

    def __init__(self, model_ref, text_col: str, id_col: str):
        import ray

        wh, counts, n_total, v_size = ray.get(model_ref)
        self.wh = wh  # sorted uint64 vocabulary hashes
        self.counts = counts  # uint64 corpus counts, aligned with wh
        self.scale = np.uint64((int(n_total) + int(v_size)) * 1_000_000)
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, t: pa.Table) -> pa.Table:
        import polars as pl

        from .dedup import _batch_word_hashes

        ids = t[self.id_col]
        texts = pl.from_arrow(
            t[self.text_col].combine_chunks()
            if isinstance(t[self.text_col], pa.ChunkedArray)
            else t[self.text_col]
        )
        wh, lens, word_off = _batch_word_hashes(texts)
        if len(wh):
            idx = np.searchsorted(self.wh, wh)
            # OOV (only possible under a truncated max_vocab model) scores
            # with count 0 — the add-one prior alone
            idx_c = np.minimum(idx, len(self.wh) - 1)
            c = np.where(self.wh[idx_c] == wh, self.counts[idx_c], np.uint64(0))
            ip = self.scale // (c + np.uint64(1))  # inverse add-one prob, micro
            doc_sum = np.add.reduceat(
                np.concatenate([ip, np.zeros(1, np.uint64)]),
                np.minimum(word_off[:-1], len(ip)),
            )
            doc_sum[lens == 0] = 0
        else:
            ip = np.zeros(0, dtype=np.uint64)
            doc_sum = np.zeros(len(lens), dtype=np.uint64)
        surprise = np.where(
            lens > 0, doc_sum // np.maximum(lens, 1).astype(np.uint64), 0
        ).astype(np.int64)
        # each ip < 2^63 but a document's uint64 sum can wrap; the HUGEINT
        # twin does not. A float sum flags the documents that may have
        # wrapped (it is off by far less than the 2^63 margin), and those
        # are summed exactly in Python ints.
        doc_of = np.repeat(np.arange(len(lens)), lens)
        approx = np.bincount(doc_of, weights=ip.astype(np.float64), minlength=len(lens))
        for d in np.flatnonzero(approx >= 2.0**63):
            lo = int(word_off[d])
            surprise[d] = sum(int(x) for x in ip[lo : lo + int(lens[d])]) // int(lens[d])
        return pa.table(
            {
                self.id_col: ids,
                "n_words": pa.array(lens, pa.int64()),
                "surprise_micro": pa.array(surprise, pa.int64()),
            }
        )


def unigram_surprise(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_vocab: int | None = None,
) -> ray.data.Dataset:
    """Unigram language-model surprise per document — the integer-exact
    analogue of CCNet's KenLM perplexity filter (train a small LM on the
    corpus/reference, score every document, gate on the score). Reference
    semantics: scylla-cdc-source-connector has no text-quality surface; this is
    north-star curation API (SURVEY §2 "beyond the reference" family).

    Model: add-one-smoothed unigram over the corpus itself. Per token
    ``ip = (N + V) * 1_000_000 // (c(w) + 1)`` (inverse probability in
    micro-units, integer), per document ``surprise_micro = Σip // L`` —
    monotone in unigram perplexity but exact-integer end to end, so the
    DuckDB twin matches by construction (no libm log divergence). Empty
    docs score 0 with ``n_words`` 0. Tokens/hashes are the shared gram
    kernel (lower + ``_WS_CHARS`` split + md5 mod 2^61-1).

    Scale shape (100 TB): pass 1 pre-aggregates (word-hash, count) per
    block — the one keyed exchange carries unique-words-per-block rows,
    never tokens — and the model reaches the driver vocabulary-bounded
    (the token_topk cost family; ``max_vocab`` keeps the top-``max_vocab``
    counts (count DESC, hash ASC) and lets the tail score as OOV when the
    full vocabulary would not fit a broadcast — approximate then, exact
    and SQL-gated at ``None``). Pass 2 broadcasts the model via
    ``ray.put`` once and scores in an actor pool; per-batch work is the
    vectorized tokenizer + one searchsorted. Overflow bound: requires
    ``(N + V) * 1e6 < 2^63`` (N ≈ 9.2e12 corpus tokens per model; shard
    the model's training slice past that)."""
    import ray
    from ray.data.aggregate import Sum

    from .dedup import _batch_word_hashes

    def partial_counts(t: pa.Table) -> pa.Table:
        import polars as pl

        texts = pl.from_arrow(
            t[text_col].combine_chunks()
            if isinstance(t[text_col], pa.ChunkedArray)
            else t[text_col]
        )
        wh, _, _ = _batch_word_hashes(texts)
        u, c = np.unique(wh, return_counts=True)
        return pa.table(
            {"wh": pa.array(u.astype(np.int64)), "c": pa.array(c.astype(np.int64))}
        )

    totals = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("wh")
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
    )
    n_total = int(totals["c"].sum())
    v_size = len(totals)
    if max_vocab is not None and v_size > max_vocab:
        totals = totals.sort_values(
            ["c", "wh"], ascending=[False, True], kind="mergesort"
        ).head(max_vocab)
    totals = totals.sort_values("wh", kind="mergesort")
    wh = totals["wh"].to_numpy().astype(np.uint64)
    counts = totals["c"].to_numpy().astype(np.uint64)
    if (n_total + v_size) * 1_000_000 >= 1 << 63:
        raise ValueError("unigram_surprise: corpus too large for the integer "
                         "micro-unit scale; train the model on a slice")
    model_ref = ray.put((wh, counts, n_total, v_size))
    return ds.map_batches(
        UnigramScorer,
        fn_constructor_kwargs={
            "model_ref": model_ref,
            "text_col": text_col,
            "id_col": id_col,
        },
        batch_format="pyarrow",
        concurrency=(1, 8),
    )


# ---------------------------------------------------------------------------
# BM25 ranking — the retrieval scorer over the inverted-index family
# ---------------------------------------------------------------------------
def search_bm25(
    ds: ray.data.Dataset,
    terms: tuple[str, ...],
    text_col: str = "text",
    id_col: str = "doc_id",
    k1: float = 1.2,
    b: float = 0.75,
) -> ray.data.Dataset:
    """BM25 score of every document matching ANY query term — the ranking
    half of the retrieval stack (:func:`inverted_index` builds the index;
    this scores). Output per matching doc: (``id_col``, n_terms = distinct
    query terms present, score = Σ_t idf_t · tf·(k1+1)/(tf + k1·(1−b+b·L/avgdl)),
    rounded to 6 dp), with idf = ln((N − df + 0.5)/(df + 0.5)), N/avgdl over
    ALL docs. Tokens are the shared gram kernel (lower + ``_WS_CHARS``
    split); term matching is word equality.

    Scale shape (100 TB): pass 1 reduces the corpus to (2 + |terms|) integer
    partial rows per block (doc/word totals + per-term document frequencies)
    — the stats reach the driver as a handful of ints, never rows. Pass 2
    broadcasts (terms, idf, avgdl) by closure and scores each batch with one
    tokenize + |terms| vectorized equality folds; only matching (doc, score)
    rows leave. Float caveat: idf/score are float64 with the same operation
    ORDER as the SQL twin; the 6-dp round absorbs libm ulp differences (the
    ann-gate precedent)."""
    from .dedup import _batch_word_hashes, _word_hash

    tlist = sorted({t.lower() for t in terms})
    if not tlist:
        raise ValueError("at least one query term required")
    th = np.array([_word_hash(t) for t in tlist], dtype=np.uint64)

    def stats_partial(t: pa.Table) -> pa.Table:
        import polars as pl

        texts = pl.from_arrow(
            t[text_col].combine_chunks()
            if isinstance(t[text_col], pa.ChunkedArray)
            else t[text_col]
        )
        wh, lens, word_off = _batch_word_hashes(texts)
        doc_of = np.repeat(np.arange(len(lens)), lens)
        dfs = np.zeros(len(tlist), dtype=np.int64)
        for i, h in enumerate(th):
            m = wh == h
            dfs[i] = len(np.unique(doc_of[m]))
        # term keys are namespaced: a query term "_docs" must not merge
        # into the document total
        keys = ["_docs", "_words", *(f"t:{t}" for t in tlist)]
        vals = np.concatenate(
            [[len(lens), int(lens.sum())], dfs]
        ).astype(np.int64)
        return pa.table({"key": pa.array(keys, pa.string()), "val": pa.array(vals)})

    agg = (
        ds.map_batches(stats_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("key")["val"]
        .sum()
    )
    N = int(agg["_docs"])
    W = int(agg["_words"])
    if N == 0 or W == 0:
        raise ValueError("empty corpus")
    avgdl = W / N
    dfs = np.array([int(agg.get(f"t:{t}", 0)) for t in tlist], dtype=np.float64)
    idf = np.log((N - dfs + 0.5) / (dfs + 0.5))

    def score(t: pa.Table) -> pa.Table:
        import polars as pl

        texts = pl.from_arrow(
            t[text_col].combine_chunks()
            if isinstance(t[text_col], pa.ChunkedArray)
            else t[text_col]
        )
        wh, lens, word_off = _batch_word_hashes(texts)
        D = len(lens)
        doc_of = np.repeat(np.arange(D), lens)
        sc = np.zeros(D, dtype=np.float64)
        nt = np.zeros(D, dtype=np.int64)
        L = lens.astype(np.float64)
        for i, h in enumerate(th):
            tf = np.bincount(doc_of[wh == h], minlength=D).astype(np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                contrib = (
                    idf[i]
                    * tf
                    * (k1 + 1.0)
                    / (tf + k1 * (1.0 - b + b * L / avgdl))
                )
            hit = tf > 0
            sc[hit] += contrib[hit]
            nt += hit
        keep = nt > 0
        ids = t[id_col].combine_chunks() if isinstance(
            t[id_col], pa.ChunkedArray
        ) else t[id_col]
        return pa.table(
            {
                id_col: ids.filter(pa.array(keep)),
                "n_terms": pa.array(nt[keep], pa.int64()),
                "score": pa.array(np.round(sc[keep], 6), pa.float64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Gopher quality rules (Rae et al. 2021 §A1.1 subset, integer-exact)
# ---------------------------------------------------------------------------
def gopher_rules(
    batch: pa.Table,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_words: int = 5,
    max_words: int = 200_000,
    min_mean_wlen_micro: int = 2_000_000,
    max_mean_wlen_micro: int = 10_000_000,
    min_alpha_frac_micro: int = 800_000,
) -> pa.Table:
    """The Gopher document-quality rule subset that needs only the word
    stream (Rae et al. 2021, appendix A1.1): word-count bounds, mean word
    length bounds, and the fraction of words containing an alphabetic
    character. All statistics in integer micro-units so the DuckDB twin is
    bit-exact. Emits every doc: (id, n_words, mean_wlen_micro,
    alpha_frac_micro, gopher_keep 0/1); empty docs fail the word-count
    bound with zeroed stats.

    Scale shape: map-only (one vectorized tokenize + two arrow kernels per
    batch); nothing crosses an exchange."""
    import polars as pl

    from .dedup import _WS_TOKEN_RE

    txt = (
        batch[text_col].combine_chunks()
        if isinstance(batch[text_col], pa.ChunkedArray)
        else batch[text_col]
    )
    wa = (
        pl.Series(pl.from_arrow(txt))
        .cast(pl.String)
        .fill_null("")
        .str.extract_all(_WS_TOKEN_RE)
        .to_arrow()
    )
    n_words = pc.list_value_length(wa).cast(pa.int64()).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(wa)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    doc_of = np.repeat(np.arange(len(n_words)), n_words)
    wlen = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    alpha = (
        pc.match_substring_regex(flat, "[a-zA-Z]")
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    sum_len = np.bincount(doc_of, weights=wlen, minlength=len(n_words)).astype(
        np.int64
    )
    n_alpha = np.bincount(doc_of, weights=alpha, minlength=len(n_words)).astype(
        np.int64
    )
    nz = np.maximum(n_words, 1)
    mean_wlen = np.where(n_words > 0, sum_len * 1_000_000 // nz, 0)
    alpha_frac = np.where(n_words > 0, n_alpha * 1_000_000 // nz, 0)
    keep = (
        (n_words >= min_words)
        & (n_words <= max_words)
        & (mean_wlen >= min_mean_wlen_micro)
        & (mean_wlen <= max_mean_wlen_micro)
        & (alpha_frac >= min_alpha_frac_micro)
    )
    return pa.table(
        {
            id_col: batch[id_col],
            "n_words": pa.array(n_words, pa.int64()),
            "mean_wlen_micro": pa.array(mean_wlen, pa.int64()),
            "alpha_frac_micro": pa.array(alpha_frac, pa.int64()),
            "gopher_keep": pa.array(keep.astype(np.int64), pa.int64()),
        }
    )
