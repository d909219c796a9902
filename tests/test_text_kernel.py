"""The text-count kernel (``textops.count_patterns``) against its DuckDB
twins: every fixed pattern's engine spelling (Rust regex) must count
exactly what its SQL spelling (RE2) counts, on raw and lowered text."""

import hashlib

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ray.data

from scylla_cdc_source_connector_ray import oracles
from scylla_cdc_source_connector_ray.functions import textops as T
from scylla_cdc_source_connector_ray.functions.dedup import ngram_jaccard_dedup

#: where Unicode-aware and ASCII regex classes disagree: \v, the \x1c-\x1f
#: separators, NBSP, U+2003 and U+0085 (Unicode whitespace, not RE2 \s),
#: multi-byte letters next to stopwords (Unicode \b vs ASCII \b),
#: underscores and digits (word characters), contractions (BPE suffixes)
PIECES = [
    "the", "The", "THE", "and", "a", "of", "to", "in", "is", "it", "you",
    "der", "la", "que", "un", "e", "y",
    "éthe", "theé", "the_", "_the", "a1", "1a", "Ülé", "ßand", "İs",
    "don't", "it's", "we're", "'ll", "'", "x", "42",
    " ", "  ", "\t", "\n", "\r", "\f", "\v",
    "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2003", "\x85",
    ".", ",", ";", ":", "!", "?", "-", "...",
]

texts = st.one_of(
    st.none(),
    st.just(""),
    st.lists(
        st.one_of(
            st.sampled_from(PIECES),
            st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
        ),
        max_size=16,
    ).map("".join),
)

PATTERNS = {**T.TEXT_PATTERNS, **{f"lang_{k}": p for k, p in T.LangId.patterns().items()}}


def _twin_counts(arr: pa.Array) -> dict[str, list[int]]:
    con = duckdb.connect()
    con.register("docs", pa.table({"i": pa.array(np.arange(len(arr))), "text": arr}))
    cols = ", ".join(f"{p.sql_count('text')} AS \"{n}\"" for n, p in PATTERNS.items())
    df = con.sql(f"SELECT {cols} FROM docs ORDER BY i").df()
    return {n: df[n].astype("int64").tolist() for n in PATTERNS}


@settings(max_examples=150, deadline=None)
@given(st.lists(texts, min_size=1, max_size=20))
def test_count_patterns_match_duckdb_twin(docs):
    raw = pa.array(docs, pa.string())
    for arr in (raw, pc.utf8_lower(raw)):
        got = T.count_patterns(arr, {n: p.engine for n, p in PATTERNS.items()})
        want = _twin_counts(arr)
        for n in PATTERNS:
            assert got[n].type == pa.int64()
            assert got[n].to_pylist() == want[n], (n, arr.to_pylist())


def test_text_stats_all_columns_match_sql_sf001():
    """All five ``text_stats`` columns (``stat_bpe_tokens`` included) equal
    the generated TEXT_STATS twin on the sf0.01 documents."""
    docs = pq.read_table("/root/testdata/sf0.01/documents.parquet")
    got = (
        T.text_stats(docs)
        .drop_columns([c for c in docs.column_names if c != "doc_id"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", docs)
    want = con.sql(oracles.TEXT_STATS).df().sort_values("doc_id").reset_index(drop=True)
    assert list(got.columns) == list(want.columns)
    assert (got["stat_bpe_tokens"] > 0).any()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_quality_score_skips_bpe_and_matches_text_stats():
    docs = pq.read_table("/root/testdata/sf0.01/documents.parquet").slice(0, 300)
    q = T.quality_score(docs)
    s = T.text_stats(docs)
    assert "stat_bpe_tokens" not in q.column_names
    for c in ("stat_chars", "stat_words", "stat_punct", "stat_stop"):
        assert q[c].equals(s[c]), c


#: documents whose whitespace-like characters Rust's Unicode ``\s`` would
#: swallow; RE2 keeps each as a punctuation token
UNICODE_SPACE_DOCS = pd.DataFrame(
    {
        "doc_id": np.arange(6, dtype=np.int64),
        "text": pd.Series(
            [
                "a\xa0b the\xa0cat",
                "x\vy it's",
                "p\u2003q don't",
                "m\x85n m\x85n",
                "plain words here",
                None,
            ],
            dtype=object,
        ),
    }
)


def test_inverted_index_matches_twin_on_unicode_spaces():
    got = (
        T.inverted_index(ray.data.from_pandas(UNICODE_SPACE_DOCS), num_partitions=3)
        .to_pandas()
        .sort_values("token")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", UNICODE_SPACE_DOCS)
    want = con.sql(oracles.INVERTED_INDEX).df().sort_values("token").reset_index(drop=True)
    assert {"\xa0", "\v", "\u2003", "\x85"} <= set(want["token"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_spacesaving_summary_tokens_match_twin_on_unicode_spaces():
    """The heavy-hitter tokenizer (``hh_stream``) counts the twin's tokens."""
    col = pa.Table.from_pandas(UNICODE_SPACE_DOCS)["text"]
    ss = T.spacesaving_summary(col, 1000, T.BPE_TOKEN_RE)
    con = duckdb.connect()
    con.register("documents", UNICODE_SPACE_DOCS)
    want = dict(con.sql(oracles._token_topk_sql(1000)).fetchall())
    assert ss.counts == want


@pytest.mark.parametrize(
    "text", [pa.array(["a b", "b c", None]), pa.chunked_array([["a b"], ["b c", None]])]
)
def test_spacesaving_summary_on_unnamed_text(text):
    """A bare array or chunked array (no table column name) summarizes too."""
    ss = T.spacesaving_summary(text, 8, T.BPE_TOKEN_RE)
    assert ss.counts == {"a": 1, "b": 2, "c": 1}
    assert ss.n == 4


#: leading/trailing tabs, newlines and CRs are not words on either side of a
#: whitespace-splitting twin (DuckDB's ``trim`` strips spaces only)
EDGE_WS_DOCS = pd.DataFrame(
    {
        "doc_id": np.arange(5, dtype=np.int64),
        "text": pd.Series(
            [
                "\talpha beta alpha beta\n",
                "alpha beta gamma delta epsilon zeta eta",
                "\n\talpha beta gamma delta epsilon zeta eta\r\n",
                " \t\n",
                None,
            ],
            dtype=object,
        ),
    }
)

#: the word-splitting twins, each against the engine function it mirrors;
#: DEDUP_NGRAM_JACCARD stands for every user of the shared shingles CTE
WORD_SPLIT_TWINS = {
    "QUALITY_REPETITION": (T.repetition_stats, oracles.QUALITY_REPETITION),
    "WINNOW_FINGERPRINT": (
        lambda df: T.winnow_fingerprints(ray.data.from_pandas(df)).to_pandas(),
        oracles.WINNOW_FINGERPRINT,
    ),
    "DEDUP_NGRAM_JACCARD": (
        lambda df: ngram_jaccard_dedup(ray.data.from_pandas(df), num_partitions=2).to_pandas(),
        oracles.DEDUP_NGRAM_JACCARD,
    ),
}


@pytest.mark.parametrize("twin", sorted(WORD_SPLIT_TWINS))
def test_word_split_twins_strip_edge_whitespace(twin):
    engine, sql = WORD_SPLIT_TWINS[twin]
    con = duckdb.connect()
    con.register("documents", EDGE_WS_DOCS)
    want = con.sql(sql).df()
    cols = list(want.columns)
    got = engine(EDGE_WS_DOCS)[cols]
    assert len(want)
    pd.testing.assert_frame_equal(
        got.sort_values(cols).reset_index(drop=True),
        want.sort_values(cols).reset_index(drop=True),
        check_dtype=False,
    )


# --------------------------------------------------------------------------
# md5_normalized: the exact-dedup / fingerprint hash kernel

#: RE2 whitespace, the Unicode spaces RE2's \s does not match (\v, NBSP,
#: U+0085), ASCII letters and multi-byte letters whose lowercase differs
#: in byte length or needs Unicode case rules (Σ, İ, ǅ, é)
MD5_ALPHABET = [" ", "\t", "\n", "\r", "\f", "\v", "\xa0", "\x85", "a", "B", "Σ", "İ", "ǅ", "é"]
md5_texts = st.one_of(
    st.none(),
    st.just(""),
    st.text(alphabet=[" ", "\t", "\n", "\r", "\f"], min_size=1, max_size=6),
    st.text(alphabet=MD5_ALPHABET, max_size=24),
)
#: the gates' twin, over a row index: DuckDB's parallel scan reorders rows
MD5_TWIN_SQL = f"SELECT {oracles.NORM_MD5} FROM docs ORDER BY i"


def _md5_reference(docs: list) -> list[str]:
    """The kernel's definition, one step per Arrow RE2 / utf8 kernel."""
    arr = pc.fill_null(pa.array(docs, pa.string()), "")
    norm = pc.utf8_trim(pc.utf8_lower(pc.replace_substring_regex(arr, r"\s+", " ")), " ")
    return [hashlib.md5(s.encode()).hexdigest() for s in norm.to_pylist()]


def _md5_inputs(docs: list) -> dict:
    """``docs`` in every input shape the kernel takes."""
    arr = pa.array(docs, pa.string())
    half = len(docs) // 2
    return {
        "series": pd.Series(docs, dtype=object),
        "array": arr,
        "sliced": pa.array(["x\t\tY", None, *docs], pa.string()).slice(2),
        "chunked": pa.chunked_array([arr.slice(0, half), arr.slice(half)], pa.string()),
        "large_string": arr.cast(pa.large_string()),
        "large_sliced": pa.array(["ΣΣ ", *docs], pa.large_string()).slice(1),
    }


@settings(max_examples=200, deadline=None)
@given(st.lists(md5_texts, max_size=12))
def test_md5_normalized_matches_reference_and_duckdb_twin(docs):
    want = _md5_reference(docs)
    for shape, texts in _md5_inputs(docs).items():
        digests = T.md5_normalized(texts)
        assert isinstance(digests, bytes) and len(digests) == 16 * len(docs), shape
        assert T.md5_hex(digests) == want, (shape, docs)
    con = duckdb.connect()
    con.register("docs", pa.table({"i": pa.array(np.arange(len(docs))), "text": pa.array(docs, pa.string())}))
    assert [r[0] for r in con.sql(MD5_TWIN_SQL).fetchall()] == want, docs


def test_md5_normalized_edge_inputs():
    docs = [None, "", " \t\r\n\f ", "A  b\tC", "\vX\xa0", "ΣΑΣ\r\n\r\nİ"]
    want = _md5_reference(docs)
    for shape, texts in _md5_inputs(docs).items():
        assert T.md5_hex(T.md5_normalized(texts)) == want, shape
    assert want[0] == want[1] == want[2] == hashlib.md5(b"").hexdigest()
    assert T.md5_normalized(pa.array([], pa.string())) == b""
    assert T.md5_normalized(pa.chunked_array([], pa.string())) == b""
    assert T.md5_normalized(pd.Series([], dtype=object)) == b""
    # an all-NULL column read without a type hashes as empty strings
    assert T.md5_normalized(pa.array([None, None])) == hashlib.md5(b"").digest() * 2
