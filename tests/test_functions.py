"""Training-data ops: text analysis, dedup family, ANN, multimodal plumbing."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

from scylla_cdc_source_connector_ray.functions import dedup as D
from scylla_cdc_source_connector_ray.functions import multimodal as MM
from scylla_cdc_source_connector_ray.functions import similarity as S
from scylla_cdc_source_connector_ray.functions import textops as T

SF = "/root/testdata/sf0.001"


def _docs():
    return ray.data.read_parquet(f"{SF}/documents.parquet")


def _emb():
    return ray.data.read_parquet(f"{SF}/embeddings.parquet")


# --- textops ---------------------------------------------------------------


def test_text_stats_matches_sql():
    out = _docs().map_batches(T.text_stats, batch_format="pyarrow").to_pandas()
    con = duckdb.connect()
    sql = con.sql(
        f"""
        SELECT doc_id,
               coalesce(length(text), 0) AS stat_chars,
               coalesce(length(regexp_extract_all(text, '\\S+')), 0) AS stat_words,
               coalesce(length(regexp_extract_all(text, '[.,;:!?]')), 0) AS stat_punct,
               coalesce(length(regexp_extract_all(text, '\\b(the|and|of|a|to|in|is)\\b')), 0) AS stat_stop
        FROM '{SF}/documents.parquet'
        """
    ).df()
    m = out[["doc_id", "stat_chars", "stat_words", "stat_punct", "stat_stop"]].sort_values("doc_id").reset_index(drop=True)
    s = sql.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(m, s, check_dtype=False)


def test_quality_score_range_and_determinism():
    a = _docs().map_batches(T.quality_score, batch_format="pyarrow").to_pandas()
    b = _docs().map_batches(T.quality_score, batch_format="pyarrow").to_pandas()
    assert ((a["quality"] >= 0) & (a["quality"] <= 1)).all()
    pd.testing.assert_series_equal(
        a.sort_values("doc_id")["quality"].reset_index(drop=True),
        b.sort_values("doc_id")["quality"].reset_index(drop=True),
    )


def test_lang_id_on_planted_samples():
    # testdata's `lang` label is synthetic and uncorrelated with the text, so
    # plant genuine per-language sentences and check the heuristic on those
    planted = pd.DataFrame(
        {
            "doc_id": range(4),
            "text": [
                "the cat sat on the mat and it is happy that you came for it",
                "der Hund ist nicht zu Hause und ich habe ein Problem mit der Katze",
                "le chat est dans la maison et les enfants sont pour une promenade",
                "el perro está en la casa y los niños van por la calle con una pelota",
            ],
            "lang": ["en", "de", "fr", "es"],
        }
    )
    out = (
        ray.data.from_pandas(planted)
        .map_batches(T.LangId, batch_format="pyarrow", concurrency=2)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert out["lang_pred"].tolist() == ["en", "de", "fr", "es"]


def test_lang_id_matches_sql_twin():
    """Engine argmax (incl. tie-break + unk) == the generated DuckDB oracle."""
    import duckdb

    df = pd.DataFrame(
        {
            "doc_id": range(6),
            "text": [
                "the cat and the dog",
                "la la la",  # fr/es/it tie -> alphabetical winner 'es'
                "zzz qqq",  # no stopword -> unk
                None,  # null text -> unk
                "",  # empty -> unk
                "der die und le la et el la de",  # cross-language mix
            ],
        }
    )
    mine = (
        ray.data.from_pandas(df)
        .map_batches(T.LangId, batch_format="pyarrow", concurrency=1)
        .to_pandas()[["doc_id", "lang_pred"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", df)
    oracle = (
        con.sql(T.LangId.oracle_sql()).df().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(mine, oracle)


def test_fingerprints():
    out = _docs().map_batches(T.fingerprint, batch_format="pandas").to_pandas()
    assert out["fp"].str.len().eq(32).all()
    r = _docs().map_batches(T.rolling_fingerprint, batch_format="pandas").to_pandas()
    assert r["rolling_fp"].nunique() > len(r) * 0.9  # near-unique on distinct docs


# --- dedup -----------------------------------------------------------------


def test_exact_dedup_matches_sql():
    out = D.exact_dedup(_docs()).to_pandas()
    con = duckdb.connect()
    sql = con.sql(
        f"SELECT text, min(doc_id) AS keep_id, count(*) AS n_copies FROM '{SF}/documents.parquet' GROUP BY text"
    ).df()
    m = out.sort_values("keep_id").reset_index(drop=True)
    s = sql.sort_values("keep_id").reset_index(drop=True)
    assert len(m) == len(s)
    assert m["keep_id"].tolist() == s["keep_id"].tolist()
    assert m["n_copies"].tolist() == s["n_copies"].tolist()


def test_exact_dedup_hashed_equivalent():
    plain = D.exact_dedup(_docs()).to_pandas()
    hashed = D.exact_dedup_hashed(_docs()).to_pandas()
    # same number of distinct groups (md5 collisions ~impossible) but hashed
    # normalizes whitespace/case — compare group counts loosely
    assert abs(len(plain) - len(hashed)) <= len(plain) * 0.05


def test_word_hashes_vec_matches_scalar_above_gate():
    # the DuckDB-vectorized word hash must be bit-identical to the scalar
    # md5 rule on BOTH sides of the _VEC_HASH_MIN size gate
    import numpy as np

    small = np.asarray([f"w{i}" for i in range(64)], dtype=object)
    big = np.asarray(
        [f"tok{i}x{i % 97}" for i in range(D._VEC_HASH_MIN + 500)], dtype=object
    )
    assert len(big) >= D._VEC_HASH_MIN
    for arr in (small, big):
        vec = D._word_hashes_vec(arr)
        ref = np.array([D._word_hash(w) for w in arr], dtype=np.uint64)
        assert np.array_equal(vec, ref)
    # tricky contents: unicode, long, control chars
    tricky = np.asarray(["wörld", "日本語", "a" * 300, "x\x01y", "'tis"], dtype=object)
    assert np.array_equal(
        D._word_hashes_vec(tricky),
        np.array([D._word_hash(w) for w in tricky], dtype=np.uint64),
    )
    assert D._word_hashes_vec([]).shape == (0,)


def test_minhash_lsh_finds_planted_near_dups():
    # 150 docs keep the LSH bucket-groupby overhead small; coverage is the
    # pipeline shape, not corpus size
    docs = _docs().to_pandas()[["doc_id", "text"]].head(150)
    base = docs.iloc[0]["text"] or "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    long_base = (base + " ") * 3
    planted = pd.DataFrame(
        {
            "doc_id": [100001, 100002, 100003],
            "text": [
                long_base,
                long_base + " tail tweak",  # near-dup of 100001
                "completely different content about unrelated matters entirely xyz",
            ],
        }
    )
    ds = ray.data.from_pandas(pd.concat([docs, planted], ignore_index=True))
    pairs = D.minhash_lsh_dedup(ds, threshold=0.5).to_pandas()
    assert ((pairs["a"] == 100001) & (pairs["b"] == 100002)).any()
    assert not ((pairs["a"] == 100001) & (pairs["b"] == 100003)).any()
    assert (pairs["jaccard_micro"] >= 500_000).all()


def test_minhash_fork_spills_to_parquet(tmp_path):
    """The signature+grams fork reads from DISK, not from a plasma
    materialize: the spill dir is populated with parquet before the returned
    lazy dataset is consumed (VERDICT r3 'What's wrong #1')."""
    import glob

    # read_parquet input is load-bearing: Arrow input blocks are what made
    # the old pandas-output spill write `sig` as the tensor extension type,
    # whose pandas metadata breaks the parquet round-trip on read-back
    ds = ray.data.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    spill = str(tmp_path / "fork")
    pairs = D.minhash_lsh_dedup(ds, threshold=0.5, spill_dir=spill)
    files = glob.glob(spill + "/*.parquet")
    assert files, "fork point must be written to parquet before consumption"
    import pyarrow as pa
    import pyarrow.parquet as pq

    sch = pq.read_schema(files[0])
    assert {"doc_id", "sig", "grams"} <= set(sch.names)
    # plain list<int64>, never an extension type (unreadable after round-trip)
    assert sch.field("sig").type == pa.list_(pa.int64())
    pairs.to_pandas()  # consuming still works off the spilled fork


def test_ngram_jaccard_exact_vs_bruteforce():
    """AllPairs prefix filtering is COMPLETE: the distributed self-join's
    output equals the brute-force all-pairs exact Jaccard answer — every
    pair, every micro value, nothing extra and nothing missed."""
    docs = _docs().to_pandas()[["doc_id", "text"]].head(80)
    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    planted = pd.DataFrame(
        {
            "doc_id": [200001, 200002, 200003, 200004],
            "text": [
                (base + " ") * 3,
                (base + " ") * 3 + " tail tweak",  # near-dup of 200001
                base,  # much shorter: length filter must not drop a true pair
                "completely unrelated content entirely xyz",
            ],
        }
    )
    all_docs = pd.concat([docs, planted], ignore_index=True)
    ds = ray.data.from_pandas(all_docs)
    got = (
        D.ngram_jaccard_dedup(ds, threshold=0.35)
        .to_pandas()[["a", "b", "jaccard_micro"]]
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    # brute force over every pair with the same shingle definition
    ids = all_docs["doc_id"].to_numpy()
    grams = {
        i: D._word_ngram_hashes(t or "", 3)
        for i, t in zip(ids, all_docs["text"])
    }
    rows = []
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            a, b = sorted((int(ids[x]), int(ids[y])))
            ga, gb = grams[a], grams[b]
            if len(ga) == 0 or len(gb) == 0:
                continue
            inter = len(np.intersect1d(ga, gb, assume_unique=True))
            union = len(ga) + len(gb) - inter
            micro = (inter * 1_000_000) // union
            if micro >= 350_000:
                rows.append((a, b, micro))
    want = (
        pd.DataFrame(rows, columns=["a", "b", "jaccard_micro"])
        .astype("int64")
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got.astype("int64"), want)
    assert ((want["a"] == 200001) & (want["b"] == 200002)).any()


def test_lsh_bucket_rows_packed_int64():
    """Band keys cross the exchange as fixed-width int64 columns — no
    object-dtype strings (VERDICT r3 'Next round #6'); the packed key is
    equality-equivalent to the legacy '-'-joined decimal string."""
    mh = D.FastMinHasher(num_perm=64, ngram=3, seed=42)
    sig = mh(pd.DataFrame({"doc_id": [1, 2, 3], "text": ["a b c d e f", "a b c d e f", "x y z w v u"]}))
    rows = D.lsh_bucket_rows(sig, bands=16, rows_per_band=4)
    assert list(rows.columns) == ["band", "bk0", "bk1", "bk2", "bk3", "doc_id"]
    assert all(rows[c].dtype == "int64" for c in rows.columns)
    # equality semantics identical to the legacy '-'-joined decimal string
    strs = [
        "-".join(str(rows[f"bk{c}"].iloc[i]) for c in range(4))
        for i in range(len(rows))
    ]
    packed = list(map(tuple, rows[["bk0", "bk1", "bk2", "bk3"]].values))
    seen = {}
    for s, p in zip(strs, packed):
        assert seen.setdefault(s, p) == p
    assert len(set(strs)) == len(set(packed))
    # identical docs share every band bucket; the distinct doc shares none
    g = rows.groupby(["band", "bk0", "bk1", "bk2", "bk3"])["doc_id"].agg(set)
    assert all({1, 2} <= s or 3 in s for s in g)
    assert not any({1, 3} <= s or {2, 3} <= s for s in g)


def test_nibble_rule_integer_mix_matches_sql():
    """Integer-id sampling is the vectorized Fibonacci mix (VERDICT r3 'Next
    round #4' — no per-id Python md5); the DuckDB twin's HUGEINT
    split-multiply is bit-identical, including negative ids."""
    from scylla_cdc_source_connector_ray.functions.dedup import _nibble_of
    from scylla_cdc_source_connector_ray.oracles import _nibble_sql

    ids = np.concatenate(
        [
            np.arange(0, 20000, dtype=np.int64),
            np.array([-1, -5000, 2**62, -(2**62), 2**63 - 1, -(2**63)], np.int64),
        ]
    )
    nib = _nibble_of(pd.Series(ids))
    con = duckdb.connect()
    con.register("t", pd.DataFrame({"id": ids}))
    got = con.sql(f"SELECT {_nibble_sql('id')} AS nib FROM t").df()["nib"].to_numpy()
    assert (got == nib).all()
    # near-uniform over sequential ids (the 100 TB doc_id shape)
    counts = np.bincount(nib[:20000], minlength=16)
    assert counts.min() > 0.9 * 20000 / 16 and counts.max() < 1.1 * 20000 / 16
    # 5 and 5.0 hash alike; strings still use the md5 rule
    assert _nibble_of(pd.Series([5.0]))[0] == _nibble_of(pd.Series([5]))[0]
    import hashlib

    assert _nibble_of(pd.Series(["abc"]))[0] == int(
        hashlib.md5(b"abc").hexdigest()[0], 16
    )


def test_simhash_near_dups_planted():
    docs = _docs().to_pandas()[["doc_id", "text"]].head(150)
    words = "the quick brown fox jumps over the lazy dog again and again today".split()
    base = " ".join(words * 12)  # enough shingles that a small edit ⇒ small Hamming
    planted = pd.DataFrame(
        {
            "doc_id": [200001, 200002],
            "text": [base, base + " minor suffix"],
        }
    )
    ds = ray.data.from_pandas(pd.concat([docs, planted], ignore_index=True))
    pairs = D.simhash_near_dups(ds, max_hamming=6).to_pandas()
    assert ((pairs["a"] == 200001) & (pairs["b"] == 200002)).any()


def test_embedding_grid_equals_bruteforce():
    """The theta-join grid path is EXACT: same pair set as the broadcast
    brute-force baseline, for a grid that doesn't divide the id space evenly."""
    brute = D.embedding_near_dups(_emb(), threshold=0.35).to_pandas()
    grid = D.embedding_near_dups_grid(_emb(), threshold=0.35, grid=7).to_pandas()
    b = sorted(map(tuple, brute[["a", "b"]].values.tolist()))
    g = sorted(map(tuple, grid[["a", "b"]].values.tolist()))
    assert b == g


def test_embedding_near_dups_matches_sql():
    out = D.embedding_near_dups(_emb(), threshold=0.35).to_pandas()
    con = duckdb.connect()
    sql = con.sql(
        f"""
        SELECT a.vec_id AS a, b.vec_id AS b,
               list_cosine_similarity(a.embedding, b.embedding) AS cosine
        FROM '{SF}/embeddings.parquet' a JOIN '{SF}/embeddings.parquet' b
          ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.35
        """
    ).df()
    m = out.sort_values(["a", "b"]).reset_index(drop=True)
    s = sql.sort_values(["a", "b"]).reset_index(drop=True)
    assert m[["a", "b"]].values.tolist() == s[["a", "b"]].values.tolist()
    assert np.allclose(m["cosine"], s["cosine"], atol=1e-6)


# --- similarity ------------------------------------------------------------


def _queries(n=5):
    df = _emb().limit(n).to_pandas()
    return np.stack(df["embedding"].values), df["vec_id"].values


def test_ann_bruteforce_matches_sql_topk():
    Q, qids = _queries(5)
    out = S.ann_bruteforce(_emb(), Q, qids, k=4)
    con = duckdb.connect()
    sql = con.sql(
        f"""
        WITH q AS (SELECT vec_id AS query_id, embedding AS qe
                   FROM '{SF}/embeddings.parquet' WHERE vec_id < 5),
        scored AS (
            SELECT q.query_id, e.vec_id,
                   list_cosine_similarity(q.qe, e.embedding) AS cosine,
                   row_number() OVER (PARTITION BY q.query_id
                                      ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC,
                                               e.vec_id) AS rank
            FROM q CROSS JOIN '{SF}/embeddings.parquet' e
        )
        SELECT query_id, vec_id, cosine, rank FROM scored WHERE rank <= 4
        """
    ).df()
    m = out.sort_values(["query_id", "rank"]).reset_index(drop=True)
    s = sql.sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert m[["query_id", "vec_id", "rank"]].values.tolist() == s[["query_id", "vec_id", "rank"]].values.tolist()


def test_ann_ivf_recall():
    Q, qids = _queries(10)
    exact = S.ann_bruteforce(_emb(), Q, qids, k=5)
    approx = S.ann_ivf(_emb(), Q, qids, k=5, n_centroids=8, nprobe=4)
    exact_sets = exact.groupby("query_id")["vec_id"].apply(set)
    approx_sets = approx.groupby("query_id")["vec_id"].apply(set)
    recalls = [
        len(exact_sets[q] & approx_sets.get(q, set())) / len(exact_sets[q]) for q in exact_sets.index
    ]
    assert np.mean(recalls) >= 0.6, recalls


# --- multimodal ------------------------------------------------------------


def test_multimodal_pipeline_plumbing():
    media = MM.synthesize_media(n=32)
    ds = ray.data.from_arrow(media)
    out = MM.decode_pipeline(ds, decoder="fake", batch_size=8, concurrency=2).to_pandas()
    assert len(out) == 32
    assert len(out["features"].iloc[0]) == 11
    # deterministic across runs
    out2 = MM.decode_pipeline(ray.data.from_arrow(media), decoder="fake", batch_size=16, concurrency=2).to_pandas()
    a = np.stack(out.sort_values("media_id")["features"].values)
    b = np.stack(out2.sort_values("media_id")["features"].values)
    assert np.allclose(a, b)


def test_multimodal_real_decoder_env_gated():
    """decoder='real' raises when no codec lib exists; decodes when one does
    (skipped-or-passing by environment, per the auto-probe design)."""
    if MM._probe_codec() is None:
        with pytest.raises(NotImplementedError):
            MM.Decoder(decoder="real")
    else:
        import io

        from PIL import Image  # probe found pil or imageio; build bytes via PIL

        buf = io.BytesIO()
        Image.new("RGB", (6, 4), (250, 10, 10)).save(buf, format="PNG")
        tbl = pa.table(
            {
                "media_id": pa.array([1], pa.int64()),
                "kind": pa.array(["image"], pa.string()),
                "payload": pa.array([buf.getvalue()], pa.binary()),
                "width": pa.array([999], pa.int32()),  # lying metadata
                "height": pa.array([999], pa.int32()),
                "duration_ms": pa.array([0], pa.int32()),
            }
        )
        out = MM.Decoder(decoder="real")(tbl)
        assert out["width"].to_pylist() == [6]  # decoded dims win
        assert out["height"].to_pylist() == [4]
        px = np.asarray(out["pixels"][0].as_py(), dtype=np.uint8).reshape(4, 6, 3)
        assert px[0, 0, 0] == 250 and px[0, 0, 1] == 10


def test_multimodal_auto_decoder_falls_back():
    """decoder='auto' never raises: real codec when present, fake otherwise —
    and the fake leg stays byte-identical to decoder='fake'."""
    d = MM.Decoder(decoder="auto")
    assert d.decoder == ("real" if MM._probe_codec() is not None else "fake")
    if d.decoder == "fake":
        media = MM.synthesize_media(n=4)
        a = d(media)
        b = MM.Decoder(decoder="fake")(media)
        assert a.equals(b)


def test_frame_sampling():
    media = MM.synthesize_media(n=4, kind="video")
    plan = MM.frame_sample_ids(media, every_ms=250)
    assert plan.num_rows == 4 * 4  # 1000ms / 250ms


# --- sketches --------------------------------------------------------------


def test_distinct_per_group_exact_matches_sql():
    from scylla_cdc_source_connector_ray.functions.sketches import distinct_per_group_exact

    ev = ray.data.read_parquet(f"{SF}/events.parquet")
    out = distinct_per_group_exact(ev, "event_type", "user_id").to_pandas()
    con = duckdb.connect()
    sql = con.sql(
        f"SELECT event_type, count(DISTINCT user_id) AS n_distinct FROM '{SF}/events.parquet' GROUP BY 1"
    ).df()
    a = out.sort_values("event_type").reset_index(drop=True)
    b = sql.sort_values("event_type").reset_index(drop=True)
    assert a["event_type"].tolist() == b["event_type"].tolist()
    assert a["n_distinct"].astype(int).tolist() == b["n_distinct"].astype(int).tolist()


def test_hll_sketch_accuracy_and_merge():
    from scylla_cdc_source_connector_ray.functions.sketches import (
        HyperLogLog,
        distinct_per_group_hll,
    )

    def mix(x):  # splitmix64: proper 64-bit avalanche for test hashes
        x = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        return x ^ (x >> np.uint64(31))

    # accuracy: 50k distinct values → estimate within 5% at p=12
    h = HyperLogLog(p=12).add_hashed(mix(np.arange(50_000, dtype=np.uint64)))
    assert abs(h.estimate() - 50_000) / 50_000 < 0.05
    # merge(a, b) == sketch(a ∪ b)
    ha = HyperLogLog(12).add_hashed(mix(np.arange(0, 30_000, dtype=np.uint64)))
    hb = HyperLogLog(12).add_hashed(mix(np.arange(20_000, 60_000, dtype=np.uint64)))
    hu = HyperLogLog(12).add_hashed(mix(np.arange(0, 60_000, dtype=np.uint64)))
    assert np.array_equal(ha.merge(hb).registers, hu.registers)

    # distributed per-group sketches within error of the exact counts
    ev = ray.data.read_parquet(f"{SF}/events.parquet")
    est = distinct_per_group_hll(ev, "event_type", "user_id").set_index("event_type")
    con = duckdb.connect()
    exact = con.sql(
        f"SELECT event_type, count(DISTINCT user_id) AS n FROM '{SF}/events.parquet' GROUP BY 1"
    ).df().set_index("event_type")
    for et in exact.index:
        e, x = est.loc[et, "n_distinct_est"], exact.loc[et, "n"]
        assert abs(e - x) / max(x, 1) < 0.1, (et, e, x)


def test_multimodal_mixed_dimensions():
    """A batch mixing image sizes must decode (variable-length pixel lists;
    review find: np.stack required uniform shapes)."""
    import pyarrow as pa

    a = MM.synthesize_media(n=3)
    b = MM.synthesize_media(n=2)
    b = b.set_column(b.column_names.index("width"), "width", pa.array([32, 32], pa.int32()))
    b = b.set_column(b.column_names.index("height"), "height", pa.array([32, 32], pa.int32()))
    b = b.set_column(b.column_names.index("media_id"), "media_id", pa.array([100, 101], pa.int64()))
    mixed = pa.concat_tables([a, b])
    out = MM.decode_pipeline(ray.data.from_arrow(mixed), decoder="fake", batch_size=8, concurrency=2).to_pandas()
    assert len(out) == 5 and all(len(f) == 11 for f in out["features"])


def test_embedding_lsh_subset_of_exact():
    """SRP-LSH near-dups are a SUBSET of the exact relation — every emitted
    pair is cosine-verified in the bucket task. (Recall at the gate's LOW
    0.35 threshold is intentionally small: per-plane collision 1-θ/π ≈ 0.61
    → ~2% per 8-plane table; SRP-LSH is the HIGH-similarity scale path,
    tested below in its design regime.)"""
    exact = D.embedding_near_dups(_emb(), threshold=0.35).to_pandas()
    lsh = D.embedding_lsh_near_dups(_emb(), threshold=0.35).to_pandas()
    e = set(map(tuple, exact[["a", "b"]].values.tolist()))
    l = set(map(tuple, lsh[["a", "b"]].values.tolist()))
    assert l <= e and len(l) > 0


def test_embedding_lsh_recall_in_design_regime():
    """Planted near-identical pairs (cosine ≈ 0.99): SRP-LSH must recover
    nearly all of them — θ ≈ 8° → per-table collision ≈ 0.7, four tables
    → ≈ 0.99 expected recall."""
    rng = np.random.default_rng(11)
    base = rng.standard_normal((60, 64))
    noisy = base + 0.05 * rng.standard_normal((60, 64))
    vecs = np.concatenate([base, noisy]).astype(np.float32)
    df = pd.DataFrame(
        {"vec_id": np.arange(120, dtype=np.int64), "embedding": list(vecs)}
    )
    out = D.embedding_lsh_near_dups(
        ray.data.from_pandas(df), threshold=0.9
    ).to_pandas()
    got = set(map(tuple, out[["a", "b"]].values.tolist()))
    planted = {(i, i + 60) for i in range(60)}
    assert len(got & planted) >= 54  # ≥90% recall on planted near-identicals


def test_top_k_per_group_matches_pandas():
    from scylla_cdc_source_connector_ray.stages.topk import top_k_per_group

    rng = np.random.default_rng(5)
    df = pd.DataFrame(
        {
            "g": rng.integers(0, 7, 300).astype(np.int64),
            "sub": rng.integers(0, 2, 300).astype(np.int64),
            "v": rng.integers(0, 50, 300).astype(np.int64),
            "uid": np.arange(300, dtype=np.int64),
        }
    )
    out = top_k_per_group(
        ray.data.from_pandas(df).repartition(6),
        keys=["g", "sub"],
        value_col="v",
        k=3,
        tiebreak=["uid"],
    ).to_pandas()
    want = (
        df.sort_values(["g", "sub", "v", "uid"], ascending=[True, True, False, True])
        .groupby(["g", "sub"])
        .head(3)
    )
    got = out.sort_values(["g", "sub", "rank"]).reset_index(drop=True)
    assert len(got) == len(want)
    w = want.sort_values(["g", "sub", "v", "uid"], ascending=[True, True, False, True])
    assert got["uid"].tolist() == w["uid"].tolist()
    assert got["rank"].max() <= 3 and got["rank"].min() == 1


def test_top_k_per_group_null_and_separator_keys():
    """Regression: run detection must be per-column null-safe — a NULL in any
    key column (joined-string nulls the composite) or a \\x1f inside a string
    key (non-injective join) used to merge adjacent distinct groups and drop
    whole groups from the partial prune."""
    from scylla_cdc_source_connector_ray.stages.topk import top_k_per_group

    df = pd.DataFrame(
        {
            "g": ["a", "b", "a\x1fb", "a", "a", None],
            "sub": [None, None, "c", "b\x1fc", "b\x1fc", None],
            "v": [10, 99, 10, 99, 5, 7],
            "uid": [0, 1, 2, 3, 4, 5],
        }
    )
    out = (
        top_k_per_group(
            ray.data.from_pandas(df).repartition(2),
            keys=["g", "sub"],
            value_col="v",
            k=1,
            tiebreak=["uid"],
        )
        .to_pandas()
        .sort_values("uid")
    )
    # five distinct (g, sub) groups -> five rank-1 rows
    assert sorted(out["uid"].tolist()) == [0, 1, 2, 3, 5]
    assert (out["rank"] == 1).all()


def test_grouped_quantiles_hist_matches_reference():
    """Histogram-sketch quantiles: p{q}_bin must equal the bin of the exact
    order statistic, including negative values (floor, not truncation)."""
    from scylla_cdc_source_connector_ray.stages.topk import grouped_quantiles_hist

    rng = np.random.default_rng(17)
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c"], 500),
            "v": rng.normal(0, 40, 500),  # negatives exercise floor semantics
        }
    )
    df.loc[::50, "v"] = np.nan  # NULLs dropped like SQL
    W = 5.0
    out = (
        grouped_quantiles_hist(
            ray.data.from_pandas(df).repartition(6),
            keys=["g"],
            value_col="v",
            bin_width=W,
        )
        .to_pandas()
        .set_index("g")
        .sort_index()
    )
    for g, grp in df.dropna(subset=["v"]).groupby("g"):
        v = np.sort(grp["v"].to_numpy())
        n = len(v)
        assert out.loc[g, "n"] == n
        for q in (25, 50, 95):
            exact = v[(n - 1) * q // 100]
            assert out.loc[g, f"p{q}_bin"] == int(np.floor(exact / W)), (g, q)


def test_grouped_quantiles_hist_keeps_null_group():
    """Regression: SQL GROUP BY keeps one NULL-key group; the per-batch
    pandas groupby must not dropna it."""
    from scylla_cdc_source_connector_ray.stages.topk import grouped_quantiles_hist

    df = pd.DataFrame({"g": [None, None, "a"], "v": [2.0, 4.0, 9.0]})
    out = grouped_quantiles_hist(
        ray.data.from_pandas(df).repartition(2), keys=["g"], value_col="v", bin_width=5.0
    ).to_pandas()
    nulls = out[out["g"].isna()]
    assert len(nulls) == 1 and int(nulls["n"].iloc[0]) == 2


def test_running_total_matches_cumsum():
    from scylla_cdc_source_connector_ray.stages.scan import running_total

    rng = np.random.default_rng(23)
    ids = rng.permutation(300).astype(np.int64)  # arrives unordered
    df = pd.DataFrame({"oid": ids, "v": rng.integers(-5, 50, 300).astype(np.int64)})
    out = (
        running_total(
            ray.data.from_pandas(df).repartition(7), "oid", "v", num_ranges=8
        )
        .to_pandas()
        .sort_values("oid")
        .reset_index(drop=True)
    )
    want = df.sort_values("oid").reset_index(drop=True)
    np.testing.assert_array_equal(out["cum"].to_numpy(), want["v"].cumsum().to_numpy())


def test_running_total_single_range_and_explicit_boundaries():
    from scylla_cdc_source_connector_ray.stages.scan import running_total

    df = pd.DataFrame({"oid": np.arange(10, dtype=np.int64), "v": np.ones(10, np.int64)})
    # all rows land in one range (boundaries outside the domain)
    out = (
        running_total(
            ray.data.from_pandas(df).repartition(3),
            "oid",
            "v",
            boundaries=np.array([1000.0, 2000.0]),
        )
        .to_pandas()
        .sort_values("oid")
    )
    assert out["cum"].tolist() == list(range(1, 11))


def test_grouped_centroid_sums_matches_numpy():
    from scylla_cdc_source_connector_ray.functions.similarity import (
        IVFIndex,
        _normalize,
        grouped_centroid_sums,
    )

    rng = np.random.default_rng(21)
    X = rng.normal(size=(200, 8)).astype(np.float32)
    C = _normalize(rng.normal(size=(4, 8)))
    df = pd.DataFrame({"vec_id": np.arange(200, dtype=np.int64), "embedding": list(X)})
    index = IVFIndex(n_centroids=4)
    index.centroids = C
    out = (
        grouped_centroid_sums(ray.data.from_pandas(df).repartition(5), index)
        .to_pandas()
        .sort_values(["bucket", "dim"])
        .reset_index(drop=True)
    )
    Xd = X.astype(np.float64)
    assign = np.argmax(_normalize(Xd) @ C.T, axis=1)
    Q = np.floor(Xd * 1e6).astype(np.int64)
    for b in np.unique(assign):
        rows = out[out["bucket"] == b]
        np.testing.assert_array_equal(rows["sum_q"].to_numpy(), Q[assign == b].sum(axis=0))
        assert (rows["n"] == int((assign == b).sum())).all()
    assert len(out) == len(np.unique(assign)) * 8


def test_grouped_quantiles_matches_numpy():
    from scylla_cdc_source_connector_ray.stages.topk import grouped_quantiles

    rng = np.random.default_rng(9)
    df = pd.DataFrame(
        {
            "g": rng.integers(0, 5, 400).astype(np.int64),
            "v": rng.integers(-100, 100, 400).astype(np.int64),
        }
    )
    df.loc[df.index % 17 == 0, "v"] = None  # nulls dropped
    out = (
        grouped_quantiles(ray.data.from_pandas(df).repartition(5), ["g"], "v")
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    for _, row in out.iterrows():
        vals = np.sort(df[(df["g"] == row["g"]) & df["v"].notna()]["v"].to_numpy(dtype=np.int64))
        n = len(vals)
        assert row["n"] == n
        for q in (25, 50, 95):
            assert row[f"p{q}"] == vals[(n - 1) * q // 100]


# --- token frequency ---------------------------------------------------------


def test_token_topk_matches_duckdb():
    import duckdb

    from scylla_cdc_source_connector_ray.functions.textops import token_topk
    from scylla_cdc_source_connector_ray.oracles import _token_topk_sql

    texts = [
        "the cat sat on the mat",
        "the dog's dinner, the dog's day",
        None,
        "cats don't sit; dogs do sit 42 times",
        "the the the",
    ]
    tbl = pa.table({"doc_id": pa.array(range(5), pa.int64()), "text": pa.array(texts)})
    got = (
        token_topk(ray.data.from_arrow(tbl).repartition(3), k=10)
        .to_pandas()
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    want = con.sql(_token_topk_sql(10)).df()
    assert got["token"].tolist() == want["token"].tolist()
    assert got["n"].tolist() == want["n"].astype("int64").tolist()


def test_spacesaving_bounds_and_merge():
    from collections import Counter

    from scylla_cdc_source_connector_ray.functions.textops import SpaceSaving

    rng = np.random.default_rng(3)
    toks = [f"t{int(x)}" for x in rng.zipf(1.3, 50_000) % 1500]
    blocks = np.array_split(np.array(toks, dtype=object), 7)
    m = 64
    merged = SpaceSaving(m)
    for b in blocks:
        vals, cnts = np.unique(b, return_counts=True)
        merged.merge(SpaceSaving.from_counts(m, vals.tolist(), cnts.tolist()))
    true = Counter(toks)
    n = len(toks)
    assert merged.n == n
    for t, c in true.items():  # guarantee: freq > n/m is tracked
        if c > n / m:
            assert t in merged.counts
    for t, cu, err in merged.topk(20):  # bounds bracket truth
        assert cu - err <= true[t] <= cu


def test_token_topk_spacesaving_recovers_heavy_hitters():
    from scylla_cdc_source_connector_ray.functions.textops import (
        token_topk,
        token_topk_spacesaving,
    )

    rng = np.random.default_rng(9)
    words = [f"w{int(x)}" for x in rng.zipf(1.5, 40_000) % 800]
    docs = [" ".join(words[i : i + 40]) for i in range(0, len(words), 40)]
    tbl = pa.table(
        {"doc_id": pa.array(range(len(docs)), pa.int64()), "text": pa.array(docs)}
    )
    ds = ray.data.from_arrow(tbl).repartition(5)
    exact = token_topk(ds, k=10).to_pandas()
    approx = token_topk_spacesaving(ds, k=10, m=512)
    # the sketch's top-10 contains the exact top-10 (zipf head is heavy)
    assert set(exact["token"]) <= set(approx["token"])
    ref = dict(zip(exact["token"], exact["n"]))
    for _, r in approx.iterrows():
        if r["token"] in ref:
            assert r["cnt_lower"] <= ref[r["token"]] <= r["cnt_upper"]


def test_repetition_stats_matches_brute_force():
    batch = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4, 5],
            "text": [
                "a a a a",  # 3 windows, 1 distinct -> dup 2/3
                "w x y z",  # 3 windows, all distinct -> dup 0
                "solo",  # short doc: 1 single-fold window
                "",  # no windows: excluded
                "p q p q p q",  # 5 windows, 2 distinct
            ],
        }
    )
    out = T.repetition_stats(batch).set_index("doc_id")
    assert list(out.index) == [1, 2, 3, 5]
    assert out.loc[1, "total_ngrams"] == 3 and out.loc[1, "uniq_ngrams"] == 1
    assert out.loc[1, "dup_micro"] == 2_000_000 // 3
    assert out.loc[2, "dup_micro"] == 0
    assert out.loc[3, "total_ngrams"] == 1 and out.loc[3, "uniq_ngrams"] == 1
    assert out.loc[5, "total_ngrams"] == 5 and out.loc[5, "uniq_ngrams"] == 2
    assert out.loc[5, "dup_micro"] == 3_000_000 // 5


def test_contamination_flagger_planted():
    flag = T.ContaminationFlagger()
    batch = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "prefix words then " + T.BENCHMARK_TEXTS[0] + " and a suffix",
                "completely unrelated words qq ww ee rr tt yy",
                "",  # empty doc still emitted, zero hits
            ],
        }
    )
    out = flag(batch).set_index("doc_id")
    assert list(out.index) == [1, 2, 3]
    assert out.loc[1, "contaminated"] == 1 and out.loc[1, "n_hits"] >= 4
    assert out.loc[2, "contaminated"] == 0 and out.loc[2, "n_hits"] == 0
    assert out.loc[3, "contaminated"] == 0 and out.loc[3, "n_hits"] == 0


def test_curation_chain_custom_column_names():
    """id_col/text_col/source_col plumb through every stage (the repetition
    and decontamination kernels take the names; nothing hardcodes doc_id)."""
    from scylla_cdc_source_connector_ray.functions.corpus import curation_chain

    docs = (
        _docs()
        .to_pandas()[["doc_id", "text", "source"]]
        .head(60)
        .rename(columns={"doc_id": "item_id", "text": "body", "source": "site"})
    )
    got = (
        curation_chain(
            ray.data.from_pandas(docs),
            cap_per_source=2,
            id_col="item_id",
            text_col="body",
            source_col="site",
        )
        .to_pandas()
        .sort_values("item_id")
        .reset_index(drop=True)
    )
    # equivalence with the default-named run on the same data
    want = (
        curation_chain(
            ray.data.from_pandas(
                docs.rename(columns={"item_id": "doc_id", "body": "text", "site": "source"})
            ),
            cap_per_source=2,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["item_id"].tolist() == want["doc_id"].tolist()
    assert got["site"].tolist() == want["source"].tolist()
    assert got["rank"].tolist() == want["rank"].tolist()


def test_spill_fork_dedups_handle_empty_corpus():
    """write_parquet of an EMPTY dataset writes no files at all — both
    spill-fork operators must short-circuit to a typed empty pair table
    instead of crashing in the branches' read_parquet."""
    empty = ray.data.from_pandas(
        pd.DataFrame(
            {"doc_id": pd.Series(dtype="int64"), "text": pd.Series(dtype="object")}
        )
    )
    for fn in (D.ngram_jaccard_dedup, D.minhash_lsh_dedup):
        out = fn(empty, threshold=0.7)
        # assert on .schema(): Ray's to_pandas() drops columns on ANY
        # empty dataset regardless of the dataset's own (correct) schema
        assert out.schema().names == ["a", "b", "jaccard_micro"]
        assert out.count() == 0


def test_ngram_jaccard_join_path_equals_broadcast():
    """The distributed frequency path (vocab_mode='join' — no driver vocab,
    df from run lengths in a gram-keyed exchange) and the auto-flip path
    produce byte-identical output to the broadcast path."""
    ds_pd = _docs().to_pandas()[["doc_id", "text"]].head(150)
    ref = (
        D.ngram_jaccard_dedup(ray.data.from_pandas(ds_pd), threshold=0.5)
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    for kw in ({"vocab_mode": "join"}, {"broadcast_vocab_limit": 10}):
        got = (
            D.ngram_jaccard_dedup(ray.data.from_pandas(ds_pd), threshold=0.5, **kw)
            .to_pandas()
            .sort_values(["a", "b"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, ref)
    assert len(ref) > 0  # the corpus must actually exercise the pair path


def test_prefix_bucket_rows_partial_vocab_fails_loudly():
    # a vocab missing batch grams must raise, not read a neighbor's df
    import numpy as np
    import pandas as pd
    import pytest

    grams = np.array([10, 20, 30], dtype=np.uint64)
    batch = pd.DataFrame(
        {
            "doc_id": [1],
            "n": [3],
            "grams": [grams.tobytes()],
        }
    )
    full = (grams.copy(), np.array([1, 2, 3], dtype=np.int64))
    out = D.prefix_bucket_rows(batch, thr_micro=700_000, vocab=full)
    assert len(out) > 0
    partial = (np.array([10, 20], dtype=np.uint64), np.array([1, 2], dtype=np.int64))
    with pytest.raises(ValueError, match="vocab is missing"):
        D.prefix_bucket_rows(batch, thr_micro=700_000, vocab=partial)
    # missing gram that searchsorts INSIDE the array (neighbor-read case)
    inner = (np.array([10, 31], dtype=np.uint64), np.array([1, 2], dtype=np.int64))
    with pytest.raises(ValueError, match="vocab is missing"):
        D.prefix_bucket_rows(batch, thr_micro=700_000, vocab=inner)


def test_running_total_cache_is_narrow_by_construction():
    from scylla_cdc_source_connector_ray.stages.scan import running_total

    df = pd.DataFrame(
        {
            "oid": np.arange(20, dtype=np.int64),
            "v": np.ones(20, np.int64),
            "wide": ["x" * 100] * 20,  # must NOT enter the materialized cache
            "tag": [f"t{i % 3}" for i in range(20)],
        }
    )
    out = running_total(ray.data.from_pandas(df).repartition(3), "oid", "v")
    assert sorted(out.schema().names) == ["cum", "oid", "v"]
    # passthroughs are opt-in by name
    out2 = running_total(
        ray.data.from_pandas(df).repartition(3), "oid", "v", keep_cols=("tag",)
    )
    assert sorted(out2.schema().names) == ["cum", "oid", "tag", "v"]
    got = out2.to_pandas().sort_values("oid")
    assert got["cum"].tolist() == list(range(1, 21))
    assert got["tag"].tolist() == df["tag"].tolist()


def test_multimodal_integer_rescale_by_observed_max():
    """12-bit content in a uint16 TIFF must keep its dynamic range (not
    collapse to near-zero via a dtype-full-range divide), and 0-255 content
    stored wide must come through verbatim."""
    n = MM._normalize_to_uint8_rgb
    # 12-bit content (max 4095) in uint16: top value maps to 255
    img12 = np.array([[0, 1024, 4095]], dtype=np.uint16)
    out = n(img12).astype(np.uint8)  # the consumer casts to uint8
    assert out.shape == (1, 3, 3)
    assert out[0, 2, 0] == 255 and out[0, 1, 0] == 63  # trunc(1024*255/4095)
    # uint8-range content stored in int32 passes through unchanged
    img8 = np.array([[0, 128, 255]], dtype=np.int32)
    assert n(img8)[0, :, 0].tolist() == [0, 128, 255]
    # float in [0,1] scales; float already in [0,255] clips only
    assert n(np.array([[0.0, 0.5, 1.0]]))[0, :, 0].astype(int).tolist() == [0, 127, 255]
    # RGBA drops alpha; grayscale replicates
    rgba = np.zeros((2, 2, 4), dtype=np.uint8)
    assert n(rgba).shape == (2, 2, 3)
    assert n(np.zeros((2, 2), dtype=np.uint8)).shape == (2, 2, 3)
    # empty-size guard
    assert n(np.zeros((0, 0), dtype=np.uint16)).shape == (0, 0, 3)


def test_scratch_spill_dir_ramdisk_heuristic(monkeypatch):
    import shutil

    # small estimate within budget → /dev/shm; huge estimate → /tmp
    monkeypatch.setenv(D._SHM_SPILL_BUDGET_ENV, str(1 << 30))
    d_small = D._scratch_spill_dir("spilltest_", est_bytes=1 << 20)
    assert d_small.startswith("/dev/shm/"), d_small
    d_big = D._scratch_spill_dir("spilltest_", est_bytes=1 << 62)
    assert d_big.startswith("/tmp/"), d_big
    # no estimate → the safe /tmp default
    d_none = D._scratch_spill_dir("spilltest_")
    assert d_none.startswith("/tmp/")
    for d in (d_small, d_big, d_none):
        shutil.rmtree(d, ignore_errors=True)


def test_prefix_bucket_rows_empty_vocab_gramless_batch():
    # every doc shorter than n words -> zero grams anywhere: an empty vocab
    # is then legitimate (nothing to look up), not "missing" — must return
    # an empty frame, not raise
    import numpy as np
    import pandas as pd
    import pytest

    batch = pd.DataFrame({"doc_id": [1, 2], "n": [0, 0], "grams": [b"", b""]})
    empty = (np.array([], dtype=np.uint64), np.array([], dtype=np.int64))
    out = D.prefix_bucket_rows(batch, thr_micro=700_000, vocab=empty)
    assert len(out) == 0
    # but a batch WITH grams against an empty vocab still fails loudly
    grams = np.array([10], dtype=np.uint64)
    batch2 = pd.DataFrame({"doc_id": [1], "n": [1], "grams": [grams.tobytes()]})
    with pytest.raises(ValueError, match="vocab is missing"):
        D.prefix_bucket_rows(batch2, thr_micro=700_000, vocab=empty)


# ---------------------------------------------------------------------------
# segment-level (sub-document) exact dedup
# ---------------------------------------------------------------------------
def _brute_segment_dedup(df: pd.DataFrame, S: int) -> pd.DataFrame:
    """O(corpus) reference: global first-occurrence over fixed word spans in
    (doc_id, seg_idx) order."""
    seen, rows = set(), []
    for _, r in df.sort_values("doc_id").iterrows():
        ws = D._ws_split(r["text"] or "")
        if not ws:
            continue
        segs = [" ".join(ws[j * S : (j + 1) * S]) for j in range((len(ws) + S - 1) // S)]
        kept = []
        for s in segs:
            if s not in seen:
                seen.add(s)
                kept.append(s)
        rows.append(
            {
                "doc_id": r["doc_id"],
                "text_dedup": " ".join(kept) if kept else None,
                "n_segs_kept": len(kept),
                "n_segs_total": len(segs),
            }
        )
    return pd.DataFrame(rows)


def test_segment_dedup_matches_bruteforce():
    rng = np.random.default_rng(11)
    vocab = [f"t{i}" for i in range(25)]
    docs = [" ".join(rng.choice(vocab, rng.integers(1, 60))) for _ in range(50)]
    texts = (
        docs
        + [d + " zz" + str(i) for i, d in enumerate(docs)]  # partial dups
        + docs[:10]  # exact dups -> full drop, NULL text_dedup
        + ["", "   ", "only one segment"]
    )
    df = pd.DataFrame({"doc_id": list(range(len(texts))), "text": texts})
    want = _brute_segment_dedup(df, S=5).sort_values("doc_id").reset_index(drop=True)
    got = (
        D.segment_dedup(ray.data.from_pandas(df), seg_words=5)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert (got["n_segs_kept"] == 0).any(), "full-drop path unexercised"
    # full-drop docs emit NULL text, zero kept
    nulls = got[got["n_segs_kept"] == 0]
    assert nulls["text_dedup"].isna().all()


def test_segment_dedup_within_doc_dup_and_id_guard():
    # identical spans WITHIN one doc: only the first survives (SQL
    # row_number over (doc_id, seg_idx) keeps seg 0)
    df = pd.DataFrame({"doc_id": [7], "text": ["a b a b a b"]})
    got = D.segment_dedup(ray.data.from_pandas(df), seg_words=2).to_pandas()
    assert got.iloc[0]["text_dedup"] == "a b" and got.iloc[0]["n_segs_total"] == 3
    # packed-key guard: ids must fit 43 bits
    bad = pd.DataFrame({"doc_id": [1 << 50], "text": ["x y"]})
    with pytest.raises(Exception, match="2\\^43|packed"):
        D.segment_dedup(ray.data.from_pandas(bad), seg_words=2).to_pandas()


def test_md5_2x64_scalar_matches_duckdb_vectorized():
    # the scalar hashlib path and the DuckDB md5_number_upper/lower path
    # must agree byte-for-byte (engine-internal replay identity)
    words = [f"w{i} yy" for i in range(D._VEC_HASH_MIN + 10)]
    h1v, h2v = D._md5_2x64_vec(words)          # vectorized (over the gate)
    h1s, h2s = D._md5_2x64_vec(words[:50])     # scalar (under the gate)
    assert (h1v[:50] == h1s).all() and (h2v[:50] == h2s).all()


def test_inverted_index_matches_bruteforce():
    from scylla_cdc_source_connector_ray.functions.textops import (
        BPE_TOKEN_RE,
        inverted_index,
    )
    import re

    rng = np.random.default_rng(3)
    vocab = ["alpha", "beta", "g4mm4", "it's", "x!"]
    texts = [
        " ".join(rng.choice(vocab, rng.integers(0, 12))) or None for _ in range(80)
    ] + ["", None]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts})
    got = (
        inverted_index(ray.data.from_pandas(df), num_partitions=7)
        .to_pandas()
        .sort_values("token")
        .reset_index(drop=True)
    )
    # brute force: Python re over the same pattern
    post = {}
    for _, r in df.iterrows():
        for tok in set(re.findall(BPE_TOKEN_RE, r["text"] or "")):
            post.setdefault(tok, []).append(int(r["doc_id"]))
    want = (
        pd.DataFrame(
            {
                "token": list(post),
                "df": [len(v) for v in post.values()],
                "doc_ids": [",".join(map(str, sorted(v))) for v in post.values()],
            }
        )
        .sort_values("token")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert (got["df"] > 1).any(), "multi-doc posting unexercised"


def test_ws_split_matches_re2_whitespace_class():
    # RE2's \s is exactly [\t\n\f\r ] — \v (0x0b) and unicode spaces are
    # NOT whitespace there; the engine splitter must agree with the DuckDB
    # twin character-for-character (\v once diverged silently)
    import duckdb

    probes = ["a\x0bb c", "x y", "p\tq\nr\fs\rt u", " lead trail ", "\x0b", ""]
    for t in probes:
        want = duckdb.sql(
            "SELECT CASE WHEN t2 = '' THEN [] ELSE regexp_split_to_array(t2, '\\s+') END "
            "FROM (SELECT regexp_replace(?, '^\\s+|\\s+$', '', 'g') AS t2)",
            params=[t],
        ).fetchone()[0]
        assert D._ws_split(t) == want, (t, D._ws_split(t), want)


def test_segment_dedup_vertical_tab_matches_oracle_convention():
    # \x0b is NOT a word boundary on either side
    df = pd.DataFrame({"doc_id": [0, 1], "text": ["a\x0bb c", "a\x0bb c"]})
    got = (
        D.segment_dedup(ray.data.from_pandas(df), seg_words=1)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got.iloc[0]["text_dedup"] == "a\x0bb c"
    assert pd.isna(got.iloc[1]["text_dedup"]) and got.iloc[1]["n_segs_total"] == 2


def test_segment_dedup_rejects_duplicate_doc_ids_and_seg_overflow():
    dup = pd.DataFrame({"doc_id": [3, 3], "text": ["a b", "c d"]})
    with pytest.raises(Exception, match="unique|duplicate"):
        D.segment_dedup(ray.data.from_pandas(dup), seg_words=2).to_pandas()
    big = pd.DataFrame({"doc_id": [0], "text": [" ".join(["w"] * ((1 << 20) + 2))]})
    with pytest.raises(Exception, match="segments|seg_words"):
        D.segment_dedup(ray.data.from_pandas(big), seg_words=1).to_pandas()


def test_quality_floor_by_source_null_sources_and_ties(tmp_path):
    import os
    import duckdb
    import pyarrow.parquet as pq
    from scylla_cdc_source_connector_ray.functions.corpus import quality_floor_by_source
    from scylla_cdc_source_connector_ray.oracles import QUALITY_FLOOR_BY_SOURCE

    rng = np.random.default_rng(9)
    n = 300
    words = [" ".join(rng.choice(["the", "cat", "sat", "on!", "a"], rng.integers(0, 40))) for _ in range(n)]
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "text": [None if i % 29 == 0 else words[i] for i in range(n)],
            "lang": ["en"] * n,
            "source": [None if i % 13 == 0 else f"s{i % 3}" for i in range(n)],
            "n_chars": np.ones(n, np.int64),
        }
    )
    d = str(tmp_path)
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False), os.path.join(d, "documents.parquet"))
    got = (
        quality_floor_by_source(ray.data.read_parquet(os.path.join(d, "documents.parquet")))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{os.path.join(d, 'documents.parquet')}'")
    want = con.sql(QUALITY_FLOOR_BY_SOURCE).df().sort_values("doc_id").reset_index(drop=True)
    got["quality_micro"] = got["quality_micro"].astype("int64")
    want["quality_micro"] = want["quality_micro"].astype("int64")
    pd.testing.assert_frame_equal(got[["doc_id", "source", "quality_micro"]], want[["doc_id", "source", "quality_micro"]], check_dtype=False)
    assert got["source"].notna().all()
    # per-source floors differ from a global floor on this fixture
    assert got.groupby("source")["quality_micro"].min().nunique() > 1


def test_winnow_fingerprints_brute_force():
    # vectorized winnowing (sliding window-min over positional grams) vs an
    # O(n*w) scalar reference, incl. short docs (< n words -> no grams;
    # < n+w-1 words -> grams but no complete window), empties, NULLs, and
    # heavy word repetition (duplicate fingerprints must collapse per doc)
    from scylla_cdc_source_connector_ray.functions.textops import winnow_fingerprints

    N, W = 3, 4
    rng = np.random.default_rng(11)
    vocab = ["aa", "bb", "cc", "dd", "ee"]
    texts = [
        " ".join(rng.choice(vocab, rng.integers(0, 14))) for _ in range(120)
    ] + ["", None, "aa aa aa aa aa aa aa aa aa aa", "aa bb", "aa bb cc"]
    ids = list(range(len(texts)))

    want = set()
    for i, t in zip(ids, texts):
        words = D._ws_split((t or "").lower())
        if len(words) < N:
            continue
        grams = []
        for s in range(len(words) - N + 1):
            h = 0
            for w_ in words[s : s + N]:
                h = (h * int(D._GRAM_B) + D._word_hash(w_)) % D._MERSENNE
            grams.append(h)
        for e in range(W - 1, len(grams)):
            want.add((i, min(grams[e - W + 1 : e + 1])))

    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": pd.Series(ids, dtype="int64"), "text": texts})
    ).repartition(5)
    got = winnow_fingerprints(ds, ngram=N, window=W).to_pandas()
    assert set(zip(got["doc_id"], got["fp"])) == want
    # distinct per doc: no duplicate (doc, fp) rows
    assert not got.duplicated().any()


def test_segment_strings_vec_matches_scalar_reference():
    # the vectorized segmenter (polars extract_all + arrow binary_join) must
    # cut byte-identical spans to the scalar _segment_texts, including on
    # \v (NOT whitespace here), unicode spaces (NBSP stays inside words),
    # and empty/whitespace-only docs
    rng = np.random.default_rng(7)
    pieces = ["ab", "c\x0bd", "e f", "g!", "", "  ", "\t", "h\nj", "k"]
    texts = [
        "".join(rng.choice(pieces, rng.integers(0, 25))) for _ in range(200)
    ] + ["", "   ", None, "one two three four five six"]
    for S in (1, 3, 7):
        want_segs, want_counts = D._segment_texts([t or "" for t in texts], S)
        got_segs, got_counts = D._segment_strings_vec(pd.Series(texts, dtype=object), S)
        assert got_segs.to_pylist() == want_segs, S
        assert (got_counts == want_counts).all(), S


def test_batch_word_hashes_vec_matches_scalar_reference():
    # the vectorized tokenizer (polars to_lowercase+extract_all + arrow
    # dictionary_encode) must produce the identical (hash stream, lens,
    # offsets) as the per-doc Python reference — incl. Unicode full case
    # mapping (İ → i+combining dot, ẞ → ß, final sigma), \v and NBSP
    # staying INSIDE words, and empty/whitespace-only docs
    rng = np.random.default_rng(11)
    vocab = np.array(
        ["ab", "c\x0bd", "e f", "İstanbul", "STRASSE", "ẞ", "ΣΟΦΟΣ",
         "MiXeD", "ÇĞÜ", "ﬁlm", "x!", "42", "word"],
        dtype=object,
    )
    texts = [
        " ".join(rng.choice(vocab, rng.integers(0, 12))) for _ in range(300)
    ] + ["", "   ", "\t\n", "one two three"]
    want = D._batch_word_hashes_ref(texts)
    got = D._batch_word_hashes(texts)
    for w, g in zip(want, got):
        assert np.array_equal(w, g)
    # positional grams route through the same tokenizer
    for n in (1, 2, 3):
        wg, wc = D._batch_gram_positional(texts, n)
        assert len(wg) == int(np.maximum(want[1] - n + 1, 0).sum())
        assert np.array_equal(wc, np.maximum(want[1] - n + 1, 0))


def test_weighted_sample_matches_nibble_rule_and_drops_null_weights():
    df = pd.DataFrame(
        {
            "doc_id": np.arange(200, dtype=np.int64),
            "source": ["s"] * 200,
            "n_chars": np.r_[
                np.repeat([50, 150, 450, 2000], 49), [0, 99, 800], [-5]
            ].astype("float64"),
        }
    )
    df.loc[7, "n_chars"] = None  # NULL weight row must drop (SQL semantics)
    got = (
        D.weighted_sample(
            ray.data.from_pandas(df), id_col="doc_id", weight_col="n_chars"
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    ok = df[df["n_chars"].notna()].copy()
    rate = np.clip(ok["n_chars"].to_numpy(np.int64) // 100, 1, 8)
    want = ok[D._nibble_of(ok["doc_id"]) < rate].reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    assert 7 not in set(got["doc_id"])
    # higher weight => keep rate must not decrease (within this fixture)
    kept = got.merge(df, on="doc_id")
    r_low = (kept["n_chars_x"] == 50).sum() / 49
    r_high = (kept["n_chars_x"] == 2000).sum() / 49
    assert r_high > r_low


def test_embedding_quantize_matches_duckdb_twin(tmp_path):
    import os

    from scylla_cdc_source_connector_ray.oracles import EMBEDDING_QUANTIZE

    rng = np.random.default_rng(11)
    vecs = [rng.standard_normal(8).astype(np.float32) for _ in range(60)]
    vecs[3] = np.zeros(4, dtype=np.float32)  # all-zero vector -> all-zero codes
    vecs[4] = np.array([], dtype=np.float32)  # empty vector
    vecs[5] = np.array([-1.0, 1.0, 0.5], dtype=np.float32)  # exact +/-127 ends
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(60, dtype=np.int64)),
            "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
            "label": pa.array(np.zeros(60, dtype=np.int32)),
        }
    )
    path = str(tmp_path / "embeddings.parquet")
    pq.write_table(t, path)
    got = (
        S.embedding_quantize(ray.data.read_parquet(path))
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM '{path}'")
    want = con.sql(EMBEDDING_QUANTIZE).df().sort_values("vec_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=True)
    z = got.set_index("vec_id")
    assert z.loc[3, ["q_sum", "q_norm"]].tolist() == [0, 0]
    assert z.loc[4, "n_dims"] == 0 and z.loc[4, "maxabs"] == 0.0
    assert z.loc[5, "q_norm"] == 127 * 127 * 2 + 64 * 64  # -127, 127, 64


def test_unigram_scorer_document_sum_past_uint64_matches_exact_twin():
    """A document's sum of per-token inverse probabilities can pass 2^64
    while every token stays under the (N+V)*1e6 < 2^63 guard; the HUGEINT
    SQL twin sums exactly, so the scorer must too (not wrap in uint64)."""
    from scylla_cdc_source_connector_ray.functions.textops import UnigramScorer

    n_total, v_size = 9_200_000_000_000, 1  # (N+V)*1e6 just under 2^63
    scale = (n_total + v_size) * 1_000_000
    assert scale < 1 << 63
    model = (
        np.array([D._word_hash("known")], np.uint64),
        np.array([n_total], np.uint64),
        n_total,
        v_size,
    )
    scorer = UnigramScorer(ray.put(model), text_col="text", id_col="doc_id")
    texts = ["alpha bravo charlie", "known known", "known alpha bravo", "", "alpha"]
    got = scorer(pa.table({"doc_id": list(range(len(texts))), "text": texts}))
    counts = {"known": n_total}
    want = []
    for t in texts:
        ips = [scale // (counts.get(w, 0) + 1) for w in D._ws_split(t)]
        want.append(sum(ips) // len(ips) if ips else 0)
    assert 3 * scale >= 1 << 64  # the first document's sum wraps in uint64
    assert got["surprise_micro"].to_pylist() == want
    assert got["n_words"].to_pylist() == [3, 2, 3, 0, 1]


def test_unigram_surprise_matches_twin_with_edge_whitespace():
    """Leading/trailing tabs and newlines are not words on either side."""
    from scylla_cdc_source_connector_ray import oracles
    from scylla_cdc_source_connector_ray.functions.textops import unigram_surprise

    df = pd.DataFrame(
        {
            "doc_id": np.arange(6, dtype=np.int64),
            "text": pd.Series(
                ["\talpha beta", "beta alpha\n", "alpha", "\n\t", None, " gamma\r\n"],
                dtype=object,
            ),
        }
    )
    got = (
        unigram_surprise(ray.data.from_pandas(df))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", df)
    want = con.sql(oracles.UNIGRAM_SURPRISE).df().sort_values("doc_id").reset_index(drop=True)
    assert got["n_words"].tolist() == [2, 2, 1, 0, 0, 1]
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_unigram_surprise_brute_force_and_max_vocab():
    from scylla_cdc_source_connector_ray.functions.textops import unigram_surprise

    texts = [
        "the cat sat on the mat",
        "the the the",
        "rare unique tokens here",
        "",
        "   ",
        None,
        "the cat",
    ]
    ids = list(range(len(texts)))
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": ids, "text": pd.Series(texts, dtype=object)})
    ).repartition(3)
    got = (
        unigram_surprise(ds)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    # brute-force reference: add-one inverse probability in micro units
    from collections import Counter

    tok = [D._ws_split((t or "").lower()) for t in texts]
    cnt = Counter(w for ws in tok for w in ws)
    N, V = sum(cnt.values()), len(cnt)
    for i, ws in enumerate(tok):
        row = got.loc[i]
        assert row["n_words"] == len(ws)
        if not ws:
            assert row["surprise_micro"] == 0
        else:
            want = sum((N + V) * 1_000_000 // (cnt[w] + 1) for w in ws) // len(ws)
            assert row["surprise_micro"] == want, texts[i]
    # repeated common words are less surprising than rare ones
    assert got.loc[1, "surprise_micro"] < got.loc[2, "surprise_micro"]

    # max_vocab: only the top-2 words keep counts; everything else is OOV
    # (count 0 -> the add-one prior alone, the maximal per-token surprise)
    got2 = (
        unigram_surprise(ds, max_vocab=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    top2 = dict(sorted(cnt.items(), key=lambda kv: (-kv[1], D._word_hash(kv[0])))[:2])
    for i, ws in enumerate(tok):
        if not ws:
            continue
        want = sum(
            (N + V) * 1_000_000 // (top2.get(w, 0) + 1) for w in ws
        ) // len(ws)
        assert got2.loc[i, "surprise_micro"] == want, texts[i]


def test_substring_dedup_brute_force():
    from scylla_cdc_source_connector_ray.functions.dedup import substring_dedup

    texts = [
        "a b c d e f g h i j",
        "x y a b c d e f g h i j z",  # re-occurrence of doc 0's grams
        "unique words only here now",
        "a b c a b c a b c",  # within-doc repeats (block-local cut path)
        "",
        "   ",
        "short",
        "A B C d e",  # case-folded gram matches doc 0; original case kept
    ]
    ids = list(range(len(texts)))
    K = 3
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": ids, "text": pd.Series(texts, dtype=object)})
    ).repartition(3)
    got = (
        substring_dedup(ds, k=K)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    # brute force: first occurrence (doc, pos) of each k-gram survives;
    # every later occurrence covers [pos, pos+K)
    tok = [D._ws_split((t or "").lower()) for t in texts]

    def gram(ws, i):
        h = 0
        for w in ws[i : i + K]:
            h = (h * int(D._GRAM_B) + D._word_hash(w)) % D._MERSENNE
        return h

    occ = {}
    for d, ws in enumerate(tok):
        for p in range(len(ws) - K + 1):
            occ.setdefault(gram(ws, p), []).append((d, p))
    cuts = {}
    for lst in occ.values():
        for d, p in sorted(lst)[1:]:
            cuts.setdefault(d, []).append(p)
    out_ids = set(got["doc_id"])
    for d, t in enumerate(texts):
        ws0 = D._ws_split(t or "")
        if not ws0:
            assert d not in out_ids  # empty docs are absent on both sides
            continue
        covered = np.zeros(len(ws0), bool)
        for p in cuts.get(d, []):
            covered[p : p + K] = True
        keptw = [w for w, c in zip(ws0, covered) if not c]
        row = got[got["doc_id"] == d].iloc[0]
        assert row["n_words_total"] == len(ws0)
        assert row["n_words_kept"] == len(keptw)
        want = " ".join(keptw) if keptw else None
        assert (row["text_dedup"] if pd.notna(row["text_dedup"]) else None) == want


def test_decontaminate_against_dataset():
    from scylla_cdc_source_connector_ray.functions.textops import (
        decontaminate_against,
    )

    docs = ray.data.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [0, 1, 2, 3],
                "text": pd.Series(
                    [
                        "alpha beta gamma delta",
                        "no shared phrases at all",
                        "xx alpha beta gamma yy",  # shares the bench 3-gram
                        "",
                    ],
                    dtype=object,
                ),
            }
        )
    )
    bench = ray.data.from_pandas(
        pd.DataFrame(
            {"bid": [0], "text": pd.Series(["alpha beta gamma"], dtype=object)}
        )
    )
    got = (
        decontaminate_against(docs, bench)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(got["contaminated"]) == [1, 0, 1, 0]
    assert got.loc[0, "n_hits"] == 1 and got.loc[2, "n_hits"] == 1

    # budget guard fails loudly
    import pytest as _pytest

    with _pytest.raises(ValueError, match="budget"):
        decontaminate_against(docs, bench, max_bench_grams=0)


def test_decontaminate_against_budget_checked_before_collect(monkeypatch):
    """An over-budget benchmark raises before its grams reach the driver."""
    from scylla_cdc_source_connector_ray.functions.textops import (
        decontaminate_against,
    )

    docs = ray.data.from_pandas(pd.DataFrame({"doc_id": [0], "text": ["a b c d"]}))
    bench = ray.data.from_pandas(
        pd.DataFrame({"text": ["alpha beta gamma delta"]})  # 2 distinct grams
    )

    def no_collect(self, *a, **kw):
        raise AssertionError("benchmark grams collected before the budget check")

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", no_collect)
    with pytest.raises(ValueError, match="2 distinct grams > budget 1"):
        decontaminate_against(docs, bench, max_bench_grams=1)


def test_decontaminate_against_shared_grams_within_budget():
    """Blocks that share grams pass at a budget equal to the distinct count,
    though their per-block partials exceed it."""
    from scylla_cdc_source_connector_ray.functions.textops import (
        decontaminate_against,
    )

    block = pd.DataFrame({"text": ["alpha beta gamma"] * 1500})
    bench = ray.data.from_pandas([block, block.copy(), block.copy()])
    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [0, 1], "text": ["x alpha beta gamma", "alpha beta"]})
    )
    got = (
        decontaminate_against(docs, bench, max_bench_grams=1)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(got["contaminated"]) == [1, 0]


def test_kmeans_fit_converges_and_is_split_invariant():
    from scylla_cdc_source_connector_ray.functions.similarity import (
        IVFIndex,
        kmeans_fit,
    )

    # three well-separated directional blobs
    rng = np.random.default_rng(3)
    centers = np.eye(3)
    vecs, labels = [], []
    for c in range(3):
        for _ in range(40):
            v = centers[c] + rng.normal(0, 0.05, 3)
            vecs.append(v)
            labels.append(c)
    # ensure the first 3 rows (the deterministic init) span the 3 blobs
    order = np.r_[0, 40, 80, np.delete(np.arange(120), [0, 40, 80])]
    df = pd.DataFrame(
        {
            "vec_id": np.arange(120, dtype=np.int64),
            "embedding": pd.Series([vecs[i] for i in order], dtype=object),
        }
    )
    truth = np.array([labels[i] for i in order])
    ds = ray.data.from_pandas(df).repartition(4)
    idx = kmeans_fit(ds, k=3, iters=4)

    # each centroid should align with exactly one blob center
    sims = idx.centroids @ centers.T
    assert (sims.max(axis=1) > 0.99).all()
    assert sorted(sims.argmax(axis=1)) == [0, 1, 2]
    # and the distributed assignment recovers the blobs
    got = idx.assign_batches(ds).to_pandas().sort_values("vec_id")
    pred = got["bucket"].to_numpy()
    mapping = {b: np.bincount(truth[pred == b]).argmax() for b in range(3)}
    assert (np.array([mapping[b] for b in pred]) == truth).mean() == 1.0

    # split invariance: a different partitioning gives BIT-identical
    # centroids (integer-grid partial sums are order-free)
    idx2 = kmeans_fit(ray.data.from_pandas(df).repartition(11), k=3, iters=4)
    assert np.array_equal(idx.centroids, idx2.centroids)

    # too-few vectors fails loudly
    import pytest as _pytest

    with _pytest.raises(ValueError, match="k=5"):
        kmeans_fit(ray.data.from_pandas(df.head(3)), k=5)


def test_search_bm25_brute_force():
    from scylla_cdc_source_connector_ray.functions.textops import search_bm25

    texts = [
        "table scan fast table",
        "window sort merge",
        "no match here",
        "table table table table",
        "",
        "scan window table",
    ]
    df = pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype=np.int64),
         "text": pd.Series(texts, dtype=object)}
    )
    terms = ("table", "scan", "window")
    got = (
        search_bm25(ray.data.from_pandas(df).repartition(3), terms)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # brute force
    import math

    tok = [t.lower().split() for t in texts]
    N = len(tok)
    W = sum(len(w) for w in tok)
    avgdl = W / N
    want = {}
    for d, ws in enumerate(tok):
        s, nt = 0.0, 0
        for t in sorted(set(terms)):
            tf = ws.count(t)
            if tf == 0:
                continue
            dfc = sum(1 for w2 in tok if t in w2)
            idf = math.log((N - dfc + 0.5) / (dfc + 0.5))
            s += idf * tf * 2.2 / (tf + 1.2 * (0.25 + 0.75 * len(ws) / avgdl))
            nt += 1
        if nt:
            want[d] = (nt, round(s, 6))
    assert set(got["doc_id"]) == set(want)
    for _, row in got.iterrows():
        nt, s = want[int(row["doc_id"])]
        assert row["n_terms"] == nt
        assert abs(row["score"] - s) < 1e-9
    # more matched terms / higher tf rank sensibly: doc 5 (all 3 terms)
    # scores above doc 1 (one term)
    sc = got.set_index("doc_id")["score"]
    assert sc[5] > sc[1]


def test_gopher_rules_brute_force():
    from scylla_cdc_source_connector_ray.functions.textops import gopher_rules

    texts = [
        "the quick brown fox jumps over things",  # keep
        "a b c d e f g h",  # mean word length 1 -> drop
        "12 34 56 78 90 11 22",  # no alpha -> drop
        "hi",  # too few words -> drop
        "",  # empty -> drop
        "supercalifragilisticexpialidocious " * 6,  # mean wlen > 10 -> drop
        "ok words mix 77 here too yes",  # alpha 6/7 = 0.857 -> keep
    ]
    batch = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
        }
    )
    got = gopher_rules(batch).to_pandas()
    assert list(got["gopher_keep"]) == [1, 0, 0, 0, 0, 0, 1]
    # exact integer stats
    ws = texts[0].split()
    assert got.loc[0, "n_words"] == len(ws)
    assert got.loc[0, "mean_wlen_micro"] == sum(map(len, ws)) * 1_000_000 // len(ws)
    assert got.loc[6, "alpha_frac_micro"] == 6 * 1_000_000 // 7
    assert got.loc[4, "n_words"] == 0 and got.loc[4, "mean_wlen_micro"] == 0


def test_search_bm25_reserved_and_quoted_terms_match_sql_twin():
    # a term named like an internal total, and one with a quote, must score
    # like the DuckDB twin
    from scylla_cdc_source_connector_ray.functions.textops import search_bm25
    from scylla_cdc_source_connector_ray.oracles import search_bm25_sql

    texts = [
        "_docs it's fine",
        "it's it's a table",
        "nothing here",
        "_docs _docs _words",
        "",
        "it is not",
    ]
    documents = pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype=np.int64),
         "text": pd.Series(texts, dtype=object)}
    )
    terms = ("_docs", "it's")
    got = (
        search_bm25(ray.data.from_pandas(documents).repartition(3), terms)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = (
        duckdb.sql(search_bm25_sql(terms)).df().sort_values("doc_id").reset_index(drop=True)
    )
    assert list(got["doc_id"]) == list(want["doc_id"]) == [0, 1, 3]
    assert list(got["n_terms"]) == list(want["n_terms"])
    np.testing.assert_allclose(got["score"], want["score"], atol=1e-9)
