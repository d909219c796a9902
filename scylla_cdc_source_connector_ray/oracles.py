"""DuckDB oracle SQL for every SQL-expressible pipeline in ``queries()``.

Each string runs against the driver's pre-registered testdata views. The CDC
oracles re-derive the transcript log from ``events`` via
:data:`..sources.events_adapter.TRANSCRIPTS_SQL` (the exact mapping the Ray
side computes) and express the CDC state machine with window functions —
independently re-implementing the spec in ``stages/op_derive.py``.
"""

from __future__ import annotations

from .sources.events_adapter import (
    ELEMENT_OPS_SQL,
    MAP_ELEMENT_OPS_SQL,
    TRANSCRIPTS_PD_SQL,
    TRANSCRIPTS_SQL,
)

#: shared prelude: transcripts CTE + the per-key CDC fold
CDC_EVENTS_CTE = f"""
WITH transcripts AS ({TRANSCRIPTS_SQL}),
cdc_events AS (
    SELECT
        conv_id,
        turn_idx,
        CASE WHEN text IS NULL THEN 'd'
             WHEN row_number() OVER w = 1 THEN 'c'
             ELSE 'u' END                                          AS op,
        CASE WHEN text IS NULL THEN NULL ELSE role END             AS after_role,
        text                                                       AS after_text,
        CASE WHEN text IS NULL THEN NULL ELSE tool END             AS after_tool,
        CASE WHEN text IS NULL THEN NULL ELSE ts END               AS after_ts,
        lag(CASE WHEN text IS NULL THEN NULL ELSE role END) OVER w AS before_role,
        lag(text) OVER w                                           AS before_text,
        lag(CASE WHEN text IS NULL THEN NULL ELSE tool END) OVER w AS before_tool,
        lag(CASE WHEN text IS NULL THEN NULL ELSE ts END) OVER w   AS before_ts,
        ts,
        seq
    FROM transcripts
    WINDOW w AS (PARTITION BY conv_id, turn_idx ORDER BY ts, seq)
)
"""

CDC_CAPTURE_FLAT = (
    CDC_EVENTS_CTE
    + """
SELECT conv_id, turn_idx, op,
       before_role, before_text, before_tool, before_ts,
       after_role, after_text, after_tool, after_ts,
       seq
FROM cdc_events
"""
)

CDC_OP_COUNTS = (
    CDC_EVENTS_CTE
    + """
SELECT op, count(*) AS n
FROM cdc_events
GROUP BY op
"""
)

HOUR_US = 3_600_000_000
MIN15_US = 900_000_000
GAP30M_US = 1_800_000_000

WIN_TUMBLING_ROLE = f"""
WITH transcripts AS ({TRANSCRIPTS_SQL})
SELECT role, epoch_us(ts) - epoch_us(ts) % {HOUR_US} AS window_start_us,
       count(*) AS n_events,
       CAST(sum(coalesce(length(text), 0)) AS BIGINT) AS n_chars,
       min(epoch_us(ts)) AS min_ts_us, max(epoch_us(ts)) AS max_ts_us
FROM transcripts GROUP BY 1, 2
"""

#: conv-keyed tumbling panes (the salted-runner gate reuses this: salting and
#: the hierarchical per-base-shard pane merge must never change content)
WIN_TUMBLING_CONV = f"""
WITH transcripts AS ({TRANSCRIPTS_SQL})
SELECT conv_id, epoch_us(ts) - epoch_us(ts) % {HOUR_US} AS window_start_us,
       count(*) AS n_events,
       CAST(sum(coalesce(length(text), 0)) AS BIGINT) AS n_chars
FROM transcripts GROUP BY 1, 2
"""

WIN_SLIDING = f"""
WITH transcripts AS ({TRANSCRIPTS_SQL})
SELECT epoch_us(ts) - epoch_us(ts) % {MIN15_US} - {MIN15_US} * i AS window_start_us,
       count(*) AS n_events,
       CAST(sum(coalesce(length(text), 0)) AS BIGINT) AS n_chars,
       min(epoch_us(ts)) AS min_ts_us, max(epoch_us(ts)) AS max_ts_us
FROM transcripts CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS i) s
GROUP BY 1
"""

WIN_SESSION = f"""
WITH transcripts AS ({TRANSCRIPTS_SQL}),
marks AS (
    SELECT conv_id, epoch_us(ts) AS ts_us,
           CASE WHEN lag(epoch_us(ts)) OVER w IS NULL
                     OR epoch_us(ts) - lag(epoch_us(ts)) OVER w > {GAP30M_US}
                THEN 1 ELSE 0 END AS is_start
    FROM transcripts WINDOW w AS (PARTITION BY conv_id ORDER BY ts)
),
sess AS (
    SELECT conv_id, ts_us,
           sum(is_start) OVER (PARTITION BY conv_id ORDER BY ts_us
                               ROWS UNBOUNDED PRECEDING) AS sid
    FROM marks
)
SELECT conv_id, min(ts_us) AS session_start_us,
       max(ts_us) AS session_end_us, count(*) AS n_turns
FROM sess GROUP BY conv_id, sid
"""

JOIN_CONV_STATE = f"""
WITH transcripts AS ({TRANSCRIPTS_SQL})
SELECT conv_id, turn_idx, seq,
       count(*) OVER w_prior AS prior_turns,
       CAST(coalesce(sum(length(coalesce(text, ''))) OVER w_prior, 0) AS BIGINT) AS prior_chars,
       lag(role) OVER w AS prev_role,
       lag(epoch_us(ts)) OVER w AS prev_ts_us
FROM transcripts
WINDOW w AS (PARTITION BY conv_id ORDER BY ts, seq),
       w_prior AS (PARTITION BY conv_id ORDER BY ts, seq
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
"""

#: pipelines/runner.py::_merge_cstate (the salted merge fold) — the hierarchical salted
#: conv-state path must produce EXACTLY the unsalted exclusive-prefix
#: enrichment (the streaming envelope carries prior_turns/prior_chars/
#: prev_role; prev_ts_us is a batch-path-only feature).
JOIN_CONV_STATE_SALTED = f"""
WITH transcripts AS ({TRANSCRIPTS_SQL})
SELECT conv_id, turn_idx, seq,
       count(*) OVER w_prior AS prior_turns,
       CAST(coalesce(sum(length(coalesce(text, ''))) OVER w_prior, 0) AS BIGINT) AS prior_chars,
       lag(role) OVER w AS prev_role
FROM transcripts
WINDOW w AS (PARTITION BY conv_id ORDER BY ts, seq),
       w_prior AS (PARTITION BY conv_id ORDER BY ts, seq
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
"""

JOIN_ENRICH_CUSTOMER = f"""
WITH transcripts AS ({TRANSCRIPTS_SQL})
SELECT t.conv_id, t.turn_idx, t.seq, c.c_name, c.c_mktsegment
FROM transcripts t
LEFT JOIN customer c ON c.c_custkey = CAST(substr(t.conv_id, 5) AS BIGINT)
"""

CDC_IMAGE_CORRELATION = (
    CDC_EVENTS_CTE
    + """
SELECT conv_id, turn_idx, op,
       before_role, before_text, before_tool, before_ts,
       after_role, after_text, after_tool, after_ts,
       ts
FROM cdc_events
"""
)

CDC_EXTRACT_NEW_STATE = (
    CDC_EVENTS_CTE
    + """
SELECT conv_id, turn_idx,
       after_role AS role, after_text AS text, after_tool AS tool,
       after_ts AS ts, op,
       epoch_us(ts) // 1000 AS ts_ms
FROM cdc_events
"""
)

#: salted capture must produce byte-identical values to plain capture —
#: salting changes placement, never content (north_star skew clause)
CDC_CAPTURE_SALTED = CDC_CAPTURE_FLAT

#: only-updated include mode, flattened: payload fields appear only when the
#: event modified them (README.md:1184-1198); pk/ts always carried
CDC_CAPTURE_ONLY_UPDATED = (
    CDC_EVENTS_CTE
    + """
SELECT conv_id, turn_idx, op, seq,
       CASE WHEN after_role IS DISTINCT FROM before_role THEN after_role END AS ou_after_role,
       CASE WHEN after_text IS DISTINCT FROM before_text THEN after_text END AS ou_after_text,
       CASE WHEN after_tool IS DISTINCT FROM before_tool THEN after_tool END AS ou_after_tool
FROM cdc_events
WHERE op <> 'd'
"""
)

WIN_OPS_BY_WINDOW = (
    CDC_EVENTS_CTE
    + f"""
SELECT op, epoch_us(ts) - epoch_us(ts) % {HOUR_US} AS window_start_us,
       count(*) AS n_events
FROM cdc_events
GROUP BY 1, 2
"""
)

CDC_COMPACTION = (
    CDC_EVENTS_CTE
    + """
, last AS (
    SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
                                 ORDER BY ts DESC, seq DESC) AS rn
    FROM cdc_events
)
SELECT conv_id, turn_idx, after_role AS role, after_text AS text,
       after_tool AS tool, epoch_us(after_ts) AS ts_us
FROM last WHERE rn = 1 AND op <> 'd'
"""
)

#: M8 collection widening twin: tags (list<string>) and meta (struct) value
#: columns, flattened to scalar encodings (csv / fields). Equality decisions
#: are encoding-independent: engine joins lists with \x1f, the oracle with ','
#: — both injective for elements without the separator. NULL vs '' (empty
#: list) vs values are three distinct states on both sides.
CDC_CAPTURE_COLLECTIONS = f"""
WITH transcripts AS (
    SELECT
        'conv' || CAST(user_id AS VARCHAR)            AS conv_id,
        CAST(event_id % 20 AS INTEGER)                AS turn_idx,
        CASE event_type
            WHEN 'click' THEN 'user'
            WHEN 'view' THEN 'assistant'
            WHEN 'purchase' THEN 'tool'
            WHEN 'signup' THEN 'system'
            ELSE '__tombstone__'
        END                                           AS role,
        CASE WHEN event_type = 'error' THEN NULL ELSE props END AS text,
        CASE WHEN event_type = 'purchase' THEN 'search' ELSE NULL END AS tool,
        CASE WHEN event_type = 'error' THEN NULL
             WHEN value < 1 THEN ''
             WHEN value >= 10 THEN event_type || ',high'
             ELSE event_type END                      AS tags_csv,
        CASE WHEN event_type = 'error' THEN NULL
             ELSE TRY_CAST(NULLIF(regexp_extract(props, '[0-9]+'), '') AS BIGINT) END AS meta_k,
        CASE WHEN event_type = 'error' THEN NULL ELSE event_type END AS meta_src,
        ts, event_id AS seq
    FROM events
),
cdc AS (
    SELECT conv_id, turn_idx,
        CASE WHEN text IS NULL THEN 'd'
             WHEN row_number() OVER w = 1 THEN 'c'
             ELSE 'u' END AS op,
        CASE WHEN text IS NULL THEN NULL ELSE role END      AS a_role,
        text                                                AS a_text,
        CASE WHEN text IS NULL THEN NULL ELSE tool END      AS a_tool,
        tags_csv                                            AS a_tags,
        meta_k                                              AS a_mk,
        meta_src                                            AS a_ms,
        lag(CASE WHEN text IS NULL THEN NULL ELSE role END) OVER w AS b_role,
        lag(text) OVER w                                    AS b_text,
        lag(CASE WHEN text IS NULL THEN NULL ELSE tool END) OVER w AS b_tool,
        lag(tags_csv) OVER w                                AS b_tags,
        lag(meta_k) OVER w                                  AS b_mk,
        lag(meta_src) OVER w                                AS b_ms,
        seq
    FROM transcripts
    WINDOW w AS (PARTITION BY conv_id, turn_idx ORDER BY ts, seq)
)
SELECT conv_id, turn_idx, op, seq,
       b_tags AS before_tags_csv, a_tags AS after_tags_csv,
       b_mk AS before_meta_k, a_mk AS after_meta_k,
       b_ms AS before_meta_src, a_ms AS after_meta_src,
       ltrim(concat(
           CASE WHEN (a_mk IS DISTINCT FROM b_mk) OR (a_ms IS DISTINCT FROM b_ms)
                THEN ',meta' ELSE '' END,
           CASE WHEN a_role IS DISTINCT FROM b_role THEN ',role' ELSE '' END,
           CASE WHEN a_tags IS DISTINCT FROM b_tags THEN ',tags' ELSE '' END,
           CASE WHEN a_text IS DISTINCT FROM b_text THEN ',text' ELSE '' END,
           CASE WHEN a_tool IS DISTINCT FROM b_tool THEN ',tool' ELSE '' END
       ), ',') AS modified_cols
FROM cdc
"""

# --- relational coverage (integer-scaled money: exact under any sum order) --

Q1_PRICING = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(sum(CAST(round(l_extendedprice * 100.0) AS BIGINT)) AS BIGINT) AS sum_base_price_c,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000.0) AS BIGINT)) AS BIGINT) AS sum_disc_price_dm,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * (1 + l_tax) * 1000000.0) AS BIGINT)) AS BIGINT) AS sum_charge_um,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
GROUP BY l_returnflag, l_linestatus
"""

NATION_REVENUE = """
SELECT n.n_name AS n_name,
       CAST(sum(CAST(round(o.o_totalprice * 100.0) AS BIGINT)) AS BIGINT) AS revenue_c,
       count(*) AS n_orders
FROM orders o
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
JOIN region r ON r.r_regionkey = n.n_regionkey
WHERE r.r_name = 'ASIA'
GROUP BY n.n_name
"""

TOP_ORDERS = """
SELECT l_orderkey,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000.0) AS BIGINT)) AS BIGINT) AS revenue_dm
FROM lineitem GROUP BY l_orderkey
ORDER BY revenue_dm DESC, l_orderkey ASC
LIMIT 10
"""

ORDER_PRIORITY_REVENUE = """
SELECT o.o_orderpriority,
       count(*) AS n_orders,
       CAST(sum(li.rev) AS BIGINT) AS revenue_dm
FROM orders o
JOIN (
    SELECT l_orderkey,
           CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000.0) AS BIGINT))
                AS BIGINT) AS rev
    FROM lineitem GROUP BY l_orderkey
) li ON li.l_orderkey = o.o_orderkey
GROUP BY o.o_orderpriority
"""

SEGMENT_STATS = """
SELECT c_mktsegment, count(*) AS n,
       CAST(sum(CAST(round(c_acctbal * 100.0) AS BIGINT)) AS BIGINT) AS sum_bal_c,
       min(CAST(round(c_acctbal * 100.0) AS BIGINT)) AS min_bal_c,
       max(CAST(round(c_acctbal * 100.0) AS BIGINT)) AS max_bal_c
FROM customer GROUP BY c_mktsegment
"""

EVENT_TYPE_STATS = """
SELECT event_type, count(*) AS n,
       CAST(sum(CAST(round(value * 100.0) AS BIGINT)) AS BIGINT) AS sum_value_c
FROM events GROUP BY event_type
"""

#: per-conversation top-k turns by text length (deterministic total order:
#: n_chars desc, turn_idx, seq) — grouped top-k operator gate
TOP_TURNS_PER_CONV = f"""
WITH transcripts AS ({TRANSCRIPTS_SQL}),
r AS (
    SELECT conv_id, turn_idx, seq,
           CAST(coalesce(length(text), 0) AS BIGINT) AS n_chars,
           row_number() OVER (
               PARTITION BY conv_id
               ORDER BY coalesce(length(text), 0) DESC, turn_idx, seq) AS rank
    FROM transcripts)
SELECT conv_id, turn_idx, seq, n_chars, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= 2
"""


#: exact grouped order statistics: shared index convention (n-1)*q // 100 on
#: the ascending micro-scaled values — no library interpolation on either side
EVENT_VALUE_QUANTILES = """
WITH v AS (
    SELECT event_type, CAST(floor(value * 1000000) AS BIGINT) AS vm
    FROM events WHERE value IS NOT NULL
),
r AS (
    SELECT event_type, vm,
           row_number() OVER (PARTITION BY event_type ORDER BY vm) - 1 AS i,
           count(*) OVER (PARTITION BY event_type) AS n
    FROM v
)
SELECT event_type, CAST(max(n) AS BIGINT) AS n,
       max(CASE WHEN i = (n - 1) * 25 // 100 THEN vm END) AS p25,
       max(CASE WHEN i = (n - 1) * 50 // 100 THEN vm END) AS p50,
       max(CASE WHEN i = (n - 1) * 95 // 100 THEN vm END) AS p95
FROM r GROUP BY event_type
"""


# --- training-data ops -------------------------------------------------------

def _text_stats_sql() -> str:
    """functions/textops.py::text_stats twin, generated from the engine's
    pattern table (each pattern's SQL spelling)."""
    from .functions.textops import TEXT_PATTERNS

    cols = "".join(
        f",\n       {p.sql_count()} AS stat_{name}" for name, p in TEXT_PATTERNS.items()
    )
    return f"""
SELECT doc_id,
       coalesce(length(text), 0) AS stat_chars{cols}
FROM documents
"""


def _quality_score_sql() -> str:
    """functions/textops.py::quality_score twin, over the same pattern
    table entries the engine counts."""
    from .functions.textops import QUALITY_STATS, TEXT_PATTERNS

    cols = "".join(
        f",\n           CAST({TEXT_PATTERNS[n].sql_count()} AS DOUBLE) AS n_{n}"
        for n in QUALITY_STATS
    )
    return f"""
WITH s AS (
    SELECT doc_id,
           CAST(coalesce(length(text), 0) AS DOUBLE) AS n_chars{cols}
    FROM documents
)
SELECT doc_id,
       CAST(floor((least(n_chars / 500.0, 1.0) * 0.4
                 + least(n_stop / greatest(n_words, 1.0) * 5.0, 1.0) * 0.3
                 + least(n_punct / greatest(n_words, 1.0) * 10.0, 1.0) * 0.3) * 1000000.0) AS BIGINT)
           AS quality_micro
FROM s
"""


TEXT_STATS = _text_stats_sql()
QUALITY_SCORE = _quality_score_sql()

#: The exact-dedup content hash, the twin of ``textops.md5_normalized``:
#: DuckDB's regexp ``\s`` is RE2's, as in the engine, and ``trim`` is given
#: ``' '`` because a bare DuckDB ``trim`` also strips the Unicode spaces
#: (NBSP, U+2003) that the engine keeps.
NORM_MD5 = r"md5(trim(lower(regexp_replace(coalesce(text, ''), '\s+', ' ', 'g')), ' '))"

FINGERPRINT = f"""
SELECT doc_id,
       {NORM_MD5} AS fp
FROM documents
"""

DEDUP_EXACT = """
SELECT text, min(doc_id) AS keep_id, count(*) AS n_copies
FROM documents GROUP BY text
"""

DEDUP_EXACT_HASHED = f"""
SELECT {NORM_MD5} AS content_hash,
       min(doc_id) AS keep_id, count(*) AS n_copies
FROM documents GROUP BY 1
"""

#: segment-level (sub-document) exact dedup over fixed 20-word spans: every
#: span seen earlier (ordered by doc_id, seg_idx) is removed, survivors are
#: re-joined in order. The stream synthesizes duplication the way
#: DEDUP_STREAM_EXACT does: a suffixed replica (all but the last segment
#: duplicate) and an exact replica (fully dropped → NULL text_dedup). The
#: words CTE is the shared trim+RE2-\s+ split convention; docs with zero
#: words are absent from the output on both sides.
DEDUP_SEGMENTS = r"""
WITH stream AS (
    SELECT doc_id, coalesce(text, '') AS text FROM documents
    UNION ALL
    SELECT doc_id + 1000000, coalesce(text, '') || ' zz' || CAST(doc_id AS VARCHAR)
    FROM documents
    UNION ALL
    SELECT doc_id + 2000000, coalesce(text, '') FROM documents
),
base AS (SELECT doc_id, regexp_replace(text, '^\s+|\s+$', '', 'g') AS t FROM stream),
w AS (SELECT doc_id, CASE WHEN t = '' THEN [] ELSE regexp_split_to_array(t, '\s+') END AS ws
      FROM base),
pos AS (SELECT doc_id, ws, unnest(generate_series(1, len(ws))) AS i FROM w WHERE len(ws) > 0),
segs AS (SELECT doc_id, CAST((i - 1) // 20 AS BIGINT) AS seg_idx,
                string_agg(ws[i], ' ' ORDER BY i) AS seg_text
         FROM pos GROUP BY doc_id, CAST((i - 1) // 20 AS BIGINT)),
ranked AS (SELECT doc_id, seg_idx, seg_text,
                  row_number() OVER (PARTITION BY seg_text ORDER BY doc_id, seg_idx) AS rn
           FROM segs)
SELECT doc_id,
       string_agg(seg_text, ' ' ORDER BY seg_idx) FILTER (WHERE rn = 1) AS text_dedup,
       CAST(count(*) FILTER (WHERE rn = 1) AS BIGINT) AS n_segs_kept,
       CAST(count(*) AS BIGINT) AS n_segs_total
FROM ranked GROUP BY doc_id
"""

#: streaming first-occurrence dedup ≡ min doc_id per normalized-text hash —
#: batching must never change the result. The stream is documents UNION a
#: shifted-id replay of every text (sf0.01 documents are exact-dup-free, so
#: the bare table would leave the dedup path unexercised); the runner must
#: drop the entire second half across micro-batch boundaries.
DEDUP_STREAM_EXACT = f"""
WITH stream AS (
    SELECT doc_id, text FROM documents
    UNION ALL
    SELECT doc_id + 1000000 AS doc_id, text FROM documents
)
SELECT doc_id FROM (
    SELECT doc_id, row_number() OVER (
        PARTITION BY {NORM_MD5}
        ORDER BY doc_id) AS rn
    FROM stream) WHERE rn = 1
"""

EMBEDDING_NEAR_DUPS = """
SELECT a.vec_id AS a, b.vec_id AS b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.35
"""


def _lsh_plane_values() -> str:
    """±1 hyperplane literals shared with ``dedup.lsh_hyperplanes`` — integer
    entries embed exactly, so both sides compute identical sign bits (modulo
    float64 summation-order rounding at |dot| ≈ 1e-15, negligible for random
    data — same accepted risk as the ann_ivf centroid gate)."""
    from .functions.dedup import lsh_hyperplanes

    H = lsh_hyperplanes(64)
    rows = []
    for t in range(H.shape[0]):
        for p in range(H.shape[1]):
            vec = ", ".join(str(int(x)) for x in H[t, p])
            rows.append(f"({t}, {p}, [{vec}]::DOUBLE[])")
    return ", ".join(rows)


#: SRP-LSH embedding near-dup: full-table signature collision → exact cosine
#: verify (the approximate scale path next to the exact grid)
DEDUP_EMBEDDING_LSH = f"""
WITH planes(t, p, vec) AS (VALUES {_lsh_plane_values()}),
sig AS (
    SELECT e.vec_id, pl.t,
           CAST(sum(CASE WHEN list_dot_product(CAST(e.embedding AS DOUBLE[]), pl.vec) > 0
                         THEN 1 << pl.p ELSE 0 END) AS BIGINT) AS s
    FROM embeddings e CROSS JOIN planes pl
    GROUP BY e.vec_id, pl.t
),
cand AS (
    SELECT DISTINCT x.vec_id AS a, y.vec_id AS b
    FROM sig x JOIN sig y ON x.t = y.t AND x.s = y.s AND x.vec_id < y.vec_id
)
SELECT c.a, c.b
FROM cand c
JOIN embeddings ea ON ea.vec_id = c.a
JOIN embeddings eb ON eb.vec_id = c.b
WHERE list_cosine_similarity(ea.embedding, eb.embedding) >= 0.35
"""

ANN_TOPK = """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 8),
scored AS (
    SELECT q.query_id, e.vec_id,
           row_number() OVER (PARTITION BY q.query_id
                              ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC,
                                       e.vec_id) AS rank
    FROM q CROSS JOIN embeddings e
)
SELECT query_id, vec_id, rank FROM scored WHERE rank <= 5
"""

CDC_MODIFIED_COLS = (
    CDC_EVENTS_CTE
    + """
SELECT conv_id, turn_idx, seq,
       ltrim(
           concat(
               CASE WHEN (after_role IS DISTINCT FROM before_role) THEN ',role' ELSE '' END,
               CASE WHEN (after_text IS DISTINCT FROM before_text) THEN ',text' ELSE '' END,
               CASE WHEN (after_tool IS DISTINCT FROM before_tool) THEN ',tool' ELSE '' END
           ), ',') AS modified_cols
FROM cdc_events
"""
)

PART_TYPE_STATS = """
SELECT p_type, count(*) AS n,
       CAST(sum(CAST(round(p_retailprice * 100.0) AS BIGINT)) AS BIGINT) AS sum_price_c,
       max(p_size) AS max_size
FROM part WHERE p_type LIKE '%M%' GROUP BY p_type
"""

SUPPLIER_NATION_JOIN = """
SELECT n.n_name AS n_name, count(*) AS n_suppliers,
       CAST(sum(CAST(round(s.s_acctbal * 100.0) AS BIGINT)) AS BIGINT) AS sum_bal_c
FROM supplier s JOIN nation n ON n.n_nationkey = s.s_nationkey
GROUP BY n.n_name
"""

WIN_DISTINCT_CONVS = f"""
WITH transcripts AS ({TRANSCRIPTS_SQL})
SELECT epoch_us(ts) - epoch_us(ts) % {HOUR_US} AS window_start_us,
       count(DISTINCT conv_id) AS n_distinct
FROM transcripts GROUP BY 1
"""


def _lang_id_sql() -> str:
    from .functions.textops import LangId

    return LangId.oracle_sql()


LANG_ID = _lang_id_sql()

# --- multimodal metadata twins ----------------------------------------------
# media_from_documents: width = 16+(doc_id%7)*8, height = 16+(doc_id%5)*8,
# duration_ms = (doc_id%40)*230; frame plan = range(0, duration, 250);
# resize target fixed 32x24 -> n_px = 32*24*3.

MULTIMODAL_FRAME_PLAN = """
SELECT doc_id AS media_id, CAST(f AS BIGINT) AS frame_ms
FROM documents,
     unnest(generate_series(0, (doc_id % 40) * 230 - 1, 250)) AS t(f)
"""

MULTIMODAL_RESIZE_DIMS = """
SELECT doc_id AS media_id,
       CAST(32 AS BIGINT) AS width, CAST(24 AS BIGINT) AS height,
       CAST(32 * 24 * 3 AS BIGINT) AS n_px
FROM documents
"""

# --- MinHash-LSH / SimHash twins --------------------------------------------
# The full LSH computation re-expressed in SQL: same word hash
# (md5_number_upper % (2^61-1)), same polynomial shingle fold, same
# permutations (literals from MinHasher(seed=42)), same banding and the same
# exact integer Jaccard — candidate sets and verified pairs are identical by
# construction, not approximately.

_M = (1 << 61) - 1
_B = 1000003
_NGRAM = 3
_NUM_PERM = 64
_BANDS = 16
_ROWS_PER_BAND = _NUM_PERM // _BANDS


def _minhash_perm_values() -> str:
    from .functions.dedup import MinHasher

    mh = MinHasher(num_perm=_NUM_PERM, ngram=_NGRAM, seed=42)
    return ", ".join(
        f"({p}, {int(mh.a[p])}, {int(mh.b[p])})" for p in range(_NUM_PERM)
    )


#: shared shingle CTE: per-doc sorted-unique gram hashes (docs with no
#: shingles have no rows — excluded from LSH/simhash on both sides)
_SHINGLES_CTE = f"""
WITH d AS (SELECT doc_id,
             regexp_replace(lower(coalesce(text, '')), '^\\s+|\\s+$', '', 'g') AS t
           FROM documents),
w AS (SELECT doc_id,
        CASE WHEN t = '' THEN [] ELSE regexp_split_to_array(t, '\\s+') END AS ws
      FROM d),
h AS (SELECT doc_id,
        list_transform(ws, x -> CAST(md5_number_upper(x) AS HUGEINT) % {_M}) AS wh,
        len(ws) AS L
      FROM w),
idx AS (SELECT doc_id, wh, L, unnest(generate_series(1, greatest(L - {_NGRAM} + 1, 1))) AS i
        FROM h WHERE L > 0),
g AS (SELECT doc_id,
        CASE WHEN L >= {_NGRAM}
             THEN ((wh[i] * {_B} + wh[i+1]) % {_M} * {_B} + wh[i+2]) % {_M}
             WHEN L = 2 THEN (wh[1] * {_B} + wh[2]) % {_M}
             ELSE wh[1] END AS gh
      FROM idx),
shingles AS (SELECT DISTINCT doc_id, gh FROM g)
"""

#: minhash body CTEs shared by the pair gate and the cluster gate — `jac`
#: is the verified candidate-pair relation both final SELECTs consume
_MINHASH_JAC_CTES = f""",
perms(p, a, b) AS (VALUES {_minhash_perm_values()}),
sig AS (
    SELECT s.doc_id, perms.p,
           min((CAST(perms.a AS HUGEINT) * s.gh + perms.b) % {_M}) AS v
    FROM shingles s CROSS JOIN perms
    GROUP BY s.doc_id, perms.p
),
bands AS (
    SELECT doc_id, p // {_ROWS_PER_BAND} AS band,
           string_agg(CAST(CAST(v AS BIGINT) AS VARCHAR), '-' ORDER BY p) AS band_key
    FROM sig GROUP BY doc_id, p // {_ROWS_PER_BAND}
),
cand AS (
    SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
    FROM bands x JOIN bands y
      ON x.band = y.band AND x.band_key = y.band_key AND x.doc_id < y.doc_id
),
sets AS (SELECT doc_id, count(*) AS n FROM shingles GROUP BY doc_id),
inter AS (
    SELECT c.a, c.b, count(*) AS n_inter
    FROM cand c
    JOIN shingles sa ON sa.doc_id = c.a
    JOIN shingles sb ON sb.doc_id = c.b AND sb.gh = sa.gh
    GROUP BY c.a, c.b
),
jac AS (
    SELECT c.a, c.b,
           CAST(coalesce(i.n_inter, 0) * 1000000
                // (na.n + nb.n - coalesce(i.n_inter, 0)) AS BIGINT) AS jaccard_micro
    FROM cand c
    LEFT JOIN inter i ON i.a = c.a AND i.b = c.b
    JOIN sets na ON na.doc_id = c.a
    JOIN sets nb ON nb.doc_id = c.b
)"""

DEDUP_MINHASH_LSH = (
    _SHINGLES_CTE
    + _MINHASH_JAC_CTES
    + "\nSELECT a, b, jaccard_micro FROM jac WHERE jaccard_micro >= 700000\n"
)

#: winnowing fingerprint set (Schleimer et al. SIGMOD'03) twin
#: (functions.textops.winnow_fingerprints): POSITIONAL grams (same d/w/h
#: prefix as the shingles CTE, full n-windows only — docs shorter than
#: ngram + window - 1 words emit nothing on both sides), per-doc window-min
#: over every WINNOW_W consecutive grams, then DISTINCT (doc, fp)
_WINNOW_W = 4
WINNOW_FINGERPRINT = f"""
WITH d AS (SELECT doc_id,
             regexp_replace(lower(coalesce(text, '')), '^\\s+|\\s+$', '', 'g') AS t
           FROM documents),
w AS (SELECT doc_id,
        CASE WHEN t = '' THEN [] ELSE regexp_split_to_array(t, '\\s+') END AS ws
      FROM d),
h AS (SELECT doc_id,
        list_transform(ws, x -> CAST(md5_number_upper(x) AS HUGEINT) % {_M}) AS wh,
        len(ws) AS L
      FROM w),
idx AS (SELECT doc_id, wh, unnest(generate_series(1, L - {_NGRAM} + 1)) AS i
        FROM h WHERE L >= {_NGRAM}),
g AS (SELECT doc_id, i,
        ((wh[i] * {_B} + wh[i+1]) % {_M} * {_B} + wh[i+2]) % {_M} AS gh
      FROM idx),
win AS (SELECT doc_id, i,
        min(gh) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN {_WINNOW_W - 1} PRECEDING AND CURRENT ROW) AS fp
        FROM g)
SELECT DISTINCT doc_id, CAST(fp AS BIGINT) AS fp
FROM win WHERE i >= {_WINNOW_W}
ORDER BY doc_id, fp
"""

#: within-document repetition twin (functions.textops.repetition_stats):
#: same word-hash + fold gram definition as the shingles CTE, at n=2, but
#: WITHOUT the per-doc distinct — total windows vs distinct windows per doc
QUALITY_REPETITION = f"""
WITH d AS (SELECT doc_id,
             regexp_replace(lower(coalesce(text, '')), '^\\s+|\\s+$', '', 'g') AS t
           FROM documents),
w AS (SELECT doc_id,
        CASE WHEN t = '' THEN [] ELSE regexp_split_to_array(t, '\\s+') END AS ws
      FROM d),
h AS (SELECT doc_id,
        list_transform(ws, x -> CAST(md5_number_upper(x) AS HUGEINT) % {_M}) AS wh,
        len(ws) AS L
      FROM w),
idx AS (SELECT doc_id, wh, L, unnest(generate_series(1, greatest(L - 1, 1))) AS i
        FROM h WHERE L > 0),
g AS (SELECT doc_id,
        CASE WHEN L >= 2 THEN (wh[i] * {_B} + wh[i+1]) % {_M} ELSE wh[1] END AS gh
      FROM idx),
rep AS (SELECT doc_id, count(*) AS total, count(DISTINCT gh) AS uniq
        FROM g GROUP BY doc_id)
SELECT doc_id,
       CAST(total AS BIGINT) AS total_ngrams,
       CAST(uniq AS BIGINT) AS uniq_ngrams,
       CAST((total - uniq) * 1000000 // total AS BIGINT) AS dup_micro
FROM rep
"""


def _benchmark_gram_values() -> str:
    from .functions.textops import benchmark_gram_set

    return ", ".join(f"({int(v)})" for v in benchmark_gram_set())


#: benchmark-decontamination twin (functions.textops.ContaminationFlagger):
#: the benchmark phrases' 3-gram hashes embedded as literals from the same
#: Python definition; every doc appears, empty docs score 0
DECONTAMINATE = (
    _SHINGLES_CTE
    + f""",
bench(gh) AS (VALUES {{bench_values}}),
hits AS (SELECT s.doc_id, count(*) AS n_hits
         FROM shingles s JOIN bench b ON b.gh = s.gh GROUP BY s.doc_id)
SELECT dd.doc_id,
       CAST(coalesce(h.n_hits, 0) AS BIGINT) AS n_hits,
       CAST(CASE WHEN coalesce(h.n_hits, 0) > 0 THEN 1 ELSE 0 END AS BIGINT)
           AS contaminated
FROM documents dd LEFT JOIN hits h ON h.doc_id = dd.doc_id
""".format(bench_values=_benchmark_gram_values())
)

#: per-source cap twin (stages.topk.top_k_per_group over documents): keep
#: the 10 lowest doc_ids per source — the RefinedWeb-style per-domain cap
SOURCE_CAP = """
SELECT doc_id, source, rank FROM (
    SELECT doc_id, source,
           CAST(row_number() OVER (PARTITION BY source ORDER BY doc_id)
                AS BIGINT) AS rank
    FROM documents
) WHERE rank <= 10
"""

#: streaming per-source cap twin (pipelines.cap_stream.SourceCapRunner over
#: a doc_id-ordered 4-window log): arrival order == doc_id order, so the
#: admitted set is exactly the batch cap — micro-batching must not change it
SOURCE_CAP_STREAM = """
SELECT doc_id, source FROM (
    SELECT doc_id, source,
           row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rnk
    FROM documents
) WHERE rnk <= 10
"""

#: full curation-chain twin (functions.corpus.curation_chain): repetition
#: filter (2-gram dup_micro ≤ 60000) → benchmark decontamination → exact
#: dedup (min doc_id per normalized content) → per-source cap (10 lowest).
#: Each stage is the SAME definition as its standalone oracle; the
#: repetition CTEs are suffixed r to coexist with the shingles CTE.
CURATION_CHAIN = (
    _SHINGLES_CTE
    + f""",
bench(gh) AS (VALUES {{bench_values}}),
hits AS (SELECT DISTINCT s.doc_id FROM shingles s JOIN bench b ON b.gh = s.gh),
idxr AS (SELECT doc_id, wh, L, unnest(generate_series(1, greatest(L - 1, 1))) AS i
         FROM h WHERE L > 0),
gr AS (SELECT doc_id,
         CASE WHEN L >= 2 THEN (wh[i] * {_B} + wh[i+1]) % {_M} ELSE wh[1] END AS gh
       FROM idxr),
rep AS (SELECT doc_id, count(*) AS total, count(DISTINCT gh) AS uniq
        FROM gr GROUP BY doc_id),
keepq AS (SELECT doc_id FROM rep WHERE (total - uniq) * 1000000 // total <= 60000),
clean AS (
    SELECT dd.doc_id, dd.text, dd.source
    FROM documents dd JOIN keepq USING (doc_id)
    WHERE dd.doc_id NOT IN (SELECT doc_id FROM hits)
),
dedup AS (
    SELECT min(doc_id) AS doc_id FROM clean
    GROUP BY {NORM_MD5}
),
capd AS (
    SELECT c.doc_id, c.source,
           CAST(row_number() OVER (PARTITION BY c.source ORDER BY c.doc_id)
                AS BIGINT) AS rank
    FROM clean c JOIN dedup USING (doc_id)
)
SELECT doc_id, source, rank FROM capd WHERE rank <= 10
""".format(bench_values=_benchmark_gram_values())
)

#: exact n-gram Jaccard self-join twin (functions.dedup.ngram_jaccard_dedup):
#: ALL pairs with shingle Jaccard ≥ 0.7 — the brute-force formulation
#: (pairs sharing ≥1 shingle → exact integer Jaccard), which the engine's
#: AllPairs prefix filter must reproduce exactly, not approximately
DEDUP_NGRAM_JACCARD = (
    _SHINGLES_CTE
    + f""",
sets AS (SELECT doc_id, count(*) AS n FROM shingles GROUP BY doc_id),
inter AS (
    SELECT sa.doc_id AS a, sb.doc_id AS b, count(*) AS n_inter
    FROM shingles sa JOIN shingles sb ON sb.gh = sa.gh AND sa.doc_id < sb.doc_id
    GROUP BY sa.doc_id, sb.doc_id
)
SELECT CAST(i.a AS BIGINT) AS a, CAST(i.b AS BIGINT) AS b,
       CAST(i.n_inter * 1000000 // (na.n + nb.n - i.n_inter) AS BIGINT)
           AS jaccard_micro
FROM inter i
JOIN sets na ON na.doc_id = i.a
JOIN sets nb ON nb.doc_id = i.b
WHERE i.n_inter * 1000000 // (na.n + nb.n - i.n_inter) >= 700000
"""
)

#: recursive connected-components block over the verified minhash pairs —
#: shared by the cluster-label and keep-canonical oracles (one definition of
#: the pair threshold and the reach formulation)
_CC_CTES = """,
pairs AS (SELECT a, b FROM jac WHERE jaccard_micro >= 700000),
edges AS (SELECT a AS u, b AS v FROM pairs UNION SELECT b AS u, a AS v FROM pairs),
reach(doc_id, r) AS (
    SELECT u, u FROM edges
    UNION
    SELECT reach.doc_id, e.v FROM reach JOIN edges e ON e.u = reach.r
)"""

#: duplicate-cluster labels over the verified minhash pair set: connected
#: components via recursive min-reachability (cluster_id = min doc_id of the
#: component). Only docs that belong to some duplicate pair appear — exactly
#: the node set of the edge list, matching `connected_components`.
DEDUP_CLUSTERS = (
    _SHINGLES_CTE.replace("WITH ", "WITH RECURSIVE ", 1)
    + _MINHASH_JAC_CTES
    + _CC_CTES
    + """
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(min(r) AS BIGINT) AS cluster_id
FROM reach GROUP BY doc_id
"""
)

#: end-to-end near-dup corpus filter: every doc survives except non-canonical
#: duplicate-cluster members (cluster label != own id)
DEDUP_KEEP_CANONICAL = (
    _SHINGLES_CTE.replace("WITH ", "WITH RECURSIVE ", 1)
    + _MINHASH_JAC_CTES
    + _CC_CTES
    + """,
cc AS (SELECT doc_id, min(r) AS cluster_id FROM reach GROUP BY doc_id)
SELECT dd.doc_id FROM documents dd
WHERE dd.doc_id NOT IN (SELECT doc_id FROM cc WHERE doc_id <> cluster_id)
"""
)

DEDUP_SIMHASH = (
    _SHINGLES_CTE
    + """,
bits AS (
    SELECT s.doc_id, bt.bit,
           sum(CASE WHEN (CAST(s.gh AS BIGINT) >> bt.bit) & 1 = 1 THEN 1 ELSE -1 END) AS score
    FROM shingles s
    CROSS JOIN (SELECT unnest(generate_series(0, 60)) AS bit) bt
    GROUP BY s.doc_id, bt.bit
),
sh AS (
    SELECT doc_id,
           CAST(sum(CASE WHEN score > 0 THEN CAST(1 AS BIGINT) << bit ELSE 0 END)
                AS BIGINT) AS simhash
    FROM bits GROUP BY doc_id
),
chunks AS (
    SELECT doc_id, simhash, c.c AS chunk,
           (simhash >> (16 * c.c)) & 65535 AS chunk_val
    FROM sh CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS c) c
),
cand AS (
    SELECT DISTINCT x.doc_id AS a, y.doc_id AS b, x.simhash AS ha, y.simhash AS hb
    FROM chunks x JOIN chunks y
      ON x.chunk = y.chunk AND x.chunk_val = y.chunk_val AND x.doc_id < y.doc_id
)
SELECT a, b, CAST(bit_count(xor(ha, hb)) AS BIGINT) AS hamming
FROM cand
WHERE bit_count(xor(ha, hb)) <= 3
"""
)

# ---------------------------------------------------------------------------
# partition deletes (reference M2) — conversation tombstones
# ---------------------------------------------------------------------------
# Spec mirror of stages/partition_delete.py: `o` is the row's ordinal in its
# conversation's (ts, seq) timeline; last_pd_o / next_pd_o locate the nearest
# conversation tombstone strictly before / after each row.

_PD_ORD_CTE = """
o1 AS (
    SELECT *, row_number() OVER (PARTITION BY conv_id ORDER BY ts, seq) AS o,
           (turn_idx IS NULL) AS is_pd
    FROM transcripts
),
o2 AS (
    SELECT *,
        max(CASE WHEN is_pd THEN o END) OVER
            (PARTITION BY conv_id ORDER BY o
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS last_pd_o,
        min(CASE WHEN is_pd THEN o END) OVER
            (PARTITION BY conv_id ORDER BY o
             ROWS BETWEEN 1 FOLLOWING AND UNBOUNDED FOLLOWING) AS next_pd_o
    FROM o1
)
"""

CDC_PARTITION_DELETE = (
    f"WITH transcripts AS ({TRANSCRIPTS_PD_SQL}),\n"
    + _PD_ORD_CTE
    + """
, r AS (
    SELECT *,
        row_number() OVER w AS rn,
        lag(CASE WHEN text IS NULL THEN NULL ELSE role END) OVER w AS p_role,
        lag(text) OVER w AS p_text,
        lag(CASE WHEN text IS NULL THEN NULL ELSE tool END) OVER w AS p_tool,
        lag(CASE WHEN text IS NULL THEN NULL ELSE ts END) OVER w AS p_ts,
        lag(o) OVER w AS prev_o,
        lead(o) OVER w AS next_o
    FROM o2 WHERE NOT is_pd
    WINDOW w AS (PARTITION BY conv_id, turn_idx ORDER BY o)
),
rw AS (
    SELECT *, coalesce(prev_o < last_pd_o, FALSE) AS wiped FROM r
)
SELECT conv_id, turn_idx,
       CASE WHEN text IS NULL THEN 'd' WHEN rn = 1 THEN 'c' ELSE 'u' END AS op,
       CASE WHEN wiped THEN NULL ELSE p_role END AS before_role,
       CASE WHEN wiped THEN NULL ELSE p_text END AS before_text,
       CASE WHEN wiped THEN NULL ELSE p_tool END AS before_tool,
       CASE WHEN wiped THEN NULL ELSE p_ts END   AS before_ts,
       CASE WHEN text IS NULL THEN NULL ELSE role END AS after_role,
       text AS after_text,
       CASE WHEN text IS NULL THEN NULL ELSE tool END AS after_tool,
       CASE WHEN text IS NULL THEN NULL ELSE ts END   AS after_ts,
       seq
FROM rw
UNION ALL
SELECT r.conv_id, r.turn_idx, 'd' AS op,
       r.role, r.text, r.tool, r.ts,
       NULL, NULL, NULL, NULL,
       p.seq
FROM r JOIN o1 p ON p.conv_id = r.conv_id AND p.is_pd AND p.o = r.next_pd_o
WHERE r.text IS NOT NULL AND r.next_pd_o IS NOT NULL
  AND (r.next_o IS NULL OR r.next_o > r.next_pd_o)
UNION ALL
SELECT conv_id, NULL AS turn_idx, 'pd' AS op,
       NULL, NULL, NULL, NULL, NULL, NULL, NULL, NULL, seq
FROM o1 WHERE is_pd
"""
)

CDC_COMPACTION_PD = (
    f"WITH transcripts AS ({TRANSCRIPTS_PD_SQL}),\n"
    + _PD_ORD_CTE
    + """
, agg AS (
    SELECT conv_id, max(CASE WHEN is_pd THEN o END) AS max_pd
    FROM o1 GROUP BY conv_id
),
lastr AS (
    SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY o DESC) AS rn
    FROM o1 WHERE NOT is_pd
)
SELECT l.conv_id, l.turn_idx, l.role, l.text, l.tool, epoch_us(l.ts) AS ts_us
FROM lastr l LEFT JOIN agg a USING (conv_id)
WHERE l.rn = 1 AND l.text IS NOT NULL AND (a.max_pd IS NULL OR l.o > a.max_pd)
"""
)

# ---------------------------------------------------------------------------
# schema evolution (reference ST4) — two-generation log through the runner
# ---------------------------------------------------------------------------
# Generation 1 (seq < cut): base schema. Generation 2 (seq >= cut): + lang
# column ('l' || seq % 5). Cross-generation ordering is the runner's
# seed-first arrival fold: within a key, generation-1 rows fold before
# generation-2 rows regardless of event time — the window orders by
# (stage, ts, seq). Pre-evolution rows read as NULL under the evolved schema.
CDC_CAPTURE_EVOLVED = f"""
WITH transcripts AS ({TRANSCRIPTS_SQL}),
c AS (SELECT (max(seq) + 1) // 2 AS cut FROM transcripts),
ev AS (
    SELECT t.*, (t.seq >= c.cut) AS stage,
           CASE WHEN t.seq >= c.cut THEN 'l' || CAST(t.seq % 5 AS VARCHAR) END AS lang
    FROM transcripts t CROSS JOIN c
)
SELECT conv_id, turn_idx,
    CASE WHEN text IS NULL THEN 'd'
         WHEN row_number() OVER w = 1 THEN 'c' ELSE 'u' END            AS op,
    lag(CASE WHEN text IS NULL THEN NULL ELSE role END) OVER w         AS before_role,
    lag(text) OVER w                                                   AS before_text,
    lag(CASE WHEN text IS NULL THEN NULL ELSE tool END) OVER w         AS before_tool,
    lag(CASE WHEN text IS NULL THEN NULL ELSE lang END) OVER w         AS before_lang,
    lag(CASE WHEN text IS NULL THEN NULL ELSE ts END) OVER w           AS before_ts,
    CASE WHEN text IS NULL THEN NULL ELSE role END                     AS after_role,
    text                                                               AS after_text,
    CASE WHEN text IS NULL THEN NULL ELSE tool END                     AS after_tool,
    CASE WHEN text IS NULL THEN NULL ELSE lang END                     AS after_lang,
    CASE WHEN text IS NULL THEN NULL ELSE ts END                       AS after_ts,
    seq
FROM ev
WINDOW w AS (PARTITION BY conv_id, turn_idx ORDER BY stage, ts, seq)
"""

#: M9 headers placement: pk/ck columns duplicated into header fields
#: (reference ScyllaChangeRecordEmitter.java:816-901)
CDC_CAPTURE_HEADERS = (
    CDC_EVENTS_CTE
    + """
SELECT conv_id, turn_idx, op,
       before_role, before_text, before_tool, before_ts,
       after_role, after_text, after_tool, after_ts,
       seq,
       conv_id AS hdr_pk_conv_id,
       turn_idx AS hdr_ck_turn_idx
FROM cdc_events
"""
)

#: per-row TTL expiry (reference CdcPerRowTtlDeleteIT.java:121-218): a live
#: row expires ttl after its write unless a later same-key write lands first;
#: expiries materialize only inside the observed log timespan
TTL_US = 6 * 3_600_000_000

CDC_TTL_DELETES = f"""
WITH transcripts AS ({TRANSCRIPTS_SQL}),
r AS (
    SELECT *, lead(epoch_us(ts)) OVER
        (PARTITION BY conv_id, turn_idx ORDER BY ts, seq) AS next_ts_us
    FROM transcripts
),
h AS (SELECT max(epoch_us(ts)) AS horizon FROM transcripts)
SELECT conv_id, turn_idx, 'd' AS op,
       role AS before_role, text AS before_text, tool AS before_tool,
       ts AS before_ts,
       epoch_us(ts) + {TTL_US} AS expire_ts_us, seq
FROM r CROSS JOIN h
WHERE text IS NOT NULL
  AND (next_ts_us IS NULL OR next_ts_us > epoch_us(ts) + {TTL_US})
  AND epoch_us(ts) + {TTL_US} <= horizon
"""

#: multi-table routing (reference ScyllaTopicSelector.java:7-24): each
#: logical table gets an independent CDC fold — the window partitions by
#: table as well as key
CDC_MULTI_TABLE = """
WITH ev AS (
    SELECT *, CASE WHEN value < 50 THEN 't_low' ELSE 't_high' END AS tbl
    FROM events
),
transcripts AS (
    SELECT
        tbl,
        'conv' || CAST(user_id AS VARCHAR)            AS conv_id,
        CAST(event_id % 20 AS INTEGER)                AS turn_idx,
        CASE event_type
            WHEN 'click' THEN 'user'
            WHEN 'view' THEN 'assistant'
            WHEN 'purchase' THEN 'tool'
            WHEN 'signup' THEN 'system'
            ELSE '__tombstone__'
        END                                           AS role,
        CASE WHEN event_type = 'error' THEN NULL ELSE props END AS text,
        CASE WHEN event_type = 'purchase' THEN 'search' ELSE NULL END AS tool,
        ts                                            AS ts,
        event_id                                      AS seq
    FROM ev
)
SELECT conv_id, turn_idx,
    CASE WHEN text IS NULL THEN 'd'
         WHEN row_number() OVER w = 1 THEN 'c' ELSE 'u' END            AS op,
    lag(CASE WHEN text IS NULL THEN NULL ELSE role END) OVER w         AS before_role,
    lag(text) OVER w                                                   AS before_text,
    lag(CASE WHEN text IS NULL THEN NULL ELSE tool END) OVER w         AS before_tool,
    lag(CASE WHEN text IS NULL THEN NULL ELSE ts END) OVER w           AS before_ts,
    CASE WHEN text IS NULL THEN NULL ELSE role END                     AS after_role,
    text                                                               AS after_text,
    CASE WHEN text IS NULL THEN NULL ELSE tool END                     AS after_tool,
    CASE WHEN text IS NULL THEN NULL ELSE ts END                       AS after_ts,
    seq,
    tbl AS table_name
FROM transcripts
WINDOW w AS (PARTITION BY tbl, conv_id, turn_idx ORDER BY ts, seq)
"""

#: M8 map widening twin: attrs (map<int64,string> as key-ordered entry
#: structs) flattened to a canonical 'k:v,...' encoding on both sides;
#: NULL vs '' (empty map) vs entries are three distinct states
CDC_CAPTURE_MAPS = """
WITH transcripts AS (
    SELECT
        'conv' || CAST(user_id AS VARCHAR)            AS conv_id,
        CAST(event_id % 20 AS INTEGER)                AS turn_idx,
        CASE WHEN event_type = 'error' THEN NULL ELSE props END AS text,
        CASE WHEN event_type = 'error' THEN NULL
             WHEN value < 1 THEN ''
             WHEN value >= 10 THEN '0:' || event_type || ',7:high'
             ELSE '0:' || event_type END              AS attrs_csv,
        CASE event_type
            WHEN 'click' THEN 'user'
            WHEN 'view' THEN 'assistant'
            WHEN 'purchase' THEN 'tool'
            WHEN 'signup' THEN 'system'
            ELSE '__tombstone__'
        END                                           AS role,
        CASE WHEN event_type = 'purchase' THEN 'search' ELSE NULL END AS tool,
        ts, event_id AS seq
    FROM events
),
cdc AS (
    SELECT conv_id, turn_idx,
        CASE WHEN text IS NULL THEN 'd'
             WHEN row_number() OVER w = 1 THEN 'c'
             ELSE 'u' END AS op,
        CASE WHEN text IS NULL THEN NULL ELSE role END      AS a_role,
        text                                                AS a_text,
        CASE WHEN text IS NULL THEN NULL ELSE tool END      AS a_tool,
        attrs_csv                                           AS a_attrs,
        lag(CASE WHEN text IS NULL THEN NULL ELSE role END) OVER w AS b_role,
        lag(text) OVER w                                    AS b_text,
        lag(CASE WHEN text IS NULL THEN NULL ELSE tool END) OVER w AS b_tool,
        lag(attrs_csv) OVER w                               AS b_attrs,
        seq
    FROM transcripts
    WINDOW w AS (PARTITION BY conv_id, turn_idx ORDER BY ts, seq)
)
SELECT conv_id, turn_idx, op, seq,
       b_attrs AS before_attrs_csv, a_attrs AS after_attrs_csv,
       ltrim(concat(
           CASE WHEN a_attrs IS DISTINCT FROM b_attrs THEN ',attrs' ELSE '' END,
           CASE WHEN a_role IS DISTINCT FROM b_role THEN ',role' ELSE '' END,
           CASE WHEN a_text IS DISTINCT FROM b_text THEN ',text' ELSE '' END,
           CASE WHEN a_tool IS DISTINCT FROM b_tool THEN ',tool' ELSE '' END
       ), ',') AS modified_cols
FROM cdc
"""

#: non-frozen list reconstruction (reference emitter :669-746): elements
#: keyed by the (ts, seq) timeuuid analogue, rebuilt in key order regardless
#: of arrival order
CDC_LIST_REBUILD = f"""
WITH transcripts AS ({TRANSCRIPTS_SQL})
SELECT conv_id, turn_idx,
       string_agg(role, ',' ORDER BY ts, seq) AS elements_csv,
       count(*) AS n_elements
FROM transcripts
GROUP BY conv_id, turn_idx
"""

def _nibble_sql(col: str) -> str:
    """SQL twin of ``functions.dedup._nibble_of`` for INTEGER ids: bucket =
    (((u ^ (u>>33)) * phi64) mod 2^64) >> 60, computed with HUGEINT
    split-multiply so the 64x64 product never overflows INT128 — verified
    bit-identical to the numpy uint64 path incl. negative ids. Vectorized on
    both sides; md5 remains only for string-id sampling (no gated query
    samples by string id)."""
    m64 = "18446744073709551616"
    u = f"((CAST({col} AS HUGEINT) % {m64}) + {m64}) % {m64}"
    x = f"xor({u}, ({u}) // 8589934592)"
    mul = (
        f"(({x}) % 4294967296) * CAST(11400714819323198485 AS HUGEINT)"
        f" + ((({x}) // 4294967296) * CAST(11400714819323198485 AS HUGEINT))"
        f" % 4294967296 * 4294967296"
    )
    return f"CAST((({mul}) % {m64}) // 1152921504606846976 AS BIGINT)"


#: deterministic hash sampling (SURVEY §2.6): vectorized integer-mix bucket
#: test — reproducible across runs and cluster sizes, no RNG state
SAMPLE_DOCUMENTS = f"""
SELECT doc_id, lang, source
FROM documents
WHERE {_nibble_sql('doc_id')} < 2
"""


#: element-level non-frozen collection ops (reference M8 tail,
#: ScyllaChangeRecordEmitter.java:683-746 + :361-398): each added element is
#: a cell keyed by (ts, seq, pos); a wipe kills earlier cells; a remove kills
#: live cells by value; the post-image at each change is the live cells in
#: timeuuid order. SQL shape: per-cell kill-seq via decorrelated MINs, then an
#: interval-stab join cells × events.
CDC_LIST_ELEMENT_OPS = f"""
WITH eops AS ({ELEMENT_OPS_SQL}),
cells AS (
    SELECT conv_id, turn_idx, seq AS add_seq, event_type AS elem, 0 AS pos
    FROM eops WHERE kind IN ('add', 'wipe')
    UNION ALL
    SELECT conv_id, turn_idx, seq, 'high', 1
    FROM eops WHERE kind = 'add' AND value >= 10
),
killed AS (
    SELECT c.conv_id, c.turn_idx, c.add_seq, c.elem, c.pos,
        LEAST(
            COALESCE((SELECT MIN(w.seq) FROM eops w
                      WHERE w.conv_id = c.conv_id AND w.turn_idx = c.turn_idx
                        AND w.kind = 'wipe' AND w.seq > c.add_seq),
                     9223372036854775807),
            COALESCE((SELECT MIN(r.seq) FROM eops r
                      WHERE r.conv_id = c.conv_id AND r.turn_idx = c.turn_idx
                        AND r.kind = 'remove' AND r.event_type = c.elem
                        AND r.seq > c.add_seq),
                     9223372036854775807)
        ) AS kill_seq
    FROM cells c
),
after AS (
    SELECT e.conv_id, e.turn_idx, e.seq, e.kind,
           COALESCE(string_agg(k.elem, ',' ORDER BY k.add_seq, k.pos), '') AS after_csv,
           CAST(COUNT(k.elem) AS BIGINT) AS n_after
    FROM eops e LEFT JOIN killed k
      ON k.conv_id = e.conv_id AND k.turn_idx = e.turn_idx
     AND k.add_seq <= e.seq AND e.seq < k.kill_seq
    GROUP BY e.conv_id, e.turn_idx, e.seq, e.kind
)
SELECT conv_id, turn_idx, seq, kind, after_csv, n_after,
       lag(after_csv) OVER (PARTITION BY conv_id, turn_idx ORDER BY seq) AS before_csv,
       (kind <> 'none') AS elems_modified
FROM after
"""


#: set element-level ops (the set half of the reference's non-frozen
#: collection scenarios, ScyllaTypesAllBase set add/remove transitions): same
#: log as CDC_LIST_ELEMENT_OPS, but the cell key IS the element — re-adding
#: an element overwrites its cell (idempotent) and the post-image is the
#: distinct live elements in VALUE order (CQL sets cluster by element).
CDC_SET_ELEMENT_OPS = f"""
WITH eops AS ({ELEMENT_OPS_SQL}),
cells AS (
    SELECT conv_id, turn_idx, seq AS add_seq, event_type AS elem
    FROM eops WHERE kind IN ('add', 'wipe')
    UNION ALL
    SELECT conv_id, turn_idx, seq, 'high'
    FROM eops WHERE kind = 'add' AND value >= 10
),
killed AS (
    SELECT c.conv_id, c.turn_idx, c.add_seq, c.elem,
        LEAST(
            COALESCE((SELECT MIN(w.seq) FROM eops w
                      WHERE w.conv_id = c.conv_id AND w.turn_idx = c.turn_idx
                        AND w.kind = 'wipe' AND w.seq > c.add_seq),
                     9223372036854775807),
            COALESCE((SELECT MIN(r.seq) FROM eops r
                      WHERE r.conv_id = c.conv_id AND r.turn_idx = c.turn_idx
                        AND r.kind = 'remove' AND r.event_type = c.elem
                        AND r.seq > c.add_seq),
                     9223372036854775807),
            COALESCE((SELECT MIN(a2.add_seq) FROM cells a2
                      WHERE a2.conv_id = c.conv_id AND a2.turn_idx = c.turn_idx
                        AND a2.elem = c.elem AND a2.add_seq > c.add_seq),
                     9223372036854775807)
        ) AS kill_seq
    FROM cells c
),
after AS (
    SELECT e.conv_id, e.turn_idx, e.seq, e.kind,
           COALESCE(string_agg(k.elem, ',' ORDER BY k.elem), '') AS after_csv,
           CAST(COUNT(k.elem) AS BIGINT) AS n_after
    FROM eops e LEFT JOIN killed k
      ON k.conv_id = e.conv_id AND k.turn_idx = e.turn_idx
     AND k.add_seq <= e.seq AND e.seq < k.kill_seq
    GROUP BY e.conv_id, e.turn_idx, e.seq, e.kind
)
SELECT conv_id, turn_idx, seq, kind, after_csv, n_after,
       lag(after_csv) OVER (PARTITION BY conv_id, turn_idx ORDER BY seq) AS before_csv,
       (kind <> 'none') AS elems_modified
FROM after
"""


#: tuple-typed value column (reference ScyllaChangeRecordEmitter.java:749-764,
#: ScyllaSchema.java:390-406): struct<field_0,field_1> where an all-NULL
#: tuple is a VALUE distinct from a NULL tuple. Canonical-string comparison
#: ('~' for a NULL field — never a real value here) mirrors the engine's
#: set-ness-xor + null-aware field diff exactly.
CDC_CAPTURE_TUPLES = f"""
WITH transcripts AS (
    SELECT
        'conv' || CAST(user_id AS VARCHAR)            AS conv_id,
        CAST(event_id % 20 AS INTEGER)                AS turn_idx,
        CASE WHEN event_type = 'error' THEN NULL ELSE props END AS text,
        CASE WHEN event_type <> 'error' AND NOT (value >= 5 AND value < 10)
             THEN TRUE ELSE FALSE END                 AS p_set,
        CASE WHEN value >= 1 THEN CAST(floor(value) AS BIGINT) END AS p_f0,
        CASE WHEN value >= 1 THEN event_type END      AS p_f1,
        CASE event_type
            WHEN 'click' THEN 'user'
            WHEN 'view' THEN 'assistant'
            WHEN 'purchase' THEN 'tool'
            WHEN 'signup' THEN 'system'
            ELSE '__tombstone__'
        END                                           AS role,
        CASE WHEN event_type = 'purchase' THEN 'search' ELSE NULL END AS tool,
        ts, event_id AS seq
    FROM events
),
cdc AS (
    SELECT conv_id, turn_idx, seq, ts,
        CASE WHEN text IS NULL THEN 'd'
             WHEN row_number() OVER w = 1 THEN 'c'
             ELSE 'u' END AS op,
        CASE WHEN text IS NULL THEN FALSE ELSE p_set END           AS a_set,
        CASE WHEN text IS NULL OR NOT p_set THEN NULL ELSE p_f0 END AS a_f0,
        CASE WHEN text IS NULL OR NOT p_set THEN NULL ELSE p_f1 END AS a_f1,
        CASE WHEN text IS NULL OR NOT p_set THEN NULL
             ELSE 'f0:' || coalesce(CAST(p_f0 AS VARCHAR), '~')
                  || '|f1:' || coalesce(p_f1, '~') END             AS a_str,
        CASE WHEN text IS NULL THEN NULL ELSE role END             AS a_role,
        text                                                       AS a_text,
        CASE WHEN text IS NULL THEN NULL ELSE tool END             AS a_tool
    FROM transcripts
    WINDOW w AS (PARTITION BY conv_id, turn_idx ORDER BY ts, seq)
),
lagged AS (
    SELECT conv_id, turn_idx, seq, op,
        a_set, a_f0, a_f1,
        coalesce(lag(a_set) OVER w, FALSE) AS b_set,
        lag(a_f0) OVER w AS b_f0,
        lag(a_f1) OVER w AS b_f1,
        a_str, lag(a_str) OVER w AS b_str,
        a_role, lag(a_role) OVER w AS b_role,
        a_text, lag(a_text) OVER w AS b_text,
        a_tool, lag(a_tool) OVER w AS b_tool
    FROM cdc
    WINDOW w AS (PARTITION BY conv_id, turn_idx ORDER BY ts, seq)
)
SELECT conv_id, turn_idx, op, seq,
       a_set AS after_pair_set, a_f0 AS after_pair_f0, a_f1 AS after_pair_f1,
       b_set AS before_pair_set, b_f0 AS before_pair_f0, b_f1 AS before_pair_f1,
       ltrim(concat(
           CASE WHEN a_str IS DISTINCT FROM b_str THEN ',pair' ELSE '' END,
           CASE WHEN a_role IS DISTINCT FROM b_role THEN ',role' ELSE '' END,
           CASE WHEN a_text IS DISTINCT FROM b_text THEN ',text' ELSE '' END,
           CASE WHEN a_tool IS DISTINCT FROM b_tool THEN ',tool' ELSE '' END
       ), ',') AS modified_cols
FROM lagged
"""


#: IVF centroid seed vectors: fixed vec_ids (ascending — centroid POSITION
#: order must match the engine's, which indexes centroids by this order)
ANN_IVF_CENTROID_IDS = (0, 5, 10, 15, 20, 25, 30, 35)
ANN_IVF_NPROBE = 3

#: IVF ANN with fixed data-derived centroids (no Lloyd): bucket assignment is
#: argmax cosine over the centroid set, probing takes the nprobe nearest
#: buckets per query — both closed-form, so the whole probed top-k is exactly
#: SQL-recomputable (the seeded-Lloyd variant stays under pytest recall
#: bounds). Ties break by centroid position / vec_id on both sides.
ANN_IVF = f"""
WITH cent AS (
    SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cpos, embedding AS ce
    FROM embeddings WHERE vec_id IN {ANN_IVF_CENTROID_IDS}
),
assign AS (
    SELECT vec_id, bucket FROM (
        SELECT e.vec_id, c.cpos AS bucket,
               row_number() OVER (PARTITION BY e.vec_id
                                  ORDER BY list_cosine_similarity(e.embedding, c.ce) DESC,
                                           c.cpos) AS rn
        FROM embeddings e CROSS JOIN cent c
    ) WHERE rn = 1
),
q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 8),
probes AS (
    SELECT query_id, bucket FROM (
        SELECT q.query_id, c.cpos AS bucket,
               row_number() OVER (PARTITION BY q.query_id
                                  ORDER BY list_cosine_similarity(q.qe, c.ce) DESC,
                                           c.cpos) AS rn
        FROM q CROSS JOIN cent c
    ) WHERE rn <= {ANN_IVF_NPROBE}
),
scored AS (
    SELECT q.query_id, e.vec_id,
           row_number() OVER (PARTITION BY q.query_id
                              ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC,
                                       e.vec_id) AS rank
    FROM q
    JOIN probes p ON p.query_id = q.query_id
    JOIN assign a ON a.bucket = p.bucket
    JOIN embeddings e ON e.vec_id = a.vec_id
)
SELECT query_id, vec_id, rank FROM scored WHERE rank <= 5
"""


#: map element-level ops: upsert-by-key (overwrite kills the prior cell),
#: delete-by-key, wipe; post-image in KEY order (maps emit key-ordered,
#: reference emitter :719-735). Third kill candidate vs the list fold: the
#: next add of the same key.
CDC_MAP_ELEMENT_OPS = f"""
WITH mops AS ({MAP_ELEMENT_OPS_SQL}),
cells AS (
    SELECT conv_id, turn_idx, seq AS add_seq, event_type AS k, entry_val AS v
    FROM mops WHERE kind IN ('add', 'wipe')
    UNION ALL
    SELECT conv_id, turn_idx, seq, 'xtra', 'high'
    FROM mops WHERE kind = 'add' AND value >= 10
),
killed AS (
    SELECT c.conv_id, c.turn_idx, c.add_seq, c.k, c.v,
        LEAST(
            COALESCE((SELECT MIN(w.seq) FROM mops w
                      WHERE w.conv_id = c.conv_id AND w.turn_idx = c.turn_idx
                        AND w.kind = 'wipe' AND w.seq > c.add_seq),
                     9223372036854775807),
            COALESCE((SELECT MIN(r.seq) FROM mops r
                      WHERE r.conv_id = c.conv_id AND r.turn_idx = c.turn_idx
                        AND r.kind = 'remove' AND r.event_type = c.k
                        AND r.seq > c.add_seq),
                     9223372036854775807),
            COALESCE((SELECT MIN(a2.add_seq) FROM cells a2
                      WHERE a2.conv_id = c.conv_id AND a2.turn_idx = c.turn_idx
                        AND a2.k = c.k AND a2.add_seq > c.add_seq),
                     9223372036854775807)
        ) AS kill_seq
    FROM cells c
),
after AS (
    SELECT e.conv_id, e.turn_idx, e.seq, e.kind,
           COALESCE(string_agg(x.k || ':' || x.v, ',' ORDER BY x.k), '') AS after_csv,
           CAST(COUNT(x.k) AS BIGINT) AS n_after
    FROM mops e LEFT JOIN killed x
      ON x.conv_id = e.conv_id AND x.turn_idx = e.turn_idx
     AND x.add_seq <= e.seq AND e.seq < x.kill_seq
    GROUP BY e.conv_id, e.turn_idx, e.seq, e.kind
)
SELECT conv_id, turn_idx, seq, kind, after_csv, n_after,
       lag(after_csv) OVER (PARTITION BY conv_id, turn_idx ORDER BY seq) AS before_csv,
       (kind <> 'none') AS entries_modified
FROM after
"""


# --- ordered joins (SURVEY §2.4 extension: as-of / range) -------------------

#: stages/join.py::asof_join — latest prior click per purchase, per user.
#: DuckDB's native ASOF picks the greatest r.ts <= l.ts per left row,
#: exactly pandas merge_asof(direction='backward').
JOIN_ASOF_PURCHASE_CLICK = """
SELECT l.event_id,
       l.user_id,
       epoch_us(l.ts) AS ts_us,
       epoch_us(r.ts) AS ts_us_click,
       r.value AS value_click
FROM (SELECT * FROM events WHERE event_type = 'purchase') l
ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'click') r
  ON l.user_id = r.user_id AND l.ts >= r.ts
"""

#: stages/join.py::interval_join — purchases inside [error_ts, error_ts+10min)
#: windows of the same user; inner, one row per (purchase, window) pair.
JOIN_RANGE_ERROR_WINDOW = """
SELECT l.event_id,
       l.user_id,
       epoch_us(l.ts) AS ts_us,
       r.event_id AS err_event_id,
       epoch_us(r.ts) AS err_start_us
FROM events l
JOIN events r
  ON l.user_id = r.user_id
 AND l.event_type = 'purchase'
 AND r.event_type = 'error'
 AND epoch_us(l.ts) >= epoch_us(r.ts)
 AND epoch_us(l.ts) < epoch_us(r.ts) + 600000000
"""


# ---------------------------------------------------------------------------
# CEP pattern matching (stages/cep.py)
# ---------------------------------------------------------------------------
def _cep_sql(pattern: str) -> str:
    """Regex-CEP twin: per-conversation symbol string via string_agg (skips
    NULL symbols like the engine's is_valid filter), RE2 non-overlapping
    count + first match — DuckDB and Arrow both run RE2, so leftmost-first
    greedy semantics match by construction."""
    from .stages.cep import role_case_sql

    return f"""
WITH transcripts AS ({TRANSCRIPTS_SQL}),
syms AS (
    SELECT conv_id, {role_case_sql("role")} AS sym, ts, seq
    FROM transcripts
),
strs AS (
    SELECT conv_id, string_agg(sym, '' ORDER BY ts, seq) AS s
    FROM syms GROUP BY conv_id
)
SELECT conv_id,
       CAST(len(regexp_extract_all(s, '{pattern}')) AS BIGINT) AS n_matches,
       CASE WHEN regexp_matches(s, '{pattern}')
            THEN regexp_extract(s, '{pattern}') END AS first_match
FROM strs
"""


#: the gate pattern: a user turn, one-or-more tool calls, then an assistant turn
CEP_PATTERN = "ut+a"
CEP_PATTERN_MATCH = _cep_sql(CEP_PATTERN)

#: streaming CEP twin: LITERAL pattern, count = len(string_split) - 1 (same
#: non-overlapping left-to-right scan as the engine's pc.split_pattern fold)
CEP_STREAM_LITERAL = "uta"


def _cep_stream_sql(literal: str) -> str:
    from .stages.cep import role_case_sql

    return f"""
WITH transcripts AS ({TRANSCRIPTS_SQL}),
syms AS (
    SELECT conv_id, {role_case_sql("role")} AS sym, ts, seq
    FROM transcripts
),
strs AS (
    SELECT conv_id, string_agg(sym, '' ORDER BY ts, seq) AS s
    FROM syms GROUP BY conv_id
)
SELECT conv_id, CAST(len(string_split(s, '{literal}')) - 1 AS BIGINT) AS n_matches
FROM strs
"""


CEP_STREAM_PATTERN = _cep_stream_sql(CEP_STREAM_LITERAL)


def _cep_stream_regex_sql(pattern: str) -> str:
    """Streaming regex-CEP twin: the checkpointed DFA-carry runner must equal
    the GLOBAL RE2 non-overlapping count (DuckDB regexp_extract_all is RE2
    too) no matter where micro-batch boundaries fall."""
    from .stages.cep import role_case_sql

    return f"""
WITH transcripts AS ({TRANSCRIPTS_SQL}),
syms AS (
    SELECT conv_id, {role_case_sql("role")} AS sym, ts, seq
    FROM transcripts
),
strs AS (
    SELECT conv_id, string_agg(sym, '' ORDER BY ts, seq) AS s
    FROM syms GROUP BY conv_id
)
SELECT conv_id, CAST(len(regexp_extract_all(s, '{pattern}')) AS BIGINT) AS n_matches
FROM strs
"""


CEP_STREAM_REGEX = _cep_stream_regex_sql(CEP_PATTERN)


#: functions/similarity.py::grouped_centroid_sums — per-IVF-bucket
#: dimension-wise integer-grid sums + counts (the k-means update step).
#: floor (not round) before summing on BOTH sides: floor semantics are
#: identical in numpy and DuckDB, while round-half differs (banker's vs
#: away-from-zero). Bucket assignment reuses the ann_ivf fixed centroids.
EMBEDDING_CENTROIDS = f"""
WITH cent AS (
    SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cpos, embedding AS ce
    FROM embeddings WHERE vec_id IN {ANN_IVF_CENTROID_IDS}
),
assign AS (
    SELECT vec_id, bucket FROM (
        SELECT e.vec_id, c.cpos AS bucket,
               row_number() OVER (PARTITION BY e.vec_id
                                  ORDER BY list_cosine_similarity(e.embedding, c.ce) DESC,
                                           c.cpos) AS rn
        FROM embeddings e CROSS JOIN cent c
    ) WHERE rn = 1
),
flat AS (
    SELECT a.bucket,
           unnest(generate_series(0, len(e.embedding) - 1)) AS dim,
           unnest(e.embedding) AS val
    FROM embeddings e JOIN assign a USING (vec_id)
)
SELECT bucket, dim,
       CAST(sum(CAST(floor(CAST(val AS DOUBLE) * 1000000) AS BIGINT)) AS BIGINT) AS sum_q,
       CAST(count(*) AS BIGINT) AS n
FROM flat GROUP BY bucket, dim
"""


#: pipelines/minhash_stream.py — streaming arrival-order LSH near-dup
#: filter: a doc is dropped iff ANY earlier doc (by doc_id = arrival order)
#: shares a band signature, whether or not that doc was itself kept — one
#: anti-join, no transitive kept-set recursion, so micro-batching cannot
#: change the result. Reuses the exact minhash literal machinery; the unused
#: cand/jac CTEs are pruned by the planner.
DEDUP_STREAM_MINHASH = (
    _SHINGLES_CTE
    + _MINHASH_JAC_CTES
    + """,
dropped AS (
    SELECT DISTINCT y.doc_id
    FROM bands x JOIN bands y
      ON x.band = y.band AND x.band_key = y.band_key AND x.doc_id < y.doc_id
)
SELECT d.doc_id FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM dropped)
"""
)


#: functions/corpus.py::corpus_prep — the composed training-data pipeline:
#: quality filter (>= 0.3) -> exact dedup among survivors (min doc_id per
#: normalized content hash) -> deterministic 4/16 nibble sample. Each stage
#: reuses a gated operator's exact SQL semantics.
CORPUS_PREP = (
    "WITH qscore AS (" + QUALITY_SCORE + f"""),
q AS (
    SELECT d.doc_id, d.text, qs.quality_micro
    FROM documents d JOIN qscore qs USING (doc_id)
    WHERE qs.quality_micro >= 300000
),
dedup AS (
    SELECT min(doc_id) AS doc_id
    FROM q
    GROUP BY {NORM_MD5}
)
SELECT q.doc_id, q.quality_micro
FROM q JOIN dedup USING (doc_id)
WHERE """
    + _nibble_sql("q.doc_id")
    + " < 4\n"
)


#: stages/topk.py::grouped_quantiles_hist — mergeable fixed-width histogram
#: quantiles (the exact op's 100 TB scale path). p{q}_bin = the bin index
#: floor(value / W) holding the ascending element at 0-based rank
#: (n-1)*q//100; floor + float division are IEEE-identical in numpy and
#: DuckDB. Bin width 5.0 over events.value per event_type.
EVENT_VALUE_QUANTILES_HIST = """
WITH b AS (
    SELECT event_type, CAST(floor(value / 5.0) AS BIGINT) AS bin
    FROM events WHERE value IS NOT NULL
),
counts AS (SELECT event_type, bin, count(*) AS n FROM b GROUP BY 1, 2),
cum AS (
    SELECT event_type, bin,
           sum(n) OVER (PARTITION BY event_type ORDER BY bin) AS c,
           sum(n) OVER (PARTITION BY event_type) AS tot
    FROM counts
)
SELECT event_type,
       CAST(max(tot) AS BIGINT) AS n,
       CAST(min(CASE WHEN c > (tot - 1) * 25 // 100 THEN bin END) AS BIGINT) AS p25_bin,
       CAST(min(CASE WHEN c > (tot - 1) * 50 // 100 THEN bin END) AS BIGINT) AS p50_bin,
       CAST(min(CASE WHEN c > (tot - 1) * 95 // 100 THEN bin END) AS BIGINT) AS p95_bin
FROM cum GROUP BY event_type
"""


def _cep_session_sql(pattern: str, gap_us: int) -> str:
    """Sessionized-CEP twin: the WIN_SESSION sessionization (gap rule,
    (ts, seq) order) composed with the CEP string_agg + RE2 count."""
    from .stages.cep import role_case_sql

    return f"""
WITH transcripts AS ({TRANSCRIPTS_SQL}),
syms AS (
    SELECT conv_id, {role_case_sql("role")} AS sym, epoch_us(ts) AS ts_us, seq
    FROM transcripts
),
marks AS (
    SELECT conv_id, sym, ts_us, seq,
           CASE WHEN lag(ts_us) OVER w IS NULL
                     OR ts_us - lag(ts_us) OVER w > {gap_us}
                THEN 1 ELSE 0 END AS is_start
    FROM syms WINDOW w AS (PARTITION BY conv_id ORDER BY ts_us, seq)
),
sess AS (
    SELECT conv_id, sym, ts_us, seq,
           sum(is_start) OVER (PARTITION BY conv_id ORDER BY ts_us, seq
                               ROWS UNBOUNDED PRECEDING) AS sid
    FROM marks
),
strs AS (
    SELECT conv_id, sid, min(ts_us) AS session_start_us,
           string_agg(sym, '' ORDER BY ts_us, seq) AS s
    FROM sess GROUP BY conv_id, sid
)
SELECT conv_id, session_start_us,
       CAST(len(regexp_extract_all(s, '{pattern}')) AS BIGINT) AS n_matches
FROM strs
"""


CEP_SESSION_PATTERN = _cep_session_sql(CEP_PATTERN, GAP30M_US)


def _token_pack_sql(capacity: int) -> str:
    """stages/scan.py::token_pack_plan twin — the distributed prefix scan is
    one SQL window cumsum; pack_id = exclusive-prefix tokens // capacity."""
    from .functions.textops import TEXT_PATTERNS

    n_tokens = TEXT_PATTERNS["bpe_tokens"].sql_count()
    return f"""
WITH t AS (
    SELECT doc_id, CAST({n_tokens} AS BIGINT) AS n_tokens
    FROM documents
)
SELECT doc_id, n_tokens,
       CAST((CAST(sum(n_tokens) OVER (ORDER BY doc_id) AS BIGINT) - n_tokens)
            // {capacity} AS BIGINT) AS pack_id
FROM t
"""


TOKEN_PACK_CAPACITY = 4096
TOKEN_PACK_PLAN = _token_pack_sql(TOKEN_PACK_CAPACITY)


#: functions/corpus.py::quality_above_median — global exact median as the
#: broadcast filter threshold (aggregate → scalar → filter). Same 0-based
#: (n-1)*50//100 order-statistic convention as the quantile operators.
QUALITY_ABOVE_MEDIAN = (
    "WITH qscore AS (" + QUALITY_SCORE + """),
r AS (
    SELECT quality_micro,
           row_number() OVER (ORDER BY quality_micro) - 1 AS i,
           count(*) OVER () AS n
    FROM qscore
),
med AS (SELECT max(CASE WHEN i = (n - 1) * 50 // 100 THEN quality_micro END) AS m FROM r)
SELECT q.doc_id, q.quality_micro
FROM qscore q, med WHERE q.quality_micro >= med.m
"""
)


#: pipelines/relational.py::event_rollup — GROUP BY ROLLUP(event_type):
#: per-type rows plus the grand-total row (event_type NULL); counts exact,
#: sums integer-scaled (cents) so distributed order cannot matter.
EVENT_ROLLUP = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(value * 100.0) AS BIGINT)) AS BIGINT) AS sum_value_c
FROM events GROUP BY ROLLUP(event_type)
"""


#: stages/join.py::semi_anti_join — NOT EXISTS (anti) and EXISTS (semi)
#: against the orders fact table.
CUSTOMERS_WITHOUT_ORDERS = """
SELECT c_custkey, c_name FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderpriority = '1-URGENT')
"""

CUSTOMERS_WITH_ORDERS = """
SELECT c_custkey, c_name FROM customer c
WHERE EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)
"""


#: functions/dedup.py::stratified_sample — per-stratum nibble rates:
#: downsample the dominant language (en: 2/16), keep the rest at 8/16.
SAMPLE_STRATIFIED = f"""
SELECT doc_id, lang, source FROM documents
WHERE {_nibble_sql('doc_id')}
      < CASE WHEN lang = 'en' THEN 2 ELSE 8 END
"""


#: stages/join.py::shuffle_hash_join how='left_outer' — unmatched left rows
#: survive with NULL payload (customer side filtered to one segment so the
#: outer semantics actually fire).
ORDERS_LEFT_JOIN_SEGMENT = """
SELECT o.o_orderkey, o.o_custkey, c.c_mktsegment
FROM orders o
LEFT JOIN (SELECT c_custkey, c_mktsegment FROM customer
           WHERE c_mktsegment = 'BUILDING') c
  ON o.o_custkey = c.c_custkey
"""


#: stages/transforms.py::explode_list — UNNEST of the tags list column (the
#: flat-map family): NULL lists and [] contribute no rows; pos is 1-based.
UNNEST_TAGS = """
WITH t AS (
    SELECT event_id AS seq,
           CASE WHEN event_type = 'error' THEN NULL
                WHEN value < 1 THEN []
                WHEN value >= 10 THEN [event_type, 'high']
                ELSE [event_type] END AS tags
    FROM events
)
SELECT seq, unnest(tags) AS tag,
       CAST(unnest(generate_series(1, len(tags))) AS BIGINT) AS pos
FROM t
"""


#: pipelines/relational.py::event_type_pivot — PIVOT: one row per user
#: bucket, one count column per event type (filtered aggregation).
EVENT_TYPE_PIVOT = """
SELECT user_id % 10 AS bucket,
       CAST(count(*) FILTER (WHERE event_type = 'click') AS BIGINT) AS n_click,
       CAST(count(*) FILTER (WHERE event_type = 'view') AS BIGINT) AS n_view,
       CAST(count(*) FILTER (WHERE event_type = 'purchase') AS BIGINT) AS n_purchase,
       CAST(count(*) FILTER (WHERE event_type = 'signup') AS BIGINT) AS n_signup,
       CAST(count(*) FILTER (WHERE event_type = 'error') AS BIGINT) AS n_error
FROM events GROUP BY 1
"""


#: stages/op_derive-family consumer op: SCD2 history materialization — each
#: change version's validity interval [ts, next change of the same key);
#: the open (current) version has valid_to_us NULL. Pure lead() per key.
CDC_HISTORY_INTERVALS = f"""
WITH transcripts AS ({TRANSCRIPTS_SQL})
SELECT conv_id, turn_idx, seq, text,
       epoch_us(ts) AS valid_from_us,
       lead(epoch_us(ts)) OVER (PARTITION BY conv_id, turn_idx
                                ORDER BY ts, seq) AS valid_to_us
FROM transcripts
"""


def _token_topk_sql(k: int) -> str:
    """functions/textops.py::token_topk twin — same RE2 token pattern, same
    (count DESC, token ASC) total order at the LIMIT boundary."""
    from .functions.textops import BPE_TOKEN_RE

    pat = BPE_TOKEN_RE.replace("'", "''")
    return f"""
WITH toks AS (
    SELECT unnest(regexp_extract_all(coalesce(text, ''), '{pat}')) AS token
    FROM documents
)
SELECT token, CAST(count(*) AS BIGINT) AS n
FROM toks
GROUP BY token
ORDER BY n DESC, token
LIMIT {k}
"""


TOKEN_TOPK_K = 25
TOKEN_TOPK = _token_topk_sql(TOKEN_TOPK_K)


#: stages/analytic.py::analytic_functions — the six SQL window (analytic)
#: functions over the events table: row_number/lag/lead ordered by the
#: unique (ts, event_id), rank/dense_rank/cume_dist ordered by value with
#: SQL peer semantics (ties share rank; NULL is a peer of NULL, sorted
#: last; NULL user_id is ONE partition). cume_dist is an int64/int64 IEEE
#: double division — bit-identical on both sides.
EVENT_ANALYTICS = """
SELECT event_id, user_id,
       row_number() OVER w AS rn,
       rank() OVER (PARTITION BY user_id ORDER BY value) AS rnk,
       dense_rank() OVER (PARTITION BY user_id ORDER BY value) AS drnk,
       cume_dist() OVER (PARTITION BY user_id ORDER BY value) AS cd,
       lag(value) OVER w AS lag_value,
       lead(value) OVER w AS lead_value,
       ntile(4) OVER w AS nt,
       first_value(value) OVER w AS first_value
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def _doc_term_relevance_sql(k: int) -> str:
    """functions/textops.py::doc_term_relevance twin — same RE2 token
    pattern, integer relevance tf*1e6//df, same (rel DESC, token ASC)
    total order at the per-document k-boundary."""
    from .functions.textops import BPE_TOKEN_RE

    pat = BPE_TOKEN_RE.replace("'", "''")
    return f"""
WITH toks AS (
    SELECT doc_id,
           unnest(regexp_extract_all(coalesce(text, ''), '{pat}')) AS token
    FROM documents
), tf AS (
    SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf
    FROM toks GROUP BY doc_id, token
), dfx AS (
    SELECT token, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY token
), rel AS (
    SELECT t.doc_id, t.token, t.tf, d.df,
           CAST(t.tf * 1000000 // d.df AS BIGINT) AS rel_micro
    FROM tf t JOIN dfx d USING (token)
), rk AS (
    SELECT *, row_number() OVER (PARTITION BY doc_id
                                 ORDER BY rel_micro DESC, token) AS rank
    FROM rel
)
SELECT doc_id, token, tf, df, rel_micro, CAST(rank AS BIGINT) AS rank
FROM rk WHERE rank <= {k}
"""


DOC_TERM_RELEVANCE_K = 2
DOC_TERM_RELEVANCE = _doc_term_relevance_sql(DOC_TERM_RELEVANCE_K)


def _gram_matrix_sql(dims: int) -> str:
    """functions/similarity.py::gram_matrix twin — per-entry floor-to-grid
    sums of float64 products (float32 list elements cast exactly), one
    UNION ALL branch per upper-triangle entry."""
    parts = []
    for i in range(dims):
        for j in range(i, dims):
            parts.append(
                f"SELECT {i} AS i, {j} AS j, "
                "CAST(sum(CAST(floor("
                f"CAST(embedding[{i + 1}] AS DOUBLE) * "
                f"CAST(embedding[{j + 1}] AS DOUBLE) * 1000000"
                ") AS BIGINT)) AS BIGINT) AS s, "
                "CAST(count(*) AS BIGINT) AS n FROM embeddings"
            )
    return "\nUNION ALL\n".join(parts)


GRAM_MATRIX_DIMS = 8
GRAM_MATRIX = _gram_matrix_sql(GRAM_MATRIX_DIMS)


#: stages/join.py::bloom_prefilter_join — the Bloom prefilter is transparent
#: (false positives are dropped by the exact join behind it), so the twin is
#: a plain selective inner join.
BLOOM_JOIN_LINES = """
SELECT l.l_orderkey, l.l_partkey, l.l_linenumber, l.l_quantity
FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
WHERE p.p_size = 1
"""


#: pipelines/analytic_stream.py::AnalyticStreamRunner — running row_number /
#: lag / first_value per conversation; the state is a pure left-fold of the
#: seq order, so the oracle is the batch window SQL verbatim.
EVENT_ANALYTICS_STREAM = f"""
WITH transcripts AS ({TRANSCRIPTS_SQL}),
t AS (
    SELECT conv_id, seq,
           CAST(coalesce(length(text), 0) AS BIGINT) AS n_chars
    FROM transcripts)
SELECT conv_id, seq, n_chars,
       CAST(row_number() OVER w AS BIGINT) AS rn,
       lag(n_chars) OVER w AS lag_value,
       first_value(n_chars) OVER w AS first_value
FROM t WINDOW w AS (PARTITION BY conv_id ORDER BY seq)
"""


#: TPC-H Q3-shaped 3-way join; revenue in tenth-cents (same integer-scaled
#: money convention as Q1_PRICING), deterministic LIMIT via the full
#: (revenue DESC, date, orderkey) order the engine's top-k pins
Q3_SHIPPING_PRIORITY = """
SELECT l_orderkey,
       o_orderdate,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000.0) AS BIGINT)) AS BIGINT) AS revenue_dm
FROM customer
JOIN orders   ON o_custkey = c_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1998-03-15'
  AND l_shipdate  > TIMESTAMP '1998-03-15'
GROUP BY l_orderkey, o_orderdate
ORDER BY revenue_dm DESC, o_orderdate, l_orderkey
LIMIT 10
"""

#: grouped MODE with a deterministic tie-break (count DESC, source ASC) —
#: bare SQL mode() leaves ties unspecified, so both sides pin the rank
LANG_MODE_SOURCE = """
WITH c AS (SELECT lang, source, count(*) AS n FROM documents GROUP BY lang, source),
r AS (SELECT lang, source, n,
             row_number() OVER (PARTITION BY lang ORDER BY n DESC, source) AS rk
      FROM c)
SELECT lang, source AS mode_source, CAST(n AS BIGINT) AS mode_n
FROM r WHERE rk = 1
"""

#: event-time RANGE frame (peers included, inclusive window low bound);
#: cents-scaled so the frame sums are exact integers on both sides
EVENT_MOVING_SUM = """
SELECT event_id, user_id, ts,
       CAST(sum(CAST(round(value * 100.0) AS BIGINT)) OVER (
            PARTITION BY user_id ORDER BY ts
            RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW) AS BIGINT) AS moving_sum_c
FROM events
WHERE user_id IS NOT NULL AND ts IS NOT NULL AND value IS NOT NULL
"""

#: grouped Pearson corr from EXACT integer co-moments (HUGEINT sums), float
#: entering ONLY in the final formula — the identical expression the engine
#: evaluates from the same integers, so the comparison is bit-exact;
#: zero-variance groups excluded (SQL corr would be NULL)
EVENT_TYPE_CORR = """
WITH p AS (
  SELECT event_type,
         CAST(round(value * 100.0) AS BIGINT) AS x,
         user_id AS y
  FROM events WHERE value IS NOT NULL AND user_id IS NOT NULL),
m AS (
  SELECT event_type, count(*) AS n,
         sum(CAST(x AS HUGEINT)) AS sx, sum(CAST(y AS HUGEINT)) AS sy,
         sum(CAST(x AS HUGEINT) * x) AS sxx, sum(CAST(y AS HUGEINT) * y) AS syy,
         sum(CAST(x AS HUGEINT) * y) AS sxy
  FROM p GROUP BY event_type)
SELECT event_type,
       CAST(floor(CAST(n * sxy - sx * sy AS DOUBLE)
                  / sqrt(CAST(n * sxx - sx * sx AS DOUBLE) * CAST(n * syy - sy * sy AS DOUBLE))
                  * 1000000) AS BIGINT) AS corr_micro,
       CAST(n AS BIGINT) AS n
FROM m
WHERE n * sxx > sx * sx AND n * syy > sy * sy
"""


#: vectorized JSON-field extraction via regexp_extract — RE2 on both sides
#: (engine: pc.extract_regex), missing field -> NULL drops from sum/count
EVENT_PROPS_EXTRACT = """
WITH p AS (
  SELECT event_type,
         TRY_CAST(regexp_extract(props, '"k":\\s*(-?\\d+)', 1) AS BIGINT) AS k
  FROM events)
SELECT event_type,
       CAST(sum(k) AS BIGINT) AS sum_k,
       CAST(count(k) AS BIGINT) AS n_with_k
FROM p GROUP BY event_type
"""

#: PII-shaped masking: global regexp_replace + hit count, RE2 both sides
#: (engine: replace_substring_regex / count_substring_regex)
TEXT_REDACT = """
SELECT doc_id,
       regexp_replace(text, '\\bspark\\b', '[MASK]', 'g') AS text,
       CAST(coalesce(length(regexp_extract_all(text, '\\bspark\\b')), 0) AS BIGINT) AS n_hits
FROM documents
"""

#: grouped least-squares regression (x=value_cents on y=user_id) from the
#: same EXACT HUGEINT co-moments as EVENT_TYPE_CORR; every DOUBLE expression
#: is written in the engine's exact operand order so the compare is bit-exact
EVENT_TYPE_REGRESSION = """
WITH p AS (
  SELECT event_type,
         CAST(round(value * 100.0) AS BIGINT) AS x,
         user_id AS y
  FROM events WHERE value IS NOT NULL AND user_id IS NOT NULL),
m AS (
  SELECT event_type, count(*) AS n,
         sum(CAST(x AS HUGEINT)) AS sx, sum(CAST(y AS HUGEINT)) AS sy,
         sum(CAST(y AS HUGEINT) * y) AS syy,
         sum(CAST(x AS HUGEINT) * y) AS sxy
  FROM p GROUP BY event_type)
SELECT event_type,
       CAST(floor(CAST(n * sxy - sx * sy AS DOUBLE)
                  / CAST(n * syy - sy * sy AS DOUBLE) * 1000000) AS BIGINT) AS slope_micro,
       CAST(floor((CAST(sx AS DOUBLE)
                   - CAST(n * sxy - sx * sy AS DOUBLE) / CAST(n * syy - sy * sy AS DOUBLE)
                     * CAST(sy AS DOUBLE))
                  / CAST(n AS DOUBLE) * 1000000) AS BIGINT) AS intercept_micro,
       CAST(n AS BIGINT) AS n
FROM m
WHERE n * syy > sy * sy
"""

#: cohort retention matrix: first-active-day cohorts × later active days,
#: distinct users per cell; (user, day) pairs are made distinct first so
#: count(*) == count(DISTINCT user) per cell on both sides. Day numbering
#: goes through date_trunc so pre-1970 timestamps floor to the calendar day
#: (bare epoch_us(ts)//day would TRUNCATE toward zero for negatives, unlike
#: the engine's numpy floor-div; on the exact day multiple date_trunc
#: yields, // is exact for either sign)
COHORT_RETENTION = """
WITH p AS (
  SELECT DISTINCT user_id,
         epoch_us(date_trunc('day', ts)) // 86400000000 AS day
  FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL),
f AS (SELECT user_id, min(day) AS cohort_day FROM p GROUP BY user_id)
SELECT f.cohort_day, p.day - f.cohort_day AS offset_days,
       CAST(count(*) AS BIGINT) AS n_users
FROM p JOIN f USING (user_id)
GROUP BY 1, 2
"""

#: exact inter-arrival gap quantiles per (later event's) type; the multiset
#: of consecutive diffs of a sorted multiset is tie-order independent, and
#: both sides share the (n-1)*q//100 exact-quantile index convention
USER_GAP_STATS = """
WITH g AS (
  SELECT event_type,
         epoch_us(ts) - lag(epoch_us(ts)) OVER (
             PARTITION BY user_id ORDER BY ts, event_id) AS gap_us
  FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL),
v AS (SELECT event_type, gap_us FROM g WHERE gap_us IS NOT NULL),
r AS (
  SELECT event_type, gap_us,
         row_number() OVER (PARTITION BY event_type ORDER BY gap_us) - 1 AS i,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM v)
SELECT event_type, CAST(max(n) AS BIGINT) AS n,
       max(CASE WHEN i = (n - 1) * 50 // 100 THEN gap_us END) AS p50,
       max(CASE WHEN i = (n - 1) * 95 // 100 THEN gap_us END) AS p95
FROM r GROUP BY event_type
"""

#: per-column data-quality profile of documents; distincts are EXACT
#: (engine: md5-128 of the value, the dedup_exact_hashed convention)
DOC_COLUMN_PROFILE = """
SELECT 'lang' AS col, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(*) - count(lang) AS BIGINT) AS n_null,
       CAST(count(DISTINCT lang) AS BIGINT) AS n_distinct,
       CAST(coalesce(sum(length(lang)), 0) AS BIGINT) AS len_sum
FROM documents
UNION ALL
SELECT 'source', CAST(count(*) AS BIGINT), CAST(count(*) - count(source) AS BIGINT),
       CAST(count(DISTINCT source) AS BIGINT),
       CAST(coalesce(sum(length(source)), 0) AS BIGINT)
FROM documents
UNION ALL
SELECT 'text', CAST(count(*) AS BIGINT), CAST(count(*) - count(text) AS BIGINT),
       CAST(count(DISTINCT text) AS BIGINT),
       CAST(coalesce(sum(length(text)), 0) AS BIGINT)
FROM documents
"""

#: ordered-step funnel with STRICT min-time chaining: a user reaches step i
#: iff they have a step-i event strictly after their earliest qualifying
#: step-(i-1) time (same-timestamp events across steps do NOT chain — both
#: twins use the strict >)
FUNNEL_CONVERSION = """
WITH e AS (
  SELECT user_id, event_type, epoch_us(ts) AS us
  FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL),
s1 AS (SELECT user_id, min(us) AS t FROM e WHERE event_type = 'view' GROUP BY user_id),
s2 AS (SELECT e.user_id, min(e.us) AS t FROM e JOIN s1 USING (user_id)
       WHERE e.event_type = 'click' AND e.us > s1.t GROUP BY e.user_id),
s3 AS (SELECT e.user_id, min(e.us) AS t FROM e JOIN s2 USING (user_id)
       WHERE e.event_type = 'purchase' AND e.us > s2.t GROUP BY e.user_id)
SELECT CAST(1 AS BIGINT) AS step, 'view' AS event_type,
       CAST((SELECT count(*) FROM s1) AS BIGINT) AS n_users
UNION ALL
SELECT CAST(2 AS BIGINT), 'click', CAST((SELECT count(*) FROM s2) AS BIGINT)
UNION ALL
SELECT CAST(3 AS BIGINT), 'purchase', CAST((SELECT count(*) FROM s3) AS BIGINT)
"""

#: TPC-H Q5 shape: per-nation revenue where customer and supplier share the
#: nation, one region, one order-year; revenue in tenth-cents (the repo's
#: integer-exact money convention)
Q5_LOCAL_SUPPLIER_VOLUME = """
SELECT n_name,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000.0) AS BIGINT)) AS BIGINT) AS revenue_dm
FROM customer
JOIN orders   ON o_custkey = c_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation   ON s_nationkey = n_nationkey
JOIN region   ON n_regionkey = r_regionkey
WHERE c_nationkey = s_nationkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1997-01-01'
GROUP BY n_name
"""

#: interpolated (continuous) percentiles over integer cents; the engine
#: replicates quantile_cont's exact interpolation expression in float64,
#: so the DOUBLE outputs compare bit-for-bit
EVENT_VALUE_PERCENTILES_CONT = """
WITH v AS (
    SELECT event_type, CAST(round(value * 100.0) AS BIGINT) AS value_c
    FROM events WHERE value IS NOT NULL
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       quantile_cont(value_c, 0.25) AS p25,
       quantile_cont(value_c, 0.50) AS p50,
       quantile_cont(value_c, 0.95) AS p95
FROM v GROUP BY event_type
"""

#: pipelines/relational.py::q4_order_priority — TPC-H Q4-shaped EXISTS
#: semi-join (the testdata lineitem has no commit/receipt dates, so a
#: returned line stands in for Q4's late-line predicate).
Q4_ORDER_PRIORITY = """
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS order_count
FROM orders
WHERE o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1996-04-01'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_returnflag = 'R')
GROUP BY o_orderpriority
"""

#: pipelines/relational.py::event_transitions — per-user consecutive
#: event-type bigram counts in the shared (ts, event_id) total order; NULL
#: user/ts rows excluded on both sides (the SQL NULL partition would pool
#: every NULL user into one lag chain), NULL event_type kept as one group.
EVENT_TRANSITIONS = """
WITH s AS (
  SELECT event_type,
         lead(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS next_type,
         lead(user_id)    OVER (PARTITION BY user_id ORDER BY ts, event_id) AS next_user
  FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL
)
SELECT event_type, next_type, CAST(count(*) AS BIGINT) AS n
FROM s WHERE next_user IS NOT NULL
GROUP BY event_type, next_type
"""


def _inverted_index_sql() -> str:
    """functions/textops.py::inverted_index twin — same RE2 token pattern
    as token_topk, postings as the ascending-doc_id comma join."""
    from .functions.textops import BPE_TOKEN_RE

    pat = BPE_TOKEN_RE.replace("'", "''")
    return f"""
WITH toks AS (
    SELECT doc_id, unnest(regexp_extract_all(coalesce(text, ''), '{pat}')) AS token
    FROM documents
),
pairs AS (SELECT DISTINCT doc_id, token FROM toks)
SELECT token, CAST(count(*) AS BIGINT) AS df,
       string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS doc_ids
FROM pairs GROUP BY token
"""


INVERTED_INDEX = _inverted_index_sql()

#: functions/corpus.py::quality_floor_by_source — per-source exact p75
#: quality floor (CCNet-style per-domain bucket); shares the QUALITY_SCORE
#: CTE and the engine's (n-1)*q//100 exact-rank convention; NULL-source
#: docs excluded on both sides (equality join on source never matches NULL).
QUALITY_FLOOR_BY_SOURCE = (
    "WITH qscore AS (" + QUALITY_SCORE + """),
qs AS (
    SELECT q.doc_id, d.source, q.quality_micro
    FROM qscore q JOIN documents d USING (doc_id)
    WHERE d.source IS NOT NULL
),
r AS (
    SELECT source, quality_micro,
           row_number() OVER (PARTITION BY source ORDER BY quality_micro) - 1 AS i,
           count(*) OVER (PARTITION BY source) AS n
    FROM qs
),
fl AS (SELECT source, max(CASE WHEN i = (n - 1) * 75 // 100 THEN quality_micro END) AS f
       FROM r GROUP BY source)
SELECT qs.doc_id, qs.source, qs.quality_micro
FROM qs JOIN fl USING (source)
WHERE qs.quality_micro >= fl.f
"""
)


#: pipelines/relational.py::purchase_error_daily_join — FULL OUTER
#: co-partitioned hash join of two per-(user, day) pre-aggregates; both
#: outer directions fire (~40% orphans per side on the synthetic log).
#: Counts/sums COALESCEd to 0 exactly as the Ray side fills post-join.
PURCHASE_ERROR_DAILY_JOIN = """
WITH e AS (
    SELECT user_id, epoch_us(ts) // 86400000000 AS day, event_type,
           CAST(round(value * 100) AS BIGINT) AS cents
    FROM events
),
a AS (SELECT user_id, day, CAST(count(*) AS BIGINT) AS n_purchase,
             CAST(sum(cents) AS BIGINT) AS purchase_cents
      FROM e WHERE event_type = 'purchase' GROUP BY 1, 2),
b AS (SELECT user_id, day, CAST(count(*) AS BIGINT) AS n_error,
             CAST(sum(cents) AS BIGINT) AS error_cents
      FROM e WHERE event_type = 'error' GROUP BY 1, 2)
SELECT coalesce(a.user_id, b.user_id) AS user_id,
       coalesce(a.day, b.day) AS day,
       coalesce(a.n_purchase, 0) AS n_purchase,
       coalesce(a.purchase_cents, 0) AS purchase_cents,
       coalesce(b.n_error, 0) AS n_error,
       coalesce(b.error_cents, 0) AS error_cents
FROM a FULL OUTER JOIN b ON a.user_id = b.user_id AND a.day = b.day
"""


#: pipelines/relational.py::event_value_winsorized — grouped winsorized mean:
#: clamp to the exact [p5, p95] order statistics (the shared (n-1)*q//100
#: convention over floor(value*1e6) micro-ints), then average; the mean is
#: one double division rounded half-away to integer micro-units.
EVENT_VALUE_WINSORIZED = """
WITH v AS (
    SELECT event_type, CAST(floor(value * 1000000) AS BIGINT) AS vm
    FROM events WHERE value IS NOT NULL
),
r AS (
    SELECT event_type, vm,
           row_number() OVER (PARTITION BY event_type ORDER BY vm) - 1 AS i,
           count(*) OVER (PARTITION BY event_type) AS n
    FROM v
),
c AS (
    SELECT event_type,
           max(CASE WHEN i = (n - 1) * 5 // 100 THEN vm END) AS lo_vm,
           max(CASE WHEN i = (n - 1) * 95 // 100 THEN vm END) AS hi_vm
    FROM r GROUP BY event_type
)
SELECT v.event_type,
       CAST(count(*) AS BIGINT) AS n,
       max(c.lo_vm) AS lo_vm,
       max(c.hi_vm) AS hi_vm,
       CAST(round(CAST(sum(least(greatest(v.vm, c.lo_vm), c.hi_vm)) AS DOUBLE)
                  / count(*)) AS BIGINT) AS winsor_mean_vm
FROM v JOIN c USING (event_type)
GROUP BY v.event_type
"""


def _model_quality_filter_sql() -> str:
    """Generated from the SAME weights/cap/threshold constants the engine's
    broadcast model uses (functions/inference.py) — zero-drift twin, like
    LangId.oracle_sql()."""
    from .functions.inference import CHAR_CAP, DEFAULT_THRESHOLD, DEFAULT_WEIGHTS

    w = DEFAULT_WEIGHTS
    return rf"""
WITH s AS (
    SELECT source,
           coalesce(length(text), 0) AS ch,
           coalesce(length(regexp_extract_all(text, '\S+')), 0) AS w,
           coalesce(length(regexp_extract_all(text, '[.,;:!?]')), 0) AS p,
           coalesce(length(regexp_extract_all(text, '\b(the|and|of|a|to|in|is)\b')), 0) AS st
    FROM documents
),
sc AS (
    SELECT source,
           {w['stat_words']} * w + {w['stat_punct']} * p + {w['stat_stop']} * st
           + {w['stat_chars']} * least(ch, {CHAR_CAP}) AS score
    FROM s
)
SELECT source,
       CAST(count(*) AS BIGINT) AS n_total,
       CAST(count(*) FILTER (WHERE score >= {DEFAULT_THRESHOLD}) AS BIGINT) AS n_kept,
       CAST(coalesce(sum(score) FILTER (WHERE score >= {DEFAULT_THRESHOLD}), 0) AS BIGINT)
           AS kept_score_sum
FROM sc GROUP BY source
"""


MODEL_QUALITY_FILTER = _model_quality_filter_sql()


#: functions/dedup.py::weighted_sample — importance sampling: keep-rate
#: proportional to n_chars (clamped buckets of 16), same integer-mix nibble
#: rule as the other deterministic samplers.
SAMPLE_WEIGHTED = f"""
SELECT doc_id, source, n_chars FROM documents
WHERE n_chars IS NOT NULL
  AND {_nibble_sql('doc_id')} < least(greatest(n_chars // 100, 1), 8)
"""


#: functions/similarity.py::embedding_quantize — per-vector max-abs int8
#: quantization summaries: q_i = round(127 * x/maxabs) half-away over
#: DOUBLE-widened float32 operands, all-zero vectors -> all-zero codes.
EMBEDDING_QUANTIZE = """
WITH u AS (
    SELECT vec_id, unnest(embedding) AS x FROM embeddings
),
m AS (
    -- from the list column directly (NOT via unnest) so 0-dim vectors
    -- survive with n_dims 0 / maxabs 0, exactly like the engine
    SELECT vec_id, CAST(len(embedding) AS BIGINT) AS n_dims,
           CAST(coalesce(list_max(list_transform(embedding, x -> abs(x))), 0)
                AS DOUBLE) AS maxabs
    FROM embeddings
),
q AS (
    SELECT u.vec_id,
           CASE WHEN m.maxabs = 0 THEN 0
                ELSE CAST(round(127 * (CAST(u.x AS DOUBLE) / m.maxabs)) AS BIGINT)
           END AS qi
    FROM u JOIN m USING (vec_id)
)
SELECT m.vec_id, m.n_dims, m.maxabs,
       CAST(coalesce(sum(q.qi), 0) AS BIGINT) AS q_sum,
       CAST(coalesce(sum(q.qi * q.qi), 0) AS BIGINT) AS q_norm
FROM m LEFT JOIN q USING (vec_id)
GROUP BY m.vec_id, m.n_dims, m.maxabs
"""


#: pipelines/embedding_stream.py::EmbeddingLshStreamRunner — arrival-order
#: SRP-LSH candidate suppression: a vector is dropped iff ANY earlier vector
#: (lower vec_id) shares a (table, signature) key; earlier vectors count
#: whether or not they were themselves kept (one anti-join, order-robust).
#: Hyperplane literals shared with the batch DEDUP_EMBEDDING_LSH twin.
EMBEDDING_LSH_STREAM = f"""
WITH planes(t, p, vec) AS (VALUES {_lsh_plane_values()}),
sig AS (
    SELECT e.vec_id, pl.t,
           CAST(sum(CASE WHEN list_dot_product(CAST(e.embedding AS DOUBLE[]), pl.vec) > 0
                         THEN 1 << pl.p ELSE 0 END) AS BIGINT) AS s
    FROM embeddings e CROSS JOIN planes pl
    GROUP BY e.vec_id, pl.t
),
collided AS (
    SELECT DISTINCT a.vec_id
    FROM sig a JOIN sig b ON a.t = b.t AND a.s = b.s AND b.vec_id < a.vec_id
)
SELECT e.vec_id FROM embeddings e
WHERE e.vec_id NOT IN (SELECT vec_id FROM collided)
"""


#: unigram-LM surprise twin (functions.textops.unigram_surprise, full-vocab
#: mode): add-one-smoothed inverse probability in integer micro-units —
#: per token ip = (N+V)*1e6 // (c+1), per doc surprise = sum(ip) // L. All
#: integer arithmetic (HUGEINT), so the engine matches bit-exactly with no
#: libm-log divergence; empty docs score 0 with n_words 0.
UNIGRAM_SURPRISE = f"""
WITH d AS (SELECT doc_id,
             regexp_replace(lower(coalesce(text, '')), '^\\s+|\\s+$', '', 'g') AS t
           FROM documents),
w AS (SELECT doc_id,
        CASE WHEN t = '' THEN [] ELSE regexp_split_to_array(t, '\\s+') END AS ws
      FROM d),
tok AS (SELECT doc_id,
          unnest(list_transform(ws, x -> CAST(md5_number_upper(x) AS HUGEINT) % {_M})) AS wh
        FROM w WHERE len(ws) > 0),
counts AS (SELECT wh, count(*) AS c FROM tok GROUP BY wh),
tot AS (SELECT sum(c) AS n, count(*) AS v FROM counts),
scored AS (SELECT t.doc_id, count(*) AS L,
                  sum((tot.n + tot.v) * 1000000 // (c.c + 1)) AS s
           FROM tok t JOIN counts c USING (wh) CROSS JOIN tot
           GROUP BY t.doc_id)
SELECT dd.doc_id,
       CAST(coalesce(s.L, 0) AS BIGINT) AS n_words,
       CAST(coalesce(s.s // s.L, 0) AS BIGINT) AS surprise_micro
FROM documents dd LEFT JOIN scored s ON s.doc_id = dd.doc_id
"""


def _substring_fold_expr(k: int) -> str:
    """k-term polynomial gram fold over wh[i..i+k-1], mod applied per step —
    textually mirrors dedup._addmod's fold order."""
    e = "wh[i]"
    for j in range(1, k):
        e = f"({e} * {_B} + wh[i+{j}]) % {_M}"
    return e


def substring_dedup_sql(k: int = 8) -> str:
    """Twin of functions.dedup.substring_dedup over documents: every word
    k-gram occurrence after the global first (ORDER BY doc_id, position)
    covers its k-word span; uncovered words re-join in order. All-integer
    gram hashes (the shared md5 word hash + polynomial fold), exact."""
    return f"""
WITH d AS (SELECT doc_id,
             regexp_replace(lower(coalesce(text, '')), '^\\s+|\\s+$', '', 'g') AS t,
             regexp_replace(coalesce(text, ''), '^\\s+|\\s+$', '', 'g') AS t0
           FROM documents),
w AS (SELECT doc_id,
        CASE WHEN t = '' THEN [] ELSE regexp_split_to_array(t, '\\s+') END AS ws,
        CASE WHEN t0 = '' THEN [] ELSE regexp_split_to_array(t0, '\\s+') END AS ws0
      FROM d),
h AS (SELECT doc_id, ws0,
        list_transform(ws, x -> CAST(md5_number_upper(x) AS HUGEINT) % {_M}) AS wh,
        len(ws) AS L
      FROM w),
g AS (SELECT doc_id, i, {_substring_fold_expr(k)} AS gh
      FROM (SELECT doc_id, wh, L, unnest(generate_series(1, L - {k} + 1)) AS i
            FROM h WHERE L >= {k})),
cuts AS (SELECT doc_id, i FROM (
           SELECT doc_id, i,
                  row_number() OVER (PARTITION BY gh ORDER BY doc_id, i) AS rn
           FROM g) WHERE rn > 1),
ks AS (SELECT unnest(generate_series(0, {k - 1})) AS j),
covered AS (SELECT DISTINCT doc_id, i + j AS widx FROM cuts CROSS JOIN ks),
wordsx AS (SELECT doc_id, unnest(ws0) AS word,
                  unnest(generate_series(1, len(ws0))) AS widx
           FROM w WHERE len(ws0) > 0),
kept AS (SELECT x.doc_id, x.widx, x.word FROM wordsx x
         WHERE NOT EXISTS (SELECT 1 FROM covered c
                           WHERE c.doc_id = x.doc_id AND c.widx = x.widx)),
agg AS (SELECT doc_id, string_agg(word, ' ' ORDER BY widx) AS text_dedup,
               count(*) AS n_kept
        FROM kept GROUP BY doc_id),
tot AS (SELECT doc_id, len(ws0) AS n_total FROM w WHERE len(ws0) > 0)
SELECT t.doc_id, a.text_dedup,
       CAST(coalesce(a.n_kept, 0) AS BIGINT) AS n_words_kept,
       CAST(t.n_total AS BIGINT) AS n_words_total
FROM tot t LEFT JOIN agg a USING (doc_id)
"""


SUBSTRING_DEDUP = substring_dedup_sql(8)


#: cross-dataset decontamination twin (textops.decontaminate_against):
#: blocklist = distinct 3-grams of the benchmark slice (doc_id < 20 of the
#: same table — a stand-in for a separate eval-suite table); every doc
#: appears, n_hits = distinct shared shingles
DECONTAMINATE_CROSS = (
    _SHINGLES_CTE
    + """,
bench AS (SELECT DISTINCT gh FROM shingles WHERE doc_id < 20),
hits AS (SELECT s.doc_id, count(*) AS n_hits
         FROM shingles s JOIN bench b ON b.gh = s.gh GROUP BY s.doc_id)
SELECT dd.doc_id,
       CAST(coalesce(h.n_hits, 0) AS BIGINT) AS n_hits,
       CAST(CASE WHEN coalesce(h.n_hits, 0) > 0 THEN 1 ELSE 0 END AS BIGINT)
           AS contaminated
FROM documents dd LEFT JOIN hits h ON h.doc_id = dd.doc_id
"""
)


def search_bm25_sql(terms: tuple[str, ...], k1: float = 1.2, b: float = 0.75) -> str:
    """Twin of textops.search_bm25: same tokenizer CTE, same formula with
    the same operation order; the 6-dp round on both sides absorbs libm
    ulp differences (the ann-gate float precedent)."""
    values = ", ".join(
        "('{}')".format(t.replace("'", "''")) for t in sorted({t.lower() for t in terms})
    )
    return f"""
WITH d AS (SELECT doc_id,
             regexp_replace(lower(coalesce(text, '')), '^\\s+|\\s+$', '', 'g') AS t
           FROM documents),
w AS (SELECT doc_id,
        CASE WHEN t = '' THEN [] ELSE regexp_split_to_array(t, '\\s+') END AS ws
      FROM d),
stats AS (SELECT count(*) AS n, sum(len(ws)) AS wtot FROM w),
ln AS (SELECT doc_id, len(ws) AS l FROM w),
tok AS (SELECT doc_id, unnest(ws) AS word FROM w WHERE len(ws) > 0),
q(term) AS (VALUES {values}),
tf AS (SELECT doc_id, term, count(*) AS tf
       FROM tok JOIN q ON word = term GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM tf GROUP BY term),
scored AS (SELECT tf.doc_id,
                  count(*) AS n_terms,
                  sum(ln((stats.n - df.df + 0.5) / (df.df + 0.5))
                      * tf.tf * ({k1} + 1.0)
                      / (tf.tf + {k1} * (1.0 - {b} + {b} * ln.l
                                         / (stats.wtot / stats.n)))) AS score
           FROM tf JOIN df USING (term) JOIN ln USING (doc_id)
           CROSS JOIN stats
           GROUP BY tf.doc_id)
SELECT doc_id, CAST(n_terms AS BIGINT) AS n_terms, round(score, 6) AS score
FROM scored
"""


SEARCH_BM25 = search_bm25_sql(("table", "scan", "window"))


#: Gopher quality-rule twin (textops.gopher_rules, default thresholds):
#: word-count bounds, mean word length, alpha-word fraction — all integer
#: micro-units. Word lengths are Unicode codepoint counts on both sides
#: (arrow utf8_length == DuckDB length on VARCHAR).
GOPHER_RULES = r"""
WITH d AS (SELECT doc_id, coalesce(text, '') AS t FROM documents),
w AS (SELECT doc_id,
        CASE WHEN regexp_replace(t, '^[ \t\n\r\f]+|[ \t\n\r\f]+$', '', 'g') = ''
             THEN []
             ELSE regexp_split_to_array(
                    regexp_replace(t, '^[ \t\n\r\f]+|[ \t\n\r\f]+$', '', 'g'),
                    '[ \t\n\r\f]+')
        END AS ws
      FROM d),
tok AS (SELECT doc_id, unnest(ws) AS word FROM w WHERE len(ws) > 0),
st AS (SELECT doc_id, count(*) AS n, sum(length(word)) AS sl,
              sum(CASE WHEN regexp_matches(word, '[a-zA-Z]') THEN 1 ELSE 0 END) AS na
       FROM tok GROUP BY doc_id),
alldocs AS (SELECT w.doc_id,
                coalesce(st.n, 0) AS n,
                CASE WHEN coalesce(st.n, 0) > 0 THEN st.sl * 1000000 // st.n ELSE 0 END AS mw,
                CASE WHEN coalesce(st.n, 0) > 0 THEN st.na * 1000000 // st.n ELSE 0 END AS af
         FROM w LEFT JOIN st ON st.doc_id = w.doc_id)
SELECT doc_id,
       CAST(n AS BIGINT) AS n_words,
       CAST(mw AS BIGINT) AS mean_wlen_micro,
       CAST(af AS BIGINT) AS alpha_frac_micro,
       CAST(CASE WHEN n >= 5 AND n <= 200000
                  AND mw >= 2000000 AND mw <= 10000000
                  AND af >= 800000
             THEN 1 ELSE 0 END AS BIGINT) AS gopher_keep
FROM alldocs
"""


#: per-event session-id assignment twin (pipelines.relational.sessionize,
#: 1-hour gap): lag-gap session breaks, running count per user; total order
#: (ts, event_id) makes the assignment deterministic
SESSIONIZE = """
WITH e AS (SELECT event_id, user_id, ts FROM events
           WHERE user_id IS NOT NULL AND ts IS NOT NULL),
l AS (SELECT event_id, user_id, ts,
        CASE WHEN lag(ts) OVER w IS NULL
              OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 3600000000
             THEN 1 ELSE 0 END AS new_sess
      FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT event_id, user_id,
       CAST(sum(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id,
       CAST(new_sess AS BIGINT) AS is_session_start
FROM l
"""
