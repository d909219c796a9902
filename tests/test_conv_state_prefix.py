"""The conversation-state kernel (``stages.join.conv_state_prefix``) against
its per-row predecessor, kept here as the oracle: the vectorized seed lookup
must give byte-identical enriched rows and state on any block and seed."""

import io

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from hypothesis import given, settings
from hypothesis import strategies as st

from scylla_cdc_source_connector_ray.schema import SEQ_COL
from scylla_cdc_source_connector_ray.stages.join import CONV_STATE_SCHEMA, conv_state_prefix


def _reference(
    t: pa.Table, seed: pa.Table | None = None
) -> tuple[pa.Table, pa.Table]:
    """``conv_state_prefix`` as it was before its seed lookup was
    vectorized: a pandas dict over the seed, a Python loop over conversation
    starts and per-row lists. Kept as the oracle of the vectorized kernel."""
    sort_keys = [("conv_id", "ascending"), ("ts", "ascending")]
    if SEQ_COL in t.column_names:
        sort_keys.append((SEQ_COL, "ascending"))
    t = t.sort_by(sort_keys)
    n = t.num_rows
    conv = t["conv_id"].combine_chunks()
    conv_np = conv.to_numpy(zero_copy_only=False)
    new_conv = np.ones(n, dtype=bool)
    if n:
        new_conv[1:] = conv_np[1:] != conv_np[:-1]

    # a pre-projected block carries "chars" instead of the text payload
    if "chars" in t.column_names:
        chars = t["chars"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    else:
        chars = (
            pc.fill_null(pc.utf8_length(t["text"].combine_chunks()), 0)
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
    ts_us = t["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    role_np = t["role"].combine_chunks().to_numpy(zero_copy_only=False)

    # seed lookup per first-row-of-conv
    seed_map: dict[str, tuple[int, int, str | None, int | None]] = {}
    if seed is not None and seed.num_rows:
        sd = seed.to_pandas()
        seed_map = {
            r.conv_id: (r.n_turns, r.n_chars, r.last_role, r.last_ts_us)
            for r in sd.itertuples(index=False)
        }

    # exclusive prefix counts/sums per conv: cumsum minus each conv's base
    ones = np.ones(n, dtype=np.int64)
    cum_n = np.cumsum(ones)
    cum_c = np.cumsum(chars)
    starts = np.flatnonzero(new_conv)
    # base at conv start = cumulative value just before the conv's first row
    base_n = np.zeros(n, dtype=np.int64)
    base_c = np.zeros(n, dtype=np.int64)
    idx = np.maximum.accumulate(np.where(new_conv, np.arange(n), 0)) if n else None
    if n:
        base_n[starts] = cum_n[starts] - 1
        base_c[starts] = cum_c[starts] - chars[starts]
        # propagate each conv's base forward across its rows
        base_n = base_n[idx]
        base_c = base_c[idx]
    prior_turns = cum_n - 1 - base_n
    prior_chars = cum_c - chars - base_c

    # seed offsets + last_role/last_ts via shift-within-conv
    seed_n = np.zeros(n, dtype=np.int64)
    seed_c = np.zeros(n, dtype=np.int64)
    last_role = np.empty(n, dtype=object)
    last_ts = np.full(n, np.nan)
    if n:
        last_role[1:] = role_np[:-1]
        last_ts[1:] = ts_us[:-1]
        for s in starts:
            cid = conv_np[s]
            if cid in seed_map:
                sn, sc, sr, st_ = seed_map[cid]
                seed_n[s] = sn
                seed_c[s] = sc
                last_role[s] = sr
                last_ts[s] = st_ if st_ is not None else np.nan
            else:
                last_role[s] = None
                last_ts[s] = np.nan
        # propagate seed offsets across the conv's rows (idx computed above)
        seed_n = seed_n[idx]
        seed_c = seed_c[idx]

    prior_turns = prior_turns + seed_n
    prior_chars = prior_chars + seed_c

    enriched = (
        t.append_column("prior_turns", pa.array(prior_turns, pa.int64()))
        .append_column("prior_chars", pa.array(prior_chars, pa.int64()))
        .append_column("prev_role", pa.array(last_role, pa.string()))
        .append_column(
            "prev_ts_us",
            pa.array([None if np.isnan(x) else int(x) for x in last_ts], pa.int64()),
        )
    )

    # new state: totals per conv (inclusive), last row's role/ts
    if n:
        ends = np.append(starts[1:] - 1, n - 1)
        new_state = pa.table(
            {
                "conv_id": pc.take(conv, pa.array(starts, pa.int64())),
                "n_turns": pa.array(prior_turns[ends] + 1, pa.int64()),
                "n_chars": pa.array(prior_chars[ends] + chars[ends], pa.int64()),
                "last_role": pc.take(t["role"].combine_chunks(), pa.array(ends, pa.int64())),
                "last_ts_us": pa.array(ts_us[ends], pa.int64()),
            }
        )
        # carry forward seeded convs not present in this block
        if seed is not None and seed.num_rows:
            present = set(new_state["conv_id"].to_pylist())
            missing = seed.filter(
                pa.array([c not in present for c in seed["conv_id"].to_pylist()])
            )
            if missing.num_rows:
                # blocks off the Ray exchange carry large_string while a
                # parquet-read seed carries string — pin both to the schema
                new_state = pa.concat_tables(
                    [
                        new_state.select(CONV_STATE_SCHEMA.names).cast(CONV_STATE_SCHEMA),
                        missing.select(CONV_STATE_SCHEMA.names).cast(CONV_STATE_SCHEMA),
                    ]
                )
    else:
        new_state = (
            seed.select(CONV_STATE_SCHEMA.names).cast(CONV_STATE_SCHEMA)
            if seed is not None
            else CONV_STATE_SCHEMA.empty_table()
        )
    return enriched, new_state


CONVS = ["a", "b", "c", None]
SEED_CONVS = ["a", "c", "d", "e", None]  # d and e are seed-only
#: timestamps stay below 2**53: the oracle carries previous timestamps as
#: float64, which is exact only up to there
TS = st.integers(0, 4).map(lambda x: 1_700_000_000_000_000 + x)

ROW = st.tuples(
    st.sampled_from(CONVS),
    TS,
    st.integers(0, 2),  # (ts, seq) ties
    st.sampled_from([None, "user", "assistant", "tool"]),
    st.sampled_from([None, "", "hi", "héllo wörld"]),
)
SEED_ROW = st.tuples(
    st.integers(0, 50),
    st.integers(0, 10_000),
    st.sampled_from([None, "user", "assistant"]),
    st.one_of(st.none(), TS),
)


def _block(rows, with_seq):
    conv, ts, seq, role, text = zip(*rows) if rows else ([], [], [], [], [])
    cols = {
        "conv_id": pa.array(conv, pa.string()),
        "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "role": pa.array(role, pa.string()),
        "text": pa.array(text, pa.string()),
    }
    if with_seq:
        cols[SEQ_COL] = pa.array(seq, pa.int64())
    return pa.table(cols)


def _seed(convs, rows, large):
    str_type = pa.large_string() if large else pa.string()
    n_turns, n_chars, role, ts = zip(*rows) if rows else ([], [], [], [])
    return pa.table(
        {
            "conv_id": pa.array(convs, str_type),
            "n_turns": pa.array(n_turns, pa.int64()),
            "n_chars": pa.array(n_chars, pa.int64()),
            "last_role": pa.array(role, str_type),
            "last_ts_us": pa.array(ts, pa.int64()),
        }
    )


def _parquet(t):
    buf = io.BytesIO()
    pq.write_table(t, buf)
    return buf.getvalue()


def _assert_same(t, seed):
    got, want = conv_state_prefix(t, seed), _reference(t, seed)
    for g, w in zip(got, want):
        assert g.schema == w.schema
        assert g.equals(w)
        assert _parquet(g) == _parquet(w)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(ROW, max_size=24),
    with_seq=st.booleans(),
    seed_convs=st.one_of(
        st.none(), st.lists(st.sampled_from(SEED_CONVS), unique=True, max_size=len(SEED_CONVS))
    ),
    seed_rows=st.lists(SEED_ROW, min_size=len(SEED_CONVS), max_size=len(SEED_CONVS)),
    large=st.booleans(),
)
def test_matches_per_row_oracle(rows, with_seq, seed_convs, seed_rows, large):
    seed = None if seed_convs is None else _seed(seed_convs, seed_rows[: len(seed_convs)], large)
    _assert_same(_block(rows, with_seq), seed)


def test_edge_cases():
    t = _block([("a", 1, 0, "user", None), ("a", 1, 0, None, "x"), ("b", 0, 1, "tool", "")], True)
    empty_seed = _seed([], [], False)
    only_seed = _seed(["d", "e"], [(3, 9, "user", 7), (1, 0, None, None)], True)
    for block, seed in [
        (t, None),
        (t, empty_seed),
        (t, only_seed),  # every seeded conv is carried forward
        (t.slice(0, 0), None),
        (t.slice(0, 0), empty_seed),
        (t.slice(0, 0), only_seed),
    ]:
        _assert_same(block, seed)
    # a seeded conv continues: its first turn sees the seed's last turn
    enriched, state = conv_state_prefix(t, _seed(["a"], [(4, 10, "assistant", 5)], False))
    first = enriched.slice(0, 1).to_pylist()[0]
    assert (first["prior_turns"], first["prior_chars"], first["prev_role"], first["prev_ts_us"]) == (
        4, 10, "assistant", 5,
    )
    assert state.schema == CONV_STATE_SCHEMA
    assert state.sort_by("conv_id")["n_turns"].to_pylist() == [6, 1]
