"""The batch operators' one keyed shuffle (stages/exchange.py): placement,
tiny key cardinality (far fewer keys than partitions), NULL keys, an empty
input, and a guard that no batch operator hand-rolls its own shuffle."""

import ast
import os
import uuid

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

from scylla_cdc_source_connector_ray import oracles
from scylla_cdc_source_connector_ray.config import EngineConfig
from scylla_cdc_source_connector_ray.pipelines import capture as cap
from scylla_cdc_source_connector_ray.schema import shard_of
from scylla_cdc_source_connector_ray.stages import exchange

PKG = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scylla_cdc_source_connector_ray")


def test_single_key_partition_is_shard_of():
    """One key column places a row exactly where schema.shard_of does, so
    batch operators, the capture runner and the bucketed log agree."""
    rng = np.random.default_rng(5)
    conv = [None if i % 17 == 0 else f"conv{i}" for i in rng.integers(0, 500, 2_000)]
    t = pa.table({"conv_id": pa.array(conv, pa.string())})
    for n in (1, 7, 32, 64):
        assert exchange.part_of(t, ["conv_id"], n).equals(shard_of(t["conv_id"], n))


def _counting_per_part(keys):
    """Per-partition kernel: (keys, v_sum, v_count) for each key it saw,
    tagged with a token unique to this call. NULL string keys are filled
    first: pyarrow's multi-key ``group_by`` emits one group per run of a
    NULL key. (Nested, so Ray workers get it by value.)"""

    def per_part(g: pa.Table) -> pa.Table:
        for k in keys:
            if not pa.types.is_integer(g[k].type):  # string or large_string
                g = g.set_column(g.column_names.index(k), k, g[k].fill_null("<null>"))
        out = g.group_by(keys).aggregate([("v", "sum"), ("v", "count")])
        return out.append_column("call", pa.array([uuid.uuid4().hex] * out.num_rows))

    return per_part


def _tiny(case: str) -> tuple[pa.Table, list[str]]:
    n = 60
    v = pa.array(np.arange(n, dtype=np.int64))
    if case == "three_keys":
        return pa.table({"k": [f"c{i % 3}" for i in range(n)], "v": v}), ["k"]
    if case == "single_key":
        return pa.table({"k": ["only"] * n, "v": v}), ["k"]
    if case == "null_key":
        k = pa.array([None if i % 4 == 0 else f"c{i % 3}" for i in range(n)], pa.string())
        return pa.table({"k": k, "v": v}), ["k"]
    if case == "null_in_multi_key":
        a = pa.array([None if i % 5 == 0 else f"a{i % 2}" for i in range(n)], pa.string())
        b = pa.array([i % 3 for i in range(n)], pa.int64())
        return pa.table({"a": a, "b": b, "v": v}), ["a", "b"]
    assert case == "empty"
    return pa.table({"k": pa.array([], pa.string()), "v": pa.array([], pa.int64())}), ["k"]


@pytest.mark.parametrize(
    "case", ["three_keys", "single_key", "null_key", "null_in_multi_key", "empty"]
)
def test_tiny_key_cardinality(case):
    """64 partitions, at most a handful of keys: each key's rows reach
    exactly one per_part call, and the result equals a pyarrow group_by."""
    t, keys = _tiny(case)
    ds = ray.data.from_arrow(t).repartition(5)
    per_part = _counting_per_part(keys)
    got = pd.DataFrame(exchange.shuffle(ds, per_part, keys, 64).take_all())
    want = per_part(t).to_pandas()  # the reference: one call over all rows
    if case == "empty":
        assert got.empty and want.empty
        return
    # one output row per key: a key split over two calls would show twice
    assert not got.duplicated(keys).any()
    assert got["call"].nunique() <= len(want)
    cols = [*keys, "v_sum", "v_count"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(keys).reset_index(drop=True),
        want[cols].sort_values(keys).reset_index(drop=True),
        check_dtype=False,
    )


# --- operators on a three-conversation log, 64 partitions vs their SQL twins


def _events() -> pd.DataFrame:
    rng = np.random.default_rng(21)
    n = 150
    # irregular steps: some gaps exceed the 30 min session gap
    ts = pd.Timestamp("2024-01-01").value // 1000 + np.cumsum(
        rng.choice([60, 600, 3_600], n) * 1_000_000
    )
    return pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pd.to_datetime(ts, unit="us"),
            "user_id": rng.integers(0, 3, n).astype(np.int64),
            "event_type": rng.choice(["click", "view", "purchase", "signup", "error"], n),
            "value": np.round(rng.normal(size=n), 1),  # ties for rank/cume_dist
            "props": [f'{{"k": {i}}}' for i in rng.integers(0, 40, n)],
        }
    )


@pytest.fixture(scope="module")
def sf_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("tiny_sf"))
    pq.write_table(pa.Table.from_pandas(_events(), preserve_index=False), f"{d}/events.parquet")
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(30, dtype=np.int64)),
            "text": pa.array([("alpha", "beta", None)[i % 3] for i in range(30)], pa.string()),
        }
    )
    pq.write_table(docs, f"{d}/documents.parquet")
    return d


def _compaction(d):
    return cap.compaction(cap.read_transcripts_from_events(d), EngineConfig(num_shards=64))


def _session(d):
    from scylla_cdc_source_connector_ray.stages import windows as W

    ds = cap.read_transcripts_from_events(d, columns=["conv_id", "ts"])
    return W.session(ds, gap_us=oracles.GAP30M_US, num_shards=64)


def _match_pattern(d):
    from scylla_cdc_source_connector_ray.stages import cep

    ds = cap.read_transcripts_from_events(d, columns=["conv_id", "role", "ts", "seq"])
    ds = ds.map_batches(
        lambda t: t.append_column("sym", cep.role_symbols(t["role"])).drop_columns(["role"]),
        batch_format="pyarrow",
    )
    return cep.match_pattern(ds, oracles.CEP_PATTERN, keys=["conv_id"], num_shards=64)


def _analytic(d):
    from scylla_cdc_source_connector_ray.stages.analytic import analytic_functions

    ds = ray.data.read_parquet(f"{d}/events.parquet", columns=["event_id", "ts", "user_id", "value"])
    out = analytic_functions(
        ds, keys=["user_id"], order_cols=["ts", "event_id"], value_col="value", num_shards=64
    )
    return out.drop_columns(["ts", "value"])


def _exact_dedup(d):
    from scylla_cdc_source_connector_ray.functions.dedup import exact_dedup

    # no partition-count parameter: the exchange default (16) still far
    # exceeds the three distinct texts
    return exact_dedup(ray.data.read_parquet(f"{d}/documents.parquet"))


@pytest.mark.parametrize(
    "run,sql",
    [
        (_compaction, oracles.CDC_COMPACTION),
        (_session, oracles.WIN_SESSION),
        (_match_pattern, oracles.CEP_PATTERN_MATCH),
        (_analytic, oracles.EVENT_ANALYTICS),
        (_exact_dedup, oracles.DEDUP_EXACT),
    ],
    ids=["compaction", "session", "match_pattern", "analytic_functions", "exact_dedup"],
)
def test_operator_three_keys_matches_sql(sf_dir, run, sql):
    con = duckdb.connect()
    for t in ("events", "documents"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
    want = con.sql(sql).df()
    got = run(sf_dir).to_pandas()
    assert len(want) > 0
    cols = sorted(want.columns)
    assert sorted(got.columns) == cols

    def norm(df):
        return df[cols].sort_values(cols, na_position="first").reset_index(drop=True)

    pd.testing.assert_frame_equal(norm(got), norm(want), check_dtype=False)


# --- guard: the keyed shuffle lives in stages/exchange.py only


#: modules whose every keyed shuffle goes through exchange.shuffle, and the
#: functions in them whose remaining ``groupby`` is an aggregate (Ray Data's
#: ``groupby().aggregate``) or a pandas frame's, not a shuffle
GUARDED = {
    "pipelines/capture.py": set(),
    "stages/join.py": set(),
    "stages/windows.py": {"tumbling", "sliding", "merge_session_intervals"},
    "stages/cep.py": set(),
    "stages/analytic.py": set(),
    "sources/ingest.py": set(),
}
GUARDED_FUNCS = {"functions/dedup.py": {"exact_dedup", "first_row_per_key"}}


def _shuffle_calls(node: ast.AST, allowed: set[str]) -> list[str]:
    """``name:line`` of every ``.map_groups(`` call and every ``.groupby(``
    call outside the ``allowed`` functions, under ``node``."""
    found = []

    def visit(n: ast.AST, fn: str | None) -> None:
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn is None:
            fn = n.name
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            attr = n.func.attr
            if attr == "map_groups" or (attr == "groupby" and fn not in allowed):
                found.append(f"{attr}:{n.lineno}")
        for child in ast.iter_child_nodes(n):
            visit(child, fn)

    visit(node, None)
    return found


def _parse(rel: str) -> ast.Module:
    with open(os.path.join(PKG, rel)) as f:
        return ast.parse(f.read())


def test_no_hand_rolled_shuffle_outside_exchange():
    bad = {}
    for rel, allowed in GUARDED.items():
        calls = _shuffle_calls(_parse(rel), allowed)
        if calls:
            bad[rel] = calls
    for rel, names in GUARDED_FUNCS.items():
        for fn in _parse(rel).body:
            if isinstance(fn, ast.FunctionDef) and fn.name in names:
                calls = _shuffle_calls(fn, set())
                if calls:
                    bad[f"{rel}::{fn.name}"] = calls
    assert not bad, f"keyed shuffle outside stages/exchange.py: {bad}"
    # the one place that does call it
    assert _shuffle_calls(_parse("stages/exchange.py"), set())
