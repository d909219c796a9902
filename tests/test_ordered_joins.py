"""As-of and interval (range) joins vs brute-force references.

The distributed kernels (stages/join.py::asof_join / interval_join) must
match a single-frame pandas merge_asof / O(n*m) nested predicate scan for
every partitioning, including keys split across partitions, empty sides in a
partition, null keys, and intervals spanning multiple hash buckets. The
relational verbs of shuffle_hash_join are checked against pandas merges,
including partition counts far above the key cardinality and the CPU count.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from scylla_cdc_source_connector_ray.stages.join import (
    asof_join,
    interval_join,
    shuffle_hash_join,
)


def _mk(df: pd.DataFrame, parallelism: int = 4) -> ray.data.Dataset:
    return ray.data.from_pandas(df).repartition(parallelism)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return (
        df.sort_values(list(df.columns))
        .reset_index(drop=True)
        .astype({c: "float64" for c in df.columns if df[c].dtype.kind in "if"})
    )


def rand_events(seed: int, n: int, n_keys: int) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "eid": np.arange(n, dtype=np.int64),
            "k": rng.integers(0, n_keys, n).astype(np.int64),
            "t": rng.integers(0, 10_000, n).astype(np.int64),
            "v": rng.normal(size=n),
        }
    )


@pytest.mark.parametrize("direction", ["backward", "forward"])
def test_asof_matches_global_merge_asof(direction):
    left = rand_events(1, 400, 17)
    right = rand_events(2, 300, 17).rename(columns={"v": "w"})[["k", "t", "w"]]
    # merge_asof tie-breaks among equal t by taking the LAST right row in
    # sort order — make (k, t) unique on the right so the match is unique.
    right = right.drop_duplicates(["k", "t"])

    got = (
        asof_join(_mk(left), _mk(right), by="k", on="t", direction=direction)
        .to_pandas()
    )
    exp = pd.merge_asof(
        left.sort_values("t", kind="mergesort"),
        right.sort_values("t", kind="mergesort").rename(
            columns={"t": "t_r", "w": "w_r"}
        ),
        left_on="t",
        right_on="t_r",
        by="k",
        direction=direction,
    )
    pd.testing.assert_frame_equal(_sorted(got), _sorted(exp[got.columns]))


def test_asof_unmatched_rows_keep_typed_nulls():
    left = pd.DataFrame({"k": [1, 2], "t": [10, 10]}).astype(np.int64)
    right = pd.DataFrame({"k": [1], "t": [20], "w": [7]}).astype(np.int64)  # only AFTER
    out = asof_join(_mk(left, 2), _mk(right, 1), by="k", on="t")
    tbl = out.take_all()
    assert len(tbl) == 2
    assert all(r["t_r"] is None and r["w_r"] is None for r in tbl)
    assert out.schema().base_schema.field("w_r").type == pa.int64()


def test_asof_tolerance_bounds_match_distance():
    left = pd.DataFrame({"k": [1, 1], "t": [100, 200]}).astype(np.int64)
    right = pd.DataFrame({"k": [1, 1], "t": [95, 50], "w": [1, 2]}).astype(np.int64)
    rows = {
        r["t"]: r["w_r"]
        for r in asof_join(
            _mk(left, 1), _mk(right, 1), by="k", on="t", tolerance=10
        ).take_all()
    }
    assert rows == {100: 1, 200: None}  # 200-95=105 > 10 → no match


def test_asof_null_left_key_survives_unmatched():
    left = pd.DataFrame({"k": [1.0, None], "t": [10.0, 10.0]})
    right = pd.DataFrame({"k": [1.0], "t": [5.0], "w": [3.0]})
    out = asof_join(_mk(left, 1), _mk(right, 1), by="k", on="t").take_all()
    by_k = {r["k"]: r["w_r"] for r in out}
    assert by_k[1.0] == 3.0 and by_k[None] is None


@pytest.mark.parametrize("null_side", ["left", "right"])
def test_asof_arrow_int_key_null_on_one_side(null_side):
    """Arrow int64 ``by`` with a NULL on one side only: the NULL routes to
    one fixed partition, which also holds non-NULL keys of both sides, so
    merge_asof runs there and must see one key dtype on both sides."""
    n = 40
    keys = pa.array(range(n), pa.int64())
    left = pa.table({"k": keys, "t": pa.array([10] * n, pa.int64())})
    right = pa.table({"k": keys, "t": pa.array([5] * n, pa.int64()), "w": keys})
    null = {"k": pa.array([None], pa.int64()), "t": pa.array([1], pa.int64())}
    if null_side == "left":
        left = pa.concat_tables([left, pa.table(null)])
    else:
        right = pa.concat_tables([right, pa.table({**null, "w": pa.array([99], pa.int64())})])
    out = asof_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right), by="k", on="t",
        num_partitions=2,
    ).take_all()
    got = {r["k"]: r["w_r"] for r in out}
    want = {k: k for k in range(n)}
    if null_side == "left":
        want[None] = None
    assert got == want


def _brute_interval(points, ivls):
    m = points.merge(ivls, on="k")
    return m[(m["s"] <= m["t"]) & (m["t"] < m["e"])][
        ["eid", "k", "t", "iid", "s", "e"]
    ]


@pytest.mark.parametrize("bucket", [64, 1000, 7])
def test_interval_join_matches_brute_force(bucket):
    rng = np.random.default_rng(7)
    points = rand_events(3, 500, 11)[["eid", "k", "t"]]
    n_iv = 120
    s = rng.integers(0, 10_000, n_iv).astype(np.int64)
    ivls = pd.DataFrame(
        {
            "iid": np.arange(n_iv, dtype=np.int64),
            "k": rng.integers(0, 11, n_iv).astype(np.int64),
            "s": s,
            # variable lengths: some spanning many buckets
            "e": s + rng.integers(1, 900, n_iv).astype(np.int64),
        }
    )
    got = interval_join(
        _mk(points), _mk(ivls), by="k", ts="t", start="s", end="e",
        bucket_width=bucket,
    ).to_pandas()[["eid", "k", "t", "iid", "s", "e"]]
    exp = _brute_interval(points, ivls)
    pd.testing.assert_frame_equal(_sorted(got), _sorted(exp))


def test_interval_join_boundaries_inclusive_exclusive():
    points = pd.DataFrame({"eid": [0, 1], "k": [1, 1], "t": [100, 200]}).astype(
        np.int64
    )
    ivls = pd.DataFrame({"iid": [0], "k": [1], "s": [100], "e": [200]}).astype(
        np.int64
    )
    out = interval_join(
        _mk(points, 1), _mk(ivls, 1), by="k", ts="t", start="s", end="e",
        bucket_width=50,
    ).take_all()
    assert [r["eid"] for r in out] == [0]  # t=100 in, t=200 (== end) out


def test_interval_join_empty_intervals_is_empty_with_schema():
    points = pd.DataFrame({"eid": [0], "k": [1], "t": [5]}).astype(np.int64)
    ivls = pd.DataFrame({"iid": [], "k": [], "s": [], "e": []}).astype(np.int64)
    # an empty pandas-block dataset keeps its schema only un-repartitioned
    out = interval_join(
        _mk(points, 1), ray.data.from_pandas(ivls), by="k", ts="t", start="s",
        end="e", bucket_width=10,
    )
    assert out.count() == 0
    assert "iid" in out.schema().names


def test_interval_join_negative_timestamps_floor_bucketing():
    # pre-1970 epochs: point bucketing must FLOOR like the interval side
    # (truncation toward zero puts ts=-5 in cell 0 while [-10, 0) sits in
    # cell -1 and the pair silently vanishes)
    points = pd.DataFrame({"eid": [0, 1, 2], "k": [1, 1, 1], "t": [-5, -10, 0]}).astype(np.int64)
    ivls = pd.DataFrame({"iid": [0], "k": [1], "s": [-10], "e": [0]}).astype(np.int64)
    got = interval_join(
        _mk(points, 1), _mk(ivls, 1), by="k", ts="t", start="s", end="e",
        bucket_width=10,
    ).to_pandas()[["eid", "k", "t", "iid", "s", "e"]]
    exp = _brute_interval(points, ivls)
    pd.testing.assert_frame_equal(_sorted(got), _sorted(exp))
    assert sorted(got["eid"]) == [0, 1]  # -5 and -10 in, 0 (== end) out


def test_asof_tied_right_rows_resolve_deterministically():
    # two right rows with identical (k, t): the winner must not depend on Ray
    # block arrival order — the greatest row in column order wins (w=9)
    left = pd.DataFrame({"k": [1], "t": [150]}).astype(np.int64)
    right = pd.DataFrame({"k": [1, 1], "t": [100, 100], "w": [9, 2]}).astype(np.int64)
    winners = set()
    for perm in ([0, 1], [1, 0]):
        out = asof_join(
            _mk(left, 1), _mk(right.iloc[perm], 2), by="k", on="t"
        ).take_all()
        winners.add(out[0]["w_r"])
    assert winners == {9}


def test_semi_anti_join_null_keys_and_duplicates():
    """SQL EXISTS semantics: NULL left keys never match (kept by anti,
    dropped by semi); NULL right keys match nothing; right duplicates do not
    multiply left rows."""
    from scylla_cdc_source_connector_ray.stages.join import semi_anti_join

    left = pa.table({"k": pa.array([1, 2, None, 4], pa.int64()),
                     "payload": ["a", "b", "c", "d"]})
    right = pa.table({"rk": pa.array([2, 2, 2, None], pa.int64())})
    lds = ray.data.from_arrow(left).repartition(2)
    rds = ray.data.from_arrow(right).repartition(2)
    semi = semi_anti_join(lds, rds, "k", "rk", anti=False, num_partitions=4).to_pandas()
    anti = semi_anti_join(lds, rds, "k", "rk", anti=True, num_partitions=4).to_pandas()
    assert semi["payload"].tolist() == ["b"]
    assert sorted(anti["payload"].tolist()) == ["a", "c", "d"]


def test_bloom_prefilter_join_exact_and_pruning():
    """Bloom-prefiltered join equals the plain join exactly (false
    positives dropped by the exact join), and the prefilter demonstrably
    prunes the left side before the exchange."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from scylla_cdc_source_connector_ray.stages.join import (
        _bloom_hashes,
        _bloom_set,
        _bloom_test,
        bloom_prefilter_join,
        shuffle_hash_join,
    )

    rng = np.random.default_rng(5)
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 10_000, 20_000),
            "payload": np.arange(20_000, dtype=np.int64),
        }
    )
    right = pd.DataFrame({"k2": np.arange(0, 10_000, 97, dtype=np.int64),
                          "tag": np.arange(0, 10_000, 97, dtype=np.int64) * 2})

    lds = ray.data.from_pandas(left).repartition(4)
    rds = ray.data.from_pandas(right).repartition(2)
    got = (
        bloom_prefilter_join(lds, rds, "k", "k2")
        .to_pandas()[["k", "payload", "tag"]]
        .sort_values(["k", "payload"]).reset_index(drop=True)
    )
    want = (
        shuffle_hash_join(ray.data.from_pandas(left), ray.data.from_pandas(right),
                          "k", "k2")
        .to_pandas()[["k", "payload", "tag"]]
        .sort_values(["k", "payload"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)

    # membership layer: no false negatives ever; false-positive rate sane
    m, kh = 1 << 20, 4
    words = np.zeros(m // 64, dtype=np.uint64)
    keys = pa.array([f"key{i}" for i in range(5_000)])
    h1, h2 = _bloom_hashes(keys)
    _bloom_set(words, h1, h2, kh, m)
    assert _bloom_test(words, h1, h2, kh, m).all()  # every member hits
    probe = pa.array([f"other{i}" for i in range(20_000)])
    p1, p2 = _bloom_hashes(probe)
    fpr = _bloom_test(words, p1, p2, kh, m).mean()
    assert fpr < 0.05, fpr


def test_full_outer_join_matches_pandas_outer_merge():
    left = pd.DataFrame(
        {"k": np.array([1, 2, 3, 3], np.int64),
         "d": np.array([0, 0, 0, 1], np.int64),
         "la": np.array([10, 20, 30, 31], np.int64)}
    )
    right = pd.DataFrame(
        {"k": np.array([2, 3, 4], np.int64),
         "d": np.array([0, 1, 0], np.int64),
         "rb": np.array([5, 6, 7], np.int64)}
    )
    got = (
        shuffle_hash_join(
            ray.data.from_pandas(left), ray.data.from_pandas(right),
            ("k", "d"), how="full_outer", num_partitions=4,
        )
        .to_pandas()
        .sort_values(["k", "d"]).reset_index(drop=True)
    )
    want = (
        left.merge(right, on=["k", "d"], how="outer")
        .sort_values(["k", "d"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype("float64"), want.astype("float64")
    )
    # both outer directions fired
    assert got["la"].isna().any() and got["rb"].isna().any()


def test_full_outer_join_survives_one_sided_partitions():
    """The case Ray's native full_outer join crashes on (schema-less empty
    partition): a 1-row left side against a larger right side at many
    partitions — most partitions see only one side."""
    left = pd.DataFrame({"k": np.array([5], np.int64), "la": np.array([1], np.int64)})
    right = pd.DataFrame(
        {"k": np.arange(20, dtype=np.int64), "rb": np.arange(20, dtype=np.int64)}
    )
    got = (
        shuffle_hash_join(
            ray.data.from_pandas(left), ray.data.from_pandas(right),
            "k", how="full_outer", num_partitions=8,
        )
        .to_pandas()
        .sort_values("k").reset_index(drop=True)
    )
    assert len(got) == 20
    assert got.loc[got["k"] == 5, "la"].notna().all()
    assert got.loc[got["k"] != 5, "la"].isna().all()


def test_full_outer_join_rejects_clashing_payload():
    a = ray.data.from_pandas(pd.DataFrame({"k": [1], "x": [1]}))
    b = ray.data.from_pandas(pd.DataFrame({"k": [1], "x": [2]}))
    with pytest.raises(ValueError, match="disjoint"):
        shuffle_hash_join(a, b, "k", how="full_outer")


def test_full_outer_join_null_keys_never_match():
    """SQL semantics: a NULL key matches nothing — each NULL-key row emits
    as an unmatched outer row from its own side (pyarrow join behavior,
    pinned here so an engine swap can't silently change it)."""
    left = pa.table(
        {"k": pa.array([1, None, 3], pa.int64()), "la": pa.array([10, 20, 30], pa.int64())}
    )
    right = pa.table(
        {"k": pa.array([None, 3, 4], pa.int64()), "rb": pa.array([5, 6, 7], pa.int64())}
    )
    got = (
        shuffle_hash_join(
            ray.data.from_arrow(left), ray.data.from_arrow(right),
            "k", how="full_outer", num_partitions=3,
        )
        .to_pandas()
        .sort_values(["la", "rb"], na_position="last")
        .reset_index(drop=True)
    )
    assert len(got) == 5  # 1-unmatched, NULL-left, 3-matched, NULL-right, 4-unmatched
    nulls = got[got["k"].isna()]
    assert len(nulls) == 2
    assert (nulls["la"].isna() ^ nulls["rb"].isna()).all()  # never paired


_PANDAS_HOW = {"inner": "inner", "left_outer": "left", "full_outer": "outer"}


@pytest.mark.parametrize("num_partitions", [4, 16])
@pytest.mark.parametrize("how", ["inner", "left_outer", "full_outer", "left_semi", "left_anti"])
def test_full_outer_join_random_property(how, num_partitions):
    """Randomized multi-key equality vs the matching pandas operation, for
    every relational verb (non-null keys; NULL-key semantics pinned
    separately above)."""
    rng = np.random.default_rng(42)
    for trial in range(3):
        nl, nr = rng.integers(0, 40, 2)
        left = pd.DataFrame(
            {
                "k": rng.integers(0, 8, nl).astype(np.int64),
                "d": rng.integers(0, 3, nl).astype(np.int64),
                "la": np.arange(nl, dtype=np.int64),
            }
        ).drop_duplicates(["k", "d"])  # aggregate-shaped sides: unique keys
        right = pd.DataFrame(
            {
                "k": rng.integers(0, 8, nr).astype(np.int64),
                "d": rng.integers(0, 3, nr).astype(np.int64),
                "rb": np.arange(nr, dtype=np.int64),
            }
        ).drop_duplicates(["k", "d"])
        if len(left) == 0 or len(right) == 0:
            continue  # empty Dataset loses schema through from_pandas

        out = shuffle_hash_join(
            ray.data.from_pandas(left), ray.data.from_pandas(right),
            ("k", "d"), how=how, num_partitions=num_partitions,
        )
        got = out.to_pandas()
        if got.empty:  # Ray returns a column-less frame for a 0-row result
            got = got.reindex(columns=out.schema().names)
        got = got.sort_values(["k", "d"]).reset_index(drop=True).astype("float64")
        if how in _PANDAS_HOW:
            want = left.merge(right, on=["k", "d"], how=_PANDAS_HOW[how])
        else:
            hit = left.merge(right[["k", "d"]], on=["k", "d"], how="left", indicator=True)
            want = left[(hit["_merge"] == "both").to_numpy() == (how == "left_semi")]
        want = want.sort_values(["k", "d"]).reset_index(drop=True).astype("float64")
        pd.testing.assert_frame_equal(got, want)


def test_join_aggregate_output_more_partitions_than_keys_and_cpus():
    """The right side is groupby().aggregate() output over 3 keys, joined at
    16 partitions — far more partitions than keys (most are empty on one
    side) and more than the session's 4 CPUs. Ray's native Dataset.join
    crashes on the first and hangs on the second; the co-partition kernel
    must simply return the pandas merge."""
    from ray.data.aggregate import Count

    rng = np.random.default_rng(3)
    left = pd.DataFrame(
        {"k": rng.integers(0, 5, 200).astype(np.int64), "v": np.arange(200, dtype=np.int64)}
    )
    events = pd.DataFrame({"k": rng.integers(0, 3, 90).astype(np.int64)})
    counts = (
        ray.data.from_pandas(events).repartition(6)
        .groupby("k").aggregate(Count(alias_name="n"))
    )
    got = (
        shuffle_hash_join(_mk(left), counts, "k", num_partitions=16)
        .to_pandas()[["k", "v", "n"]]
        .sort_values("v").reset_index(drop=True)
    )
    want = (
        left.merge(events.groupby("k").size().rename("n").reset_index(), on="k")
        [["k", "v", "n"]].sort_values("v").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_join_rejects_pandas_object_column_by_name():
    """A pandas-backed input's object column has no Arrow type: the join
    fails up front with a ValueError naming it, not deep inside Arrow."""
    left = ray.data.from_pandas(pd.DataFrame({"k": [1, 2], "name": ["a", "b"]}))
    right = ray.data.from_pandas(pd.DataFrame({"k": [1], "rb": [5]}))
    with pytest.raises(ValueError, match="'name'.*object"):
        shuffle_hash_join(left, right, "k")
