"""Relational operator coverage over the TPC-H-ish testdata tables:
grouped aggregation, multi-way joins (broadcast for dimensions), filter,
sort, top-k, distinct. These are the generic Dataset operators the engine
composes with CDC/window stages; each has an exact DuckDB oracle.

Join strategy: dimension tables (region/nation/customer at these scales)
broadcast via ``ray.put`` and merge inside ``map_batches`` — no shuffle;
the co-partitioned hash-join pattern for large-large joins lives in
``stages/join.py``.
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from ..stages.exchange import NUM_PARTITIONS


def _read(sf_dir: str, table: str, columns=None) -> ray.data.Dataset:
    return ray.data.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


def _round_sql(x):
    """DuckDB ``round()`` parity: ties round AWAY FROM ZERO. ``pc.round``
    defaults to banker's half-to-even, which silently diverges from every
    SQL twin on an exact .5 double (e.g. 0.125*100) — all integer-scaled
    money/measure columns must go through this helper."""
    return pc.round(x, round_mode="half_towards_infinity")


def _user_pid(uid, num_parts: int):
    """Coarse user partition id (uid mod num_parts) — the ONE exchange-key
    convention every per-user operator here shares (cohort retention, gap
    stats, funnel, moving sum): ~64 groups, never per-user dispatch (the
    tiny-groups map_groups pathology), users partition-exclusive so
    per-partition kernels are complete."""
    import numpy as np

    return (uid.astype(np.uint64) % np.uint64(num_parts)).astype(np.int64)


def q1_pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q1-shaped: filtered grouped aggregation with derived measures
    (column-pruned read + vectorized compute before the small shuffle)."""
    ds = _read(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
    )

    def prep(t):
        # integer-scale money measures so distributed partial sums are EXACT
        # and engine-independent (float sum order differs between Ray's
        # partial aggregation and DuckDB; integers don't care)
        t = t.filter(pc.less_equal(t["l_shipdate"], pc.strptime("1998-09-02", "%Y-%m-%d", "us")))
        disc = pc.multiply(t["l_extendedprice"], pc.subtract(1.0, t["l_discount"]))
        charge = pc.multiply(disc, pc.add(1.0, t["l_tax"]))
        out = t.select(["l_returnflag", "l_linestatus"])
        out = out.append_column("qty", _round_sql(t["l_quantity"]).cast("int64"))
        out = out.append_column(
            "base_price_c", _round_sql(pc.multiply(t["l_extendedprice"], 100.0)).cast("int64")
        )
        out = out.append_column(
            "disc_price_dm", _round_sql(pc.multiply(disc, 10000.0)).cast("int64")
        )
        out = out.append_column(
            "charge_um", _round_sql(pc.multiply(charge, 1000000.0)).cast("int64")
        )
        return out

    ds = ds.map_batches(prep, batch_format="pyarrow")
    return ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("qty", alias_name="sum_qty"),
        Sum("base_price_c", alias_name="sum_base_price_c"),
        Sum("disc_price_dm", alias_name="sum_disc_price_dm"),
        Sum("charge_um", alias_name="sum_charge_um"),
        Count(alias_name="count_order"),
    )


def nation_revenue(sf_dir: str) -> ray.data.Dataset:
    """orders ⋈ customer ⋈ nation ⋈ region: total order value per nation
    within one region, sorted.

    Scale shape: nation⋈region (genuinely tiny, fixed-size) broadcast into a
    customer map_batches; customer — the fact-side dimension that GROWS with
    scale factor — is pre-reduced to (c_custkey, n_name) and shuffle-joined
    against orders with the generic co-partitioned hash join. No table that
    grows with SF is ever broadcast."""
    import pyarrow as pa

    from ..stages.join import shuffle_hash_join

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    asia = region.filter(pc.equal(region["r_name"], "ASIA"))
    dim = nation.join(
        asia, keys="n_regionkey", right_keys="r_regionkey", join_type="inner"
    ).select(["n_nationkey", "n_name"])
    ref = ray.put(dim)

    class TagNation:
        def __init__(self):
            self.dim = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            j = batch.join(
                self.dim, keys="c_nationkey", right_keys="n_nationkey", join_type="inner"
            )
            return j.select(["c_custkey", "n_name"])

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).map_batches(
        TagNation, batch_format="pyarrow", concurrency=(1, 4)
    )

    def cents(t):
        return t.select(["o_custkey", "n_name"]).append_column(
            "totalprice_c", _round_sql(pc.multiply(t["o_totalprice"], 100.0)).cast("int64")
        )

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    joined = shuffle_hash_join(
        orders, cust, left_on="o_custkey", right_on="c_custkey"
    ).map_batches(cents, batch_format="pyarrow")
    agg = joined.groupby("n_name").aggregate(
        Sum("totalprice_c", alias_name="revenue_c"), Count(alias_name="n_orders")
    )
    return agg.sort("revenue_c", descending=True)


def order_priority_revenue(sf_dir: str) -> ray.data.Dataset:
    """orders ⋈ lineitem — a genuine large–large join (both sides grow with
    SF): per-order lineitem revenue pre-aggregated BEFORE the join (combiner
    shrinks the shuffled left side to one row per order), co-partitioned hash
    join on orderkey, then a small groupby on o_orderpriority."""
    from ..stages.join import shuffle_hash_join

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def prep(t):
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(1.0, t["l_discount"]))
        return t.select(["l_orderkey"]).append_column(
            "revenue_dm", _round_sql(pc.multiply(rev, 10000.0)).cast("int64")
        )

    per_order = (
        li.map_batches(prep, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(Sum("revenue_dm", alias_name="revenue_dm"))
    )
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    joined = shuffle_hash_join(
        per_order, orders, left_on="l_orderkey", right_on="o_orderkey"
    )
    return joined.groupby("o_orderpriority").aggregate(
        Count(alias_name="n_orders"), Sum("revenue_dm", alias_name="revenue_dm")
    )


def top_orders(sf_dir: str, k: int = 10) -> ray.data.Dataset:
    """Per-order lineitem revenue → global top-k (partial agg per batch,
    small global groupby, sort+limit)."""
    ds = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def prep(t):
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(1.0, t["l_discount"]))
        return t.select(["l_orderkey"]).append_column(
            "revenue_dm", _round_sql(pc.multiply(rev, 10000.0)).cast("int64")
        )

    ds = ds.map_batches(prep, batch_format="pyarrow")
    agg = ds.groupby("l_orderkey").aggregate(Sum("revenue_dm", alias_name="revenue_dm"))
    return agg.sort(["revenue_dm", "l_orderkey"], descending=[True, False]).limit(k)


def segment_stats(sf_dir: str) -> ray.data.Dataset:
    """Distinct + per-group stats on a dimension column."""
    ds = _read(sf_dir, "customer", columns=["c_mktsegment", "c_acctbal"])

    def cents(t):
        return t.select(["c_mktsegment"]).append_column(
            "bal_c", _round_sql(pc.multiply(t["c_acctbal"], 100.0)).cast("int64")
        )

    ds = ds.map_batches(cents, batch_format="pyarrow")
    return ds.groupby("c_mktsegment").aggregate(
        Count(alias_name="n"),
        Sum("bal_c", alias_name="sum_bal_c"),
        Min("bal_c", alias_name="min_bal_c"),
        Max("bal_c", alias_name="max_bal_c"),
    )


def event_type_stats(sf_dir: str) -> ray.data.Dataset:
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def cents(t):
        return t.select(["event_type"]).append_column(
            "value_c", _round_sql(pc.multiply(t["value"], 100.0)).cast("int64")
        )

    ds = ds.map_batches(cents, batch_format="pyarrow")
    return ds.groupby("event_type").aggregate(
        Count(alias_name="n"), Sum("value_c", alias_name="sum_value_c")
    )


def event_rollup(sf_dir: str) -> ray.data.Dataset:
    """GROUP BY ROLLUP(event_type): the per-type rows plus the grand-total
    row (event_type NULL) — a rollup is the union of its grouping sets, and
    the grand total re-aggregates the tiny per-type result rather than
    rescanning the input (one scan, one keyed exchange, one trivial
    reduce)."""
    import pyarrow as pa

    per_type = event_type_stats(sf_dir)

    def grand_total(t: pa.Table) -> pa.Table:
        # null-aware sums like SQL: a per-type sum can itself be NULL (a
        # group whose values are all NULL) — pc.sum skips nulls; the grand
        # total over zero contributing rows is (n=0, sum NULL)
        n = pc.sum(t["n"]).as_py() or 0
        sv = pc.sum(t["sum_value_c"]).as_py()
        return pa.table(
            {
                "event_type": pa.array([None], pa.string()),
                "n": pa.array([int(n)], pa.int64()),
                "sum_value_c": pa.array([None if sv is None else int(sv)], pa.int64()),
            }
        )

    total = per_type.repartition(1, shuffle=False).map_batches(
        grand_total, batch_format="pyarrow", batch_size=None
    )
    return per_type.union(total)


def event_value_quantiles(sf_dir: str) -> ray.data.Dataset:
    """Exact per-event-type value quantiles (p25/p50/p95 of the micro-scaled
    value) — §2.5 grouped aggregation beyond sums: only (key, value_micro)
    pairs shuffle; per-group numpy sort computes the exact order statistics
    (shared index convention with the SQL twin)."""
    import numpy as np
    import pyarrow as pa

    from ..stages.topk import grouped_quantiles

    ev = _read(sf_dir, "events", columns=["event_type", "value"])

    def micro(t: pa.Table) -> pa.Table:
        v = t["value"].combine_chunks().to_numpy(zero_copy_only=False)
        vm = pa.array(
            np.floor(v * 1_000_000), pa.int64(), from_pandas=True  # NaN -> null
        )
        return pa.table({"event_type": t["event_type"], "value_micro": vm})

    return grouped_quantiles(
        ev.map_batches(micro, batch_format="pyarrow"),
        keys=["event_type"],
        value_col="value_micro",
    )


def event_value_quantiles_hist(sf_dir: str) -> ray.data.Dataset:
    """Histogram-sketch per-event-type value quantiles (the mergeable 100 TB
    scale path of :func:`event_value_quantiles`): only (key, bin, count)
    partials shuffle, pre-aggregated per batch."""
    from ..stages.topk import grouped_quantiles_hist

    ev = _read(sf_dir, "events", columns=["event_type", "value"])
    return grouped_quantiles_hist(
        ev, keys=["event_type"], value_col="value", bin_width=5.0
    )


def part_type_stats(sf_dir: str) -> ray.data.Dataset:
    """Filter + grouped stats on part (LIKE-filter pushed into the batch fn)."""
    ds = _read(sf_dir, "part", columns=["p_type", "p_size", "p_retailprice"])

    def prep(t):
        import pyarrow as pa

        keep = pc.match_substring(t["p_type"], "M")  # MEDIUM/ECONOMY/SMALL/PROMO
        t = t.filter(keep)
        return t.select(["p_type", "p_size"]).append_column(
            "price_c", _round_sql(pc.multiply(t["p_retailprice"], 100.0)).cast("int64")
        )

    ds = ds.map_batches(prep, batch_format="pyarrow")
    return ds.groupby("p_type").aggregate(
        Count(alias_name="n"),
        Sum("price_c", alias_name="sum_price_c"),
        Max("p_size", alias_name="max_size"),
    )


def supplier_nation_join(sf_dir: str) -> ray.data.Dataset:
    """supplier ⋈ nation broadcast join → per-nation supplier account stats."""
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    ref = ray.put(nation.set_index("n_nationkey")[["n_name"]])

    class Join:
        def __init__(self):
            self.dim = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            j = batch.join(self.dim, on="s_nationkey", how="inner")
            j = j.assign(bal_c=(j["s_acctbal"] * 100).round().astype("int64"))
            return j[["n_name", "bal_c"]]

    sup = _read(sf_dir, "supplier", columns=["s_nationkey", "s_acctbal"])
    joined = sup.map_batches(Join, batch_format="pandas", concurrency=(1, 2))
    return joined.groupby("n_name").aggregate(
        Count(alias_name="n_suppliers"), Sum("bal_c", alias_name="sum_bal_c")
    )


PIVOT_TYPES = ("click", "view", "purchase", "signup", "error")


def event_type_pivot(sf_dir: str) -> ray.data.Dataset:
    """PIVOT (long → wide): one row per user bucket with a count column per
    event type. Per-batch partials pre-aggregate to (bucket, type, cnt)
    rows, the exchange carries only those, and the per-bucket finisher lays
    the fixed column set out wide — the filtered-aggregation pattern, never
    a Python loop over rows."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..stages.topk import null_safe_group_cols

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(b: pd.DataFrame) -> pa.Table:
        # SQL parity on general input: NULL user_id -> NULL bucket (not a
        # crash), negative user_id -> TRUNCATED modulo like SQL % (np.fmod;
        # numpy's % is floored), NULL groups kept (dropna=False)
        u = b["user_id"].to_numpy(dtype=np.float64)
        bucket = np.fmod(u, 10.0)
        out = pd.DataFrame({"bucket": bucket, "event_type": b["event_type"]})
        res = (
            out.groupby(["bucket", "event_type"], sort=False, observed=True, dropna=False)
            .size()
            .reset_index(name="cnt")
        )
        # explicit Arrow schema: empty or all-null blocks must not retype
        bk = res["bucket"].to_numpy(dtype=np.float64)
        et = res["event_type"].astype(object)
        t = pa.table(
            {
                "bucket": pa.Array.from_pandas(pd.Series(bk), type=pa.float64()).cast(
                    pa.int64()
                ),
                "event_type": pa.array(et.where(et.notna(), None), pa.string()),
                "cnt": pa.array(res["cnt"].to_numpy(dtype=np.int64)),
            }
        )
        t, _ = null_safe_group_cols(t, ["bucket"])
        return t

    def widen(g: pd.DataFrame) -> pa.Table:
        b = g["bucket"].iloc[0]
        cols = {
            "bucket": pa.array([None if pd.isna(b) else int(b)], pa.int64())
        }
        sums = g.groupby("event_type", observed=True)["cnt"].sum()
        for t in PIVOT_TYPES:
            cols[f"n_{t}"] = pa.array([int(sums.get(t, 0))], pa.int64())
        return pa.table(cols)

    comp = [c for c in ("__nn_bucket", "__in_bucket")]
    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(comp)
        .map_groups(widen, batch_format="pandas")
    )


def q3_shipping_priority(sf_dir: str, k: int = 10) -> ray.data.Dataset:
    """TPC-H Q3-shaped: segment-filtered customer ⋈ orders ⋈ lineitem →
    per-order revenue, top-k by (revenue DESC, o_orderdate, l_orderkey).

    Scale shape: both joins are the co-partitioned ``shuffle_hash_join``
    (customer is NOT broadcast — at SF1k it is 150M rows); every side is
    column-pruned and date-filtered BEFORE its exchange, and the revenue
    measure is integer-scaled (tenth-cents) so distributed partial sums are
    exact. The final top-k collapses through ``top_k_per_group`` with a
    single global group."""
    import pyarrow as pa

    from ..stages.join import shuffle_hash_join
    from ..stages.topk import top_k_per_group

    cutoff = pc.strptime("1998-03-15", "%Y-%m-%d", "us")

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    cust = cust.map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING")).select(
            ["c_custkey"]
        ),
        batch_format="pyarrow",
    )
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
    orders = orders.map_batches(
        lambda t: t.filter(pc.less(t["o_orderdate"], cutoff)),
        batch_format="pyarrow",
    )
    li = _read(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def li_prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_shipdate"], cutoff))
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(1.0, t["l_discount"]))
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "rev_dm": _round_sql(pc.multiply(rev, 10000.0)).cast("int64"),
            }
        )

    li = li.map_batches(li_prep, batch_format="pyarrow")
    co = shuffle_hash_join(orders, cust, left_on="o_custkey", right_on="c_custkey")
    col = shuffle_hash_join(
        li, co.select_columns(["o_orderkey", "o_orderdate"]),
        left_on="l_orderkey", right_on="o_orderkey",
    )
    agg = col.groupby(["l_orderkey", "o_orderdate"]).aggregate(
        Sum("rev_dm", alias_name="revenue_dm")
    )
    # single global top-k: constant group key, rank by revenue with a
    # deterministic (date, orderkey) tiebreak
    agg = agg.map_batches(
        lambda t: t.append_column("_g", pa.array([0] * len(t), pa.int64())),
        batch_format="pyarrow",
    )
    top = top_k_per_group(
        agg, ["_g"], "revenue_dm", k=k, tiebreak=["o_orderdate", "l_orderkey"]
    )
    return top.select_columns(["l_orderkey", "o_orderdate", "revenue_dm"])


def lang_mode_source(sf_dir: str) -> ray.data.Dataset:
    """Grouped MODE: the most frequent ``source`` per ``lang`` (ties broken
    by smallest source — deterministic, unlike bare SQL ``mode()``).

    Scale shape: block-local (lang, source) pre-counts, one small exchange
    over distinct pairs, then a k=1 per-group rank — the corpus never
    shuffles."""
    import pandas as pd
    import pyarrow as pa

    from ..stages.topk import null_safe_group_cols, top_k_per_group

    ds = _read(sf_dir, "documents", columns=["lang", "source"])

    def partial(b: pd.DataFrame) -> pa.Table:
        res = (
            b.groupby(["lang", "source"], sort=False, dropna=False)
            .size()
            .reset_index(name="n")
        )
        t = pa.table(
            {
                "lang": pa.array(res["lang"].astype(object), pa.string()),
                "source": pa.array(res["source"].astype(object), pa.string()),
                "n": pa.array(res["n"].to_numpy(), pa.int64()),
            }
        )
        # group on null-safe companions: nullable keys through Ray's sort
        # shuffle would split (or crash on) the SQL single-NULL group
        t, _ = null_safe_group_cols(t, ["lang", "source"])
        return t.drop_columns(["lang", "source"])

    comp = ["__nn_lang", "__in_lang", "__nn_source", "__in_source"]
    counts = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(comp)
        .aggregate(Sum("n", alias_name="mode_n"))
    )

    def rebuild(t: pa.Table) -> pa.Table:
        null_s = pa.scalar(None, pa.string())
        return pa.table(
            {
                "lang": pc.if_else(t["__in_lang"], null_s, t["__nn_lang"]),
                "source": pc.if_else(t["__in_source"], null_s, t["__nn_source"]),
                "mode_n": t["mode_n"],
            }
        )

    counts = counts.map_batches(rebuild, batch_format="pyarrow")
    top = top_k_per_group(
        counts, ["lang"], "mode_n", k=1, tiebreak=["source"]
    )
    return top.select_columns(["lang", "source", "mode_n"]).rename_columns(
        ["lang", "mode_source", "mode_n"]
    )


def event_moving_sum(
    sf_dir: str, window_us: int = 3_600_000_000, num_parts: int = 64
) -> ray.data.Dataset:
    """Time-RANGE moving aggregate: per user, the sum of value (cents) over
    the event-time window ``[ts − window, ts]`` — SQL's ``RANGE BETWEEN
    INTERVAL ... PRECEDING AND CURRENT ROW`` frame, peers included. Rows
    with NULL user/ts/value are excluded on both sides (the twin's WHERE;
    a NULL value would otherwise poison the integer prefix sums).

    Scale shape: ONE coarse user-keyed exchange (``_user_pid``, never
    per-user dispatch); inside each partition every user's frame bounds
    come from a single global prefix-sum + two searchsorted probes over
    run-SHIFTED timestamps (each user run offset by K > span + window, so
    a probe can never cross a run boundary) — fully vectorized across
    users. If runs × K would overflow int64 the kernel falls back to the
    identical per-run slicing, still inside the partition."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.and_(pc.is_valid(t["user_id"]), pc.is_valid(t["ts"])),
                pc.is_valid(t["value"]),
            )
        )
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts": t["ts"],
                "value_c": _round_sql(pc.multiply(t["value"], 100.0)).cast("int64"),
                "_pid": pa.array(_user_pid(uid, num_parts), pa.int64()),
            }
        )

    def _window_sums(ts: np.ndarray, v: np.ndarray) -> np.ndarray:
        cum = np.zeros(len(v) + 1, dtype=np.int64)
        np.cumsum(v, out=cum[1:])
        hi = np.searchsorted(ts, ts, side="right")
        lo = np.searchsorted(ts, ts - window_us, side="left")
        return cum[hi] - cum[lo]

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort").reset_index(
            drop=True
        )
        ts = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        uid = g["user_id"].to_numpy(np.int64)
        v = g["value_c"].to_numpy(dtype=np.int64)
        n = len(g)
        boundary = np.ones(n, bool)
        if n > 1:
            boundary[1:] = uid[1:] != uid[:-1]
        run_id = np.cumsum(boundary) - 1  # 0-based user-run index
        base = ts.min() if n else 0
        span_k = (ts.max() - base if n else 0) + window_us + 1
        n_runs = int(run_id[-1]) + 1 if n else 0
        if n and n_runs * span_k < 2**62:
            # shift each run into its own disjoint band: probes stay in-run
            shifted = (ts - base) + run_id * span_k
            ms = _window_sums(shifted, v)
        else:
            # overflow-proof fallback: same kernel per run slice
            ms = np.empty(n, np.int64)
            starts = np.flatnonzero(boundary).tolist() + [n]
            for a, b_ in zip(starts[:-1], starts[1:]):
                ms[a:b_] = _window_sums(ts[a:b_], v[a:b_])
        out = g[["event_id", "user_id", "ts"]].copy()
        out["moving_sum_c"] = ms
        return out

    prepped = ds.map_batches(prep, batch_format="pyarrow")
    return prepped.groupby("_pid").map_groups(per_part, batch_format="pandas")


def _exact_event_moments(sf_dir: str) -> list[tuple]:
    """EXACT per-event_type co-moments of (x=value_cents, y=user_id):
    ``[(event_type, n, sx, sy, sxx, syy, sxy), ...]`` as unbounded Python
    ints — shared by the corr and regression operators.

    The mergeable-moments pattern, exact at ANY scale: each block emits per-
    group partial sums with every product SPLIT INTO 2^32 LIMBS before the
    in-block summation (hi = p >> 32, lo = p − (hi << 32) ∈ [0, 2^32) — so a
    block of up to 2^28 rows cannot wrap int64), and the tiny per-block
    partial rows (blocks × |event_type| — the sanctioned driver-side
    "partial sketches" shape) are folded on the driver in unbounded Python
    ints. No co-moment sum can silently wrap at any corpus size — a naive
    int64 co-moment Sum wraps at ~4e9 rows/group — so SQL twins (HUGEINT
    sums, identical final float formulas) match bit-for-bit.
    Inputs are guarded: |x|,|y| ≤ 3e9 keeps every single product in int64
    (fail-loud above — widen the limb split if a corpus ever needs it)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    ds = _read(sf_dir, "events", columns=["event_type", "user_id", "value"])
    X_MAX = 3_000_000_000  # floor(sqrt(int64 max)) rounded down

    def partial(b: pd.DataFrame) -> pa.Table:
        # NULL value/user rows are excluded on BOTH sides (the twins'
        # WHERE): a NaN would otherwise poison the int casts, and SQL's
        # count(*) over unfiltered rows could never match sums that skip
        # NULLs anyway.
        b = b[b["value"].notna() & b["user_id"].notna()]
        # DuckDB round() is half-AWAY-FROM-ZERO; np.round is half-to-even.
        # A value like 0.125 (exact in binary) would split the twins, so
        # mirror the SQL rule explicitly.
        v = b["value"].to_numpy(dtype=np.float64) * 100.0
        x = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        y = b["user_id"].to_numpy(dtype=np.int64)
        if len(x) and (
            np.abs(x).max() > X_MAX or np.abs(y).max() > X_MAX
        ):
            raise ValueError(
                "event moments: |value_cents| or |user_id| exceeds 3e9 — "
                "a single product would overflow int64; widen the limb split"
            )
        d = pd.DataFrame({"event_type": b["event_type"].astype(object)})
        d["n"] = np.int64(1)
        d["sx"] = x
        d["sy"] = y
        for name, p in (("sxx", x * x), ("syy", y * y), ("sxy", x * y)):
            hi = p >> 32  # arithmetic shift: floor semantics, sign-correct
            d[f"{name}_hi"] = hi
            d[f"{name}_lo"] = p - (hi << 32)
        res = d.groupby("event_type", sort=False, dropna=False).sum().reset_index()
        cols = {"event_type": pa.array(res["event_type"].astype(object), pa.string())}
        for c in res.columns[1:]:
            cols[c] = pa.array(res[c].to_numpy(dtype=np.int64), pa.int64())
        return pa.table(cols)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if not len(parts):
        return []
    out = []
    for et, g in parts.groupby("event_type", sort=False, dropna=False):
        # object-dtype sums fold the per-block partials as exact Python ints
        # (HUGEINT analogue)
        n = int(g["n"].astype(object).sum())
        sx = int(g["sx"].astype(object).sum())
        sy = int(g["sy"].astype(object).sum())
        mom = {}
        for name in ("sxx", "syy", "sxy"):
            mom[name] = int(
                (g[f"{name}_hi"].astype(object) * 2**32 + g[f"{name}_lo"].astype(object)).sum()
            )
        out.append(
            (None if pd.isna(et) else et, n, sx, sy, mom["sxx"], mom["syy"], mom["sxy"])
        )
    return out


def event_type_corr(sf_dir: str) -> "pd.DataFrame":
    """Grouped Pearson correlation from EXACT integer co-moments: per
    event_type, corr(value_cents, user_id) as floor(1e6·corr). Float appears
    ONLY in the final formula — the identical expression the SQL twin
    evaluates from the same exact integers, so the comparison is bit-exact.
    Zero-variance groups are excluded on both sides (SQL corr is NULL).
    See :func:`_exact_event_moments` for the overflow-proof limb design."""
    import math

    import pandas as pd

    rows = []
    for et, n, sx, sy, sxx, syy, sxy in _exact_event_moments(sf_dir):
        num = n * sxy - sx * sy
        d1 = n * sxx - sx * sx
        d2 = n * syy - sy * sy
        if d1 <= 0 or d2 <= 0:
            continue  # zero variance: SQL corr is NULL
        corr_micro = math.floor(
            float(num) / math.sqrt(float(d1) * float(d2)) * 1_000_000
        )
        rows.append((et, corr_micro, n))
    return pd.DataFrame(
        {
            "event_type": pd.Series([t for t, _, _ in rows], dtype=object),
            "corr_micro": pd.Series([c for _, c, _ in rows], dtype="int64"),
            "n": pd.Series([n for _, _, n in rows], dtype="int64"),
        }
    )


def event_type_regression(sf_dir: str) -> "pd.DataFrame":
    """Grouped least-squares fit of value_cents ~ user_id from the same
    EXACT integer co-moments as :func:`event_type_corr` (one shared pass
    shape; regr_slope/regr_intercept analogue): per event_type,
    slope_micro = floor(1e6·(n·Σxy − Σx·Σy)/(n·Σyy − Σy²)) and
    intercept_micro = floor(1e6·(Σx − slope·Σy)/n), regressing x on y.
    Every float expression is written identically in the SQL twin (operands
    are exact ints on both sides), so the gate compare is bit-exact.
    Zero-variance-in-y groups are excluded (SQL regr_slope is NULL)."""
    import math

    import pandas as pd

    rows = []
    for et, n, sx, sy, sxx, syy, sxy in _exact_event_moments(sf_dir):
        num = n * sxy - sx * sy
        dy = n * syy - sy * sy
        if dy <= 0:
            continue  # zero variance in the regressor: SQL slope is NULL
        slope = float(num) / float(dy)
        slope_micro = math.floor(slope * 1_000_000)
        intercept_micro = math.floor(
            (float(sx) - slope * float(sy)) / float(n) * 1_000_000
        )
        rows.append((et, slope_micro, intercept_micro, n))
    return pd.DataFrame(
        {
            "event_type": pd.Series([t for t, _, _, _ in rows], dtype=object),
            "slope_micro": pd.Series([s for _, s, _, _ in rows], dtype="int64"),
            "intercept_micro": pd.Series([i for _, _, i, _ in rows], dtype="int64"),
            "n": pd.Series([n for _, _, _, n in rows], dtype="int64"),
        }
    )


def event_props_extract(sf_dir: str) -> ray.data.Dataset:
    """Vectorized JSON-field extraction from the ``props`` string column
    (regex-based — RE2 on both sides, so the DuckDB ``regexp_extract`` twin
    matches by construction; a missing/unparseable field is NULL and drops
    out of the sum like SQL): per event_type, the sum and count of the
    extracted ``k``."""
    import pyarrow as pa

    ds = _read(sf_dir, "events", columns=["event_type", "props"])
    pat = r'"k":\s*(?P<k>-?\d+)'  # extract_regex requires named groups

    def extract(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t["props"].combine_chunks(), pat)
        ks = pc.struct_field(m, "k")
        # TRY_CAST parity: Arrow's cast raises on int64 overflow where the
        # SQL twin yields NULL. Digit runs of <= 18 always fit and cast
        # vectorized; longer literals (rare) go through an exact Python-int
        # range check instead of crashing the query.
        digits = pc.subtract(
            pc.utf8_length(ks), pc.cast(pc.starts_with(ks, "-"), pa.int32())
        )
        risky = pc.and_kleene(pc.is_valid(ks), pc.greater(digits, 18))
        k = pc.if_else(pc.equal(risky, True), pa.scalar(None, pa.string()), ks).cast(
            pa.int64()
        )
        if pc.any(pc.equal(risky, True)).as_py():
            import numpy as np

            vals = k.to_pylist()
            src = ks.to_pylist()
            lo, hi = -(2**63), 2**63 - 1
            for i in np.flatnonzero(
                pc.equal(risky, True).to_numpy(zero_copy_only=False)
            ):
                v = int(src[i])
                vals[i] = v if lo <= v <= hi else None
            k = pa.array(vals, pa.int64())
        return pa.table(
            {
                "event_type": t["event_type"],
                "k": k,
                "has_k": pc.is_valid(k).cast(pa.int64()),
            }
        )

    ds = ds.map_batches(extract, batch_format="pyarrow")
    return ds.groupby("event_type").aggregate(
        Sum("k", alias_name="sum_k"), Sum("has_k", alias_name="n_with_k")
    )


def text_redact(sf_dir: str) -> ray.data.Dataset:
    """PII-shaped masking over documents: every RE2 match of a token pattern
    replaced with [MASK]; output (doc_id, text, n_hits). The pattern here
    targets a word that actually occurs in the corpus so the gate exercises
    real replacements."""
    from ..functions.textops import redact

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(
        lambda t: redact(t, pattern=r"\bspark\b"), batch_format="pyarrow"
    )


def cohort_retention(sf_dir: str, day_us: int = 86_400_000_000) -> ray.data.Dataset:
    """Cohort retention over events: users are cohorted by the day of their
    FIRST event; output (cohort_day, offset_days, n_users) counts the
    distinct users of each cohort active on each later day — the standard
    activity-retention matrix.

    Scale shape: raw events collapse to block-deduped (user, day) pairs,
    then ONE exchange keyed by a coarse user partition (64 groups — never
    per-user dispatch) makes each partition user-complete, so the global
    pair dedup, the per-user min-day cohort, and the per-cell distinct-user
    partial counts are all one vectorized pandas pass inside the partition;
    users are partition-exclusive, so the final tiny groupby just sums
    partials. No join, and only pair rows ever cross the exchange — the
    self-join formulation needs two more exchanges and trips Dataset.join's
    empty-partition finalize on small inputs."""
    import numpy as np
    import pyarrow as pa

    num_parts = 64
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def to_pairs(t: pa.Table) -> pa.Table:
        # NULL user/ts rows carry no retention signal (a NULL user never
        # joins its own cohort in SQL either) — both twins filter them
        t = t.filter(
            pc.and_(pc.is_valid(t["user_id"]), pc.is_valid(t["ts"]))
        )
        # normalize the storage unit (ns-precision parquet would otherwise
        # yield day numbers 1000x off) before the epoch-µs floor-div
        us = t["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        # numpy floor-div: pre-1970 µs floor to the earlier day. SQL's //
        # TRUNCATES toward zero, so the twin floors via date_trunc('day')
        # first (exact multiple → // is then sign-safe).
        day = us // day_us
        d = pd.DataFrame(
            {"user_id": t["user_id"].to_numpy(zero_copy_only=False), "day": day}
        ).drop_duplicates()
        uid = d["user_id"].to_numpy(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "day": pa.array(d["day"].to_numpy(np.int64), pa.int64()),
                "_pid": pa.array(_user_pid(uid, num_parts), pa.int64()),
            }
        )

    def per_part(b: pd.DataFrame) -> pd.DataFrame:
        # the partition holds EVERY pair of its users: block-level dups
        # collapse here, min(day) is the user's true cohort
        b = b.drop_duplicates(["user_id", "day"])
        cohort = b.groupby("user_id")["day"].transform("min")
        out = pd.DataFrame(
            {
                "cohort_day": cohort.to_numpy(np.int64),
                "offset_days": (b["day"] - cohort).to_numpy(np.int64),
            }
        )
        g = out.groupby(["cohort_day", "offset_days"]).size().reset_index(name="n_users")
        g["n_users"] = g["n_users"].astype("int64")
        return g

    return (
        ds.map_batches(to_pairs, batch_format="pyarrow")
        .groupby("_pid")
        .map_groups(per_part, batch_format="pandas")
        .groupby(["cohort_day", "offset_days"])
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


def user_gap_stats(sf_dir: str, num_parts: int = 64) -> ray.data.Dataset:
    """Exact p50/p95 of the inter-arrival gap (µs) between a user's
    consecutive events, grouped by the LATER event's type — the
    sessionization-adjacent latency profile.

    Scale shape: ONE exchange keyed by a coarse user partition (64 groups,
    never per-user dispatch — the tiny-groups map_groups pathology); inside
    each partition a single (user, ts, event_id) lexsort + vectorized diff
    with run-boundary masking computes every gap, then only (event_type,
    gap) pairs feed the shared exact-quantile kernel. The multiset of
    consecutive diffs of a sorted multiset is tie-order independent, so the
    SQL twin's lag() OVER (PARTITION BY user ORDER BY ts, event_id) matches
    row-for-row."""
    import numpy as np
    import pyarrow as pa

    from ..stages.topk import grouped_quantiles

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])

    def part_key(t: pa.Table) -> pa.Table:
        # NULL user/ts rows are excluded on both sides (SQL's NULL partition
        # would otherwise pool all NULL users into one lag chain)
        t = t.filter(
            pc.and_(pc.is_valid(t["user_id"]), pc.is_valid(t["ts"]))
        )
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("_pid", pa.array(_user_pid(uid, num_parts), pa.int64()))

    def gaps(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts = b["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        uid = b["user_id"].to_numpy()
        gap = np.empty(len(b), np.int64)
        gap[1:] = ts[1:] - ts[:-1]
        first = np.ones(len(b), bool)
        if len(b) > 1:
            first[1:] = uid[1:] != uid[:-1]  # run boundary: new user
        out = pd.DataFrame(
            {"event_type": b["event_type"].to_numpy(object), "gap_us": gap}
        )
        return out[~first].reset_index(drop=True)

    pairs = ds.map_batches(part_key, batch_format="pyarrow").groupby("_pid").map_groups(
        gaps, batch_format="pandas"
    )
    return grouped_quantiles(
        pairs, keys=["event_type"], value_col="gap_us", quantiles=(50, 95)
    )


def doc_column_profile(sf_dir: str) -> "pd.DataFrame":
    """Per-column data-quality profile of the documents corpus (text, lang,
    source): row count, null count, EXACT distinct count, and total
    character length — the first pass any 100 TB curation run makes.

    Scale shape: counters are per-block int64 partials merged in a 3-row
    groupby; distincts exchange only block-deduped (col, md5-128) triples
    (values never move — text hashes to 16 bytes), two-level groupby dedup
    then count, the same collision-free convention as dedup_exact_hashed.
    The two result sides are per-COLUMN aggregates (3 rows each) merged on
    the driver."""
    import numpy as np
    import pyarrow as pa

    cols = ["text", "lang", "source"]
    ds = _read(sf_dir, "documents", columns=cols)

    def counters(t: pa.Table) -> pa.Table:
        names, n_rows, n_null, len_sum = [], [], [], []
        for c in cols:
            a = t[c]
            names.append(c)
            n_rows.append(len(t))
            n_null.append(a.null_count)
            s = pc.sum(pc.utf8_length(a))
            len_sum.append(s.as_py() if s.is_valid else 0)
        return pa.table(
            {
                "col": pa.array(names, pa.string()),
                "n_rows": pa.array(n_rows, pa.int64()),
                "n_null": pa.array(n_null, pa.int64()),
                "len_sum": pa.array(len_sum, pa.int64()),
            }
        )

    def hashed(t: pa.Table) -> pa.Table:
        # the ONE raw-value 128-bit hash convention (distinct_stream's
        # kernel: md5 once per UNIQUE value; raw, NOT text-normalized —
        # count(DISTINCT x) must not conflate values), then block-local
        # dedup so only unique triples cross the exchange
        from .distinct_stream import _id_hash128

        outs = {"col": [], "h1": [], "h2": []}
        for c in cols:
            a = t[c].drop_null()
            if not len(a):
                continue
            h1, h2 = _id_hash128(pd.Series(a.to_pylist(), dtype=object))
            u = np.unique(np.stack([h1, h2], axis=1), axis=0)
            outs["col"].extend([c] * len(u))
            outs["h1"].extend(u[:, 0].astype(np.int64).tolist())
            outs["h2"].extend(u[:, 1].astype(np.int64).tolist())
        return pa.table(
            {
                "col": pa.array(outs["col"], pa.string()),
                "h1": pa.array(outs["h1"], pa.int64()),
                "h2": pa.array(outs["h2"], pa.int64()),
            }
        )

    counts = (
        ds.map_batches(counters, batch_format="pyarrow")
        .groupby("col")
        .aggregate(
            Sum("n_rows", alias_name="n_rows"),
            Sum("n_null", alias_name="n_null"),
            Sum("len_sum", alias_name="len_sum"),
        )
        .to_pandas()
    )
    distinct = (
        ds.map_batches(hashed, batch_format="pyarrow")
        .groupby(["col", "h1", "h2"])
        .aggregate(Count(alias_name="_c"))
        .select_columns(["col"])
        .groupby("col")
        .aggregate(Count(alias_name="n_distinct"))
        .to_pandas()
    )
    # an EMPTY documents table yields schema-less empty frames from both
    # branches, while the SQL twin's UNION ALL still reports one zero row
    # per column — rebuild from the fixed column list
    if not len(counts) or "col" not in counts.columns:
        counts = pd.DataFrame(
            {
                "col": pd.Series(cols, dtype=object),
                "n_rows": pd.Series([0] * len(cols), dtype="int64"),
                "n_null": pd.Series([0] * len(cols), dtype="int64"),
                "len_sum": pd.Series([0] * len(cols), dtype="int64"),
            }
        )
    if not len(distinct) or "col" not in distinct.columns:
        distinct = pd.DataFrame(
            {
                "col": pd.Series(dtype=object),
                "n_distinct": pd.Series(dtype="int64"),
            }
        )
    out = counts.merge(distinct, on="col", how="left")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype("int64")
    return out[["col", "n_rows", "n_null", "n_distinct", "len_sum"]]


def funnel_conversion(
    sf_dir: str,
    steps: tuple[str, ...] = ("view", "click", "purchase"),
    num_parts: int = 64,
) -> "pd.DataFrame":
    """Ordered-step funnel over events: how many users reach step i, where a
    user reaches step i by having a step-i event STRICTLY after their
    earliest qualifying step-(i-1) time (the standard min-time chaining
    funnel; ties across steps do not chain — documented, and the SQL twin
    uses the same strict ``>``).

    Scale shape: rows irrelevant to the funnel are dropped and projected to
    (user, step-index, epoch-µs) BEFORE the single coarse user-keyed
    exchange (64 groups — never per-user dispatch); each partition is
    user-complete, so the per-step chained group-mins are len(steps)
    vectorized pandas passes, and the tiny per-partition step counts sum in
    a 3-row groupby. The corpus text/props columns never load (column-pruned
    read) and nothing re-shuffles between steps."""
    import numpy as np
    import pyarrow as pa

    steps = tuple(steps)
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    def project(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.and_(pc.is_valid(t["user_id"]), pc.is_valid(t["ts"])),
                pc.is_in(t["event_type"], value_set=pa.array(list(steps))),
            )
        )
        us = t["ts"].cast(pa.timestamp("us")).cast(pa.int64())
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        step_idx = np.full(len(t), -1, np.int64)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        for i, s in enumerate(steps):
            step_idx[et == s] = i
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "step": pa.array(step_idx, pa.int64()),
                "us": us,
                "_pid": pa.array(_user_pid(uid, num_parts), pa.int64()),
            }
        )

    def per_part(b: pd.DataFrame) -> pd.DataFrame:
        # chained group-mins: t_i = min us of step-i rows with us > t_{i-1}
        prev = None  # Series: user_id -> t_{i-1}
        counts = []
        for i in range(len(steps)):
            rows = b[b["step"] == i]
            if prev is not None:
                pt = rows["user_id"].map(prev)
                rows = rows[pt.notna() & (rows["us"] > pt)]
            cur = rows.groupby("user_id")["us"].min()
            counts.append(len(cur))
            prev = cur
        return pd.DataFrame(
            {
                "step": pd.Series(range(1, len(steps) + 1), dtype="int64"),
                "event_type": pd.Series(list(steps), dtype=object),
                "n_users": pd.Series(counts, dtype="int64"),
            }
        )

    agg = (
        ds.map_batches(project, batch_format="pyarrow")
        .groupby("_pid")
        .map_groups(per_part, batch_format="pandas")
        .groupby(["step", "event_type"])
        .aggregate(Sum("n_users", alias_name="n_users"))
        .to_pandas()  # ≤ len(steps) rows — driver-side by design
    )
    # a corpus with NO funnel-step events yields an empty pipeline, but the
    # SQL twin still reports every step with n_users 0 — emit the full ladder
    full = pd.DataFrame(
        {
            "step": pd.Series(range(1, len(steps) + 1), dtype="int64"),
            "event_type": pd.Series(list(steps), dtype=object),
        }
    )
    if len(agg) and "step" in agg.columns:
        full = full.merge(agg[["step", "n_users"]], on="step", how="left")
        full["n_users"] = full["n_users"].fillna(0).astype("int64")
    else:
        full["n_users"] = pd.Series([0] * len(steps), dtype="int64")
    return full


def q5_local_supplier_volume(
    sf_dir: str,
    region: str = "ASIA",
    date_lo: str = "1996-01-01",
    date_hi: str = "1997-01-01",
) -> ray.data.Dataset:
    """TPC-H Q5-shaped: revenue per nation from lineitems where the customer
    and the supplier sit in the SAME nation of one region, over a one-year
    order window.

    Scale shape: region⋈nation (fixed-size) is a driver-side read broadcast
    as an in-filter + name map. Supplier — TPC-H's smallest SF-scaled table
    (10k rows/SF, two int64 columns ≈ 160 MB at SF1000; swap in a shuffle
    join above that) — is broadcast INTO the lineitem projection stage, so
    out-of-region-supplier rows (~(1−1/|regions|) of the 100 TB side) are
    dropped BEFORE the only lineitem exchange and the supplier nation rides
    along without a separate join (measured 22 s → 6–8 s at sf0.1/32 cpus
    vs the join-then-filter order). Customer and orders are column-pruned
    and filtered before their co-partitioned ``shuffle_hash_join``. Revenue
    is integer tenth-cents so distributed partial sums are exact; the final
    groupby is |nations-in-region| rows."""
    import numpy as np
    import pyarrow as pa

    from ..stages.join import shuffle_hash_join

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    reg = pq.read_table(os.path.join(sf_dir, "region.parquet")).to_pandas()
    dim = nation.merge(reg, left_on="n_regionkey", right_on="r_regionkey")
    dim = dim[dim["r_name"] == region][["n_nationkey", "n_name"]]
    nat_keys = pa.array(dim["n_nationkey"].to_numpy(np.int64))
    name_ref = ray.put(dim.set_index("n_nationkey")["n_name"])

    supp = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    supp = supp[supp["s_nationkey"].isin(dim["n_nationkey"])]
    order_ = np.argsort(supp["s_suppkey"].to_numpy(np.int64), kind="stable")
    supp_ref = ray.put(
        (
            supp["s_suppkey"].to_numpy(np.int64)[order_],
            supp["s_nationkey"].to_numpy(np.int64)[order_],
        )
    )

    lo_ts = pc.strptime(date_lo, "%Y-%m-%d", "us")
    hi_ts = pc.strptime(date_hi, "%Y-%m-%d", "us")

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    cust = cust.map_batches(
        lambda t: t.filter(pc.is_in(t["c_nationkey"], value_set=nat_keys)),
        batch_format="pyarrow",
    )
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
    orders = orders.map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.greater_equal(t["o_orderdate"], lo_ts),
                pc.less(t["o_orderdate"], hi_ts),
            )
        ).select(["o_orderkey", "o_custkey"]),
        batch_format="pyarrow",
    )
    oc = shuffle_hash_join(orders, cust, left_on="o_custkey", right_on="c_custkey")

    li = _read(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    class LiPrep:
        """Project + in-region supplier semi-join (sorted-array lookup from
        the broadcast, once per actor) BEFORE the lineitem exchange."""

        def __init__(self):
            self.skeys, self.snat = ray.get(supp_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            sk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            idx = np.searchsorted(self.skeys, sk)
            idx_c = np.clip(idx, 0, max(len(self.skeys) - 1, 0))
            hit = (
                (self.skeys[idx_c] == sk)
                if len(self.skeys)
                else np.zeros(len(sk), bool)
            )
            t = t.filter(pa.array(hit))
            rev = pc.multiply(t["l_extendedprice"], pc.subtract(1.0, t["l_discount"]))
            return pa.table(
                {
                    "l_orderkey": t["l_orderkey"],
                    "s_nat": pa.array(self.snat[idx_c[hit]], pa.int64()),
                    "rev_dm": _round_sql(pc.multiply(rev, 10000.0)).cast("int64"),
                }
            )

    lo = shuffle_hash_join(
        li.map_batches(LiPrep, batch_format="pyarrow", concurrency=(1, 8)),
        oc.select_columns(["o_orderkey", "c_nationkey"]),
        left_on="l_orderkey",
        right_on="o_orderkey",
    )

    class LocalOnly:
        def __init__(self):
            self.names = ray.get(name_ref)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            # the Q5 "local supplier" condition + nation-name enrichment
            b = b[b["c_nationkey"] == b["s_nat"]]
            return pd.DataFrame(
                {
                    "n_name": b["c_nationkey"].map(self.names).astype(object),
                    "rev_dm": b["rev_dm"].astype("int64"),
                }
            )

    return (
        lo.map_batches(LocalOnly, batch_format="pandas", concurrency=(1, 8))
        .groupby("n_name")
        .aggregate(Sum("rev_dm", alias_name="revenue_dm"))
    )


def event_value_percentiles_cont(sf_dir: str) -> ray.data.Dataset:
    """INTERPOLATED per-event-type value percentiles — the SQL
    ``quantile_cont`` convention, replicated operand-for-operand over the
    same integer-cent inputs so the DOUBLE outputs are bit-identical to the
    twin (see :func:`stages.topk.grouped_quantiles_cont`). Complements the
    exact order-statistic (`event_value_quantiles`), histogram-sketch and
    KLL variants with SQL's continuous-percentile semantics."""
    import numpy as np
    import pyarrow as pa

    from ..stages.topk import grouped_quantiles_cont

    ev = _read(sf_dir, "events", columns=["event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        vc = _round_sql(pc.multiply(t["value"], 100.0)).cast("int64")
        return pa.table({"event_type": t["event_type"], "value_c": vc})

    return grouped_quantiles_cont(
        ev.map_batches(cents, batch_format="pyarrow"),
        keys=["event_type"],
        value_col="value_c",
    )


def q4_order_priority(
    sf_dir: str,
    date_lo: str = "1996-01-01",
    date_hi: str = "1996-04-01",
) -> ray.data.Dataset:
    """TPC-H Q4-shaped: orders placed in one quarter that have at least one
    returned line (the testdata lineitem carries no commit/receipt dates, so
    ``l_returnflag = 'R'`` stands in for Q4's late-line EXISTS predicate),
    counted by order priority.

    Scale shape: both sides are column-pruned and filtered BEFORE the one
    co-partitioned exchange of :func:`stages.join.semi_anti_join` — the
    probe side ships only block-deduped order keys of returned lines (~1/3
    of lineitem rows collapse to unique keys per block), never flags or
    payload; the build side ships only in-window orders. The final groupby
    is |priorities| rows. Reference anchor: SURVEY §2.4 semi-join family."""
    from ..stages.join import semi_anti_join

    lo_ts = pc.strptime(date_lo, "%Y-%m-%d", "us")
    hi_ts = pc.strptime(date_hi, "%Y-%m-%d", "us")

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    orders = orders.map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.greater_equal(t["o_orderdate"], lo_ts),
                pc.less(t["o_orderdate"], hi_ts),
            )
        ).select(["o_orderkey", "o_orderpriority"]),
        batch_format="pyarrow",
    )
    returned = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag"])
    returned = returned.map_batches(
        lambda t: t.filter(pc.equal(t["l_returnflag"], "R")).select(["l_orderkey"]),
        batch_format="pyarrow",
    )
    sj = semi_anti_join(orders, returned, left_on="o_orderkey", right_on="l_orderkey")
    return sj.groupby("o_orderpriority").aggregate(Count(alias_name="order_count"))


def event_transitions(sf_dir: str, num_parts: int = 64) -> "pd.DataFrame":
    """Per-user event-type transition (bigram) counts — the Markov-chain /
    user-journey matrix: for each consecutive pair of one user's events in
    (ts, event_id) order, count (event_type, next_type).

    Scale shape: the SAME single coarse user-keyed exchange as
    :func:`user_gap_stats` (users are partition-exclusive, so each user's
    lag chain is complete within its partition); inside each partition one
    (user, ts, event_id) lexsort + a shift with run-boundary masking forms
    every pair, then a LOCAL pandas groupby (dropna=False — SQL GROUP BY
    keeps one NULL group) collapses the partition to its |types|² count
    partials. Only those partials reach the driver (num_parts × |types|²
    rows), merged in one tiny pandas groupby — the Ray groupby over
    nullable string keys is avoided by design (its sort shuffle splits the
    NULL group per block; see stages/topk.py::null_safe_group_cols)."""
    import numpy as np
    import pyarrow as pa

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])

    def part_key(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.is_valid(t["user_id"]), pc.is_valid(t["ts"])))
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("_pid", pa.array(_user_pid(uid, num_parts), pa.int64()))

    def pair_counts(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = b["user_id"].to_numpy()
        et = b["event_type"].to_numpy(object)
        if len(b) < 2:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype=object),
                    "next_type": pd.Series([], dtype=object),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        same_user = uid[1:] == uid[:-1]  # pair (i, i+1) valid within a run
        pairs = pd.DataFrame(
            {"event_type": et[:-1][same_user], "next_type": et[1:][same_user]}
        )
        out = (
            pairs.groupby(["event_type", "next_type"], dropna=False)
            .size()
            .rename("n")
            .reset_index()
        )
        out["n"] = out["n"].astype("int64")
        return out

    partials = (
        ds.map_batches(part_key, batch_format="pyarrow")
        .groupby("_pid")
        .map_groups(pair_counts, batch_format="pandas")
        .to_pandas()
    )
    if not len(partials) or "event_type" not in partials.columns:
        return pd.DataFrame(
            {
                "event_type": pd.Series([], dtype=object),
                "next_type": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64"),
            }
        )
    out = (
        partials.groupby(["event_type", "next_type"], dropna=False)["n"]
        .sum()
        .reset_index()
    )
    out["n"] = out["n"].astype("int64")
    return out


def purchase_error_daily_join(
    sf_dir: str, num_partitions: int = NUM_PARTITIONS
) -> ray.data.Dataset:
    """FULL OUTER co-partitioned hash join (the last join type in the
    §2.4 family): per-(user, day) purchase activity joined against error
    activity — each side has rows the other lacks (~40% orphans per side on
    the synthetic log), so both outer directions fire. Counts/sums are
    COALESCEd to 0 post-join (an orphan row is still observable: a real
    group always has n >= 1).

    Scale shape: both sides are pre-aggregated per (user, day) BEFORE the
    join (the exchange ships one row per active user-day, not per event),
    then stages/join.py::shuffle_hash_join(how="full_outer") co-partitions
    the two aggregates once. Money is integer cents so partials are exact."""
    import pyarrow as pa

    from ..stages.join import shuffle_hash_join

    def side(event_type: str, prefix: str) -> ray.data.Dataset:
        ev = _read(sf_dir, "events", columns=["user_id", "ts", "event_type", "value"])

        def partial(t: pa.Table) -> pa.Table:
            # per-batch combine BEFORE the exchange: the (user, day) key
            # space is tiny vs the event count, so partials shrink the
            # shuffle from |events| rows to ~|active user-days| per batch
            t = t.filter(pc.equal(t["event_type"], event_type))
            ts_us = t["ts"].cast(pa.timestamp("us")).cast(pa.int64())
            # integer division — exact; ts is post-epoch so trunc == floor
            # (the DuckDB twin's `epoch_us(ts) // 86400000000`)
            day = pc.divide(ts_us, pa.scalar(86_400_000_000, pa.int64()))
            cents = _round_sql(pc.multiply(t["value"], 100.0)).cast(pa.int64())
            df = pd.DataFrame(
                {
                    "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                    "day": day.to_numpy(zero_copy_only=False),
                    "cents": cents.to_numpy(zero_copy_only=False),
                }
            )
            g = df.groupby(["user_id", "day"], sort=False)["cents"]
            out = g.agg(n="size", c="sum").reset_index()
            return pa.table(
                {
                    "user_id": pa.array(out["user_id"], pa.int64()),
                    "day": pa.array(out["day"], pa.int64()),
                    "n": pa.array(out["n"].astype("int64")),
                    "c": pa.array(out["c"].astype("int64")),
                }
            )

        return (
            ev.map_batches(partial, batch_format="pyarrow")
            # coalesce the tiny per-batch partial blocks before the sort
            # aggregate (the many-small-blocks pathology; measured 2x here)
            .repartition(8, shuffle=False)
            .groupby(["user_id", "day"])
            .aggregate(
                Sum("n", alias_name=f"n_{prefix}"),
                Sum("c", alias_name=f"{prefix}_cents"),
            )
        )

    out = shuffle_hash_join(
        side("purchase", "purchase"),
        side("error", "error"),
        ("user_id", "day"),
        how="full_outer",
        num_partitions=num_partitions,
    )

    def finish(t: pa.Table) -> pa.Table:
        zero = pa.scalar(0, pa.int64())
        return pa.table(
            {
                "user_id": t["user_id"],
                "day": t["day"],
                "n_purchase": pc.fill_null(t["n_purchase"].cast(pa.int64()), zero),
                "purchase_cents": pc.fill_null(t["purchase_cents"].cast(pa.int64()), zero),
                "n_error": pc.fill_null(t["n_error"].cast(pa.int64()), zero),
                "error_cents": pc.fill_null(t["error_cents"].cast(pa.int64()), zero),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def event_value_winsorized(
    sf_dir: str, lo_q: int = 5, hi_q: int = 95
) -> ray.data.Dataset:
    """Grouped WINSORIZED mean — the robust-statistics pattern every
    quality-score aggregation wants at web scale (a handful of garbage
    documents must not drag a source's mean): per event_type, clamp values
    to the exact [p5, p95] order statistics, then average.

    Two passes over the (projected) input, zero corpus shuffles: pass 1 is
    the shared exact-quantile exchange of (key, vm) pairs
    (stages/topk.py::grouped_quantiles, (n-1)*q//100 convention); the
    |types|-row cutoff table broadcasts into pass 2, which folds clipped
    partial sums per batch. Values are micro-ints (floor(value*1e6), the
    EVENT_VALUE_QUANTILES convention) so everything downstream is integer-
    exact; the mean is emitted in micro-units (DuckDB-parity half-away
    rounding of one double division)."""
    import numpy as np
    import pyarrow as pa

    from ray.data.aggregate import Count

    from ..stages.topk import grouped_quantiles

    def micro(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["value"]))
        vm = pc.floor(pc.multiply(t["value"], 1e6)).cast(pa.int64())
        return pa.table({"event_type": t["event_type"], "vm": vm})

    ev = _read(sf_dir, "events", columns=["event_type", "value"])
    cuts = (
        grouped_quantiles(
            ev.map_batches(micro, batch_format="pyarrow"),
            keys=["event_type"],
            value_col="vm",
            quantiles=(lo_q, hi_q),
        )
        .to_pandas()  # |event types| rows — a true small result
        .set_index("event_type")
    )
    lo_map = cuts[f"p{lo_q}"].to_dict()
    hi_map = cuts[f"p{hi_q}"].to_dict()
    ref = ray.put((lo_map, hi_map))

    class ClipFold:
        def __init__(self):
            self.lo, self.hi = ray.get(ref)

        def __call__(self, t: pa.Table) -> pd.DataFrame:
            t = micro(t)
            df = pd.DataFrame(
                {
                    "event_type": t["event_type"].to_pandas().astype(object),
                    "vm": t["vm"].to_numpy(zero_copy_only=False),
                }
            )
            lo = df["event_type"].map(self.lo).to_numpy(np.int64)
            hi = df["event_type"].map(self.hi).to_numpy(np.int64)
            df["vm"] = np.clip(df["vm"].to_numpy(np.int64), lo, hi)
            g = df.groupby("event_type", sort=False)["vm"]
            out = g.agg(clip_sum="sum", n="size").reset_index()
            out["clip_sum"] = out["clip_sum"].astype("int64")
            out["n"] = out["n"].astype("int64")
            return out

    totals = (
        ev.map_batches(ClipFold, batch_format="pyarrow", concurrency=(1, 8))
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("clip_sum", alias_name="clip_sum"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_pandas()
        n = t["n"].to_numpy(zero_copy_only=False).astype("float64")
        s = t["clip_sum"].to_numpy(zero_copy_only=False).astype("float64")
        mean_vm = _round_sql(pa.array(s / n, pa.float64())).cast(pa.int64())
        return pa.table(
            {
                "event_type": t["event_type"],
                "n": t["n"].cast(pa.int64()),
                "lo_vm": pa.array([lo_map[x] for x in et], pa.int64()),
                "hi_vm": pa.array([hi_map[x] for x in et], pa.int64()),
                "winsor_mean_vm": mean_vm,
            }
        )

    return totals.map_batches(finish, batch_format="pyarrow")


def sessionize(sf_dir: str, gap_us: int = 3_600_000_000, num_parts: int = 64) -> ray.data.Dataset:
    """Per-event SESSION-ID assignment — the assignment form of the
    session-window aggregate (``win_session`` collapses sessions to rows;
    this labels every event with its 1-based per-user session number and a
    session-start flag, the feature every funnel/retention pipeline joins
    back onto raw events).

    Semantics: sessions break when the gap to the user's previous event
    (ordered by ts, event_id — a total order) exceeds ``gap_us``; the first
    event of a user starts session 1. NULL user/ts rows are excluded on
    both sides (SQL's NULL partition would pool them into one lag chain).

    Scale shape: ONE exchange keyed by a coarse user partition (the
    ``user_gap_stats`` shape — ``num_parts`` groups, never per-user
    dispatch); inside each partition a single (user, ts, event_id) lexsort,
    one vectorized diff with run-boundary masking, and a cumsum-minus-base
    fold assign every session id. Output rows never exceed input rows and
    carry three int64 columns."""
    import numpy as np
    import pyarrow as pa

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def part_key(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.is_valid(t["user_id"]), pc.is_valid(t["ts"])))
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("_pid", pa.array(_user_pid(uid, num_parts), pa.int64()))

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "user_id": pd.Series([], dtype="int64"),
                    "session_id": pd.Series([], dtype="int64"),
                    "is_session_start": pd.Series([], dtype="int64"),
                }
            )
        b = b.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts = b["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        uid = b["user_id"].to_numpy()
        first = np.ones(len(b), bool)
        if len(b) > 1:
            first[1:] = uid[1:] != uid[:-1]
        gap = np.zeros(len(b), np.int64)
        gap[1:] = ts[1:] - ts[:-1]
        new_sess = (first | (gap > gap_us)).astype(np.int64)
        s = np.cumsum(new_sess)
        starts = np.flatnonzero(first)
        run_id = np.cumsum(first) - 1
        base = (s[starts] - 1)[run_id]
        return pd.DataFrame(
            {
                "event_id": b["event_id"].to_numpy().astype("int64"),
                "user_id": uid.astype("int64"),
                "session_id": (s - base).astype("int64"),
                "is_session_start": new_sess,
            }
        )

    return (
        ds.map_batches(part_key, batch_format="pyarrow")
        .groupby("_pid")
        .map_groups(assign, batch_format="pandas")
    )
