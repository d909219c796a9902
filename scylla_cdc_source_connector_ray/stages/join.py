"""Joins (SURVEY.md §2.4).

The reference's only join is the pre/delta/post image correlation (ST1), which
our op-derive kernel subsumes. The north_star adds three more:

1. **Stream-state join** (:func:`enrich_with_conv_state`): every turn event is
   joined against the *per-conversation state store* — the running aggregate
   of all PRIOR turns of its conversation (n_prior_turns, n_prior_chars,
   last_role, last_ts). Expressed Ray-Data-first as the same single
   hash-shuffle as op-derive: shard by ``conv_id``, one vectorized
   sort + exclusive-prefix pass per shard block. In the micro-batch runner the
   store persists across batches as a per-shard Parquet state table (the
   RocksDB-style sorted map of the north_star, but lineage-friendly).

2. **Broadcast enrichment join** (:func:`broadcast_join`): small dimension
   table shipped once via ``ray.put`` and hash-joined inside ``map_batches``
   (no shuffle) — ray_guide "Joins and lookups".

3. **Co-partitioned joins** (:func:`_co_partition` and its verbs
   :func:`shuffle_hash_join`, :func:`semi_anti_join`, :func:`asof_join`,
   :func:`interval_join`, :func:`bloom_prefilter_join`): one keyed exchange
   of both sides, one join per partition.
"""

from __future__ import annotations

import weakref

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..schema import SEQ_COL
from . import exchange

CONV_STATE_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("n_turns", pa.int64()),
        ("n_chars", pa.int64()),
        ("last_role", pa.string()),
        ("last_ts_us", pa.int64()),
    ]
)


def conv_state_prefix(
    t: pa.Table, seed: pa.Table | None = None
) -> tuple[pa.Table, pa.Table]:
    """One shard block of transcript rows → (enriched rows, new conv state).

    Enriched columns are the *exclusive* prefix per conversation in
    ``(ts, seq)`` order: the state as it stood before each turn arrived.
    ``seed``: CONV_STATE_SCHEMA rows carried in from the previous micro-batch.
    """
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

    # each conv's seed row, one hash lookup of the block's conv starts in
    # the seed (-1: a conv the seed has not seen)
    start_conv = pc.take(conv, pa.array(starts, pa.int64()))
    has_seed = seed is not None and seed.num_rows > 0
    at = np.full(len(starts), -1, dtype=np.int64)
    if has_seed:
        pos = pc.index_in(start_conv, value_set=seed["conv_id"].combine_chunks().cast(conv.type))
        at = pc.fill_null(pos, -1).to_numpy().astype(np.int64)
    hit = at >= 0
    seed_n = np.zeros(n, dtype=np.int64)
    seed_c = np.zeros(n, dtype=np.int64)
    seed_roles = pa.array([], pa.string())
    # previous turn's role/ts: the row before in the block, at a conv's
    # first row the seed's last turn (NULL without one)
    prev_ts = np.zeros(n, dtype=np.int64)
    prev_valid = np.ones(n, dtype=bool)
    if n:
        prev_ts[1:] = ts_us[:-1]
        prev_valid[starts] = False
    if hit.any():
        rows = pa.array(at[hit], pa.int64())
        seed_n[starts[hit]] = pc.take(seed["n_turns"], rows).to_numpy()
        seed_c[starts[hit]] = pc.take(seed["n_chars"], rows).to_numpy()
        seed_ts = pc.take(seed["last_ts_us"], rows).combine_chunks()
        prev_ts[starts[hit]] = pc.fill_null(seed_ts, 0).to_numpy()
        prev_valid[starts[hit]] = seed_ts.is_valid().to_numpy(zero_copy_only=False)
        seed_roles = seed["last_role"].combine_chunks().cast(pa.string())
    if n:
        # propagate seed offsets across the conv's rows (idx computed above)
        seed_n = seed_n[idx]
        seed_c = seed_c[idx]
    # candidates: the block's roles, the seed's last roles, one NULL
    roles = pa.concat_arrays(
        [t["role"].combine_chunks().cast(pa.string()), seed_roles, pa.nulls(1, pa.string())]
    )
    role_at = np.arange(-1, n - 1, dtype=np.int64)
    role_at[starts] = np.where(hit, n + at, len(roles) - 1)

    prior_turns = prior_turns + seed_n
    prior_chars = prior_chars + seed_c

    enriched = (
        t.append_column("prior_turns", pa.array(prior_turns, pa.int64()))
        .append_column("prior_chars", pa.array(prior_chars, pa.int64()))
        .append_column("prev_role", pc.take(roles, pa.array(role_at, pa.int64())))
        .append_column("prev_ts_us", pa.array(prev_ts, pa.int64(), mask=~prev_valid))
    )

    # new state: totals per conv (inclusive), last row's role/ts
    if n:
        ends = np.append(starts[1:] - 1, n - 1)
        new_state = pa.table(
            {
                "conv_id": start_conv,
                "n_turns": pa.array(prior_turns[ends] + 1, pa.int64()),
                "n_chars": pa.array(prior_chars[ends] + chars[ends], pa.int64()),
                "last_role": pc.take(t["role"].combine_chunks(), pa.array(ends, pa.int64())),
                "last_ts_us": pa.array(ts_us[ends], pa.int64()),
            }
        )
        # carry forward seeded convs not present in this block
        if has_seed:
            seed_conv = seed["conv_id"]
            present = start_conv.cast(seed_conv.type)
            missing = seed.filter(pc.invert(pc.is_in(seed_conv, value_set=present)))
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


def enrich_with_conv_state(ds: ray.data.Dataset, num_shards: int = 64) -> ray.data.Dataset:
    """Batch-mode stream-state join: each turn row + the state of its
    conversation as of just before the turn. One hash shuffle by conv_id."""
    return exchange.shuffle(ds, lambda g: conv_state_prefix(g)[0], ["conv_id"], num_shards)


def conv_state_features(ds: ray.data.Dataset, num_shards: int = 64) -> ray.data.Dataset:
    """Lean variant of :func:`enrich_with_conv_state` for feature extraction:
    the text payload is reduced to its length BEFORE the shuffle, so the
    exchange moves ~10× fewer bytes. Output: key/order columns + the prior
    state features only."""
    import pyarrow as pa_

    def slim(b: pa.Table) -> pa.Table:
        chars = pc.fill_null(pc.utf8_length(b["text"].combine_chunks()), 0).cast(pa_.int64())
        out = b.select(["conv_id", "turn_idx", "role", "ts", SEQ_COL])
        return out.append_column("chars", chars)

    enriched = enrich_with_conv_state(ds.map_batches(slim, batch_format="pyarrow"), num_shards)
    return enriched.select_columns(
        ["conv_id", "turn_idx", SEQ_COL, "prior_turns", "prior_chars", "prev_role", "prev_ts_us"]
    )


# ---------------------------------------------------------------------------
# Co-partitioned joins. Every shuffle join in the engine — relational
# (inner/outer/semi/anti), as-of and interval — is one shape: tag each side,
# hash the equality key to a partition (exchange.part_of), union the two
# streams and join each partition once in the batch operators' one keyed
# shuffle (exchange.shuffle); both inputs move exactly once.
# Assumption: no single key dominates (a hot key lands whole in one
# partition — salt it upstream, as stages/salt.py does for conversations).
# ---------------------------------------------------------------------------

_SIDE_COL = "__oj_side"
_BUCKET_COL = "__oj_bucket"
_RIGHT_PREFIX = "__oj_r."


def _arrow_schema(schema) -> pa.Schema:
    """A Ray ``Schema`` as a real ``pa.Schema``. ``schema.base_schema`` is a
    ``PandasBlockSchema`` (parallel names/types lists) for pandas-backed
    datasets — normalize both representations. A pandas ``object`` column
    has no Arrow type to recover, so it fails here, by name."""
    if schema is None:
        raise ValueError(
            "join: input has no rows and no recoverable schema (Ray keeps no "
            "column types for an all-empty computed side)"
        )
    s = schema.base_schema
    if isinstance(s, pa.Schema):
        return s
    fields = []
    for n, t in zip(s.names, s.types):
        if not isinstance(t, pa.DataType):
            if np.dtype(t) == np.dtype(object):
                raise ValueError(
                    f"join: column {n!r} of a pandas-backed input has dtype "
                    "object, which has no Arrow type; emit Arrow batches "
                    "(batch_format='pyarrow') or cast the column first"
                )
            t = pa.from_numpy_dtype(t)
        fields.append(pa.field(n, t))
    return pa.schema(fields)


#: output schema of every dataset :func:`_co_partition` returned, so a join
#: fed straight into another join is never run early to learn its schema
_OUT_SCHEMAS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _all_to_all_upstream(op) -> bool:
    """True when logical plan ``op`` has a step that must consume all its
    input before it emits a block (aggregate, sort, repartition, join)."""
    from ray.data._internal.logical.operators.all_to_all_operator import AbstractAllToAll
    from ray.data._internal.logical.operators.join_operator import Join

    return isinstance(op, (AbstractAllToAll, Join)) or any(
        _all_to_all_upstream(d) for d in op.input_dependencies
    )


def _resolve(ds: ray.data.Dataset, prep=None) -> tuple[ray.data.Dataset, pa.Schema]:
    """``(ds with prep applied, its Arrow schema)`` for one join side,
    without running ``ds``'s plan twice. ``prep`` is an optional per-batch
    ``pa.Table -> pa.Table`` map (renames, bucket columns, key projections).

    - A kernel output's schema, or one Ray infers from the plan (reads,
      ``from_*``), is free; ``prep``'s comes from a typed empty table.
    - A plan without an all-to-all step yields its first block cheaply:
      ``ds.schema()`` runs ``ds.limit(1)`` and ``ds`` stays lazy.
    - Otherwise (aggregate-, sort- or join-fed) the first block needs the
      whole upstream, which the join would then run again, so the side is
      materialized once — after ``prep``, so a semi-join probe pins only
      its distinct keys — and its schema read off its blocks.
    """
    schema = _OUT_SCHEMAS.get(ds)
    if schema is None:
        known = ds.schema(fetch_if_missing=False)
        if known is None and _all_to_all_upstream(ds._logical_plan.dag):
            if prep:
                ds = ds.map_batches(prep, batch_format="pyarrow")
            ds = ds.materialize()
            return ds, _arrow_schema(ds.schema())
        schema = _arrow_schema(known if known is not None else ds.schema())
    if prep:
        ds = ds.map_batches(prep, batch_format="pyarrow")
        schema = prep(schema.empty_table()).schema
    return ds, schema


def _null_pad(t: pa.Table, target: pa.Schema) -> pa.Table:
    """Conform a batch to ``target``: missing columns become typed nulls, and
    column order matches — the two tagged sides must share one exact schema
    for the union + keyed exchange."""
    cols = []
    for f in target:
        if f.name in t.column_names:
            c = t[f.name]
            if c.type != f.type:
                c = c.cast(f.type)
            cols.append(c)
        else:
            cols.append(pa.nulls(t.num_rows, f.type))
    return pa.table(dict(zip(target.names, cols)))


def _co_partition(
    left: tuple[ray.data.Dataset, pa.Schema],
    right: tuple[ray.data.Dataset, pa.Schema],
    left_keys: tuple[str, ...],
    right_keys: tuple[str, ...],
    per_part,
    num_partitions: int,
) -> ray.data.Dataset:
    """The one co-partition join kernel: ``per_part(l, r)`` runs once per
    hash partition on the two typed Arrow slices that share it and returns
    that partition's output table. ``left`` / ``right`` are sides resolved
    by :func:`_resolve` — ``(dataset, its Arrow schema)`` — and the keys
    name columns of those schemas.

    Shape: right columns are prefixed (so equal names on the two sides never
    collide in the union), each batch is null-padded to the one union
    schema, tagged with its side and the pinned hash of its full equality
    key, the two streams are unioned and :func:`.exchange.shuffle` splits
    every partition back into ``(l, r)`` at exactly the input schemas —
    0-row but typed when a side has no rows in that partition. Checks: join
    keys exist, the reserved tag columns are free, and payload (non-key)
    names are disjoint; ``per_part`` then runs once on two empty slices, so
    it fails at call time on anything it rejects and the output schema is
    known before any row moves.

    Why not Ray 2.49's native ``Dataset.join`` — it fails two ways:

    1. Crash on an empty partition. Its hash-shuffle aggregator builds a
       partition that received no shard from one side as a zero-column
       table (``ArrowBlockBuilder().build()`` in
       ``ray/data/_internal/execution/operators/join.py::finalize``) and
       the Arrow join dies with "No match or multiple matches for key field
       reference FieldRef.Name(k)". Repro (8 cpus)::

           counts = (ray.data.from_items([{"k": i % 3} for i in range(90)])
                     .repartition(6).groupby("k").aggregate(Count()))
           ray.data.from_items([{"k": i % 5, "v": i} for i in range(200)]
                               ).join(counts, "inner", num_partitions=4,
                                      on=("k",)).count()

    2. Hang on actor demand. Every partition is an aggregator actor; when
       they outnumber the CPUs the plan stalls. The repro above with
       ``num_partitions=16`` at 4 cpus had not finished after 300 s, and
       ``doc_term_relevance`` at sf0.1 on 32 cpus had not finished after
       900 s (68 s of CPU: stalled, not slow).

    Here a partition with rows from only one side still has both typed
    slices, partitions without rows never run, and the exchange is a plain
    task shuffle, so neither failure can occur at any partition count.
    """
    (left, ls), (right, rs) = left, right
    left_keys, right_keys = list(left_keys), list(right_keys)
    for schema, keys in ((ls, left_keys), (rs, right_keys)):
        for reserved in (_SIDE_COL, exchange.PART_COL):
            if reserved in schema.names:
                raise ValueError(f"input dataset already has a {reserved!r} column")
        missing = [k for k in keys if k not in schema.names]
        if missing:
            raise ValueError(f"join keys {missing} missing from columns {schema.names}")
    clash = (set(ls.names) - set(left_keys)) & (set(rs.names) - set(right_keys))
    if clash:
        raise ValueError(f"payload columns must be disjoint, both sides have {sorted(clash)}")
    out_schema = per_part(ls.empty_table(), rs.empty_table()).schema
    r_names = [_RIGHT_PREFIX + n for n in rs.names]
    union = pa.schema([*ls, *[f.with_name(n) for f, n in zip(rs, r_names)]])

    def tag(side: int, keys: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            part = exchange.part_of(t, keys, num_partitions)
            if side:
                t = t.rename_columns([_RIGHT_PREFIX + n for n in t.column_names])
            t = _null_pad(t, union)
            t = t.append_column(_SIDE_COL, pa.array(np.full(t.num_rows, side, np.int8)))
            return t.append_column(exchange.PART_COL, part)

        return fn

    def run(g: pa.Table) -> pa.Table:
        is_r = pc.equal(g[_SIDE_COL], 1)
        l = g.filter(pc.invert(is_r)).select(ls.names).cast(ls)
        r = g.filter(is_r).select(r_names).rename_columns(rs.names).cast(rs)
        return per_part(l.combine_chunks(), r.combine_chunks())

    tagged = left.map_batches(tag(0, left_keys), batch_format="pyarrow").union(
        right.map_batches(tag(1, right_keys), batch_format="pyarrow")
    )
    out = exchange.shuffle(tagged, run)
    _OUT_SCHEMAS[out] = out_schema
    return out


def _keys(on: str | tuple[str, ...]) -> tuple[str, ...]:
    return (on,) if isinstance(on, str) else tuple(on)


def _arrow_join(how: str, left_keys: tuple[str, ...], right_keys: tuple[str, ...]):
    """``(l, r) -> l ⋈ r`` with pyarrow's hash join — the same call Ray's
    native join aggregator makes, so output columns match it: left columns,
    then right non-key columns (right keys coalesced into the left's).
    ``how`` takes Ray's join-type names (``inner``, ``left_outer``,
    ``full_outer``, ``left_semi``, ``left_anti``, ...); pyarrow rejects any
    other."""
    verb = how.replace("_", " ")

    def join(l: pa.Table, r: pa.Table) -> pa.Table:
        return l.join(r, keys=list(left_keys), right_keys=list(right_keys), join_type=verb)

    return join


def shuffle_hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_on: str | tuple[str, ...],
    right_on: str | tuple[str, ...] | None = None,
    how: str = "inner",
    num_partitions: int = exchange.NUM_PARTITIONS,
) -> ray.data.Dataset:
    """Generic co-partitioned large–large hash join (multi-key): both sides
    cross one keyed exchange into ``num_partitions`` partitions and each
    partition runs pyarrow's hash join (:func:`_co_partition`).

    This is the scale path when neither side is a dimension: bytes moved =
    both inputs once, memory per partition task = partition size (raise
    ``num_partitions`` to shrink it). Prune columns BEFORE calling — the
    exchange ships every column you keep. For a small right side prefer
    :func:`broadcast_join` (no shuffle at all). Payload (non-key) column
    names must be disjoint.

    Inputs are Arrow-typed: a pandas-backed input (``from_pandas``, a
    ``batch_format="pandas"`` map) must not carry ``object`` columns, such
    as strings — those fail with a ``ValueError`` naming the column. Emit
    Arrow batches or cast such columns first.

    NULL keys follow SQL semantics: a NULL key never matches (outer verbs
    emit each NULL-key row unmatched; semi drops it, anti keeps it).

    Caveat: Arrow ``list``-typed payload columns are not supported by the
    pyarrow join — encode them (e.g. a binary blob) first, as
    ``functions.dedup.minhash_lsh_dedup`` does for shingle sets.
    """
    left_on = _keys(left_on)
    right_on = left_on if right_on is None else _keys(right_on)
    return _co_partition(
        _resolve(left), _resolve(right), left_on, right_on,
        _arrow_join(how, left_on, right_on), num_partitions,
    )


def broadcast_join(
    ds: ray.data.Dataset,
    small: pd.DataFrame,
    left_on: str,
    right_on: str,
    columns: list[str],
) -> ray.data.Dataset:
    """Broadcast hash join (left outer): ship the small side once as Arrow
    (``ray.put``) and run the same pyarrow join as :func:`shuffle_hash_join`
    inside each batch. No shuffle; the pattern for dimension enrichment."""
    ref = ray.put(pa.Table.from_pandas(small[[right_on, *columns]], preserve_index=False))
    join = _arrow_join("left_outer", (left_on,), (right_on,))

    class Joiner:
        def __init__(self):
            self.small = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            return join(batch, self.small)

    return ds.map_batches(Joiner, batch_format="pyarrow", concurrency=(1, 8))


def _to_arrow_exact(df: pd.DataFrame, schema: pa.Schema) -> pa.Table:
    """Partition output → Arrow at EXACTLY ``schema``. Per-partition pandas
    frames drift (all-NaN object columns infer null type; unmatched outer
    rows turn int64 payload into float64 NaN, restored here via nullable
    Int64); a pinned schema from every partition keeps Ray's block
    concatenation and the downstream consumer schema-stable."""
    df = df.reindex(columns=schema.names)
    for f in schema:
        if pa.types.is_integer(f.type) and df[f.name].dtype.kind == "f":
            df[f.name] = df[f.name].astype("Int64")
    tbl = pa.Table.from_pandas(df, preserve_index=False)
    return pa.table({f.name: tbl[f.name].cast(f.type) for f in schema})


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    by: str,
    on: str,
    direction: str = "backward",
    suffix: str = "_r",
    tolerance: int | None = None,
    num_partitions: int = exchange.NUM_PARTITIONS,
) -> ray.data.Dataset:
    """Distributed as-of join: for every left row, attach the right row with
    the same ``by`` key and the nearest ``on`` value (``backward``: greatest
    right ``on`` <= left ``on``; ``forward``/``nearest`` as in pandas).
    Left-outer semantics — unmatched left rows keep typed nulls.

    ``on`` must be a numeric or timestamp column with identical type on both
    sides; right payload columns (everything except ``by``) are renamed with
    ``suffix``. ``tolerance`` bounds the match distance in ``on`` units.

    Scale shape: the :func:`_co_partition` exchange keyed on ``by``; each
    partition sorts its slice and runs ``pandas.merge_asof`` (a vectorized C
    merge over two sorted runs — no per-row Python). Prune columns before
    calling; the exchange ships everything you keep.
    """
    on_r = on + suffix

    def suffix_right(t: pa.Table) -> pa.Table:
        return t.rename_columns([n if n == by else n + suffix for n in t.column_names])

    left, right = _resolve(left), _resolve(right, suffix_right)
    if on not in left[1].names or on_r not in right[1].names:
        raise ValueError(f"asof_join: on={on!r} missing from inputs")

    def join_part(lt: pa.Table, rt: pa.Table) -> pa.Table:
        right_out = [n for n in rt.column_names if n != by]
        out_schema = pa.schema([*lt.schema, *[rt.schema.field(n) for n in right_out]])
        if not lt.num_rows:
            return out_schema.empty_table()
        # merge_asof rejects NULL keys and wants one `by` dtype on both sides:
        # drop NULL keys in Arrow (left ones stay, unmatched) so neither `by`
        # turns float64 in pandas, and give the right key the left's type
        l_nullkey = lt.filter(pc.is_null(lt[by])).to_pandas()
        lt = lt.filter(pc.is_valid(lt[by]))
        rt = rt.filter(pc.is_valid(rt[by]))
        rt = rt.set_column(
            rt.schema.get_field_index(by), by, rt[by].cast(lt.schema.field(by).type)
        )
        l = lt.to_pandas().sort_values(on, kind="mergesort")
        if not rt.num_rows or not len(l):
            out = l
        else:
            r = rt.to_pandas()
            # merge_asof keeps the LAST right row among equal `on` values and
            # a plain on-sort is only stable w.r.t. Ray's nondeterministic
            # block arrival order — total-order the right side so tied
            # (by, on) rows resolve identically across runs (greatest row in
            # column order wins); fall back if some column is unsortable
            try:
                r = r.sort_values(
                    [on_r, *[c for c in right_out if c != on_r]], kind="mergesort"
                )
            except TypeError:
                r = r.sort_values(on_r, kind="mergesort")
            out = pd.merge_asof(
                l, r, left_on=on, right_on=on_r, by=by, direction=direction,
                tolerance=tolerance,
            )
        if len(l_nullkey):
            out = pd.concat([out, l_nullkey])
        return _to_arrow_exact(out, out_schema)

    return _co_partition(left, right, (by,), (by,), join_part, num_partitions)


def interval_join(
    points: ray.data.Dataset,
    intervals: ray.data.Dataset,
    by: str,
    ts: str,
    start: str,
    end: str,
    bucket_width: int,
    suffix: str = "_r",
    num_partitions: int = exchange.NUM_PARTITIONS,
) -> ray.data.Dataset:
    """Distributed range (interval) join: emit one row per (point, interval)
    pair with equal ``by`` key and ``start <= ts < end`` (inner semantics;
    a point inside k intervals yields k rows).

    ``ts``/``start``/``end`` are int64 (e.g. epoch-µs). The classic shuffle
    trick for inequality predicates: time is cut into ``bucket_width`` cells;
    every interval is REPLICATED to each cell it overlaps (np.repeat — no
    Python loop), every point goes to its single cell, and the
    :func:`_co_partition` exchange is keyed on (by, cell). Each partition
    then runs one hash merge + vectorized band filter. Replication factor =
    avg interval length / bucket_width + 1, so pick ``bucket_width`` ≈ the
    typical interval length; shuffle cost = points once + intervals ×
    replication.
    """
    from ..functions.dedup import _ranges

    def bucket_points(t: pa.Table) -> pa.Table:
        # numpy floor division, NOT pc.divide: pc.divide truncates toward
        # zero, so negative timestamps would land one cell off the interval
        # side's `s // bucket_width` flooring and matching pairs vanish
        tv = t[ts].combine_chunks().to_numpy(zero_copy_only=False)
        return t.append_column(_BUCKET_COL, pa.array(tv // bucket_width, pa.int64()))

    points = _resolve(points, bucket_points)
    pnames = [n for n in points[1].names if n != _BUCKET_COL]

    def out_name(n: str) -> str:
        return n + suffix if n != by and n in pnames else n

    start_o, end_o = out_name(start), out_name(end)

    def replicate_intervals(t: pa.Table) -> pa.Table:
        t = t.rename_columns([out_name(n) for n in t.column_names])
        s = t[start_o].combine_chunks().to_numpy(zero_copy_only=False)
        e = t[end_o].combine_chunks().to_numpy(zero_copy_only=False)
        b0 = s // bucket_width
        b1 = np.maximum((e - 1) // bucket_width, b0)  # end exclusive
        counts = (b1 - b0 + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(s), dtype=np.int64), counts)
        buckets = b0[idx] + _ranges(counts)
        rep = t.take(pa.array(idx))
        return rep.append_column(_BUCKET_COL, pa.array(buckets, pa.int64()))

    intervals = _resolve(intervals, replicate_intervals)

    def join_part(lt: pa.Table, rt: pa.Table) -> pa.Table:
        ivl_out = [n for n in rt.column_names if n not in (by, _BUCKET_COL)]
        out_schema = pa.schema([*map(lt.schema.field, pnames), *map(rt.schema.field, ivl_out)])
        if not lt.num_rows or not rt.num_rows:
            return out_schema.empty_table()
        m = lt.to_pandas().merge(rt.to_pandas(), on=[by, _BUCKET_COL])
        m = m[(m[start_o] <= m[ts]) & (m[ts] < m[end_o])]
        return _to_arrow_exact(m, out_schema)

    keys = (by, _BUCKET_COL)
    return _co_partition(points, intervals, keys, keys, join_part, num_partitions)


def semi_anti_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_on: str,
    right_on: str | None = None,
    anti: bool = False,
    num_partitions: int = exchange.NUM_PARTITIONS,
) -> ray.data.Dataset:
    """Distributed SEMI (EXISTS) / ANTI (NOT EXISTS) join: keep left rows
    whose key does (semi) or does not (anti) appear in ``right``.

    Scale shape: the right side is projected to DISTINCT KEYS PER BATCH
    before the :func:`_co_partition` exchange (the probe needs membership
    only — right payload and right duplicates never ship), and each
    partition runs pyarrow's ``left semi`` / ``left anti`` join. No
    pairing, no row multiplication — bytes moved = left once + right's
    unique keys once.

    NULL keys: right NULLs are dropped (SQL ``o.k = c.k`` never matches
    NULL), so a NULL left key is dropped by semi and kept by anti."""
    right_on = right_on or left_on
    left = _resolve(left)
    key_type = left[1].field(left_on).type

    def distinct_keys(t: pa.Table) -> pa.Table:
        keys = pc.drop_null(pc.unique(t[right_on].combine_chunks()))
        return pa.table({right_on: keys.cast(key_type)})

    how = "left_anti" if anti else "left_semi"
    return _co_partition(
        left, _resolve(right, distinct_keys), (left_on,), (right_on,),
        _arrow_join(how, (left_on,), (right_on,)), num_partitions,
    )


# ---------------------------------------------------------------------------
# Bloom-prefiltered join
# ---------------------------------------------------------------------------
def _bloom_hashes(keys: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """Two independent stable 64-bit hashes per key (polars fixed-seed hash
    of the string-cast key — the same engine-wide stable-hash choice as
    ``schema.shard_of``), combined downstream by double hashing
    (h1 + i·h2, Kirsch & Mitzenmacher 2006)."""
    import polars as pl

    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    s = pl.from_arrow(keys.cast(pa.string()))
    return (
        s.hash(seed=1).to_numpy().astype(np.uint64),
        s.hash(seed=2).to_numpy().astype(np.uint64),
    )


def _bloom_set(words: np.ndarray, h1: np.ndarray, h2: np.ndarray, k: int, m: int):
    for i in range(k):
        idx = (h1 + np.uint64(i) * h2) % np.uint64(m)
        np.bitwise_or.at(words, (idx >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (idx & np.uint64(63)))


def _bloom_test(words: np.ndarray, h1: np.ndarray, h2: np.ndarray, k: int, m: int):
    hit = np.ones(len(h1), dtype=bool)
    for i in range(k):
        idx = (h1 + np.uint64(i) * h2) % np.uint64(m)
        bit = (words[(idx >> np.uint64(6)).astype(np.int64)]
               >> (idx & np.uint64(63))) & np.uint64(1)
        hit &= bit.astype(bool)
    return hit


def bloom_prefilter_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_on: str,
    right_on: str | None = None,
    m_bits: int = 1 << 22,
    k_hashes: int = 4,
    num_partitions: int = exchange.NUM_PARTITIONS,
) -> ray.data.Dataset:
    """Inner join where the LEFT side is pre-filtered by a Bloom filter of
    the right side's keys before anything is shuffled — the classic
    selective-join optimization: when only a few percent of left rows have
    a partner, the exchange ships those few percent instead of the whole
    fact table. The result is EXACT (bloom false positives survive the
    prefilter but are dropped by the exact co-partitioned join behind it),
    so the SQL twin is a plain inner join.

    Scale shape: the filter is built distributed (one ``m_bits/8``-byte
    bitmap per right block, OR-merged on the driver — bitmaps are key-count
    independent) and broadcast once via ``ray.put``; every left task tests
    its batch vectorized (two stable hashes + double hashing, no Python per
    row). Driver state = one bitmap (512 KB at the default m_bits), NOT the
    key set. Size ``m_bits ≈ 10–16 bits per distinct right key`` to keep
    the false-positive rate ~1% — oversizing only costs broadcast bytes,
    never correctness.
    """
    right_on = left_on if right_on is None else right_on
    n_words = (m_bits + 63) // 64
    # the right side is consumed twice (bloom build + the join behind it);
    # materialize once so its upstream read/transforms don't re-execute —
    # the function's premise is that the right side is small
    right = right.materialize()

    def block_bloom(t: pa.Table) -> pa.Table:
        words = np.zeros(n_words, dtype=np.uint64)
        if t.num_rows:
            h1, h2 = _bloom_hashes(t[right_on])
            _bloom_set(words, h1, h2, k_hashes, m_bits)
        return pa.table({"bloom": pa.array([words.tobytes()], pa.binary())})

    merged = np.zeros(n_words, dtype=np.uint64)
    for row in (
        right.select_columns([right_on])
        .map_batches(block_bloom, batch_format="pyarrow")
        .take_all()
    ):
        merged |= np.frombuffer(row["bloom"], dtype=np.uint64)
    bloom_ref = ray.put(merged)

    def prefilter(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        words = ray.get(bloom_ref)  # zero-copy view from the object store
        h1, h2 = _bloom_hashes(t[left_on])
        return t.filter(pa.array(_bloom_test(words, h1, h2, k_hashes, m_bits)))

    pruned = left.map_batches(prefilter, batch_format="pyarrow")
    return shuffle_hash_join(
        pruned, right, left_on, right_on, num_partitions=num_partitions
    )
