"""Streaming per-source admission cap: checkpointed quota filter over a
document stream.

The ingest-time form of the per-domain cap (RefinedWeb-style): admit at most
``k`` documents per ``key_col`` value, where "first k" is global across
micro-batches in arrival order — the admitted-count per key is per-shard
checkpointed state, so a resumed run never over-admits and a replayed batch
regenerates byte-identical output (same exactly-once contract and
``_microbatch`` protocol as ``DedupStreamRunner``).

Scale shape (100 TB): rows are exchanged ONCE per batch, hash-partitioned on
the key; each shard task touches only its own count slice — O(keys seen /
num_shards) integers, the smallest state of any runner here (a count per
domain, not per doc). Keys already at quota are dropped BEFORE the exchange:
each batch broadcasts the saturated-key set from the pre-batch committed
state (``ray.put`` once, probed with a vectorized ``is_in`` in the routing
stage — the ``stages.join.bloom_prefilter_join`` pattern, but with the exact
key set since a false positive here would wrongly drop an admissible row).
Replay stays byte-identical: the saturated set derives from the same
pre-batch state snapshot a replayed batch reads.

Reference anchor: the connector's micro-batch loop + idempotent sink
(README.md:9,18); the cap semantics are training-data curation surface with
no connector analogue.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from ..state.checkpoint import current_hash_impl
from ._microbatch import BatchResult, KeyedStateRunner


def saturated_keys(runner, batch_id: int, kind: str, key_col: str, k: int) -> pa.Array | None:
    """Keys already at quota in the pre-batch COMMITTED state — the routing
    stage drops their rows before the exchange. The EXACT key set (not a
    bloom bitmap): a false positive would wrongly drop an admissible row.
    Size is bounded by total-admitted / k."""
    arrs: list[pa.Array] = []
    for shard in range(runner.num_shards):
        st = runner.ckpt.load_state(shard, before_batch=batch_id, kind=kind)
        if st is None:
            continue
        sat = st.filter(pc.greater_equal(st["n_admitted"], k))[key_col]
        if len(sat):
            arrs.append(sat.combine_chunks())
    return pa.concat_arrays(arrs) if arrs else None


def drop_saturated(t: pa.Table, key_col: str, sat_ref) -> pa.Table:
    """Filter out rows of saturated keys (``ray.put`` once per batch, local
    after); NULL keys are never in the set."""
    if sat_ref is None:
        return t
    sat_keys = ray.get(sat_ref)
    drop = pc.is_in(t[key_col], value_set=sat_keys.cast(t.schema.field(key_col).type))
    return t.filter(pc.invert(pc.fill_null(drop, False)))


def admit(keys: pd.Series, st: pa.Table | None, key_col: str, k: int, kt: pa.DataType):
    """Global 1-based admission rank of each row (rows in arrival order)
    given the prior per-key admitted counts, and the new count state.

    Position within key via factorize codes, NOT the raw object values:
    sorting/uniquing an object array mixing None and str raises, and SQL's
    PARTITION BY treats NULL as one ordinary group (code -1)."""
    prior: dict[object, int] = {}
    if st is not None:
        sk = st[key_col].to_pandas(integer_object_nulls=True).astype(object)
        sn = st["n_admitted"].to_numpy(zero_copy_only=False)
        prior = dict(zip(sk, (int(x) for x in sn)))
    keys = keys.astype(object).where(keys.notna(), None)
    codes, uniq = pd.factorize(keys, use_na_sentinel=True)  # null → -1
    order = np.argsort(codes, kind="stable")
    ok = codes[order]
    rs = np.ones(len(keys), dtype=bool)
    if len(keys) > 1:
        rs[1:] = ok[1:] != ok[:-1]
    rid = np.cumsum(rs) - 1
    pos_sorted = np.arange(len(keys), dtype=np.int64) - np.repeat(
        np.flatnonzero(rs), np.bincount(rid)
    )
    pos = np.empty(len(keys), dtype=np.int64)
    pos[order] = pos_sorted
    # prior count per UNIQUE key (not per row), code -1 = the null key
    key_of = [None, *uniq]  # index by code+1
    base = np.array([prior.get(s, 0) for s in key_of], dtype=np.int64)
    rank = base[codes + 1] + pos + 1
    cnt = np.bincount(codes[rank <= k] + 1, minlength=len(key_of))
    new = dict(prior)
    for ci in np.flatnonzero(cnt):
        new[key_of[ci]] = new.get(key_of[ci], 0) + int(cnt[ci])
    # canonical key order (null first) → byte-stable state files
    # independent of dict insertion history
    skeys = sorted(new, key=lambda s: (s is not None, s))
    state = pa.table(
        {
            key_col: pa.array(skeys, kt),
            "n_admitted": pa.array([new[s] for s in skeys], pa.int64()),
        }
    )
    return rank, state


def admit_first(
    t: pa.Table, st: pa.Table | None, key_col: str, order_col: str, k: int, kt: pa.DataType
) -> tuple[pa.Table, np.ndarray, pa.Table]:
    """The cap fold over one shard's rows: ``t`` in ``order_col`` order (a
    stable sort, so ties keep arrival order), ranked by :func:`admit`
    against the prior counts ``st``. Returns the admitted rows (``rank <=
    k``), their ranks and the new count state. Only the key column goes
    through pandas; NULL keys form one group."""
    t = t.take(pc.sort_indices(t, [(order_col, "ascending")]))
    rank, state = admit(t[key_col].to_pandas(integer_object_nulls=True), st, key_col, k, kt)
    keep = rank <= k
    return t.filter(pa.array(keep)), rank[keep], state


class SourceCapRunner(KeyedStateRunner):
    """Micro-batch per-key admission cap over ``log_dir/window-*.parquet``.

    Output: ``sink_dir/batch-B/shard-K.parquet`` — admitted rows, original
    columns, ordered by ``order_col`` inside each shard file (deterministic
    for replay). Arrival order within a batch is ``order_col`` ascending;
    across batches it is batch order — i.e. with an ``order_col``-ordered
    log the admitted set is exactly "the k lowest ``order_col`` per key"."""

    STATE_KIND = "cap"
    STATS = ("admitted", "exchanged")

    def __init__(
        self,
        log_dir: str,
        num_shards: int,
        sink_dir: str,
        checkpoint_dir: str,
        k: int,
        key_col: str = "source",
        order_col: str = "doc_id",
    ):
        super().__init__(log_dir, num_shards, sink_dir, checkpoint_dir)
        self.k = int(k)
        self.key_col = key_col
        self.order_col = order_col

    def pins(self) -> dict:
        # cap + key/order columns are replay identity: resuming under a
        # different quota or key would silently change the admitted set
        return {
            "num_shards": self.num_shards,
            "cap_k": self.k,
            "cap_cols": f"{self.key_col}/{self.order_col}",
            # keys route through the polars-backed shard_of: a polars
            # upgrade could move a key away from its admitted count
            "hash_impl": current_hash_impl(),
        }

    def process(self, batch_id: int, bfiles: list[str]) -> BatchResult:
        r = super().process(batch_id, bfiles)
        # input rows from footers: the saturated-key prefilter drops rows
        # BEFORE the exchange, so per-shard stats never see them
        rows = sum(pq.read_metadata(f).num_rows for f in bfiles)
        m = r.stats
        r.stats = {
            "rows": rows,
            "admitted": m["admitted"],
            "rejected": rows - m["admitted"],
            "exchanged": m["exchanged"],
        }
        return r

    def plan(self, batch_id: int, bfiles: list[str]):
        key_col, order_col, k = self.key_col, self.order_col, self.k
        num_shards = self.num_shards
        sat = saturated_keys(self, batch_id, self.STATE_KIND, key_col, k)
        sat_ref = ray.put(sat) if sat is not None else None

        def route(t: pa.Table) -> pa.Table:
            from ..schema import shard_of

            # arrow-native: pandas would round-trip nullable int keys
            # through float64 (same rationale as KllStreamRunner.project)
            if pa.types.is_large_string(t.schema.field(key_col).type):
                i = t.schema.get_field_index(key_col)
                t = t.set_column(i, key_col, t[key_col].cast(pa.string()))
            t = drop_saturated(t, key_col, sat_ref)
            return t.append_column("_shard", shard_of(t[key_col], num_shards))

        # sink schema pinned from the log footer: an empty admitted part
        # keeps the log's column types
        out_schema = pq.read_schema(bfiles[0]).remove_metadata()

        def fold(gt: pa.Table, st: pa.Table | None):
            # state key type: the committed state's once written (replay
            # stable), else the batch's, string for an all-null key column
            kt = st.schema.field(key_col).type if st is not None else pa.null()
            if pa.types.is_null(kt):
                kt = gt.schema.field(key_col).type
                if pa.types.is_large_string(kt) or pa.types.is_null(kt):
                    kt = pa.string()
            out, _, state = admit_first(gt, st, key_col, order_col, k, kt)
            out = out.select(out_schema.names).cast(out_schema)
            return out, state, {"admitted": out.num_rows, "exchanged": gt.num_rows}

        return route, fold
