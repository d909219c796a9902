"""Streaming grouped KLL-quantile sketch: checkpointed adaptive quantile
state over a windowed log — the streaming face of
``stages/topk.py::grouped_quantiles_kll`` and the heavy-tail complement to
``hist_stream.py`` (whose fixed-width bins need a width chosen in advance).

State per shard: (key, level, parity, vals list<double>) rows — O(keys × k)
floats regardless of row count. Determinism/exactly-once: the per-shard
update is a pure function of (previous state, the batch's value MULTISET per
key) because KLL compaction sorts its buffer — input order never matters —
so replaying a batch from the pre-batch snapshot reproduces the state
byte-for-byte (state rows are written value-sorted). Raw (key, value) rows
cross the exchange rather than map-side partial sketches: partials built per
Ray block would make the state depend on Ray's nondeterministic block
splits and break replay identity (the batch operator, which has no replay
contract, does use map-side partials).

Composes the shared micro-batch protocol (``_microbatch.py``): resume pins
(num_shards / hash_impl / k / columns), pre-batch state snapshots,
manifest-gated reads.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..state.checkpoint import current_hash_impl
from ._microbatch import KeyedStateRunner


class KllStreamRunner(KeyedStateRunner):
    """Micro-batch per-key KLL quantile sketch over
    ``log_dir/window-*.parquet`` (columns ``key_col``, ``value_col``; NULL
    values dropped like SQL aggregates). Estimates come from
    :meth:`read_quantiles` on the COMMITTED state."""

    STATE_KIND = "kll"
    STATS = ("rows", "state_rows")

    def __init__(
        self,
        log_dir: str,
        num_shards: int,
        checkpoint_dir: str,
        key_col: str,
        value_col: str,
        k: int = 200,
    ):
        super().__init__(log_dir, num_shards, None, checkpoint_dir)
        self.k = int(k)
        self.key_col = key_col
        self.value_col = value_col

    def pins(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "hash_impl": current_hash_impl(),
            # k changes the compaction schedule; resuming with another k
            # (or other columns) would merge incompatible sketches
            # v2: _compress restarts its scan when the sketch height
            # grows (different — tighter — state bytes than v1, so an
            # old checkpoint must fail loudly rather than resume)
            "kll_impl": f"v2/{self.k}/{self.key_col}/{self.value_col}",
        }

    def plan(self, batch_id: int, bfiles: list[str]):
        key_col, value_col = self.key_col, self.value_col
        num_shards, k = self.num_shards, self.k

        def project(t: pa.Table) -> pa.Table:
            from ..schema import shard_of

            # arrow-native end-to-end: a pandas batch format would round-trip
            # int64 keys with NULLs through float64 (loses >2^53 ids, drifts
            # the state schema to double) before we could intervene
            t = t.select([key_col, value_col]).filter(pc.is_valid(t[value_col]))
            # only pin large_string → string so the exchange's promotion
            # can't drift the state schema (same as CepStreamRunner)
            if pa.types.is_large_string(t.schema.field(key_col).type):
                i = t.schema.get_field_index(key_col)
                t = t.set_column(i, key_col, t[key_col].cast(pa.string()))
            return t.append_column("_shard", shard_of(t[key_col], num_shards))

        def fold(gt: pa.Table, st: pa.Table | None):
            from ..functions.sketches import KLLSketch

            # integer_object_nulls keeps int keys as Python ints/None in an
            # object column instead of the lossy float64 representation
            g = gt.to_pandas(integer_object_nulls=True)
            state: dict[object, KLLSketch] = {}
            # canonical key type for the state file: prefer the committed
            # state's schema (replay-stable); first batch derives it from
            # the data, falling back to string for an all-null key column
            kt = None
            if st is not None:
                f = st.schema.field(key_col).type
                if not pa.types.is_null(f):
                    kt = f
                sk_key = st[key_col].to_pandas(integer_object_nulls=True).astype(object)
                lv = st["level"].to_numpy(zero_copy_only=False)
                par = st["parity"].to_numpy(zero_copy_only=False)
                vals = st["vals"].to_pylist()
                rows = pd.DataFrame({"_k": sk_key, "_i": np.arange(len(sk_key))})
                for kv, grp in rows.groupby("_k", sort=False, dropna=False):
                    kv = None if pd.isna(kv) else kv
                    i = grp["_i"].to_numpy()
                    state[kv] = KLLSketch.from_rows(k, lv[i], par[i], [vals[j] for j in i])

            n_in = 0
            for kv, grp in g.groupby(key_col, sort=False, dropna=False):
                kv = None if pd.isna(kv) else kv
                v = grp[value_col].to_numpy(dtype=np.float64)
                n_in += len(v)
                state.setdefault(kv, KLLSketch(k)).update(v)

            # canonical state layout: keys sorted (None first), levels
            # ascending, values sorted inside each level → byte-stable replay
            out_k, out_l, out_p, out_v = [], [], [], []
            for kv in sorted(state, key=lambda x: (x is not None, x)):
                lv, par, vals = state[kv].to_rows()
                for l, p, v in zip(lv, par, vals):
                    out_k.append(kv)
                    out_l.append(int(l))
                    out_p.append(int(p))
                    out_v.append(v)
            if kt is None:
                kt = gt.schema.field(key_col).type  # exact, no re-inference
                if pa.types.is_large_string(kt) or pa.types.is_null(kt):
                    kt = pa.string()
            new = pa.table(
                {
                    key_col: pa.array(out_k, kt),
                    "level": pa.array(out_l, pa.int32()),
                    "parity": pa.array(out_p, pa.int64()),
                    "vals": pa.array(out_v, pa.list_(pa.float64())),
                }
            )
            return None, new, {"rows": n_in, "state_rows": len(out_k)}

        return project, fold

    # --------------------------------------------------------------- output
    def read_quantiles(self, quantiles: tuple[int, ...] = (25, 50, 95)) -> pa.Table:
        """(key, n, p{q}_est ...) from the latest COMMITTED state — same rank
        convention as the batch operator."""
        from ..functions.sketches import KLLSketch

        tables = self.read_state()
        kt = pa.string()
        for t in tables:  # native key dtype from the committed state
            f = t.schema.field(self.key_col).type
            if not pa.types.is_null(f):
                kt = pa.string() if pa.types.is_large_string(f) else f
                break
        frames = [t.to_pandas(integer_object_nulls=True) for t in tables]
        qs = tuple(quantiles)
        cols: dict = {self.key_col: [], "n": []}
        for q in qs:
            cols[f"p{q}_est"] = []
        if frames:
            state = pd.concat(frames)
            for kv, grp in state.groupby(self.key_col, sort=True, dropna=False):
                kv = None if pd.isna(kv) else kv
                sk = KLLSketch.from_rows(
                    self.k,
                    grp["level"].to_numpy(),
                    grp["parity"].to_numpy(),
                    list(grp["vals"]),
                )
                cols[self.key_col].append(kv)
                cols["n"].append(sk.n)
                for q, est in zip(qs, sk.quantiles(qs)):
                    cols[f"p{q}_est"].append(est)
        return pa.table(
            {
                self.key_col: pa.array(cols[self.key_col], kt),
                "n": pa.array(cols["n"], pa.int64()),
                **{f"p{q}_est": pa.array(cols[f"p{q}_est"], pa.float64()) for q in qs},
            }
        )
