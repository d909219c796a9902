"""Streaming analytic functions: checkpointed running row_number / lag /
first_value per key over a windowed log — the streaming face of
``stages/analytic.py`` for the functions whose frame never looks forward
(lead/rank/cume_dist need the whole partition and stay batch-only; the
running trio needs O(1) state per key).

Per-key state is exactly (n_rows_so_far, last_value, first_value) — three
scalars — so a shard's state is O(live keys) bytes regardless of stream
length. Each micro-batch exchanges its rows once on ``hash(key)`` (the
same stream-id → shard mapping as every runner); the shard task merges the
state with vectorized run-boundary math (no per-key Python). Replay of a
batch reads the pre-batch state snapshot and re-sorts by the unique
``order_col``, so a killed run resumes with byte-identical output (the
same exactly-once contract as ``CaptureRunner``); output rows land in
``sink_dir/batch-B/shard-K.parquet`` and ``read_output`` returns only
COMMITTED batches.

Reference anchor: none (the connector has no analytic surface) — north-star
engine surface beside the batch operator, sharing the micro-batch protocol
(``_microbatch.py``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.checkpoint import current_hash_impl
from ._microbatch import KeyedStateRunner


class AnalyticStreamRunner(KeyedStateRunner):
    """Micro-batch running-analytics over ``log_dir/window-*.parquet``
    (columns ``key_col``, ``order_col`` — globally unique, window files in
    ``order_col`` order — and integer/float ``value_col``). Emits every
    input row enriched with ``rn``, ``lag_value``, ``first_value``."""

    STATE_KIND = "anl"
    STATS = ("rows", "keys")

    def __init__(
        self,
        log_dir: str,
        num_shards: int,
        sink_dir: str,
        checkpoint_dir: str,
        key_col: str,
        order_col: str,
        value_col: str,
    ):
        super().__init__(log_dir, num_shards, sink_dir, checkpoint_dir)
        self.key_col = key_col
        self.order_col = order_col
        self.value_col = value_col

    def pins(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "hash_impl": current_hash_impl(),
            "anl_cols": f"{self.key_col}/{self.order_col}/{self.value_col}",
        }

    def plan(self, batch_id: int, bfiles: list[str]):
        key_col, order_col, value_col = self.key_col, self.order_col, self.value_col
        num_shards = self.num_shards

        def project(t: pa.Table) -> pa.Table:
            from ..schema import shard_of

            t = t.select([key_col, order_col, value_col])
            return t.append_column("_shard", shard_of(t[key_col], num_shards))

        def fold(g: pa.Table, st: pa.Table | None):
            from ..stages.analytic import _run_math
            from ..stages.cep import run_starts

            g = g.sort_by([(key_col, "ascending"), (order_col, "ascending")])
            n = g.num_rows
            # canonical types: the exchange may promote string →
            # large_string; pin so state/output replay byte-stable
            kt = g.schema.field(key_col).type
            if pa.types.is_large_string(kt):
                kt = pa.string()
            vt = g.schema.field(value_col).type
            if st is not None:
                kt = st.schema.field(key_col).type  # state wins once written
                vt = st.schema.field("last_value").type
            else:
                st = pa.table(
                    {
                        key_col: pa.array([], kt),
                        "n": pa.array([], pa.int64()),
                        "last_value": pa.array([], vt),
                        "first_value": pa.array([], vt),
                    }
                )

            kfirst = run_starts(g, [key_col])
            kstart, klen = _run_math(kfirst)
            pos = np.arange(n, dtype=np.int64)
            keys = g[key_col].combine_chunks().cast(kt)
            val = g[value_col].combine_chunks().cast(vt)

            # state lookup per RUN: index of this run's key in the sorted
            # state table (state is written key-sorted), -1 when absent
            run_keys = keys.take(pa.array(kstart[kfirst]))
            sk = st[key_col].combine_chunks()
            # null-safe lookup: np.searchsorted raises on object arrays mixing
            # str and None, so probe the non-null state keys (a sorted
            # subsequence) and route the SQL single-NULL group explicitly
            rk_null = pa.compute.is_null(run_keys).to_numpy(zero_copy_only=False)
            li = np.zeros(len(run_keys), np.int64)
            found = np.zeros(len(run_keys), dtype=bool)
            if len(sk):
                sk_null = pa.compute.is_null(sk).to_numpy(zero_copy_only=False)
                valid_idx = np.nonzero(~sk_null)[0]
                nn = ~rk_null
                if len(valid_idx) and nn.any():
                    sk_valid = sk.drop_null()
                    rk_valid = run_keys.filter(pa.array(nn))
                    p = np.searchsorted(
                        sk_valid.to_numpy(zero_copy_only=False),
                        rk_valid.to_numpy(zero_copy_only=False),
                    )
                    p = np.clip(p, 0, len(sk_valid) - 1)
                    hit = pa.compute.equal(
                        sk_valid.take(pa.array(p)), rk_valid
                    ).to_numpy(zero_copy_only=False)
                    li[nn] = valid_idx[p]
                    found[nn] = hit
                if sk_null.any() and rk_null.any():
                    li[rk_null] = int(np.nonzero(sk_null)[0][0])
                    found[rk_null] = True
            n0_run = np.where(
                found, st["n"].to_numpy(zero_copy_only=False)[li], 0
            ) if len(sk) else np.zeros(len(run_keys), np.int64)
            n0 = np.repeat(n0_run, klen[kfirst])
            rn = pos - kstart + 1 + n0

            # lag: within-run shift; the first row of each run takes the
            # state's last_value (null if the key is new)
            lag_idx = pa.compute.if_else(
                pa.array(kfirst), pa.scalar(None, pa.int64()),
                pa.array(pos - 1, pa.int64()),
            )
            lag_v = val.take(lag_idx)
            if found.any():
                # scatter state carries into the run-first positions
                first_pos = kstart[kfirst]
                fidx = np.full(n, -1, np.int64)
                fidx[first_pos[found]] = li[found]
                mask = fidx >= 0
                if mask.any():
                    patched = st["last_value"].take(
                        pa.array(np.where(mask, fidx, 0), pa.int64())
                    )
                    lag_v = pa.compute.if_else(pa.array(mask), patched, lag_v)

            # first_value: state's when the key was seen before, else the
            # run's first value
            batch_firsts = val.take(pa.array(kstart[kfirst]))
            if found.any():
                fv_run = pa.compute.if_else(
                    pa.array(found),
                    st["first_value"].take(pa.array(li)),
                    batch_firsts,
                )
            else:
                fv_run = batch_firsts
            fv = fv_run.take(pa.array(np.repeat(np.arange(len(run_keys)), klen[kfirst])))

            out = pa.table(
                {
                    key_col: keys,
                    order_col: g[order_col],
                    value_col: val,
                    "rn": pa.array(rn.astype(np.int64)),
                    "lag_value": lag_v,
                    "first_value": fv,
                }
            )
            # new state: merge batch tails over the old state, key-sorted
            last_run = val.take(pa.array(kstart[kfirst] + klen[kfirst] - 1))
            new = pa.table(
                {
                    key_col: run_keys,
                    "n": pa.array(n0_run + klen[kfirst], pa.int64()),
                    "last_value": last_run,
                    "first_value": fv_run,
                }
            )
            if st.num_rows:
                # null-safe: is_in yields NULL for a NULL state key when the
                # probe set has no NULL (filter would silently drop the row);
                # the NULL-key state row is touched iff this batch has a NULL run
                isin = pa.compute.is_in(st[key_col], value_set=run_keys)
                touched = pa.compute.fill_null(isin, bool(rk_null.any()))
                untouched = st.filter(pa.compute.invert(touched))
            else:
                untouched = st
            merged = pa.concat_tables([new, untouched]).sort_by(
                [(key_col, "ascending")]
            )
            return out, merged, {"rows": n, "keys": merged.num_rows}

        return project, fold
