"""Streaming per-event sessionization: checkpointed (last_ts, session_count)
per-user state over a ts-windowed event log — the micro-batch form of
:func:`pipelines.relational.sessionize` (Flink-style session ASSIGNMENT:
every event gets its 1-based per-user session number and a start flag,
exactly-once).

Semantics: identical to the batch operator — sessions break when the gap to
the user's previous event (total order (ts, event_id)) exceeds ``gap_us`` —
PROVIDED the log satisfies the ts-ordered-window ingest contract: each
window's min ts is >= every prior batch's max ts (guarded from parquet
footers, checkpoint-carried so it survives kill-resume), and equal-ts rows
that straddle a window boundary carry ascending ``id_col`` in window order
(true by construction for logs written from a (ts, id)-sorted table; the
batch operator's order is then the stream's arrival order).

Scale shape (100 TB): rows cross ONE user-hash exchange per batch; shard
state is THREE int64s per user seen (user, last_ts, session_count) — the
cap-runner state family, not per-event. Replay of a committed batch reads
state as-of the batch start: byte-identical output, the shared
``_microbatch`` exactly-once contract.

Reference anchor: the connector's micro-batch loop + idempotent sink
(README.md:9,18); session assignment is streaming-engine surface (north
star) with no connector analogue.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ._microbatch import BatchResult, KeyedStateRunner


class SessionStreamRunner(KeyedStateRunner):
    """Micro-batch session-id assignment over ``log_dir/window-*.parquet``.

    Output: ``sink_dir/batch-B/shard-K.parquet`` — (event_id, user_id,
    session_id, is_session_start), (user, ts, id)-ordered inside each shard
    file (deterministic for replay). ``read_output`` returns only COMMITTED
    batches."""

    STATE_KIND = "sess"
    STATS = ("events", "sessions_started")

    def __init__(
        self,
        log_dir: str,
        num_shards: int,
        sink_dir: str,
        checkpoint_dir: str,
        gap_us: int = 3_600_000_000,
        user_col: str = "user_id",
        ts_col: str = "ts",
        id_col: str = "event_id",
    ):
        super().__init__(log_dir, num_shards, sink_dir, checkpoint_dir)
        self.gap_us = int(gap_us)
        self.user_col = user_col
        self.ts_col = ts_col
        self.id_col = id_col

    def pins(self) -> dict:
        return {
            "num_shards": self.num_shards,
            # gap + column identity: resuming under a different gap would
            # silently renumber sessions
            "sess_impl": f"{self.gap_us}/{self.user_col}/{self.ts_col}"
            f"/{self.id_col}",
        }

    def process(self, batch_id: int, bfiles: list[str]) -> BatchResult:
        self._check_monotone_ts(batch_id, bfiles)
        return super().process(batch_id, bfiles)

    # ------------------------------------------------------------- ts guard
    def _check_monotone_ts(self, batch_id: int, bfiles: list[str]) -> None:
        """Fail loudly when a batch's min ts precedes a prior batch's max —
        the ts-ordered-window contract the stream≡batch equivalence rests
        on (equal boundary ts allowed; see the module docstring's id-order
        caveat). Footer stats only; the running max rides the checkpoint as
        a one-row ``tsrg`` state on shard 0, surviving kill-resume."""
        lo = hi = None
        for f in bfiles:
            md = pq.ParquetFile(f).metadata
            try:
                ci = md.schema.names.index(self.ts_col)
            except ValueError:
                return
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(ci).statistics
                if st is None or not st.has_min_max:
                    continue
                lo = st.min if lo is None else min(lo, st.min)
                hi = st.max if hi is None else max(hi, st.max)
        prev = self.ckpt.load_state(0, before_batch=batch_id, kind="tsrg")
        prev_max = None
        if prev is not None:
            col = prev["max_ts_us"]
            prev_max = col[0].as_py() if len(col) else None
        lo_us = None if lo is None else int(pd.Timestamp(lo).value // 1000)
        hi_us = None if hi is None else int(pd.Timestamp(hi).value // 1000)
        if prev_max is not None and lo_us is not None and lo_us < prev_max:
            raise ValueError(
                f"batch {batch_id} contains ts from {lo} but an earlier batch "
                f"reached {prev_max} µs: window files must carry "
                f"non-decreasing {self.ts_col} ranges (out-of-order arrival "
                "would mis-number sessions)"
            )
        carried = hi_us if hi_us is not None else prev_max
        self.ckpt.write_state(
            0,
            batch_id,
            pa.table({"max_ts_us": pa.array([carried], pa.int64())}),
            kind="tsrg",
        )

    def plan(self, batch_id: int, bfiles: list[str]):
        user_col, ts_col, id_col = self.user_col, self.ts_col, self.id_col
        gap_us, num_shards = self.gap_us, self.num_shards

        def route(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            t = t.select([id_col, user_col, ts_col])
            t = t.filter(
                pc.and_(pc.is_valid(t[user_col]), pc.is_valid(t[ts_col]))
            )
            uid = t[user_col].to_numpy(zero_copy_only=False).astype(np.uint64)
            from ..functions.dedup import _SAMPLE_MIX

            return t.append_column(
                "_shard",
                pa.array(((uid * _SAMPLE_MIX) % np.uint64(num_shards)).astype(np.int32)),
            )

        def fold(gt: pa.Table, st: pa.Table | None):
            g = gt.to_pandas()
            g = g.sort_values([user_col, ts_col, id_col], kind="mergesort")
            uid = g[user_col].to_numpy().astype(np.int64)
            ts = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
            first = np.ones(len(g), bool)
            if len(g) > 1:
                first[1:] = uid[1:] != uid[:-1]
            if st is not None:
                su = st["user_id"].to_numpy(zero_copy_only=False)
                slt = st["last_ts_us"].to_numpy(zero_copy_only=False)
                ssn = st["sess_no"].to_numpy(zero_copy_only=False)
            else:
                su = slt = ssn = np.array([], np.int64)
            # seed each user's run from state: last_ts and prior session no
            starts = np.flatnonzero(first)
            run_users = uid[starts]
            if len(su):
                idxc = np.minimum(np.searchsorted(su, run_users), len(su) - 1)
                known = su[idxc] == run_users
                prior_ts = np.where(known, slt[idxc], np.int64(0))
                prior_sn = np.where(known, ssn[idxc], np.int64(0))
            else:
                known = np.zeros(len(run_users), bool)
                prior_ts = np.zeros(len(run_users), np.int64)
                prior_sn = np.zeros(len(run_users), np.int64)
            gap = np.zeros(len(g), np.int64)
            if len(g) > 1:
                gap[1:] = ts[1:] - ts[:-1]
            new_sess = ~first & (gap > gap_us)
            # batch-first row of each user: break vs the state's last_ts
            new_sess[starts] = ~known | ((ts[starts] - prior_ts) > gap_us)
            ns = new_sess.astype(np.int64)
            cs = np.cumsum(ns)
            run_id = np.cumsum(first) - 1
            # within-run cumsum + the user's prior session count
            within = cs - (cs[starts] - ns[starts])[run_id]
            session_id = prior_sn[run_id] + within
            # state: last event ts per run (sorted → last row), new totals
            ends = np.r_[starts[1:], len(g)] - 1
            new_ts = ts[ends]
            new_sn = prior_sn + np.add.reduceat(ns, starts)
            merged = dict(zip(su, zip(slt, ssn)))
            merged.update(zip(run_users, zip(new_ts, new_sn)))
            mu = np.array(sorted(merged), dtype=np.int64)
            state = pa.table(
                {
                    "user_id": pa.array(mu, pa.int64()),
                    "last_ts_us": pa.array([merged[u][0] for u in mu], pa.int64()),
                    "sess_no": pa.array([merged[u][1] for u in mu], pa.int64()),
                }
            )
            out = pa.table(
                {
                    "event_id": pa.array(g[id_col].to_numpy().astype("int64")),
                    "user_id": pa.array(uid),
                    "session_id": pa.array(session_id.astype(np.int64)),
                    "is_session_start": pa.array(ns),
                }
            )
            return out, state, {"events": len(g), "sessions_started": int(ns.sum())}

        return route, fold
