"""Streaming exact windowed distinct count: checkpointed seen-set state
per (tumbling window, key hash), exactly-once across micro-batches.

The streaming face of the batch ``win_distinct_convs`` operator: per-window
distinct is NOT additive (re-arrivals must not re-count), so the state is
the distinct set itself — 128-bit key hashes per window, hash-partitioned
so every key lives in exactly one shard and the global count is the plain
SUM of per-shard state sizes. Micro-batching can never change the result:
membership is monotone (a key is new exactly once per window, at its global
first arrival).

Scale shape (100 TB): rows are reduced to (window, h1, h2) triples and
block-locally deduped BEFORE the one keyed exchange; each shard task probes
its own sorted state slice (O(log n) searchsorted per window) and appends
only genuinely-new triples. State is 24 B per distinct (window, key) —
orders of magnitude below the row count for any real stream; an HLL
register state (``functions/sketches.py``) is the documented fallback when
even the distinct set is too large, at the cost of exactness.

Composes the shared micro-batch protocol (``_microbatch.py``): resume pins,
exactly-once replay (state reads are pre-batch snapshots), manifest-gated
reads.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ._microbatch import KeyedStateRunner
from .dedup_stream import _member128

#: version of the id→128-bit hash below; pinned into the manifest so a
#: hash change can never silently double-count previously-seen keys
ID_HASH_IMPL = "md5-raw-utf8-v1"

#: window-presence marker hash pair: one (w, _WMARK, _WMARK) triple per
#: window is routed to shard 0 so a window whose only rows carry NULL keys
#: still surfaces with n_distinct 0 (SQL GROUP BY semantics). Markers are
#: excluded from every count; a real md5 colliding with the sentinel has
#: probability 2^-128.
_WMARK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _id_hash128(keys: pd.Series) -> tuple[np.ndarray, np.ndarray]:
    """128-bit md5 of the RAW utf8 key (no normalization — ids are opaque,
    unlike dedup_stream's normalized text hashing), md5 computed once per
    UNIQUE key in the block. Callers must have dropped NULL keys first
    (SQL's ``count(DISTINCT x)`` ignores NULL — the runner mirrors it)."""
    codes, uniques = pd.factorize(keys.astype(object), use_na_sentinel=False)
    hexes = [hashlib.md5(str(u).encode()).hexdigest() for u in uniques]
    if not hexes:
        return np.zeros(0, np.uint64), np.zeros(0, np.uint64)
    u = np.frombuffer(bytes.fromhex("".join(hexes)), dtype=np.uint64).reshape(-1, 2)
    return u[codes, 0].copy(), u[codes, 1].copy()


class DistinctStreamRunner(KeyedStateRunner):
    """Micro-batch exact distinct-per-window counter over
    ``log_dir/window-*.parquet`` (columns ``key_col``, ``ts_col`` — int64
    event-time microseconds). Counts come from :meth:`read_counts` on the
    COMMITTED state.

    NULL keys are ignored (SQL ``count(DISTINCT x)`` semantics), but window
    PRESENCE follows SQL's GROUP BY: a window whose only rows carry NULL
    keys is reported with count 0, via one sentinel marker triple per
    window routed to shard 0 (``_WMARK``) and excluded from every count.

    ``mode="approx"`` swaps the exact seen-set for one mergeable HLL
    register array per (shard, window) — state becomes O(windows × 2^p)
    bytes regardless of key cardinality (the 100 TB bound the exact mode
    lacks). The HLL input hash is the same pinned 128-bit id hash's first
    word, so replay is byte-stable; counts from :meth:`read_counts` are
    estimates (~1.04/sqrt(2^p) relative error). Exact mode and its state
    layout are untouched."""

    STATE_KIND = "dist"
    STATE_KIND_APPROX = "dsth"
    STATS = ("rows", "new_distinct")
    BATCH_FORMAT = "pandas"

    def __init__(
        self,
        log_dir: str,
        num_shards: int,
        checkpoint_dir: str,
        window_us: int,
        key_col: str = "conv_id",
        ts_col: str = "ts_us",
        mode: str = "exact",
        hll_p: int = 12,
    ):
        if mode not in ("exact", "approx"):
            raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
        super().__init__(log_dir, num_shards, None, checkpoint_dir)
        self.window_us = int(window_us)
        self.key_col = key_col
        self.ts_col = ts_col
        self.mode = mode
        self.hll_p = int(hll_p)
        if mode == "approx":
            self.state_kind = self.STATE_KIND_APPROX

    def pins(self) -> dict:
        pins = {
            "num_shards": self.num_shards,
            "window_us": self.window_us,
            "id_hash_impl": ID_HASH_IMPL,
            "dist_cols": f"{self.key_col}/{self.ts_col}",
            "dist_mode": self.mode,
        }
        if self.mode == "approx":
            pins["hll_p"] = self.hll_p
        return pins

    def plan(self, batch_id: int, bfiles: list[str]):
        key_col, ts_col = self.key_col, self.ts_col
        num_shards, window_us, hll_p = self.num_shards, self.window_us, self.hll_p

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            # window presence BEFORE the null drop: all-NULL-key windows must
            # still surface (with count 0) like SQL's GROUP BY. A NULL ts
            # belongs to no window (pandas delivers nullable int as
            # float64+NaN), so markers come from finite ts only.
            w_all = b[ts_col].to_numpy()
            w_all = w_all[~pd.isna(w_all)].astype(np.int64)
            w_present = np.unique(w_all - w_all % window_us)
            # SQL count(DISTINCT key) ignores NULL keys — so does the runner.
            # A NULL ts (with or without a key) belongs to no window either:
            # drop it BEFORE the int64 conversion, which would otherwise
            # raise on pandas nullable-int missing values.
            b = b.dropna(subset=[key_col, ts_col]).reset_index(drop=True)
            h1, h2 = _id_hash128(b[key_col])
            w = b[ts_col].to_numpy(dtype=np.int64)
            w = w - w % window_us
            out = pd.DataFrame({"w": w, "_h1": h1, "_h2": h2})
            out["_n"] = np.int64(1)  # arrivals folded into each triple
            # block-local combiner: only unique (w, h1, h2) cross the
            # exchange; _n carries the folded arrival count for n_in
            g = out.groupby(["w", "_h1", "_h2"], sort=False)["_n"].sum().reset_index()
            g["_shard"] = (g["_h1"].to_numpy().astype(np.uint64) % np.uint64(num_shards)).astype(np.int32)
            marks = pd.DataFrame(
                {
                    "w": w_present,
                    "_h1": np.full(len(w_present), _WMARK),
                    "_h2": np.full(len(w_present), _WMARK),
                    "_n": np.zeros(len(w_present), np.int64),
                    "_shard": np.zeros(len(w_present), np.int32),
                }
            )
            return pd.concat([g, marks], ignore_index=True)

        def fold_approx(g: pd.DataFrame, st: pa.Table | None):
            from ..functions.sketches import HyperLogLog

            regs: dict[int, HyperLogLog] = {}
            if st is not None:
                for wv, blob in zip(
                    st["w"].to_numpy(zero_copy_only=False),
                    st["reg"].to_pylist(),
                ):
                    regs[int(wv)] = HyperLogLog.from_bytes(blob, hll_p)
            est_before = sum(h.estimate() for h in regs.values())
            qw = g["w"].to_numpy(dtype=np.int64)
            q1 = g["_h1"].to_numpy().astype(np.uint64)
            q2 = g["_h2"].to_numpy().astype(np.uint64)
            is_mark = (q1 == _WMARK) & (q2 == _WMARK)
            for w in np.unique(qw):
                h = regs.setdefault(int(w), HyperLogLog(hll_p))
                m = (qw == w) & ~is_mark  # markers record presence only
                if m.any():
                    h.add_hashed(q1[m])
            est_after = sum(h.estimate() for h in regs.values())
            ws = sorted(regs)
            state = pa.table(
                {
                    "w": pa.array(ws, pa.int64()),
                    "reg": pa.array([regs[w].to_bytes() for w in ws], pa.binary()),
                }
            )
            new = int(round(est_after - est_before))
            return None, state, {"rows": int(g["_n"].sum()), "new_distinct": new}

        def fold(g: pd.DataFrame, st: pa.Table | None):
            if st is not None:
                sw = st["w"].to_numpy(zero_copy_only=False)
                s1 = st["h1"].to_numpy(zero_copy_only=False).astype(np.uint64)
                s2 = st["h2"].to_numpy(zero_copy_only=False).astype(np.uint64)
            else:
                sw = np.array([], np.int64)
                s1 = s2 = np.array([], np.uint64)
            # batch-local distinct (one row per triple already, but several
            # blocks may repeat a triple): lexsort + adjacent-unique
            qw = g["w"].to_numpy(dtype=np.int64)
            q1 = g["_h1"].to_numpy().astype(np.uint64)
            q2 = g["_h2"].to_numpy().astype(np.uint64)
            order = np.lexsort((q2, q1, qw))
            qw, q1, q2 = qw[order], q1[order], q2[order]
            first = np.ones(len(qw), dtype=bool)
            first[1:] = (
                (qw[1:] != qw[:-1]) | (q1[1:] != q1[:-1]) | (q2[1:] != q2[:-1])
            )
            qw, q1, q2 = qw[first], q1[first], q2[first]
            # membership against the sorted state, window by window (few
            # windows per batch; O(log n) searchsorted per probe inside)
            seen = np.zeros(len(qw), dtype=bool)
            for w in np.unique(qw):
                slo, shi = np.searchsorted(sw, w, "left"), np.searchsorted(sw, w, "right")
                m = qw == w
                seen[m] = _member128(s1[slo:shi], s2[slo:shi], q1[m], q2[m])
            new = ~seen
            is_mark = (q1 == _WMARK) & (q2 == _WMARK)
            nw_, n1, n2 = (
                np.concatenate([sw, qw[new]]),
                np.concatenate([s1, q1[new]]),
                np.concatenate([s2, q2[new]]),
            )
            so = np.lexsort((n2, n1, nw_))
            state = pa.table(
                {
                    "w": pa.array(nw_[so], pa.int64()),
                    "h1": pa.array(n1[so]),
                    "h2": pa.array(n2[so]),
                }
            )
            new_distinct = int((new & ~is_mark).sum())
            return None, state, {"rows": int(g["_n"].sum()), "new_distinct": new_distinct}

        return partial, fold_approx if self.mode == "approx" else fold

    # --------------------------------------------------------------- output
    def read_counts(self) -> pa.Table:
        """(window_start_us, n_distinct) from the latest COMMITTED state.

        Exact mode: the state rows ARE the distinct set, so the count is a
        row count per window summed across shards (each key hash lives in
        exactly one shard). Approx mode: per-window HLL registers are
        max-merged across shards (shards sketch disjoint key subsets; HLL
        union-merge is elementwise max) and the estimate rounded."""
        if self.mode == "approx":
            from ..functions.sketches import HyperLogLog

            regs: dict[int, HyperLogLog] = {}
            for t in self.read_state():
                for wv, blob in zip(
                    t["w"].to_numpy(zero_copy_only=False), t["reg"].to_pylist()
                ):
                    h = HyperLogLog.from_bytes(blob, self.hll_p)
                    if int(wv) in regs:
                        regs[int(wv)].merge(h)
                    else:
                        regs[int(wv)] = h
            ws = sorted(regs)
            return pa.table(
                {
                    "window_start_us": pa.array(ws, pa.int64()),
                    "n_distinct": pa.array(
                        [int(round(regs[w].estimate())) for w in ws], pa.int64()
                    ),
                }
            )

        counts: dict[int, int] = {}
        for t in self.read_state():
            w = t["w"].to_numpy(zero_copy_only=False)
            h1 = t["h1"].to_numpy(zero_copy_only=False).astype(np.uint64)
            h2 = t["h2"].to_numpy(zero_copy_only=False).astype(np.uint64)
            is_mark = (h1 == _WMARK) & (h2 == _WMARK)
            for wv in w[is_mark]:  # presence markers: window exists, count 0
                counts.setdefault(int(wv), 0)
            for wv, c in zip(*np.unique(w[~is_mark], return_counts=True)):
                counts[int(wv)] = counts.get(int(wv), 0) + int(c)
        ws = sorted(counts)
        return pa.table(
            {
                "window_start_us": pa.array(ws, pa.int64()),
                "n_distinct": pa.array([counts[w] for w in ws], pa.int64()),
            }
        )
