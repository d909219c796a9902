"""Streaming grouped histogram aggregation: checkpointed mergeable-sketch
state over a windowed log, with quantiles read from the final state.

The streaming face of ``stages/topk.py::grouped_quantiles_hist``: per-key
fixed-width bin counts are PURELY ADDITIVE state, so micro-batching can
never change the result (integer addition commutes) — the oracle is the
batch histogram SQL verbatim. Each micro-batch pre-aggregates (key, bin,
count) partials per block, exchanges them once on ``hash(key)``, and each
shard task merges into its sorted (key, bin) state slice. State size is
O(keys × occupied bins) per shard regardless of row count — the property
that makes the sketch the 100 TB quantile path.

Composes the shared micro-batch protocol (``_microbatch.py``): resume pins
(num_shards / hash_impl / bin_width), exactly-once replay (state reads are
pre-batch snapshots), manifest-gated reads.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..state.checkpoint import current_hash_impl
from ._microbatch import KeyedStateRunner


class HistStreamRunner(KeyedStateRunner):
    """Micro-batch per-key histogram accumulator over
    ``log_dir/window-*.parquet`` (columns ``key_col``, ``value_col``; NULL
    values dropped like SQL aggregates). Quantiles come from
    :meth:`read_quantiles` on the COMMITTED state."""

    STATE_KIND = "hist"
    STATS = ("rows", "bins")
    BATCH_FORMAT = "pandas"

    def __init__(
        self,
        log_dir: str,
        num_shards: int,
        checkpoint_dir: str,
        bin_width: float,
        key_col: str,
        value_col: str,
    ):
        super().__init__(log_dir, num_shards, None, checkpoint_dir)
        self.bin_width = float(bin_width)
        self.key_col = key_col
        self.value_col = value_col

    def pins(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "hash_impl": current_hash_impl(),
            "bin_width": self.bin_width,
            # the measured quantity is replay identity too: resuming
            # with a different key/value column would merge histograms
            # of different things into one state
            "hist_cols": f"{self.key_col}/{self.value_col}",
        }

    def plan(self, batch_id: int, bfiles: list[str]):
        key_col, value_col = self.key_col, self.value_col
        num_shards, width = self.num_shards, self.bin_width

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            from ..schema import shard_of

            b = b[[key_col, value_col]].dropna(subset=[value_col])
            out = pd.DataFrame({key_col: b[key_col]})
            out["bin"] = np.floor(
                b[value_col].to_numpy(dtype=np.float64) / width
            ).astype(np.int64)
            res = (
                # dropna=False: SQL GROUP BY keeps one NULL-key group
                out.groupby([key_col, "bin"], sort=False, observed=True, dropna=False)
                .size()
                .reset_index(name="cnt")
            )
            # NaN keys back to real nulls (never astype(str): that would
            # turn NULL into the literal string 'None' and collide with it;
            # an all-null batch retypes the column float64 — object first)
            kc = res[key_col]
            if kc.dtype != object:
                kc = kc.astype(object)
            keys_arr = pa.array(kc.where(kc.notna(), None), pa.string())
            res[key_col] = keys_arr.to_pandas().astype(object)
            sh = shard_of(keys_arr, num_shards)
            res["_shard"] = sh.to_numpy(zero_copy_only=False)
            return res

        def fold(g: pd.DataFrame, st: pa.Table | None):
            frames = [g[[key_col, "bin", "cnt"]]]
            if st is not None:
                frames.append(st.to_pandas())
            merged = (
                pd.concat(frames)
                .groupby([key_col, "bin"], sort=True, observed=True, dropna=False)["cnt"]
                .sum()
                .reset_index()
            )
            merged[key_col] = merged[key_col].where(merged[key_col].notna(), None)
            state = pa.table(
                {
                    key_col: pa.array(merged[key_col], pa.string()),
                    "bin": pa.array(merged["bin"].astype(np.int64)),
                    "cnt": pa.array(merged["cnt"].astype(np.int64)),
                }
            )
            return None, state, {"rows": int(g["cnt"].sum()), "bins": len(merged)}

        return partial, fold

    # --------------------------------------------------------------- output
    def read_quantiles(self, quantiles: tuple[int, ...] = (25, 50, 95)) -> pa.Table:
        """(key, n, p{q}_bin ...) from the latest COMMITTED state — the same
        rank convention as ``grouped_quantiles_hist``."""
        frames = [t.to_pandas() for t in self.read_state()]
        cols: dict = {self.key_col: [], "n": []}
        for q in quantiles:
            cols[f"p{q}_bin"] = []
        if frames:
            state = pd.concat(frames)
            for key, grp in state.groupby(self.key_col, sort=True, dropna=False):
                if pd.isna(key):  # restore the SQL NULL group key
                    key = None
                grp = grp.sort_values("bin")
                cum = grp["cnt"].to_numpy(dtype=np.int64).cumsum()
                n = int(cum[-1])
                cols[self.key_col].append(key)
                cols["n"].append(n)
                bins = grp["bin"].to_numpy(dtype=np.int64)
                for q in quantiles:
                    rank = (n - 1) * q // 100
                    cols[f"p{q}_bin"].append(
                        int(bins[np.searchsorted(cum, rank + 1, side="left")])
                    )
        return pa.table(
            {
                self.key_col: pa.array(cols[self.key_col], pa.string()),
                "n": pa.array(cols["n"], pa.int64()),
                **{
                    f"p{q}_bin": pa.array(cols[f"p{q}_bin"], pa.int64())
                    for q in quantiles
                },
            }
        )
