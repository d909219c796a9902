"""Streaming embedding near-dup filter: checkpointed arrival-order SRP-LSH
candidate suppression over a windowed vector log — the embedding twin of
``MinHashStreamRunner``.

Semantics (SQL-expressible, hence gate-able): a vector is DROPPED iff any
EARLIER vector (by arrival order = ``order_col``) shares at least one
sign-random-projection table signature with it — earlier vectors count
whether or not they were themselves kept (the order-robust one-anti-join
rule shared with the minhash stream). This is the ingest-time form of the
batch ``dedup.embedding_lsh_near_dups`` CANDIDATE stage: admit a vector
only if nothing seen before it SRP-collides.

State: the set of all (table, signature) keys ever seen — and unlike the
text runners this key is SMALL AND EXACT by construction: ``(t <<
n_planes) | sig`` fits one int64 with no hashing at all, so state is a
sorted int64 column per shard, bounded by ``n_tables × 2^n_planes`` keys
TOTAL (for the default 4×8-plane configuration: ≤ 1024 int64s across the
whole stream — the cheapest state family in the repo). The flip side of a
small signature space is aggressive suppression; raise ``n_planes`` for a
finer filter (state grows as 2^n_planes).

Scale shape: the hyperplane matrix is built once per route task (deterministic
literals — nothing ships); signature rows (n_tables/vec, two int64s each)
are exchanged once, partitioned by signature key; the survivor pass reads
ONLY the id column of the batch files (column-pruned, no exchange) and
writes id-list sink files — vectors themselves never move.

Reference anchor: the connector's micro-batch offset/replay contract
(``_microbatch.py``) composed with the embedding near-dup family.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ._microbatch import KeyedStateRunner, write_sink


@ray.remote
def _keep_ids(path: str, drop: np.ndarray, order_col: str, sink_dir: str, batch_id: int) -> int:
    """Survivor pass over one file: its ``order_col`` ids not in ``drop``,
    sorted, to sink ``part-<file stem>``."""
    ids = (
        pq.read_table(path, columns=[order_col])[order_col]
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    kept = np.sort(ids[~np.isin(ids, drop)])
    stem = os.path.splitext(os.path.basename(path))[0]
    kept_tbl = pa.table({order_col: pa.array(kept, pa.int64())})
    write_sink(sink_dir, batch_id, f"part-{stem}", kept_tbl)
    return len(kept)


class EmbeddingLshStreamRunner(KeyedStateRunner):
    """Micro-batch arrival-order SRP-LSH filter over
    ``log_dir/window-*.parquet`` vector files (columns ``order_col``,
    ``vec_col``). Windows must be ordered by ``order_col``. Sink:
    ``batch-B/part-*.parquet`` with the admitted ``order_col`` ids."""

    STATE_KIND = "srp"

    def __init__(
        self,
        log_dir: str,
        num_shards: int,
        sink_dir: str,
        checkpoint_dir: str,
        vec_col: str = "embedding",
        order_col: str = "vec_id",
        n_tables: int = 4,
        n_planes: int = 8,
        dim: int = 64,
    ):
        super().__init__(log_dir, num_shards, sink_dir, checkpoint_dir)
        self.vec_col = vec_col
        self.order_col = order_col
        self.n_tables = n_tables
        self.n_planes = n_planes
        self.dim = dim

    def pins(self) -> dict:
        return {
            "num_shards": self.num_shards,
            # hyperplanes are deterministic from (dim, tables, planes); all
            # three are replay identity, as are the measured columns
            "srp_impl": f"{self.dim}/{self.n_tables}/{self.n_planes}"
            f"/{self.vec_col}/{self.order_col}",
        }

    def process(self, batch_id: int, bfiles: list[str]) -> dict:
        vec_col, order_col = self.vec_col, self.order_col
        num_shards = self.num_shards
        n_tables, n_planes, dim = self.n_tables, self.n_planes, self.dim

        class SigRows:
            """Signatures from a per-task hyperplane matrix: one
            (vec, key) row per table, key = (t << n_planes) | sig."""

            def __init__(self):
                from ..functions.dedup import lsh_hyperplanes

                self.H = lsh_hyperplanes(dim, n_tables, n_planes)

            def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
                if len(b) == 0 or vec_col not in b.columns:
                    return pd.DataFrame(
                        {
                            "vid": pd.Series(dtype="int64"),
                            "_key": pd.Series(dtype="int64"),
                            "_shard": pd.Series(dtype="int32"),
                        }
                    )
                M = np.stack(
                    [np.asarray(v, dtype=np.float64) for v in b[vec_col].values]
                )
                ids = b[order_col].to_numpy(dtype=np.int64)
                weights = 1 << np.arange(n_planes, dtype=np.int64)
                frames = []
                for t in range(n_tables):
                    sig = ((M @ self.H[t].T) > 0) @ weights
                    key = (np.int64(t) << np.int64(n_planes)) | sig
                    frames.append(pd.DataFrame({"vid": ids, "_key": key}))
                out = pd.concat(frames, ignore_index=True)
                out["_shard"] = (
                    out["_key"].to_numpy().astype(np.uint64) % np.uint64(num_shards)
                ).astype(np.int32)
                return out

        def fold(g: pd.DataFrame, st: pa.Table | None):
            seen = (
                st["key"].to_numpy(zero_copy_only=False)
                if st is not None
                else np.array([], np.int64)
            )
            key = g["_key"].to_numpy(dtype=np.int64)
            vid = g["vid"].to_numpy(dtype=np.int64)
            # arrival-first holder per key within the batch
            order = np.lexsort((vid, key))
            ok = key[order]
            run_start = np.ones(len(g), dtype=bool)
            run_start[1:] = ok[1:] != ok[:-1]
            first = np.zeros(len(g), dtype=bool)
            first[order[run_start]] = True
            idx = np.searchsorted(seen, key)
            idx = np.clip(idx, 0, max(len(seen) - 1, 0))
            in_prev = (seen[idx] == key) if len(seen) else np.zeros(len(g), bool)
            collided = ~first | in_prev
            new_keys = np.unique(key[first & ~in_prev])
            merged = np.union1d(seen, new_keys)
            state = pa.table({"key": pa.array(merged, pa.int64())})
            return pd.DataFrame({"vid": np.unique(vid[collided])}), state, {}

        dropped_tbls = ray.get(
            self.keyed(
                bfiles, SigRows, fold, batch_id, batch_format="pandas", emit=True,
                columns=[order_col, vec_col],
            )
        )
        dropped = np.unique(
            np.concatenate([t["vid"].to_numpy().astype(np.int64) for t in dropped_tbls])
        )

        # survivor pass: one task per file reads only its id column, no
        # exchange; the vectors themselves never move (downstream filters by id)
        dropped_ref = ray.put(dropped)
        kept = sum(
            ray.get(
                [
                    _keep_ids.remote(f, dropped_ref, order_col, self.sink_dir, batch_id)
                    for f in bfiles
                ]
            )
        )
        return {"rows": kept + len(dropped), "kept": kept, "dups": int(len(dropped))}
