"""One-time ingest/repartition: unpartitioned CDC log → the pre-partitioned
``shard=K/`` layout the shuffle-free runner fast path consumes.

This is the on-ramp to the production layout: pay the keyed all-to-all ONCE
at ingest (distributed: the per-shard file writes happen inside the group
tasks, not on the driver), then every micro-batch afterwards is shuffle-free.
Mirrors how Scylla itself keeps the CDC log partitioned by stream at write
time (``README.md:7``).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..schema import with_shard
from ..stages import exchange


def bucketize(
    src_dir: str,
    dst_dir: str,
    num_shards: int,
    file_tag: str = "ingest-00000",
) -> dict:
    """Rewrite every parquet file under ``src_dir`` into
    ``dst_dir/shard=K/{file_tag}.parquet`` (one distributed keyed exchange).

    Each shard's file is written atomically inside its partition task;
    re-running overwrites deterministically (same input → same bytes per
    shard).
    Returns per-shard row counts.
    """
    paths = sorted(
        os.path.join(src_dir, f) for f in os.listdir(src_dir) if f.endswith(".parquet")
    )

    def project(b: pa.Table) -> pa.Table:
        # the written files keep the shard column; it is also the partition
        b = with_shard(b, num_shards)
        return b.append_column(exchange.PART_COL, b["shard"])

    def write_shard(g: pa.Table) -> pa.Table:
        shard = g["shard"][0].as_py()
        out = os.path.join(dst_dir, f"shard={shard}", f"{file_tag}.parquet")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        tmp = out + ".tmp"
        # stable within-shard order so reruns are byte-identical
        sort_keys = [("ts", "ascending")]
        if "seq" in g.column_names:
            sort_keys.append(("seq", "ascending"))
        pq.write_table(g.sort_by(sort_keys), tmp)
        os.rename(tmp, out)
        return pa.table(
            {"shard": pa.array([shard], pa.int32()), "rows": pa.array([g.num_rows], pa.int64())}
        )

    ds = ray.data.read_parquet(paths).map_batches(project, batch_format="pyarrow")
    stats = exchange.shuffle(ds, write_shard).take_all()
    return {int(r["shard"]): int(r["rows"]) for r in stats}
