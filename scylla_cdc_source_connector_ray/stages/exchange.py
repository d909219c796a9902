"""The one keyed shuffle of the batch operators.

Every batch stage that needs all rows of a key in one place — op-derive,
compaction, sessions, the conv-state join, CEP, analytic functions, the
co-partition joins, exact dedup, the bucketing ingest — shards the same
way the reference does (stream id → vnode → task): a pinned hash of the
FULL key picks a partition, and one call per non-empty partition runs a
vectorized kernel over all the keys that landed there.

This module owns the three pieces of that shape:

- :func:`part_of`, the partition hash. For one key column it IS
  :func:`..schema.shard_of`, so a conversation lands where the capture
  runner and the bucketed log put it.
- :data:`PART_COL`, the reserved column the partition id rides in.
- :func:`shuffle`, the one ``groupby(PART_COL).map_groups`` call. It drops
  :data:`PART_COL` before ``per_part`` runs, so ``per_part`` sees the
  caller's typed Arrow columns, once per partition — never once per key.

Callers project first (only what they keep crosses the exchange) and hand
over either their key columns or, when placement is already decided (a
salted shard, a join's tagged union), rows that carry :data:`PART_COL`.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..schema import shard_of

#: reserved column holding each row's partition id while it crosses the exchange
PART_COL = "__part"

#: partition count of a keyed operator or join whose caller names none
NUM_PARTITIONS = 16


def part_of(t: pa.Table, keys: list[str], num_partitions: int) -> pa.Array:
    """Stable cross-process partition id over the FULL key (the pinned
    polars hash of :func:`..schema.shard_of`). A multi-column key hashes
    its string-cast columns joined by a unit separator; a NULL in any key
    column routes the row to one fixed partition, so every distinct key —
    NULL ones included — still lands in exactly one partition."""
    if len(keys) == 1:
        return shard_of(t[keys[0]], num_partitions)
    key = pc.binary_join_element_wise(
        *[pc.cast(t[k], pa.string()) for k in keys], "\x1f"
    )
    return shard_of(key, num_partitions)


def shuffle(
    ds: ray.data.Dataset,
    per_part,
    keys: list[str] | None = None,
    num_partitions: int = NUM_PARTITIONS,
) -> ray.data.Dataset:
    """``per_part(rows) -> pa.Table`` once per non-empty partition of ``ds``.

    With ``keys``, each batch is tagged with :func:`part_of` over them into
    ``num_partitions`` partitions. Without, ``ds`` already carries
    :data:`PART_COL` (callers that decide placement themselves)."""
    if keys is not None:
        ds = ds.map_batches(
            lambda t: t.append_column(PART_COL, part_of(t, keys, num_partitions)),
            batch_format="pyarrow",
        )
    return ds.groupby(PART_COL).map_groups(
        lambda g: per_part(g.drop_columns([PART_COL])), batch_format="pyarrow"
    )
