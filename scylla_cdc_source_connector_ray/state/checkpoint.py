"""Checkpoint manifest + per-shard state files (reference S5/S6 —
offset restore ``ScyllaConnectorTask.java:163-211``, offset advance +
heartbeats ``ScyllaWorkerTransport.java:58-79``).

Layout under ``checkpoint_dir``::

    pins.json                      # the first run's pins, until its first commit
    manifest/batch-000007.json     # committed micro-batch 7 (atomic rename)
    metrics/batch-000007.json      # batch 7's lineage metrics
    <kind>/shard=3/batch-000007.arrow    # shard 3's ``kind`` state after batch 7

``kind`` namespaces a runner's state tables: "state" (last CDC row per key),
"wstate" (window panes), "cstate" (per-conversation store), "seen" (the
dedup stream's hash set), and so on. State files are engine-private: they
are written whole and read back whole, never scanned by column, so they are
uncompressed Arrow IPC files (:data:`STATE_FORMAT`, pinned in every
manifest) in the engine's in-memory layout rather than Parquet. Sinks and
the log stay Parquet, the public contract. Only this module knows the state
file format: runners go through :meth:`Checkpoint.write_state` and
:meth:`Checkpoint.load_state`.

Commit protocol (exactly-once, SURVEY.md §7.4): data files → state files →
manifest, each via write-to-temp + ``os.rename`` (atomic on POSIX). A crash
between steps leaves a manifest pointing at the previous batch; re-running the
next batch regenerates byte-identical data/state files under the same names,
so replays overwrite rather than duplicate.

The manifest is also the heartbeat: an EMPTY micro-batch still commits a
manifest entry, so progress (``consumed_files``) advances exactly like the
reference's heartbeat-on-empty-window (``ScyllaConnectorConfig.java:350-363``).
"""

from __future__ import annotations

import json
import os
import tempfile

import pyarrow as pa

#: Identity of the state file format, committed as the ``state_format`` pin:
#: a checkpoint whose state was written in another format (Parquet, before
#: this one) refuses to resume instead of folding from empty state.
STATE_FORMAT = "arrow-ipc-file"
_STATE_EXT = ".arrow"


def _batch_num(fname: str) -> int:
    """Numeric batch id from 'batch-<id>.<ext>' (robust past the 6-digit
    zero padding — 'batch-1000000.json' must sort after 'batch-999999.json')."""
    return int(fname.split("-", 1)[1].split(".", 1)[0])


def _atomic_write(path: str, data: bytes) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.rename(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_table_atomic(table, path: str) -> None:
    """Parquet write under a temp name, then rename into place (atomic on
    POSIX): a reader never sees a half-written sink file. Calls
    ``pq.write_table`` through the module attribute so tracing wrappers
    installed on it see every write."""
    import pyarrow.parquet as pq

    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(table, tmp)
    os.rename(tmp, path)


def _write_state_file(table: pa.Table, path: str) -> None:
    """Uncompressed Arrow IPC file under a temp name, then rename into
    place, as :func:`write_table_atomic` does for Parquet."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with pa.OSFile(tmp, "wb") as f, pa.ipc.new_file(f, table.schema) as w:
        w.write_table(table)
    os.rename(tmp, path)


def read_state_file(path: str) -> pa.Table:
    """One state file, memory-mapped. Every state write renames a new inode
    into place, so a mapped file is never rewritten under its reader."""
    with pa.memory_map(path) as src:
        return pa.ipc.open_file(src).read_all()


class Checkpoint:
    """The paths of one checkpoint directory. Constructing one touches no
    file: each write makes the directories it needs, so a stage-2 task can
    build one per fold, and a checkpoint holds only the kinds written."""

    def __init__(self, checkpoint_dir: str):
        self.dir = checkpoint_dir
        self.manifest_dir = os.path.join(checkpoint_dir, "manifest")

    # --- manifest ----------------------------------------------------------

    def last_committed(self) -> dict | None:
        """Most recent committed batch manifest, or None (fresh start).
        Picks max by NUMERIC batch id — lexicographic order breaks once ids
        outgrow the 6-digit zero padding (batch-1000000 < batch-999999)."""
        if not os.path.isdir(self.manifest_dir):
            return None
        entries = [f for f in os.listdir(self.manifest_dir) if f.endswith(".json")]
        if not entries:
            return None
        newest = max(entries, key=_batch_num)
        with open(os.path.join(self.manifest_dir, newest)) as f:
            return json.load(f)

    def commit(self, batch_id: int, manifest: dict) -> None:
        manifest = {"batch_id": batch_id, **manifest}
        _atomic_write(
            os.path.join(self.manifest_dir, f"batch-{batch_id:06d}.json"),
            json.dumps(manifest, sort_keys=True).encode(),
        )

    # --- per-shard state files ---------------------------------------------

    def state_path(self, shard: int, batch_id: int, kind: str = "state") -> str:
        return os.path.join(self.dir, kind, f"shard={shard}", f"batch-{batch_id:06d}{_STATE_EXT}")

    def state_shards(self, kind: str) -> list[int]:
        """The shards that have a ``kind`` state directory, in order."""
        d = os.path.join(self.dir, kind)
        names = os.listdir(d) if os.path.isdir(d) else []
        return sorted(int(x.split("=", 1)[1]) for x in names if x.startswith("shard="))

    def _latest_state_path(self, shard: int, before_batch: int, kind: str) -> str | None:
        """Newest state file for ``shard`` with batch_id < ``before_batch``
        (a shard with no rows in a batch writes no file — fall back further)."""
        d = os.path.join(self.dir, kind, f"shard={shard}")
        if not os.path.isdir(d):
            return None
        best = None
        for f in os.listdir(d):
            if f.startswith("batch-") and f.endswith(_STATE_EXT):
                b = _batch_num(f)  # numeric parse: ids may outgrow the padding
                if b < before_batch and (best is None or b > best):
                    best = b
        return self.state_path(shard, best, kind) if best is not None else None

    def load_state(self, shard: int, before_batch: int, kind: str = "state") -> pa.Table | None:
        """``shard``'s newest ``kind`` state from before ``before_batch``, or
        None if it has none. Passing the last committed batch id + 1 reads
        committed state only: a crashed attempt's files are invisible."""
        path = self._latest_state_path(shard, before_batch, kind)
        return read_state_file(path) if path is not None else None

    def write_state(self, shard: int, batch_id: int, table, kind: str = "state") -> None:
        """Atomic per-shard state write (temp + rename)."""
        _write_state_file(table, self.state_path(shard, batch_id, kind))

    def gc_state(self, keep_batches: int = 2) -> None:
        """Drop state files older than the newest ``keep_batches`` per shard,
        and prune old manifests in the same pass (only the newest manifest is
        needed for recovery — without this, tail-mode checkpoint dirs grow
        unboundedly and every ``last_committed`` re-lists them). Per-batch
        metrics JSON is deliberately NOT pruned: it is the run's lineage
        record (north_rule), is never re-listed by the engine, and is tiny."""
        # enumerate state kinds on disk (shard=K layout) rather than a
        # hardcoded list: a new state family (e.g. the dedup stream's "seen")
        # must be pruned too, or the checkpoint grows one full snapshot per
        # batch forever
        reserved = {"manifest", "metrics"}
        for kind in os.listdir(self.dir):
            kd = os.path.join(self.dir, kind)
            if kind in reserved or not os.path.isdir(kd):
                continue
            for sd in os.listdir(kd):
                if not sd.startswith("shard="):
                    continue
                d = os.path.join(kd, sd)
                files = sorted(
                    (f for f in os.listdir(d) if f.endswith(_STATE_EXT)), key=_batch_num
                )
                for f in files[:-keep_batches]:
                    os.unlink(os.path.join(d, f))
        for flat in ("manifest",):
            d = os.path.join(self.dir, flat)
            if not os.path.isdir(d):
                continue
            files = sorted(
                (f for f in os.listdir(d) if f.endswith(".json")), key=_batch_num
            )
            for f in files[:-keep_batches]:
                os.unlink(os.path.join(d, f))


def current_hash_impl() -> str:
    """Identity string of the shard-hash backend pinned in the manifest — one
    definition shared by the runner's resume guard and the validate CLI."""
    import polars as _pl

    return f"polars-{_pl.__version__}"
