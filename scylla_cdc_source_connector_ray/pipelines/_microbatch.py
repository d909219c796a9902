"""The keyed-state micro-batch runner every lean streaming runner shares:
read a window of the log, fold it into per-key state, commit the offset.

A runner declares four things:

* its **pins** (:meth:`KeyedStateRunner.pins`) — replay-identity fields
  committed into every manifest and checked on resume;
* its **route** — a ``map_batches`` function or callable class that appends
  the shard column (``_shard``);
* its **state kind** (``STATE_KIND``) — the checkpoint directory its
  per-shard state lives under;
* a pure per-shard **fold** ``fold(rows, prior_state) -> (sink_rows | None,
  new_state | None, stats)``.

The base owns the rest: the constructor fields, ``run``/``follow`` (file
discovery, resume-pin checks, the batch loop with manifest commit + state
GC + per-batch metrics), the keyed exchange, loading the prior state and
writing the new one, the ``sink_dir/batch-B/shard-K.parquet`` write,
summing per-shard stats, and the manifest-gated output and state readers.
One definition of the replay-identity rules — a pin check added here
protects every runner. Runners with extra stages chain :meth:`keyed`, which
returns the Dataset before ``take_all()``.

(The full ``CaptureRunner`` keeps its own loop: it owns watermarks, hot-set
pinning, schema evolution and window flushing that don't fit this shape.)
"""

from __future__ import annotations

import gc
import json
import os
import time
from collections.abc import Callable

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..state.checkpoint import Checkpoint, _atomic_write, write_table_atomic


def run_microbatches(
    ckpt: Checkpoint,
    log_dir: str,
    *,
    pins: dict,
    process_batch: Callable[[int, list[str]], dict],
    files_per_batch: int,
    max_batches: int | None = None,
    crash_before_commit_at: int | None = None,
    tail: bool = False,
) -> dict:
    """Consume ``log_dir/*.parquet`` in order, ``files_per_batch`` at a time.

    ``pins`` are replay-identity fields: committed into every manifest and
    required to match on resume (changing any of them would silently re-cut
    batch boundaries, remap shards, or change semantics mid-stream).
    ``process_batch(batch_id, files)`` does the work and returns a flat
    numeric metrics dict; per-RUN sums are returned, per-STREAM cumulative
    sums persist in the manifest under ``cum`` (so they survive resume).

    ``tail=True`` (live polling): a concurrent writer's in-flight file —
    parquet footers are written LAST, so it is unreadable — is dropped from
    the listing's tail ("not yet arrived"; the next poll retries) instead of
    crashing the poll. Files arrive in monotone name order, so in-flight
    files are contiguous at the end of the sorted listing."""
    files = sorted(
        os.path.join(log_dir, f) for f in os.listdir(log_dir) if f.endswith(".parquet")
    )
    if tail:
        from ..sources.windowed import ts_stats_or_none

        while files and ts_stats_or_none(files[-1]) is None:
            files.pop()
    last = ckpt.last_committed()
    all_pins = {**pins, "files_per_batch": files_per_batch}
    for k, mine in all_pins.items():
        if last is not None and last.get(k) != mine:
            raise ValueError(
                f"checkpoint has {k}={last.get(k)!r}, run has {mine!r}: replay "
                "identity would change — keep it fixed or use a fresh "
                "checkpoint/sink dir"
            )
    # pins are also recorded BEFORE the first commit: a run that crashed
    # mid-batch-0 left per-shard state/sink files on disk but no manifest,
    # so the manifest check above cannot fire — a restart with a different
    # files_per_batch would re-cut batch 0 smaller and shards absent from
    # the new batch would keep STALE batch-0 state, silently dropping rows
    # at batch 1. Same-pin restarts overwrite that state deterministically,
    # so pinning (not wiping) is sufficient.
    pins_path = os.path.join(ckpt.dir, "pins.json")
    if last is None:
        if os.path.exists(pins_path):
            with open(pins_path) as f:
                prev = json.load(f)
            for k, mine in all_pins.items():
                if prev.get(k) != mine:
                    raise ValueError(
                        f"a previous uncommitted run pinned {k}={prev.get(k)!r}, "
                        f"this run has {mine!r}: its on-disk state would be "
                        "misread — keep pins fixed or use a fresh "
                        "checkpoint/sink dir"
                    )
        else:
            os.makedirs(ckpt.dir, exist_ok=True)
            _atomic_write(pins_path, json.dumps(all_pins, sort_keys=True).encode())
    consumed = last["consumed_files"] if last else 0
    # consumption is positional over the SORTED listing, which requires the
    # CDC-log contract that window file names arrive in monotone order: a
    # late file sorting BEFORE already-consumed names would silently shift
    # the positions (one consumed file re-processed, the new one skipped
    # forever). Verify the boundary file and fail loud instead.
    if last is not None and consumed > 0 and "last_file" in last:
        if consumed > len(files) or os.path.basename(files[consumed - 1]) != last["last_file"]:
            raise ValueError(
                f"log listing changed under the checkpoint: expected "
                f"{last['last_file']!r} at consumed position {consumed}, found "
                f"{os.path.basename(files[consumed - 1]) if consumed <= len(files) else 'missing'!r} "
                "— window files must be named in monotone arrival order"
            )
    next_batch = (last["batch_id"] + 1) if last else 0
    cum = dict(last.get("cum", {})) if last else {}
    todo = files[consumed:]
    batches = [todo[i : i + files_per_batch] for i in range(0, len(todo), files_per_batch)]
    if max_batches is not None:
        batches = batches[:max_batches]

    totals: dict = {"batches": 0, "crashed": False}
    for i, bfiles in enumerate(batches):
        batch_id = next_batch + i
        t0 = time.perf_counter()
        m = process_batch(batch_id, bfiles)
        for k, v in m.items():
            totals[k] = totals.get(k, 0) + v
        if crash_before_commit_at is not None and i >= crash_before_commit_at:
            totals["crashed"] = True
            return totals
        for k, v in m.items():  # cumulative only past the crash point
            cum[k] = cum.get(k, 0) + v
        consumed += len(bfiles)
        ckpt.commit(
            batch_id,
            {
                "consumed_files": consumed,
                "last_file": os.path.basename(bfiles[-1]),
                "cum": cum,
                **all_pins,
            },
        )
        ckpt.gc_state(keep_batches=2)
        _atomic_write(
            os.path.join(ckpt.dir, "metrics", f"batch-{batch_id:06d}.json"),
            json.dumps(
                {"batch_id": batch_id, "sec": round(time.perf_counter() - t0, 3), **m},
                sort_keys=True,
            ).encode(),
        )
        totals["batches"] += 1
    return totals


def follow_microbatches(
    ckpt: Checkpoint,
    log_dir: str,
    *,
    pins: dict,
    process_batch: Callable[[int, list[str]], dict],
    files_per_batch: int,
    poll_interval_s: float = 1.0,
    idle_polls: int = 3,
) -> dict:
    """Live tail for the lean runners: keep draining ``log_dir`` until
    ``idle_polls`` consecutive polls find nothing new. Each drain is a
    normal :func:`run_microbatches` pass, so every batch commits through
    the same manifest/pins/replay contract — killing the tail and resuming
    (in either mode) never duplicates or drops a batch. A trailing
    incomplete file group is consumed rather than held back (tail = lowest
    latency); a replayed-after-crash batch may therefore contain MORE files
    than the crashed attempt saw, which is safe: the crashed attempt never
    committed and its state/sink files are overwritten by batch id."""
    totals: dict = {"batches": 0, "crashed": False, "polls": 0}
    idle = 0
    while idle < idle_polls:
        r = run_microbatches(
            ckpt,
            log_dir,
            pins=pins,
            process_batch=process_batch,
            files_per_batch=files_per_batch,
            tail=True,
        )
        for k, v in r.items():
            if k != "crashed":
                totals[k] = totals.get(k, 0) + v
        totals["polls"] += 1
        if r["batches"] == 0:
            idle += 1
            time.sleep(poll_interval_s)
        else:
            idle = 0
    return totals


def read_committed_state(ckpt: Checkpoint, kind: str) -> list[pa.Table]:
    """Latest COMMITTED state snapshot per shard for ``kind`` — ONE
    definition of the manifest-gated state-read rule (a crashed attempt's
    uncommitted state files are invisible: latest_state_path filters to
    batch_id <= last committed)."""
    last = ckpt.last_committed()
    if last is None:
        raise ValueError("no committed batches")
    tables = []
    root = os.path.join(ckpt.dir, kind)
    if os.path.isdir(root):
        for d in sorted(os.listdir(root)):
            if not d.startswith("shard="):
                continue
            p = ckpt.latest_state_path(
                int(d.split("=", 1)[1]), before_batch=last["batch_id"] + 1, kind=kind
            )
            if p:
                tables.append(pq.read_table(p))
    return tables


def read_committed_output(ckpt: Checkpoint, sink_dir: str) -> pa.Table:
    """Concat the sink files of COMMITTED batches only (a crashed attempt's
    files for an uncommitted batch are invisible until its replay commits)."""
    last = ckpt.last_committed()
    if last is None:
        raise ValueError("no committed batches")
    parts = []
    for b in range(last["batch_id"] + 1):
        d = os.path.join(sink_dir, f"batch-{b:06d}")
        if not os.path.isdir(d):
            continue
        for f in sorted(os.listdir(d)):
            if f.endswith(".parquet"):
                parts.append(pq.read_table(os.path.join(d, f)))
    return pa.concat_tables(parts) if parts else pa.table({})


def read_committed_output_ds(ckpt: Checkpoint, sink_dir: str):
    import ray.data

    last = ckpt.last_committed()
    if last is None:
        raise ValueError("no committed batches")
    dirs = [
        os.path.join(sink_dir, f"batch-{b:06d}")
        for b in range(last["batch_id"] + 1)
        if os.path.isdir(os.path.join(sink_dir, f"batch-{b:06d}"))
    ]
    if not dirs:  # committed all-empty log: mirror read_committed_output
        return ray.data.from_arrow(pa.table({}))
    return ray.data.read_parquet(dirs)


def take_all_releasing_actors(ds) -> list[dict]:
    """``ds.take_all()`` for a plan with an actor-pool stage. Ray Data
    releases pool actors by dropping their handles, but reference cycles in
    the finished execution keep them — and the CPUs they reserve — alive
    until the cyclic GC happens to run; a later job that needs those CPUs
    for its own actors then waits forever. Collect the cycles right away."""
    rows = ds.take_all()
    gc.collect()
    return rows


def write_sink(sink_dir: str, batch_id: int, name: str, table: pa.Table) -> None:
    """Atomic ``sink_dir/batch-B/<name>.parquet`` write — one file per
    (batch, shard or part), so a replayed batch overwrites by name."""
    write_table_atomic(table, os.path.join(sink_dir, f"batch-{batch_id:06d}", f"{name}.parquet"))


class KeyedStateRunner:
    """Base of the lean streaming runners (see the module docstring for the
    declaration contract). Subclasses set ``STATE_KIND``, ``STATS`` (the
    per-batch metrics: per-shard fold stats summed over shards) and
    ``BATCH_FORMAT`` (of the route and the fold), and implement
    :meth:`pins` and :meth:`plan`; runners with extra stages override
    :meth:`process` and chain :meth:`keyed`."""

    STATE_KIND: str | None = None
    STATS: tuple[str, ...] = ()
    BATCH_FORMAT = "pyarrow"

    def __init__(
        self,
        log_dir: str,
        num_shards: int | None,
        sink_dir: str | None,
        checkpoint_dir: str,
    ):
        self.log_dir = log_dir
        self.num_shards = num_shards
        self.sink_dir = sink_dir
        self.state_kind = self.STATE_KIND
        self.ckpt = Checkpoint(checkpoint_dir)

    # ------------------------------------------------------------ declared
    def pins(self) -> dict:
        raise NotImplementedError

    def plan(self, batch_id: int, bfiles: list[str]) -> tuple[Callable, Callable]:
        """``(route, fold)`` for one batch — closures over plain values (a
        bound method would ship the whole runner into every task)."""
        raise NotImplementedError

    # ----------------------------------------------------------------- run
    def run(
        self,
        files_per_batch: int = 4,
        max_batches: int | None = None,
        crash_before_commit_at: int | None = None,
    ) -> dict:
        totals = run_microbatches(
            self.ckpt,
            self.log_dir,
            pins=self.pins(),
            process_batch=self.process,
            files_per_batch=files_per_batch,
            max_batches=max_batches,
            crash_before_commit_at=crash_before_commit_at,
        )
        return self._final_totals(totals)

    def follow(
        self,
        files_per_batch: int = 4,
        poll_interval_s: float = 1.0,
        idle_polls: int = 3,
    ) -> dict:
        """Live tail: drain new window files until ``idle_polls`` empty
        polls (same manifest/replay contract as ``run``)."""
        totals = follow_microbatches(
            self.ckpt,
            self.log_dir,
            pins=self.pins(),
            process_batch=self.process,
            files_per_batch=files_per_batch,
            poll_interval_s=poll_interval_s,
            idle_polls=idle_polls,
        )
        return self._final_totals(totals)

    def _final_totals(self, totals: dict) -> dict:
        """Run-level totals as returned by ``run``/``follow``."""
        return totals

    def process(self, batch_id: int, bfiles: list[str]) -> dict:
        """One batch: read → route → keyed fold → summed stats."""
        route, fold = self.plan(batch_id, bfiles)
        return self.sum_stats(self.keyed(self.read(bfiles), route, fold, batch_id).take_all())

    # -------------------------------------------------------------- stages
    def read(self, bfiles: list[str], **kw):
        import ray.data

        ds = ray.data.read_parquet(bfiles, override_num_blocks=2 * self.num_shards, **kw)
        # a batch of few files (or single-row-group files) cannot split at
        # read time, which would fuse the route stage onto one core — a
        # shuffle-FREE repartition slices the blocks before the exchange
        return ds.repartition(2 * self.num_shards, shuffle=False)

    def keyed(
        self,
        ds,
        route,
        fold: Callable,
        batch_id: int,
        *,
        kind: str | None = None,
        shard_col: str = "_shard",
        batch_format: str | None = None,
        emit: bool = False,
        **route_kw,
    ):
        """``ds → map_batches(route) → groupby(shard_col).map_groups(fold)``.
        Per shard: the prior state (newest ``kind`` file before this batch,
        None if absent) is loaded, ``fold(rows, prior)`` runs on the group
        (shard column dropped), a non-None new state is written under this
        batch id. ``emit=False``: sink rows go to the shard's sink file and
        the stats row flows on; ``emit=True``: the fold's rows flow on to a
        later stage instead (no sink write)."""
        fmt = batch_format or self.BATCH_FORMAT
        kind = kind or self.state_kind
        ckpt_dir, sink_dir = self.ckpt.dir, self.sink_dir

        def shard_task(g):
            if isinstance(g, pd.DataFrame):
                shard = int(g.pop(shard_col).iloc[0])
            else:
                shard = int(g[shard_col][0].as_py())
                g = g.drop_columns([shard_col])
            ck = Checkpoint(ckpt_dir)  # path math only; no driver state
            prev = ck.latest_state_path(shard, before_batch=batch_id, kind=kind)
            out, state, stats = fold(g, pq.read_table(prev) if prev else None)
            if state is not None:
                ck.write_state(shard, batch_id, state, kind=kind)
            if emit:
                return out
            if out is not None:
                write_sink(sink_dir, batch_id, f"shard-{shard:05d}", out)
            return pa.table({k: [v] for k, v in stats.items()})

        return (
            ds.map_batches(route, batch_format=fmt, **route_kw)
            .groupby(shard_col)
            .map_groups(shard_task, batch_format=fmt)
        )

    def sum_stats(self, rows: list[dict]) -> dict:
        totals = dict.fromkeys(self.STATS, 0)
        for r in rows:
            for k in totals:
                totals[k] += r[k]
        return totals

    # -------------------------------------------------------------- output
    def read_output(self) -> pa.Table:
        return read_committed_output(self.ckpt, self.sink_dir)

    def read_output_ds(self):
        return read_committed_output_ds(self.ckpt, self.sink_dir)

    def read_state(self, kind: str | None = None) -> list[pa.Table]:
        return read_committed_state(self.ckpt, kind or self.state_kind)
