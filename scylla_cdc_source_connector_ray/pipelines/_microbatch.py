"""The micro-batch control plane every streaming runner shares — read a
window of the log, fold it into per-key state, commit the offset — and the
keyed-state base of the lean runners.

:func:`run_microbatches` is the one batch loop (≙ the reference's task
lifecycle: restore offsets → loop windows → commit). It owns the
single-writer checkpoint lock, the listing of either log layout, the
resume-pin checks, the manifest commit, state GC and the per-batch metrics
file; a runner hands it a ``process_batch`` callback. ``CaptureRunner``
and the 16 lean runners all commit through it, so a rule added here (a
pin, a fault point, a listing check) protects every runner.

A lean runner declares four things:

* its **pins** (:meth:`KeyedStateRunner.pins`) — replay-identity fields
  committed into every manifest and checked on resume;
* its **route** — a function or callable class over one slice of rows
  (``BATCH_FORMAT``) that appends the partition column (``_shard``);
* its **state kind** (``STATE_KIND``) — the checkpoint directory its
  per-shard state lives under;
* a pure per-shard **fold** ``fold(rows, prior_state) -> (sink_rows | None,
  new_state | None, stats)``.

The base owns the rest: the constructor fields, ``run``/``follow``, the
keyed exchange, loading the prior state and writing the new one, the
``sink_dir/batch-B/shard-K.parquet`` write, summing per-shard stats, and the
manifest-gated output and state readers.

The keyed exchange (:func:`exchange`) is a two-stage graph of plain Ray
tasks, a hash shuffle with no planner in between (as in Exoshuffle, Luan et
al., SIGCOMM'23): stage 1 reads one slice of a log file (or takes a block
ref), routes it and returns one part per partition; stage 2 runs one task
per partition that hands its parts, in arrival order, to a stage-2 body. A
pre-partitioned input (a bucketed log) skips stage 1. A batch of log files
with at most :data:`SPLIT_ROWS` rows runs both stages in one task, so a
small batch costs one task, where the two-stage graph costs 2 + partitions
tasks and a Ray Data plan tens of milliseconds per operator (Drizzle,
Venkataraman et al., SOSP'17, amortizes per-batch scheduling the same way).
Stage 2 is always the one load-fold-write body (:func:`_fold_task`) over
the partitions of its task: load the prior table of each declared state
kind per partition, call a pure task fold ONCE with every partition's rows
and priors (once per :data:`FOLD_STATE_BYTES` of prior state when the state
is large), then write each partition's new states and named sinks and hand
any tables the fold marks as blocks to a chained exchange. On the one-task
path the fold sees every partition of the batch, so a fold that
runs its kernels once over all of them (``CaptureRunner``'s, as a window
operator shared by all queries does in General Stream Slicing, Traub et
al., EDBT'19) pays their fixed cost once per batch, not once per
partition; what stays per partition is its file I/O. The lean runners
reach the body through :meth:`KeyedStateRunner.keyed`, whose task fold
loops over their per-partition ``fold(rows, prior)``; the composed runners
(curation, segment, substring) chain a second exchange over the blocks the
first returns, and ``CaptureRunner`` runs its shard stage and its salted
merge and fixup stages through it with folds of its own (per-partition
folds go in through :func:`each_partition`). No streaming runner builds a
Ray Data plan per batch.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import functools
import json
import math
import os
import time
from collections.abc import Callable

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..sources import windowed
from ..state.checkpoint import STATE_FORMAT, Checkpoint, _atomic_write, write_table_atomic


@dataclasses.dataclass
class BatchResult:
    """What a ``process_batch`` callback may return instead of a plain
    stats dict: ``stats`` are numeric and summed (run totals, the manifest's
    ``cum``); ``manifest`` is runner state committed next to the offsets;
    ``metrics`` are extra per-batch metrics-file fields (not summed)."""

    stats: dict
    manifest: dict = dataclasses.field(default_factory=dict)
    metrics: dict = dataclasses.field(default_factory=dict)


@contextlib.contextmanager
def checkpoint_lock(ckpt: Checkpoint):
    """Single-writer guard: two runners on one checkpoint would interleave
    state files nondeterministically (≙ Kafka Connect's single task
    ownership per partition). Advisory flock, released on exit."""
    os.makedirs(ckpt.dir, exist_ok=True)  # constructing a Checkpoint makes no directory
    with open(os.path.join(ckpt.dir, "runner.lock"), "w") as f:
        try:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            raise RuntimeError(
                f"another runner holds the checkpoint lock at {ckpt.dir}"
            ) from None
        yield


def recorded_pins(ckpt: Checkpoint) -> dict | None:
    """The pins a checkpoint recorded: its last manifest or, before the
    first commit, ``pins.json`` of an earlier run that crashed."""
    last = ckpt.last_committed()
    path = os.path.join(ckpt.dir, "pins.json")
    if last is None and os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    return last


def check_pins(ckpt: Checkpoint, pins: dict) -> None:
    """Raise ``ValueError`` when ``pins`` differ from the recorded ones:
    changing any of them would silently re-cut batch boundaries, remap
    shards, or change semantics mid-stream. The check covers a run that
    crashed mid-batch-0 too: it left per-shard state/sink files but no
    manifest, and a restart with a different ``files_per_batch`` would re-cut
    batch 0 so that shards absent from the new batch keep STALE state.
    Same-pin restarts overwrite that state deterministically."""
    recorded = recorded_pins(ckpt)
    for k, mine in pins.items():
        if recorded is not None and recorded.get(k) != mine:
            where = "checkpoint has" if "batch_id" in recorded else "a previous uncommitted run pinned"
            raise ValueError(
                f"{where} {k}={recorded.get(k)!r}, run has {mine!r}: replay identity "
                "would change — keep pins fixed or use a fresh checkpoint/sink dir"
            )


def run_pins(pins: dict, files_per_batch: int) -> dict:
    """Every pin a run commits and checks on resume: the runner's own
    ``pins``, ``files_per_batch`` and the checkpoint's state file format.
    The ``validate`` CLI checks the same set."""
    return {**pins, "files_per_batch": files_per_batch, "state_format": STATE_FORMAT}


def run_microbatches(
    ckpt: Checkpoint,
    log_dir: str,
    *,
    pins: dict,
    process_batch: Callable[[int, list], dict | BatchResult],
    files_per_batch: int,
    max_batches: int | None = None,
    crash_before_commit_at: int | None = None,
    tail: bool = False,
    confidence_window_us: int | None = None,
    initial_lookback_us: int | None = None,
    on_listing: Callable[[list], None] | None = None,
) -> dict:
    """Consume the log's unconsumed units in order, ``files_per_batch`` at a
    time, under the checkpoint lock. Units come from
    :func:`..sources.windowed.list_log`: ``process_batch(batch_id, units)``
    gets a flat log's file paths or a bucketed log's ``LogWindow`` objects,
    and returns a numeric stats dict or a :class:`BatchResult`. Stats are
    summed per run (returned) and per stream (the manifest's ``cum``, so
    they survive resume). ``pins`` (see :func:`check_pins`) are committed
    into every manifest with the loop's own (:func:`run_pins`).

    ``tail=True`` (live polling): the listing stops at a concurrent writer's
    in-flight file (the next poll retries) and, if the runner passes
    ``confidence_window_us``, holds back units newer than (frontier −
    confidence window). ``initial_lookback_us`` (fresh start only) skips
    the leading units older than (frontier − lookback), as consumed.
    ``on_listing(units)`` sees the whole listing before the first batch.
    ``crash_before_commit_at=k`` simulates a hard kill after the k-th
    batch's writes but BEFORE its commit (the worst case for exactly-once)."""
    with checkpoint_lock(ckpt):
        all_pins = run_pins(pins, files_per_batch)
        check_pins(ckpt, all_pins)
        last = ckpt.last_committed()
        pins_path = os.path.join(ckpt.dir, "pins.json")
        if last is None and not os.path.exists(pins_path):
            _atomic_write(pins_path, json.dumps(all_pins, sort_keys=True).encode())
        lookback = initial_lookback_us if last is None else None
        units = windowed.list_log(log_dir, tail=tail, with_ts=lookback is not None)
        if on_listing is not None:
            on_listing(units)
        consumed = last["consumed_files"] if last else 0
        # consumption is positional over the SORTED listing, which requires
        # the CDC-log contract that window file names arrive in monotone
        # order: a late file sorting BEFORE already-consumed names would
        # silently shift the positions (one consumed file re-processed, the
        # new one skipped forever). Verify the boundary file and fail loud.
        if last is not None and consumed > 0 and "last_file" in last:
            found = units[consumed - 1].name if consumed <= len(units) else "missing"
            if found != last["last_file"]:
                raise ValueError(
                    f"log listing changed under the checkpoint: expected "
                    f"{last['last_file']!r} at consumed position {consumed}, found "
                    f"{found!r} — window files must be named in monotone arrival order"
                )
        if lookback is not None:
            consumed = windowed.lookback_skip(units, lookback)
        batches = windowed.plan_batches(
            units,
            consumed,
            files_per_batch,
            confidence_window_us or 0,
            log_complete=not tail or confidence_window_us is None,
        )
        if max_batches is not None:
            batches = batches[:max_batches]
        next_batch = (last["batch_id"] + 1) if last else 0
        cum = dict(last.get("cum", {})) if last else {}

        totals: dict = {"batches": 0, "crashed": False}
        for i, bunits in enumerate(batches):
            batch_id = next_batch + i
            t0 = time.perf_counter()
            r = process_batch(
                batch_id,
                [u.path if isinstance(u, windowed.LogFile) else u for u in bunits],
            )
            if not isinstance(r, BatchResult):
                r = BatchResult(r)
            for k, v in r.stats.items():
                totals[k] = totals.get(k, 0) + v
            if crash_before_commit_at is not None and i >= crash_before_commit_at:
                totals["crashed"] = True
                return totals
            for k, v in r.stats.items():  # cumulative only past the crash point
                cum[k] = cum.get(k, 0) + v
            consumed += len(bunits)
            offsets = {"consumed_files": consumed, "last_file": bunits[-1].name, "cum": cum}
            ckpt.commit(batch_id, {**offsets, **all_pins, **r.manifest})
            ckpt.gc_state(keep_batches=2)
            sec = round(time.perf_counter() - t0, 3)
            _atomic_write(
                os.path.join(ckpt.dir, "metrics", f"batch-{batch_id:06d}.json"),
                json.dumps(
                    {"batch_id": batch_id, "sec": sec, **r.stats, **r.metrics}, sort_keys=True
                ).encode(),
            )
            totals["batches"] += 1
        return totals


def follow_microbatches(
    ckpt: Checkpoint,
    log_dir: str,
    *,
    poll_interval_s: float = 1.0,
    idle_polls: int = 3,
    **loop_kw,
) -> dict:
    """Live tail: keep draining ``log_dir`` until ``idle_polls`` consecutive
    polls find nothing new. Each drain is a normal :func:`run_microbatches`
    pass (``tail=True``, ``loop_kw`` passed through), so killing the tail
    and resuming (in either mode) never duplicates or drops a batch. A
    trailing incomplete file group is consumed rather than held back (tail
    = lowest latency); a replay may then see MORE files than its crashed
    attempt, which is safe: its shards are a superset and overwrite by id."""
    totals: dict = {"batches": 0, "crashed": False, "polls": 0}
    idle = 0
    while idle < idle_polls:
        r = run_microbatches(ckpt, log_dir, tail=True, **loop_kw)
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
    uncommitted state files are invisible: only batch ids <= the last
    committed one are read). A checkpoint with no commit has no state:
    ``[]``, the same rule the output readers follow."""
    last = ckpt.last_committed()
    if last is None:
        return []
    loaded = (
        ckpt.load_state(shard, before_batch=last["batch_id"] + 1, kind=kind)
        for shard in ckpt.state_shards(kind)
    )
    return [t for t in loaded if t is not None]


def committed_sink_files(ckpt: Checkpoint, sink_dir: str) -> list[str]:
    """The ``sink_dir/batch-B/*.parquet`` files of COMMITTED batches, in
    batch then name order. A crashed attempt's files for an uncommitted
    batch are invisible until its replay commits; a checkpoint with no
    commit has none, so every output reader returns an empty result (never
    raises) before the first commit."""
    last = ckpt.last_committed()
    paths = []
    for b in range(last["batch_id"] + 1 if last else 0):
        d = os.path.join(sink_dir, f"batch-{b:06d}")
        if os.path.isdir(d):
            paths += [os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
    return paths


def read_committed_output(
    ckpt: Checkpoint,
    sink_dir: str,
    conform: Callable[[list[pa.Table]], list[pa.Table]] | None = None,
) -> pa.Table:
    """Concat the sink files of committed batches (see
    :func:`committed_sink_files`); ``conform`` unifies their schemas first,
    and files that differ only in string encoding (string / large_string)
    concatenate as large_string."""
    parts = [pq.read_table(p) for p in committed_sink_files(ckpt, sink_dir)]
    if conform is not None:
        parts = conform(parts)
    return pa.concat_tables(parts, promote_options="permissive") if parts else pa.table({})


def read_committed_output_ds(
    ckpt: Checkpoint,
    sink_dir: str,
    conform: Callable[[list[pa.Schema]], Callable | None] | None = None,
):
    """Dataset twin of :func:`read_committed_output`: streams the committed
    sink files instead of concatenating on the driver. ``conform(schemas)``
    gets the files' footer schemas and may return a per-block
    ``map_batches`` function that unifies them."""
    import ray.data

    paths = committed_sink_files(ckpt, sink_dir)
    if not paths:
        return ray.data.from_arrow(pa.table({}))
    ds = ray.data.read_parquet(paths)
    fn = conform([pq.read_schema(p) for p in paths]) if conform is not None else None
    return ds.map_batches(fn, batch_format="pyarrow") if fn is not None else ds


def write_sink(sink_dir: str, batch_id: int, name: str, table: pa.Table) -> None:
    """Atomic ``sink_dir/batch-B/<name>.parquet`` write — one file per
    (batch, shard or part), so a replayed batch overwrites by name."""
    write_table_atomic(table, os.path.join(sink_dir, f"batch-{batch_id:06d}", f"{name}.parquet"))


#: Rows one task takes. A batch of log files with at most this many rows in
#: all (footer counts) runs as one task that routes and splits every file,
#: then folds every partition in one fold call (:func:`_route_fold`; more
#: than one when the prior state exceeds :data:`FOLD_STATE_BYTES`). A
#: larger batch runs as the two-stage graph, one fold task per partition,
#: and a file of ``rows`` rows is read there as ``min(2 * num_shards,
#: ceil(rows / SPLIT_ROWS))`` slices, each routed by its own task, so a
#: large batch keeps its parallelism.
#:
#: The one-task cutoff reuses the slice size; it is not a measured
#: crossover. On one CPU the one task was faster at every size tried (6k
#: to 66k rows, 4 and 64 partitions), so there the cutoff only caps the
#: work that gives up parallelism. On many CPUs the one task runs one fold
#: call and every partition's state and sink I/O in one process, where the
#: graph spreads the partitions over CPUs; that trade is unmeasured beyond
#: what ``tools/batch_cost.py --cpus N`` shows.
SPLIT_ROWS = 16_384

#: Prior state, in Arrow bytes, that one fold call takes. The stage-2 body
#: closes a group of partitions once the state it loaded reaches this, so
#: a task holds about this much prior state (plus one partition's) and the
#: fold's copies of it at once, not the whole state of every shard it
#: serves. At 64 shards over 62 MB of capture state (420k events), the
#: worker that folded one 500-event flat batch peaked at 525 MB of RSS in
#: one call, 282 MB in groups of this size (7 calls) and 230 MB one
#: partition at a time. A group this large spends more on its state's rows
#: than on the fold's fixed cost per call (about 5 ms).
FOLD_STATE_BYTES = 8 << 20


def _slice_count(rows: int, num_shards: int) -> int:
    """Stage-1 slices of a log file of ``rows`` rows."""
    return max(1, min(2 * num_shards, math.ceil(rows / SPLIT_ROWS)))


def slices(path: str, num_shards: int) -> int:
    """Stage-1 slices of a log file, from its footer row count."""
    return _slice_count(pq.read_metadata(path).num_rows, num_shards)


def _as_format(block, fmt: str):
    """``block`` (Arrow or pandas) as ``fmt``, converted the way Ray Data
    converts blocks for ``map_batches``."""
    from ray.data.block import BlockAccessor

    acc = BlockAccessor.for_block(block)
    return acc.to_pandas() if fmt == "pandas" else acc.to_arrow()


def _returns(parts: list):
    """A ``num_returns=len(parts)`` task's return value."""
    return parts if len(parts) > 1 else parts[0]


def _refs(refs, n: int) -> list:
    """The refs of a ``num_returns=n`` task (or the value its body
    returns) as a list."""
    return refs if n > 1 else [refs]


def _row_slices(t: pa.Table, n: int) -> list[pa.Table]:
    """``n`` contiguous slices of ``t`` whose sizes differ by at most a row."""
    bounds = [t.num_rows * i // n for i in range(n + 1)]
    return [t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]


def _by_partition(t: pa.Table, col: str, n: int) -> list[pa.Table]:
    """``t``'s rows split by the partition column ``col`` (dropped) into
    ``n`` parts, arrival order kept inside each part."""
    part = t[col].to_numpy()
    if len(part) and (part.min() < 0 or part.max() >= n):
        raise ValueError(f"route put rows in partition {part.min()}..{part.max()}, not in [0, {n})")
    order = np.argsort(part, kind="stable")
    bounds = np.searchsorted(part[order], np.arange(n + 1))
    t = t.drop_columns([col]).take(order)
    return [t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]


@ray.remote
def _read_slices(path: str, n: int, columns: list[str] | None):
    """Stage 1 of a multi-slice file: read it once, return ``n`` slices."""
    return _returns(_row_slices(pq.read_table(path, columns=columns), n))


def _slice_refs(path: str, k: int, columns: list[str] | None) -> list:
    """Block refs of a log file read as ``k`` slices by one task."""
    return _refs(_read_slices.options(num_returns=k).remote(path, k, columns), k)


def _route_and_split(src, route, fmt: str, shard_col: str, n: int, columns: list[str] | None):
    """One slice (a log file path or a block) → ``route`` → one Arrow part
    per partition. A callable-class route is built here; ``route=None``
    keeps rows that already carry ``shard_col``."""
    t = pq.read_table(src, columns=columns) if isinstance(src, str) else src
    if route is not None:
        fn = route() if isinstance(route, type) else route
        t = _as_format(fn(_as_format(t, fmt)), "pyarrow")
    return _by_partition(t, shard_col, n)


def _partition_rows(partition: int, parts) -> tuple[int, pa.Table, int]:
    """One partition's parts in order — Arrow parts, or the files of a
    pre-partitioned input, read here under a
    :class:`..state.retry.RetryPolicy` — as ``(partition, rows, n_parts)``
    for the stage-2 body."""
    if parts and isinstance(parts[0], str):
        from ..state.retry import RetryPolicy

        retry = RetryPolicy()
        parts = [retry.call(lambda path=path: pq.read_table(path)) for path in parts]
    return partition, pa.concat_tables(parts, promote_options="permissive"), len(parts)


@ray.remote
def _route_split(src, route, fmt: str, shard_col: str, n: int, columns: list[str] | None):
    """Stage 1: :func:`_route_and_split` over one slice."""
    return _returns(_route_and_split(src, route, fmt, shard_col, n, columns))


@ray.remote
def _reduce(partition: int, body, *parts):
    """Stage 2: the body over one partition's parts."""
    return _returns(body([_partition_rows(partition, parts)]))


@ray.remote
def _route_fold(
    paths: list[str], route, fmt: str, shard_col: str, n: int, columns: list[str] | None, body,
):
    """Both stages in one task: every file of ``paths`` is read, routed and
    split (``route`` built once), then the body runs once over partitions
    ``0..n-1``, each with its parts in file order. Returns the stage-2
    values of each partition, partition after partition."""
    fn = route() if isinstance(route, type) else route
    parts = [_route_and_split(path, fn, fmt, shard_col, n, columns) for path in paths]
    return _returns(body([_partition_rows(p, [sp[p] for sp in parts]) for p in range(n)]))


def exchange(
    inputs: list | dict[int, list[str]],
    fold: Callable,
    n: int,
    *,
    batch_id: int,
    ckpt_dir: str,
    sink_dir: str | None = None,
    kinds: tuple[str, ...] = (),
    blocks: tuple[str, ...] = (),
    name: str = "shard-{:05d}",
    route=None,
    fmt: str = "pyarrow",
    shard_col: str = "_shard",
    columns: list[str] | None = None,
    num_shards: int | None = None,
) -> list:
    """The keyed exchange as a two-stage graph of plain Ray tasks (one task
    for a small batch of log files), with the load-fold-write body
    (:func:`_fold_task`: the task fold ``fold`` over state ``kinds``, sinks
    ``sink_dir/<sink>/batch-B/<name>.parquet``) as stage 2; returns one
    stage-2 result per partition, in partition order: a ref to the
    partition's metrics, or with ``blocks`` a list of refs ``[metrics,
    *blocks]`` (see :func:`gather`). A per-partition fold goes in through
    :func:`each_partition`.

    ``inputs`` is a list of log file paths (read with ``columns``) or block
    refs. Stage 1, per slice: ``route`` over the rows (``fmt``; None when
    the rows already carry ``shard_col``), then one part per partition
    ``[0, n)`` by ``shard_col``. Stage 2, per partition: the parts in
    source-then-slice order (so the fold sees arrival order), an empty
    table for an empty partition.

    Log files with at most :data:`SPLIT_ROWS` rows in all run both stages
    in one task (:func:`_route_fold`), which calls the fold once for every
    partition (per :data:`FOLD_STATE_BYTES` of prior state), with ``route``
    and the body passed as plain arguments.
    Otherwise each file is cut into :func:`slices` of at most ``2 *
    num_shards`` (default ``n``) before any task runs: a one-slice file is
    read and routed in one task, a larger one is read by one task and
    routed per slice, and each partition is folded by a task of its own.
    On this two-stage graph, ``route`` and the body (with whatever the fold
    closes over) go to the object store once per call, not once per task.

    A pre-partitioned input (``{partition: [file paths]}``, a bucketed log)
    skips stage 1: one stage-2 task per listed partition reads its own
    files."""
    body = functools.partial(
        _fold_task, batch_id=batch_id, fold=fold, fmt=fmt, kinds=kinds, ckpt_dir=ckpt_dir,
        sink_dir=sink_dir, name=name, blocks=blocks, state_bytes=FOLD_STATE_BYTES,
    )
    n_out = 1 + len(blocks)
    if not isinstance(inputs, dict):
        rows = [pq.read_metadata(src).num_rows if isinstance(src, str) else None for src in inputs]
        if inputs and None not in rows and sum(rows) <= SPLIT_ROWS:
            one = _route_fold.options(num_returns=n * n_out)
            refs = _refs(one.remote(inputs, route, fmt, shard_col, n, columns, body), n * n_out)
            return refs if n_out == 1 else [refs[p * n_out:(p + 1) * n_out] for p in range(n)]
    body_ref = ray.put(body)
    reduce = _reduce.options(num_returns=n_out)
    if isinstance(inputs, dict):
        return [reduce.remote(p, body_ref, *paths) for p, paths in sorted(inputs.items())]
    route_ref = ray.put(route)
    parts = []  # per slice, one part ref per partition
    for src, r in zip(inputs, rows):
        k = 1 if r is None else _slice_count(r, num_shards or n)
        for sl in [src] if k == 1 else _slice_refs(src, k, columns):
            split = _route_split.options(num_returns=n)
            parts.append(_refs(split.remote(sl, route_ref, fmt, shard_col, n, columns), n))
    return [reduce.remote(p, body_ref, *(sp[p] for sp in parts)) for p in range(n)]


def _fold_task(
    parts: list[tuple[int, pa.Table, int]], *,
    batch_id: int, fold: Callable, fmt: str, kinds: tuple[str, ...], ckpt_dir: str,
    sink_dir: str | None, name: str, blocks: tuple[str, ...], state_bytes: int,
) -> list:
    """The one stage-2 body, load → fold → write, for every runner, over
    the partitions of one task (``(partition, rows, n_parts)`` each, in
    partition order). For each partition with rows it loads the prior table
    of each state kind in ``kinds`` (the newest file before this batch,
    None if absent). Partitions go to the task fold in groups, in partition
    order: a group closes once the prior tables it loaded reach
    ``state_bytes`` (Arrow bytes), so a task holds a bounded share of the
    state, whatever the shard count; with a small state every partition of
    the task folds in one call. Per group the task fold runs ONCE,
    ``fold({partition: rows}, {partition: priors}) -> {partition: (sinks,
    states, stats)}``, and the body writes each partition's outputs in
    partition order: each non-None state table under this batch id, each
    non-None sink table to ``sink_dir/<sink>/batch-B/<name>.parquet``
    (``name`` formatted with the partition; sink ``""`` is ``sink_dir``
    itself), except the sinks named in ``blocks``, which are returned as
    Arrow blocks for a chained exchange.

    Returns, per partition, its metrics ``{"stats", "rows", "slices",
    "blocks" (the block names the fold returned), "fold_s", "passes",
    "io_s", "io_bytes"}`` followed by one entry per block when ``blocks``.
    ``fold_s`` is the seconds of the fold call that folded the partition
    (shared by every partition of its group, not its own share), and
    ``passes`` is 1 on the first partition of each call, 0 elsewhere, so
    summing it counts fold calls. ``io_s`` is the partition's state load,
    state write and sink write seconds; ``io_bytes`` the Arrow bytes of the
    tables it loaded and wrote. A partition with no rows is not folded and
    writes nothing (``stats`` None; each block is its empty rows)."""
    ck = Checkpoint(ckpt_dir)  # path math only: construction touches no file
    live = [(p, t) for p, t, _ in parts if t.num_rows]
    done, group, held = {}, {}, 0
    for i, (p, t) in enumerate(live):
        t0 = time.perf_counter()
        priors = {kind: ck.load_state(p, before_batch=batch_id, kind=kind) for kind in kinds}
        loaded = sum(x.nbytes for x in priors.values() if x is not None)
        group[p] = _as_format(t, fmt), priors, time.perf_counter() - t0, loaded
        held += loaded
        if held >= state_bytes or i == len(live) - 1:
            done.update(_fold_group(group, batch_id, fold, ck, sink_dir, name, blocks))
            group, held = {}, 0
    out = []
    for p, t, n_parts in parts:
        metrics = {
            "stats": None, "rows": t.num_rows, "slices": n_parts, "blocks": (),
            "fold_s": 0.0, "passes": 0, "io_s": 0.0, "io_bytes": 0,
        }
        if p not in done:
            out += [metrics, *(t for _ in blocks)]
            continue
        folded, got = done[p]
        metrics.update(folded)
        out += [metrics, *got]
    return out


def _fold_group(
    group: dict, batch_id: int, fold: Callable, ck: Checkpoint, sink_dir: str | None, name: str,
    blocks: tuple[str, ...],
) -> dict[int, tuple[dict, list]]:
    """One fold call of :func:`_fold_task` over ``group`` (``{partition:
    (rows, priors, load seconds, loaded bytes)}``) and each partition's
    writes: per partition, its metrics fields and its blocks."""
    t0 = time.perf_counter()
    folded = fold({p: g[0] for p, g in group.items()}, {p: g[1] for p, g in group.items()})
    fold_s = time.perf_counter() - t0
    out = {}
    for i, (p, (_, _, load_s, io_bytes)) in enumerate(group.items()):
        sinks, states, stats = folded[p]
        t0 = time.perf_counter()
        for kind, state in states.items():
            if state is not None:
                ck.write_state(p, batch_id, state, kind=kind)
                io_bytes += state.nbytes
        for sink, table in sinks.items():
            if table is not None and sink not in blocks:
                write_sink(os.path.join(sink_dir, sink), batch_id, name.format(p), table)
                io_bytes += table.nbytes
        got = [sinks.get(b) for b in blocks]
        out[p] = {
            "stats": stats, "blocks": tuple(b for b, x in zip(blocks, got) if x is not None),
            "fold_s": fold_s, "passes": int(i == 0), "io_s": load_s + time.perf_counter() - t0,
            "io_bytes": io_bytes,
        }, [None if x is None else _as_format(x, "pyarrow") for x in got]
    return out


def each_partition(fold: Callable) -> Callable:
    """A per-partition fold ``fold(partition, rows, priors) -> (sinks,
    states, stats)`` as a task fold for :func:`exchange`: called once per
    partition of the task, in partition order."""
    return functools.partial(_each_partition, fold)


def _each_partition(fold: Callable, rows: dict, priors: dict) -> dict:
    return {p: fold(p, t, priors[p]) for p, t in rows.items()}


def gather(refs: list, blocks: tuple[str, ...] = ()) -> tuple[list[dict], dict[str, list]]:
    """The stage-2 results of an :func:`exchange`: the partitions' metrics
    and, per block name, the refs of the blocks the folds returned (left in
    the object store for a chained exchange)."""
    if not blocks:
        return ray.get(refs), {}
    shards = ray.get([r[0] for r in refs])
    return shards, {
        b: [r[i] for s, r in zip(shards, refs) if b in s["blocks"]] for i, b in enumerate(blocks, 1)
    }


def _lean_fold(fold: Callable, kind: str, partition: int, rows: pa.Table, priors: dict) -> tuple:
    """A lean runner's ``fold(rows, prior) -> (rows, state, stats)`` as a
    per-partition fold for :func:`each_partition`: its rows are sink
    ``""``, its state ``kind``."""
    sink, state, stats = fold(rows, priors[kind])
    return {"": sink}, {kind: state}, stats


def exchange_metrics(shards: list[dict]) -> dict:
    """Per-batch metrics from the stage-2 results of one exchange: stage-1
    slices (a pre-partitioned input: the most files one partition read);
    max / median over the partitions (an empty partition counts as 0) of
    rows, fold seconds (a partition folded with others reports the whole
    call's seconds), state and sink I/O seconds and bytes; and
    ``fold_passes``, the fold calls that ran."""
    mid = len(shards) // 2  # upper median
    out = {"slices": max((s["slices"] for s in shards), default=0)}
    for key, name in (("rows", "shard_rows"), ("fold_s", "fold_s"), ("io_s", "io_s"), ("io_bytes", "io_bytes")):
        vals = sorted(s[key] for s in shards) or [0]
        for stat, v in (("max", vals[-1]), ("p50", vals[mid])):
            out[f"{name}_{stat}"] = round(v, 4) if key.endswith("_s") else v
    out["fold_passes"] = sum(s["passes"] for s in shards)
    return out


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

    def process(self, batch_id: int, bfiles: list[str]) -> BatchResult:
        """One batch: the keyed exchange over its files → summed stats,
        with the exchange's skew metrics."""
        route, fold = self.plan(batch_id, bfiles)
        shards = ray.get(self.keyed(bfiles, route, fold, batch_id))
        return BatchResult(self.sum_stats(shards), metrics=exchange_metrics(shards))

    # -------------------------------------------------------------- stages
    @property
    def num_partitions(self) -> int:
        """Partitions of the keyed exchange (values of the route's shard
        column): one per shard unless a runner routes rows elsewhere too."""
        return self.num_shards

    def slices(self, path: str) -> int:
        """Stage-1 slices of a log file (see :func:`slices`)."""
        return slices(path, self.num_shards)

    def keyed(
        self,
        inputs: list,
        route,
        fold: Callable,
        batch_id: int,
        *,
        kind: str | None = None,
        shard_col: str = "_shard",
        batch_format: str | None = None,
        emit: bool = False,
        columns: list[str] | None = None,
    ) -> list:
        """The runner's fold over the keyed exchange (:func:`exchange`):
        returns one stage-2 ref per partition. ``inputs`` are log file
        paths or block refs, routed by ``route`` (``batch_format``) into
        :attr:`num_partitions` partitions by ``shard_col``. Stage 2 per
        non-empty partition: the prior state (newest ``kind`` file before
        this batch, None if absent) is loaded, ``fold(rows, prior)`` runs
        and a non-None new state is written under this batch id.
        ``emit=False``: sink rows go to the shard's sink file and the
        stage-2 result is the shard's stats and metrics (see
        :func:`exchange_metrics`); ``emit=True``: the fold's rows are the
        result, an Arrow block for a later stage (no sink write)."""
        kind = kind or self.state_kind
        refs = exchange(
            inputs, each_partition(functools.partial(_lean_fold, fold, kind)), self.num_partitions,
            batch_id=batch_id, ckpt_dir=self.ckpt.dir, sink_dir=self.sink_dir, kinds=(kind,),
            blocks=("",) if emit else (), route=route, fmt=batch_format or self.BATCH_FORMAT,
            shard_col=shard_col, columns=columns, num_shards=self.num_shards,
        )
        return [r[1] for r in refs] if emit else refs

    def sum_stats(self, shards: list[dict]) -> dict:
        """Per-shard fold stats summed over the stage-2 results (skipped
        partitions have none)."""
        totals = dict.fromkeys(self.STATS, 0)
        for s in shards:
            if s["stats"] is not None:
                for k in totals:
                    totals[k] += s["stats"][k]
        return totals

    # -------------------------------------------------------------- output
    def read_output(self) -> pa.Table:
        return read_committed_output(self.ckpt, self.sink_dir)

    def read_output_ds(self):
        return read_committed_output_ds(self.ckpt, self.sink_dir)

    def read_state(self, kind: str | None = None) -> list[pa.Table]:
        return read_committed_state(self.ckpt, kind or self.state_kind)
