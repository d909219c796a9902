"""Micro-batch CDC capture runner.

≙ the reference's task lifecycle (``ScyllaConnectorTask.java`` §3.2 of
SURVEY.md): restore offsets → loop windows → consume → advance offsets, with
our upgrades — exactly-once idempotent sink and event-time watermarks. The
lifecycle itself is the shared loop (:func:`._microbatch.run_microbatches`:
lock, listing, pin checks, manifest commit, metrics); this module is the
capture data plane it drives, one keyed exchange per micro-batch
(:func:`._microbatch.exchange`, plain Ray tasks, the lean runners' too)::

    flat log:     per file slice: read → _route (conform, shard column)
                  → one part per shard
    bucketed log: nothing — each shard's files are its input
    per shard:    its parts in file-then-slice order → load-fold-write
                  body (_microbatch._fold_task) over _shard_task
    → per-shard stats to the loop, which commits

    flat batch of ≤ SPLIT_ROWS rows: both stages in one task — read and
                  _route every file, split, then the body once over every
                  shard: one _shard_task call, each shard's files written
                  in shard order

Like the reference's Kafka Connect tasks, each shard task folds only its own
streams; no planner sits between the two stages, and, like a Connect task
serving its whole group of vnodes in one worker loop
(``TaskConfigBuilder.java:38-42``), the one task of a small flat batch folds
all its shards in one pass while state stays per shard.

The body loads the shards' prior state tables, runs the pure fold
:func:`_shard_task` and writes what it returns. Keys never span shards, so
the fold runs its kernels once over the rows of all the shards it gets
(:func:`_fold_pass`) and splits the outputs back by shard; the steps that
depend on the shard (late counts and window thresholds against each
shard's watermark, the stats) use each row's ``shard``. The fold, fully
vectorized:

1. injects the checkpointed per-key state (last CDC-log row per key) as
   *seed rows* (``seq = -1``) — the cross-batch analogue of the reference's
   image-correlation accumulator map (``ScyllaChangesConsumer.java:104-139``),
   but stored as Parquet so any worker on any node can pick up any shard (no
   actor affinity problem);
2. runs the same :func:`..stages.op_derive.derive_ops` kernel used in batch
   mode — seeds make the per-key state machine continue seamlessly;
3. returns the change events as the sink ``batch-K/shard=S.parquet``, which
   the body writes under that deterministic name (temp + rename) — replays
   overwrite byte-identically ⇒ exactly-once — and the new state;
4. per configured window kind (:func:`_window_kinds`: tumbling, sliding,
   session), one stage (:func:`_window_stage` per shard; for the unsalted
   pane kinds of a pass over several shards, :func:`_pane_stage` over all
   of them at once): rows whose latest window already closed go to
   ``late/<kind>``, the rest are partial-aggregated and folded into the
   kind's state with the pure core of :mod:`..stages.windows` (one pane
   fold, one session fold).

Under hot-conversation salting the shard fold returns the window partials
and the hot conversations' slim conv-state rows as blocks, and each salted
stage is one more exchange over them through the same body: the window merge
(:func:`_merge_windows`) and the conv-state merge (:func:`_merge_cstate`)
keyed by ``base_shard``, then the envelope fixup (:func:`_fixup_env`) keyed
by ``sub_shard``. :meth:`CaptureRunner.flush_windows` folds the residual
window state with the threshold at +∞. The loop then commits the manifest
(offsets + per-shard watermarks). Crash anywhere before the commit ⇒ the
next run replays the batch onto the same file names. Empty batches still
commit (heartbeat semantics, ``ScyllaConnectorConfig.java:350-363``).

Scale notes: state I/O is per-shard and proportional to live keys per shard —
choose ``num_shards ≫ cores`` so state files stay small and the executor can
pipeline shards; the per-batch exchange moves only that batch's rows, never
the accumulated state.
"""

from __future__ import annotations

import functools
import os
import shutil
import time
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from ..config import EngineConfig
from ..schema import SEQ_COL, with_shard
from ..sources import windowed
from ..stages.envelope import build_envelope
from ..stages.op_derive import derive_ops
from ..stages.windows import AFTER_ALL, BEFORE_ALL, Panes, Sessions
from ..state.checkpoint import Checkpoint, current_hash_impl, write_table_atomic
from ._microbatch import (
    BatchResult,
    committed_sink_files,
    each_partition,
    exchange,
    exchange_metrics,
    follow_microbatches,
    gather,
    read_committed_output,
    read_committed_output_ds,
    read_committed_state,
    recorded_pins,
    run_microbatches,
)

_STATE_COLS = ["conv_id", "turn_idx", "role", "text", "tool", "ts", SEQ_COL, "shard"]


def _pin_strings(tbl: pa.Table) -> pa.Table:
    """Cast large_string→string, the encoding of the row-mode state: a log
    written with 64-bit string offsets (by another writer, or from one file
    on) must fold onto state seeds read back as ``string``."""
    for i, f in enumerate(tbl.schema):
        if pa.types.is_large_string(f.type):
            tbl = tbl.set_column(i, f.name, tbl[f.name].cast(pa.string()))
    return tbl


def _with_extras(tbl: pa.Table, extras: tuple[tuple[str, str], ...]) -> pa.Table:
    """Conform a block to the batch's evolved schema: append NULL columns for
    evolved value columns the block predates, pin drifted encodings
    (large_string from promotion) to the manifest type."""
    from ..schema import evolved_type

    for name, type_str in extras:
        typ = evolved_type(type_str)
        if name not in tbl.column_names:
            tbl = tbl.append_column(name, pa.nulls(tbl.num_rows, typ))
        elif tbl.schema.field(name).type != typ:
            i = tbl.column_names.index(name)
            tbl = tbl.set_column(i, name, tbl[name].cast(typ))
    return tbl


#: conv-state feature columns appended to the envelope, with their types —
#: shared by the local enrichment, the salted merge stage and the fixup.
_CSTATE_FEATURES: tuple[tuple[str, pa.DataType], ...] = (
    ("prior_turns", pa.int64()),
    ("prior_chars", pa.int64()),
    ("prev_role", pa.string()),
)


def _with_features(env: pa.Table, feats: pa.Table) -> pa.Table:
    """``env`` with the conv-state feature columns of ``feats``, aligned by
    ``seq`` via vectorized searchsorted (pyarrow join can't carry struct
    payload columns). A column ``env`` lacks is appended, with typed NULLs
    for the rows absent from ``feats`` (hot rows, left to the salted
    stages); one it has is patched, its other rows kept (the fixup)."""
    env_seq = env[SEQ_COL].combine_chunks().to_numpy(zero_copy_only=False)
    f_seq = feats[SEQ_COL].combine_chunks().to_numpy(zero_copy_only=False)
    hit = np.zeros(env_seq.size, dtype=bool)
    if f_seq.size:
        order = np.argsort(f_seq)
        idx = order[np.minimum(np.searchsorted(f_seq[order], env_seq), f_seq.size - 1)]
        hit = f_seq[idx] == env_seq
    for c, typ in _CSTATE_FEATURES:
        have = c in env.column_names
        col = env[c].combine_chunks().cast(typ) if have else pa.nulls(env_seq.size, typ)
        if hit.any():
            vals = pc.take(feats[c].combine_chunks().cast(typ), pa.array(idx, pa.int64()))
            col = pc.if_else(pa.array(hit), vals, col)
        env = env.set_column(env.column_names.index(c), c, col) if have else env.append_column(c, col)
    return env


def _key_state(derived: pa.Table, extra_names: tuple[str, ...]) -> pa.Table:
    """The row-mode state: the last derived row per key, stored log-shaped
    (seq −1, the after image; a deleted key keeps a tombstone role marker and
    NULL text). ``derived`` is key-contiguous in fold order, so the last row
    of a key is where the next row's key differs (vectorized mask)."""
    n = derived.num_rows
    conv = derived["conv_id"].combine_chunks()
    turn = derived["turn_idx"].combine_chunks()
    is_last = np.ones(n, dtype=bool)
    if n:
        is_last[:-1] = ~pc.and_(
            pc.equal(conv.slice(0, n - 1), conv.slice(1)),
            pc.equal(turn.slice(0, n - 1), turn.slice(1)),
        ).to_numpy(zero_copy_only=False)
    last = derived.filter(pa.array(is_last))
    cols = {
        "conv_id": last["conv_id"],
        "turn_idx": last["turn_idx"],
        "role": pc.if_else(
            pc.equal(last["op"], "d"),
            pa.scalar("__tombstone__"),
            last["after_role"].combine_chunks(),
        ),
        "text": last["after_text"],
        "tool": last["after_tool"],
    }
    for name in extra_names:
        cols[name] = last["after_" + name]
    cols["ts"] = last["ts"]  # event ts (tombstones too: keeps seed order)
    cols[SEQ_COL] = pa.array(np.full(last.num_rows, -1, dtype=np.int64))
    cols["shard"] = last["shard"]
    return pa.table(cols)


def _by_shard(t: pa.Table, shard: np.ndarray, shards: list[int], own: bool = False) -> dict[int, pa.Table]:
    """``t``'s rows by their shard (``shard``, one per row) into one table
    per shard of ``shards`` (ascending), row order kept inside each: slices
    of one ``take``, or with ``own`` a ``take`` of each shard's rows. A
    state table is split with ``own``: an IPC file written from a slice
    carries its parent's whole buffers, one written from a ``take`` only
    its own rows, in one record batch. One shard keeps ``t``, with ``own``
    in one chunk too (a copy only of a column in several), so a state
    file's bytes do not depend on which shards were folded with it."""
    if len(shards) == 1:
        return {shards[0]: t.combine_chunks() if own else t}
    order = np.argsort(shard, kind="stable")
    bounds = np.searchsorted(shard[order], [*shards, shards[-1] + 1])
    if own:
        return {s: t.take(pa.array(order[a:b], pa.int64())) for s, a, b in zip(shards, bounds, bounds[1:])}
    t = t.take(pa.array(order, pa.int64()))
    return {s: t.slice(a, b - a) for s, a, b in zip(shards, bounds, bounds[1:])}


def _shard_col(t: pa.Table) -> np.ndarray:
    return t["shard"].combine_chunks().to_numpy(zero_copy_only=False)


def _conform(shard: int, group: pa.Table, extras: tuple[tuple[str, str], ...]) -> tuple[pa.Table, bool]:
    """One shard's rows with their ``shard`` column, conformed to the
    batch's evolved schema, and with a deterministic ``seq`` where the log
    gave none; the flag says the seq was regenerated (it then numbers this
    shard's rows alone)."""
    if "shard" not in group.column_names:
        group = group.append_column("shard", pa.array(np.full(group.num_rows, shard, np.int32)))
    # schema evolution (reference ST4, ScyllaSchema.java:467-472): the driver
    # derives the batch's evolved value-column set from the file footers; every
    # shard conforms blocks, state seeds and the envelope to that one schema
    if extras:
        group = _with_extras(group, extras)
    if SEQ_COL in group.column_names and group[SEQ_COL].null_count:
        # schema promotion (some files lack seq) yields NULL seq values that
        # would be misread as state seeds — regenerate for the whole block
        group = group.drop_columns([SEQ_COL])
    if SEQ_COL in group.column_names:
        return group, False
    # DETERMINISTIC fallback seq from a full-column sort (ties = identical
    # rows, for which any order yields the same fold): the seq then depends
    # on the rows alone, not on how they reached the shard (flat or bucketed
    # layout, which files share the batch), and replays and existing
    # checkpoints see the seqs earlier runs derived.
    sortable = [
        (c, "ascending")
        for c in ("ts", "conv_id", "turn_idx", "role", "text", "tool", "op_kind", "row_ts")
        if c in group.column_names
    ]
    group = group.sort_by(sortable)
    return group.append_column(SEQ_COL, pa.array(range(group.num_rows), pa.int64())), True


def _passes(
    groups: dict[int, pa.Table], regenerated: dict[int, bool], priors: dict, cfg: EngineConfig
) -> list[tuple[list[int], pa.Table]]:
    """The shards of one fold call cut into passes of the key-local kernels,
    each ``(shards, rows)``. Keys never span shards, so the shards share one
    pass, except a shard whose pass would differ from the shared one: its
    seq was regenerated, the log is image-mode (each shard's straggler
    frontier), or it folds partition-delete markers (the conversation is
    the unit, and salting broadcasts markers to every shard). Under
    conv-state enrichment, which aligns features by seq, a log whose seqs
    repeat across shards folds each shard alone too."""

    def alone(s: int) -> bool:
        seed = priors[s].get("state")
        marked = groups[s]["turn_idx"].null_count or (seed is not None and seed["turn_idx"].null_count)
        return regenerated[s] or cfg.image_mode or bool(cfg.partition_deletes and marked)

    solo = [s for s in sorted(groups) if alone(s)]
    shared = [s for s in sorted(groups) if s not in solo]
    if len(shared) < 2:
        return [([s], groups[s]) for s in solo + shared]
    rows = pa.concat_tables([groups[s] for s in shared])
    if cfg.enrich_conv_state and pc.count_distinct(rows[SEQ_COL]).as_py() < rows.num_rows:
        solo, shared = solo + shared, []
    return [([s], groups[s]) for s in solo] + ([(shared, rows)] if shared else [])


def _shard_task(
    groups: dict[int, pa.Table],
    priors: dict[int, dict[str, pa.Table | None]],
    *,
    cfg: EngineConfig,
    prev_watermarks: dict[str, int],
    extras: tuple[tuple[str, str], ...] = (),
    hot_convs: frozenset[str] = frozenset(),
) -> dict[int, tuple[dict, dict, dict]]:
    """The capture fold over a set of shards: each shard's rows, in
    file-then-slice order, and its prior state tables (``state`` or
    ``imgstate``, ``cstate``, and the unsalted window kinds'
    ``wstate``/``sstate``/``sessstate``) → per shard ``(sinks, states,
    stats)``, with no file I/O of its own. Sinks are the envelope (``""``),
    the ``late/<kind>`` rows and the emitted windows; the salted window
    partials and the hot conversations' slim rows are blocks for the salted
    merge stages, named after the state kind that folds them.

    The key-local kernels run once per pass over the rows of all its
    shards (see :func:`_passes`; one pass in the common case); the steps
    that depend on the shard (watermarks, window folds, stats) use each
    row's ``shard``. Each shard's outputs equal those of folding it alone."""
    conformed, regenerated = {}, {}
    for s, g in groups.items():
        conformed[s], regenerated[s] = _conform(s, g, extras)
    out = {}
    for shards, rows in _passes(conformed, regenerated, priors, cfg):
        out.update(_fold_pass(shards, rows, priors, cfg, prev_watermarks, extras, hot_convs))
    return out


def _fold_pass(
    shards: list[int],
    group: pa.Table,
    priors: dict[int, dict[str, pa.Table | None]],
    cfg: EngineConfig,
    prev_watermarks: dict[str, int],
    extras: tuple[tuple[str, str], ...],
    hot_convs: frozenset[str],
) -> dict[int, tuple[dict, dict, dict]]:
    """One pass of :func:`_shard_task` over the conformed rows of
    ``shards`` (ascending, each shard's rows contiguous)."""
    sinks: dict[int, dict[str, pa.Table | None]] = {s: {} for s in shards}
    states: dict[int, dict[str, pa.Table]] = {s: {} for s in shards}
    extra_names = tuple(n for n, _ in extras)
    value_cols = ("role", "text", "tool", *extra_names, "ts")
    state_cols = [*_STATE_COLS[:5], *extra_names, *_STATE_COLS[5:]]

    # --- late-row metric vs each shard's watermark of the previous commit --
    at = np.searchsorted(shards, _shard_col(group))  # each row's index in shards
    wm_prev = [prev_watermarks.get(str(s)) for s in shards]
    thr = np.array(
        [np.iinfo(np.int64).min if w is None else w - cfg.allowed_lateness_us for w in wm_prev],
        dtype=np.int64,
    )
    late = pc.less(group["ts"].combine_chunks().cast(pa.int64()), pa.array(thr[at]))
    late = pc.fill_null(late, False).to_numpy(zero_copy_only=False)
    n_late = np.bincount(at[late], minlength=len(shards))

    n_stragglers = dict.fromkeys(shards, 0)
    if cfg.image_mode:
        # --- image-mode: correlate PRE/delta/POST; incomplete changes carry
        # over as residual state (reference ST1/ST3) — preimages travel in
        # the log, so there is no per-key state. One shard a pass. ----------
        from ..stages.correlate import correlate_images

        (shard,) = shards
        events_src, states[shard]["imgstate"], n_stragglers[shard] = correlate_images(
            group,
            straggler_timeout_us=cfg.straggler_timeout_us,
            carry=priors[shard]["imgstate"],
        )
    else:
        # --- row-mode: seed with checkpointed per-key state -----------------
        # Seeds must fold FIRST per key regardless of event time (arrival-order
        # semantics, like the reference consuming cdc\$time order): a late row
        # whose ts precedes the stored state would otherwise sort before the
        # seed and re-emit a spurious 'c'. We sort with an explicit
        # arrival-rank column (seed=0, batch=1) and hand derive_ops the
        # pre-sorted block. Keys never span shards, so one sort serves all.
        log = _pin_strings(group.select(state_cols))
        # state written before an evolution lacks the new columns → NULLs
        seeds = [
            _with_extras(priors[s]["state"], extras).select(state_cols)
            for s in shards
            if priors[s]["state"] is not None
        ]
        if seeds:
            log = pa.concat_tables([*seeds, log])

        arrival = (log[SEQ_COL].combine_chunks().to_numpy(zero_copy_only=False) >= 0).astype(
            "int8"
        )
        log = log.append_column("_arrival", pa.array(arrival))
        log = log.sort_by(
            [
                ("conv_id", "ascending"),
                ("turn_idx", "ascending"),
                ("_arrival", "ascending"),
                ("ts", "ascending"),
                (SEQ_COL, "ascending"),
            ]
        )

        if cfg.partition_deletes and log["turn_idx"].null_count:
            # streaming conversation tombstones (reference M2): markers in
            # this batch apply to everything folded before them — including
            # the checkpointed seeds. Expansion deletes become tombstone
            # state entries, so later rows see a wiped before-image. One
            # shard a pass.
            from ..stages.partition_delete import derive_flat_pd

            (shard,) = shards
            flat = derive_flat_pd(
                log, value_cols=value_cols, arrival_col="_arrival", full=True
            )
            flat = flat.append_column(
                "shard", pa.array([shard] * flat.num_rows, pa.int32())
            )

            if hot_convs and flat.num_rows:
                # markers were broadcast to every shard (a hot conversation's
                # turn-buckets span an unknown shard set) so each shard's keys
                # fold the wipe; the ``op='pd'`` record itself is emitted only
                # by the conversation's BASE shard — exactly-once like unsalted
                from ..schema import shard_of

                is_marker = pc.equal(flat["op"], "pd")
                if pc.any(is_marker).as_py():
                    home = pc.equal(
                        shard_of(flat["conv_id"], cfg.num_shards),
                        pa.scalar(shard, pa.int32()),
                    )
                    flat = flat.filter(pc.or_(pc.invert(is_marker), home))

            derived = flat.filter(pc.not_equal(flat["op"], "pd")).sort_by(
                [("conv_id", "ascending"), ("turn_idx", "ascending"), ("_foldpos", "ascending")]
            )
            events_src = flat.drop_columns(["_foldpos"])
        else:
            log = log.drop_columns(["_arrival"])
            derived = derive_ops(log, sorted_input=True, value_cols=value_cols)
            events_src = derived
        # --- roll state forward: last row per key ---------------------------
        key_state = _key_state(derived, extra_names)
        for s, t in _by_shard(key_state, _shard_col(key_state), shards, own=True).items():
            states[s]["state"] = t

    # --- emit change events for real rows only (drop seed re-derivations) --
    real = events_src.filter(pc.greater_equal(events_src[SEQ_COL], 0))
    env = build_envelope(real, cfg, value_cols=value_cols)

    if cfg.score_text:
        from ..functions.textops import quality_score

        scored = quality_score(
            real.select(["conv_id"]).append_column("text", real["after_text"]), "text"
        )
        for c in ("stat_chars", "stat_words", "stat_punct", "stat_stop", "quality"):
            env = env.append_column(c, scored[c])

    # --- persistent per-conversation state join (north_star join) ----------
    hot_slim = {}
    if cfg.enrich_conv_state:
        genrich = group
        if hot_convs:
            # hierarchical salted conv-state (north_star skew clause × the
            # stream-state join): this salted sub-shard enriches only its
            # NON-hot conversations; hot rows are slimmed to ~40 B/row
            # (conv_id, ts, seq, role, chars) and handed to the per-BASE-shard
            # merge stage (_merge_cstate), which owns the hot conversations'
            # cstate store and computes the prefix in global (ts, seq) order.
            # The envelope keeps typed NULLs here; the fixup stage
            # (_fixup_env) patches them before commit.
            from ..schema import shard_of

            conv_np = group["conv_id"].combine_chunks().to_numpy(zero_copy_only=False)
            hot_np = np.isin(conv_np, list(hot_convs))
            if hot_np.any():
                hot_rows = group.filter(pa.array(hot_np))
                slim = pa.table(
                    {
                        "conv_id": hot_rows["conv_id"].combine_chunks().cast(pa.string()),
                        "ts": hot_rows["ts"].combine_chunks(),
                        SEQ_COL: hot_rows[SEQ_COL].combine_chunks().cast(pa.int64()),
                        "role": hot_rows["role"].combine_chunks().cast(pa.string()),
                        "chars": pc.fill_null(
                            pc.utf8_length(hot_rows["text"].combine_chunks()), 0
                        ).cast(pa.int64()),
                        "sub_shard": hot_rows["shard"].combine_chunks().cast(pa.int32()),
                        "base_shard": shard_of(hot_rows["conv_id"], cfg.num_shards),
                    }
                )
                hot_slim = _by_shard(slim, _shard_col(hot_rows), shards)
                genrich = group.filter(pa.array(~hot_np))

        enriched, cstates = _enrich(genrich, shards, priors)
        env = _with_features(env, enriched)

    real_np = _shard_col(real)
    reals = _by_shard(real, real_np, shards)
    envs = _by_shard(env, real_np, shards)
    lag_stats = {s: _lag_stats(reals[s]) for s in shards}

    # --- watermark-gated window aggregation (north_star windows) -----------
    n_late_dropped = np.zeros(len(shards), dtype=np.int64)
    if real.num_rows:
        for kind in _window_kinds(cfg, salted=bool(hot_convs)):
            if isinstance(kind.core, Panes) and not kind.salted and len(shards) > 1:
                n_late_dropped += _pane_stage(
                    kind, real, np.searchsorted(shards, real_np), shards, cfg, prev_watermarks,
                    lag_stats, priors, sinks, states,
                )
                continue
            for i, s in enumerate(shards):
                n_late_dropped[i] += _window_stage(
                    kind, reals[s], s, cfg, prev_watermarks, priors[s], sinks[s], states[s]
                )
    out = {}
    for i, s in enumerate(shards):
        if cfg.enrich_conv_state:
            if s in hot_slim and hot_slim[s].num_rows:
                sinks[s]["cstate_hot"] = hot_slim[s]
            states[s]["cstate"] = cstates[s]
        sinks[s][""] = envs[s]
        out[s] = sinks[s], states[s], {
            "shard": s,
            "n_events": reals[s].num_rows,
            "n_late": int(n_late[i]),
            "n_late_dropped": int(n_late_dropped[i]),
            "n_stragglers": int(n_stragglers[s]),
            **lag_stats[s],
        }
    return out


def _enrich(genrich: pa.Table, shards: list[int], priors: dict) -> tuple[pa.Table, dict[int, pa.Table]]:
    """Conv-state enrichment of one pass: ``conv_state_prefix`` over the
    non-hot rows of every shard against their shards' ``cstate`` seeds.
    Returns the enriched rows and each shard's new ``cstate``. Conversations never span shards here, so each shard's
    new state is the rows of its conversations, in the order and with the
    column types the kernel gives one shard folded alone."""
    from ..stages.join import CONV_STATE_SCHEMA, conv_state_prefix

    seeds = [(s, priors[s]["cstate"]) for s in shards if priors[s]["cstate"] is not None]
    seed = pa.concat_tables([t for _, t in seeds], promote_options="permissive") if seeds else None
    enriched, new_state = conv_state_prefix(genrich, seed=seed)
    new_state = new_state.select(CONV_STATE_SCHEMA.names)
    if len(shards) == 1:
        return enriched, _by_shard(new_state, None, shards, own=True)
    # each state row's shard: its conversation's, from the rows or the seeds
    conv_type = new_state.schema.field("conv_id").type
    keys = [genrich["conv_id"].combine_chunks().cast(conv_type)]
    home = [_shard_col(genrich)]
    for s, t in seeds:
        keys.append(t["conv_id"].combine_chunks().cast(conv_type))
        home.append(np.full(t.num_rows, s, np.int32))
    home = np.concatenate(home)
    at = pc.index_in(new_state["conv_id"].combine_chunks(), value_set=pa.concat_arrays(keys))
    parts = _by_shard(new_state, home[at.to_numpy(zero_copy_only=False)], shards, own=True)
    # folded alone, a shard's state keeps the rows' string encodings unless
    # it had no non-hot rows or its seed carried a conversation forward: the
    # kernel then casts to CONV_STATE_SCHEMA (one pass casts all or none)
    rows_schema = pa.schema(
        [
            ("conv_id", genrich.schema.field("conv_id").type),
            ("n_turns", pa.int64()),
            ("n_chars", pa.int64()),
            ("last_role", genrich.schema.field("role").type),
            ("last_ts_us", pa.int64()),
        ]
    )
    if rows_schema != CONV_STATE_SCHEMA:
        convs = genrich["conv_id"].combine_chunks()
        seeded = dict(seeds)
        n_rows = np.bincount(np.searchsorted(shards, home[: genrich.num_rows]), minlength=len(shards))
        for i, s in enumerate(shards):
            seed_s = seeded.get(s)
            carried = seed_s is not None and seed_s.num_rows > 0 and not pc.all(
                pc.is_in(seed_s["conv_id"].cast(convs.type), value_set=convs)
            ).as_py()
            target = CONV_STATE_SCHEMA if carried or not n_rows[i] else rows_schema
            if parts[s].schema != target:
                parts[s] = parts[s].cast(target)
    return enriched, parts


def _lag_stats(real: pa.Table) -> dict:
    """One shard's newest event time and capture-latency distribution: how
    far behind the shard's batch frontier its events were when committed,
    p50/p95 of (max_ts − ts). A distribution, not a single batch-lag
    estimate: skewed shards show a long p95 even when the median is fresh.
    None for a shard without events."""
    if not real.num_rows:
        return {"max_ts_us": None, "lag_p50_us": None, "lag_p95_us": None}
    ts = real["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    max_ts = ts.max()
    p50, p95 = np.percentile(max_ts - ts, (50, 95))
    return {"max_ts_us": int(max_ts), "lag_p50_us": int(p50), "lag_p95_us": int(p95)}


def _route(
    b: pa.Table,
    *,
    num_shards: int,
    extras: tuple[tuple[str, str], ...],
    hot: frozenset[str],
    salt_chunk: int,
    salted_pd: bool,
) -> pa.Table:
    """Stage-1 route of a flat capture batch: conform one slice to the
    batch's schema, then append the ``shard`` column — ``hash(conv_id)``,
    or salted by turn bucket for the hot conversations."""
    # slices from files with/without seq (or predating an evolved column)
    # must share one schema; NULL seqs are regenerated per shard
    if SEQ_COL not in b.column_names:
        b = b.append_column(SEQ_COL, pa.nulls(b.num_rows, pa.int64()))
    if extras:
        # canonical column order: a pre-evolution slice appends the new
        # columns at the end, a post-evolution file may carry them mid-schema
        b = _with_extras(b, extras).select(
            ["conv_id", "turn_idx", "role", "text", "tool", "ts", SEQ_COL]
            + [n for n, _ in extras]
        )
    if not hot:
        return with_shard(b, num_shards)
    from ..stages.salt import with_salted_shard

    if salted_pd and b["turn_idx"].null_count:
        # conversation tombstones are CONTROL messages: a hot conversation's
        # turn-buckets span an unknown shard set (state from any earlier
        # batch), so the marker is broadcast to every shard — rare by
        # definition, O(shards) tiny rows. Each shard folds the wipe over its
        # own keys; only the base shard emits the 'pd' record (see
        # _shard_task's home filter).
        is_m = pc.is_null(b["turn_idx"])
        markers = b.filter(is_m)
        rows = with_salted_shard(b.filter(pc.invert(is_m)), num_shards, hot, salt_chunk)
        k = markers.num_rows
        rep = markers.take(
            pa.array(np.repeat(np.arange(k), num_shards), pa.int64())
        ).append_column("shard", pa.array(np.tile(np.arange(num_shards), k).astype("int32")))
        return pa.concat_tables([rows, rep.select(rows.column_names)])
    return with_salted_shard(b, num_shards, hot, salt_chunk)


def _conform_envelope_to(p: pa.Table, target: pa.StructType) -> pa.Table:
    """Widen one envelope table's before/after structs to ``target`` (NULL
    child arrays for evolved fields the table predates)."""
    for img in ("before", "after"):
        s = p[img].combine_chunks()
        if s.type == target:
            continue
        have = {f.name for f in s.type}
        children = [
            pc.struct_field(s, f.name) if f.name in have else pa.nulls(len(s), f.type)
            for f in target
        ]
        rebuilt = pa.StructArray.from_arrays(
            children, names=[f.name for f in target], mask=pc.is_null(s)
        )
        p = p.set_column(p.column_names.index(img), img, rebuilt)
    return p


def _envelope_widener(schemas: list[pa.Schema]):
    """Unify envelope tables written before/after a schema evolution: the
    widest before/after row struct wins; older parts get NULL child arrays for
    the evolved fields (the reference re-reads old records under the new
    schema the same way, ScyllaSchema.java:467-472). Returns the per-table
    widening function, or None when the schemas already agree."""
    if not schemas or any("before" not in s.names for s in schemas):
        return None
    types = [s.field("before").type for s in schemas]
    target = max(types, key=lambda t: t.num_fields)
    if all(t == target for t in types):
        return None
    return lambda p: _conform_envelope_to(p, target)


def _conform_envelopes(parts: list[pa.Table]) -> list[pa.Table]:
    widen = _envelope_widener([p.schema for p in parts])
    return [widen(p) for p in parts] if widen else parts


class _WindowKind(NamedTuple):
    """One watermark-gated window family of the capture runner."""

    name: str  # late/<name> side output
    out: str  # emitted windows dir
    state: str  # checkpoint state kind (and the name of its salted partials block)
    ns: str  # watermark namespace of its salted merge stage
    core: Panes | Sessions
    #: hot conversations' rows fold on their base shard (merge stage)
    salted: bool


def _window_kinds(cfg: EngineConfig, salted: bool) -> list[_WindowKind]:
    """The configured window kinds. Salting needs a conversation-keyed
    state: sessions always, tumbling panes keyed by ``conv_id``."""
    kinds = []
    if cfg.window_agg:
        size, keys = cfg.window_size_us, tuple(cfg.window_agg_keys)
        kinds.append(
            _WindowKind(
                "tumbling", "windows", "wstate", "win:",
                Panes(size, size, keys), salted and "conv_id" in keys,
            )
        )
    if cfg.sliding_window_us is not None:
        kinds.append(
            _WindowKind(
                "sliding", "windows_sliding", "sstate", "",
                Panes(*cfg.sliding_window_us), False,
            )
        )
    if cfg.session_gap_us is not None:
        kinds.append(
            _WindowKind(
                "session", "windows_session", "sessstate", "sess:",
                Sessions(cfg.session_gap_us), salted,
            )
        )
    return kinds


def _threshold(watermarks: dict, key: str, cfg: EngineConfig) -> int:
    """Finalization threshold ``watermark − allowed lateness`` of one
    watermark key; nothing is final before its first commit."""
    wm = watermarks.get(key)
    return wm - cfg.allowed_lateness_us if wm is not None else BEFORE_ALL


def _split_late(
    real: pa.Table, kind: _WindowKind, shard: int, cfg: EngineConfig, watermarks: dict
) -> tuple[pa.Table, pa.Table | None]:
    """Split the rows of ``real`` that ``kind`` finalized before this batch
    (``closes_us ≤ thr_prev``) off the on-time rows; None when none is
    late. ``thr_prev`` is the shard's own or — salted — each row's base
    shard's (``<ns><base>``): the merge stage emits, so its watermark
    defines lateness. (Reference analogue: the straggler drop + error log,
    ``ScyllaChangesConsumer.java:147-174``; late rows are kept, not lost.)"""
    ts = real["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    if kind.salted:
        from ..schema import shard_of

        base = shard_of(real["conv_id"], cfg.num_shards).to_numpy(zero_copy_only=False)
        thr_of = np.array(
            [_threshold(watermarks, f"{kind.ns}{b}", cfg) for b in range(cfg.num_shards)],
            dtype=np.int64,
        )
        thr_prev = thr_of[base]
    else:
        thr_prev = _threshold(watermarks, str(shard), cfg)
    late = kind.core.closes_us(ts) <= thr_prev
    if not late.any():
        return real, None
    return real.filter(pa.array(~late)), real.filter(pa.array(late))


def _windows_sink(emitted: pa.Table, shard: int) -> pa.Table | None:
    """Emitted windows with their ``shard`` column; None when none closed."""
    if not emitted.num_rows:
        return None
    return emitted.append_column("shard", pa.array([shard] * emitted.num_rows, pa.int32()))


def _fold_kind(
    kind: _WindowKind, partials: pa.Table, prior, shard: int, key: str, new_wm: int,
    watermarks: dict, cfg: EngineConfig,
) -> tuple[pa.Table | None, pa.Table]:
    """The per-kind step: fold the partials into the prior state between
    watermark ``key``'s previous threshold and ``new_wm``'s; returns the
    emitted windows sink and the new state. Deterministic on replay: the
    inputs are the batch's partials, the state of the previous COMMITTED
    batch and the manifest watermarks."""
    thr_prev = _threshold(watermarks, key, cfg)
    emitted, state = kind.core.fold(partials, prior, thr_prev, new_wm - cfg.allowed_lateness_us)
    return _windows_sink(emitted, shard), state


def _window_stage(
    kind: _WindowKind,
    real: pa.Table,
    shard: int,
    cfg: EngineConfig,
    watermarks: dict,
    priors: dict,
    sinks: dict,
    states: dict,
) -> int:
    """One window kind over one shard's change events, added to the shard
    fold's ``sinks``/``states``: late rows go to ``late/<kind>``, the rest
    are partial-aggregated and folded into the shard's state — or, salted,
    the partials (O(panes | sessions), not O(rows)) become the ``kind.state``
    block for the base shard's merge stage. Returns the late row count."""
    ontime, late = _split_late(real, kind, shard, cfg, watermarks)
    sinks[f"late/{kind.name}"] = late
    partials = kind.core.partials(ontime)
    if kind.salted:
        from ..schema import shard_of

        if partials.num_rows:
            base = shard_of(partials["conv_id"], cfg.num_shards)
            sinks[kind.state] = partials.append_column("base_shard", base)
    else:
        new_wm = max(watermarks.get(str(shard)) or 0, pc.max(real["ts"].cast(pa.int64())).as_py())
        sinks[kind.out], states[kind.state] = _fold_kind(
            kind, partials, priors[kind.state], shard, str(shard), new_wm, watermarks, cfg
        )
    return 0 if late is None else late.num_rows


def _pane_stage(
    kind: _WindowKind,
    real: pa.Table,
    at: np.ndarray,
    shards: list[int],
    cfg: EngineConfig,
    watermarks: dict,
    lag_stats: dict,
    priors: dict,
    sinks: dict,
    states: dict,
) -> np.ndarray:
    """:func:`_window_stage` of an unsalted pane kind (tumbling or sliding)
    for every shard of a pass at once: one late split, one partial
    aggregation and one pane fold, each shard's rows keyed and thresholded
    by their ``_slot`` (``at``, the row's index in ``shards``). Returns the
    late rows per shard. Against a loop of :func:`_window_stage` over the
    shards it saves about 0.7 ms per shard of the pass (one CPU; the whole
    fold of a 500-event batch over 12 shards took 18 ms with it, 26-28 ms
    with the loop)."""
    ts = real["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    thr_prev = np.array([_threshold(watermarks, str(s), cfg) for s in shards], dtype=np.int64)
    late = kind.core.closes_us(ts) <= thr_prev[at]
    slots = list(range(len(shards)))
    lates = _by_shard(real.filter(pa.array(late)), at[late], slots) if late.any() else {}
    ontime = real.filter(pa.array(~late)) if late.any() else real
    core = Panes(kind.core.size_us, kind.core.slide_us, ("_slot", *kind.core.keys))
    partials = core.partials(ontime.append_column("_slot", pa.array(at[~late], pa.int32())))
    prior = [
        t.append_column("_slot", pa.array(np.full(t.num_rows, i, np.int32)))
        for i, s in enumerate(shards)
        if (t := priors[s][kind.state]) is not None
    ]
    prior = pa.concat_tables(prior, promote_options="permissive") if prior else None
    new_wm = np.array(
        [max(watermarks.get(str(s)) or 0, lag_stats[s]["max_ts_us"]) for s in shards], dtype=np.int64
    )
    emitted, state = core.fold(partials, prior, thr_prev, new_wm - cfg.allowed_lateness_us, slot="_slot")
    emitted = _by_shard(emitted, _slots(emitted), slots)
    state = _by_shard(state, _slots(state), slots, own=True)
    n_late = np.bincount(at[late], minlength=len(shards))
    for i, s in enumerate(shards):
        sinks[s][f"late/{kind.name}"] = lates[i] if n_late[i] else None
        sinks[s][kind.out] = _windows_sink(emitted[i].drop_columns(["_slot"]), s)
        states[s][kind.state] = state[i].drop_columns(["_slot"])
    return n_late


def _slots(t: pa.Table) -> np.ndarray:
    return t["_slot"].combine_chunks().to_numpy(zero_copy_only=False)


def _merge_windows(
    base: int, partials: pa.Table, priors: dict, *, kind: _WindowKind, cfg: EngineConfig,
    watermarks: dict,
) -> tuple[dict, dict, dict]:
    """The salted merge fold of a window kind: the sub-shard partials of one
    BASE shard (``hash(conv_id) % num_shards``) folded into its state with
    the per-kind step. Its watermark lives in the kind's ``<ns><base>``
    namespace of the manifest and advances to the newest event of the
    partials."""
    key = f"{kind.ns}{base}"
    new_wm = max(watermarks.get(key) or 0, pc.max(partials[kind.core.last_ts]).as_py())
    out, state = _fold_kind(kind, partials, priors[kind.state], base, key, new_wm, watermarks, cfg)
    return {kind.out: out}, {kind.state: state}, {"base_shard": base, "max_ts_us": new_wm}


def _merge_cstate(base: int, slim: pa.Table, priors: dict) -> tuple[dict, dict, None]:
    """The salted conv-state merge fold: one BASE shard's slim hot rows
    (from every sub-shard) folded as an exclusive prefix in global (ts, seq)
    order against the hot conversations' own ``cstate_hot`` store. Returns
    the per-row features, with the SUB-shard that holds each envelope row,
    as the ``features`` block for the fixup stage."""
    from ..stages.join import CONV_STATE_SCHEMA, conv_state_prefix

    enriched, new_state = conv_state_prefix(slim, seed=priors["cstate_hot"])
    feats = enriched.select(["sub_shard", SEQ_COL, *[c for c, _ in _CSTATE_FEATURES]])
    return {"features": feats}, {"cstate_hot": new_state.select(CONV_STATE_SCHEMA.names)}, None


def _fixup_env(sub: int, feats: pa.Table, priors: dict, *, env_path: str) -> tuple[dict, dict, None]:
    """The salted conv-state fixup fold: the envelope the shard stage wrote
    for sub-shard ``sub`` (``env_path`` formatted with it), its hot rows'
    typed-NULL feature columns filled from the merge stage's features; the
    body writes it back in place (atomic temp + rename). Only sub-shards
    with hot rows are rewritten."""
    return {"": _with_features(pq.read_table(env_path.format(sub)), feats)}, {}, None


class CaptureRunner:
    """Checkpointed micro-batch CDC capture over an append-only log dir.

    One runner of the shared loop (:func:`._microbatch.run_microbatches`):
    it declares its pins, resolves the hot set and processes one batch
    (:meth:`_batch`); the loop owns the lock, the listing, the pin checks,
    the commit and the metrics file. Watermarks and the evolved-column set
    ride the manifest as runner state."""

    def __init__(
        self,
        log_dir: str,
        cfg: EngineConfig,
        out_dir: str | None = None,
        ckpt_dir: str | None = None,
    ):
        self.log_dir = log_dir
        self.cfg = cfg
        self.out_dir = out_dir or cfg.sink_dir
        self.ckpt = Checkpoint(ckpt_dir or cfg.checkpoint_dir)
        self._hot: frozenset[str] = frozenset()
        self._frontier_us: int | None = None
        self._last_batch_t0: float | None = None

    def pins(self) -> dict:
        """Replay identity, checked on resume. A different shard count,
        shard-hash backend (stable per polars version) or hot set would
        place keys on other shards and orphan their state — ≙ the
        reference's generation change: bump ``cfg.epoch`` and use a fresh
        sink/checkpoint dir."""
        return {
            "epoch": self.cfg.epoch,
            "num_shards": self.cfg.num_shards,
            "hash_impl": current_hash_impl(),
            "hot_convs": sorted(self._hot),
        }

    def run(
        self,
        max_batches: int | None = None,
        files_per_batch: int = 1,
        crash_before_commit_at: int | None = None,
        log_complete: bool = True,
        hot_convs: list[str] | None = None,
        auto_detect_hot: bool = False,
    ) -> dict:
        """Consume unconsumed log files; returns run totals.

        ``crash_before_commit_at=k``: simulate a hard kill after the k-th
        processed batch's data+state writes but BEFORE its manifest commit
        (the worst-case crash point for exactly-once).

        ``log_complete=False`` (live tail): stop at a concurrent writer's
        in-flight file and hold back the confidence window.

        ``auto_detect_hot``: on a FRESH start over an unpartitioned log,
        pre-scan the first batch's ``conv_id`` column (single-column read)
        and salt conversations exceeding ``cfg.hot_key_threshold`` rows.

        ``hot_convs``: conversations to salt across sub-shards (north_star
        skew clause). A pin (see :meth:`pins`): FIXED for the epoch, and
        adopted from the checkpoint when not given. Only meaningful for the
        unpartitioned (shuffle) log layout — a pre-bucketed log fixed its
        placement at write time.
        """
        self._prepare(hot_convs, auto_detect_hot, files_per_batch)
        totals = run_microbatches(
            self.ckpt,
            self.log_dir,
            files_per_batch=files_per_batch,
            max_batches=max_batches,
            crash_before_commit_at=crash_before_commit_at,
            tail=not log_complete,
            **self._loop_kw(),
        )
        return self._totals(totals)

    def follow(
        self,
        poll_interval_s: float = 0.5,
        idle_polls: int = 10,
        files_per_batch: int = 1,
    ) -> dict:
        """Live tailing (≙ the reference's continuous worker loop with
        ``poll.interval.ms``): repeatedly consume new log files, holding
        back the confidence window, until ``idle_polls`` consecutive polls
        find nothing new. Resumable like any run."""
        self._prepare(None, False, files_per_batch)
        totals = follow_microbatches(
            self.ckpt,
            self.log_dir,
            poll_interval_s=poll_interval_s,
            idle_polls=idle_polls,
            files_per_batch=files_per_batch,
            **self._loop_kw(),
        )
        return self._totals(totals)

    def _prepare(self, hot_convs, auto_detect_hot: bool, files_per_batch: int) -> None:
        """Config checks and hot-set resolution, before the loop."""
        # config combinations the data plane cannot compute correctly
        if self.cfg.image_mode and self.cfg.enrich_conv_state:
            raise ValueError(
                "image_mode treats each PRE/delta/POST row as a physical row; "
                "conv-state enrichment would triple-count turns — disable one"
            )
        if self.cfg.partition_deletes and self.cfg.image_mode:
            raise ValueError(
                "partition_deletes needs the row-mode state store; image_mode "
                "correlates preimages instead — disable one"
            )
        if self.cfg.partition_deletes and self.cfg.enrich_conv_state:
            raise ValueError(
                "partition_deletes synthesizes expansion deletes that share the "
                "marker's seq; conv-state enrichment aligns by seq — disable one"
            )
        recorded = recorded_pins(self.ckpt)
        if hot_convs is None and recorded is not None:
            hot_convs = recorded.get("hot_convs", [])
        elif hot_convs is None and auto_detect_hot and not windowed.is_bucketed(self.log_dir):
            # fresh start: cheap pre-scan of the FIRST batch's conv_id column
            # (footer-pruned read, one column) to pick the hot set BEFORE any
            # state is placed — detection after batch 0 would orphan keys
            hot_convs = self._detect_hot_first_batch(files_per_batch)
        self._hot = frozenset(hot_convs or [])

    def _loop_kw(self) -> dict:
        return {
            "pins": self.pins(),
            "process_batch": self._batch,
            "confidence_window_us": self.cfg.confidence_window_us,
            "initial_lookback_us": self.cfg.initial_lookback_us,
            "on_listing": self._on_listing,
        }

    def _on_listing(self, units: list) -> None:
        # newest event in the log, for the catch-up lag metric
        known = [u.max_ts_us for u in units if u.max_ts_us is not None]
        self._frontier_us = max(known) if known else None

    @staticmethod
    def _totals(loop: dict) -> dict:
        """Run totals: batches, events, late; late_dropped once a batch
        ran; polls for a tail; crashed for a simulated crash."""
        out = {k: loop.get(k, 0) for k in ("batches", "events", "late")}
        out.update({k: loop[k] for k in ("late_dropped", "polls") if k in loop})
        if loop["crashed"]:
            out["crashed"] = True
        return out

    def _throttle(self) -> None:
        """Reader throttle (≙ scylla.minimal.wait.for.window.size.ms): pace
        consecutive batches to at least the configured interval. The
        timestamp lives on the runner so pacing spans run() calls —
        follow() consumes one batch per poll, the exact continuous-reader
        scenario the throttle targets."""
        if self.cfg.min_batch_interval_s <= 0:
            return
        if self._last_batch_t0 is not None:
            elapsed = time.perf_counter() - self._last_batch_t0
            if elapsed < self.cfg.min_batch_interval_s:
                time.sleep(self.cfg.min_batch_interval_s - elapsed)
        self._last_batch_t0 = time.perf_counter()

    def _evolve(self, extras: dict[str, str], probe: list[str]) -> dict[str, str]:
        """Schema evolution (ST4): union the batch's file footers into the
        sticky evolved-column set — once a column appears it stays (its
        values live in checkpointed state), and every shard of a batch sees
        the SAME schema, like the reference's per-generation schema
        recompute (ScyllaSchema.java:467-472)."""
        from ..schema import detect_evolved_cols

        allow = self.cfg.evolved_col_allowlist
        for p in probe:
            for name, type_str in detect_evolved_cols(pq.read_schema(p)).items():
                if allow is not None and name not in allow:
                    continue  # stray/metadata column: never adopt silently
                if name not in extras and len(extras) >= self.cfg.max_evolved_cols:
                    raise ValueError(
                        f"log file {p} would adopt evolved column {name!r} "
                        f"beyond max_evolved_cols={self.cfg.max_evolved_cols}; "
                        "adoption is sticky (manifest) — set "
                        "evolved_col_allowlist to the intended columns or "
                        "raise max_evolved_cols"
                    )
                extras.setdefault(name, type_str)
        return extras

    def _batch(self, batch_id: int, units: list) -> BatchResult:
        """One micro-batch for the loop: the shard stage over the batch's
        files (flat paths) or windows (bucketed), then the salted merge
        stages. Watermarks and evolved columns continue from the last
        committed manifest, so a replayed batch sees exactly the state its
        crashed attempt saw."""
        self._throttle()
        t0 = time.perf_counter()
        last = self.ckpt.last_committed()
        watermarks: dict[str, int] = dict(last["watermarks"]) if last else {}
        bucketed = isinstance(units[0], windowed.LogWindow)
        # bucketed windows share one schema; probe one footer per window
        probe = [next(iter(u.paths.values())) for u in units] if bucketed else units
        extras = self._evolve(dict(last.get("value_cols_extra", {})) if last else {}, probe)
        ext = tuple(sorted(extras.items()))
        inputs: list[str] | dict[int, list[str]] = units
        if bucketed:
            inputs = {}
            for u in units:
                for k, p in u.paths.items():
                    inputs.setdefault(k, []).append(p)
        shards, blocks = self._process_batch(batch_id, inputs, watermarks, ext)
        stats = [r["stats"] for r in shards if r["stats"] is not None]
        for row in stats:
            if row["max_ts_us"] is not None:
                k = str(row["shard"])
                watermarks[k] = max(watermarks.get(k, 0), row["max_ts_us"])
        for kind in _window_kinds(self.cfg, salted=bool(self._hot)):
            if kind.salted:
                # hierarchical salted windows: the merge stage runs inside
                # the batch so its state/emissions replay with it
                for row in self._merge_partials(kind, batch_id, watermarks, blocks.get(kind.state)):
                    k = f"{kind.ns}{row['base_shard']}"
                    watermarks[k] = max(watermarks.get(k, 0), row["max_ts_us"])
        if self._hot and self.cfg.enrich_conv_state:
            # hierarchical salted conv-state: slim-row merge per base shard,
            # then the envelope fixup — a replayed batch regenerates both
            # byte-stable
            self._merge_cstate_partials(batch_id, blocks.get("cstate_hot"))
        events = sum(r["n_events"] for r in stats)
        sec = time.perf_counter() - t0
        wm_max = max(watermarks.values()) if watermarks else None
        return BatchResult(
            stats={
                "events": events,
                "late": sum(r["n_late"] for r in stats),
                "late_dropped": sum(r["n_late_dropped"] for r in stats),
                "stragglers": sum(r["n_stragglers"] for r in stats),
            },
            manifest={"watermarks": watermarks, "value_cols_extra": dict(sorted(extras.items()))},
            metrics={
                "shards_active": len(stats),
                "events_per_sec": round(events / max(sec, 1e-9), 1),
                "watermark_min_us": min(watermarks.values()) if watermarks else None,
                "watermark_max_us": wm_max,
                # worst-shard capture-latency distribution (event time)
                "capture_lag_p50_us": max(
                    (r["lag_p50_us"] for r in stats if r["lag_p50_us"] is not None),
                    default=None,
                ),
                "capture_lag_p95_us": max(
                    (r["lag_p95_us"] for r in stats if r["lag_p95_us"] is not None),
                    default=None,
                ),
                # catch-up lag: newest event available in the log vs newest
                # event consumed (event-time capture latency proxy)
                "frontier_lag_us": (
                    self._frontier_us - wm_max
                    if self._frontier_us is not None and wm_max is not None
                    else None
                ),
                **exchange_metrics(shards),
            },
        )

    def _detect_hot_first_batch(self, files_per_batch: int) -> list[str]:
        from collections import Counter

        counts: Counter = Counter()
        for f in windowed.discover(self.log_dir)[:files_per_batch]:
            t = pq.read_table(f.path, columns=["conv_id"])
            vc = pc.value_counts(t["conv_id"].combine_chunks())
            for rec in vc.to_pylist():
                counts[rec["values"]] += rec["counts"]
        return sorted(c for c, n in counts.items() if n >= self.cfg.hot_key_threshold)

    def _process_batch(
        self,
        batch_id: int,
        inputs: list[str] | dict[int, list[str]],
        watermarks: dict,
        extras: tuple[tuple[str, str], ...] = (),
    ) -> tuple[list[dict], dict[str, list]]:
        """The shard stage: :func:`_shard_task` over the keyed exchange, one
        call per stage-2 task (every shard of a one-task batch at once).
        Returns the per-shard metrics, one per partition, and the refs of
        the blocks the shards returned for the salted merge stages, by name.
        A flat batch (file paths) is routed by :func:`_route`; a bucketed one
        (``{shard: [paths]}``, placement fixed at write time) skips stage 1
        and each shard's task reads only its own files — the analogue of a
        reference task SELECTing only its streams."""
        cfg, route = self.cfg, None
        # salting re-places rows of the flat layout only: a bucketed log
        # fixed placement at write time
        hot = frozenset() if isinstance(inputs, dict) else self._hot
        if not isinstance(inputs, dict):
            route = functools.partial(
                _route,
                num_shards=cfg.num_shards,
                extras=extras,
                hot=hot,
                salt_chunk=max(1, cfg.hot_key_threshold // cfg.salt_factor),
                salted_pd=bool(hot) and cfg.partition_deletes,
            )
        kinds = ["imgstate" if cfg.image_mode else "state"]
        kinds += ["cstate"] if cfg.enrich_conv_state else []
        blocks = ["cstate_hot"] if hot and cfg.enrich_conv_state else []
        for kind in _window_kinds(cfg, salted=bool(hot)):
            (blocks if kind.salted else kinds).append(kind.state)
        fold = functools.partial(
            _shard_task, cfg=cfg, prev_watermarks=dict(watermarks), extras=extras, hot_convs=hot
        )
        return self._stage(batch_id, inputs, fold, "shard", kinds, blocks, route=route)

    def _stage(
        self, batch_id: int, inputs: list | dict[int, list[str]] | None, fold, key: str,
        kinds: list[str] = (), blocks: list[str] = (), route=None,
    ) -> tuple[list[dict], dict[str, list]]:
        """One stage of a batch on the keyed exchange, partitioned by ``key``
        into ``num_shards`` partitions, with the load-fold-write body writing
        sinks under ``out_dir`` as ``shard=S.parquet``: the partitions'
        metrics and block refs (see :func:`._microbatch.gather`); nothing
        runs for a stage without inputs."""
        if not inputs:
            return [], {}
        refs = exchange(
            inputs, fold, self.cfg.num_shards, batch_id=batch_id, ckpt_dir=self.ckpt.dir,
            sink_dir=self.out_dir, kinds=tuple(kinds), blocks=tuple(blocks), name="shard={}",
            route=route, shard_col=key,
        )
        return gather(refs, tuple(blocks))

    def _merge_partials(self, kind: _WindowKind, batch_id: int, watermarks: dict, refs) -> list[dict]:
        """Stage 2 of a hierarchical salted window kind: the sub-shards'
        partials blocks, keyed by ``base_shard``, through :func:`_merge_windows`.
        The exchange moves O(panes | sessions) rows, not O(rows) — the
        streaming analogue of :func:`..stages.windows.session_salted`'s second
        stage. Returns each base shard's new watermark."""
        fold = functools.partial(_merge_windows, kind=kind, cfg=self.cfg, watermarks=dict(watermarks))
        shards, _ = self._stage(batch_id, refs, each_partition(fold), "base_shard", [kind.state])
        return [s["stats"] for s in shards if s["stats"] is not None]

    def _merge_cstate_partials(self, batch_id: int, refs) -> None:
        """Stages 2 and 3 of the hierarchical salted conv-state path: the
        sub-shards' slim hot rows, keyed by ``base_shard``, through
        :func:`_merge_cstate`; then its features, keyed by ``sub_shard``,
        through :func:`_fixup_env`. The exchange moves the slim projection
        only (~40 B/row vs the full text-bearing envelope) — the streaming
        analogue of :func:`..stages.join.conv_state_features`'s pre-shuffle
        slimming."""
        _, feats = self._stage(
            batch_id, refs, each_partition(_merge_cstate), "base_shard", ["cstate_hot"], ["features"]
        )
        env_path = os.path.join(self.out_dir, f"batch-{batch_id:06d}", "shard={}.parquet")
        fixup = functools.partial(_fixup_env, env_path=env_path)
        self._stage(batch_id, feats.get("features"), each_partition(fixup), "sub_shard")

    def flush_windows(self) -> None:
        """End-of-log flush: once the (complete) log is fully consumed, emit
        every residual tumbling pane / sliding window / open session — the
        batch-mode equivalent of the watermark advancing to +∞: each window
        kind's fold runs over each shard's committed state at ``thr`` = +∞.

        Idempotent under resumed consumption: every ``final/`` directory is
        rebuilt from the CURRENT residual state on each flush, so a pane that
        was flushed as a residual and later re-emitted into a ``batch-K/``
        file (because more log arrived and the watermark passed it) never
        survives as a stale duplicate ``final/`` copy — even when the shard's
        new residual is empty.

        Crash-atomic: the rebuild writes into a temp sibling OUTSIDE the kind
        tree and is swapped in with ``os.rename`` at the end — a crash
        mid-flush leaves the previous ``final/`` intact, never a partial one
        (and readers never see the temp)."""
        last = self.ckpt.last_committed()
        if last is None:
            return
        kinds = _window_kinds(self.cfg, salted=bool(last.get("hot_convs")))
        tmp_root = os.path.join(self.out_dir, ".final_tmp")
        old_root = os.path.join(self.out_dir, ".final_old")
        shutil.rmtree(tmp_root, ignore_errors=True)  # leftovers from a crash
        shutil.rmtree(old_root, ignore_errors=True)
        nb = last["batch_id"] + 1
        wms = last.get("watermarks", {})
        for kind in kinds:
            for shard in self.ckpt.state_shards(kind.state):
                state = self.ckpt.load_state(shard, nb, kind=kind.state)
                if state is None:
                    continue
                # the state holds what the last fold kept: fold it as the
                # partials of an empty state with the threshold at +∞
                key = f"{kind.ns}{shard}" if kind.salted else str(shard)
                emitted, _ = kind.core.fold(state, None, _threshold(wms, key, self.cfg), AFTER_ALL)
                out = _windows_sink(emitted, shard)
                if out is not None:
                    write_table_atomic(out, os.path.join(tmp_root, kind.out, f"shard={shard}.parquet"))

        # swap the rebuilt final/ dirs in: previous finals survive any crash
        # up to here; the rename pair is the only non-atomic window and it
        # leaves recoverable dirs, never a partial final/
        for kind in kinds:
            tmp = os.path.join(tmp_root, kind.out)
            final = os.path.join(self.out_dir, kind.out, "final")
            if os.path.isdir(final):
                os.makedirs(old_root, exist_ok=True)
                os.rename(final, os.path.join(old_root, kind.out))
            if os.path.isdir(tmp):
                os.makedirs(os.path.dirname(final), exist_ok=True)
                os.rename(tmp, final)
        shutil.rmtree(tmp_root, ignore_errors=True)
        shutil.rmtree(old_root, ignore_errors=True)

    def read_current_state(self) -> pa.Table:
        """The compacted current-state table — a free byproduct of the
        checkpoint: the per-shard key-state files ARE the materialized view
        of the changelog (live keys only; tombstoned keys drop out). The
        streaming twin of ``pipelines.capture.compaction``."""
        parts = [
            t.filter(pc.is_valid(t["text"]))  # drop tombstones
            .select(["conv_id", "turn_idx", "role", "text", "tool", "ts"])
            for t in read_committed_state(self.ckpt, "state")
        ]
        return pa.concat_tables(parts) if parts else pa.table({})

    # --- output inspection (tests / small results only) --------------------

    def read_windows(self, kind: str = "windows") -> pa.Table:
        """Windows emitted by COMMITTED batches, then the last flush's
        ``final/``. kind: "windows" (tumbling) | "windows_sliding" |
        "windows_session"."""
        root = os.path.join(self.out_dir, kind)
        final = os.path.join(root, "final")
        paths = committed_sink_files(self.ckpt, root)
        if os.path.isdir(final):
            paths += [os.path.join(final, f) for f in sorted(os.listdir(final)) if f.endswith(".parquet")]
        if not paths:
            cols = [("window_start_us", pa.int64()), ("n_events", pa.int64()), ("n_chars", pa.int64())]
            return pa.schema([*cols, ("shard", pa.int32())]).empty_table()
        # windows written before and after an encoding change (string keys
        # as large_string) concatenate as large_string
        return pa.concat_tables([pq.read_table(p) for p in paths], promote_options="permissive")

    def read_late(self) -> pa.Table:
        """Late rows of COMMITTED batches, every window kind."""
        root = os.path.join(self.out_dir, "late")
        kinds = sorted(os.listdir(root)) if os.path.isdir(root) else []
        parts = [
            pq.read_table(p)
            for k in kinds
            for p in committed_sink_files(self.ckpt, os.path.join(root, k))
        ]
        return pa.concat_tables(parts, promote_options="permissive") if parts else pa.table({})

    def read_output_ds(self) -> "ray.data.Dataset":
        """Dataset-returning twin of :meth:`read_output` for large outputs:
        streams the committed ``batch-*/`` parquet instead of concatenating
        on the driver. Schema evolution is handled by probing footers once
        (cheap) and widening each block to the widest envelope struct
        inside ``map_batches``."""
        return read_committed_output_ds(self.ckpt, self.out_dir, _envelope_widener)

    def read_output(self) -> pa.Table:
        """Change-event output of COMMITTED batches only (``batch-*/`` dirs;
        windows/ and late/ side outputs have their own readers); empty
        before the first commit. Driver-side concat — tests and small
        results; large outputs should use :meth:`read_output_ds`."""
        return read_committed_output(self.ckpt, self.out_dir, _conform_envelopes)
