"""Streaming sliding- and session-window aggregation state for the runner
(north_star: tumbling/sliding/session windows + watermarks; tumbling panes
live in ``runner._window_panes``).

Emission contracts (all deterministic under replay — inputs are the batch
rows, the previous COMMITTED state, and the previous committed watermark):

* **sliding** (size W, slide S): rows partial-aggregate into slide-grained
  panes (stream-slicing); a window ``[ws, ws+W)`` is emitted in the batch
  where the finalization threshold ``thr = watermark − lateness`` first
  passes ``ws+W`` (``thr_prev < ws+W ≤ thr_new``), summing its covering
  panes; a pane is dropped once ``pane+W ≤ thr`` (its last window emitted).
  Rows whose *latest* window is already emitted route to the late output.

* **session** (gap G): unemitted sessions live in state as intervals; each
  batch merges carried intervals + new batch sessions with a full per-conv
  interval sweep (an out-of-order on-time row can BRIDGE two previously
  separate sessions). A session is emitted once ``last_ts + G ≤ thr`` — no
  on-time row can extend it afterwards (an on-time row in a later batch has
  ``ts > thr``). Rows with ``ts ≤ thr_prev`` route to the late output.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import EngineConfig
from ..state.checkpoint import Checkpoint, write_table_atomic

_PANE_COLS = ["window_start_us", "n_events", "n_chars"]
SESSION_COLS = ["conv_id", "session_start_us", "session_end_us", "n_turns", "n_chars"]


def _write_late(rows: pa.Table, out_dir: str, kind: str, batch_id: int, shard: int) -> None:
    write_table_atomic(
        rows,
        os.path.join(out_dir, "late", kind, f"batch-{batch_id:06d}", f"shard={shard}.parquet"),
    )


def _chars(t: pa.Table, col: str = "after_text") -> np.ndarray:
    return (
        pc.fill_null(pc.utf8_length(t[col].combine_chunks()), 0)
        .cast(pa.int64())
        .to_numpy(zero_copy_only=False)
    )


def sliding_panes(
    real: pa.Table,
    shard: int,
    batch_id: int,
    cfg: EngineConfig,
    ckpt: Checkpoint,
    out_dir: str,
    wm_prev: int | None,
    size_us: int,
    slide_us: int,
) -> int:
    """Returns late-dropped row count; emits finalized sliding windows to
    ``out_dir/windows_sliding/batch-K/shard=S.parquet``."""
    ts = real["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    pane = ts - (ts % slide_us)
    thr_prev = (wm_prev - cfg.allowed_lateness_us) if wm_prev is not None else None

    # a row's LATEST covering window is [pane, pane+W)
    late_mask = (
        (pane + size_us <= thr_prev) if thr_prev is not None else np.zeros(len(ts), dtype=bool)
    )
    n_late = int(late_mask.sum())
    if n_late:
        _write_late(real.filter(pa.array(late_mask)), out_dir, "sliding", batch_id, shard)

    ontime = real.filter(pa.array(~late_mask)) if n_late else real
    pane_ok = pane[~late_mask]
    from ..schema import select_agg

    pane_renames = [("n_events_sum", "n_events"), ("n_chars_sum", "n_chars")]
    partial = select_agg(
        pa.table(
            {
                "window_start_us": pa.array(pane_ok, pa.int64()),
                "n_events": pa.array(np.ones(len(pane_ok), dtype=np.int64)),
                "n_chars": pa.array(_chars(ontime), pa.int64()),
            }
        )
        .group_by(["window_start_us"])
        .aggregate([("n_events", "sum"), ("n_chars", "sum")]),
        ["window_start_us"],
        pane_renames,
    )
    seed_path = ckpt.latest_state_path(shard, batch_id, kind="sstate")
    if seed_path is not None:
        partial = select_agg(
            pa.concat_tables([pq.read_table(seed_path).select(_PANE_COLS), partial])
            .group_by(["window_start_us"])
            .aggregate([("n_events", "sum"), ("n_chars", "sum")]),
            ["window_start_us"],
            pane_renames,
        )

    new_wm = max(wm_prev or 0, int(ts.max())) if len(ts) else (wm_prev or 0)
    thr = new_wm - cfg.allowed_lateness_us
    emitted = _emit_sliding(partial, size_us, slide_us, thr_prev, thr)
    if emitted.num_rows:
        emitted = emitted.append_column("shard", pa.array([shard] * emitted.num_rows, pa.int32()))
        write_table_atomic(
            emitted,
            os.path.join(out_dir, "windows_sliding", f"batch-{batch_id:06d}", f"shard={shard}.parquet"),
        )
    # GC panes whose last window has been emitted
    p = partial["window_start_us"].to_numpy(zero_copy_only=False)
    keep = p + size_us > thr
    ckpt.write_state(shard, batch_id, partial.filter(pa.array(keep)), kind="sstate")
    return n_late


def _emit_sliding(
    panes: pa.Table, size_us: int, slide_us: int, thr_prev: int | None, thr: int
) -> pa.Table:
    """Windows with thr_prev < end ≤ thr, summed from their covering panes."""
    if panes.num_rows == 0:
        return panes
    p = panes["window_start_us"].to_numpy(zero_copy_only=False)
    ne = panes["n_events"].to_numpy(zero_copy_only=False)
    nc = panes["n_chars"].to_numpy(zero_copy_only=False)
    k = size_us // slide_us
    ws_all, ne_all, nc_all = [], [], []
    for i in range(k):
        ws_all.append(p - i * slide_us)
        ne_all.append(ne)
        nc_all.append(nc)
    ws = np.concatenate(ws_all)
    sel = (ws + size_us <= thr) & ((thr_prev is None) | (ws + size_us > (thr_prev if thr_prev is not None else -(2**62))))
    if not sel.any():
        return panes.slice(0, 0)
    df = pd.DataFrame(
        {
            "window_start_us": ws[sel],
            "n_events": np.concatenate(ne_all)[sel],
            "n_chars": np.concatenate(nc_all)[sel],
        }
    )
    out = df.groupby("window_start_us", as_index=False).sum().sort_values("window_start_us")
    return pa.Table.from_pandas(out, preserve_index=False)


def session_state(
    real: pa.Table,
    shard: int,
    batch_id: int,
    cfg: EngineConfig,
    ckpt: Checkpoint,
    out_dir: str,
    wm_prev: int | None,
    gap_us: int,
) -> int:
    """Session windows per conv with watermark-gated emission. Returns the
    late-dropped row count; emits closed sessions to
    ``out_dir/windows_session/batch-K/shard=S.parquet``."""
    ts_all = real["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    thr_prev = (wm_prev - cfg.allowed_lateness_us) if wm_prev is not None else None
    late_mask = (ts_all <= thr_prev) if thr_prev is not None else np.zeros(len(ts_all), dtype=bool)
    n_late = int(late_mask.sum())
    if n_late:
        _write_late(real.filter(pa.array(late_mask)), out_dir, "session", batch_id, shard)
    ontime = real.filter(pa.array(~late_mask)) if n_late else real
    sessions = batch_session_intervals(ontime, gap_us)
    new_wm = max(wm_prev or 0, int(ts_all.max())) if len(ts_all) else (wm_prev or 0)
    merge_and_emit_sessions(
        sessions, shard, batch_id, cfg, ckpt, out_dir, new_wm, gap_us
    )
    return n_late


def batch_session_intervals(ontime: pa.Table, gap_us: int) -> pd.DataFrame:
    """This batch's sessions per conv (vectorized islands on the sorted
    block) — SESSION_COLS-shaped partial intervals."""
    t = ontime.sort_by([("conv_id", "ascending"), ("ts", "ascending")])
    n = t.num_rows
    if not n:
        return pd.DataFrame(columns=SESSION_COLS)
    conv = t["conv_id"].combine_chunks().to_numpy(zero_copy_only=False)
    ts = t["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    chars = _chars(t)
    new_conv = np.ones(n, dtype=bool)
    new_conv[1:] = conv[1:] != conv[:-1]
    brk = np.ones(n, dtype=bool)
    brk[1:] = (ts[1:] - ts[:-1]) > gap_us
    start = new_conv | brk
    idx = np.flatnonzero(start)
    ends = np.append(idx[1:] - 1, n - 1)
    counts = np.diff(np.append(idx, n))
    csum = np.concatenate([[0], np.cumsum(chars)])
    return pd.DataFrame(
        {
            "conv_id": conv[idx],
            "session_start_us": ts[idx],
            "session_end_us": ts[ends],
            "n_turns": counts,
            "n_chars": csum[ends + 1] - csum[idx],
        }
    )


def merge_and_emit_sessions(
    sessions: pd.DataFrame,
    shard: int,
    batch_id: int,
    cfg: EngineConfig,
    ckpt: Checkpoint,
    out_dir: str,
    new_wm: int,
    gap_us: int,
) -> None:
    """Merge carried sessions with this batch's partial sessions by a full
    interval sweep per conv (an on-time out-of-order row — or, in the salted
    hierarchical path, a sub-shard partial — can BRIDGE two previously
    separate sessions, so pairwise last-session merging is not enough), then
    emit sessions closed by the new watermark and persist the rest."""
    from ..stages.windows import merge_session_intervals

    seed_path = ckpt.latest_state_path(shard, batch_id, kind="sessstate")
    carried = (
        pq.read_table(seed_path).to_pandas() if seed_path is not None else pd.DataFrame(columns=SESSION_COLS)
    )
    candidates = pd.concat([carried, sessions], ignore_index=True)
    if len(candidates):
        candidates = merge_session_intervals(candidates, gap_us)[SESSION_COLS]

    thr = new_wm - cfg.allowed_lateness_us
    if len(candidates):
        emit_mask = (candidates["session_end_us"] + gap_us <= thr).values
        emitted = candidates[emit_mask].sort_values(["conv_id", "session_start_us"])
        remaining = candidates[~emit_mask]
    else:
        emitted = candidates
        remaining = candidates
    if len(emitted):
        out = pa.Table.from_pandas(emitted[SESSION_COLS], preserve_index=False).append_column(
            "shard", pa.array([shard] * len(emitted), pa.int32())
        )
        write_table_atomic(
            out,
            os.path.join(out_dir, "windows_session", f"batch-{batch_id:06d}", f"shard={shard}.parquet"),
        )
    ckpt.write_state(
        shard,
        batch_id,
        pa.Table.from_pandas(remaining[SESSION_COLS], preserve_index=False)
        if len(remaining)
        else pa.Table.from_pandas(pd.DataFrame(columns=SESSION_COLS)).cast(
            pa.schema(
                [
                    ("conv_id", pa.string()),
                    ("session_start_us", pa.int64()),
                    ("session_end_us", pa.int64()),
                    ("n_turns", pa.int64()),
                    ("n_chars", pa.int64()),
                ]
            )
        ),
        kind="sessstate",
    )


def session_partials(
    real: pa.Table,
    shard: int,
    batch_id: int,
    cfg: EngineConfig,
    out_dir: str,
    prev_watermarks: dict[str, int],
    gap_us: int,
) -> int:
    """Stage 1 of the hierarchical salted-session path (north_star skew
    clause composed with a conversation-level stateful stage): this salted
    sub-shard computes *partial* session intervals over its row subset and
    hands them — O(sessions), not O(rows) — to the per-conversation merge
    stage (:meth:`..pipelines.runner.CaptureRunner._merge_session_partials`).

    Late routing is against the BASE shard's session watermark
    (``sess:<base>`` namespace): emission decisions live in the merge stage,
    so its watermark is the one that defines lateness."""
    import numpy as np

    from ..schema import shard_of

    base = shard_of(real["conv_id"], cfg.num_shards).to_numpy(zero_copy_only=False)
    ts_all = real["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    thr_of_base = np.full(cfg.num_shards, np.iinfo(np.int64).min, dtype=np.int64)
    for b in np.unique(base):
        wm = prev_watermarks.get(f"sess:{int(b)}")
        if wm is not None:
            thr_of_base[b] = wm - cfg.allowed_lateness_us
    late_mask = ts_all <= thr_of_base[base]
    n_late = int(late_mask.sum())
    if n_late:
        _write_late(real.filter(pa.array(late_mask)), out_dir, "session", batch_id, shard)
    ontime = real.filter(pa.array(~late_mask)) if n_late else real

    sessions = batch_session_intervals(ontime, gap_us)
    if len(sessions):
        t = pa.Table.from_pandas(sessions, preserve_index=False)
        t = pa.table(
            {
                "conv_id": t["conv_id"].combine_chunks().cast(pa.string()),
                "session_start_us": t["session_start_us"].cast(pa.int64()),
                "session_end_us": t["session_end_us"].cast(pa.int64()),
                "n_turns": t["n_turns"].cast(pa.int64()),
                "n_chars": t["n_chars"].cast(pa.int64()),
            }
        )
        t = t.append_column("base_shard", shard_of(t["conv_id"], cfg.num_shards))
        write_table_atomic(
            t,
            os.path.join(
                out_dir, "_session_partials", f"batch-{batch_id:06d}", f"shard={shard}.parquet"
            ),
        )
    return n_late


def window_partials(
    real: pa.Table,
    shard: int,
    batch_id: int,
    cfg: EngineConfig,
    out_dir: str,
    prev_watermarks: dict[str, int],
) -> int:
    """Stage 1 of the hierarchical salted conv-keyed tumbling path (north_star
    skew clause composed with conversation-keyed panes): this salted sub-shard
    partial-aggregates its rows into ``(window_agg_keys, window_start)`` pane
    partials — O(panes), not O(rows) — and hands them to the per-base-shard
    merge stage (:meth:`..pipelines.runner.CaptureRunner._merge_window_partials`),
    which owns seed state, watermark finalization and emission.

    Lateness is judged against the BASE shard's pane watermark (``win:<base>``
    namespace): emission decisions live in the merge stage, so its watermark
    defines which windows are already closed.
    """
    from ..schema import select_agg, shard_of

    W = cfg.window_size_us
    base = shard_of(real["conv_id"], cfg.num_shards).to_numpy(zero_copy_only=False)
    ts_all = real["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    win = ts_all - (ts_all % W)
    thr_of_base = np.full(cfg.num_shards, np.iinfo(np.int64).min, dtype=np.int64)
    for b in np.unique(base):
        wm = prev_watermarks.get(f"win:{int(b)}")
        if wm is not None:
            thr_of_base[b] = wm - cfg.allowed_lateness_us
    late_mask = win + W <= thr_of_base[base]
    n_late = int(late_mask.sum())
    if n_late:
        _write_late(real.filter(pa.array(late_mask)), out_dir, "tumbling", batch_id, shard)
    keep = ~late_mask
    ontime = real.filter(pa.array(keep)) if n_late else real
    if ontime.num_rows == 0:
        return n_late
    chars = _chars(ontime)
    group_keys = [*cfg.window_agg_keys, "window_start_us", "base_shard"]
    raw = {k: ontime[k] for k in cfg.window_agg_keys}
    raw["window_start_us"] = pa.array(win[keep], pa.int64())
    raw["base_shard"] = pa.array(base[keep].astype("int32"), pa.int32())
    raw["n_events"] = pa.array(np.ones(ontime.num_rows, dtype=np.int64))
    raw["n_chars"] = pa.array(chars, pa.int64())
    # per-group max event ts: the merge stage's watermark advance is the max
    # over its partials (late rows can never raise a watermark by definition)
    raw["max_ts_us"] = pa.array(ts_all[keep], pa.int64())
    partial = select_agg(
        pa.table(raw)
        .group_by(group_keys)
        .aggregate([("n_events", "sum"), ("n_chars", "sum"), ("max_ts_us", "max")]),
        group_keys,
        [
            ("n_events_sum", "n_events"),
            ("n_chars_sum", "n_chars"),
            ("max_ts_us_max", "max_ts_us"),
        ],
    )
    write_table_atomic(
        partial,
        os.path.join(
            out_dir, "_window_partials", f"batch-{batch_id:06d}", f"shard={shard}.parquet"
        ),
    )
    return n_late
