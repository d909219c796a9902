"""Event-time windowed aggregation: tumbling, sliding and session windows,
batch and streaming (north_star; the reference's only windows are its query
windows — SURVEY.md §2.9 — so the semantics here follow the standard
dataflow/stream-slicing model, PAPERS.md: Scotty, general stream slicing).

One slicing core serves every window kind. Tumbling is sliding with
slide = size: rows pre-aggregate into slide-grained *panes*, and the window
``[ws, ws+size)`` is the sum of the size/slide panes covering it
(:func:`explode_panes`). Sessions are gaps-and-islands per conversation
(:func:`session_islands`); the partial sessions of any split of the rows
gap-merge into the sessions of the whole (:func:`merge_session_intervals`).

Batch stages (Ray Data):

* **Tumbling/sliding** pre-aggregate per Arrow batch (``Table.group_by``
  inside ``map_batches`` — one partial row per (key, window) per batch) and
  only then run the global ``groupby().aggregate`` — the shuffle moves
  partials, not rows (ray_guide: "Aggregation at scale"). Caveat: pyarrow's
  multi-key group_by emits one row per NULL-key *run*, so NULL grouping keys
  degrade the pre-aggregation (results stay correct via the global merge) —
  fill NULL keys with a sentinel upstream if they are common. Sliding
  explodes each partial *after* partial aggregation (copies of partials, not
  of rows).
* **Session** windows hash-shard by ``conv_id`` through the batch
  operators' one keyed shuffle (:mod:`.exchange`) and run one vectorized
  islands pass per shard block — the same single-shuffle contract as
  op-derive.

Streaming folds (pure and I/O-free; the capture runner reads a shard's
prior state, calls a fold and writes its two outputs). A fold's inputs are
the batch's on-time partials, the prior COMMITTED state and the finalization
thresholds ``thr = watermark − allowed lateness`` of the previous and the new
commit, so a replayed batch folds to the same bytes:

* :meth:`Panes.fold` sums partials into the prior panes, emits the windows
  with ``thr_prev < end ≤ thr`` and keeps the panes with
  ``pane + size > thr`` (a pane goes once its last window is emitted).
* :meth:`Sessions.fold` gap-merges the prior open sessions with the partial
  sessions by a full per-conversation sweep (an out-of-order row, or a
  salted sub-shard's partial, can BRIDGE two sessions), emits the sessions
  with ``end + gap ≤ thr`` (an on-time row of a later batch has
  ``ts > thr`` and cannot extend them) and keeps the rest.

``thr = AFTER_ALL`` is the end-of-log flush; ``thr_prev = BEFORE_ALL`` means
nothing was final yet. The late rule is ``closes_us(ts) ≤ thr_prev``: a
row is late when its latest pane window has already been emitted, or — for
sessions — when its ts is at or below the previous threshold. The caller
routes late rows aside before computing partials.

Window identity is ``window_start_us`` (int64 µs since epoch) — integer
arithmetic, identical in SQL (``epoch_us(ts) - epoch_us(ts) % size``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Max, Min, Sum

from ..schema import select_agg
from . import exchange

#: finalization thresholds: nothing final yet / the end-of-log flush
BEFORE_ALL = int(np.iinfo(np.int64).min)
AFTER_ALL = int(np.iinfo(np.int64).max)

SESSION_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("session_start_us", pa.int64()),
        ("session_end_us", pa.int64()),
        ("n_turns", pa.int64()),
        ("n_chars", pa.int64()),
    ]
)


def _ts_us(batch: pa.Table, ts_col: str) -> pa.Array:
    return batch[ts_col].combine_chunks().cast(pa.int64())


def _n_chars(text) -> pa.Array:
    """Per-row text length; NULL text counts 0."""
    return pc.fill_null(pc.utf8_length(text), 0).cast(pa.int64())


def _partial_tumbling(batch: pa.Table, size_us: int, keys: list[str], ts_col: str) -> pa.Table:
    ts = _ts_us(batch, ts_col)
    ts_np = ts.to_numpy(zero_copy_only=False)
    win = pa.array(ts_np - (ts_np % size_us), type=pa.int64())
    cols = {k: batch[k] for k in keys}
    cols["window_start_us"] = win
    n = batch.num_rows
    cols["n"] = pa.array(np.ones(n, dtype=np.int64))
    txt = batch["text"] if "text" in batch.column_names else batch["after_text"] if "after_text" in batch.column_names else None
    cols["chars"] = (
        _n_chars(txt.combine_chunks())
        if txt is not None
        else pa.array(np.zeros(n, dtype=np.int64))
    )
    cols["min_ts_us"] = ts
    cols["max_ts_us"] = ts
    t = pa.table(cols)
    return select_agg(
        t.group_by([*keys, "window_start_us"]).aggregate(
            [("n", "sum"), ("chars", "sum"), ("min_ts_us", "min"), ("max_ts_us", "max")]
        ),
        [*keys, "window_start_us"],
        [
            ("n_sum", "n"),
            ("chars_sum", "chars"),
            ("min_ts_us_min", "min_ts_us"),
            ("max_ts_us_max", "max_ts_us"),
        ],
    )


def tumbling(
    ds: ray.data.Dataset,
    size_us: int,
    keys: list[str] | None = None,
    ts_col: str = "ts",
) -> ray.data.Dataset:
    """Tumbling-window aggregate: per (keys..., window) → n_events, n_chars,
    min/max ts. Partial-aggregated per batch before the global shuffle."""
    keys = list(keys or [])
    partial = ds.map_batches(
        lambda b: _partial_tumbling(b, size_us, keys, ts_col), batch_format="pyarrow"
    )
    out = partial.groupby([*keys, "window_start_us"]).aggregate(
        Sum("n", alias_name="n_events"),
        Sum("chars", alias_name="n_chars"),
        Min("min_ts_us", alias_name="min_ts_us"),
        Max("max_ts_us", alias_name="max_ts_us"),
    )
    return out


def explode_panes(panes: pa.Table, size_us: int, slide_us: int) -> pa.Table:
    """Each slide-grained pane joins every window that covers it: window
    starts ``pane − i·slide`` for i in 0..size/slide−1 (one copy when
    tumbling)."""
    n_copies = size_us // slide_us
    parts = []
    base = panes["window_start_us"].combine_chunks().to_numpy(zero_copy_only=False)
    for i in range(n_copies):
        t = panes.set_column(
            panes.column_names.index("window_start_us"),
            "window_start_us",
            pa.array(base - i * slide_us, type=pa.int64()),
        )
        parts.append(t)
    return pa.concat_tables(parts)


def sliding(
    ds: ray.data.Dataset,
    size_us: int,
    slide_us: int,
    keys: list[str] | None = None,
    ts_col: str = "ts",
) -> ray.data.Dataset:
    """Sliding-window aggregate (size multiple of slide). Rows are first
    partial-aggregated at slide granularity, then each partial is exploded
    into the size/slide windows covering it — the classic panes/slicing
    optimization: row volume is touched once."""
    if size_us % slide_us:
        raise ValueError("size_us must be a multiple of slide_us")
    keys = list(keys or [])
    partial = ds.map_batches(
        lambda b: explode_panes(
            _partial_tumbling(b, slide_us, keys, ts_col), size_us, slide_us
        ),
        batch_format="pyarrow",
    )
    return partial.groupby([*keys, "window_start_us"]).aggregate(
        Sum("n", alias_name="n_events"),
        Sum("chars", alias_name="n_chars"),
        Min("min_ts_us", alias_name="min_ts_us"),
        Max("max_ts_us", alias_name="max_ts_us"),
    )


def session_islands(
    t: pa.Table, gap_us: int, ts_col: str = "ts", sums: tuple[str, ...] = ()
) -> pa.Table:
    """Vectorized gaps-and-islands per ``conv_id``: one row per session
    (conv_id, session_start_us, session_end_us, n_turns, then the per-session
    total of each column in ``sums``) from one pass over the
    (conv_id, ts)-sorted block."""
    t = t.sort_by([("conv_id", "ascending"), (ts_col, "ascending")])
    n = t.num_rows
    conv = t["conv_id"].combine_chunks()
    ts = _ts_us(t, ts_col).to_numpy(zero_copy_only=False)
    conv_np = conv.to_numpy(zero_copy_only=False)
    start = np.ones(n, dtype=bool)
    start[1:] = (conv_np[1:] != conv_np[:-1]) | ((ts[1:] - ts[:-1]) > gap_us)
    idx = np.flatnonzero(start)
    # last row of each session: the row before the next start (an empty
    # block has no sessions, so the trailing n − 1 is cut off again)
    ends = np.append(idx[1:], n)[: idx.size] - 1
    out = {
        "conv_id": pc.take(conv, pa.array(idx, pa.int64())),
        "session_start_us": pa.array(ts[idx], pa.int64()),
        "session_end_us": pa.array(ts[ends], pa.int64()),
        "n_turns": pa.array(ends - idx + 1, pa.int64()),
    }
    for c in sums:
        csum = np.concatenate([[0], np.cumsum(t[c].to_numpy())])
        out[c] = pa.array(csum[ends + 1] - csum[idx], pa.int64())
    return pa.table(out)


def session(
    ds: ray.data.Dataset,
    gap_us: int,
    num_shards: int = 64,
    ts_col: str = "ts",
) -> ray.data.Dataset:
    """Session windows per conv_id: a new session starts when the gap since
    the previous turn exceeds ``gap_us``. One shuffle (hash by conv_id) —
    projected down to (conv_id, ts) FIRST so the exchange never moves the
    text payload (~10× fewer shuffled bytes on transcript data)."""
    slim = ds.map_batches(lambda b: b.select(["conv_id", ts_col]), batch_format="pyarrow")
    return exchange.shuffle(
        slim, lambda g: session_islands(g, gap_us, ts_col), ["conv_id"], num_shards
    )


def merge_session_intervals(df, gap_us: int):
    """Gap-merge partial session intervals per conv (pandas DataFrame with
    SESSION-shaped columns; extra aggregate columns are summed). Correctness:
    sessionization of a point set equals gap-merging the partial sessions of
    ANY partition of that set — within a partial session consecutive points
    have gap ≤ g (still ≤ g in the union), and the sweep joins intervals whose
    gap ≤ g, including bridges across partials. Full sweep with cummax: an
    out-of-order partial can bridge two others."""
    if not len(df):
        return df
    df = df.sort_values(["conv_id", "session_start_us", "session_end_us"]).reset_index(drop=True)
    g = df.groupby("conv_id", sort=False)
    prev_end_cummax = g["session_end_us"].transform(lambda x: x.cummax().shift())
    new_sess = prev_end_cummax.isna() | (df["session_start_us"] > prev_end_cummax + gap_us)
    sid = new_sess.cumsum()
    sums = {
        c: (c, "sum")
        for c in df.columns
        if c not in ("conv_id", "session_start_us", "session_end_us")
    }
    return (
        df.assign(_sid=sid)
        .groupby(["conv_id", "_sid"], as_index=False, sort=False)
        .agg(
            session_start_us=("session_start_us", "min"),
            session_end_us=("session_end_us", "max"),
            **sums,
        )
        .drop(columns=["_sid"])
    )


def session_salted(
    ds: ray.data.Dataset,
    gap_us: int,
    num_shards: int,
    hot_convs: frozenset[str] | set[str],
    salt_chunk: int,
    ts_col: str = "ts",
) -> ray.data.Dataset:
    """Hierarchical session windows under hot-conversation salting (the
    north_star skew clause composed with a conversation-level stateful stage):

    1. salted sub-shards compute *partial* sessions over their row subset
       (same vectorized islands pass as :func:`session`);
    2. a second keyed exchange re-shards the partial INTERVALS (O(sessions),
       not O(rows)) by plain ``hash(conv_id)`` and gap-merges them per conv.

    Output equals :func:`session` exactly — salting changes placement and the
    interval-volume of the second exchange, never content."""
    from .salt import with_salted_shard

    hot = frozenset(hot_convs)

    def salted(b: pa.Table) -> pa.Table:
        b = with_salted_shard(
            b.select(["conv_id", "turn_idx", ts_col]), num_shards, hot, salt_chunk
        )
        return b.select(["conv_id", ts_col]).append_column(exchange.PART_COL, b["shard"])

    partials = exchange.shuffle(
        ds.map_batches(salted, batch_format="pyarrow"),
        lambda g: session_islands(g, gap_us, ts_col),
    )

    def _merge(g: pa.Table) -> pa.Table:
        merged = merge_session_intervals(g.to_pandas(), gap_us)
        out = pa.Table.from_pandas(merged, preserve_index=False)
        return pa.table(
            {
                "conv_id": out["conv_id"].cast(pa.string()) if out.num_rows else pa.nulls(0, pa.string()),
                "session_start_us": out["session_start_us"].cast(pa.int64()),
                "session_end_us": out["session_end_us"].cast(pa.int64()),
                "n_turns": out["n_turns"].cast(pa.int64()),
            }
        )

    return exchange.shuffle(partials, _merge, ["conv_id"], num_shards)


# --- streaming folds ---------------------------------------------------------


def _sum_panes(t: pa.Table, group: list[str]) -> pa.Table:
    return select_agg(
        t.group_by(group).aggregate([("n_events", "sum"), ("n_chars", "sum")]),
        group,
        [("n_events_sum", "n_events"), ("n_chars_sum", "n_chars")],
    )


@dataclass(frozen=True)
class Panes:
    """Windows of ``size_us`` every ``slide_us`` per ``keys``, kept as
    slide-grained panes (n_events, n_chars); tumbling when slide = size."""

    size_us: int
    slide_us: int
    keys: tuple[str, ...] = ()
    #: partials column with each partial's newest event time
    last_ts = "max_ts_us"

    def closes_us(self, ts: np.ndarray) -> np.ndarray:
        """End of each row's latest window: the row is late at ``≤ thr_prev``."""
        return ts - ts % self.slide_us + self.size_us

    def partials(self, rows: pa.Table) -> pa.Table:
        """Change events → (keys..., window_start_us, n_events, n_chars,
        max_ts_us) pane partials."""
        ts = _ts_us(rows, "ts").to_numpy(zero_copy_only=False)
        cols = {k: rows[k] for k in self.keys}
        cols["window_start_us"] = pa.array(ts - ts % self.slide_us, pa.int64())
        cols["n_events"] = pa.array(np.ones(len(ts), dtype=np.int64))
        cols["n_chars"] = _n_chars(rows["after_text"].combine_chunks())
        cols["max_ts_us"] = pa.array(ts, pa.int64())
        group = [*self.keys, "window_start_us"]
        return select_agg(
            pa.table(cols)
            .group_by(group)
            .aggregate([("n_events", "sum"), ("n_chars", "sum"), ("max_ts_us", "max")]),
            group,
            [("n_events_sum", "n_events"), ("n_chars_sum", "n_chars"), ("max_ts_us_max", "max_ts_us")],
        )

    def fold(
        self, partials: pa.Table, prior: pa.Table | None, thr_prev, thr, slot: str | None = None
    ) -> tuple[pa.Table, pa.Table]:
        """The pane fold: sum ``partials`` (possibly several rows per pane)
        into the ``prior`` panes; return the windows with
        ``thr_prev < end ≤ thr`` sorted by (keys, start), and the panes
        with ``pane + size > thr``. With ``slot`` (a key column of small
        ints), ``thr_prev`` and ``thr`` are arrays indexed by it: each slot
        (a shard of a fold over several) folds with thresholds of its own."""
        group = [*self.keys, "window_start_us"]
        cols = [*group, "n_events", "n_chars"]
        parts = [partials.select(cols)]
        if prior is not None:
            # conform the prior panes to the partials' encoding: state written
            # from an exchange block may hold large_string keys
            parts.insert(0, prior.select(cols).cast(parts[0].schema))
        rows = pa.concat_tables(parts)
        # one batch: the grouping then orders panes by first appearance
        # however many slots' tables it concatenates
        panes = _sum_panes(rows if slot is None else rows.combine_chunks(), group)
        copies = explode_panes(panes, self.size_us, self.slide_us)

        def per_row(thr, t: pa.Table):
            if slot is None:
                return thr
            return np.asarray(thr)[t[slot].combine_chunks().to_numpy(zero_copy_only=False)]

        end = copies["window_start_us"].to_numpy(zero_copy_only=False) + self.size_us
        ready = copies.filter(pa.array((end > per_row(thr_prev, copies)) & (end <= per_row(thr, copies))))
        emitted = _sum_panes(ready, group).sort_by([(k, "ascending") for k in group])
        pane = panes["window_start_us"].to_numpy(zero_copy_only=False)
        return emitted, panes.filter(pa.array(pane + self.size_us > per_row(thr, panes)))


def _session_table(df) -> pa.Table:
    return pa.Table.from_pandas(df, schema=SESSION_SCHEMA, preserve_index=False)


@dataclass(frozen=True)
class Sessions:
    """Session windows per conversation with inactivity gap ``gap_us``."""

    gap_us: int
    #: partials column with each partial's newest event time
    last_ts = "session_end_us"

    def closes_us(self, ts: np.ndarray) -> np.ndarray:
        """A row at or below the previous threshold is late."""
        return ts

    def partials(self, rows: pa.Table) -> pa.Table:
        """Change events → this batch's SESSION_SCHEMA partial sessions."""
        slim = pa.table(
            {
                "conv_id": rows["conv_id"],
                "ts": rows["ts"],
                "n_chars": _n_chars(rows["after_text"].combine_chunks()),
            }
        )
        return session_islands(slim, self.gap_us, sums=("n_chars",))

    def fold(
        self, partials: pa.Table, prior: pa.Table | None, thr_prev: int, thr: int
    ) -> tuple[pa.Table, pa.Table]:
        """The session fold: gap-merge ``partials`` with the ``prior`` open
        sessions; return the sessions with ``end + gap ≤ thr`` sorted by
        (conv_id, start), and the still-open rest. ``thr_prev`` is unused:
        the state holds open sessions only."""
        names = SESSION_SCHEMA.names
        parts = [partials.select(names).cast(SESSION_SCHEMA)]
        if prior is not None:
            parts.insert(0, prior.select(names).cast(SESSION_SCHEMA))
        merged = merge_session_intervals(pa.concat_tables(parts).to_pandas(), self.gap_us)[names]
        closed = (merged["session_end_us"] + self.gap_us <= thr).to_numpy()
        emitted = merged[closed].sort_values(["conv_id", "session_start_us"])
        return _session_table(emitted), _session_table(merged[~closed])
