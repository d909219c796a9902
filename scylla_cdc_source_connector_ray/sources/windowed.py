"""Windowed CDC-log reader (reference S1 — the per-task windowed SELECT loop,
``ScyllaStreamingChangeEventSource.java:84-95,151``, ``README.md:1357-1359``).

The transcript CDC log is an append-only directory of Parquet files. A
micro-batch = the next group of not-yet-consumed files in arrival (name)
order — the analogue of the reference's query time window, with the file
boundary playing the role of ``[window_start, window_end)``.

The confidence window (``ScyllaConnectorConfig.java:171-184``) maps to: a file
is only eligible once ``max(ts) of the newest file − confidence_window``
passes the file's own ``max(ts)`` — i.e. we never consume data that newer
arrivals could still interleave with, except for the newest frontier when the
log is declared complete (batch mode).

File-level ``ts`` min/max come from Parquet footer statistics — no data read.
"""

from __future__ import annotations

import dataclasses
import os
from datetime import timezone

import pyarrow.parquet as pq

#: footer-stat cache keyed by (path, mtime_ns, size) — a long tail session
#: must not re-open every consumed file's footer on every poll
_STATS_CACHE: dict[tuple, "LogFile"] = {}


@dataclasses.dataclass(frozen=True)
class LogFile:
    path: str
    min_ts_us: int | None
    max_ts_us: int | None
    num_rows: int

    @property
    def name(self) -> str:
        return os.path.basename(self.path)


@dataclasses.dataclass(frozen=True)
class LogWindow:
    """One window of a bucketed log: its per-shard files, which count as ONE
    file in offset accounting. ``max_ts_us`` is the max over the shard
    files' footers, None when they were not read."""

    name: str
    paths: dict[int, str]
    max_ts_us: int | None


def _ts_stats(path: str, ts_col: str = "ts") -> LogFile:
    md = pq.read_metadata(path)
    schema = md.schema.to_arrow_schema()
    try:
        idx = schema.names.index(ts_col)
    except ValueError:
        return LogFile(path, None, None, md.num_rows)
    mn, mx = None, None
    for rg in range(md.num_row_groups):
        col = md.row_group(rg).column(idx)
        st = col.statistics
        if st is None or not st.has_min_max:
            # writer disabled stats: read just the ts column once rather than
            # permanently stalling the tail holdback on an unknowable file
            return _ts_stats_by_read(path, ts_col, md.num_rows)
        lo, hi = _stat_us(st.min), _stat_us(st.max)
        mn = lo if mn is None else min(mn, lo)
        mx = hi if mx is None else max(mx, hi)
    return LogFile(path, mn, mx, md.num_rows)


def _stat_us(v) -> int:
    v = v.value if hasattr(v, "value") else v
    if hasattr(v, "timestamp"):
        # naive datetimes from parquet stats are UTC; naive .timestamp() would
        # interpret them in LOCAL time (verified +5h drift under TZ=US/Eastern)
        return int(v.replace(tzinfo=timezone.utc).timestamp() * 1e6)
    return int(v)


def _ts_stats_by_read(path: str, ts_col: str, num_rows: int) -> LogFile:
    import pyarrow.compute as pc

    t = pq.read_table(path, columns=[ts_col])
    if t.num_rows == 0 or t[ts_col].null_count == t.num_rows:
        return LogFile(path, None, None, num_rows)
    col = t[ts_col].combine_chunks().cast("int64")
    return LogFile(path, pc.min(col).as_py(), pc.max(col).as_py(), num_rows)


def ts_stats_or_none(path: str, ts_col: str = "ts") -> LogFile | None:
    """Tail-safe footer read: ``None`` when the file is not (yet) a complete
    parquet file. ``pq.write_table`` writes the footer LAST, so a concurrent
    writer's in-flight file raises ArrowInvalid here — in live-tail mode that
    means "not yet arrived", never corruption."""
    import pyarrow as pa

    try:
        return _ts_stats(path, ts_col)
    except (pa.ArrowInvalid, OSError):
        return None


def _cached_stats(path: str, tail: bool, live: set) -> LogFile | None:
    """Footer stats of ``path``, cached by (path, mtime, size); ``None`` for
    an unreadable file in tail mode (see :func:`discover`)."""
    st = os.stat(path)
    key = (path, st.st_mtime_ns, st.st_size)
    live.add(key)
    lf = _STATS_CACHE.get(key)
    if lf is None:
        lf = ts_stats_or_none(path) if tail else _ts_stats(path)
        if lf is not None:
            _STATS_CACHE[key] = lf
    return lf


def _evict(log_dir: str, live: set) -> None:
    """Drop cached stats of this dir's superseded files (rewrites/compaction)."""
    prefix = os.path.join(log_dir, "")
    for k in [k for k in _STATS_CACHE if k[0].startswith(prefix) and k not in live]:
        del _STATS_CACHE[k]


def discover(log_dir: str, tail: bool = False) -> list[LogFile]:
    """All log files in deterministic arrival order (lexicographic name).
    Footer stats are cached by (path, mtime, size).

    ``tail=True`` (live tailing): a file whose footer cannot be read is a
    concurrent writer's in-flight file — discovery TRUNCATES there (offset
    accounting is positional, so the contiguous complete prefix is the only
    safe view) and the next poll retries. ``tail=False`` (complete log):
    an unreadable file is corruption and raises."""
    names = sorted(
        f for f in os.listdir(log_dir) if f.endswith(".parquet") and not f.startswith("_")
    )
    out = []
    live: set = set()
    for f in names:
        lf = _cached_stats(os.path.join(log_dir, f), tail, live)
        if lf is None:
            break  # in-flight file: stop at the complete prefix
        out.append(lf)
    _evict(log_dir, live)
    return out


def is_bucketed(log_dir: str) -> bool:
    """True when the log uses the pre-partitioned ``shard=K/window-N.parquet``
    layout (see ``synthetic.write_bucketed``) — the shuffle-free fast path."""
    return any(f.startswith("shard=") for f in os.listdir(log_dir))


def discover_bucketed(log_dir: str) -> list[tuple[str, dict[int, str]]]:
    """Bucketed layout → ordered list of (window_name, {shard: path}).
    One 'file' in offset accounting = one window across all shards."""
    windows: dict[str, dict[int, str]] = {}
    for d in sorted(os.listdir(log_dir)):
        if not d.startswith("shard="):
            continue
        shard = int(d.split("=", 1)[1])
        for f in sorted(os.listdir(os.path.join(log_dir, d))):
            if f.endswith(".parquet"):
                windows.setdefault(f, {})[shard] = os.path.join(log_dir, d, f)
    return sorted(windows.items())


def plan_batches(
    files: list,
    consumed: int,
    files_per_batch: int = 1,
    confidence_window_us: int = 0,
    log_complete: bool = True,
) -> list[list]:
    """Split the unconsumed tail of the log (the units of :func:`list_log`)
    into micro-batches.

    ``consumed`` = number of units already committed (from the checkpoint
    manifest). With ``log_complete=False`` (live tailing), files whose
    ``max_ts`` is newer than ``frontier − confidence_window`` are held back —
    the reference's "never read into the confidence window".
    """
    tail = files[consumed:]
    if not log_complete and tail:
        frontier = max((f.max_ts_us or 0) for f in files)
        # offset accounting is POSITIONAL (consumed = file count), so only the
        # CONTIGUOUS eligible prefix may be consumed — filtering the middle
        # would permanently skip held-back files and re-consume later ones
        eligible = 0
        for f in tail:
            if f.max_ts_us is not None and f.max_ts_us <= frontier - confidence_window_us:
                eligible += 1
            else:
                break
        tail = tail[:eligible]
    return [tail[i : i + files_per_batch] for i in range(0, len(tail), files_per_batch)]


def list_log(log_dir: str, tail: bool = False, with_ts: bool = False) -> list:
    """The log's offset units in arrival order, for either layout: a
    :class:`LogFile` per file of a flat log (:func:`discover`), a
    :class:`LogWindow` per window of a bucketed one (:func:`discover_bucketed`).
    ``tail=True`` truncates at the first unit with an unreadable file (a
    concurrent writer's in-flight file; footers are written last).
    Bucketed footers are read (cached) only for ``tail`` or ``with_ts``;
    flat listings always carry their footer stats."""
    if not is_bucketed(log_dir):
        return discover(log_dir, tail=tail)
    out = []
    live: set = set()
    for name, paths in discover_bucketed(log_dir):
        mx = None
        if tail or with_ts:
            stats = [_cached_stats(p, tail, live) for p in paths.values()]
            if None in stats:
                break  # in-flight shard file: stop at the complete prefix
            known = [lf.max_ts_us for lf in stats if lf.max_ts_us is not None]
            mx = max(known) if known else None
        out.append(LogWindow(name, paths, mx))
    _evict(log_dir, live)
    return out


def lookback_skip(units: list, lookback_us: int) -> int:
    """Cold-start lookback (≙ scylla.initial.lookback.ms,
    ScyllaConnectorTask.java:153-213): count of LEADING units whose footer
    max-ts predates (log frontier − lookback). Only the prefix is skipped —
    positional offsets can't hole-punch, and the windowed log is
    time-ordered by construction."""
    known = [u.max_ts_us for u in units if u.max_ts_us is not None]
    if not known:
        return 0
    cutoff = max(known) - lookback_us
    skip = 0
    for u in units:
        if u.max_ts_us is None or u.max_ts_us >= cutoff:
            break
        skip += 1
    return skip
