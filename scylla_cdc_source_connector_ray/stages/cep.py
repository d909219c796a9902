"""Complex-event-processing (CEP) pattern matching over per-key event
sequences — the north-rule operator family the window/join stages compose
into: detect ORDERED patterns of events within a conversation ("a user turn
followed by one-or-more tool calls then an assistant turn"), expressed as a
regular expression over per-event symbols.

Mechanics (one keyed exchange, then pure vectorized kernels):

1. ``map_batches`` projects each event to a 1-char symbol (role → char here;
   any classifier works) — rows shrink to (key, sym, order) before the
   shuffle.
2. Rows shard on the hash of the full key (the batch operators' one keyed
   shuffle, :mod:`.exchange`) and each shard task sorts its slice, joins
   every key's symbols into ONE string with ``pa.LargeListArray`` +
   ``pc.binary_join`` (no per-row Python), and runs the compiled RE2 pattern
   over the per-key strings with ``pc.count_substring_regex`` /
   ``pc.extract_regex`` — one regex pass over #keys strings, not #events
   rows.

Scale shape: the exchange carries 1 byte of symbol per event; per-key
sequence strings are turns-per-conversation long (small), and keys never
straddle shards so no merge pass is needed. Both Arrow and DuckDB run RE2, so
the SQL twin (``string_agg`` + ``regexp_extract_all``) matches by
construction.

Reference anchor: the connector has no CEP stage (it stops at per-row
SourceRecords); this is a first-class addition the north_rule's "structured
streaming / CEP engine" asks for.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from . import exchange

#: role → symbol alphabet (shared with the oracle SQL via :func:`role_case_sql`)
ROLE_SYMBOLS: tuple[tuple[str, str], ...] = (
    ("user", "u"),
    ("assistant", "a"),
    ("tool", "t"),
    ("system", "s"),
    ("__tombstone__", "d"),
)

_ROLES = pa.array([r for r, _ in ROLE_SYMBOLS])
_SYMS = pa.array([s for _, s in ROLE_SYMBOLS])


def role_case_sql(role_col: str = "role") -> str:
    """The DuckDB CASE expression computing the SAME role → symbol mapping
    (generated from ROLE_SYMBOLS so the two sides cannot drift)."""
    whens = " ".join(f"WHEN '{r}' THEN '{s}'" for r, s in ROLE_SYMBOLS[:-1])
    return f"CASE {role_col} {whens} ELSE '{ROLE_SYMBOLS[-1][1]}' END"


def role_symbols(role: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Map the role column to its 1-char symbol (unknown roles → tombstone
    symbol, mirroring the CASE's ELSE)."""
    if isinstance(role, pa.ChunkedArray):
        role = role.combine_chunks()
    idx = pc.index_in(role, value_set=_ROLES)
    sym = pc.take(_SYMS, idx)
    return pc.fill_null(sym, ROLE_SYMBOLS[-1][1])


def run_starts(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Boolean run-boundary mask over a ``keys``-sorted table — per-column
    null-safe comparison (NULL==NULL inside a run, NULL vs value is a
    boundary), never a joined composite string."""
    n = t.num_rows
    first = np.zeros(n, dtype=bool)
    if n == 0:
        return first
    first[0] = True
    if n == 1:
        return first  # slice(0, n-1) would raise on n=0 and is empty on n=1
    for c in keys:
        a = t[c].combine_chunks()
        cur, prev = a.slice(1), a.slice(0, n - 1)
        neq = pc.fill_null(pc.not_equal(cur, prev), False)
        vdiff = pc.xor(pc.is_null(cur), pc.is_null(prev))
        first[1:] |= pc.or_(neq, vdiff).to_numpy(zero_copy_only=False)
    return first


def join_runs(t: pa.Table, first: np.ndarray, sym_col: str) -> tuple[np.ndarray, pa.Array]:
    """Join ``sym_col`` into one string per run given a boundary mask over an
    already-sorted table. Returns (run start indices, joined strings)."""
    starts = np.flatnonzero(first)
    offsets = pa.array(np.append(starts, t.num_rows), pa.int64())
    flat = t[sym_col].combine_chunks()
    # the exchange may promote string→large_string; the separator must match
    # the value type or the binary_join kernel lookup fails
    sep = pa.scalar("", type=flat.type)
    strs = pc.binary_join(pa.LargeListArray.from_arrays(offsets, flat), sep)
    return starts, strs


def join_symbols(t: pa.Table, keys: list[str], sym_col: str) -> tuple[pa.Table, pa.Array]:
    """Per-key symbol strings from a table ALREADY sorted by
    (keys, event order). NULL symbols must be filtered out beforehand (SQL
    ``string_agg`` skips NULLs; callers mirror that). Returns (one row of
    ``keys`` per run, joined string per run)."""
    starts, strs = join_runs(t, run_starts(t, keys), sym_col)
    return t.select(keys).take(pa.array(starts)), strs


def match_pattern(
    ds: ray.data.Dataset,
    pattern: str,
    keys: list[str] = ("conv_id",),
    sym_col: str = "sym",
    order: list[str] = ("ts", "seq"),
    num_shards: int = 32,
) -> ray.data.Dataset:
    """Count + extract non-overlapping RE2 ``pattern`` matches over each
    key's ordered symbol sequence. Output: ``keys`` + int64 ``n_matches`` +
    ``first_match`` (NULL when no match — the pattern must not match the
    empty string). Every key appears (zero-match keys included), like a
    GROUP BY."""
    keys = list(keys)
    order = list(order)
    wrapped = f"(?P<m>{pattern})"

    def project(t: pa.Table) -> pa.Table:
        t = t.select([*keys, sym_col, *order])
        return t.filter(pc.is_valid(t[sym_col]))  # string_agg skips NULLs

    def per_shard(g: pa.Table) -> pa.Table:
        g = g.sort_by([(c, "ascending") for c in (*keys, *order)])
        key_rows, strs = join_symbols(g, keys, sym_col)
        n = pc.count_substring_regex(strs, pattern).cast(pa.int64())
        first = pc.struct_field(pc.extract_regex(strs, wrapped), "m")
        return key_rows.append_column("n_matches", n).append_column("first_match", first)

    return exchange.shuffle(
        ds.map_batches(project, batch_format="pyarrow"), per_shard, keys, num_shards
    )


def match_pattern_sessions(
    ds: ray.data.Dataset,
    pattern: str,
    gap_us: int,
    key: str = "conv_id",
    sym_col: str = "sym",
    ts_us_col: str = "ts_us",
    seq_col: str = "seq",
    num_shards: int = 32,
) -> ray.data.Dataset:
    """CEP composed with SESSION windows: count non-overlapping RE2
    ``pattern`` matches within each (key, session) — sessions split where
    the event-time gap exceeds ``gap_us`` (same sessionization rule as
    ``stages/windows.py::session``). One keyed exchange; session boundaries
    are one extra vectorized diff on top of the key run mask. Output: key,
    ``session_start_us``, int64 ``n_matches`` (every session appears).

    NULL symbols contribute NO characters (string_agg-skip semantics) but
    their timestamps STILL sessionize — a filtered row must not merge the
    sessions around it — so they are blanked, not dropped."""

    def project(t: pa.Table) -> pa.Table:
        t = t.select([key, sym_col, ts_us_col, seq_col])
        return t.set_column(
            t.schema.get_field_index(sym_col),
            sym_col,
            pc.fill_null(t[sym_col].combine_chunks(), ""),
        )

    def per_shard(g: pa.Table) -> pa.Table:
        g = g.sort_by(
            [(key, "ascending"), (ts_us_col, "ascending"), (seq_col, "ascending")]
        )
        first = run_starts(g, [key])
        ts = g[ts_us_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ts) > 1:  # a gap inside a key also starts a run; across keys
            first[1:] |= (ts[1:] - ts[:-1]) > gap_us  # conv boundary already set
        starts, strs = join_runs(g, first, sym_col)
        n = pc.count_substring_regex(strs, pattern).cast(pa.int64())
        idx = pa.array(starts)
        return pa.table(
            {
                key: g[key].take(idx),
                "session_start_us": pa.array(ts[starts], pa.int64()),
                "n_matches": n,
            }
        )

    return exchange.shuffle(
        ds.map_batches(project, batch_format="pyarrow"), per_shard, [key], num_shards
    )
