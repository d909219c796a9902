"""Streaming CEP: checkpointed per-conversation pattern counting over a
windowed transcript log — the micro-batch composition of ``stages/cep.py``.

Detects a symbol pattern in each conversation's event stream, counting
non-overlapping occurrences left-to-right across micro-batch boundaries.
Two modes sharing one state layout (key, n_matches, tail):

- ``literal=`` (e.g. ``uta`` = user → tool → assistant): after splitting a
  conversation's symbols on the literal, no part can contain an occurrence,
  so a straddling occurrence must start within the last ``len(literal) - 1``
  symbols of the final part — that suffix is the entire carry.
- ``pattern=`` (general RE2 regex, e.g. ``ut+a``): RE2 sentinel-replacement
  yields the exact unconsumed suffix (non-overlapping scanning is memoryless
  past the consumption point), and a compiled DFA (``stages/redfa.py``)
  prunes every prefix position that provably cannot start a match extending
  into future batches. Carry is O(longest in-progress match) per key.

Scale shape: state is O(live conversations × pattern length) bytes per
shard; rows are exchanged once per batch on ``hash(conv_id)`` (the same
stream-id → Vnode mapping as the capture runner, so a conversation never
straddles shards); the fold inside a shard is all Arrow kernels
(``split_pattern`` + offset math), no per-row Python. Replay of a batch
reads the pre-batch state snapshot, so a killed run resumes without double
counting (same exactly-once contract as ``CaptureRunner``).

Reference anchor: the connector emits per-row SourceRecords only; this is
the "CEP engine" half of the north_rule, built on the shared micro-batch
protocol (``_microbatch.py``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..state.checkpoint import current_hash_impl
from ._microbatch import KeyedStateRunner


def fold_literal(full: pa.Array, literal: str) -> tuple[np.ndarray, pa.Array]:
    """The carry fold kernel: split each (carried-tail + new-symbols) string
    on the literal; return (#occurrences per row, next tail per row = last
    ≤len-1 chars of the final occurrence-free part). Property-tested for
    split-invariance against the global count at arbitrary cut points."""
    parts = pc.split_pattern(full, literal)
    delta = pc.add(pc.list_value_length(parts).cast(pa.int64()), -1)
    last_idx = parts.offsets.to_numpy(zero_copy_only=False)[1:] - 1
    last = pc.take(parts.values, pa.array(last_idx))
    tail = pc.utf8_reverse(
        pc.utf8_slice_codeunits(pc.utf8_reverse(last), 0, len(literal) - 1)
    )
    return delta.to_numpy(zero_copy_only=False), tail


#: match-consumption sentinels for the regex fold — outside every symbol
#: alphabet (role_symbols emits [uatsd]); patterns containing them are
#: rejected. SENTINEL marks a match start, SENTINEL2 a match end.
SENTINEL = "\x00"
SENTINEL2 = "\x01"


def fold_regex(full: pa.Array, pattern: str, dfa) -> tuple[np.ndarray, pa.Array]:
    """General-regex carry fold (the literal fold's big sibling), exact under
    any batch split. Returns (#final matches per row, carry per row).

    Scan-frontier construction: RE2 wraps every non-overlapping match of the
    prefix text in sentinels, yielding the prefix scanner's consumed spans.
    A left-to-right scanner VISITS every position except match interiors
    (it jumps from a match's start to its end). A visited position p is only
    *final* — its match/no-match decision unaffected by future input — if no
    NFA thread from p is alive at end-of-buffer; otherwise the attempt at p
    was truncated by the batch boundary and more input could change it (a
    longer greedy extension, or a higher-priority alternation branch that
    spans positions the prefix scan consumed, e.g. ``utta|t`` over the split
    ``utt`` | ``a``). The frontier is the earliest visited position whose
    DFA run stays live to end-of-buffer (right-aligned suffix-function
    lockstep in :meth:`SymbolDFA.earliest_viable_starts`, masked to visited
    positions): matches starting before it are final and counted; everything
    from it on becomes the carry and is re-scanned with the next batch.

    Exactness: at each final visited position the backtracking exploration
    is confined to the buffer, so its decision equals the global scanner's;
    non-overlapping scanning is memoryless past a final match's end; and the
    re-scan of ``carry + next_batch`` resumes exactly at the frontier.
    State is O(longest in-progress match) per key — bounded for bounded
    quantifiers, and for unbounded ones (``ut*``-style) exactly the data a
    correct answer requires. The carry may contain completed-but-deferred
    matches; the invariant is ``sum(deltas) + count(final tail) == global
    count``, and :meth:`CepStreamRunner.read_counts` adds that final-tail
    count.
    """
    from ..stages.redfa import slice_strings

    if isinstance(full, pa.ChunkedArray):
        full = full.combine_chunks()
    n = len(full)
    if n == 0:
        return np.zeros(0, np.int64), pa.array([], pa.string())

    # 1. consumed spans of the prefix scan: SENTINEL + match + SENTINEL2
    rep = pc.replace_substring_regex(
        full, pattern=pattern, replacement=SENTINEL + "\\0" + SENTINEL2
    )
    if isinstance(rep, pa.ChunkedArray):
        rep = rep.combine_chunks()
    roff = np.frombuffer(
        rep.buffers()[1],
        dtype=np.int64 if pa.types.is_large_string(rep.type) else np.int32,
    )[rep.offset : rep.offset + n + 1].astype(np.int64)
    rdata = np.frombuffer(rep.buffers()[2], dtype=np.uint8)
    span = rdata[roff[0] : roff[-1]]
    s1 = np.flatnonzero(span == 0x00) + roff[0]  # match starts (rep coords)
    s2 = np.flatnonzero(span == 0x01) + roff[0]  # match ends (rep coords)
    r1 = np.searchsorted(roff, s1, side="right") - 1  # row of each match
    cnt = np.bincount(r1, minlength=n)
    # ordinal of each match within its row → original-coordinate spans
    # (each earlier match in the row inserted two sentinel bytes)
    k = np.arange(len(s1), dtype=np.int64) - np.concatenate(
        ([0], np.cumsum(cnt[:-1]))
    )[r1]
    st = (s1 - roff[r1]) - 2 * k  # match start, row-relative orig coords
    en = (s2 - roff[r1]) - 2 * k - 1  # match end (exclusive)

    # 2. visited mask over the original bytes: everything except interiors
    off = np.frombuffer(
        full.buffers()[1],
        dtype=np.int64 if pa.types.is_large_string(full.type) else np.int32,
    )[full.offset : full.offset + n + 1].astype(np.int64)
    mark = np.zeros(int(off[-1]) + 1, np.int32)
    np.add.at(mark, off[r1] + st + 1, 1)
    np.subtract.at(mark, off[r1] + en, 1)
    visited = np.cumsum(mark[:-1], dtype=np.int32) == 0

    # 3. frontier: earliest visited position live at end-of-buffer
    frontier = dfa.earliest_viable_starts(full, visited=visited)

    # 4. final matches start before the frontier; carry from the frontier on
    final = st < frontier[r1]
    delta = np.bincount(r1[final], minlength=n).astype(np.int64)
    tail = slice_strings(full, frontier)
    return delta, tail


class CepStreamRunner(KeyedStateRunner):
    """Micro-batch literal-pattern counter over ``log_dir/window-*.parquet``
    transcript files. Log windows must be event-time-ordered (the standard
    in-order CDC log layout); within a batch rows are ordered by
    ``(ts, seq)``.

    Final per-conversation counts live in the checkpointed state
    (``read_counts``); per-batch metrics flow through the shared manifest.
    """

    STATE_KIND = "cep"
    STATS = ("rows", "matches")

    def __init__(
        self,
        log_dir: str,
        num_shards: int,
        checkpoint_dir: str,
        literal: str | None = None,
        key_col: str = "conv_id",
        role_col: str = "role",
        pattern: str | None = None,
    ):
        if (literal is None) == (pattern is None):
            raise ValueError("give exactly one of literal= or pattern=")
        if literal is not None and len(literal) < 1:
            raise ValueError("literal pattern must be non-empty")
        if pattern is not None:
            if SENTINEL in pattern or SENTINEL2 in pattern:
                raise ValueError("pattern must not contain the \\x00/\\x01 sentinels")
            from ..stages.redfa import SymbolDFA

            # compile eagerly: rejects unsupported syntax / empty-matching
            # patterns at construction, not mid-run
            self._dfa = SymbolDFA.compile(pattern)
        else:
            self._dfa = None
        super().__init__(log_dir, num_shards, None, checkpoint_dir)
        self.literal = literal
        self.pattern = pattern
        self.key_col = key_col
        self.role_col = role_col

    def pins(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "hash_impl": current_hash_impl(),
            # the measured quantity is replay identity: resuming with a
            # different key/role column (or switching literal↔regex mode,
            # whose tails are pruned differently) would merge counts of
            # different things into one state
            "cep_impl": (
                f"re2:{self.pattern}" if self.pattern is not None else self.literal
            )
            + f"/{self.key_col}/{self.role_col}",
        }

    def _final_totals(self, res: dict) -> dict:
        """Per-batch deltas undercount by design: the regex fold defers a
        completed match whose greedy extension is still open into the carry
        (``fold_regex`` invariant). The run-level ``matches`` stat — what the
        CLI prints — must be the GLOBAL count at the current stream position,
        i.e. counted state plus completed matches pending in final tails
        (= ``read_counts`` total). Literal mode's carry never holds a full
        occurrence, so there this is a no-op. Before the first commit
        nothing is counted yet: 0."""
        if "matches" in res:
            res["matches"] = int(pc.sum(self.read_counts()["n_matches"]).as_py() or 0)
        return res

    def plan(self, batch_id: int, bfiles: list[str]):
        key_col, role_col = self.key_col, self.role_col
        num_shards, literal = self.num_shards, self.literal
        pattern, dfa = self.pattern, self._dfa  # dfa is tiny + picklable

        def project(t: pa.Table) -> pa.Table:
            from ..schema import shard_of
            from ..stages.cep import role_symbols

            out = pa.table(
                {
                    key_col: t[key_col],
                    "sym": role_symbols(t[role_col]),
                    "ts": t["ts"],
                    "seq": t["seq"],
                }
            )
            return out.append_column("_shard", shard_of(out[key_col], num_shards))

        def fold(g: pa.Table, prev: pa.Table | None):
            from ..stages.cep import join_symbols

            # canonical key type for the state file: the exchange may promote
            # string → large_string per worker; pin string so replay is
            # byte-stable. Non-string keys (e.g. int64) keep their own type.
            kt = g.schema.field(key_col).type
            if pa.types.is_large_string(kt):
                kt = pa.string()

            g = g.sort_by([(key_col, "ascending"), ("ts", "ascending"), ("seq", "ascending")])
            key_rows, strs = join_symbols(g, [key_col], "sym")
            keys = key_rows[key_col].to_pandas()  # native dtype: merges with state
            if prev is not None:
                st = prev.to_pandas()
            else:
                st = pd.DataFrame(
                    {
                        key_col: keys.iloc[:0],  # empty, same dtype as batch keys
                        "n_matches": pd.Series(dtype="int64"),
                        "tail": pd.Series(dtype=object),
                    }
                )

            bt = pd.DataFrame({key_col: keys, "s": strs.to_pandas().astype(object)})
            m = bt.merge(st, on=key_col, how="left")
            full = pa.array(
                (m["tail"].fillna("") + m["s"]).to_numpy(dtype=object), pa.string()
            )
            if pattern is not None:
                delta, tail = fold_regex(full, pattern, dfa)
            else:
                delta, tail = fold_literal(full, literal)
            n_new = m["n_matches"].fillna(0).to_numpy(dtype=np.int64) + delta
            touched = pd.DataFrame(
                {
                    key_col: m[key_col],
                    "n_matches": n_new,
                    "tail": tail.to_pandas().astype(object),
                }
            )
            untouched = st[~st[key_col].isin(bt[key_col])]
            out = (
                pd.concat([touched, untouched[[key_col, "n_matches", "tail"]]])
                .sort_values(key_col, kind="mergesort")
                .reset_index(drop=True)
            )
            state = pa.table(
                {
                    key_col: pa.array(out[key_col], kt),
                    "n_matches": pa.array(out["n_matches"].astype(np.int64)),
                    "tail": pa.array(out["tail"], pa.string()),
                }
            )
            return None, state, {"rows": g.num_rows, "matches": int(delta.sum())}

        return project, fold

    # --------------------------------------------------------------- output
    def read_counts(self) -> pa.Table:
        """Final (key, n_matches) across all shards — the latest COMMITTED
        state snapshot per shard, plus any completed match still sitting in
        the carried tail (the regex fold defers a boundary-flush match whose
        greedy extension is still open; at stream end it must be counted)."""
        tables = [t.select([self.key_col, "n_matches", "tail"]) for t in self.read_state()]
        if not tables:
            return pa.table(
                {self.key_col: pa.array([], pa.string()), "n_matches": pa.array([], pa.int64())}
            )
        t = pa.concat_tables(tables)
        if self.pattern is not None:
            pending = pc.count_substring_regex(t["tail"], self.pattern)
        else:
            pending = pc.count_substring(t["tail"], self.literal)
        n = pc.add(t["n_matches"], pending.cast(pa.int64()))
        return pa.table({self.key_col: t[self.key_col], "n_matches": n})
