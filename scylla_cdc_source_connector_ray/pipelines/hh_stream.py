"""Streaming heavy hitters: one checkpointed SpaceSaving summary over an
unbounded token stream — the bounded-state face of ``textops.token_topk``.

Exact streaming top-k over tokens is impossible with bounded state (the
vocabulary is the state). The scale path carries ONE m-counter SpaceSaving
summary (``textops.SpaceSaving``) as the checkpointed state: every token
with true frequency > n/m is guaranteed tracked, and each reported count
brackets the truth as [cnt−err, cnt].

Replay determinism is the design constraint (same lesson as
``KllStreamRunner``): per-BLOCK summaries would depend on Ray's
nondeterministic block splits, so partial summaries are built per log FILE
(files are the micro-batch protocol's pinned, deterministic unit) and
merged in file order. The PODS'12 combine is order-sensitive only through
truncation, so pinning the order makes the committed state byte-stable
across crash/replay.

Scale shape (100 TB): zero exchanges — each file task tokenizes vectorized
(polars ``extract_all``, exact value_counts within the file) and emits an
m-entry summary; the driver folds ``files_per_batch`` summaries per batch.
State is O(m) forever. Reference anchor: the connector's micro-batch loop
(README.md:9); heavy-hitter semantics are curation surface with no
connector analogue.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..functions.textops import BPE_TOKEN_RE, SpaceSaving
from ._microbatch import KeyedStateRunner

#: summary (de)serialization layout version — the state is an algorithm
#: artifact, so a layout or combine change must fail a resume loudly
HH_IMPL = "spacesaving-pods12-v1"


def _summary_to_table(ss: SpaceSaving) -> pa.Table:
    """Header row (token NULL, carries n) + one row per tracked entry, in
    the summary's canonical (count DESC, token ASC) order."""
    rows = ss.topk(ss.m)
    return pa.table(
        {
            "token": pa.array([None, *[r[0] for r in rows]], pa.string()),
            "cnt": pa.array([0, *[r[1] for r in rows]], pa.int64()),
            "err": pa.array([0, *[r[2] for r in rows]], pa.int64()),
            "n": pa.array([ss.n] * (len(rows) + 1), pa.int64()),
        }
    )


def _summary_from_table(t: pa.Table, m: int) -> SpaceSaving:
    ss = SpaceSaving(m)
    toks = t["token"].to_pylist()
    cnts = t["cnt"].to_pylist()
    errs = t["err"].to_pylist()
    ss.n = int(t["n"][0].as_py()) if len(t) else 0
    for tok, c, e in zip(toks, cnts, errs):
        if tok is None:  # header row
            continue
        ss.counts[tok] = int(c)
        ss.errs[tok] = int(e)
    return ss


@ray.remote
def _file_summary(
    path: str, text_col: str, m: int, pattern: str
) -> tuple[str, dict, dict, int]:
    """Exact-truncated SpaceSaving summary of ONE log file — the
    deterministic partial unit (file contents are immutable and pinned by
    the manifest, unlike Ray block splits)."""
    from ..functions.textops import spacesaving_summary

    t = pq.read_table(path, columns=[text_col])
    ss = spacesaving_summary(t[text_col], m, pattern)
    return path, ss.counts, ss.errs, ss.n


class HeavyHittersStreamRunner(KeyedStateRunner):
    """Micro-batch SpaceSaving heavy hitters over
    ``log_dir/window-*.parquet`` (column ``text_col``). Results from
    :meth:`read_topk` on the COMMITTED state; ε-bounds are those of an
    m-counter SpaceSaving over the whole committed stream. No keyed
    exchange: one state file (shard 0), merged on the driver."""

    STATE_KIND = "hh"

    def __init__(
        self,
        log_dir: str,
        checkpoint_dir: str,
        m: int = 4096,
        text_col: str = "text",
        pattern: str = BPE_TOKEN_RE,
    ):
        if m < 1:
            raise ValueError("m must be >= 1")
        super().__init__(log_dir, None, None, checkpoint_dir)
        self.m = int(m)
        self.text_col = text_col
        self.pattern = pattern

    def pins(self) -> dict:
        return {
            "hh_impl": HH_IMPL,
            # every summary ingredient is replay identity: a resumed run
            # with a different m / tokenizer would merge incompatibly
            "hh_params": f"{self.m}/{self.text_col}/{self.pattern}",
        }

    def process(self, batch_id: int, bfiles: list[str]) -> dict:
        prev = self.ckpt.load_state(0, before_batch=batch_id, kind=self.STATE_KIND)
        state = _summary_from_table(prev, self.m) if prev is not None else SpaceSaving(self.m)
        n_before = state.n
        # one task per file (deterministic partial unit), merged in the
        # batch's pinned file order
        futs = [
            _file_summary.remote(p, self.text_col, self.m, self.pattern)
            for p in bfiles
        ]
        by_path = {r[0]: r for r in ray.get(futs)}
        for p in bfiles:
            _, counts, errs, n = by_path[p]
            part = SpaceSaving(self.m)
            part.counts = dict(counts)
            part.errs = dict(errs)
            part.n = int(n)
            state.merge(part)
        self.ckpt.write_state(
            0, batch_id, _summary_to_table(state), kind=self.STATE_KIND
        )
        return {"tokens": state.n - n_before, "tracked": len(state.counts)}

    # --------------------------------------------------------------- output
    def read_topk(self, k: int) -> pa.Table:
        """(token, cnt_upper, err, cnt_lower) for the top ``k`` tracked
        tokens of the latest COMMITTED summary."""
        tables = self.read_state()  # [] before the first commit
        ss = _summary_from_table(tables[0], self.m) if tables else SpaceSaving(self.m)
        rows = ss.topk(k)
        return pa.table(
            {
                "token": pa.array([r[0] for r in rows], pa.string()),
                "cnt_upper": pa.array([r[1] for r in rows], pa.int64()),
                "err": pa.array([r[2] for r in rows], pa.int64()),
                "cnt_lower": pa.array([r[1] - r[2] for r in rows], pa.int64()),
            }
        )
