"""Streaming MinHash/LSH near-dup filter: checkpointed arrival-order
candidate suppression over a windowed document log.

Semantics (exactly SQL-expressible, hence gate-able): a document is DROPPED
iff any EARLIER document (by arrival order = ``order_col``) shares at least
one LSH band signature with it — earlier documents count whether or not they
themselves were kept, which makes the rule order-robust (no transitive
kept-set recursion) and lets the oracle state it as one anti-join. This is
the streaming analogue of the batch ``dedup_minhash_lsh`` CANDIDATE stage:
an arrival-order online filter that admits a document only if nothing seen
before it minhash-collides.

State: the set of all band signatures ever seen, stored per shard as two
independent 64-bit splitmix digests of the packed (band, bk0..bkR) int64
band signature (two sorted uint64 columns — the same exact-membership
layout as ``DedupStreamRunner``; hash collisions are the accepted ~2^-128
non-adversarial risk, the packed band signature itself is collision-free
vs the SQL twin). Fully vectorized — the previous md5-per-band-row Python
loop (16 digests/doc) dominated pass 1 at 1M-doc batches. State size is
O(unique band signatures) ≈ bands × unique docs — ~256 B/doc across all
shards.

Scale shape: signatures are computed by the vectorized ``FastMinHasher``
in the exchange's route tasks; band rows (16/doc) are exchanged once, hash-partitioned on the
band-signature hash (uniform, no salt needed); each shard task probes and
updates only its own sorted state slice. The per-batch dropped-id set
returned to the driver is bounded by the batch's document count (micro-batch
sized, never corpus sized).

Reference anchor: composes the connector's micro-batch offset/replay
contract (``_microbatch.py``) with the corpus near-dup family the reference
lacks.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ._microbatch import KeyedStateRunner, write_sink
from .dedup_stream import _first128, _member128, _seen128, _union128


def _splitmix64(h: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer — the standard 64-bit avalanche mix (public
    domain constants; Steele et al., "Fast Splittable Pseudorandom Number
    Generators", OOPSLA'14)."""
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def _band_hashes(rows: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """Two independent 64-bit digests of each packed band signature (band
    index chained in so equal keys in different bands never collide).
    Vectorized splitmix chains with distinct seeds replace the old
    md5-per-row loop — 16 Python digests/doc made the hash stage, not the
    minhash signatures, dominate 1M-doc batches."""
    n = len(rows)
    if n == 0:
        return np.array([], np.uint64), np.array([], np.uint64)
    cols = [rows["band"].to_numpy().astype(np.uint64)] + [
        rows[c].to_numpy().astype(np.uint64)
        for c in sorted(
            (c for c in rows.columns if c.startswith("bk")), key=lambda c: int(c[2:])
        )
    ]
    h1 = np.full(n, 0x243F6A8885A308D3, np.uint64)  # pi fractional bits
    h2 = np.full(n, 0x13198A2E03707344, np.uint64)
    for v in cols:
        h1 = _splitmix64(h1 ^ v)
        h2 = _splitmix64(h2 ^ (v + np.uint64(0x9E3779B97F4A7C15)))
    return h1, h2


@ray.remote
def _keep_row_group(
    path: str, rg: int, drop: np.ndarray, order_col: str, out_schema: pa.Schema,
    sink_dir: str, batch_id: int,
) -> int:
    """Survivor pass over one (file, row group): the rows whose ``order_col``
    is not in ``drop``, sorted, to sink ``part-<file stem>-g<rg>``."""
    tbl = pq.ParquetFile(path).read_row_group(rg)
    order = tbl[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
    tbl = tbl.filter(pa.array(~np.isin(order, drop)))
    tbl = tbl.select(out_schema.names).cast(out_schema).sort_by(order_col)
    stem = os.path.splitext(os.path.basename(path))[0]
    write_sink(sink_dir, batch_id, f"part-{stem}-g{rg:03d}", tbl)
    return tbl.num_rows


class MinHashStreamRunner(KeyedStateRunner):
    """Micro-batch arrival-order near-dup filter over
    ``log_dir/window-*.parquet`` document files (columns ``order_col``,
    ``text_col``). Log windows must be ordered by ``order_col`` (arrival
    order); shingle-less documents (empty normalized text) have no bands and
    are always kept, mirroring the batch LSH pipeline."""

    STATE_KIND = "bands"

    def __init__(
        self,
        log_dir: str,
        num_shards: int,
        sink_dir: str,
        checkpoint_dir: str,
        text_col: str = "text",
        order_col: str = "doc_id",
        num_perm: int = 64,
        ngram: int = 3,
        seed: int = 42,
        bands: int = 16,
    ):
        super().__init__(log_dir, num_shards, sink_dir, checkpoint_dir)
        self.text_col = text_col
        self.order_col = order_col
        self.num_perm = num_perm
        self.ngram = ngram
        self.seed = seed
        self.bands = bands

    def pins(self) -> dict:
        return {
            "num_shards": self.num_shards,
            # ws-re2: the shingle tokenizer's whitespace class is RE2's
            # exact [\t\n\f\r ] (\v removed) — state written by the older
            # \v-splitting tokenizer must fail loudly on resume
            "minhash_impl": f"{self.num_perm}/{self.ngram}/{self.seed}/{self.bands}"
            # the measured columns are replay identity too
            f"/{self.text_col}/{self.order_col}/ws-re2",
            # sink files are named by input (file, row-group) slice since the
            # survivor pass stopped shuffling by doc-shard, and band state is
            # the splitmix-128 of the packed signature — a checkpoint written
            # under the old shard-file/md5 layout must fail loudly
            "sink_layout": "rowgroup-v2",
            "band_hash": "splitmix128-v2",
        }

    def process(self, batch_id: int, bfiles: list[str]) -> dict:
        from ..functions.dedup import FastMinHasher, lsh_bucket_rows

        text_col, order_col = self.text_col, self.order_col
        num_shards, bands = self.num_shards, self.bands
        num_perm, ngram, seed = self.num_perm, self.ngram, self.seed

        out_schema = pq.read_schema(bfiles[0])
        if not pa.types.is_integer(out_schema.field(order_col).type):
            raise ValueError(
                f"order_col {order_col!r} must be an integer column "
                f"(got {out_schema.field(order_col).type}); arrival order "
                "and the sink shard layout are derived from it"
            )

        class BandRows:
            """Signature + band explosion + band-hash, one hasher per task."""

            def __init__(self):
                self.mh = FastMinHasher(num_perm=num_perm, ngram=ngram, seed=seed)

            def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
                b = b.rename(columns={order_col: "doc_id", text_col: "text"})
                rows = lsh_bucket_rows(
                    self.mh(b[["doc_id", "text"]]),
                    bands=bands,
                    rows_per_band=num_perm // bands,
                )
                h1, h2 = _band_hashes(rows)
                return pd.DataFrame(
                    {
                        "doc_id": rows["doc_id"].to_numpy(dtype=np.int64),
                        "_h1": h1,
                        "_h2": h2,
                        "_shard": (h1 % np.uint64(num_shards)).astype(np.int32),
                    }
                )

        def fold(g: pd.DataFrame, st: pa.Table | None):
            s1, s2 = _seen128(st)
            h1 = g["_h1"].to_numpy().astype(np.uint64)
            h2 = g["_h2"].to_numpy().astype(np.uint64)
            doc = g["doc_id"].to_numpy(dtype=np.int64)
            # arrival-first holder per equal band hash within the batch
            first = _first128(h1, h2, doc)
            # collided: a non-first row shares with an earlier in-batch doc;
            # a first row collides iff the hash was seen in a PRIOR batch
            collided = ~first | _member128(s1, s2, h1, h2)
            # state := prev ∪ this batch's new hashes (first holders only)
            new = first & ~collided
            state = _union128(s1, s2, h1[new], h2[new])
            return pd.DataFrame({"doc_id": np.unique(doc[collided])}), state, {}

        dropped_tbls = ray.get(
            self.keyed(bfiles, BandRows, fold, batch_id, batch_format="pandas", emit=True)
        )
        # a doc colliding in several shards is reported once per shard
        dropped = np.unique(
            np.concatenate(
                [t["doc_id"].to_numpy().astype(np.int64) for t in dropped_tbls]
            )
        )

        # survivor pass — NO exchange (fused per VERDICT r3 #8): one task per
        # input (file, row-group) slice reads its rows, drops the collided
        # ids (put once; each task gets them as a resolved argument) and
        # writes a sink file named by the slice. The name is a pure function
        # of the input layout, so replay is byte-stable without routing any
        # row anywhere.
        dropped_ref = ray.put(dropped)
        kept = sum(
            ray.get(
                [
                    _keep_row_group.remote(
                        f, rg, dropped_ref, order_col, out_schema, self.sink_dir, batch_id
                    )
                    for f in bfiles
                    for rg in range(pq.ParquetFile(f).metadata.num_row_groups)
                ]
            )
        )
        return {"rows": kept + len(dropped), "kept": kept, "dups": int(len(dropped))}
