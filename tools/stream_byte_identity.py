"""Byte-identity fingerprint of the streaming runners: the 16 lean runners
(the dedup runner twice, once on whitespace and case variants) and
``CaptureRunner`` in fourteen configurations (flat and bucketed logs; the
perfbench scoring + panes + conv-state config, bucketed and flat with two
files per batch; salted hot conversations with sessions; image mode;
partition deletes, unsalted and with a tombstoned hot conversation; an
evolved column; sliding windows, unsalted sessions and salted
conversation-keyed panes, each with a late row; three conversations in 64
shards; 16 shards with late rows, sliding and session windows).

Runs every case on a tiny 4-window log, one file per batch unless the case
sets its own ``files_per_batch``, crashing once before the commit of batch
1 and then resuming (capture cases then flush their windows), and prints
one ``<case> <path> <md5> <content-md5>`` line per sink and state file
it leaves (the content md5 hashes the table's Arrow IPC stream with
the schema metadata dropped and list children named ``item``, so files
that differ only by the pandas metadata block, or only by their file
format, compare equal on it), and one ``<case> <path> <key>=<json>``
line per top-level key of ``pins.json`` and the manifests, so that an
added manifest key shows up as an added line (``metrics/*.json`` records wall
seconds and ``runner.lock`` is an empty lock file; both are skipped). Run it
on two checkouts and diff the outputs: a refactor of the runners must print
the same lines.

Usage: python tools/stream_byte_identity.py REPO_ROOT WORK_DIR [case ...]
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys


def _tables():
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    rng = np.random.default_rng(3)
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
    texts = [" ".join(rng.choice(words, 8)) for _ in range(44)]
    texts += texts[:4]  # exact duplicates in the last window
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(48, dtype=np.int64)),
            "text": pa.array(texts),
            "source": pa.array([["web", "wiki", "forum"][i % 3] for i in range(48)]),
        }
    )
    # whitespace / case variants of a few phrases: tabs, CRLF, space runs and
    # ASCII case dedup together; \v, NBSP and U+0085 are not RE2 whitespace,
    # and the non-ASCII capitals take the utf8_lower path
    phrases = ["Hello World again", "tab separated words", "ΣΑΣ Straße İstanbul", "Ǆemal É x"]
    variants = [
        lambda p: p,
        lambda p: p.replace(" ", "\t"),
        lambda p: p.replace(" ", "\r\n"),
        lambda p: " " + p.replace(" ", "   ") + " \n",
        lambda p: p.swapcase() if p.isascii() else p.lower(),
        lambda p: p.replace(" ", "\v"),
        lambda p: p.replace(" ", "\xa0"),
        lambda p: "\t" + p.replace(" ", "\x85"),
    ]
    ws_texts = [v(p) for v in variants for p in phrases] * 2
    ws_texts = [ws_texts[i] for i in np.random.default_rng(11).permutation(len(ws_texts))]
    ws_docs = pa.table(
        {"doc_id": pa.array(np.arange(len(ws_texts), dtype=np.int64)), "text": pa.array(ws_texts)}
    )
    rng = np.random.default_rng(9)
    kv = pa.table(
        {
            "k": pa.array([f"k{i}" if i % 7 else None for i in rng.integers(0, 6, 60)]),
            "o": pa.array(np.arange(60, dtype=np.int64)),
            "v": pa.array(rng.integers(0, 100, 60).astype(np.int64)),
            "f": pa.array(rng.random(60) * 50),
        }
    )
    ts0 = 1_700_000_000_000_000
    events = pa.table(
        {
            "event_id": pa.array(np.arange(20, dtype=np.int64)),
            "user_id": pa.array(np.arange(20, dtype=np.int64) % 3),
            "ts": pa.array(pd.to_datetime(ts0 + np.arange(20) * 60_000_000, unit="us")),
        }
    )
    keys_ts = pa.table(
        {
            "conv_id": pa.array([f"c{i % 5}" for i in range(20)]),
            "ts_us": pa.array(np.arange(20, dtype=np.int64) * 400),
        }
    )
    m = np.random.default_rng(5).standard_normal((16, 64)).astype(np.float32)
    m[-2:] = m[:2]
    vectors = pa.table(
        {
            "vec_id": pa.array(np.arange(16, dtype=np.int64)),
            "embedding": pa.array([v.tolist() for v in m], pa.list_(pa.float32())),
        }
    )
    kinds = ["add", "remove", "wipe", "add"]
    elements = pa.table(
        {
            "conv_id": pa.array([f"c{i % 3}" for i in range(12)]),
            "turn_idx": pa.array([i % 3 for i in range(12)], pa.int32()),
            "ts": pa.array([10 * i for i in range(12)], pa.timestamp("us")),
            "seq": pa.array(np.arange(12, dtype=np.int64)),
            "kind": pa.array([kinds[i % 4] for i in range(12)]),
            "add_elems": pa.array(
                [[f"e{i % 5}"] if i % 4 != 1 else [] for i in range(12)],
                pa.list_(pa.string()),
            ),
            "rem_elems": pa.array(
                [[f"e{(i + 1) % 5}"] if i % 4 == 1 else [] for i in range(12)],
                pa.list_(pa.string()),
            ),
        }
    )
    roles = ["user", "tool", "assistant"]
    turns = pa.table(
        {
            "conv_id": pa.array([f"conv{i % 4}" for i in range(30)]),
            "role": pa.array([roles[(i // 4) % 3] for i in range(30)]),
            "ts": pa.array(pd.to_datetime(ts0 + np.arange(30) * 1_000_000, unit="us")),
            "seq": pa.array(np.arange(30, dtype=np.int64)),
        }
    )
    return docs, ws_docs, kv, events, keys_ts, vectors, elements, turns


def _cases():
    from scylla_cdc_source_connector_ray.pipelines import (
        analytic_stream as an,
        cap_stream as cap,
        cep_stream as cep,
        curation_stream as cur,
        dedup_stream as dd,
        distinct_stream as ds,
        element_stream as el,
        embedding_stream as emb,
        hh_stream as hh,
        hist_stream as hist,
        kll_stream as kll,
        minhash_stream as mh,
        segment_stream as seg,
        session_stream as sess,
        substring_stream as sub,
        topk_stream as topk,
    )

    docs, ws_docs, kv, events, keys_ts, vectors, elements, turns = _tables()
    s = 3
    lean = {
        "dedup": (docs, lambda lg, o, c: dd.DedupStreamRunner(lg, s, o, c)),
        "dedup_ws": (ws_docs, lambda lg, o, c: dd.DedupStreamRunner(lg, s, o, c)),
        "element_list": (elements, lambda lg, o, c: el.ElementStreamRunner(lg, s, o, c, "list")),
        "element_set": (elements, lambda lg, o, c: el.ElementStreamRunner(lg, s, o, c, "set")),
        "cap": (docs, lambda lg, o, c: cap.SourceCapRunner(lg, s, o, c, k=5)),
        "analytic": (kv, lambda lg, o, c: an.AnalyticStreamRunner(lg, s, o, c, "k", "o", "v")),
        "cep_lit": (turns, lambda lg, o, c: cep.CepStreamRunner(lg, s, c, literal="uta")),
        "cep_re": (turns, lambda lg, o, c: cep.CepStreamRunner(lg, s, c, pattern="ut+a")),
        "curation": (docs, lambda lg, o, c: cur.CurationStreamRunner(lg, s, o, c, cap_k=4)),
        "distinct": (keys_ts, lambda lg, o, c: ds.DistinctStreamRunner(lg, s, c, window_us=2000)),
        "distinct_hll": (
            keys_ts,
            lambda lg, o, c: ds.DistinctStreamRunner(lg, s, c, 2000, mode="approx", hll_p=6),
        ),
        "emb": (vectors, lambda lg, o, c: emb.EmbeddingLshStreamRunner(lg, s, o, c)),
        "hh": (docs, lambda lg, o, c: hh.HeavyHittersStreamRunner(lg, c, m=16)),
        "hist": (kv, lambda lg, o, c: hist.HistStreamRunner(lg, s, c, 10.0, "k", "f")),
        "kll": (kv, lambda lg, o, c: kll.KllStreamRunner(lg, s, c, "k", "f", k=8)),
        "minhash": (docs, lambda lg, o, c: mh.MinHashStreamRunner(lg, s, o, c)),
        "segment": (
            docs,
            lambda lg, o, c: seg.SegmentDedupStreamRunner(lg, s, o, c, seg_words=3, num_parts=2),
        ),
        "session": (
            events,
            lambda lg, o, c: sess.SessionStreamRunner(lg, s, o, c, gap_us=90_000_000),
        ),
        "substring": (
            docs,
            lambda lg, o, c: sub.SubstringDedupStreamRunner(lg, s, o, c, k=3, num_parts=2),
        ),
        "topk": (kv, lambda lg, o, c: topk.TopKStreamRunner(lg, s, c, ["k"], "v", 2, ["o"])),
    }
    cases = {name: (_windows(t), make, {}) for name, (t, make) in lean.items()}
    cases.update(_capture_cases())
    return cases


def _windows(table):
    """Log writer: ``table`` cut into 4 window files."""
    import pyarrow.parquet as pq

    def write(log: str) -> None:
        n = table.num_rows
        for i in range(4):
            lo, hi = i * n // 4, (i + 1) * n // 4
            pq.write_table(table.slice(lo, hi - lo), os.path.join(log, f"window-{i:05d}.parquet"))

    return write


def _capture_cases():
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from scylla_cdc_source_connector_ray.config import EngineConfig
    from scylla_cdc_source_connector_ray.pipelines.runner import CaptureRunner
    from scylla_cdc_source_connector_ray.sources.synthetic import (
        generate,
        to_image_log,
        write_bucketed,
    )

    t = generate(num_convs=12, turns_per_conv=8, update_pct=30, delete_pct=10, step_us=20_000_000)
    hot = generate(num_convs=6, turns_per_conv=6, hot_convs=1, hot_turns=40)
    # conversation tombstones (turn_idx NULL) in the last window, then a re-created turn
    n, ts = t.num_rows, pc.max(t["ts"]).value
    marks = pa.table(
        {
            "conv_id": ["conv1", "conv2", "conv1"],
            "turn_idx": pa.array([None, None, 0], pa.int32()),
            "role": [None, None, "user"],
            "text": [None, None, "again"],
            "tool": pa.array([None] * 3, pa.string()),
            "ts": pa.array([ts + 1, ts + 2, ts + 3], pa.timestamp("us")),
            "seq": pa.array([n, n + 1, n + 2], pa.int64()),
        }
    ).select(t.column_names)
    pd_log = pa.concat_tables([t, marks.cast(t.schema)])

    def bucketed(log: str) -> None:
        write_bucketed(t, log, num_shards=3, num_files=4)

    def evolved(log: str) -> None:
        _windows(t)(log)
        for name in sorted(os.listdir(log))[2:]:
            path = os.path.join(log, name)
            w = pq.read_table(path)
            lang = pc.binary_join_element_wise("l", pc.cast(pc.bit_wise_and(w["seq"], 3), pa.string()), "")
            pq.write_table(w.append_column("lang", lang), path)

    # a new turn whose ts is the log's first instant, in the last window: late
    # for every window kind once the watermark has moved past the first panes
    def with_late(log: pa.Table, conv_id: str) -> pa.Table:
        late = pa.table(
            {
                "conv_id": [conv_id],
                "turn_idx": pa.array([99], pa.int32()),
                "role": ["user"],
                "text": ["late"],
                "tool": pa.array([None], pa.string()),
                "ts": pa.array([pc.min(log["ts"]).value], pa.timestamp("us")),
                "seq": pa.array([log.num_rows], pa.int64()),
            }
        ).select(log.column_names)
        return pa.concat_tables([log, late.cast(log.schema)])

    def capture(num_shards=3, **kw):
        return lambda lg, o, c: CaptureRunner(
            lg, EngineConfig(num_shards=num_shards, sink_dir=o, checkpoint_dir=c, **kw)
        )

    minute = 60_000_000
    few = generate(num_convs=3, turns_per_conv=8, update_pct=30, delete_pct=10, step_us=20_000_000)
    perfbench = capture(score_text=True, window_agg=True, enrich_conv_state=True, window_size_us=minute)
    return {
        "capture_flat": (_windows(t), capture(), {}),
        "capture_bucketed": (bucketed, capture(), {}),
        "capture_perfbench": (bucketed, perfbench, {}),
        # two flat files per batch: the exchange routes, splits and folds
        # both in one task, file by file
        "capture_flat_fpb2": (_windows(t), perfbench, {"files_per_batch": 2}),
        "capture_salted_sessions": (
            _windows(hot),
            capture(session_gap_us=3_000_000, enrich_conv_state=True, hot_key_threshold=8, salt_factor=4),
            {"hot_convs": ["conv0"]},
        ),
        "capture_image": (
            _windows(to_image_log(t)),
            capture(image_mode=True, straggler_timeout_us=10**15),
            {},
        ),
        "capture_pd": (_windows(pd_log), capture(partition_deletes=True), {}),
        "capture_pd_salted": (
            _windows(pd_log),
            capture(partition_deletes=True, hot_key_threshold=8, salt_factor=4),
            {"hot_convs": ["conv1"]},
        ),
        "capture_evolved": (evolved, capture(), {}),
        "capture_sliding": (
            _windows(with_late(t, "conv5")),
            capture(sliding_window_us=(2 * minute, minute)),
            {},
        ),
        "capture_sessions": (
            _windows(with_late(t, "conv5")),
            capture(session_gap_us=minute),
            {},
        ),
        "capture_keyed_panes_salted": (
            _windows(with_late(hot, "conv0")),
            capture(
                window_agg=True,
                window_agg_keys=("conv_id",),
                window_size_us=minute,
                hot_key_threshold=8,
                salt_factor=4,
            ),
            {"hot_convs": ["conv0"]},
        ),
        # three conversations into 64 shards: most partitions are empty
        "capture_flat_64": (_windows(few), capture(num_shards=64), {}),
        # 16 shards, late rows on two shards only, sliding and session windows
        "capture_flat_16_windows": (
            _windows(with_late(with_late(t, "conv5"), "conv7")),
            capture(num_shards=16, sliding_window_us=(2 * minute, minute), session_gap_us=minute),
            {},
        ),
    }


def _read(path: str):
    """A sink file through Parquet, a checkpoint state file through the
    checkpoint's own reader (a tree from before the IPC state format has
    none, and its state files are Parquet)."""
    import pyarrow.parquet as pq

    if path.endswith(".parquet"):
        return pq.read_table(path)
    from scylla_cdc_source_connector_ray.state.checkpoint import read_state_file

    return read_state_file(path)


def _item_named(typ):
    """``typ`` with every list's child field named ``item``: Parquet reads a
    list's child back as ``element`` where Arrow IPC keeps ``item``."""
    import pyarrow as pa

    if pa.types.is_list(typ) or pa.types.is_large_list(typ):
        make = pa.list_ if pa.types.is_list(typ) else pa.large_list
        v = typ.value_field
        return make(pa.field("item", _item_named(v.type), v.nullable))
    if pa.types.is_struct(typ):
        return pa.struct([f.with_type(_item_named(f.type)) for f in typ])
    return typ


def _content_md5(path: str) -> str:
    """md5 of the table's IPC stream without schema metadata, with list
    children named ``item`` whichever format the file is in."""
    import pyarrow as pa

    t = _read(path).replace_schema_metadata(None).combine_chunks()
    t = t.cast(pa.schema([f.with_type(_item_named(f.type)) for f in t.schema]))
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return hashlib.md5(sink.getvalue().to_pybytes()).hexdigest()


def main() -> int:
    root, work = os.path.abspath(sys.argv[1]), sys.argv[2]
    only = set(sys.argv[3:])
    # Ray workers import the runners from the same checkout
    sys.path.insert(0, root)
    os.environ["PYTHONPATH"] = os.pathsep.join([root, os.environ.get("PYTHONPATH", "")])
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    DataContext.get_current().use_polars_sort = True
    for name, (write_log, make, crash_kw) in _cases().items():
        if only and name not in only:
            continue
        d = os.path.join(work, name)
        shutil.rmtree(d, ignore_errors=True)
        log, out, ck = (os.path.join(d, x) for x in ("log", "sink", "ckpt"))
        os.makedirs(log)
        write_log(log)
        crash_kw = {"files_per_batch": 1, **crash_kw}
        make(log, out, ck).run(crash_before_commit_at=1, **crash_kw)
        runner = make(log, out, ck)
        totals = runner.run(files_per_batch=crash_kw["files_per_batch"])
        if hasattr(runner, "flush_windows"):
            runner.flush_windows()
        print(name, "totals", sorted(totals.items()), flush=True)
        for top in (out, ck):
            for dp, _, files in sorted(os.walk(top)):
                for f in sorted(files):
                    rel = os.path.relpath(os.path.join(dp, f), d)
                    if rel.startswith(os.path.join("ckpt", "metrics")) or f == "runner.lock":
                        continue
                    if f.endswith(".json"):
                        with open(os.path.join(d, rel)) as fh:
                            for k, v in sorted(json.load(fh).items()):
                                print(name, rel, f"{k}={json.dumps(v, sort_keys=True)}", flush=True)
                        continue
                    path = os.path.join(d, rel)
                    with open(path, "rb") as fh:
                        md5 = hashlib.md5(fh.read()).hexdigest()
                    print(name, rel, md5, _content_md5(path), flush=True)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
