"""The keyed exchange's task graph (``_microbatch.exchange``, under the lean
runners' ``keyed``, the composed runners' chained stages and
``CaptureRunner``'s shard, merge and fixup stages): running a small batch as
one task, or splitting a log file into several route slices, must not change
a byte of sink, state or manifest output, a crash on either path — or a
fault between chained stages or in the commit steps — must resume
byte-identically, empty partitions write nothing, every batch records
per-shard metrics, and no streaming runner builds a Ray Data plan."""

import ast
import functools
import glob
import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from scylla_cdc_source_connector_ray.config import EngineConfig
from scylla_cdc_source_connector_ray.pipelines import _microbatch
from scylla_cdc_source_connector_ray.pipelines import curation_stream as cur
from scylla_cdc_source_connector_ray.pipelines import dedup_stream as dd
from scylla_cdc_source_connector_ray.pipelines import distinct_stream as ds
from scylla_cdc_source_connector_ray.pipelines import element_stream as el
from scylla_cdc_source_connector_ray.pipelines import segment_stream as seg
from scylla_cdc_source_connector_ray.pipelines import substring_stream as sub
from scylla_cdc_source_connector_ray.pipelines import runner as capture
from scylla_cdc_source_connector_ray.pipelines import topk_stream as topk
from scylla_cdc_source_connector_ray.pipelines.runner import CaptureRunner
from scylla_cdc_source_connector_ray.sources.synthetic import (
    generate,
    to_image_log,
    write_bucketed,
)
from scylla_cdc_source_connector_ray.state.checkpoint import Checkpoint


def _docs(n=48):
    rng = np.random.default_rng(3)
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
    texts = [" ".join(rng.choice(words, 8)) for _ in range(n - 6)]
    texts += texts[:3] + texts[-3:]  # duplicates across and within windows
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts),
        }
    )


def _sourced_docs():
    """Docs for the curation chain: exact duplicates across windows, a
    repetitive doc, a doc holding a benchmark 3-gram, and more docs per
    source than the cap admits."""
    rng = np.random.default_rng(5)
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
    words += ["golf", "hotel", "india", "juliet", "kilo", "lima"]
    texts = [" ".join(rng.choice(words, 8)) for _ in range(42)]
    texts += texts[:4] + ["spam ham " * 20, "prefix the fast key order sort suffix"]
    return pa.table(
        {
            "doc_id": pa.array(np.arange(48, dtype=np.int64)),
            "text": pa.array(texts),
            "source": pa.array([["web", "wiki", "forum"][i % 3] for i in range(48)]),
        }
    )


def _kv():
    rng = np.random.default_rng(9)
    return pa.table(
        {
            "k": pa.array([f"k{i}" if i % 7 else None for i in rng.integers(0, 6, 60)]),
            "o": pa.array(np.arange(60, dtype=np.int64)),
            "v": pa.array(rng.integers(0, 100, 60).astype(np.int64)),
        }
    )


def _keys_ts():
    return pa.table(
        {
            "conv_id": pa.array([f"c{i % 5}" if i % 9 else None for i in range(40)]),
            "ts_us": pa.array(np.arange(40, dtype=np.int64) * 400),
        }
    )


def _elements():
    kinds = ["add", "remove", "wipe", "add"]
    return pa.table(
        {
            "conv_id": pa.array([f"c{i % 3}" for i in range(24)]),
            "turn_idx": pa.array([i % 3 for i in range(24)], pa.int32()),
            "ts": pa.array([10 * i for i in range(24)], pa.timestamp("us")),
            "seq": pa.array(np.arange(24, dtype=np.int64)),
            "kind": pa.array([kinds[i % 4] for i in range(24)]),
            "add_elems": pa.array(
                [[f"e{i % 5}"] if i % 4 != 1 else [] for i in range(24)],
                pa.list_(pa.string()),
            ),
            "rem_elems": pa.array(
                [[f"e{(i + 1) % 5}"] if i % 4 == 1 else [] for i in range(24)],
                pa.list_(pa.string()),
            ),
        }
    )


CASES = {
    "dedup": (_docs, lambda lg, o, c: dd.DedupStreamRunner(lg, 3, o, c)),
    "topk": (_kv, lambda lg, o, c: topk.TopKStreamRunner(lg, 3, c, ["k"], "v", 2, ["o"])),
    "distinct": (_keys_ts, lambda lg, o, c: ds.DistinctStreamRunner(lg, 3, c, window_us=2000)),
    "element_list": (_elements, lambda lg, o, c: el.ElementStreamRunner(lg, 3, o, c, "list")),
    "substring": (
        _docs,
        lambda lg, o, c: sub.SubstringDedupStreamRunner(lg, 3, o, c, k=3, num_parts=2),
    ),
    "segment": (
        _docs,
        lambda lg, o, c: seg.SegmentDedupStreamRunner(lg, 3, o, c, seg_words=3, num_parts=2),
    ),
    "curation": (_sourced_docs, lambda lg, o, c: cur.CurationStreamRunner(lg, 3, o, c, cap_k=4)),
}

#: The runners that chain a second exchange over the blocks of the first,
#: each with the state kind of its first exchange (only the second writes a
#: sink).
CHAINED = {"segment": "segs", "substring": "grams", "curation": "cseen"}


def _write_windows(log, table, n=4):
    os.makedirs(log)
    for i in range(n):
        lo, hi = i * table.num_rows // n, (i + 1) * table.num_rows // n
        pq.write_table(table.slice(lo, hi - lo), os.path.join(log, f"window-{i:05d}.parquet"))


def _fingerprint(root):
    """md5 of every sink, state, manifest and pins file under ``root``
    (per-batch metrics record wall seconds; the lock file is empty)."""
    out = {}
    for dp, _, files in os.walk(root):
        for f in files:
            rel = os.path.relpath(os.path.join(dp, f), root)
            if rel.startswith(os.path.join("ckpt", "metrics")) or f == "runner.lock":
                continue
            with open(os.path.join(dp, f), "rb") as fh:
                out[rel] = hashlib.md5(fh.read()).hexdigest()
    return out


def _metrics(root, batch_id=0):
    with open(os.path.join(root, "ckpt", "metrics", f"batch-{batch_id:06d}.json")) as fh:
        return json.load(fh)


def _run(root, name, crash=False, files_per_batch=1, fault=None):
    """Run a lean case to the end of its log. ``crash`` kills a first run
    before batch 1's commit; ``fault`` is an ``(install, check)`` pair as in
    :func:`_capture_run`."""
    table, make = CASES[name]
    root = str(root)
    log, out, ck = (os.path.join(root, x) for x in ("log", "sink", "ckpt"))
    _write_windows(log, table())
    if crash:
        run = make(log, out, ck).run(files_per_batch=files_per_batch, crash_before_commit_at=1)
        assert run["crashed"]
    if fault is not None:
        install, check = fault
        with pytest.MonkeyPatch.context() as mp:
            install(mp)
            with pytest.raises(_Fault):
                make(log, out, ck).run(files_per_batch=files_per_batch)
        check(Checkpoint(ck), out)
    runner = make(log, out, ck)
    totals = runner.run(files_per_batch=files_per_batch)
    slices = runner.slices(os.path.join(log, "window-00000.parquet"))
    return _fingerprint(root), totals, slices


@pytest.mark.parametrize("name", sorted(CASES))
def test_multi_slice_matches_single_slice(tmp_path, monkeypatch, name):
    """The one-task path (each 12-row window fits under ``SPLIT_ROWS``)
    against the two-stage graph with every file cut into several slices."""
    one, one_totals, one_slices = _run(tmp_path / "one", name)
    monkeypatch.setattr(_microbatch, "SPLIT_ROWS", 2)
    many, many_totals, many_slices = _run(tmp_path / "many", name)
    assert one_slices == 1 and many_slices > 1
    assert many == one
    assert many_totals == one_totals


@pytest.mark.parametrize("name", sorted(CASES))
def test_multi_slice_kill_resume_matches_clean_run(tmp_path, monkeypatch, name):
    clean = _run(tmp_path / "clean", name)[0]
    monkeypatch.setattr(_microbatch, "SPLIT_ROWS", 2)
    resumed = _run(tmp_path / "resumed", name, crash=True)[0]
    assert resumed == clean


def test_shard_without_rows_writes_no_state_or_sink(tmp_path):
    # every row carries the same text, so one of the 4 shards gets the batch
    log, out, ck = (str(tmp_path / x) for x in ("log", "sink", "ckpt"))
    os.makedirs(log)
    pq.write_table(
        pa.table({"doc_id": pa.array(np.arange(5, dtype=np.int64)), "text": ["same words"] * 5}),
        os.path.join(log, "window-00000.parquet"),
    )
    totals = dd.DedupStreamRunner(log, 4, out, ck).run(files_per_batch=1)
    assert (totals["rows"], totals["kept"], totals["dups"]) == (5, 1, 4)
    states = sorted(os.listdir(os.path.join(ck, "seen")))
    sinks = sorted(os.listdir(os.path.join(out, "batch-000000")))
    assert len(states) == 1 and len(sinks) == 1
    shard = int(states[0].split("=")[1])
    assert sinks == [f"shard-{shard:05d}.parquet"]
    m = _metrics(tmp_path)
    assert m["shard_rows_max"] == 1  # the route's combiner folds the 5 copies
    assert m["shard_rows_p50"] == 0


def test_zero_row_window_commits_with_zero_stats(tmp_path):
    log, out, ck = (str(tmp_path / x) for x in ("log", "sink", "ckpt"))
    os.makedirs(log)
    docs = _docs().slice(0, 8)
    pq.write_table(docs, os.path.join(log, "window-00000.parquet"))
    pq.write_table(docs.slice(0, 0), os.path.join(log, "window-00001.parquet"))
    r = dd.DedupStreamRunner(log, 3, out, ck)
    totals = r.run(files_per_batch=1)
    assert totals["batches"] == 2
    last = r.ckpt.last_committed()
    assert last["batch_id"] == 1 and last["consumed_files"] == 2
    assert last["cum"] == {"rows": 8, "kept": totals["kept"], "dups": totals["dups"]}
    m = _metrics(tmp_path, 1)
    assert (m["rows"], m["kept"], m["dups"]) == (0, 0, 0)
    assert m["shard_rows_max"] == 0
    assert not os.path.exists(os.path.join(out, "batch-000001"))


def test_batch_metrics_record_exchange_skew(tmp_path, monkeypatch):
    monkeypatch.setattr(_microbatch, "SPLIT_ROWS", 5)
    _run(tmp_path, "dedup")
    m = _metrics(tmp_path)
    for k in ("slices", "shard_rows_max", "shard_rows_p50", "fold_s_max", "fold_s_p50"):
        assert k in m
    assert m["slices"] == 3  # 12 rows a file, 5 rows a slice
    assert m["shard_rows_max"] >= m["shard_rows_p50"] > 0
    assert m["fold_s_max"] >= m["fold_s_p50"] >= 0


@pytest.mark.parametrize("name", sorted(CHAINED))
def test_chained_runner_metrics_record_last_exchange_skew(tmp_path, name):
    """The composed runners record the skew of their last exchange (the
    reassembly for segment and substring, the cap stage for curation)."""
    _run(tmp_path, name)
    for b in range(4):
        m = _metrics(tmp_path, b)
        for k in ("slices", "shard_rows_max", "shard_rows_p50", "fold_s_max", "fold_s_p50"):
            assert k in m
        assert m["slices"] >= 1
        assert m["shard_rows_max"] >= m["shard_rows_p50"]
        assert m["fold_s_max"] >= m["fold_s_p50"] >= 0
    assert _metrics(tmp_path)["shard_rows_max"] > 0


def test_stream_runners_build_no_ray_data_plan():
    """No ``pipelines/*_stream.py`` module imports or names ``ray.data``:
    every streaming stage runs on the keyed exchange or on plain tasks."""
    root = os.path.dirname(_microbatch.__file__)
    paths = sorted(glob.glob(os.path.join(root, "*_stream.py")))
    assert paths
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            else:
                continue
            bad = [n for n in names if n == "ray.data" or n.startswith("ray.data.")]
            assert not bad, f"{os.path.basename(path)}:{node.lineno} names {bad[0]}"


# --- CaptureRunner on the exchange ------------------------------------------

MINUTE = 60_000_000


def _transcripts():
    return generate(
        num_convs=12, turns_per_conv=8, update_pct=30, delete_pct=10, step_us=20_000_000
    )


def _hot_transcripts():
    return generate(num_convs=6, turns_per_conv=6, hot_convs=1, hot_turns=40)


def _pd_transcripts():
    """Conversation tombstones (turn_idx NULL) at the end, then a re-created turn."""
    t = _transcripts()
    n, ts = t.num_rows, int(t["ts"].cast(pa.int64()).to_numpy().max())
    marks = pa.table(
        {
            "conv_id": ["conv1", "conv2", "conv1"],
            "turn_idx": pa.array([None, None, 0], pa.int32()),
            "role": [None, None, "user"],
            "text": [None, None, "again"],
            "tool": pa.array([None] * 3, pa.string()),
            "ts": pa.array([ts + 1, ts + 2, ts + 3], pa.int64()).cast(pa.timestamp("us")),
            "seq": pa.array([n, n + 1, n + 2], pa.int64()),
        }
    ).select(t.column_names)
    return pa.concat_tables([t, marks.cast(t.schema)])


def _late_transcripts():
    """A turn of conv5 an hour ahead of the log, arriving first: conv5's
    shard's watermark runs an hour ahead of the others', so its later rows
    are late there and only there."""
    t = _transcripts()
    ahead = pa.table(
        {
            "conv_id": ["conv5"],
            "turn_idx": pa.array([99], pa.int32()),
            "role": ["user"],
            "text": ["ahead"],
            "tool": pa.array([None], pa.string()),
            "ts": pa.array([int(pc.max(t["ts"]).value) + 3_600_000_000], pa.int64()).cast(pa.timestamp("us")),
            "seq": pa.array([t.num_rows], pa.int64()),
        }
    ).select(t.column_names)
    return pa.concat_tables([ahead.cast(t.schema), t])


def _quiet_conv3():
    """conv3 has its first three rows only."""
    t = _transcripts()
    conv3 = pc.equal(t["conv_id"], "conv3").to_numpy(zero_copy_only=False)
    keep = ~conv3 | (np.cumsum(conv3) <= 3)
    return t.filter(pa.array(keep))


def _large_strings(t):
    return t.cast(pa.schema([f.with_type(pa.large_string()) if f.type == pa.string() else f for f in t.schema]))


def _write_evolved(log, table):
    """The last two windows gain a ``lang`` column."""
    _write_windows(log, table)
    for name in sorted(os.listdir(log))[2:]:
        path = os.path.join(log, name)
        w = pq.read_table(path)
        lang = pa.array([f"l{s % 4}" for s in w["seq"].to_pylist()])
        pq.write_table(w.append_column("lang", lang), path)


CAPTURE_CASES = {
    "flat": (_transcripts, {}, None),
    "perfbench": (
        _transcripts,
        {
            "score_text": True,
            "window_agg": True,
            "enrich_conv_state": True,
            "window_size_us": MINUTE,
        },
        None,
    ),
    "salted_sessions": (
        _hot_transcripts,
        {
            "session_gap_us": 3_000_000,
            "enrich_conv_state": True,
            "hot_key_threshold": 8,
            "salt_factor": 4,
        },
        ["conv0"],
    ),
    "salted_panes": (
        _hot_transcripts,
        {
            "window_agg": True,
            "window_agg_keys": ("conv_id",),
            "window_size_us": MINUTE,
            "hot_key_threshold": 8,
            "salt_factor": 4,
        },
        ["conv0"],
    ),
    "partition_delete": (_pd_transcripts, {"partition_deletes": True}, None),
    "evolved": (_transcripts, {}, None),
    "image": (
        lambda: to_image_log(_transcripts()),
        {"image_mode": True, "straggler_timeout_us": 10**15},
        None,
    ),
    # conv1 is tombstoned in the last window and salted across sub-shards
    "salted_pd": (
        _pd_transcripts,
        {"partition_deletes": True, "hot_key_threshold": 8, "salt_factor": 4},
        ["conv1"],
    ),
    "late_one_shard": (
        _late_transcripts,
        {"window_agg": True, "window_size_us": MINUTE, "enrich_conv_state": True},
        None,
    ),
    "sliding_sessions": (
        _late_transcripts,
        {"sliding_window_us": (2 * MINUTE, MINUTE), "session_gap_us": MINUTE},
        None,
    ),
    # a log written with large_string columns in which conv3 stops after its
    # first turns: only conv3's shard carries a conversation forward, the
    # one case where conv-state keeps the rows' encoding on other shards
    "large_strings": (
        lambda: _large_strings(_quiet_conv3()),
        {"window_agg": True, "window_size_us": MINUTE, "enrich_conv_state": True},
        None,
    ),
    # three conversations into 64 shards: most partitions are empty
    "sparse_64": (
        lambda: generate(num_convs=3, turns_per_conv=8, step_us=20_000_000),
        {"num_shards": 64, "window_agg": True, "window_size_us": MINUTE, "enrich_conv_state": True},
        None,
    ),
}


def _capture_run(root, name, crash=False, fault=None, files_per_batch=1):
    """Run a capture case to the end of its log and flush it. ``crash``
    kills the first run before batch 1's commit; ``fault`` is an
    ``(install, check)`` pair: ``install`` patches a ``MonkeyPatch`` for a
    first run that must raise :class:`_Fault`, ``check(ckpt, sink_dir)``
    asserts where it hit."""
    table, kw, hot = CAPTURE_CASES[name]
    root = str(root)
    log, out, ck = (os.path.join(root, x) for x in ("log", "sink", "ckpt"))
    if name == "evolved":
        _write_evolved(log, table())
    else:
        _write_windows(log, table())
    cfg = EngineConfig(sink_dir=out, checkpoint_dir=ck, **{"num_shards": 3, **kw})
    run = functools.partial(CaptureRunner.run, files_per_batch=files_per_batch, hot_convs=hot)
    if crash:
        totals = run(CaptureRunner(log, cfg), crash_before_commit_at=1)
        assert totals["crashed"]
    if fault is not None:
        install, check = fault
        with pytest.MonkeyPatch.context() as mp:
            install(mp)
            with pytest.raises(_Fault):
                run(CaptureRunner(log, cfg))
        check(Checkpoint(ck), out)
    runner = CaptureRunner(log, cfg)
    totals = run(runner)
    runner.flush_windows()
    slices = _microbatch.slices(os.path.join(log, "window-00000.parquet"), cfg.num_shards)
    return _fingerprint(root), totals, slices


@pytest.mark.parametrize("name", sorted(CAPTURE_CASES))
def test_capture_multi_slice_matches_single_slice(tmp_path, monkeypatch, name):
    """The one-task path folds every shard of a batch in one pass; the
    two-stage graph folds each shard in a task of its own."""
    one, one_totals, one_slices = _capture_run(tmp_path / "one", name)
    monkeypatch.setattr(_microbatch, "SPLIT_ROWS", 2)
    many, many_totals, many_slices = _capture_run(tmp_path / "many", name)
    assert one_slices == 1 and many_slices > 1
    assert many == one
    assert many_totals == one_totals
    if name == "salted_sessions":  # the salted merge and fixup stages ran
        assert any(k.startswith(os.path.join("ckpt", "cstate_hot")) for k in many)
    if name in ("late_one_shard", "sliding_sessions"):  # late rows, on one shard only
        assert many_totals["late"] > 0 and many_totals["late_dropped"] > 0
        late = {k.rsplit("=", 1)[1] for k in many if k.startswith(os.path.join("sink", "late", ""))}
        assert len(late) == 1


@pytest.mark.parametrize("name", sorted(CAPTURE_CASES))
def test_capture_multi_slice_kill_resume_matches_clean_run(tmp_path, monkeypatch, name):
    clean = _capture_run(tmp_path / "clean", name)[0]
    monkeypatch.setattr(_microbatch, "SPLIT_ROWS", 2)
    resumed = _capture_run(tmp_path / "resumed", name, crash=True)[0]
    assert resumed == clean


class _Fault(Exception):
    pass


def _merge_stage_never_ran(ck, out):
    # batch 1's shard stage wrote its envelope; nothing of it committed and
    # no salted merge wrote state for it
    assert os.listdir(os.path.join(out, "batch-000001"))
    assert ck.last_committed()["batch_id"] == 0
    kinds = ("wstate", "sessstate", "cstate_hot")
    assert any(os.path.exists(ck.state_path(s, 0, k)) for k in kinds for s in ck.state_shards(k))
    for kind in kinds:
        for shard in ck.state_shards(kind):
            assert not os.path.exists(ck.state_path(shard, 1, kind))


def _batch1_committed(ck, out):
    assert ck.last_committed()["batch_id"] == 1


def _second_exchange_of_batch1(mp):
    """The runner's second exchange of batch 1 — its first salted merge —
    raises: the shard stage has written, the merge has not."""
    calls = []
    real = capture.exchange

    def exchange(*args, **kw):
        if kw["batch_id"] == 1:
            calls.append(kw["shard_col"])
            if len(calls) == 2:
                raise _Fault(f"exchange keyed by {calls[-1]}")
        return real(*args, **kw)

    mp.setattr(capture, "exchange", exchange)


def _commit_after_rename(mp):
    """Batch 1's manifest is renamed into place, then the commit raises."""
    real = Checkpoint.commit

    def commit(self, batch_id, manifest):
        real(self, batch_id, manifest)
        if batch_id == 1:
            raise _Fault("after the manifest rename")

    mp.setattr(Checkpoint, "commit", commit)


def _gc_of_batch1(mp):
    """The state GC after batch 1's commit raises."""
    calls = []
    real = Checkpoint.gc_state

    def gc_state(self, keep_batches=2):
        calls.append(keep_batches)
        if len(calls) == 2:
            raise _Fault("state gc")
        return real(self, keep_batches)

    mp.setattr(Checkpoint, "gc_state", gc_state)


FAULTS = {
    "merge_exchange": (_second_exchange_of_batch1, _merge_stage_never_ran),
    "commit": (_commit_after_rename, _batch1_committed),
    "gc_state": (_gc_of_batch1, _batch1_committed),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("name", ["salted_panes", "salted_sessions"])
def test_capture_fault_resume_matches_clean_run(tmp_path, name, fault):
    clean = _capture_run(tmp_path / "clean", name)[0]
    resumed = _capture_run(tmp_path / "resumed", name, fault=FAULTS[fault])[0]
    assert resumed == clean


def _second_exchange_of_chained_batch1(mp):
    """A composed runner's second exchange of batch 1 (segment and
    substring's reassembly, curation's cap stage) raises once the first
    exchange's tasks have finished: its state is written, no sink is."""
    calls = []
    real = _microbatch.exchange

    def exchange(inputs, *args, **kw):
        if kw["batch_id"] == 1:
            calls.append(kw.get("shard_col"))
            if len(calls) == 2:
                ray.get([x for x in inputs if isinstance(x, ray.ObjectRef)])
                raise _Fault(f"exchange keyed by {calls[-1]}")
        return real(inputs, *args, **kw)

    mp.setattr(_microbatch, "exchange", exchange)
    mp.setattr(seg, "exchange", exchange)


def _chained_second_stage_never_ran(kind):
    def check(ck, out):
        assert ck.last_committed()["batch_id"] == 0
        assert not os.path.exists(os.path.join(out, "batch-000001"))
        assert any(os.path.exists(ck.state_path(s, 1, kind)) for s in ck.state_shards(kind))

    return check


@pytest.mark.parametrize("fault", ["commit", "gc_state", "second_exchange"])
@pytest.mark.parametrize("name", sorted(CHAINED))
def test_chained_runner_fault_resume_matches_clean_run(tmp_path, name, fault):
    injected = FAULTS.get(fault) or (
        _second_exchange_of_chained_batch1, _chained_second_stage_never_ran(CHAINED[name])
    )
    clean = _run(tmp_path / "clean", name)[0]
    resumed = _run(tmp_path / "resumed", name, fault=injected)[0]
    assert resumed == clean


def test_capture_shard_without_rows_writes_no_state_or_sink(tmp_path):
    # one conversation: one of the 4 shards gets the whole batch
    log, out, ck = (str(tmp_path / x) for x in ("log", "sink", "ckpt"))
    t = generate(num_convs=1, turns_per_conv=8)
    _write_windows(log, t, n=1)
    runner = CaptureRunner(log, EngineConfig(num_shards=4, sink_dir=out, checkpoint_dir=ck))
    assert runner.run()["events"] == t.num_rows
    states = sorted(os.listdir(os.path.join(ck, "state")))
    sinks = sorted(os.listdir(os.path.join(out, "batch-000000")))
    assert len(states) == 1 and len(sinks) == 1
    assert sinks == [f"{states[0]}.parquet"]
    m = _metrics(tmp_path)
    assert m["shards_active"] == 1
    assert m["shard_rows_max"] == t.num_rows and m["shard_rows_p50"] == 0


def test_capture_bucketed_shard_without_file_commits(tmp_path):
    log, out, ck = (str(tmp_path / x) for x in ("log", "sink", "ckpt"))
    write_bucketed(_transcripts(), log, num_shards=3, num_files=2)
    os.remove(os.path.join(log, "shard=2", "window-00001.parquet"))
    runner = CaptureRunner(log, EngineConfig(num_shards=3, sink_dir=out, checkpoint_dir=ck))
    assert runner.run()["batches"] == 2
    assert runner.ckpt.last_committed()["batch_id"] == 1
    state2 = os.listdir(os.path.join(ck, "state", "shard=2"))
    assert state2 == [os.path.basename(runner.ckpt.state_path(2, 0))]
    assert sorted(os.listdir(os.path.join(out, "batch-000001"))) == [
        "shard=0.parquet",
        "shard=1.parquet",
    ]
    m = _metrics(tmp_path, 1)
    assert m["shards_active"] == 2 and m["slices"] == 1


def test_capture_batch_metrics_record_exchange_skew(tmp_path, monkeypatch):
    monkeypatch.setattr(_microbatch, "SPLIT_ROWS", 10)
    _capture_run(tmp_path, "perfbench")
    m = _metrics(tmp_path)
    for k in ("events", "events_per_sec", "late", "watermark_max_us", "shards_active"):
        assert k in m  # the capture keys stay
    for k in ("slices", "shard_rows_max", "shard_rows_p50", "fold_s_max", "fold_s_p50"):
        assert k in m
    assert m["slices"] > 1
    assert m["shard_rows_max"] >= m["shard_rows_p50"]
    assert m["shard_rows_max"] > 0
    assert m["fold_s_max"] >= m["fold_s_p50"] >= 0


# --- one task per small batch -----------------------------------------------


class _NoGraph:
    """Stands in for a task of the two-stage graph: using it raises."""

    def options(self, **kw):
        raise _Fault("the two-stage graph ran")

    def remote(self, *args, **kw):
        raise _Fault("the two-stage graph ran")


def _no_graph(mp):
    mp.setattr(_microbatch, "_route_split", _NoGraph())
    mp.setattr(_microbatch, "_reduce", _NoGraph())


def test_batch_under_split_rows_runs_as_one_task(tmp_path, monkeypatch):
    _no_graph(monkeypatch)
    assert _run(tmp_path / "dedup", "dedup")[1]["batches"] == 4
    assert _capture_run(tmp_path / "flat", "flat")[1]["batches"] == 4
    monkeypatch.setattr(_microbatch, "SPLIT_ROWS", 2)
    with pytest.raises(_Fault):
        _run(tmp_path / "dedup_graph", "dedup")
    with pytest.raises(_Fault):
        _capture_run(tmp_path / "flat_graph", "flat")


@pytest.mark.parametrize("files_per_batch", [1, 2])
def test_split_rows_bounds_the_one_task_path(tmp_path, monkeypatch, files_per_batch):
    rows = 12 * files_per_batch  # the dedup log is four 12-row windows
    _no_graph(monkeypatch)
    monkeypatch.setattr(_microbatch, "SPLIT_ROWS", rows)
    _run(tmp_path / "at", "dedup", files_per_batch=files_per_batch)
    monkeypatch.setattr(_microbatch, "SPLIT_ROWS", rows - 1)
    with pytest.raises(_Fault):
        _run(tmp_path / "over", "dedup", files_per_batch=files_per_batch)


@pytest.mark.parametrize("name", ["dedup", "capture_perfbench"])
def test_two_file_batch_one_task_matches_graph(tmp_path, monkeypatch, name):
    """Two 12-row files a batch: one task, against the graph with one slice
    a file (the batch is over ``SPLIT_ROWS``, each file is not)."""

    def run(root):
        if name == "dedup":
            return _run(root, "dedup", files_per_batch=2)[:2]
        return _capture_run(root, "perfbench", files_per_batch=2)[:2]

    with monkeypatch.context() as mp:
        _no_graph(mp)
        one, one_totals = run(tmp_path / "one")
    monkeypatch.setattr(_microbatch, "SPLIT_ROWS", 12)
    graph, graph_totals = run(tmp_path / "graph")
    assert one_totals["batches"] == 2
    assert graph == one
    assert graph_totals == one_totals


def test_one_task_keeps_file_then_slice_order(tmp_path, monkeypatch):
    """Each partition gets its rows in file order, with the stage-2 values
    regrouped per partition as the two-stage graph returns them."""
    paths = []
    for i in range(2):
        x = np.arange(10 * i, 10 * i + 10)[::-1].copy()
        t = pa.table({"x": x, "_shard": (x * 7 % 3).astype(np.int32)})
        paths.append(str(tmp_path / f"window-{i:05d}.parquet"))
        pq.write_table(t, paths[-1])

    def fold(shard, rows, priors):
        return {"rows": rows}, {}, {"shard": shard}

    def run():
        refs = _microbatch.exchange(
            paths, _microbatch.each_partition(fold), 3, batch_id=0,
            ckpt_dir=str(tmp_path / "ckpt"), blocks=("rows",),
        )
        shards, blocks = _microbatch.gather(refs, ("rows",))
        rows = [ray.get(b)["x"].to_pylist() for b in blocks["rows"]]
        return [(s["stats"], s["rows"], s["slices"]) for s in shards], rows

    want = [[x for f in (range(9, -1, -1), range(19, 9, -1)) for x in f if x * 7 % 3 == p] for p in range(3)]
    with monkeypatch.context() as mp:
        _no_graph(mp)
        one = run()
    assert one[1] == want
    assert one[0] == [({"shard": p}, len(want[p]), 2) for p in range(3)]
    monkeypatch.setattr(_microbatch, "SPLIT_ROWS", 10)  # the graph, one slice a file
    assert run() == one
    monkeypatch.setattr(_microbatch, "SPLIT_ROWS", 3)  # the graph, four slices a file
    many = run()
    assert many[1] == want
    assert [s[2] for s in many[0]] == [8, 8, 8]


def test_fold_fault_in_one_task_resumes_like_clean_run(tmp_path, monkeypatch):
    """Batch 1's fold raises on its second partition inside the one task,
    before any partition wrote (the task folds every partition, then
    writes): nothing of batch 1 commits, and the resumed run equals a clean
    one."""
    clean = _run(tmp_path / "clean", "dedup")[0]
    table, make = CASES["dedup"]
    root = str(tmp_path / "resumed")
    log, out, ck = (os.path.join(root, x) for x in ("log", "sink", "ckpt"))
    _write_windows(log, table())
    assert make(log, out, ck).run(files_per_batch=1, crash_before_commit_at=1)["crashed"]
    real_plan = dd.DedupStreamRunner.plan

    def plan(self, batch_id, bfiles):
        route, fold = real_plan(self, batch_id, bfiles)
        calls = []

        def failing(rows, prior):
            calls.append(rows.num_rows)
            if len(calls) == 2:
                raise RuntimeError("fold fault")
            return fold(rows, prior)

        return route, failing

    with monkeypatch.context() as mp:
        _no_graph(mp)
        mp.setattr(dd.DedupStreamRunner, "plan", plan)
        with pytest.raises(Exception, match="fold fault"):
            make(log, out, ck).run(files_per_batch=1)
    assert Checkpoint(ck).last_committed()["batch_id"] == 0
    assert not os.path.exists(os.path.join(ck, "metrics", "batch-000001.json"))
    make(log, out, ck).run(files_per_batch=1)
    assert _fingerprint(root) == clean


# --- one fold call per task -------------------------------------------------


def _count_shard_folds(mp, path):
    """Every call of the capture shard stage's fold appends the shards it
    got to ``path`` (one JSON line per call, from whichever worker ran it)."""
    real = capture.exchange

    def exchange(inputs, fold, n, **kw):
        if kw.get("shard_col") == "shard":

            def counted(rows, priors, fold=fold):
                with open(path, "a") as f:
                    f.write(json.dumps(sorted(rows)) + "\n")
                return fold(rows, priors)

            fold = counted
        return real(inputs, fold, n, **kw)

    mp.setattr(capture, "exchange", exchange)


@pytest.mark.parametrize("layout", ["flat", "bucketed"])
def test_one_fold_call_per_task(tmp_path, monkeypatch, layout):
    """The one-task path calls the capture fold once per batch with every
    shard that has rows; the bucketed path, one task per shard, once per
    shard. ``fold_passes`` in the batch metrics counts the same calls."""
    log, out, ck = (str(tmp_path / x) for x in ("log", "sink", "ckpt"))
    calls = str(tmp_path / "calls.jsonl")
    if layout == "flat":
        _write_windows(log, _transcripts(), n=2)
    else:
        write_bucketed(_transcripts(), log, num_shards=4, num_files=2)
    _count_shard_folds(monkeypatch, calls)
    if layout == "flat":
        _no_graph(monkeypatch)
    cfg = EngineConfig(num_shards=4, sink_dir=out, checkpoint_dir=ck, window_agg=True, window_size_us=MINUTE)
    assert CaptureRunner(log, cfg).run()["batches"] == 2
    with open(calls) as f:
        got = [json.loads(line) for line in f]
    passes = [_metrics(tmp_path, b)["fold_passes"] for b in range(2)]
    active = [_metrics(tmp_path, b)["shards_active"] for b in range(2)]
    assert min(active) > 1  # a batch spans several shards
    if layout == "flat":
        assert passes == [1, 1]
        assert [len(shards) for shards in got] == active
    else:
        assert passes == active
        assert len(got) == sum(active) and all(len(shards) == 1 for shards in got)
    m = _metrics(tmp_path)
    assert m["io_s_max"] >= m["io_s_p50"] >= 0 and m["io_bytes_max"] >= m["io_bytes_p50"] > 0


@pytest.mark.parametrize("name", ["late_one_shard", "salted_sessions"])
def test_fold_state_bytes_bounds_each_fold_call(tmp_path, monkeypatch, name):
    """With ``FOLD_STATE_BYTES`` at 0 every group closes after one
    partition: the one-task path calls the capture fold once per shard with
    rows, and writes what one call over every shard writes (the salted
    merge stages, chained over blocks, run the two-stage graph)."""
    one = _capture_run(tmp_path / "one", name)[0]
    calls = str(tmp_path / "calls.jsonl")
    if name != "salted_sessions":
        _no_graph(monkeypatch)
    _count_shard_folds(monkeypatch, calls)
    monkeypatch.setattr(_microbatch, "FOLD_STATE_BYTES", 0)
    each = _capture_run(tmp_path / "each", name)[0]
    with open(calls) as f:
        got = [json.loads(line) for line in f]
    assert all(len(shards) == 1 for shards in got)
    m = _metrics(tmp_path / "each", 1)
    assert m["fold_passes"] == m["shards_active"] > 1
    assert each == one


def test_metrics_cli_shows_fold_and_io(tmp_path, capsys):
    """``metrics`` summarizes the per-batch fold passes and partition I/O."""
    import argparse

    from scylla_cdc_source_connector_ray.__main__ import cmd_metrics

    _capture_run(tmp_path, "perfbench")
    assert cmd_metrics(argparse.Namespace(checkpoint=str(tmp_path / "ckpt"))) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["batch_fold_passes_p50"] == 1 and out["total_fold_passes"] == out["batches"]
    assert out["batch_io_s_max_max"] >= out["batch_io_s_max_p50"] > 0
    assert out["batch_io_bytes_max_p50"] > 0 and out["batch_fold_s_max_p50"] > 0


# --- a fault between one partition's writes and the next's ------------------


def _fault_after_first_partition(module, stage_col):
    """Batch 1's ``stage_col`` exchange, on the one-task path, raises inside
    the body once the first folded partition's state and sink files are
    written and before the next partition's are: the fold's per-partition
    results refuse the second lookup."""

    def install(mp):
        real = module.exchange

        def exchange(inputs, fold, n, **kw):
            if kw["batch_id"] != 1 or kw.get("shard_col", "_shard") != stage_col:
                return real(inputs, fold, n, **kw)
            rows = sum(pq.read_metadata(path).num_rows for path in inputs)
            assert rows <= _microbatch.SPLIT_ROWS  # the one-task path

            def faulty(rows, priors, fold=fold):
                folded = fold(rows, priors)
                first = min(folded)

                class OnePartition(dict):
                    def __getitem__(self, p):
                        if p != first:
                            raise RuntimeError(f"fault before partition {p}'s writes")
                        return dict.__getitem__(self, p)

                return OnePartition(folded)

            refs = real(inputs, faulty, n, **kw)
            try:
                ray.get([r for x in refs for r in (x if isinstance(x, list) else [x])])
            except ray.exceptions.RayTaskError as e:
                raise _Fault(str(e)) from e
            raise AssertionError("the fault did not fire")

        mp.setattr(module, "exchange", exchange)

    return install


def _first_partition_written(kind, sink_name):
    """Batch 1 wrote one partition's ``kind`` state and sink, then stopped."""

    def check(ck, out):
        assert ck.last_committed()["batch_id"] == 0
        state = [s for s in ck.state_shards(kind) if os.path.exists(ck.state_path(s, 1, kind))]
        sinks = sorted(os.listdir(os.path.join(out, "batch-000001")))
        assert len(state) == 1
        assert sinks == [sink_name.format(state[0]) + ".parquet"]

    return check


@pytest.mark.parametrize("name", ["flat", "salted_sessions", "dedup"])
def test_fault_between_partition_writes_resumes_like_clean_run(tmp_path, name):
    if name == "dedup":
        fault = (_fault_after_first_partition(_microbatch, "_shard"), _first_partition_written("seen", "shard-{:05d}"))
        clean = _run(tmp_path / "clean", name)[0]
        resumed = _run(tmp_path / "resumed", name, fault=fault)[0]
    else:
        fault = (_fault_after_first_partition(capture, "shard"), _first_partition_written("state", "shard={}"))
        clean = _capture_run(tmp_path / "clean", name)[0]
        resumed = _capture_run(tmp_path / "resumed", name, fault=fault)[0]
    assert resumed == clean
