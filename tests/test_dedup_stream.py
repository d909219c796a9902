"""Streaming first-occurrence dedup runner: cross-batch seen-set state,
exactly-once replay, kill-resume."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from scylla_cdc_source_connector_ray.pipelines.dedup_stream import DedupStreamRunner


def _write_log(tmp, frames):
    log = os.path.join(tmp, "log")
    os.makedirs(log, exist_ok=True)
    for i, df in enumerate(frames):
        pq.write_table(
            pa.Table.from_pandas(df, preserve_index=False),
            os.path.join(log, f"window-{i:05d}.parquet"),
        )
    return log


def _runner(tmp, log, name="r"):
    return DedupStreamRunner(
        log,
        num_shards=4,
        sink_dir=os.path.join(tmp, name, "out"),
        checkpoint_dir=os.path.join(tmp, name, "ckpt"),
    )


def _mk(ids, texts):
    return pd.DataFrame({"doc_id": np.array(ids, np.int64), "text": texts})


def test_cross_batch_and_within_batch_dedup(tmp_path):
    tmp = str(tmp_path)
    # "b" duplicated within window 0; "a" re-appears in window 1 (cross-batch);
    # "  A  " normalizes to "a" too (whitespace/case normalization)
    log = _write_log(
        tmp,
        [
            _mk([0, 1, 2], ["a", "b", "b"]),
            _mk([3, 4, 5], ["a", "  A  ", "c"]),
        ],
    )
    r = _runner(tmp, log)
    totals = r.run(files_per_batch=1)
    assert totals == {"batches": 2, "rows": 6, "kept": 3, "dups": 3, "crashed": False}
    out = r.read_output().to_pandas().sort_values("doc_id")
    assert list(out["doc_id"]) == [0, 1, 5]
    assert list(out["text"]) == ["a", "b", "c"]


def test_kill_resume_no_duplicates(tmp_path):
    tmp = str(tmp_path)
    rng = np.random.default_rng(3)
    frames = [
        _mk(
            np.arange(i * 50, (i + 1) * 50),
            [f"t{rng.integers(0, 40)}" for _ in range(50)],
        )
        for i in range(4)
    ]
    log = _write_log(tmp, frames)

    crash = _runner(tmp, log, "crash")
    t = crash.run(files_per_batch=1, crash_before_commit_at=2)
    assert t["crashed"] and t["batches"] == 2  # batch 2 processed, NOT committed
    resumed = _runner(tmp, log, "crash")
    resumed.run(files_per_batch=1)  # replays batch 2, continues
    got = resumed.read_output().to_pandas().sort_values("doc_id")

    clean = _runner(tmp, log, "clean")
    clean.run(files_per_batch=1)
    want = clean.read_output().to_pandas().sort_values("doc_id")

    pd.testing.assert_frame_equal(got.reset_index(drop=True), want.reset_index(drop=True))
    # exactly one row per normalized text
    assert got["text"].str.strip().str.lower().is_unique


def test_num_shards_change_is_rejected(tmp_path):
    tmp = str(tmp_path)
    log = _write_log(tmp, [_mk([0], ["x"])])
    _runner(tmp, log).run()
    other = DedupStreamRunner(
        log,
        num_shards=8,
        sink_dir=os.path.join(tmp, "r", "out"),
        checkpoint_dir=os.path.join(tmp, "r", "ckpt"),
    )
    import pytest

    with pytest.raises(ValueError, match="num_shards"):
        other.run()


def test_follow_live_tail_drains_arriving_files(tmp_path):
    """follow() keeps draining while a writer lands new window files, then
    exits after idle_polls empty polls; resume contract identical to run()."""
    import threading
    import time

    tmp = str(tmp_path)
    log = _write_log(tmp, [_mk([0, 1], ["a", "b"])])
    r = _runner(tmp, log)

    def writer():
        time.sleep(0.6)
        for i, (ids, texts) in enumerate([([2], ["a"]), ([3], ["c"])], start=1):
            df = _mk(ids, texts)
            tmp_f = os.path.join(log, f".window-{i:05d}.parquet.tmp")
            pq.write_table(pa.Table.from_pandas(df, preserve_index=False), tmp_f)
            os.rename(tmp_f, os.path.join(log, f"window-{i:05d}.parquet"))
            time.sleep(0.4)

    t = threading.Thread(target=writer)
    t.start()
    totals = r.follow(files_per_batch=1, poll_interval_s=0.3, idle_polls=4)
    t.join()
    assert totals["batches"] == 3  # all three windows consumed
    got = sorted(r.read_output()["doc_id"].to_pylist())
    assert got == [0, 1, 3]  # doc 2 is a dup of doc 0 across a tail poll


def test_out_of_order_file_arrival_is_rejected(tmp_path):
    """Positional consumption requires monotone window names: a file landing
    BEFORE already-consumed names must fail loud, not silently re-process a
    consumed file and skip the new one."""
    tmp = str(tmp_path)
    log = _write_log(tmp, [])
    pq.write_table(
        pa.Table.from_pandas(_mk([0], ["x"]), preserve_index=False),
        os.path.join(log, "window-00005.parquet"),
    )
    r = _runner(tmp, log)
    r.run(files_per_batch=1)
    # a straggler sorting before the consumed file
    pq.write_table(
        pa.Table.from_pandas(_mk([1], ["y"]), preserve_index=False),
        os.path.join(log, "window-00002.parquet"),
    )
    import pytest

    with pytest.raises(ValueError, match="monotone"):
        _runner(tmp, log).run(files_per_batch=1)


def test_norm_impl_change_is_rejected(tmp_path, monkeypatch):
    """A checkpoint written under different text-normalization semantics must
    fail loudly on resume (the seen-set hashes would no longer match new
    batches' hashes, silently re-admitting previously-seen docs)."""
    tmp = str(tmp_path)
    log = _write_log(tmp, [_mk([0], ["x"]), _mk([1], ["y"])])
    _runner(tmp, log).run(files_per_batch=1, max_batches=1)

    from scylla_cdc_source_connector_ray.functions import textops

    monkeypatch.setattr(textops, "NORM_IMPL", "python-re-unicode-ws-v1")
    import pytest

    with pytest.raises(ValueError, match="norm_impl"):
        _runner(tmp, log).run(files_per_batch=1)


def test_seen_state_is_gc_pruned(tmp_path):
    tmp = str(tmp_path)
    log = _write_log(tmp, [_mk([i], [f"t{i}"]) for i in range(5)])
    r = _runner(tmp, log)
    r.run(files_per_batch=1)
    shards = r.ckpt.state_shards("seen")
    assert shards
    for shard in shards:
        kept = [b for b in range(5) if os.path.exists(r.ckpt.state_path(shard, b, "seen"))]
        assert 1 <= len(kept) <= 2, (shard, kept)  # gc keeps 2 batches per shard


def test_files_per_batch_change_is_rejected(tmp_path):
    tmp = str(tmp_path)
    log = _write_log(tmp, [_mk([0], ["x"]), _mk([1], ["y"])])
    r = _runner(tmp, log)
    r.run(files_per_batch=1, max_batches=1)
    import pytest

    with pytest.raises(ValueError, match="files_per_batch"):
        _runner(tmp, log).run(files_per_batch=2)


def test_checkpoint_construction_creates_nothing(tmp_path):
    """A ``Checkpoint`` is path math: constructing one (as every fold task
    does) makes no directory, and a run writes only the kinds it uses."""
    from scylla_cdc_source_connector_ray.state.checkpoint import Checkpoint

    missing = str(tmp_path / "nope" / "ckpt")
    ck = Checkpoint(missing)
    assert not os.path.exists(os.path.dirname(missing))
    assert ck.last_committed() is None
    assert ck.load_state(0, before_batch=5, kind="seen") is None
    tmp = str(tmp_path)
    log = _write_log(tmp, [_mk([0, 1], ["a", "b"]), _mk([2], ["a"])])
    r = _runner(tmp, log)
    assert not os.path.exists(os.path.join(tmp, "r", "ckpt"))
    r.run(files_per_batch=1)
    ckpt = os.path.join(tmp, "r", "ckpt")
    assert sorted(os.listdir(ckpt)) == ["manifest", "metrics", "pins.json", "runner.lock", "seen"]


def test_whitespace_and_case_variants_across_text_encodings(tmp_path):
    """Tabs, CRLF, space runs and case dedup together; ``\\v``, NBSP and
    U+0085 are not RE2 whitespace and keep documents apart. Windows carry
    the text as large_string, as an all-NULL (untyped) column and as
    string."""
    tmp = str(tmp_path)
    log = os.path.join(tmp, "log")
    os.makedirs(log)
    windows = [
        pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array(["Hello  World", "x\vy", "ΣΑΣ İ"], pa.large_string())}),
        pa.table({"doc_id": pa.array([3, 4], pa.int64()), "text": pa.array([None, None])}),
        pa.table({"doc_id": pa.array([5, 6, 7, 8, 9, 10, 11], pa.int64()),
                  "text": pa.array(["\thello\r\nWORLD ", "x y", "x\xa0y", "x\x85y", "",
                                    "σασ\t\ti", " \t "], pa.string())}),
    ]
    for i, t in enumerate(windows):
        pq.write_table(t, os.path.join(log, f"window-{i:05d}.parquet"))
    r = _runner(tmp, log)
    totals = r.run(files_per_batch=1)
    assert totals["rows"] == 12
    out = r.read_output()
    kept = sorted(out["doc_id"].to_pylist())
    # 5 ≡ 0 (whitespace + case); 9 and 11 ≡ 3 (NULL, "" and blank all hash
    # as ""); 10 ≡ 2 (utf8_lower: Σ → σ without a final-sigma rule, İ → i)
    assert kept == [0, 1, 2, 3, 6, 7, 8]
