"""Streaming per-source admission cap: cross-batch quota state,
exactly-once replay, null keys."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from scylla_cdc_source_connector_ray.pipelines.cap_stream import SourceCapRunner


def _write_log(tmp, frames):
    log = os.path.join(tmp, "log")
    os.makedirs(log, exist_ok=True)
    for i, df in enumerate(frames):
        pq.write_table(
            pa.Table.from_pandas(df, preserve_index=False),
            os.path.join(log, f"window-{i:05d}.parquet"),
        )
    return log


def _runner(tmp, log, k=2, name="r"):
    return SourceCapRunner(
        log,
        num_shards=4,
        sink_dir=os.path.join(tmp, name, "out"),
        checkpoint_dir=os.path.join(tmp, name, "ckpt"),
        k=k,
    )


def _mk(ids, sources):
    return pd.DataFrame({"doc_id": np.array(ids, np.int64), "source": sources})


def test_cap_across_batches(tmp_path):
    tmp = str(tmp_path)
    # source "x" exhausts its quota (k=2) in batch 0; batch 1 must admit
    # zero more "x" rows but still admit "y"'s second row
    log = _write_log(
        tmp,
        [
            _mk([0, 1, 2], ["x", "x", "y"]),
            _mk([3, 4, 5], ["x", "y", "x"]),
        ],
    )
    r = _runner(tmp, log, k=2)
    totals = r.run(files_per_batch=1)
    assert totals == {
        "batches": 2,
        "rows": 6,
        "admitted": 4,
        "rejected": 2,
        # batch 1: "x" saturated after batch 0, its rows (3, 5) dropped
        # pre-exchange by the saturated-key prefilter — only "y" crosses
        "exchanged": 4,
        "crashed": False,
    }
    out = r.read_output().to_pandas().sort_values("doc_id")
    assert list(out["doc_id"]) == [0, 1, 2, 4]


def test_cap_equals_batch_answer_and_null_keys(tmp_path):
    """Micro-batching must not change the admitted set: streaming over any
    split == the k lowest doc_ids per source; NULL source is one group."""
    tmp = str(tmp_path)
    rng = np.random.default_rng(7)
    sources = [
        None if rng.random() < 0.15 else f"s{int(rng.integers(0, 5))}"
        for _ in range(120)
    ]
    df = _mk(range(120), sources)
    want = (
        df.assign(rk=df.groupby(df["source"].fillna("\0NULL"))["doc_id"].rank("first"))
        .query("rk <= 3")["doc_id"]
        .tolist()
    )
    for nf, fpb, name in [(1, 1, "one"), (4, 1, "four"), (4, 2, "two")]:
        frames = [
            df.iloc[i * 120 // nf : (i + 1) * 120 // nf].reset_index(drop=True)
            for i in range(nf)
        ]
        log = _write_log(os.path.join(tmp, name), frames)
        r = _runner(os.path.join(tmp, name), log, k=3, name=name)
        r.run(files_per_batch=fpb)
        got = sorted(r.read_output().to_pandas()["doc_id"].tolist())
        assert got == sorted(want), f"split {name} changed the admitted set"


def test_cap_kill_resume_replay_identical(tmp_path):
    tmp = str(tmp_path)
    frames = [
        _mk(range(i * 10, (i + 1) * 10), [f"s{j % 3}" for j in range(10)])
        for i in range(4)
    ]
    log = _write_log(tmp, frames)
    ref = _runner(tmp, log, k=5, name="ref")
    ref.run(files_per_batch=2)
    want = ref.read_output().to_pandas().sort_values("doc_id")

    r = _runner(tmp, log, k=5, name="crash")
    crashed = r.run(files_per_batch=2, crash_before_commit_at=1)
    assert crashed["crashed"]
    resumed = r.run(files_per_batch=2)
    assert not resumed["crashed"]
    got = r.read_output().to_pandas().sort_values("doc_id")
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True)
    )


def test_cap_resume_pin_mismatch_fails_loudly(tmp_path):
    tmp = str(tmp_path)
    log = _write_log(tmp, [_mk([0, 1], ["x", "y"]), _mk([2, 3], ["x", "y"])])
    r = _runner(tmp, log, k=2)
    r.run(files_per_batch=1, max_batches=1)
    import pytest

    with pytest.raises(ValueError, match="replay"):
        _runner(tmp, log, k=3).run(files_per_batch=1)


def test_cap_hash_impl_pin_rejects_mismatch(tmp_path, monkeypatch):
    """Keys route through the polars-backed shard hash: a resume under a
    different hash identity (a polars upgrade) could send a key to a shard
    without its admitted count and over-admit it — it must fail loudly."""
    import pytest

    from scylla_cdc_source_connector_ray.pipelines import cap_stream

    tmp = str(tmp_path)
    log = _write_log(tmp, [_mk([0, 1], ["x", "y"]), _mk([2, 3], ["x", "y"])])
    _runner(tmp, log).run(files_per_batch=1, max_batches=1)
    monkeypatch.setattr(cap_stream, "current_hash_impl", lambda: "polars-0.0.0")
    with pytest.raises(ValueError, match="hash_impl"):
        _runner(tmp, log).run(files_per_batch=1)


def test_cap_follow_live_tail(tmp_path):
    """follow() enforces the quota across tail polls exactly as run() does
    across batches: a late-arriving file cannot re-open an exhausted key."""
    import threading
    import time

    tmp = str(tmp_path)
    log = _write_log(tmp, [_mk([0, 1], ["x", "x"])])  # exhausts x at k=2
    r = _runner(tmp, log, k=2)

    def writer():
        time.sleep(0.6)
        df = _mk([2, 3], ["x", "y"])  # x over quota, y fresh
        tmp_f = os.path.join(log, ".window-00001.parquet.tmp")
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False), tmp_f)
        os.rename(tmp_f, os.path.join(log, "window-00001.parquet"))

    t = threading.Thread(target=writer)
    t.start()
    totals = r.follow(files_per_batch=1, poll_interval_s=0.3, idle_polls=4)
    t.join()
    assert totals["batches"] == 2
    got = sorted(r.read_output().to_pandas()["doc_id"].tolist())
    assert got == [0, 1, 3]  # doc 2 rejected across the tail poll


def test_cap_int64_keys_with_nulls(tmp_path):
    """Integer key columns survive the arrow-native path end-to-end: no
    float64 round-trip (ids past 2^53 stay exact) and NULL keys stay one
    group across batches."""
    tmp = str(tmp_path)
    big = (1 << 60) + 7  # not representable as float64
    frames = [
        pd.DataFrame(
            {
                "doc_id": np.array([0, 1, 2], np.int64),
                "source": pd.array([big, None, big], dtype="Int64"),
            }
        ),
        pd.DataFrame(
            {
                "doc_id": np.array([3, 4, 5], np.int64),
                "source": pd.array([big, None, None], dtype="Int64"),
            }
        ),
    ]
    log = _write_log(tmp, frames)
    r = SourceCapRunner(
        log,
        num_shards=2,
        sink_dir=os.path.join(tmp, "out"),
        checkpoint_dir=os.path.join(tmp, "ckpt"),
        k=2,
        key_col="source",
    )
    r.run(files_per_batch=1)
    out = r.read_output().sort_by([("doc_id", "ascending")])
    # big: docs 0,2 admitted, 3 over quota; null: docs 1,4 admitted, 5 over
    assert out["doc_id"].to_pylist() == [0, 1, 2, 4]
    # assert at the ARROW level: pandas would render nullable int64 as
    # float64 and mask whether the engine preserved the exact value
    assert out.schema.field("source").type == pa.int64()
    assert out["source"].to_pylist() == [big, None, big, None]


def test_saturated_key_prefilter_drops_pre_exchange(tmp_path):
    """Capped-head distribution: once the hot key saturates, its rows stop
    crossing the exchange (exchanged << rows in later batches) while the
    admitted set stays exactly the first-k per key."""
    tmp = str(tmp_path)
    # batch 0: hot saturates (k=3). batches 1..3: 90% hot traffic.
    frames = [_mk([0, 1, 2, 3], ["hot", "hot", "hot", "cold"])]
    nid = 4
    for _ in range(3):
        ids = list(range(nid, nid + 10))
        frames.append(_mk(ids, ["hot"] * 9 + [f"c{nid}"]))
        nid += 10
    log = _write_log(tmp, frames)
    r = _runner(tmp, log, k=3)
    totals = r.run(files_per_batch=1)
    assert totals["rows"] == 34
    # batch 0 exchanges all 4 rows; batches 1-3 exchange only the 1
    # non-hot row each (hot is saturated from batch 0's committed state)
    assert totals["exchanged"] == 4 + 3 * 1
    out = sorted(r.read_output().to_pandas()["doc_id"].tolist())
    assert out == [0, 1, 2, 3, 13, 23, 33]
    # replay identity: a crash-resume admits the identical set
    r2 = _runner(tmp, log, k=3, name="crash")
    crashed = r2.run(files_per_batch=1, crash_before_commit_at=2)
    assert crashed["crashed"]
    r2.run(files_per_batch=1)
    out2 = sorted(r2.read_output().to_pandas()["doc_id"].tolist())
    assert out2 == out
