"""Micro-batch runner: checkpointing, exactly-once kill-resume, heartbeats,
watermarks (fixtures T6/T4 of FIXTURES.md; reference offset-resume semantics
``ScyllaConnectorTask.java:163-211`` upgraded to exactly-once)."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from scylla_cdc_source_connector_ray.config import EngineConfig
from scylla_cdc_source_connector_ray.pipelines.runner import CaptureRunner
from scylla_cdc_source_connector_ray.sources.synthetic import generate, write_windowed
from scylla_cdc_source_connector_ray.stages.envelope import flatten_envelope
from scylla_cdc_source_connector_ray.state.checkpoint import Checkpoint
from tests.oracle import cdc_oracle


def _cfg(tmp_path, **kw):
    kw.setdefault("num_shards", 8)
    return EngineConfig(
        sink_dir=str(tmp_path / "out"),
        checkpoint_dir=str(tmp_path / "ckpt"),
        **kw,
    )


def _flat_output(runner) -> pd.DataFrame:
    env = runner.read_output()
    df = flatten_envelope(env).to_pandas()
    return df.sort_values(["conv_id", "turn_idx", "seq"]).reset_index(drop=True)


def _golden(t: pa.Table) -> pd.DataFrame:
    g = cdc_oracle(t.to_pandas())
    return g.sort_values(["conv_id", "turn_idx", "seq"]).reset_index(drop=True)


def _assert_matches_golden(out: pd.DataFrame, golden: pd.DataFrame):
    assert len(out) == len(golden)
    for c in ("op", "after_text", "before_text", "after_role"):
        assert out[c].fillna("~").tolist() == golden[c].fillna("~").tolist(), c


def test_runner_matches_batch_oracle(tmp_path):
    t = generate(num_convs=30, turns_per_conv=10, update_pct=40, delete_pct=15)
    write_windowed(t, str(tmp_path / "log"), num_files=4)
    runner = CaptureRunner(str(tmp_path / "log"), _cfg(tmp_path))
    totals = runner.run()
    assert totals["batches"] == 4
    _assert_matches_golden(_flat_output(runner), _golden(t))


def test_kill_resume_no_dups_no_gaps(tmp_path):
    """Crash after batch 1's data+state writes but before its manifest commit
    (worst case), then resume: output must equal the golden with unique
    (conv_id, turn_idx, seq) keys — exactly-once."""
    t = generate(num_convs=25, turns_per_conv=8, update_pct=40, delete_pct=15)
    write_windowed(t, str(tmp_path / "log"), num_files=3)
    cfg = _cfg(tmp_path)

    r1 = CaptureRunner(str(tmp_path / "log"), cfg)
    totals1 = r1.run(crash_before_commit_at=1)
    assert totals1.get("crashed")
    assert totals1["batches"] == 1  # only batch 0 committed

    r2 = CaptureRunner(str(tmp_path / "log"), cfg)
    totals2 = r2.run()
    assert totals2["batches"] == 2  # batches 1 (replayed) and 2

    out = _flat_output(r2)
    golden = _golden(t)
    _assert_matches_golden(out, golden)
    # exactly-once key uniqueness
    keys = out[["conv_id", "turn_idx", "seq"]]
    assert not keys.duplicated().any()


def test_heartbeat_on_empty_batch(tmp_path):
    """An empty log file still advances the manifest (reference heartbeat
    rationale ScyllaConnectorConfig.java:350-363)."""
    t = generate(num_convs=5, turns_per_conv=4)
    log = tmp_path / "log"
    write_windowed(t, str(log), num_files=2)
    # middle file: valid schema, zero rows
    empty = t.slice(0, 0)
    pq.write_table(empty, str(log / "window-00001a-empty.parquet"))
    runner = CaptureRunner(str(log), _cfg(tmp_path))
    totals = runner.run()
    assert totals["batches"] == 3
    last = runner.ckpt.last_committed()
    assert last["consumed_files"] == 3
    _assert_matches_golden(_flat_output(runner), _golden(t))


def test_watermarks_and_late_metric(tmp_path):
    """Rows older than (shard watermark − allowed_lateness) arriving in a
    later batch are counted late (fixture T4 semantics: the CDC events are
    still emitted — lateness gates WINDOWED aggregation, not capture)."""
    log = tmp_path / "log"
    os.makedirs(log)
    base = pd.Timestamp("2026-01-01").value // 1000

    def tbl(rows, seq0):
        return pa.table(
            {
                "conv_id": pa.array([r[0] for r in rows], pa.string()),
                "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
                "role": pa.array(["user"] * len(rows), pa.string()),
                "text": pa.array([r[2] for r in rows], pa.string()),
                "tool": pa.array([None] * len(rows), pa.string()),
                "ts": pa.array([base + r[3] for r in rows], pa.timestamp("us")),
                "seq": pa.array(range(seq0, seq0 + len(rows)), pa.int64()),
            }
        )

    hour = 3_600_000_000
    pq.write_table(tbl([("a", 0, "x", 0), ("a", 1, "y", 2 * hour)], 0), str(log / "f0.parquet"))
    # one row 2h older than the shard's watermark → late (lateness default 30s)
    pq.write_table(tbl([("a", 2, "z", 1), ("a", 3, "w", 3 * hour)], 2), str(log / "f1.parquet"))
    cfg = _cfg(tmp_path, num_shards=1)
    runner = CaptureRunner(str(log), cfg)
    totals = runner.run()
    assert totals["late"] == 1
    wm = runner.ckpt.last_committed()["watermarks"]
    assert wm["0"] == base + 3 * hour


def test_resume_is_noop_when_fully_consumed(tmp_path):
    t = generate(num_convs=5, turns_per_conv=4)
    write_windowed(t, str(tmp_path / "log"), num_files=2)
    cfg = _cfg(tmp_path)
    CaptureRunner(str(tmp_path / "log"), cfg).run()
    r2 = CaptureRunner(str(tmp_path / "log"), cfg)
    totals = r2.run()
    assert totals == {"batches": 0, "events": 0, "late": 0}
    _assert_matches_golden(_flat_output(r2), _golden(t))


def test_bucketed_log_fast_path(tmp_path):
    """Pre-partitioned (shard=K) log layout: shuffle-free path must produce
    the same events as the shuffle path on the same data."""
    from scylla_cdc_source_connector_ray.sources.synthetic import write_bucketed

    t = generate(num_convs=30, turns_per_conv=10, update_pct=40, delete_pct=15)
    cfg = _cfg(tmp_path)
    write_bucketed(t, str(tmp_path / "blog"), num_shards=cfg.num_shards, num_files=3)
    runner = CaptureRunner(str(tmp_path / "blog"), cfg)
    totals = runner.run()
    assert totals["batches"] == 3
    _assert_matches_golden(_flat_output(runner), _golden(t))


def test_bucketed_kill_resume(tmp_path):
    from scylla_cdc_source_connector_ray.sources.synthetic import write_bucketed

    t = generate(num_convs=20, turns_per_conv=8, update_pct=40, delete_pct=15)
    cfg = _cfg(tmp_path)
    write_bucketed(t, str(tmp_path / "blog"), num_shards=cfg.num_shards, num_files=3)
    r1 = CaptureRunner(str(tmp_path / "blog"), cfg)
    assert r1.run(crash_before_commit_at=1).get("crashed")
    r2 = CaptureRunner(str(tmp_path / "blog"), cfg)
    r2.run()
    out = _flat_output(r2)
    _assert_matches_golden(out, _golden(t))
    assert not out[["conv_id", "turn_idx", "seq"]].duplicated().any()


def test_image_mode_runner_cross_batch_residual(tmp_path):
    """Image-mode streaming: a change whose POST_IMAGE arrives in the next
    micro-batch is completed via the imgstate residual (reference ST1/ST3
    carry-over)."""
    from scylla_cdc_source_connector_ray.sources.synthetic import to_image_log

    t = generate(num_convs=8, turns_per_conv=6, update_pct=40, delete_pct=15)
    img = to_image_log(t)  # arrival-ordered
    # split mid-change: find a boundary that separates a delta from its post
    log = tmp_path / "log"
    log.mkdir()
    half = img.num_rows // 2
    pq.write_table(img.slice(0, half), str(log / "f0.parquet"))
    pq.write_table(img.slice(half), str(log / "f1.parquet"))

    cfg = _cfg(tmp_path, image_mode=True, straggler_timeout_us=10**15)
    runner = CaptureRunner(str(log), cfg)
    totals = runner.run()
    assert totals["batches"] == 2
    out = _flat_output(runner)
    golden = _golden(t)
    # seq is re-assigned by the image log; compare keyed values
    a = out.sort_values(["conv_id", "turn_idx", "op", "after_text"]).reset_index(drop=True)
    g = golden.sort_values(["conv_id", "turn_idx", "op", "after_text"]).reset_index(drop=True)
    assert len(a) == len(g)
    for c in ("op", "after_text", "before_text"):
        assert a[c].fillna("~").tolist() == g[c].fillna("~").tolist(), c


def test_runner_with_hot_conv_salting(tmp_path):
    """Streaming capture with a salted hot conversation: output equals the
    golden, the hot conv spans multiple sub-shards, and the hot set is pinned
    in the manifest (changing it on resume is rejected)."""
    import pytest

    hot = generate(num_convs=1, turns_per_conv=2000, update_pct=20, delete_pct=5)
    cold = generate(num_convs=40, turns_per_conv=6, update_pct=20, delete_pct=5)
    import pyarrow.compute as pc

    cold = cold.set_column(
        cold.column_names.index("conv_id"),
        "conv_id",
        pc.binary_join_element_wise(pa.array(["z"] * cold.num_rows), cold["conv_id"].combine_chunks(), ""),
    )
    t = pa.concat_tables([hot, cold]).sort_by([("ts", "ascending"), ("seq", "ascending")])
    import numpy as np

    t = t.set_column(t.column_names.index("seq"), "seq", pa.array(np.arange(t.num_rows), pa.int64()))
    write_windowed(t, str(tmp_path / "log"), num_files=3)

    cfg = _cfg(tmp_path, hot_key_threshold=500, salt_factor=4)
    runner = CaptureRunner(str(tmp_path / "log"), cfg)
    runner.run(hot_convs=["conv0"])
    out = _flat_output(runner)
    _assert_matches_golden(out, _golden(t))
    env = runner.read_output()
    src = env["source"].combine_chunks()
    import pyarrow.compute as pc2

    key = env["key"].combine_chunks()
    hot_shards = pd.Series(pc2.struct_field(src, "shard").to_pylist())[
        pd.Series(pc2.struct_field(key, "conv_id").to_pylist()) == "conv0"
    ].nunique()
    assert hot_shards > 1

    r2 = CaptureRunner(str(tmp_path / "log"), cfg)
    with pytest.raises(ValueError, match="hot_convs"):
        r2.run(hot_convs=["conv0", "zconv1"])


def test_schema_evolution_extra_column_mid_stream(tmp_path):
    """A later log file carrying an extra column must not break the runner —
    the engine selects the canonical transcript columns and carries on
    (reference: schema changes mid-stream handled seamlessly, README.md:22;
    ScyllaInconsistentSchemaHandler)."""
    t = generate(num_convs=6, turns_per_conv=6, update_pct=30, delete_pct=10)
    log = tmp_path / "log"
    log.mkdir()
    half = t.num_rows // 2
    pq.write_table(t.slice(0, half), str(log / "f0.parquet"))
    evolved = t.slice(half).append_column(
        "lang", pa.array(["en"] * (t.num_rows - half), pa.string())
    )
    pq.write_table(evolved, str(log / "f1.parquet"))
    runner = CaptureRunner(str(tmp_path / "log"), _cfg(tmp_path))
    totals = runner.run()
    assert totals["batches"] == 2
    _assert_matches_golden(_flat_output(runner), _golden(t))


def test_metrics_files_and_current_state(tmp_path):
    """Per-batch metrics JSON (north_rule: lineage + metrics) and the
    state-as-compacted-table reader must match the batch compaction query."""
    import json

    import ray.data

    from scylla_cdc_source_connector_ray.pipelines.capture import compaction

    t = generate(num_convs=10, turns_per_conv=8, update_pct=40, delete_pct=20)
    write_windowed(t, str(tmp_path / "log"), num_files=3)
    cfg = _cfg(tmp_path)
    runner = CaptureRunner(str(tmp_path / "log"), cfg)
    runner.run()

    mdir = tmp_path / "ckpt" / "metrics"
    files = sorted(mdir.iterdir())
    assert len(files) == 3
    m0 = json.loads(files[0].read_text())
    assert {"events", "events_per_sec", "late", "watermark_max_us"} <= set(m0)

    got = (
        runner.read_current_state()
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    want = (
        compaction(ray.data.from_arrow(t), cfg)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    assert len(got) == len(want)
    assert got["text"].tolist() == want["text"].tolist()
    assert got["conv_id"].tolist() == want["conv_id"].tolist()


def test_auto_detect_hot_convs(tmp_path):
    """auto_detect_hot pre-scans the first batch and salts hot convs before
    any state is placed; output still equals the golden."""
    import numpy as np
    import pyarrow.compute as pc

    hot = generate(num_convs=1, turns_per_conv=1500, update_pct=20, delete_pct=5)
    cold = generate(num_convs=30, turns_per_conv=6)
    cold = cold.set_column(
        cold.column_names.index("conv_id"),
        "conv_id",
        pc.binary_join_element_wise(pa.array(["z"] * cold.num_rows), cold["conv_id"].combine_chunks(), ""),
    )
    t = pa.concat_tables([hot, cold]).sort_by([("ts", "ascending"), ("seq", "ascending")])
    t = t.set_column(t.column_names.index("seq"), "seq", pa.array(np.arange(t.num_rows), pa.int64()))
    write_windowed(t, str(tmp_path / "log"), num_files=3)

    cfg = _cfg(tmp_path, hot_key_threshold=300, salt_factor=4)
    runner = CaptureRunner(str(tmp_path / "log"), cfg)
    runner.run(auto_detect_hot=True)
    assert runner.ckpt.last_committed()["hot_convs"] == ["conv0"]
    _assert_matches_golden(_flat_output(runner), _golden(t))


def test_bucketed_with_windows_and_enrich_kill_resume(tmp_path):
    """Interaction coverage: bucketed fast path + tumbling panes + conv-state
    enrichment, deterministic under worst-case kill-resume."""
    from scylla_cdc_source_connector_ray.sources.synthetic import write_bucketed

    t = generate(num_convs=12, turns_per_conv=15, update_pct=30, delete_pct=10, step_us=20_000_000)
    kw = dict(window_agg=True, enrich_conv_state=True, window_size_us=60_000_000, allowed_lateness_us=60_000_000)
    cfg = _cfg(tmp_path, **kw)
    write_bucketed(t, str(tmp_path / "blog"), num_shards=cfg.num_shards, num_files=3)
    r1 = CaptureRunner(str(tmp_path / "blog"), cfg)
    assert r1.run(crash_before_commit_at=1).get("crashed")
    r2 = CaptureRunner(str(tmp_path / "blog"), cfg)
    r2.run()
    r2.flush_windows()
    _assert_matches_golden(_flat_output(r2), _golden(t))

    clean = tmp_path / "clean"
    cfg2 = EngineConfig(num_shards=cfg.num_shards, sink_dir=str(clean / "out"), checkpoint_dir=str(clean / "ckpt"), **kw)
    r3 = CaptureRunner(str(tmp_path / "blog"), cfg2)
    r3.run()
    r3.flush_windows()
    import pandas as pd2

    a = r2.read_windows().to_pandas().sort_values(["shard", "window_start_us"]).reset_index(drop=True)
    b = r3.read_windows().to_pandas().sort_values(["shard", "window_start_us"]).reset_index(drop=True)
    pd2.testing.assert_frame_equal(a, b)


def _capture_runner(tmp_path):
    return CaptureRunner(str(tmp_path / "log"), _cfg(tmp_path))


def _dedup_runner(tmp_path):
    from scylla_cdc_source_connector_ray.pipelines.dedup_stream import DedupStreamRunner

    return DedupStreamRunner(
        str(tmp_path / "log"), 2, str(tmp_path / "out"), str(tmp_path / "ckpt"), order_col="seq"
    )


@pytest.mark.parametrize("make", [_capture_runner, _dedup_runner], ids=["capture", "dedup_stream"])
def test_single_writer_checkpoint_lock(tmp_path, make):
    """Two concurrent runners on one checkpoint: the second is refused
    (single-writer ownership; the Kafka Connect task-ownership analogue).
    The lock lives in the shared batch loop, so every runner has it."""
    import fcntl

    t = generate(num_convs=4, turns_per_conv=4)
    write_windowed(t, str(tmp_path / "log"), num_files=1)
    r1 = make(tmp_path)
    # simulate a concurrently-running runner holding the lock (it made the
    # checkpoint dir; constructing a runner makes none)
    os.makedirs(r1.ckpt.dir, exist_ok=True)
    holder = open(os.path.join(r1.ckpt.dir, "runner.lock"), "w")
    fcntl.flock(holder, fcntl.LOCK_EX)
    with pytest.raises(RuntimeError, match="checkpoint lock"):
        r1.run()
    fcntl.flock(holder, fcntl.LOCK_UN)
    holder.close()
    # lock released → run proceeds, and a SECOND sequential run also works
    assert r1.run()["batches"] == 1
    assert make(tmp_path).run()["batches"] == 0


def test_follow_live_tailing(tmp_path):
    """follow() consumes files appearing while it runs (live tail with the
    confidence window held back; reference continuous worker loop)."""
    import threading
    import time as time_mod

    t = generate(num_convs=10, turns_per_conv=10, update_pct=20, delete_pct=10)
    log = tmp_path / "log"
    log.mkdir()
    n = t.num_rows
    a, b = n // 3, 2 * n // 3
    thirds = [t.slice(0, a), t.slice(a, b - a), t.slice(b)]
    pq.write_table(thirds[0], str(log / "f0.parquet"))

    def writer():
        time_mod.sleep(0.8)
        pq.write_table(thirds[1], str(log / "f1.parquet"))
        time_mod.sleep(0.8)
        pq.write_table(thirds[2], str(log / "f2.parquet"))

    cfg = _cfg(tmp_path, confidence_window_us=0)
    runner = CaptureRunner(str(log), cfg)
    w = threading.Thread(target=writer)
    w.start()
    totals = runner.follow(poll_interval_s=0.2, idle_polls=8)
    w.join()
    assert totals["events"] == n, totals
    _assert_matches_golden(_flat_output(runner), _golden(t))


def test_ingest_bucketize_then_fast_path(tmp_path):
    """Unpartitioned log → bucketize (one distributed exchange) → shuffle-free
    runner produces the golden output."""
    from scylla_cdc_source_connector_ray.sources.ingest import bucketize

    t = generate(num_convs=20, turns_per_conv=8, update_pct=30, delete_pct=10)
    write_windowed(t, str(tmp_path / "flat"), num_files=3)
    cfg = _cfg(tmp_path)
    counts = bucketize(str(tmp_path / "flat"), str(tmp_path / "blog"), cfg.num_shards)
    assert sum(counts.values()) == t.num_rows
    runner = CaptureRunner(str(tmp_path / "blog"), cfg)
    runner.run()
    _assert_matches_golden(_flat_output(runner), _golden(t))


def test_holdback_is_contiguous_prefix():
    """Out-of-order file eligibility must not skip a held-back middle file
    (offset accounting is positional — found by code review)."""
    from scylla_cdc_source_connector_ray.sources.windowed import LogFile, plan_batches

    files = [
        LogFile("f0", 0, 10, 1),
        LogFile("f1", 10, 95, 1),  # inside the confidence window → held back
        LogFile("f2", 20, 30, 1),  # would be eligible but must wait for f1
    ]
    batches = plan_batches(files, 0, confidence_window_us=10, log_complete=False)
    assert [f.path for b in batches for f in b] == ["f0"]


def test_cross_batch_late_row_folds_after_state(tmp_path):
    """A batch-2 row with ts EARLIER than the stored state folds AFTER the
    seed (arrival-order semantics): op 'u' with the state as before image,
    never a second 'c' (found by code review)."""
    log = tmp_path / "log"
    os.makedirs(log)
    base = pd.Timestamp("2026-01-01").value // 1000

    def tbl(rows, seq0):
        return pa.table(
            {
                "conv_id": pa.array([r[0] for r in rows], pa.string()),
                "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
                "role": pa.array(["user"] * len(rows), pa.string()),
                "text": pa.array([r[2] for r in rows], pa.string()),
                "tool": pa.array([None] * len(rows), pa.string()),
                "ts": pa.array([base + r[3] for r in rows], pa.timestamp("us")),
                "seq": pa.array(range(seq0, seq0 + len(rows)), pa.int64()),
            }
        )

    pq.write_table(tbl([("a", 0, "v1", 100)], 0), str(log / "f0.parquet"))
    pq.write_table(tbl([("a", 0, "late", 50)], 1), str(log / "f1.parquet"))  # ts regressed
    runner = CaptureRunner(str(log), _cfg(tmp_path, num_shards=1))
    runner.run()
    out = _flat_output(runner).sort_values("seq").reset_index(drop=True)
    assert out["op"].tolist() == ["c", "u"]
    assert out.loc[1, "before_text"] == "v1"


def test_lock_released_on_midrun_exception(tmp_path):
    """An exception inside the batch loop must release the checkpoint lock
    (found by code review)."""
    t = generate(num_convs=4, turns_per_conv=4)
    write_windowed(t, str(tmp_path / "log"), num_files=2)
    cfg = _cfg(tmp_path)
    r = CaptureRunner(str(tmp_path / "log"), cfg)
    import pytest

    orig = r._process_batch

    def boom(*a, **k):
        raise OSError("storage hiccup")

    r._process_batch = boom
    with pytest.raises(OSError):
        r.run()
    # lock must be free: a fresh runner proceeds
    r2 = CaptureRunner(str(tmp_path / "log"), cfg)
    assert r2.run()["batches"] == 2


def test_salting_composes_with_conv_level_stages(tmp_path):
    """Every conversation-level stateful stage now composes with salting
    (hierarchical partial→merge paths) — running salted with conv-state
    enrichment must succeed, not raise."""
    t = generate(num_convs=4, turns_per_conv=4)
    write_windowed(t, str(tmp_path / "log"), num_files=1)
    cfg = _cfg(tmp_path, enrich_conv_state=True)
    totals = CaptureRunner(str(tmp_path / "log"), cfg).run(hot_convs=["conv0"])
    assert totals["batches"] == 1


def test_lock_released_on_validation_error(tmp_path):
    """Even pre-loop validation errors must release the lock (review find)."""
    import pytest

    t = generate(num_convs=4, turns_per_conv=4)
    write_windowed(t, str(tmp_path / "log"), num_files=1)
    cfg8 = _cfg(tmp_path)
    CaptureRunner(str(tmp_path / "log"), cfg8).run()
    cfg16 = EngineConfig(num_shards=16, sink_dir=cfg8.sink_dir, checkpoint_dir=cfg8.checkpoint_dir)
    r = CaptureRunner(str(tmp_path / "log"), cfg16)
    with pytest.raises(ValueError, match="num_shards"):
        r.run()
    # the failed validation must not leave the lock held
    assert CaptureRunner(str(tmp_path / "log"), cfg8).run()["batches"] == 0


def test_null_seq_from_schema_promotion(tmp_path):
    """A batch mixing files with and without seq must not silently drop the
    seq-less file's rows (review find: NULL seq misread as seeds)."""
    t = generate(num_convs=6, turns_per_conv=5, update_pct=30, delete_pct=10)
    log = tmp_path / "log"
    log.mkdir()
    half = t.num_rows // 2
    pq.write_table(t.slice(0, half), str(log / "f0.parquet"))
    pq.write_table(t.slice(half).drop_columns(["seq"]), str(log / "f1.parquet"))
    runner = CaptureRunner(str(log), _cfg(tmp_path))
    totals = runner.run(files_per_batch=2)  # both files in ONE batch → promotion
    assert totals["events"] == t.num_rows


def test_image_mode_config_guards(tmp_path):
    import pytest

    t = generate(num_convs=3, turns_per_conv=3)
    write_windowed(t, str(tmp_path / "log"), num_files=1)
    with pytest.raises(ValueError, match="enrichment"):
        CaptureRunner(str(tmp_path / "log"), _cfg(tmp_path, image_mode=True, enrich_conv_state=True)).run()
    # image_mode x only-updated is now SUPPORTED: modified_cols is diffed
    # from the pre/post images (see test_image_mode_only_updated)


def test_stats_less_file_does_not_stall_tail(tmp_path):
    """A file written without footer stats must still become eligible in tail
    mode (review find: permanent stall)."""
    from scylla_cdc_source_connector_ray.sources.windowed import discover, plan_batches

    t = generate(num_convs=4, turns_per_conv=4)
    log = tmp_path / "log"
    log.mkdir()
    pq.write_table(t.slice(0, 10), str(log / "f0.parquet"), write_statistics=False)
    pq.write_table(t.slice(10), str(log / "f1.parquet"))
    files = discover(str(log))
    assert files[0].max_ts_us is not None  # recovered by reading the ts column
    batches = plan_batches(files, 0, confidence_window_us=0, log_complete=False)
    assert sum(len(b) for b in batches) == 2


def test_min_batch_interval_throttle(tmp_path):
    """Reader throttle (≙ scylla.minimal.wait.for.window.size.ms): batches
    are paced to at least the configured interval."""
    import time as _time

    t = generate(num_convs=4, turns_per_conv=3, update_pct=0, delete_pct=0)
    write_windowed(t, str(tmp_path / "log"), num_files=3)
    cfg = _cfg(tmp_path, min_batch_interval_s=0.5)
    r = CaptureRunner(str(tmp_path / "log"), cfg)
    t0 = _time.perf_counter()
    tot = r.run(files_per_batch=1)
    wall = _time.perf_counter() - t0
    assert tot["batches"] == 3
    assert wall >= 1.0  # 2 inter-batch pauses of >= 0.5s


def test_throttle_paces_across_run_calls(tmp_path):
    """The pacing state lives on the runner: consecutive run() calls (the
    follow() tail loop) are paced too, not just batches within one call."""
    import time as _time

    import pyarrow.parquet as _pq

    t = generate(num_convs=3, turns_per_conv=2, update_pct=0, delete_pct=0)
    write_windowed(t, str(tmp_path / "log"), num_files=1)
    cfg = _cfg(tmp_path, min_batch_interval_s=0.8)
    r = CaptureRunner(str(tmp_path / "log"), cfg)
    r.run(files_per_batch=1)
    # new file arrives; the next run must wait out the interval
    extra = generate(num_convs=2, turns_per_conv=2, update_pct=0, delete_pct=0)
    _pq.write_table(extra, str(tmp_path / "log" / "window-00009.parquet"))
    t0 = _time.perf_counter()
    tot = r.run(files_per_batch=1)
    assert tot["batches"] == 1
    assert _time.perf_counter() - t0 >= 0.4  # waited (first batch ran recently)


def test_capture_lag_distribution_metric(tmp_path):
    import glob
    import json as _json

    t = generate(num_convs=6, turns_per_conv=5, update_pct=20, delete_pct=5)
    write_windowed(t, str(tmp_path / "log"), num_files=2)
    r = CaptureRunner(str(tmp_path / "log"), _cfg(tmp_path))
    r.run(files_per_batch=1)
    mfiles = sorted(glob.glob(str(tmp_path / "ckpt" / "metrics" / "batch-*.json")))
    assert mfiles
    m = _json.load(open(mfiles[-1]))
    assert m["capture_lag_p50_us"] is not None
    assert 0 <= m["capture_lag_p50_us"] <= m["capture_lag_p95_us"]


def test_initial_lookback_skips_old_history(tmp_path):
    """Fresh start with initial_lookback_us consumes only the tail of the
    log (reference scylla.initial.lookback.ms); resume from the resulting
    checkpoint is unaffected by the knob."""
    step = 10_000_000  # 10 s between events
    t = generate(num_convs=4, turns_per_conv=24, update_pct=0, delete_pct=0, step_us=step)
    write_windowed(t, str(tmp_path / "log"), num_files=6)
    ts = t["ts"].cast("int64").to_pandas()
    span = int(ts.max() - ts.min())
    # lookback covering roughly the last third of the log
    cfg = _cfg(tmp_path, initial_lookback_us=span // 3)
    runner = CaptureRunner(str(tmp_path / "log"), cfg)
    tot = runner.run()
    assert 0 < tot["events"] < t.num_rows  # consumed a proper tail only
    out = runner.read_output()
    min_consumed = out["seq"].cast("int64")
    import pyarrow.compute as pc

    # everything consumed is newer than (frontier - lookback) minus one
    # window's worth of slack (skip is file-granular, like the reference's
    # per-window decision)
    cutoff = int(ts.max()) - span // 3
    got_min_ts = pc.min(
        pc.struct_field(out["after"].combine_chunks(), "ts").cast("int64")
    ).as_py()
    per_file = t.num_rows // 6
    assert got_min_ts >= cutoff - step * per_file
    # resume: new files consume normally from the checkpointed offset
    consumed0 = runner.ckpt.last_committed()["consumed_files"]
    assert consumed0 == 6  # skipped files count as consumed
    r2 = CaptureRunner(str(tmp_path / "log"), cfg)
    assert r2.run()["batches"] == 0  # nothing new, lookback NOT re-applied


def test_initial_lookback_zero_keeps_only_frontier_file(tmp_path):
    t = generate(num_convs=3, turns_per_conv=12, update_pct=0, delete_pct=0, step_us=5_000_000)
    write_windowed(t, str(tmp_path / "log"), num_files=4)
    cfg = _cfg(tmp_path, initial_lookback_us=0)
    runner = CaptureRunner(str(tmp_path / "log"), cfg)
    tot = runner.run()
    # only the file containing the frontier event survives the cutoff
    assert tot["events"] <= t.num_rows // 4 + 1
    assert tot["events"] > 0


def test_image_mode_only_updated(tmp_path):
    """Image-mode capture with include_after=only-updated: modified_cols is
    diffed from the pre/post images (reference getModifiedColumns,
    ScyllaChangeRecordEmitter.java:361-398), so untouched after-fields are
    NULLed exactly as in row mode."""
    from scylla_cdc_source_connector_ray.sources.synthetic import to_image_log

    t = generate(num_convs=8, turns_per_conv=6, update_pct=40, delete_pct=15)
    img = to_image_log(t)
    log = tmp_path / "log"
    log.mkdir()
    pq.write_table(img, str(log / "f0.parquet"))

    cfg = _cfg(
        tmp_path, image_mode=True, include_after="only-updated",
        straggler_timeout_us=10**15,
    )
    runner = CaptureRunner(str(log), cfg)
    runner.run()
    out = _flat_output(runner)

    golden = _golden(t)
    for c in ("role", "text", "tool"):
        a, b = golden["after_" + c], golden["before_" + c]
        golden["after_" + c] = a.where(a.fillna("~") != b.fillna("~"))
    keys = ["conv_id", "turn_idx", "op"]
    sort_all = keys + ["before_text", "after_text"]
    a = out.sort_values(sort_all, na_position="first").reset_index(drop=True)
    g = golden.sort_values(sort_all, na_position="first").reset_index(drop=True)
    assert len(a) == len(g)
    for c in ("op", "after_role", "after_text", "after_tool", "before_text"):
        assert a[c].fillna("~").tolist() == g[c].fillna("~").tolist(), c


def _truncate_file(path: str, keep_frac: float = 0.5):
    """Simulate a concurrent writer mid-write: parquet footers are written
    LAST, so an in-flight file is a prefix of the final bytes."""
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data[: max(4, int(len(data) * keep_frac))])
    return data


def test_tail_survives_mid_write_file(tmp_path):
    """A live tail polling while a writer is mid-file must treat the
    unreadable (footer-less) newest file as not-yet-arrived — not crash —
    and pick it up once complete (race found in a loaded-host follow run)."""
    import pyarrow as _pa
    import pytest as _pytest

    from scylla_cdc_source_connector_ray.sources.windowed import discover

    t = generate(num_convs=12, turns_per_conv=6, update_pct=20, delete_pct=10)
    log = tmp_path / "log"
    write_windowed(t, str(log), num_files=3)
    names = sorted(os.listdir(log))
    full = _truncate_file(str(log / names[-1]))

    # discovery: tail mode truncates at the in-flight file; batch mode raises
    got = discover(str(log), tail=True)
    assert [os.path.basename(f.path) for f in got] == names[:-1]
    with _pytest.raises((_pa.ArrowInvalid, OSError)):
        discover(str(log))

    # a tailing runner poll consumes the complete prefix without crashing
    cfg = _cfg(tmp_path, confidence_window_us=0)
    runner = CaptureRunner(str(log), cfg)
    tot = runner.run(log_complete=False)
    assert tot["batches"] == 2
    # writer finishes the file -> next poll drains it
    with open(str(log / names[-1]), "wb") as f:
        f.write(full)
    tot = runner.run(log_complete=False)
    assert tot["batches"] == 1
    _assert_matches_golden(_flat_output(runner), _golden(t))


def test_microbatch_tail_drops_in_flight_file(tmp_path):
    """The shared lean-runner protocol (run_microbatches tail=True) must drop
    unreadable trailing files from the listing and retry next poll."""
    from scylla_cdc_source_connector_ray.pipelines._microbatch import run_microbatches

    log = tmp_path / "log"
    log.mkdir()
    for i in range(3):
        pq.write_table(pa.table({"x": [i]}), str(log / f"f{i}.parquet"))
    full = _truncate_file(str(log / "f2.parquet"))

    seen: list[str] = []

    def process(batch_id, files):
        seen.extend(os.path.basename(p) for p in files)
        return {"rows": sum(pq.read_metadata(p).num_rows for p in files)}

    ckpt = Checkpoint(str(tmp_path / "ckpt"))
    r = run_microbatches(ckpt, str(log), pins={}, process_batch=process,
                         files_per_batch=1, tail=True)
    assert r["batches"] == 2 and seen == ["f0.parquet", "f1.parquet"]
    with open(str(log / "f2.parquet"), "wb") as f:
        f.write(full)
    r = run_microbatches(ckpt, str(log), pins={}, process_batch=process,
                         files_per_batch=1, tail=True)
    assert r["batches"] == 1 and seen[-1] == "f2.parquet"


def test_bucketed_tail_holds_back_mid_write_window(tmp_path):
    """Bucketed layout: an in-flight shard file stalls its window (and later
    ones) in tail mode instead of crashing the poll."""
    from scylla_cdc_source_connector_ray.sources.synthetic import write_bucketed

    t = generate(num_convs=12, turns_per_conv=6, update_pct=20, delete_pct=10)
    log = tmp_path / "log"
    cfg = _cfg(tmp_path, confidence_window_us=0)
    write_bucketed(t, str(log), cfg.num_shards, num_files=3)
    # truncate one shard file of the NEWEST window
    wname = sorted(os.listdir(log / "shard=0"))[-1]
    victim = str(log / "shard=0" / wname)
    full = _truncate_file(victim)

    runner = CaptureRunner(str(log), cfg)
    tot = runner.run(log_complete=False)
    assert tot["batches"] == 2
    with open(victim, "wb") as f:
        f.write(full)
    tot = runner.run(log_complete=False)
    assert tot["batches"] == 1
    _assert_matches_golden(_flat_output(runner), _golden(t))


def _two_shard_log(tmp_path) -> str:
    """Two 3-row log files whose conversations hash to different shards of 2."""
    from scylla_cdc_source_connector_ray.schema import shard_of

    names = [f"conv{i}" for i in range(16)]
    shards = shard_of(pa.array(names), 2).to_pylist()
    convs = [names[0], next(n for n, k in zip(names, shards) if k != shards[0])]
    log = tmp_path / "log"
    log.mkdir()
    base = pd.Timestamp("2026-01-01").value // 1000
    for i, conv in enumerate(convs):
        seqs = [3 * i + j for j in range(3)]
        tbl = pa.table(
            {
                "conv_id": pa.array([conv] * 3, pa.string()),
                "turn_idx": pa.array([0, 1, 2], pa.int32()),
                "role": pa.array(["user"] * 3, pa.string()),
                "text": pa.array([f"{conv} turn {j}" for j in range(3)], pa.string()),
                "tool": pa.array([None] * 3, pa.string()),
                "ts": pa.array([base + s for s in seqs], pa.timestamp("us")),
                "seq": pa.array(seqs, pa.int64()),
            }
        )
        pq.write_table(tbl, str(log / f"f{i}.parquet"))
    return str(log)


def _seq_ops(runner) -> list[tuple[int, str]]:
    df = flatten_envelope(runner.read_output()).to_pandas()
    return sorted(zip(df["seq"].tolist(), df["op"].tolist()))


def test_resume_after_batch0_crash_refuses_recut(tmp_path):
    """Crash before batch 0 commits, then resume. With a smaller
    files_per_batch the new batch 0 would miss one shard, whose sink and
    state files from the crashed attempt would survive — its rows would be
    committed twice — so the resume is refused. With the same
    files_per_batch the replay equals a clean run, exactly once."""
    log = _two_shard_log(tmp_path)
    cfg = _cfg(tmp_path, num_shards=2)
    assert CaptureRunner(log, cfg).run(files_per_batch=2, crash_before_commit_at=0)["crashed"]
    with pytest.raises(ValueError, match="files_per_batch"):
        CaptureRunner(log, cfg).run(files_per_batch=1)
    resumed = CaptureRunner(log, cfg)
    assert resumed.run(files_per_batch=2)["batches"] == 1

    clean = CaptureRunner(log, _cfg(tmp_path / "clean", num_shards=2))
    clean.run(files_per_batch=2)
    assert _seq_ops(resumed) == _seq_ops(clean)
    assert [s for s, _ in _seq_ops(resumed)] == list(range(6))


def test_read_output_is_committed_only(tmp_path):
    """After a crash before batch 1's commit, the readers show batch 0 only
    — exactly what a clean one-batch run shows — and a checkpoint with no
    commit reads as empty."""
    t = generate(num_convs=10, turns_per_conv=6, update_pct=30, delete_pct=10)
    log = str(tmp_path / "log")
    write_windowed(t, log, num_files=3)
    crashed = CaptureRunner(log, _cfg(tmp_path))
    assert crashed.run(crash_before_commit_at=1)["crashed"]
    clean = CaptureRunner(log, _cfg(tmp_path / "clean"))
    clean.run(max_batches=1)
    assert crashed.read_output().equals(clean.read_output())
    assert crashed.read_output_ds().count() == clean.read_output().num_rows

    fresh = CaptureRunner(log, _cfg(tmp_path / "fresh"))
    assert fresh.read_output().num_rows == 0
    assert fresh.read_output_ds().count() == 0


def _to_large_strings(t: pa.Table) -> pa.Table:
    """``t`` with its string columns as large_string, the encoding earlier
    releases wrote from their sort-shuffle blocks."""
    schema = pa.schema(
        [pa.field(f.name, pa.large_string()) if pa.types.is_string(f.type) else f for f in t.schema]
    )
    return t.cast(schema)


def _upgrade_resume(tmp_path, log, cfg_kw, kind, run_kw=None) -> CaptureRunner:
    """Commit batch 0, rewrite its ``kind`` state as large_string, resume."""
    cfg = EngineConfig(
        sink_dir=str(tmp_path / "up_out"), checkpoint_dir=str(tmp_path / "up_ckpt"), **cfg_kw
    )
    CaptureRunner(log, cfg).run(max_batches=1, **(run_kw or {}))
    ck = Checkpoint(cfg.checkpoint_dir)
    rows = 0
    for shard in ck.state_shards(kind):
        state = ck.load_state(shard, before_batch=1, kind=kind)
        ck.write_state(shard, 0, _to_large_strings(state), kind=kind)
        rows += state.num_rows
    assert rows > 0  # a non-empty carry crosses the upgrade
    runner = CaptureRunner(log, cfg)
    assert runner.run(**(run_kw or {}))["batches"] == 1
    return runner


def test_image_mode_resumes_large_string_carry(tmp_path):
    """An image-mode checkpoint whose ``imgstate`` carry holds large_string
    columns (an incomplete PRE/delta/POST change) resumes onto a batch read
    as string, and completes the change as a clean run does."""
    from scylla_cdc_source_connector_ray.sources.synthetic import to_image_log

    t = generate(num_convs=8, turns_per_conv=6, update_pct=40, delete_pct=15)
    img = to_image_log(t)
    kinds = img["op_kind"].to_pylist()
    # cut between a delta and its POST_IMAGE: the change carries over
    cut = next(
        i + 1
        for i in range(img.num_rows // 2, img.num_rows - 1)
        if kinds[i] in ("INSERT", "UPDATE") and kinds[i + 1] == "POST_IMAGE"
    )
    log = tmp_path / "log"
    log.mkdir()
    pq.write_table(img.slice(0, cut), str(log / "f0.parquet"))
    pq.write_table(img.slice(cut), str(log / "f1.parquet"))
    kw = {"num_shards": 4, "image_mode": True, "straggler_timeout_us": 10**15}
    clean = CaptureRunner(str(log), _cfg(tmp_path, **kw))
    clean.run()
    upgraded = _upgrade_resume(tmp_path, str(log), kw, "imgstate")
    pd.testing.assert_frame_equal(_flat_output(upgraded), _flat_output(clean))


def test_salted_panes_resume_large_string_state(tmp_path):
    """A salted conversation-keyed pane state (``wstate``, written by the
    base shard's merge stage) holding large_string keys resumes onto
    partials read as string, and emits the windows a clean run emits."""
    t = generate(num_convs=6, turns_per_conv=6, hot_convs=1, hot_turns=40)
    write_windowed(t, str(tmp_path / "log"), num_files=2)
    kw = {
        "num_shards": 3,
        "window_agg": True,
        "window_agg_keys": ("conv_id",),
        "window_size_us": 60_000_000,
        "hot_key_threshold": 8,
        "salt_factor": 4,
    }
    hot = {"hot_convs": ["conv0"]}
    clean = CaptureRunner(str(tmp_path / "log"), _cfg(tmp_path, **kw))
    clean.run(**hot)
    clean.flush_windows()
    upgraded = _upgrade_resume(tmp_path, str(tmp_path / "log"), kw, "wstate", hot)
    upgraded.flush_windows()

    def windows(r):
        w = r.read_windows().to_pandas()
        return w.sort_values(list(w.columns)).reset_index(drop=True)

    pd.testing.assert_frame_equal(windows(upgraded), windows(clean))


def test_large_string_log_file_folds_onto_string_state(tmp_path):
    """A log file written with large_string columns (another writer, from
    one file on) folds onto the string-encoded state of earlier batches:
    the row-mode state keeps one encoding."""
    t = generate(num_convs=6, turns_per_conv=6, update_pct=40, delete_pct=15)
    write_windowed(t, str(tmp_path / "log"), num_files=2)
    clean = CaptureRunner(str(tmp_path / "log"), _cfg(tmp_path, num_shards=3))
    clean.run()
    later = str(sorted((tmp_path / "log").iterdir())[1])
    pq.write_table(_to_large_strings(pq.read_table(later)), later)
    cfg = EngineConfig(
        num_shards=3, sink_dir=str(tmp_path / "ls_out"), checkpoint_dir=str(tmp_path / "ls_ckpt")
    )
    runner = CaptureRunner(str(tmp_path / "log"), cfg)
    assert runner.run()["batches"] == 2
    pd.testing.assert_frame_equal(_flat_output(runner), _flat_output(clean))
    from scylla_cdc_source_connector_ray.pipelines._microbatch import read_committed_state

    for state in read_committed_state(runner.ckpt, "state"):
        assert not any(pa.types.is_large_string(f.type) for f in state.schema)
