"""Streaming windowed aggregation with watermark-gated pane emission and the
persistent conversation-state join inside the runner (fixtures T7/T8/T4)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from scylla_cdc_source_connector_ray.config import EngineConfig
from scylla_cdc_source_connector_ray.pipelines.runner import CaptureRunner
from scylla_cdc_source_connector_ray.sources.synthetic import generate, write_windowed

MIN = 60_000_000


def _cfg(tmp_path, **kw):
    kw.setdefault("num_shards", 4)
    return EngineConfig(
        sink_dir=str(tmp_path / "out"),
        checkpoint_dir=str(tmp_path / "ckpt"),
        **kw,
    )


def _batch_panes(t: pa.Table, cfg) -> pd.DataFrame:
    """Single-threaded oracle: tumbling panes over ALL rows per shard."""
    from scylla_cdc_source_connector_ray.schema import shard_of

    df = t.to_pandas()
    df["shard"] = shard_of(t["conv_id"], cfg.num_shards).to_pylist()
    ts = df["ts"].astype("int64") // 1  # ns → careful: arrow us → pandas ns
    ts_us = df["ts"].values.astype("datetime64[us]").astype("int64")
    df["window_start_us"] = ts_us - (ts_us % cfg.window_size_us)
    df["chars"] = df["text"].fillna("").str.len()
    g = (
        df.groupby(["shard", "window_start_us"])
        .agg(n_events=("conv_id", "size"), n_chars=("chars", "sum"))
        .reset_index()
    )
    return g.sort_values(["shard", "window_start_us"]).reset_index(drop=True)


def test_streaming_panes_equal_batch_after_flush(tmp_path):
    t = generate(num_convs=12, turns_per_conv=30, update_pct=20, delete_pct=10, step_us=20_000_000)
    write_windowed(t, str(tmp_path / "log"), num_files=4)
    cfg = _cfg(tmp_path, window_agg=True, window_size_us=MIN, allowed_lateness_us=MIN)
    runner = CaptureRunner(str(tmp_path / "log"), cfg)
    totals = runner.run()
    runner.flush_windows()
    got = (
        runner.read_windows()
        .to_pandas()[["shard", "window_start_us", "n_events", "n_chars"]]
        .sort_values(["shard", "window_start_us"])
        .reset_index(drop=True)
    )
    want = _batch_panes(t, cfg)
    assert totals["late_dropped"] == 0  # in-order log: nothing late
    pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))
    # panes were emitted progressively, not only at flush
    import os

    emitted_dirs = [d for d in os.listdir(tmp_path / "out" / "windows") if d.startswith("batch-")]
    assert emitted_dirs, "no watermark-gated emission happened before flush"


def test_late_rows_routed_to_side_output(tmp_path):
    import os

    log = tmp_path / "log"
    os.makedirs(log)
    base = pd.Timestamp("2026-01-01").value // 1000
    hour = 3_600_000_000

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

    pq.write_table(tbl([("a", 0, "x", 0), ("a", 1, "y", 5 * hour)], 0), str(log / "f0.parquet"))
    # arrives after watermark hit 5h: window [0,1m) finalized long ago → late
    pq.write_table(tbl([("a", 2, "z", 30_000_000), ("a", 3, "w", 6 * hour)], 2), str(log / "f1.parquet"))
    cfg = _cfg(tmp_path, num_shards=1, window_agg=True, window_size_us=MIN, allowed_lateness_us=MIN)
    runner = CaptureRunner(str(log), cfg)
    totals = runner.run()
    runner.flush_windows()
    assert totals["late_dropped"] == 1
    late = runner.read_late().to_pandas()
    assert late["conv_id"].tolist() == ["a"] and late["turn_idx"].tolist() == [2]
    # the late row is NOT in any pane, but IS still in the capture output
    panes = runner.read_windows().to_pandas()
    assert panes["n_events"].sum() == 3
    assert runner.read_output().num_rows == 4


def test_streaming_windows_kill_resume_deterministic(tmp_path):
    t = generate(num_convs=10, turns_per_conv=20, update_pct=30, delete_pct=10, step_us=20_000_000)
    write_windowed(t, str(tmp_path / "log"), num_files=3)
    kw = dict(window_agg=True, enrich_conv_state=True, window_size_us=MIN, allowed_lateness_us=MIN)

    cfg1 = _cfg(tmp_path, **kw)
    r1 = CaptureRunner(str(tmp_path / "log"), cfg1)
    assert r1.run(crash_before_commit_at=1).get("crashed")
    r2 = CaptureRunner(str(tmp_path / "log"), cfg1)
    r2.run()
    r2.flush_windows()

    other = tmp_path / "clean"
    cfg2 = EngineConfig(
        num_shards=4,
        sink_dir=str(other / "out"),
        checkpoint_dir=str(other / "ckpt"),
        **kw,
    )
    r3 = CaptureRunner(str(tmp_path / "log"), cfg2)
    r3.run()
    r3.flush_windows()

    a = r2.read_windows().to_pandas().sort_values(["shard", "window_start_us"]).reset_index(drop=True)
    b = r3.read_windows().to_pandas().sort_values(["shard", "window_start_us"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_conv_state_enrichment_in_runner(tmp_path):
    t = generate(num_convs=8, turns_per_conv=12, update_pct=25, delete_pct=10)
    write_windowed(t, str(tmp_path / "log"), num_files=3)
    cfg = _cfg(tmp_path, enrich_conv_state=True)
    runner = CaptureRunner(str(tmp_path / "log"), cfg)
    runner.run()
    out = runner.read_output().to_pandas()
    assert {"prior_turns", "prior_chars", "prev_role"} <= set(out.columns)

    # oracle: exclusive per-conv prefix over the whole log in (ts, seq) order
    df = t.to_pandas().sort_values(["conv_id", "ts", "seq"])
    df["prior_turns_g"] = df.groupby("conv_id").cumcount()
    got = out.set_index("seq")["prior_turns"]
    want = df.set_index("seq")["prior_turns_g"]
    assert got.sort_index().tolist() == want.sort_index().tolist()


def test_streaming_sliding_equals_batch(tmp_path):
    import ray.data

    from scylla_cdc_source_connector_ray.stages import windows as W

    t = generate(num_convs=10, turns_per_conv=25, update_pct=20, delete_pct=10, step_us=20_000_000)
    write_windowed(t, str(tmp_path / "log"), num_files=4)
    SIZE, SLIDE = 4 * MIN, MIN
    cfg = _cfg(tmp_path, sliding_window_us=(SIZE, SLIDE), allowed_lateness_us=MIN)
    runner = CaptureRunner(str(tmp_path / "log"), cfg)
    runner.run()
    runner.flush_windows()
    got = (
        runner.read_windows("windows_sliding")
        .to_pandas()
        .groupby("window_start_us", as_index=False)[["n_events", "n_chars"]]
        .sum()  # batch oracle is global; streaming emits per shard
        .sort_values("window_start_us")
        .reset_index(drop=True)
    )
    want = (
        W.sliding(ray.data.from_arrow(t), SIZE, SLIDE)
        .to_pandas()[["window_start_us", "n_events", "n_chars"]]
        .sort_values("window_start_us")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))
    # each window emitted exactly once across batches+flush
    raw = runner.read_windows("windows_sliding").to_pandas()
    assert not raw.duplicated(["shard", "window_start_us"]).any()


def test_streaming_session_equals_batch(tmp_path):
    import ray.data

    from scylla_cdc_source_connector_ray.stages import windows as W

    t = generate(num_convs=8, turns_per_conv=30, update_pct=20, delete_pct=10, step_us=40_000_000)
    write_windowed(t, str(tmp_path / "log"), num_files=4)
    GAP = 30_000_000
    cfg = _cfg(tmp_path, session_gap_us=GAP, allowed_lateness_us=MIN)
    runner = CaptureRunner(str(tmp_path / "log"), cfg)
    runner.run()
    runner.flush_windows()
    got = (
        runner.read_windows("windows_session")
        .to_pandas()[["conv_id", "session_start_us", "session_end_us", "n_turns"]]
        .sort_values(["conv_id", "session_start_us"])
        .reset_index(drop=True)
    )
    want = (
        W.session(ray.data.from_arrow(t), gap_us=GAP, num_shards=cfg.num_shards)
        .to_pandas()[["conv_id", "session_start_us", "session_end_us", "n_turns"]]
        .sort_values(["conv_id", "session_start_us"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got.astype({"n_turns": "int64"}), want.astype({"n_turns": "int64"}))
    assert len(got) > got["conv_id"].nunique()  # sessions actually split


def test_all_streaming_aggs_kill_resume(tmp_path):
    t = generate(num_convs=8, turns_per_conv=20, update_pct=30, delete_pct=10, step_us=25_000_000)
    write_windowed(t, str(tmp_path / "log"), num_files=3)
    kw = dict(
        window_agg=True,
        sliding_window_us=(4 * MIN, MIN),
        session_gap_us=30_000_000,
        enrich_conv_state=True,
        allowed_lateness_us=MIN,
    )
    cfg1 = _cfg(tmp_path, **kw)
    r1 = CaptureRunner(str(tmp_path / "log"), cfg1)
    assert r1.run(crash_before_commit_at=1).get("crashed")
    r2 = CaptureRunner(str(tmp_path / "log"), cfg1)
    r2.run()
    r2.flush_windows()

    clean = tmp_path / "clean"
    cfg2 = EngineConfig(num_shards=4, sink_dir=str(clean / "out"), checkpoint_dir=str(clean / "ckpt"), **kw)
    r3 = CaptureRunner(str(tmp_path / "log"), cfg2)
    r3.run()
    r3.flush_windows()

    for kind in ("windows", "windows_sliding", "windows_session"):
        a = r2.read_windows(kind).to_pandas()
        b = r3.read_windows(kind).to_pandas()
        keys = [c for c in a.columns]
        a = a.sort_values(keys).reset_index(drop=True)
        b = b.sort_values(keys).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b), kind


def test_keyed_streaming_panes_per_conversation(tmp_path):
    """window_agg_keys=('conv_id',): per-conversation tumbling panes in the
    runner equal the batch tumbling(keys=['conv_id']) result."""
    import ray.data

    from scylla_cdc_source_connector_ray.stages import windows as W

    t = generate(num_convs=8, turns_per_conv=20, update_pct=20, delete_pct=10, step_us=20_000_000)
    write_windowed(t, str(tmp_path / "log"), num_files=3)
    cfg = _cfg(
        tmp_path,
        window_agg=True,
        window_agg_keys=("conv_id",),
        window_size_us=MIN,
        allowed_lateness_us=MIN,
    )
    runner = CaptureRunner(str(tmp_path / "log"), cfg)
    runner.run()
    runner.flush_windows()
    got = (
        runner.read_windows()
        .to_pandas()[["conv_id", "window_start_us", "n_events", "n_chars"]]
        .sort_values(["conv_id", "window_start_us"])
        .reset_index(drop=True)
    )
    want = (
        W.tumbling(ray.data.from_arrow(t), MIN, keys=["conv_id"])
        .to_pandas()[["conv_id", "window_start_us", "n_events", "n_chars"]]
        .sort_values(["conv_id", "window_start_us"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype({"n_events": "int64", "n_chars": "int64"}),
        want.astype({"n_events": "int64", "n_chars": "int64"}),
    )


def test_session_merge_bounds_with_out_of_order_on_time_row(tmp_path):
    """A carried session merged with an EARLIER-ending on-time row must keep
    max(end) / min(start) (found by code review: end was being shrunk)."""
    log = tmp_path / "log"
    log.mkdir()
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

    S = 1_000_000
    # batch 1: session spanning [100s, 200s]
    pq.write_table(tbl([("a", 0, "x", 100 * S), ("a", 1, "y", 200 * S)], 0), str(log / "f0.parquet"))
    # batch 2: on-time row at 150s (lateness 60s, wm=200s → thr=140s; 150>140)
    pq.write_table(tbl([("a", 2, "z", 150 * S)], 2), str(log / "f1.parquet"))
    cfg = _cfg(tmp_path, num_shards=1, session_gap_us=60 * S, allowed_lateness_us=60 * S)
    runner = CaptureRunner(str(log), cfg)
    runner.run()
    runner.flush_windows()
    sess = runner.read_windows("windows_session").to_pandas()
    assert len(sess) == 1
    assert sess.loc[0, "session_start_us"] == base + 100 * S
    assert sess.loc[0, "session_end_us"] == base + 200 * S
    assert sess.loc[0, "n_turns"] == 3


def test_salted_streaming_sessions_equal_batch(tmp_path):
    """Hierarchical salted sessions (north_star skew clause composed with a
    conversation-level stateful stage): hot conversations split across salted
    sub-shards; sub-shards emit partial intervals, the per-conv merge stage
    owns state + watermark-gated emission. Output equals the batch oracle."""
    import ray.data

    from scylla_cdc_source_connector_ray.stages import windows as W

    t = generate(num_convs=6, turns_per_conv=40, update_pct=20, delete_pct=10, step_us=40_000_000)
    write_windowed(t, str(tmp_path / "log"), num_files=4)
    GAP = 30_000_000
    cfg = _cfg(
        tmp_path, session_gap_us=GAP, allowed_lateness_us=MIN,
        hot_key_threshold=10, salt_factor=4,
    )
    runner = CaptureRunner(str(tmp_path / "log"), cfg)
    hot = sorted(set(t["conv_id"].to_pylist()))[:3]  # salt half the convs
    totals = runner.run(hot_convs=hot)
    runner.flush_windows()
    assert totals["late_dropped"] == 0
    # the merge stage ran and tracked its own watermark namespace
    wms = runner.ckpt.last_committed()["watermarks"]
    assert any(k.startswith("sess:") for k in wms)
    got = (
        runner.read_windows("windows_session")
        .to_pandas()[["conv_id", "session_start_us", "session_end_us", "n_turns"]]
        .sort_values(["conv_id", "session_start_us"])
        .reset_index(drop=True)
    )
    want = (
        W.session(ray.data.from_arrow(t), gap_us=GAP, num_shards=cfg.num_shards)
        .to_pandas()[["conv_id", "session_start_us", "session_end_us", "n_turns"]]
        .sort_values(["conv_id", "session_start_us"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got.astype({"n_turns": "int64"}), want.astype({"n_turns": "int64"}))
    # sessions were emitted progressively (watermark-gated), not only at flush
    import os

    emitted = [
        d for d in os.listdir(tmp_path / "out" / "windows_session") if d.startswith("batch-")
    ]
    assert emitted, "no watermark-gated session emission happened before flush"
    # capture events themselves unchanged by salting
    from scylla_cdc_source_connector_ray.stages.envelope import flatten_envelope

    from tests.oracle import cdc_oracle

    flat = flatten_envelope(runner.read_output()).to_pandas()
    golden = cdc_oracle(t.to_pandas())
    cols = sorted(set(golden.columns) & set(flat.columns))
    a = flat[cols].sort_values(["conv_id", "turn_idx", "seq"]).reset_index(drop=True)
    b = golden[cols].sort_values(["conv_id", "turn_idx", "seq"]).reset_index(drop=True)
    for c in ("before_ts", "after_ts"):
        if c in cols:
            a[c] = pd.to_datetime(a[c]).astype("datetime64[ns]")
            b[c] = pd.to_datetime(b[c]).astype("datetime64[ns]")
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_salted_streaming_sessions_kill_resume(tmp_path):
    """Crash between the merge stage and the commit must replay cleanly: the
    partial files are regenerated, the merge re-runs idempotently."""
    t = generate(num_convs=5, turns_per_conv=30, update_pct=20, delete_pct=10, step_us=30_000_000)
    write_windowed(t, str(tmp_path / "log"), num_files=3)
    GAP = 30_000_000
    kw = dict(session_gap_us=GAP, allowed_lateness_us=MIN, hot_key_threshold=10, salt_factor=4)
    hot = sorted(set(t["conv_id"].to_pylist()))[:2]

    cfg1 = _cfg(tmp_path, **kw)
    r1 = CaptureRunner(str(tmp_path / "log"), cfg1)
    assert r1.run(hot_convs=hot, crash_before_commit_at=1).get("crashed")
    r2 = CaptureRunner(str(tmp_path / "log"), cfg1)
    r2.run()  # hot set restored from the manifest
    r2.flush_windows()

    clean = tmp_path / "clean"
    cfg2 = EngineConfig(num_shards=4, sink_dir=str(clean / "out"), checkpoint_dir=str(clean / "ckpt"), **kw)
    r3 = CaptureRunner(str(tmp_path / "log"), cfg2)
    r3.run(hot_convs=hot)
    r3.flush_windows()

    a = r2.read_windows("windows_session").to_pandas()
    b = r3.read_windows("windows_session").to_pandas()
    keys = list(a.columns)
    a = a.sort_values(keys).reset_index(drop=True)
    b = b.sort_values(keys).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_salted_streaming_conv_panes_equal_unsalted(tmp_path):
    """Hierarchical salted conv-keyed panes (north_star skew clause composed
    with conversation-keyed windowed aggregation): hot conversations split
    across salted sub-shards; sub-shards write pane partials, the
    per-base-shard merge stage owns seed state + watermark-gated emission.
    Content equals the batch tumbling(keys=['conv_id']) oracle, and shard
    placement equals the UNSALTED runner's (panes land on the base shard)."""
    import ray.data

    from scylla_cdc_source_connector_ray.stages import windows as W

    t = generate(num_convs=8, turns_per_conv=40, update_pct=20, delete_pct=10, step_us=20_000_000)
    write_windowed(t, str(tmp_path / "log"), num_files=4)
    kw = dict(
        window_agg=True,
        window_agg_keys=("conv_id",),
        window_size_us=MIN,
        allowed_lateness_us=MIN,
        hot_key_threshold=10,
        salt_factor=4,
    )
    cfg = _cfg(tmp_path, **kw)
    runner = CaptureRunner(str(tmp_path / "log"), cfg)
    hot = sorted(set(t["conv_id"].to_pylist()))[:4]
    totals = runner.run(hot_convs=hot)
    runner.flush_windows()
    assert totals["late_dropped"] == 0
    wms = runner.ckpt.last_committed()["watermarks"]
    assert any(k.startswith("win:") for k in wms)
    cols = ["shard", "conv_id", "window_start_us", "n_events", "n_chars"]
    got = (
        runner.read_windows()
        .to_pandas()[cols]
        .sort_values(cols[:3])
        .reset_index(drop=True)
    )
    want = (
        W.tumbling(ray.data.from_arrow(t), MIN, keys=["conv_id"])
        .to_pandas()[["conv_id", "window_start_us", "n_events", "n_chars"]]
        .sort_values(["conv_id", "window_start_us"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.drop(columns=["shard"])
        .sort_values(["conv_id", "window_start_us"])
        .reset_index(drop=True)
        .astype({"n_events": "int64", "n_chars": "int64"}),
        want.astype({"n_events": "int64", "n_chars": "int64"}),
    )
    # placement: every pane sits on its conversation's BASE shard, exactly
    # where the unsalted runner would have put it
    from scylla_cdc_source_connector_ray.schema import shard_of

    base = shard_of(pa.array(got["conv_id"], pa.string()), cfg.num_shards).to_pylist()
    assert (got["shard"].astype(int) == base).all()
    # panes emitted progressively (watermark-gated), not only at flush
    import os

    emitted = [d for d in os.listdir(tmp_path / "out" / "windows") if d.startswith("batch-")]
    assert emitted, "no watermark-gated pane emission happened before flush"
    # capture events themselves unchanged by salting
    from scylla_cdc_source_connector_ray.stages.envelope import flatten_envelope

    from tests.oracle import cdc_oracle

    flat = flatten_envelope(runner.read_output()).to_pandas()
    golden = cdc_oracle(t.to_pandas())
    cols = sorted(set(golden.columns) & set(flat.columns))
    a = flat[cols].sort_values(["conv_id", "turn_idx", "seq"]).reset_index(drop=True)
    b = golden[cols].sort_values(["conv_id", "turn_idx", "seq"]).reset_index(drop=True)
    for c in ("before_ts", "after_ts"):
        if c in cols:
            a[c] = pd.to_datetime(a[c]).astype("datetime64[ns]")
            b[c] = pd.to_datetime(b[c]).astype("datetime64[ns]")
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_salted_streaming_conv_panes_kill_resume(tmp_path):
    """Crash between the pane-merge stage and the commit must replay cleanly:
    partials regenerate, the merge re-runs idempotently (same panes as a
    clean run)."""
    t = generate(num_convs=6, turns_per_conv=30, update_pct=20, delete_pct=10, step_us=30_000_000)
    write_windowed(t, str(tmp_path / "log"), num_files=3)
    kw = dict(
        window_agg=True,
        window_agg_keys=("conv_id",),
        window_size_us=MIN,
        allowed_lateness_us=MIN,
        hot_key_threshold=10,
        salt_factor=4,
    )
    hot = sorted(set(t["conv_id"].to_pylist()))[:2]

    cfg1 = _cfg(tmp_path, **kw)
    r1 = CaptureRunner(str(tmp_path / "log"), cfg1)
    assert r1.run(hot_convs=hot, crash_before_commit_at=1).get("crashed")
    r2 = CaptureRunner(str(tmp_path / "log"), cfg1)
    r2.run()  # hot set restored from the manifest
    r2.flush_windows()

    clean = tmp_path / "clean"
    cfg2 = EngineConfig(
        num_shards=4, sink_dir=str(clean / "out"), checkpoint_dir=str(clean / "ckpt"), **kw
    )
    r3 = CaptureRunner(str(tmp_path / "log"), cfg2)
    r3.run(hot_convs=hot)
    r3.flush_windows()

    a = r2.read_windows().to_pandas()
    b = r3.read_windows().to_pandas()
    keys = list(a.columns)
    a = a.sort_values(keys).reset_index(drop=True)
    b = b.sort_values(keys).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_window_and_late_readers_are_committed_only(tmp_path):
    """A crashed batch's emitted panes and late rows stay invisible: after a
    crash before the commit of batch 1, read_windows() and read_late() equal
    a clean run of batch 0 alone."""
    import os

    log = tmp_path / "log"
    os.makedirs(log)
    base = pd.Timestamp("2026-01-01").value // 1000

    def tbl(rows, seq0):
        return pa.table(
            {
                "conv_id": pa.array(["a"] * len(rows), pa.string()),
                "turn_idx": pa.array(range(seq0, seq0 + len(rows)), pa.int32()),
                "role": pa.array(["user"] * len(rows), pa.string()),
                "text": pa.array(["x"] * len(rows), pa.string()),
                "tool": pa.array([None] * len(rows), pa.string()),
                "ts": pa.array([base + ts for ts in rows], pa.timestamp("us")),
                "seq": pa.array(range(seq0, seq0 + len(rows)), pa.int64()),
            }
        )

    # batch 0 emits the first minute's pane; batch 1 emits the 5th minute's
    # pane and routes its 30 s row late
    pq.write_table(tbl([0, 5 * MIN], 0), str(log / "f0.parquet"))
    pq.write_table(tbl([MIN // 2, 8 * MIN], 2), str(log / "f1.parquet"))
    kw = dict(num_shards=1, window_agg=True, window_size_us=MIN, allowed_lateness_us=MIN)
    crashed = CaptureRunner(str(log), _cfg(tmp_path, **kw))
    assert crashed.run(crash_before_commit_at=1).get("crashed")
    assert os.listdir(tmp_path / "out" / "windows" / "batch-000001")
    assert os.listdir(tmp_path / "out" / "late" / "tumbling" / "batch-000001")
    clean = CaptureRunner(str(log), _cfg(tmp_path / "clean", **kw))
    clean.run(max_batches=1)
    assert clean.read_windows().num_rows == 1
    assert crashed.read_windows().equals(clean.read_windows())
    assert crashed.read_late().equals(clean.read_late())
