"""Streaming per-group top-k runner: mergeable bounded state, kill-resume,
pin rejection."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from scylla_cdc_source_connector_ray.pipelines.topk_stream import TopKStreamRunner


def _write_log(tmp, frames):
    log = os.path.join(tmp, "log")
    os.makedirs(log, exist_ok=True)
    for i, df in enumerate(frames):
        pq.write_table(
            pa.Table.from_pandas(df, preserve_index=False),
            os.path.join(log, f"window-{i:05d}.parquet"),
        )
    return log


def _runner(tmp, log, name="r", k=2):
    return TopKStreamRunner(
        log,
        num_shards=4,
        checkpoint_dir=os.path.join(tmp, name, "ckpt"),
        keys=["g"],
        value_col="v",
        k=k,
        tiebreak=["uid"],
    )


def _mk(rng, n, lo=0):
    return pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c", "d"], n),
            "v": rng.integers(0, 1000, n).astype(np.int64),
            "uid": np.arange(lo, lo + n, dtype=np.int64),
        }
    )


def _reference(df, k=2):
    want = df.sort_values(["g", "v", "uid"], ascending=[True, False, True]).groupby("g").head(k)
    return set(map(tuple, want[["g", "v", "uid"]].itertuples(index=False)))


def test_stream_topk_matches_batch_reference(tmp_path):
    tmp = str(tmp_path)
    rng = np.random.default_rng(41)
    frames = [_mk(rng, 60, lo=i * 60) for i in range(4)]
    log = _write_log(tmp, frames)
    r = _runner(tmp, log)
    r.run(files_per_batch=1)
    out = r.read_topk().to_pandas()
    assert set(map(tuple, out[["g", "v", "uid"]].itertuples(index=False))) == _reference(
        pd.concat(frames)
    )
    assert out["rank"].max() <= 2


def test_stream_topk_kill_resume(tmp_path):
    tmp = str(tmp_path)
    rng = np.random.default_rng(43)
    frames = [_mk(rng, 40, lo=i * 40) for i in range(3)]
    log = _write_log(tmp, frames)
    r = _runner(tmp, log, name="crash")
    totals = r.run(files_per_batch=1, crash_before_commit_at=1)
    assert totals["crashed"]
    resumed = _runner(tmp, log, name="crash")
    resumed.run(files_per_batch=1)
    out = resumed.read_topk().to_pandas()
    assert set(map(tuple, out[["g", "v", "uid"]].itertuples(index=False))) == _reference(
        pd.concat(frames)
    )


def test_stream_topk_k_change_is_rejected(tmp_path):
    tmp = str(tmp_path)
    rng = np.random.default_rng(47)
    log = _write_log(tmp, [_mk(rng, 10), _mk(rng, 10, lo=10)])
    _runner(tmp, log).run(files_per_batch=1, max_batches=1)
    with pytest.raises(ValueError, match="topk_impl"):
        _runner(tmp, log, k=3).run(files_per_batch=1)


def test_stream_topk_rows_counts_every_input_row(tmp_path):
    # the rows stat is the batch's input rows, however the route's per-slice
    # prune cut them before the exchange
    tmp = str(tmp_path)
    rng = np.random.default_rng(9)
    kv = pd.DataFrame(
        {
            "g": [f"k{i}" if i % 7 else None for i in rng.integers(0, 6, 60)],
            "v": rng.integers(0, 100, 60).astype(np.int64),
            "uid": np.arange(60, dtype=np.int64),
        }
    )
    log = _write_log(tmp, [kv.iloc[i * 15 : (i + 1) * 15] for i in range(4)])
    totals = _runner(tmp, log).run(files_per_batch=4)
    assert totals["rows"] == 60
