"""Composed streaming curation chain: stream == batch chain, batch-size
invariance, kill-resume byte-stability, replay-identity pins."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

from scylla_cdc_source_connector_ray.pipelines.curation_stream import (
    CurationStreamRunner,
)


def _corpus() -> pd.DataFrame:
    """Docs exercising every stage: a contaminated doc (verbatim benchmark
    phrase), a repetitive doc, exact duplicates across the batch boundary,
    and more docs per source than the cap admits."""
    rows = []
    rng = np.random.default_rng(3)
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf"]
    for i in range(40):
        txt = " ".join(rng.choice(words, 12))
        rows.append((i, txt, ["web", "wiki", "forum"][i % 3]))
    # duplicates of early docs, higher ids (cross-batch: dups must drop)
    for j, i in enumerate((0, 1, 2, 3, 4, 5)):
        rows.append((100 + j, rows[i][1], rows[i][2]))
    # also duplicate with different WHITESPACE: normalization must fold it
    rows.append((110, "  " + rows[6][1].replace(" ", "   ") + " ", rows[6][2]))
    # repetitive doc: one 2-gram repeated -> dup fraction way over 60000 ppm
    rows.append((111, "spam ham " * 30, "web"))
    # contaminated doc: contains a benchmark 3-gram verbatim
    rows.append((112, "prefix the fast key order sort suffix", "wiki"))
    df = pd.DataFrame(rows, columns=["doc_id", "text", "source"])
    return df.sort_values("doc_id").reset_index(drop=True)


def _write_log(tmp, df, nf=4):
    log = os.path.join(tmp, "log")
    os.makedirs(log, exist_ok=True)
    n = len(df)
    for i in range(nf):
        lo, hi = i * n // nf, (i + 1) * n // nf
        pq.write_table(
            pa.Table.from_pandas(df.iloc[lo:hi], preserve_index=False),
            os.path.join(log, f"window-{i:05d}.parquet"),
        )
    return log


def _runner(tmp, log, name="r", cap_k=5, **kw):
    return CurationStreamRunner(
        log,
        num_shards=4,
        sink_dir=os.path.join(tmp, name, "out"),
        checkpoint_dir=os.path.join(tmp, name, "ckpt"),
        cap_k=cap_k,
        **kw,
    )


def _sorted(t) -> pd.DataFrame:
    df = t.to_pandas() if not isinstance(t, pd.DataFrame) else t
    df = df.sort_values(["source", "rank"]).reset_index(drop=True)
    df = df[["doc_id", "source", "rank"]]
    return df.astype({"doc_id": "int64", "rank": "int64"})


def test_stream_equals_batch_chain(tmp_path):
    from scylla_cdc_source_connector_ray.functions.corpus import curation_chain

    tmp = str(tmp_path)
    df = _corpus()
    log = _write_log(tmp, df)
    r = _runner(tmp, log)
    res = r.run(files_per_batch=2)
    got = _sorted(r.read_output())
    want = _sorted(
        curation_chain(ray.data.from_pandas(df), cap_per_source=5)
        .to_pandas()[["doc_id", "source", "rank"]]
    )
    pd.testing.assert_frame_equal(got, want)
    # the chain actually filtered: repetitive + contaminated docs are out
    assert 111 not in set(got["doc_id"]) and 112 not in set(got["doc_id"])
    # duplicates lost to first arrival
    assert not (set(got["doc_id"]) & {100, 101, 102, 103, 104, 105, 110})
    assert res["admitted"] == len(got)


def test_batch_size_invariance(tmp_path):
    tmp = str(tmp_path)
    df = _corpus()
    log = _write_log(tmp, df)
    a = _runner(tmp, log, name="a")
    a.run(files_per_batch=1)
    b = _runner(tmp, log, name="b")
    b.run(files_per_batch=4)
    pd.testing.assert_frame_equal(_sorted(a.read_output()), _sorted(b.read_output()))


def test_kill_resume_byte_stable(tmp_path):
    tmp = str(tmp_path)
    df = _corpus()
    log = _write_log(tmp, df)
    clean = _runner(tmp, log, name="clean")
    clean.run(files_per_batch=1)

    crashed = _runner(tmp, log, name="cr")
    res = crashed.run(files_per_batch=1, crash_before_commit_at=2)
    assert res["crashed"] is True  # state for batch 2 written, no manifest
    # resume: replays batch 2 from both pre-batch state snapshots
    resumed = _runner(tmp, log, name="cr")
    resumed.run(files_per_batch=1)
    pd.testing.assert_frame_equal(
        _sorted(resumed.read_output()), _sorted(clean.read_output())
    )


def test_resume_pin_guard(tmp_path):
    tmp = str(tmp_path)
    df = _corpus()
    log = _write_log(tmp, df)
    r = _runner(tmp, log, name="p", cap_k=5)
    r.run(files_per_batch=2, max_batches=1)
    with pytest.raises(ValueError, match="cap_k"):
        _runner(tmp, log, name="p", cap_k=7).run(files_per_batch=2)


def test_hash_impl_pin_guard(tmp_path, monkeypatch):
    """The cap stage routes sources through the polars-backed shard hash:
    a resume under a different hash identity must fail loudly."""
    from scylla_cdc_source_connector_ray.pipelines import curation_stream

    tmp = str(tmp_path)
    log = _write_log(tmp, _corpus())
    _runner(tmp, log).run(files_per_batch=2, max_batches=1)
    monkeypatch.setattr(curation_stream, "current_hash_impl", lambda: "polars-0.0.0")
    with pytest.raises(ValueError, match="hash_impl"):
        _runner(tmp, log).run(files_per_batch=2)


def test_null_sources_flow_through_chain(tmp_path):
    """NULL source docs: pass the filters, dedup normally, and form ONE cap
    group (SQL PARTITION BY treats NULL as an ordinary group)."""
    tmp = str(tmp_path)
    rng = np.random.default_rng(11)
    words = np.array([f"w{i}" for i in range(40)], dtype=object)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(12, dtype=np.int64),
            # distinct words per doc: all 2-grams unique -> repetition passes
            "text": [" ".join(rng.permutation(words)[:9]) for _ in range(12)],
            "source": [None if i % 3 == 0 else "s" for i in range(12)],
        }
    )
    log = _write_log(tmp, df, nf=2)
    r = _runner(tmp, log, name="n", cap_k=2)
    r.run(files_per_batch=1)
    out = r.read_output().to_pandas()
    nulls = out[out["source"].isna()]
    assert len(nulls) == 2 and sorted(nulls["rank"]) == [1, 2]  # capped as one group
    named = out[out["source"] == "s"]
    assert len(named) == 2 and sorted(named["rank"]) == [1, 2]
