"""CLI coverage for the lean streaming subcommands: every ``*-stream``
subcommand runs in-process on a tiny windowed log, exits 0 and prints its
summary as the last JSON line. Pins each subcommand's flags and printed
fields."""

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from scylla_cdc_source_connector_ray.__main__ import main


def _write_windows(log: str, t: pa.Table, n_files: int = 2) -> str:
    os.makedirs(log)
    n = t.num_rows
    for i in range(n_files):
        lo, hi = i * n // n_files, (i + 1) * n // n_files
        pq.write_table(t.slice(lo, hi - lo), os.path.join(log, f"window-{i:05d}.parquet"))
    return log


def _docs(n: int = 24, sources: bool = False) -> pa.Table:
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
    rng = np.random.default_rng(3)
    texts = [" ".join(rng.choice(words, 8)) for _ in range(n - 4)]
    texts += texts[:4]  # exact duplicates in the second window
    cols = {"doc_id": pa.array(np.arange(n, dtype=np.int64)), "text": pa.array(texts)}
    if sources:
        cols["source"] = pa.array([["web", "wiki", "forum"][i % 3] for i in range(n)])
    return pa.table(cols)


def _events() -> pa.Table:
    n = 20
    return pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "user_id": pa.array(np.arange(n, dtype=np.int64) % 3),
            "ts": pa.array(
                pd.to_datetime(1_700_000_000_000_000 + np.arange(n) * 60_000_000, unit="us")
            ),
        }
    )


def _keys_ts() -> pa.Table:
    n = 20
    return pa.table(
        {
            "conv_id": pa.array([f"c{i % 5}" for i in range(n)]),
            "ts_us": pa.array(np.arange(n, dtype=np.int64) * 400),
        }
    )


def _cap() -> pa.Table:
    n = 20
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "source": pa.array([["a", "b", "c"][i % 3] for i in range(n)]),
        }
    )


def _vectors() -> pa.Table:
    rng = np.random.default_rng(5)
    m = rng.standard_normal((16, 64)).astype(np.float32)
    m[-2:] = m[:2]
    return pa.table(
        {
            "vec_id": pa.array(np.arange(16, dtype=np.int64)),
            "embedding": pa.array([v.tolist() for v in m], pa.list_(pa.float32())),
        }
    )


def _elements() -> pa.Table:
    rows = [
        (f"c{i % 3}", i % 3, 10 * i, i, ["add", "remove", "wipe", "add"][i % 4],
         [f"e{i % 5}"] if i % 4 != 1 else [], [f"e{(i + 1) % 5}"] if i % 4 == 1 else [])
        for i in range(12)
    ]
    return pa.table(
        {
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
            "seq": pa.array([r[3] for r in rows], pa.int64()),
            "kind": pa.array([r[4] for r in rows], pa.string()),
            "add_elems": pa.array([r[5] for r in rows], pa.list_(pa.string())),
            "rem_elems": pa.array([r[6] for r in rows], pa.list_(pa.string())),
        }
    )


def _roles() -> pa.Table:
    n = 30
    roles = ["user", "tool", "assistant"]
    return pa.table(
        {
            "conv_id": pa.array([f"conv{i % 4}" for i in range(n)]),
            "role": pa.array([roles[(i // 4) % 3] for i in range(n)]),
            "ts": pa.array(
                pd.to_datetime(1_700_000_000_000_000 + np.arange(n) * 1_000_000, unit="us")
            ),
            "seq": pa.array(np.arange(n, dtype=np.int64)),
        }
    )


_RUN = {"batches", "crashed"}
_SINK = {"ok", "out", "checkpoint"}

#: subcommand -> (input table, extra flags, printed keys of a one-shot run)
CASES = {
    "dedup-stream": (_docs, [], _RUN | _SINK | {"rows", "kept", "dups"}),
    "segdedup-stream": (
        _docs,
        ["--seg-words", "3", "--num-parts", "2"],
        _RUN | _SINK | {"docs", "segs_kept", "segs_total"},
    ),
    "subdedup-stream": (
        _docs,
        ["--k", "3", "--num-parts", "2"],
        _RUN | _SINK | {"docs", "words_kept", "words_total"},
    ),
    "session-stream": (
        _events,
        ["--gap-us", "90000000"],
        _RUN | _SINK | {"events", "sessions_started"},
    ),
    "distinct-stream": (
        _keys_ts,
        ["--window-ms", "2"],
        _RUN | {"ok", "checkpoint", "rows", "new_distinct", "windows"},
    ),
    "cap-stream": (
        _cap,
        ["--cap", "2"],
        _RUN | _SINK | {"rows", "admitted", "rejected", "exchanged"},
    ),
    "curation-stream": (
        lambda: _docs(sources=True),
        ["--cap", "3"],
        _RUN | _SINK | {"rows", "cap_in", "admitted"},
    ),
    "emb-stream": (_vectors, [], _RUN | _SINK | {"rows", "kept", "dups"}),
    "hh-stream": (
        _docs,
        ["--m", "16", "--k", "3"],
        _RUN | {"ok", "checkpoint", "tokens", "tracked", "topk"},
    ),
    "element-stream": (
        _elements,
        ["--collection", "set"],
        _RUN | _SINK | {"events"},
    ),
    "minhash-stream": (_docs, [], _RUN | _SINK | {"rows", "kept", "dups"}),
    "cep-stream": (
        _roles,
        ["--pattern", "ut+a", "--regex"],
        _RUN | {"ok", "checkpoint", "rows", "matches"},
    ),
}


@pytest.fixture
def keep_ray(monkeypatch):
    """Every subcommand ends in ``ray.shutdown()``; keep the session's Ray."""
    monkeypatch.setattr(ray, "shutdown", lambda: None)


def _invoke(capsys, cmd, tmp, more=()):
    make, flags, _ = CASES[cmd]
    log = _write_windows(os.path.join(tmp, "log"), make())
    argv = [cmd, "--log-dir", log, "--checkpoint", os.path.join(tmp, "ckpt")]
    if "out" in CASES[cmd][2]:
        argv += ["--out", os.path.join(tmp, "out")]
    if cmd != "hh-stream":  # the one runner with no keyed exchange
        argv += ["--num-shards", "2"]
    argv += ["--files-per-batch", "1", *flags, *more]
    capsys.readouterr()
    assert main(argv) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("{")]
    return json.loads(lines[-1])


@pytest.mark.parametrize("cmd", sorted(CASES))
def test_stream_subcommand_runs(cmd, tmp_path, capsys, keep_ray):
    out = _invoke(capsys, cmd, str(tmp_path))
    assert set(out) == CASES[cmd][2]
    assert out["ok"] is True and out["batches"] == 2 and out["crashed"] is False


def test_stream_subcommand_tail(tmp_path, capsys, keep_ray):
    out = _invoke(
        capsys,
        "dedup-stream",
        str(tmp_path),
        ["--tail", "--idle-polls", "1", "--poll-ms", "10"],
    )
    assert set(out) == CASES["dedup-stream"][2] | {"polls"}
    assert out["batches"] == 2 and out["polls"] == 2 and out["rows"] == 24
