"""The checkpoint's state file format (``state/checkpoint.py``): every state
table a runner writes reads back through ``Checkpoint.load_state`` with its
schema and values, GC prunes state files by their name, an uncommitted
batch's state stays invisible, a checkpoint written with Parquet state
refuses to resume (and ``validate`` says why), and no module outside
``state/checkpoint.py`` touches a state file by path."""

import ast
import glob
import importlib.util
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from scylla_cdc_source_connector_ray.config import EngineConfig
from scylla_cdc_source_connector_ray.pipelines._microbatch import read_committed_state
from scylla_cdc_source_connector_ray.pipelines.dedup_stream import DedupStreamRunner
from scylla_cdc_source_connector_ray.pipelines.runner import CaptureRunner
from scylla_cdc_source_connector_ray.sources.synthetic import generate, write_windowed
from scylla_cdc_source_connector_ray.state.checkpoint import Checkpoint, read_state_file

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "scylla_cdc_source_connector_ray")


def _tables():
    """State-shaped tables at the edges of the format: empty with and
    without columns, large_string, struct, list and all-NULL columns,
    schema metadata, several chunks."""
    n = 5
    mixed = pa.table(
        {
            "k": pa.array([f"k{i}" for i in range(n)]),
            "big": pa.array(["x" * i if i % 2 else None for i in range(n)], pa.large_string()),
            "st": pa.array(
                [{"a": i, "b": f"s{i}"} if i != 2 else None for i in range(n)],
                pa.struct([("a", pa.int64()), ("b", pa.string())]),
            ),
            "ls": pa.array([[f"e{j}" for j in range(i)] for i in range(n)], pa.list_(pa.string())),
            "null_typed": pa.array([None] * n, pa.int64()),
            "null": pa.array([None] * n, pa.null()),
            "ts": pa.array(np.arange(n) * 1000, pa.timestamp("us")),
            "f": pa.array(np.linspace(0, 1, n), pa.float32()),
            "bin": pa.array([bytes([i]) * 16 for i in range(n)], pa.binary(16)),
        }
    ).replace_schema_metadata({"origin": "test"})
    return {
        "no_columns": pa.table({}),
        "empty": mixed.slice(0, 0),
        "mixed": mixed,
        "chunked": pa.concat_tables([mixed, mixed.slice(1, 3)]),
    }


def _assert_same(got: pa.Table, want: pa.Table) -> None:
    assert got.schema.equals(want.schema, check_metadata=True), (got.schema, want.schema)
    assert got.equals(want)


@pytest.mark.parametrize("name", sorted(_tables()))
def test_state_round_trips(tmp_path, name):
    t = _tables()[name]
    ck = Checkpoint(str(tmp_path / "ckpt"))
    ck.write_state(3, 7, t, kind="x")
    _assert_same(ck.load_state(3, before_batch=8, kind="x"), t)
    assert ck.load_state(3, before_batch=7, kind="x") is None
    assert ck.load_state(2, before_batch=8, kind="x") is None


def _byte_identity_cases():
    spec = importlib.util.spec_from_file_location(
        "stream_byte_identity", os.path.join(ROOT, "tools", "stream_byte_identity.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod._cases()


CASES = _byte_identity_cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_runner_state_round_trips(tmp_path, name):
    """Each state table a runner leaves (the byte-identity tool's cases
    cover all 17 runners) reads back through ``load_state``, writes and
    reads again with its schema and values, and holds the values the
    Parquet state format read back."""
    write_log, make, run_kw = CASES[name]
    log, out, ckd = (str(tmp_path / x) for x in ("log", "sink", "ckpt"))
    os.makedirs(log)
    write_log(log)
    make(log, out, ckd).run(**{"files_per_batch": 1, **run_kw})
    ck, copy = Checkpoint(ckd), Checkpoint(str(tmp_path / "copy"))
    kinds = [k for k in os.listdir(ckd) if ck.state_shards(k)]
    assert kinds
    for kind in kinds:
        for shard in ck.state_shards(kind):
            t = ck.load_state(shard, before_batch=10**6, kind=kind)
            copy.write_state(shard, 0, t, kind=kind)
            _assert_same(copy.load_state(shard, before_batch=1, kind=kind), t)
            # Parquet names a list's child "element"; the values are the same
            pq.write_table(t, str(tmp_path / "p.parquet"))
            assert pq.read_table(str(tmp_path / "p.parquet")).cast(t.schema).equals(t)


def test_gc_keeps_two_state_files_per_shard(tmp_path):
    ck = Checkpoint(str(tmp_path / "ckpt"))
    t = pa.table({"k": [1, 2]})
    for b in range(5):
        for shard in (0, 1):
            ck.write_state(shard, b, t, kind="seen")
        ck.write_state(0, b, t)
        ck.commit(b, {"consumed_files": b + 1})
    ck.gc_state(keep_batches=2)
    for kind, shards in (("seen", (0, 1)), ("state", (0,))):
        assert ck.state_shards(kind) == list(shards)
        for shard in shards:
            kept = sorted(os.listdir(os.path.dirname(ck.state_path(shard, 0, kind))))
            assert kept == [os.path.basename(ck.state_path(shard, b, kind)) for b in (3, 4)]
    assert sorted(os.listdir(ck.manifest_dir)) == ["batch-000003.json", "batch-000004.json"]


def test_uncommitted_state_is_invisible(tmp_path):
    ck = Checkpoint(str(tmp_path / "ckpt"))
    assert read_committed_state(ck, "state") == []
    ck.write_state(0, 0, pa.table({"v": [0]}))
    assert read_committed_state(ck, "state") == []  # nothing committed yet
    ck.commit(0, {"consumed_files": 1})
    ck.write_state(0, 1, pa.table({"v": [1]}))  # a crashed attempt at batch 1
    ck.write_state(1, 1, pa.table({"v": [11]}))
    [t] = read_committed_state(ck, "state")
    assert t["v"].to_pylist() == [0]
    assert ck.load_state(1, before_batch=ck.last_committed()["batch_id"] + 1) is None


def _as_parquet_state(ckd: str) -> int:
    """Rewrite the checkpoint at ``ckd`` the way a build with Parquet state
    wrote it: each state file as ``batch-B.parquet`` and no
    ``state_format`` pin. Returns the number of state files."""
    ck = Checkpoint(ckd)
    ext = os.path.splitext(ck.state_path(0, 0))[1]
    n = 0
    for p in glob.glob(os.path.join(ckd, "*", "shard=*", f"batch-*{ext}")):
        pq.write_table(read_state_file(p), p[: -len(ext)] + ".parquet")
        os.unlink(p)
        n += 1
    for p in [os.path.join(ckd, "pins.json"), *glob.glob(os.path.join(ckd, "manifest", "*.json"))]:
        with open(p) as f:
            d = json.load(f)
        d.pop("state_format")
        with open(p, "w") as f:
            json.dump(d, f, sort_keys=True)
    return n


def _capture(tmp_path):
    t = generate(num_convs=6, turns_per_conv=4, update_pct=30, delete_pct=10)
    log = str(tmp_path / "log")
    write_windowed(t, log, num_files=2)
    cfg = EngineConfig(
        num_shards=4, sink_dir=str(tmp_path / "out"), checkpoint_dir=str(tmp_path / "ckpt")
    )
    return log, cfg


def test_capture_refuses_parquet_state_checkpoint(tmp_path):
    log, cfg = _capture(tmp_path)
    CaptureRunner(log, cfg).run(max_batches=1)
    assert _as_parquet_state(cfg.checkpoint_dir) > 0
    with pytest.raises(ValueError, match="state_format"):
        CaptureRunner(log, cfg).run()


def test_dedup_stream_refuses_parquet_state_checkpoint(tmp_path):
    log = str(tmp_path / "log")
    os.makedirs(log)
    for i in range(2):
        docs = pa.table({"doc_id": pa.array([2 * i, 2 * i + 1], pa.int64()), "text": ["a", "b"]})
        pq.write_table(docs, os.path.join(log, f"window-{i:05d}.parquet"))
    ckd = str(tmp_path / "ckpt")

    def runner():
        return DedupStreamRunner(log, 4, str(tmp_path / "out"), ckd)

    runner().run(files_per_batch=1, max_batches=1)
    assert _as_parquet_state(ckd) > 0
    with pytest.raises(ValueError, match="state_format"):
        runner().run(files_per_batch=1)


def test_validate_lists_parquet_state_format(tmp_path, capsys):
    from scylla_cdc_source_connector_ray.__main__ import main

    log, cfg = _capture(tmp_path)
    CaptureRunner(log, cfg).run(max_batches=1, files_per_batch=1)
    argv = [
        "validate", "--log-dir", log, "--num-shards", "4", "--files-per-batch", "1",
        "--out", cfg.sink_dir, "--checkpoint", cfg.checkpoint_dir,
    ]
    capsys.readouterr()
    assert main(argv) == 0  # the checkpoint this build wrote resumes
    assert json.loads(capsys.readouterr().out)["problems"] == []
    _as_parquet_state(cfg.checkpoint_dir)
    assert main(argv) == 1
    [problem] = json.loads(capsys.readouterr().out)["problems"]
    assert "state_format" in problem


#: The checkpoint's private state-file helpers: no other module may name them.
STATE_FILE_NAMES = {
    "state_path",
    "latest_state_path",
    "_latest_state_path",
    "read_state_file",
    "_write_state_file",
}


def test_only_checkpoint_module_touches_state_files():
    """No package module outside ``state/checkpoint.py`` builds, finds or
    opens a state file by path: state goes through ``write_state`` and
    ``load_state``, so the format lives in one module."""
    offenders = []
    for path in sorted(glob.glob(os.path.join(PKG, "**", "*.py"), recursive=True)):
        if path == os.path.join(PKG, "state", "checkpoint.py"):
            continue
        with open(path) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            name = (
                node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else None
            )
            if name in STATE_FILE_NAMES:
                offenders.append(f"{os.path.relpath(path, ROOT)}:{node.lineno} {name}")
            if isinstance(node, ast.ImportFrom):
                offenders += [
                    f"{os.path.relpath(path, ROOT)}:{node.lineno} import {a.name}"
                    for a in node.names if a.name in STATE_FILE_NAMES
                ]
    assert offenders == []
