"""CLI entry point: ``python -m scylla_cdc_source_connector_ray``.

The user-facing analogue of deploying the reference connector: point it at a
CDC log directory, get change events (+ optional windows / enrichment /
scoring) in the sink directory, resumable from the checkpoint. Owns its Ray
session (the library never calls ``ray.init``).

    python -m scylla_cdc_source_connector_ray run \
        --log-dir /tmp/log --out /tmp/out --checkpoint /tmp/ckpt \
        --num-shards 64 --windows --enrich --score

    python -m scylla_cdc_source_connector_ray validate --log-dir /tmp/log
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from typing import NamedTuple


def _build_cfg(args) -> "EngineConfig":
    from .config import EngineConfig

    return EngineConfig(
        num_shards=args.num_shards,
        epoch=args.epoch,
        window_size_us=args.window_size_ms * 1000,
        confidence_window_us=args.confidence_window_ms * 1000,
        allowed_lateness_us=args.allowed_lateness_ms * 1000,
        score_text=args.score,
        window_agg=args.windows,
        sliding_window_us=(
            tuple(int(x) * 1000 for x in args.sliding.split(":")) if args.sliding else None
        ),
        session_gap_us=args.session_gap_ms * 1000 if args.session_gap_ms else None,
        enrich_conv_state=args.enrich,
        partition_deletes=args.partition_deletes,
        min_batch_interval_s=args.min_batch_interval_ms / 1000.0,
        initial_lookback_us=(
            args.initial_lookback_ms * 1000 if args.initial_lookback_ms is not None else None
        ),
        sink_dir=args.out,
        checkpoint_dir=args.checkpoint,
    )


def cmd_validate(args) -> int:
    """Dry-run validation (≙ ``ScyllaConnector.validate``,
    ``ScyllaConnector.java:136-259``): config field validation + log dir
    probe + schema check of the first file. No Ray needed."""
    import pyarrow.parquet as pq

    try:
        cfg = _build_cfg(args)
    except ValueError as ex:
        print(json.dumps({"ok": False, "error": f"config: {ex}"}))
        return 2
    problems = []
    if not os.path.isdir(args.log_dir):
        problems.append(f"log dir does not exist: {args.log_dir}")
    else:
        from .sources.windowed import LogWindow, list_log

        units = list_log(args.log_dir)
        if not units:
            problems.append("log dir contains no parquet files (connector will wait)")
        else:
            u = units[0]
            schema = pq.read_schema(
                next(iter(u.paths.values())) if isinstance(u, LogWindow) else u.path
            )
            missing = [c for c in ("conv_id", "turn_idx", "role", "text", "tool", "ts") if c not in schema.names]
            if missing:
                problems.append(f"first log file missing columns: {missing}")
    checkpoint_info = None
    manifest_dir = os.path.join(args.checkpoint, "manifest")
    if os.path.isdir(manifest_dir):
        from .state.checkpoint import Checkpoint

        last = Checkpoint(args.checkpoint).last_committed()
        if last:
            checkpoint_info = {
                "batch_id": last["batch_id"],
                "consumed_files": last["consumed_files"],
                "num_shards": last.get("num_shards"),
                "epoch": last.get("epoch"),
                "hot_convs": last.get("hot_convs", []),
                "hash_impl": last.get("hash_impl"),
                "value_cols_extra": last.get("value_cols_extra", {}),
            }
            # the run's own pin check; a resume adopts the recorded hot set
            from .pipelines._microbatch import check_pins, run_pins
            from .pipelines.runner import CaptureRunner

            runner = CaptureRunner(args.log_dir, cfg)
            try:
                pins = {**runner.pins(), "hot_convs": last.get("hot_convs", [])}
                check_pins(runner.ckpt, run_pins(pins, args.files_per_batch))
            except ImportError:
                problems.append("polars unavailable: cannot verify checkpoint shard hash")
            except ValueError as ex:
                problems.append(str(ex))
    print(
        json.dumps(
            {
                "ok": not problems,
                "problems": problems,
                "num_shards": cfg.num_shards,
                "epoch": cfg.epoch,
                "checkpoint": checkpoint_info,
                "bucketed": os.path.isdir(args.log_dir)
                and any(f.startswith("shard=") for f in os.listdir(args.log_dir)),
            }
        )
    )
    return 0 if not problems else 1


def cmd_metrics(args) -> int:
    """Summarize a checkpoint's per-batch lineage metrics (the JSON records
    every runner commits next to the manifest): totals, batch timings, and
    the last committed batch. No Ray needed."""
    mdir = os.path.join(args.checkpoint, "metrics")
    if not os.path.isdir(mdir):
        print(json.dumps({"ok": False, "error": f"no metrics dir: {mdir}"}))
        return 1
    names = [
        f for f in os.listdir(mdir) if f.startswith("batch-") and f.endswith(".json")
    ]
    # numeric order: 'batch-1000000.json' sorts lexicographically BEFORE
    # 'batch-999999.json' past the 6-digit padding (checkpoint.py's rule)
    names.sort(key=lambda f: int(f[len("batch-") : -len(".json")]))
    batches = []
    for f in names:
        with open(os.path.join(mdir, f)) as fh:
            batches.append(json.load(fh))
    if not batches:
        print(json.dumps({"ok": False, "error": "no batch metrics"}))
        return 1
    secs = sorted(b.get("sec", 0.0) for b in batches)
    totals: dict = {}
    for b in batches:
        for k, v in b.items():
            if k not in ("batch_id", "sec") and isinstance(v, (int, float)):
                totals[k] = totals.get(k, 0) + v
    out = {
        "ok": True,
        "batches": len(batches),
        "last_batch_id": batches[-1]["batch_id"],
        "sec_total": round(sum(secs), 3),
        "sec_p50": round(secs[len(secs) // 2], 3),
        "sec_max": round(secs[-1], 3),
        **{f"total_{k}": v for k, v in sorted(totals.items())},
    }
    # the exchange's per-batch fold and I/O metrics (_microbatch.exchange_metrics):
    # the median batch and the worst one
    for k in ("fold_passes", "fold_s_max", "io_s_max", "io_bytes_max"):
        vals = sorted(b[k] for b in batches if k in b)
        if vals:
            out[f"batch_{k}_p50"] = vals[len(vals) // 2]
            out[f"batch_{k}_max"] = vals[-1]
    from .state.checkpoint import Checkpoint

    last = Checkpoint(args.checkpoint).last_committed()
    if last is not None:
        out["committed_batch_id"] = last["batch_id"]
        out["consumed_files"] = last["consumed_files"]
    print(json.dumps(out))
    return 0


def _init_ray(args) -> None:
    """One definition of the CLI Ray-session setup (the init tweaks must not
    drift between subcommands — they did once: use_polars_sort)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    DataContext.get_current().use_polars_sort = True


def cmd_run(args) -> int:
    import ray

    _init_ray(args)
    from .pipelines.runner import CaptureRunner

    cfg = _build_cfg(args)
    runner = CaptureRunner(args.log_dir, cfg)
    if args.tail:
        totals = runner.follow(
            poll_interval_s=args.poll_ms / 1000.0,
            idle_polls=args.idle_polls,
            files_per_batch=args.files_per_batch,
        )
    else:
        totals = runner.run(
            max_batches=args.max_batches,
            files_per_batch=args.files_per_batch,
        )
    # flush only when the complete log is fully consumed (flush = watermark→∞)
    fully_consumed = args.max_batches is None and not args.tail
    if (args.windows or args.sliding or args.session_gap_ms) and fully_consumed:
        runner.flush_windows()
    print(json.dumps({"ok": True, **totals, "out": args.out, "checkpoint": args.checkpoint}))
    ray.shutdown()
    return 0


def cmd_ingest(args) -> int:
    """Repartition an unpartitioned log into the shard=K layout (one
    distributed keyed exchange; afterwards every run is shuffle-free)."""
    import ray

    _init_ray(args)
    from .sources.ingest import bucketize

    counts = bucketize(args.log_dir, args.out, args.num_shards)
    print(json.dumps({"ok": True, "shards": len(counts), "rows": sum(counts.values()), "out": args.out}))
    ray.shutdown()
    return 0


def _runner(name: str):
    """Lazy runner-class import ("module.Class" under ``pipelines``): a
    subcommand loads only its own runner."""
    import importlib

    mod, cls = name.split(".")
    return getattr(importlib.import_module(f"{__package__}.pipelines.{mod}"), cls)


def _int(flag: str, default, **kw):
    return flag, {"type": int, "default": default, **kw}


def _str(flag: str, default: str):
    return flag, {"default": default}


class StreamCommand(NamedTuple):
    """One lean streaming subcommand. Every one also takes ``--log-dir``,
    ``--checkpoint`` (default ``/tmp/scylla_cdc_ray/<stem>_ckpt``),
    ``--num-cpus``, ``--files-per-batch``, ``--max-batches`` and the live
    tail flags; ``--num-shards`` when the runner exchanges, ``--out``
    (default ``<stem>_out``) when it writes a sink."""

    name: str
    help: str
    stem: str
    make: Callable  # args -> runner
    flags: tuple = ()  # extra (flag, add_argument kwargs)
    fields: Callable | None = None  # (runner, args) -> extra printed fields
    sink: bool = True
    shards: bool = True


STREAM_COMMANDS = (
    StreamCommand(
        "element-stream",
        "streaming element-level collection capture",
        "element",
        lambda a: _runner("element_stream.ElementStreamRunner")(
            a.log_dir, a.num_shards, a.out, a.checkpoint, collection=a.collection
        ),
        (("--collection", {"choices": ("list", "set", "map"), "default": "list"}),),
    ),
    StreamCommand(
        "dedup-stream",
        "streaming first-occurrence text dedup",
        "dedup",
        lambda a: _runner("dedup_stream.DedupStreamRunner")(
            a.log_dir, a.num_shards, a.out, a.checkpoint,
            text_col=a.text_col, order_col=a.order_col,
        ),
        (_str("--text-col", "text"), _str("--order-col", "doc_id")),
    ),
    StreamCommand(
        "segdedup-stream",
        "streaming segment-level (sub-document) exact dedup",
        "segdedup",
        lambda a: _runner("segment_stream.SegmentDedupStreamRunner")(
            a.log_dir, a.num_shards, a.out, a.checkpoint, seg_words=a.seg_words,
            text_col=a.text_col, id_col=a.id_col, num_parts=a.num_parts,
        ),
        (
            _int("--num-parts", 16),
            _int("--seg-words", 20),
            _str("--text-col", "text"),
            _str("--id-col", "doc_id"),
        ),
    ),
    StreamCommand(
        "subdedup-stream",
        "streaming repeated-substring span removal (word k-grams)",
        "subdedup",
        lambda a: _runner("substring_stream.SubstringDedupStreamRunner")(
            a.log_dir, a.num_shards, a.out, a.checkpoint, k=a.k,
            text_col=a.text_col, id_col=a.id_col, num_parts=a.num_parts,
        ),
        (
            _int("--num-parts", 16),
            _int("--k", 8),
            _str("--text-col", "text"),
            _str("--id-col", "doc_id"),
        ),
    ),
    StreamCommand(
        "session-stream",
        "streaming per-event session-id assignment (gap rule)",
        "session",
        lambda a: _runner("session_stream.SessionStreamRunner")(
            a.log_dir, a.num_shards, a.out, a.checkpoint, gap_us=a.gap_us,
            user_col=a.user_col, ts_col=a.ts_col, id_col=a.id_col,
        ),
        (
            _int("--gap-us", 3_600_000_000),
            _str("--user-col", "user_id"),
            _str("--ts-col", "ts"),
            _str("--id-col", "event_id"),
        ),
    ),
    StreamCommand(
        "distinct-stream",
        "streaming exact distinct-per-window counter",
        "dist",
        lambda a: _runner("distinct_stream.DistinctStreamRunner")(
            a.log_dir, a.num_shards, a.checkpoint, window_us=a.window_ms * 1000,
            key_col=a.key_col, ts_col=a.ts_col,
            mode="approx" if a.approx else "exact", hll_p=a.hll_p,
        ),
        (
            _int("--window-ms", 3_600_000),
            _str("--key-col", "conv_id"),
            _str("--ts-col", "ts_us"),
            (
                "--approx",
                {
                    "action": "store_true",
                    "help": "bounded state: one HLL per (shard, window) instead of the "
                    "exact seen-set",
                },
            ),
            _int("--hll-p", 12, help="HLL precision (2^p registers)"),
        ),
        fields=lambda r, a: {"windows": r.read_counts().num_rows},
        sink=False,
    ),
    StreamCommand(
        "cap-stream",
        "streaming per-key admission cap (per-domain quota)",
        "cap",
        lambda a: _runner("cap_stream.SourceCapRunner")(
            a.log_dir, a.num_shards, a.out, a.checkpoint, k=a.cap,
            key_col=a.key_col, order_col=a.order_col,
        ),
        (
            ("--cap", {"type": int, "required": True, "help": "max admitted rows per key"}),
            _str("--key-col", "source"),
            _str("--order-col", "doc_id"),
        ),
    ),
    StreamCommand(
        "curation-stream",
        "streaming curation chain (filter+decontam+dedup+cap), exactly-once",
        "cur",
        lambda a: _runner("curation_stream.CurationStreamRunner")(
            a.log_dir, a.num_shards, a.out, a.checkpoint,
            max_dup_micro=a.max_dup_micro, cap_k=a.cap, text_col=a.text_col,
            id_col=a.id_col, source_col=a.source_col,
        ),
        (
            _int("--cap", 10, help="max admitted docs per source"),
            _int("--max-dup-micro", 60000),
            _str("--text-col", "text"),
            _str("--id-col", "doc_id"),
            _str("--source-col", "source"),
        ),
    ),
    StreamCommand(
        "emb-stream",
        "streaming SRP-LSH embedding near-dup filter",
        "emb",
        lambda a: _runner("embedding_stream.EmbeddingLshStreamRunner")(
            a.log_dir, a.num_shards, a.out, a.checkpoint, vec_col=a.vec_col,
            order_col=a.order_col, n_tables=a.n_tables, n_planes=a.n_planes, dim=a.dim,
        ),
        (
            _str("--vec-col", "embedding"),
            _str("--order-col", "vec_id"),
            _int("--n-tables", 4),
            _int("--n-planes", 8),
            _int("--dim", 64),
        ),
    ),
    StreamCommand(
        "hh-stream",
        "streaming SpaceSaving heavy-hitter tokens",
        "hh",
        lambda a: _runner("hh_stream.HeavyHittersStreamRunner")(
            a.log_dir, a.checkpoint, m=a.m, text_col=a.text_col
        ),
        (
            _int("--m", 4096, help="SpaceSaving counters"),
            _int("--k", 20, help="top-k to print"),
            _str("--text-col", "text"),
        ),
        fields=lambda r, a: {"topk": r.read_topk(a.k).to_pylist()},
        sink=False,
        shards=False,
    ),
    StreamCommand(
        "minhash-stream",
        "streaming arrival-order LSH near-dup filter",
        "mh",
        lambda a: _runner("minhash_stream.MinHashStreamRunner")(
            a.log_dir, a.num_shards, a.out, a.checkpoint,
            text_col=a.text_col, order_col=a.order_col,
        ),
        (_str("--text-col", "text"), _str("--order-col", "doc_id")),
    ),
    StreamCommand(
        "cep-stream",
        "streaming per-conversation pattern counting (literal or regex)",
        "cep",
        lambda a: _runner("cep_stream.CepStreamRunner")(
            a.log_dir, a.num_shards, a.checkpoint, key_col=a.key_col,
            role_col=a.role_col,
            **({"pattern": a.pattern} if a.regex else {"literal": a.pattern}),
        ),
        (
            (
                "--pattern",
                {"default": "uta", "help": "role-symbol sequence (u/a/t/s/d); regex with --regex"},
            ),
            (
                "--regex",
                {
                    "action": "store_true",
                    "help": "treat --pattern as an RE2 regex (DFA-pruned carry)",
                },
            ),
            _str("--key-col", "conv_id"),
            _str("--role-col", "role"),
        ),
        sink=False,
    ),
)


def cmd_stream(args) -> int:
    """Run one lean streaming runner (see ``STREAM_COMMANDS``): one-shot
    drain or live tail, then print its totals as one JSON line."""
    import ray

    _init_ray(args)
    spec = args.stream
    runner = spec.make(args)
    if args.tail:
        totals = runner.follow(
            files_per_batch=args.files_per_batch,
            poll_interval_s=args.poll_ms / 1000.0,
            idle_polls=args.idle_polls,
        )
    else:
        totals = runner.run(files_per_batch=args.files_per_batch, max_batches=args.max_batches)
    out = {"ok": True, **totals}
    if spec.sink:
        out["out"] = args.out
    if spec.fields is not None:
        out.update(spec.fields(runner, args))
    print(json.dumps({**out, "checkpoint": args.checkpoint}))
    ray.shutdown()
    return 0


def _add_stream_command(sub, spec: StreamCommand) -> None:
    sp = sub.add_parser(spec.name, help=spec.help)
    sp.add_argument("--log-dir", required=True)
    if spec.sink:
        sp.add_argument("--out", default=f"/tmp/scylla_cdc_ray/{spec.stem}_out")
    sp.add_argument("--checkpoint", default=f"/tmp/scylla_cdc_ray/{spec.stem}_ckpt")
    if spec.shards:
        sp.add_argument("--num-shards", type=int, default=64)
    for flag, kw in spec.flags:
        sp.add_argument(flag, **kw)
    sp.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    sp.add_argument("--files-per-batch", type=int, default=4)
    sp.add_argument("--max-batches", type=int, default=None)
    sp.add_argument("--tail", action="store_true", help="live tail: poll for new files")
    sp.add_argument("--poll-ms", type=int, default=1000)
    sp.add_argument("--idle-polls", type=int, default=3)
    sp.set_defaults(fn=cmd_stream, stream=spec)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="scylla_cdc_source_connector_ray")
    sub = p.add_subparsers(dest="cmd", required=True)
    mx = sub.add_parser("metrics", help="summarize a checkpoint's per-batch lineage metrics")
    mx.add_argument("--checkpoint", required=True)
    mx.set_defaults(fn=cmd_metrics)
    for spec in STREAM_COMMANDS:
        _add_stream_command(sub, spec)
    for name, fn in (("run", cmd_run), ("validate", cmd_validate), ("ingest", cmd_ingest)):
        sp = sub.add_parser(name)
        sp.add_argument("--log-dir", required=True)
        sp.add_argument("--out", default="/tmp/scylla_cdc_ray/out")
        sp.add_argument("--checkpoint", default="/tmp/scylla_cdc_ray/checkpoint")
        sp.add_argument("--num-shards", type=int, default=64)
        sp.add_argument("--epoch", type=int, default=0)
        sp.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
        sp.add_argument("--window-size-ms", type=int, default=30_000)
        sp.add_argument("--confidence-window-ms", type=int, default=30_000)
        sp.add_argument("--allowed-lateness-ms", type=int, default=30_000)
        sp.add_argument("--files-per-batch", type=int, default=1)
        sp.add_argument("--max-batches", type=int, default=None)
        sp.add_argument("--windows", action="store_true", help="tumbling window panes")
        sp.add_argument("--sliding", type=str, default=None, metavar="SIZE_MS:SLIDE_MS",
                        help="streaming sliding windows, e.g. 3600000:900000")
        sp.add_argument("--session-gap-ms", type=int, default=None,
                        help="streaming session windows with this gap")
        sp.add_argument("--enrich", action="store_true", help="conv-state join")
        sp.add_argument("--score", action="store_true", help="text quality scoring")
        sp.add_argument("--partition-deletes", action="store_true",
                        help="consume conversation tombstones (turn_idx NULL) mid-stream")
        sp.add_argument("--initial-lookback-ms", type=int, default=None,
                        help="fresh start: skip history older than (log frontier - lookback)"
                             " (reference scylla.initial.lookback.ms)")
        sp.add_argument("--min-batch-interval-ms", type=int, default=0,
                        help="reader throttle (reference scylla.minimal.wait.for.window.size.ms)")
        sp.add_argument("--tail", action="store_true",
                        help="live tailing: poll for new files, hold back the confidence window")
        sp.add_argument("--poll-ms", type=int, default=500, help="tail poll interval (reference poll.interval.ms)")
        sp.add_argument("--idle-polls", type=int, default=10, help="stop tailing after this many empty polls")
        sp.set_defaults(fn=fn)
    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
