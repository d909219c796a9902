"""Wall seconds of one flat-log capture batch through Ray, by shard count.

Writes a flat log of two windows of :data:`ROWS` events each, cut from
perfbench's ``capture_tail`` log and folded with its capture config
(scoring, tumbling panes, conv-state enrichment; both imported from
``perfbench/workloads.py``, which this tool only reads). Then, per shard
count and repeat, on a fresh checkpoint: batch 0 runs untimed, so that the
timed ``run()`` of batch 1 folds onto prior state as every tail batch
does. Prints one JSON line per shard count with the median and quartiles
of :data:`REPEATS` timed runs and the engine's own metrics of the last timed batch
(``fold_passes``, ``fold_s_max``, ``io_s_max``, ``io_s_p50``).

    python tools/batch_cost.py --shards 4 16 64 --cpus 1

Run it from the checkout it measures: Ray workers import the engine from
the working directory of the process that starts Ray.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

#: events per batch, as in a ``capture_tail`` window
ROWS = 500
#: the log's conversation-id permutation (``perfbench.workloads.make_log``)
SEED = 1
#: timed runs per shard count
REPEATS = 9


def write_log(log: str) -> None:
    """Two flat window files of :data:`ROWS` events of the ``capture_tail`` log."""
    from perfbench.workloads import FULL, _tail_convs, make_log
    from scylla_cdc_source_connector_ray.sources.synthetic import write_windowed

    s = FULL["capture_tail"]
    t = make_log(SEED, _tail_convs(2 * ROWS, s.turns), s.turns, 0, s.pad).slice(0, 2 * ROWS)
    write_windowed(t, log, num_files=2)


def batch_cost(log: str, work: str, shards: int, repeats: int) -> dict:
    """Timed ``run()`` of batch 1 over ``repeats`` fresh checkpoints."""
    from perfbench.workloads import _capture_cfg
    from scylla_cdc_source_connector_ray.pipelines.runner import CaptureRunner

    secs, metrics = [], {}
    for i in range(repeats):
        sink, ckpt = os.path.join(work, f"sink-{i}"), os.path.join(work, f"ckpt-{i}")
        cfg = dataclasses.replace(_capture_cfg(sink, ckpt), num_shards=shards)
        runner = CaptureRunner(log, cfg)
        runner.run(max_batches=1)
        t0 = time.perf_counter()
        runner.run(max_batches=1)
        secs.append(time.perf_counter() - t0)
        with open(os.path.join(ckpt, "metrics", "batch-000001.json")) as f:
            metrics = json.load(f)
        shutil.rmtree(sink)
        shutil.rmtree(ckpt)
    q1, med, q3 = statistics.quantiles(secs, n=4) if len(secs) > 1 else secs * 3
    keys = ("events", "fold_passes", "fold_s_max", "io_s_max", "io_s_p50", "io_bytes_max")
    return {
        "shards": shards,
        "run_s_p50": round(med, 4),
        "run_s_q1": round(q1, 4),
        "run_s_q3": round(q3, 4),
        "repeats": repeats,
        **{k: metrics[k] for k in keys if k in metrics},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--shards", type=int, nargs="+", default=[4, 16, 64])
    ap.add_argument("--cpus", type=int, default=1, help="Ray num_cpus")
    ap.add_argument("--work", default=None, help="work dir (default: a new temp dir)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.getcwd())  # the checkout measured, as for the workers
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    work = args.work or tempfile.mkdtemp(prefix="batch_cost_")
    os.makedirs(work, exist_ok=True)
    log = os.path.join(work, "log")
    shutil.rmtree(log, ignore_errors=True)
    write_log(log)

    import ray

    ray.init(
        address="local",
        num_cpus=args.cpus,
        object_store_memory=256 * 1024 * 1024,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
    )
    try:
        batch_cost(log, os.path.join(work, "warm"), args.shards[0], 1)  # worker imports
        for n in args.shards:
            print(json.dumps({"cpus": args.cpus, "rows": ROWS, **batch_cost(log, work, n, REPEATS)}), flush=True)
    finally:
        ray.shutdown()
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
