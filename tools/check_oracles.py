"""Mimic the driver's correctness gate locally: run every ``queries()`` entry
and its ``oracle_sql()`` twin on the same sf dir, compare row count, column
names, and order-insensitive values.

Usage: python tools/check_oracles.py [--cpus N] [--cold [--ab BASE_DIR
[--pairs N]]] [sf_dir] [query ...]

``--cpus N`` sizes the local Ray instance (default 8). ``--cold`` runs every
query in a fresh process, as the driver does, and prints each one's wall
time; a query still running after ``COLD_TIMEOUT_S`` counts as failed.

``--ab BASE_DIR`` (with ``--cold``) is an interleaved A/B against another
checkout of the repo: ``--pairs N`` rounds (default 5), each running every
query cold on both trees back to back, with the tree that goes first
alternating round by round. It prints each query's median [q1, q3] wall time
per tree and in how many pairs this tree was faster. Any failed run — a value
mismatch included — on either tree fails the whole check.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

import duckdb
import numpy as np
import pandas as pd
import ray

COLD_TIMEOUT_S = 1800
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def to_pandas(res) -> pd.DataFrame:
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return pd.DataFrame(res)


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[ns]")
        elif df[c].dtype == object:
            df[c] = df[c].where(pd.notna(df[c]), None)
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def run_child(tree: str, sf_dir: str, name: str, cpus: int) -> tuple[bool, float]:
    """One query in a fresh interpreter (and Ray instance) of the checkout at
    ``tree``: (passed, wall seconds)."""
    t0 = time.perf_counter()
    script = os.path.join(tree, "tools", "check_oracles.py")
    try:
        # run from the tree itself: Ray's workers import the package from
        # the driver's working directory
        rc = subprocess.run(
            [sys.executable, script, "--cpus", str(cpus), os.path.abspath(sf_dir), name],
            cwd=tree,
            timeout=COLD_TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        print(f"[FAIL] {name}: no result after {COLD_TIMEOUT_S} s")
        rc = 1
    return rc == 0, time.perf_counter() - t0


def run_cold(sf_dir: str, names: list[str], cpus: int) -> int:
    """One fresh interpreter (and Ray instance) per query."""
    failed = []
    for name in names:
        ok, wall = run_child(REPO, sf_dir, name, cpus)
        print(f"  {name}: {wall:.1f} s wall", flush=True)
        if not ok:
            failed.append(name)
    print(f"{len(names) - len(failed)}/{len(names)} passed; failed: {failed}")
    return 1 if failed else 0


def _quartiles(xs: list[float]) -> str:
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return f"{med:.2f} [{q1:.2f}, {q3:.2f}]"


def run_ab(sf_dir: str, names: list[str], cpus: int, base: str, pairs: int) -> int:
    """Interleaved cold A/B of this tree against the checkout at ``base``."""
    trees = {"base": os.path.abspath(base), "this": REPO}
    walls = {(side, n): [] for side in trees for n in names}
    failed = []
    for p in range(pairs):
        order = ["base", "this"] if p % 2 == 0 else ["this", "base"]
        for name in names:
            for side in order:
                ok, wall = run_child(trees[side], sf_dir, name, cpus)
                print(f"  pair {p + 1} {side} {name}: {wall:.1f} s wall", flush=True)
                walls[side, name].append(wall)
                if not ok:
                    failed.append(f"{side}:{name}")
    print(f"wall s, median [q1, q3] over {pairs} pairs: base -> this (this faster)")
    for name in names:
        b, t = walls["base", name], walls["this", name]
        wins = sum(x < y for x, y in zip(t, b))
        print(f"  {name}: {_quartiles(b)} -> {_quartiles(t)} ({wins}/{pairs})")
    print(f"{2 * pairs * len(names) - len(failed)}/{2 * pairs * len(names)} runs passed; failed: {failed}")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpus", type=int, default=8, help="num_cpus for ray.init")
    parser.add_argument("--cold", action="store_true", help="one fresh process per query")
    parser.add_argument("--ab", metavar="BASE_DIR", help="with --cold: interleaved A/B against BASE_DIR")
    parser.add_argument("--pairs", type=int, default=5, help="A/B rounds (default 5)")
    opts, sys.argv[1:] = parser.parse_known_args()
    if opts.ab and not opts.cold:
        parser.error("--ab needs --cold")
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    sys.path.insert(0, REPO)
    if opts.cold:
        import __ray_entry__ as e

        names = [n for n in e.queries() if not only or n in only]
        if opts.ab:
            return run_ab(sf_dir, names, opts.cpus, opts.ab, opts.pairs)
        return run_cold(sf_dir, names, opts.cpus)
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=opts.cpus, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    DataContext.get_current().use_polars_sort = True

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs, os_ = e.queries(), e.oracle_sql()
    failed = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            mine = normalize(to_pandas(fn(sf_dir)))
        except Exception as ex:
            print(f"[FAIL] {name}: query raised {type(ex).__name__}: {ex}")
            failed.append(name)
            continue
        if name not in os_:
            print(f"[rows-only] {name}: {len(mine)} rows")
            continue
        try:
            oracle = normalize(con.sql(os_[name]).df())
        except Exception as ex:
            print(f"[FAIL] {name}: oracle raised {ex}")
            failed.append(name)
            continue
        ok_cols = list(mine.columns) == list(oracle.columns)
        ok_rows = len(mine) == len(oracle)
        ok_vals = False
        if ok_cols and ok_rows:
            try:
                # dtype-strict: the driver's value hash distinguishes int64 from
                # float64 (DuckDB HUGEINT -> float64 burned round 1) — after the
                # int-width normalization above, any remaining dtype gap is real.
                pd.testing.assert_frame_equal(mine, oracle, check_dtype=True, check_exact=True)
                ok_vals = True
            except AssertionError as ex:
                print(f"  value diff: {str(ex).splitlines()[0]}")
        status = "OK" if (ok_cols and ok_rows and ok_vals) else "FAIL"
        if status == "FAIL":
            failed.append(name)
            print(f"[{status}] {name}: rows {len(mine)}/{len(oracle)} cols_match={ok_cols}")
            if not ok_cols:
                print(f"   mine:   {list(mine.columns)}\n   oracle: {list(oracle.columns)}")
        else:
            print(f"[OK] {name}: {len(mine)} rows")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
