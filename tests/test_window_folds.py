"""Split invariance of the streaming window folds (``stages/windows.py``),
without Ray: folding a log batch by batch the way the capture runner does
(late rows routed aside, then the pane or session fold), then flushing,
emits the same windows as one fold over the rows kept on time."""

import hypothesis.strategies as st
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings

from scylla_cdc_source_connector_ray.stages.windows import AFTER_ALL, BEFORE_ALL, Panes, Sessions

S = 1_000_000


@st.composite
def split_logs(draw):
    n = draw(st.integers(1, 40))
    rows = [
        (
            draw(st.sampled_from(["a", "b", "c"])),
            draw(st.integers(0, 30)) * S,  # out of order: no sort
            draw(st.sampled_from([None, "", "x", "hello"])),
        )
        for _ in range(n)
    ]
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    lateness = draw(st.integers(0, 10)) * S
    return rows, cuts, lateness


def _batches(rows, cuts):
    t = pa.table(
        {
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "after_text": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    bounds = [0, *cuts, len(rows)]
    return [t.slice(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]


def _fold_stream(core, batches, lateness):
    """One shard of the runner without I/O. Returns the emitted and flushed
    windows, the late row count and the on-time rows, each with the
    threshold ``thr_prev`` its batch was folded against."""
    state, wm, out, n_late, ontime = None, None, [], 0, []
    for b in batches:
        if not b.num_rows:
            continue  # the runner folds only batches with rows
        ts = b["ts"].cast(pa.int64()).to_numpy()
        thr_prev = BEFORE_ALL if wm is None else wm - lateness
        late = core.closes_us(ts) <= thr_prev
        n_late += int(late.sum())
        kept = b.filter(pa.array(~late))
        ontime.append(kept.append_column("thr_prev", pa.array([thr_prev] * kept.num_rows, pa.int64())))
        wm = max(wm or 0, int(ts.max()))
        emitted, state = core.fold(core.partials(kept), state, thr_prev, wm - lateness)
        out.append(emitted)
    emitted, _ = core.fold(state, None, wm - lateness, AFTER_ALL)
    return pa.concat_tables([*out, emitted]), n_late, pa.concat_tables(ontime)


def _rows(t: pa.Table, keys) -> list:
    return t.to_pandas().sort_values(keys).to_dict("records")


def _sliding_reference(ontime: pa.Table, core: Panes) -> pd.DataFrame:
    """Each on-time row counts in every window covering it that had not
    closed when its batch was folded (end > its thr_prev)."""
    df = ontime.to_pandas()
    ts = ontime["ts"].cast(pa.int64()).to_numpy()
    chars = df["after_text"].fillna("").str.len().to_numpy()
    pane = ts - ts % core.slide_us
    parts = []
    for i in range(core.size_us // core.slide_us):
        ws = pane - i * core.slide_us
        keep = ws + core.size_us > df["thr_prev"].to_numpy()
        parts.append(pd.DataFrame({"window_start_us": ws[keep], "n_events": 1, "n_chars": chars[keep]}))
    return pd.concat(parts).groupby("window_start_us", as_index=False)[["n_events", "n_chars"]].sum()


@pytest.mark.parametrize(
    "core",
    [Panes(2 * S, 2 * S), Panes(2 * S, 2 * S, ("conv_id",)), Sessions(3 * S)],
    ids=["tumbling", "tumbling_conv", "session"],
)
@settings(max_examples=60, deadline=None)
@given(log=split_logs())
def test_fold_split_invariance(core, log):
    rows, cuts, lateness = log
    got, n_late, ontime = _fold_stream(core, _batches(rows, cuts), lateness)
    want, _ = core.fold(core.partials(ontime), None, BEFORE_ALL, AFTER_ALL)
    keys = ["conv_id", "session_start_us"] if isinstance(core, Sessions) else [*core.keys, "window_start_us"]
    assert _rows(got, keys) == _rows(want, keys)
    count = "n_turns" if isinstance(core, Sessions) else "n_events"
    assert pc.sum(got[count]).as_py() + n_late == len(rows)


@pytest.mark.parametrize("k", [1, 2, 4])
@settings(max_examples=60, deadline=None)
@given(log=split_logs())
def test_sliding_fold_split_invariance(k, log):
    """Sliding at size/slide = k. A row whose earlier windows closed before
    its batch counts only in the later ones, so the reference credits rows
    per window instead of folding once; at k = 1 (tumbling) both agree."""
    rows, cuts, lateness = log
    core = Panes(k * 2 * S, 2 * S)
    got, n_late, ontime = _fold_stream(core, _batches(rows, cuts), lateness)
    want = _sliding_reference(ontime, core)
    assert _rows(got, ["window_start_us"]) == want.sort_values("window_start_us").to_dict("records")
    if k == 1:
        once, _ = core.fold(core.partials(ontime), None, BEFORE_ALL, AFTER_ALL)
        assert _rows(got, ["window_start_us"]) == _rows(once, ["window_start_us"])
        assert pc.sum(got["n_events"]).as_py() + n_late == len(rows)
