"""Core data model: input transcript schema, change-event envelope schema, sharding.

Mirrors the reference connector's data model (SURVEY.md §1):

* input transcript row  ≙ ScyllaDB CDC log row (``RawChange``), with
  ``conv_id`` the partition key and ``turn_idx`` the clustering key
  (reference ``RowKey.java:26-58``);
* the output envelope ≙ the Debezium envelope the reference emits per change
  (``{source, before, after, op, ts_ms}``, reference ``ScyllaSchema.java:79-105``);
* ``shard`` ≙ the CDC stream-id / Vnode a row belongs to
  (reference ``ConfigSerializerUtil.java:39-52``): ``hash(conv_id) % num_shards``.

Everything here is plain pyarrow — schemas are tiny and are captured by closure
into ``map_batches`` stages (no need for an object-store broadcast).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# ---------------------------------------------------------------------------
# Input: transcript CDC log
# ---------------------------------------------------------------------------

#: Canonical input schema (BASELINE.json ``input_hint``).
TRANSCRIPTS = pa.schema(
    [
        ("conv_id", pa.string()),  # partition key (≙ Scylla pk)
        ("turn_idx", pa.int32()),  # clustering key (≙ Scylla ck)
        ("role", pa.string()),  # "user" | "assistant" | "system" | "tool"
        ("text", pa.string()),  # turn payload; NULL ⇒ tombstone (delete)
        ("tool", pa.string()),  # tool name or NULL
        ("ts", pa.timestamp("us")),  # event time
    ]
)

#: Extra bookkeeping column: arrival sequence number (unique, monotone in
#: arrival order). The analogue of the CDC log's ``cdc$time`` timeuuid used as
#: the total order per stream. Synthetic sources generate it; the windowed
#: reader derives it from (file order, row index) when absent.
SEQ_COL = "seq"

#: Non-key value columns of the transcript row (≙ the reference's non-PK
#: columns whose cells appear in before/after images).
VALUE_COLS = ("role", "text", "tool", "ts")

#: Collection-typed value columns (reference M8 one notch wider —
#: ``ScyllaSchema.java:340-389``: list → Arrow list, UDT → Arrow struct;
#: "column not modified vs set-to-NULL vs emptied" all distinct states).
TAGS_TYPE = pa.list_(pa.string())
META_TYPE = pa.struct([("k", pa.int64()), ("src", pa.string())])

#: transcript schema extended with the collection columns
COLLECTION_VALUE_COLS = ("role", "text", "tool", "tags", "meta", "ts")

#: map<K,V> value column, represented the way the reference emits maps —
#: an array of {key, value} structs in key order, non-string keys included
#: (``ScyllaSchema.java:340-389``: map → ARRAY of key/value STRUCTs)
ATTRS_TYPE = pa.list_(pa.struct([("key", pa.int64()), ("value", pa.string())]))

#: transcript schema extended with the map column
MAP_VALUE_COLS = ("role", "text", "tool", "attrs", "ts")

#: tuple<int64, string> value column, represented the way the reference emits
#: tuples — a struct with ``field_N`` names (``ScyllaChangeRecordEmitter.java:
#: 749-764``, ``ScyllaSchema.java:390-406``; "field_N" for Avro compatibility).
#: Unlike a UDT, a tuple whose fields are all NULL is DISTINCT from a NULL
#: tuple (the empty-UDT→NULL normalization does not apply).
PAIR_TYPE = pa.struct([("field_0", pa.int64()), ("field_1", pa.string())])

#: transcript schema extended with the tuple column
TUPLE_VALUE_COLS = ("role", "text", "tool", "pair", "ts")


def is_tuple_struct(t: pa.DataType) -> bool:
    """A struct column carrying tuple semantics: every field named field_N."""
    import re

    return (
        pa.types.is_struct(t)
        and t.num_fields > 0
        and all(re.fullmatch(r"field_\d+", f.name) for f in t)
    )


_VALUE_TYPES = {
    "role": pa.string(),
    "text": pa.string(),
    "tool": pa.string(),
    "ts": pa.timestamp("us"),
    "tags": TAGS_TYPE,
    "meta": META_TYPE,
    "attrs": ATTRS_TYPE,
    "pair": PAIR_TYPE,
}


def row_struct_for(
    value_cols: tuple[str, ...], extra_types: dict[str, pa.DataType] | None = None
) -> pa.StructType:
    """Envelope row struct (key cols + the given value cols) — the dynamic
    analogue of :data:`ROW_STRUCT` for extended column sets. ``extra_types``
    supplies types for evolved columns outside the fixed registry."""
    types = {**_VALUE_TYPES, **(extra_types or {})}
    return pa.struct(
        [
            ("conv_id", pa.string()),
            ("turn_idx", pa.int32()),
            *[(c, types[c]) for c in value_cols],
        ]
    )

# ---------------------------------------------------------------------------
# Output: change-event envelope
# ---------------------------------------------------------------------------

ROW_STRUCT = pa.struct(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

KEY_STRUCT = pa.struct([("conv_id", pa.string()), ("turn_idx", pa.int32())])

SOURCE_STRUCT = pa.struct(
    [
        ("shard", pa.int32()),
        ("epoch", pa.int64()),
        ("window_start", pa.timestamp("us")),
        ("ts_us", pa.int64()),
        ("table", pa.string()),
    ]
)

#: Debezium-envelope-shaped change event (reference ``ScyllaSchema.java:79-105``;
#: op codes ``c``/``u``/``d`` as in ``ScyllaChangeRecordEmitter.java:93-110``).
EVENTS = pa.schema(
    [
        ("key", KEY_STRUCT),
        ("op", pa.string()),
        ("before", ROW_STRUCT),
        ("after", ROW_STRUCT),
        ("source", SOURCE_STRUCT),
        ("ts_ms", pa.int64()),
    ]
)


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------


def shard_of(conv_id: pa.ChunkedArray | pa.Array, num_shards: int) -> pa.Array:
    """Vectorized ``hash(conv_id) % num_shards`` (≙ stream-id → Vnode mapping).

    Uses polars' vectorized stable string hash (fixed seed) so the mapping is
    identical across processes and worker restarts (Python's builtin ``hash``
    is salted per process — never use it for partitioning). The shard id is
    engine-internal: no oracle/SQL result may depend on it.
    """
    import polars as pl

    if isinstance(conv_id, pa.ChunkedArray):
        conv_id = conv_id.combine_chunks()
    h = pl.from_arrow(conv_id.cast(pa.string())).hash(seed=0)
    return pl.Series(h % num_shards).cast(pl.Int32).to_arrow()


def with_shard(batch: pa.Table, num_shards: int, col: str = "shard") -> pa.Table:
    """Append the shard column to a transcript batch (vectorized)."""
    if col in batch.column_names:
        batch = batch.drop_columns([col])
    return batch.append_column(col, shard_of(batch["conv_id"], num_shards))


def select_agg(tbl: pa.Table, keys: list[str], renames: list[tuple[str, str]]) -> pa.Table:
    """Select + rename a ``group_by().aggregate()`` result by the GENERATED
    column names (``{col}_{func}``), never by position — pyarrow's output
    column order (keys-first vs aggregates-first) is a version-dependent
    contract this engine must not depend on (nothing pins pyarrow the way the
    manifest pins hash_impl)."""
    out = tbl.select([*keys, *[src for src, _ in renames]])
    return out.rename_columns([*keys, *[dst for _, dst in renames]])


# ---------------------------------------------------------------------------
# Nested-column transport codec
# ---------------------------------------------------------------------------
# Ray's sort-based shuffle is unreliable for nested (list/struct) columns:
# polars-backed block sorts rewrite string→large_string inside nested types on
# SOME workers, and the sort-merge then fails aligning the mixed layouts.
# Rather than depend on engine internals, the exchange carries nested value
# columns in a flat encoding (also the cheaper thing to shuffle) and the
# group task decodes them back before compute.

#: unit separator — assumed absent from list elements (documented constraint)
_LIST_SEP = "\x1f"
_KV_SEP = "\x02"  # key/value separator inside one map entry
_LJ = "__lj"  # list<string> → joined string
_MJ = "__mj"  # map (list<struct<key,value>>) → joined entry string
_SF = "__sf__"  # struct field → flat column
_SP = "__sp"  # struct presence flag


_CNT_SEP = "\x1e"  # count prefix separator of the flat list encoding


def join_counted(lst: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Injective flat encoding of a list<string>: ``<n>\\x1e<el1>\\x1f<el2>…``
    (NULL list → NULL). The element-count prefix disambiguates ``[]``
    (``0\\x1e``) from ``[""]`` (``1\\x1e``) — a plain join collides there.
    Constraint (documented): elements must not contain the separators."""
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    n = pc.list_value_length(lst).cast(pa.string())
    return pc.binary_join_element_wise(n, pc.binary_join(lst, _LIST_SEP), _CNT_SEP)


def split_counted(j: pa.Array | pa.ChunkedArray) -> pa.ListArray:
    """Inverse of :func:`join_counted` (vectorized)."""
    import numpy as np

    if isinstance(j, pa.ChunkedArray):
        j = j.combine_chunks()
    j = j.cast(pa.string())
    n = len(j)
    null_np = pc.is_null(j).to_numpy(zero_copy_only=False)
    parts = pc.split_pattern(j, _CNT_SEP, max_splits=1)  # [count, joined] per valid row
    pv = parts.values
    offs = parts.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    valid = ~null_np
    start = offs[:-1]
    counts = np.zeros(n, dtype=np.int64)
    if valid.any():
        counts[valid] = pc.cast(pv.take(pa.array(start[valid])), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        rest = pv.take(pa.array(start[valid] + 1))
    else:
        rest = pa.array([], pa.string())
    inner = pc.split_pattern(rest, _LIST_SEP)  # '' → [''], dropped where count == 0
    ilens = np.diff(inner.offsets.to_numpy(zero_copy_only=False).astype(np.int64))
    cvalid = counts[valid]
    row_of_val = np.repeat(np.arange(len(ilens)), ilens)
    keep = cvalid[row_of_val] != 0 if len(ilens) else np.zeros(0, dtype=bool)
    vals = inner.values.filter(pa.array(keep)) if len(inner.values) else inner.values
    lens = np.zeros(n, dtype=np.int64)
    lens[valid] = np.where(cvalid == 0, 0, ilens)
    new_offs = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(lens, out=new_offs[1:])
    return pa.ListArray.from_arrays(pa.array(new_offs, pa.int32()), vals, mask=pa.array(null_np))


def map_entry_strings(col: pa.Array | pa.ChunkedArray) -> pa.ListArray:
    """Map column (list<struct<key,value>>) → list of ``key\\x02value``
    strings with the same offsets/nullness."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    entries = col.values
    k = pc.struct_field(entries, "key").cast(pa.string())
    v = pc.struct_field(entries, "value")
    enc = pc.binary_join_element_wise(k, v, _KV_SEP)
    return pa.ListArray.from_arrays(col.offsets, enc, mask=pc.is_null(col))


def map_entries_joined(col: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Canonical injective string for a map column: count-prefixed
    ``key\\x02value`` entries joined with ``\\x1f`` (NULL map → NULL; ``{}``
    and entry sets all distinct). Constraint (documented): map values must
    not contain the separators. Used for transport AND for the
    modified-column comparison."""
    return join_counted(map_entry_strings(col))


def _check_no_separators(values: pa.Array, what: str) -> None:
    """The flat transport encoding is only injective when the payload strings
    are free of the separator characters — violating that would silently
    corrupt diffs/decodes, so raise instead (cheap vectorized RE2 scan)."""
    if len(values) == 0:
        return
    bad = pc.any(
        pc.match_substring_regex(values, "[\x1f\x1e\x02]")
    ).as_py()
    if bad:
        raise ValueError(
            f"{what} contains a reserved transport separator (\\x1f/\\x1e/\\x02); "
            "the nested-column codec cannot carry it — sanitize upstream"
        )


def encode_nested(t: pa.Table) -> pa.Table:
    """Replace list<string>/struct columns with flat transport columns
    (inverse: :func:`decode_nested`). Injective: NULL, [] and values are
    distinct; struct-level nullness rides a presence flag. Raises if any
    element/value contains a separator character (documented constraint,
    actively enforced)."""
    for name in list(t.column_names):
        typ = t.schema.field(name).type
        if pa.types.is_list(typ) and pa.types.is_string(typ.value_type):
            col = t[name].combine_chunks()
            _check_no_separators(col.flatten(), f"list column {name!r}")
            t = t.drop_columns([name]).append_column(name + _LJ, join_counted(col))
        elif pa.types.is_list(typ) and pa.types.is_struct(typ.value_type):
            # map column (array of key/value structs)
            col = t[name].combine_chunks()
            vals = pc.struct_field(col.values, "value")
            if pa.types.is_string(vals.type) or pa.types.is_large_string(vals.type):
                _check_no_separators(vals, f"map column {name!r} values")
            keys = pc.struct_field(col.values, "key")
            if pa.types.is_string(keys.type) or pa.types.is_large_string(keys.type):
                # keys are cast to string and joined key\x02value — a
                # separator in a string key corrupts the split just as badly
                _check_no_separators(keys, f"map column {name!r} keys")
            t = t.drop_columns([name]).append_column(name + _MJ, map_entries_joined(col))
        elif pa.types.is_struct(typ):
            col = t[name].combine_chunks()
            out = t.drop_columns([name])
            for f in typ:
                if pa.types.is_nested(f.type):
                    raise TypeError(f"nested-in-struct transport not supported: {name}.{f.name}")
                out = out.append_column(f"{name}{_SF}{f.name}", pc.struct_field(col, f.name))
            t = out.append_column(name + _SP, pc.is_valid(col))
    return t


def decode_nested(t: pa.Table) -> pa.Table:
    """Inverse of :func:`encode_nested`, reconstructing columns in place of
    their transport columns (appended at the end, original order not kept)."""
    import numpy as np

    names = t.column_names
    # list<string> columns
    for name in [n for n in names if n.endswith(_LJ)]:
        base = name[: -len(_LJ)]
        t = t.drop_columns([name]).append_column(base, split_counted(t[name]))
    # map columns (list<struct<key,value>>)
    for name in [n for n in t.column_names if n.endswith(_MJ)]:
        base = name[: -len(_MJ)]
        lst = split_counted(t[name])
        flat = lst.values  # 'key\x02value' per entry
        kv = pc.split_pattern(flat, _KV_SEP)  # each entry → exactly [key, value]
        kvv = kv.values
        idx = np.arange(len(flat), dtype=np.int64) * 2
        keys = kvv.take(pa.array(idx)).cast(pa.int64())
        vals = kvv.take(pa.array(idx + 1))
        entries = pa.StructArray.from_arrays([keys, vals], names=["key", "value"])
        rebuilt = pa.ListArray.from_arrays(
            lst.offsets, entries, mask=pc.is_null(lst)
        )
        t = t.drop_columns([name]).append_column(base, rebuilt)
    # struct columns
    flags = [n for n in t.column_names if n.endswith(_SP)]
    for flag in flags:
        base = flag[: -len(_SP)]
        fields = [n for n in t.column_names if n.startswith(base + _SF)]
        present = t[flag].combine_chunks()
        children = [t[n].combine_chunks() for n in fields]
        fnames = [n[len(base) + len(_SF):] for n in fields]
        rebuilt = pa.StructArray.from_arrays(
            children, names=fnames, mask=pc.invert(present)
        )
        t = t.drop_columns([flag, *fields]).append_column(base, rebuilt)
    return t


# ---------------------------------------------------------------------------
# Schema evolution (reference ST4)
# ---------------------------------------------------------------------------

#: the fixed transcript-log columns; anything else in a log file is a
#: candidate *evolved* value column (reference ScyllaSchema.java:467-472:
#: schemas are recomputed when the log's shape changes)
BASE_LOG_COLS = frozenset(
    {"conv_id", "turn_idx", "role", "text", "tool", "ts", SEQ_COL, "shard"}
    # image-mode log internals (correlate.py): never evolved value columns
    | {"op_kind", "row_ts", "change_id"}
)

#: evolved value columns must be scalar — collections go through the batch
#: capture path with an explicit value_cols override instead
_EVOLVED_TYPES = {
    "string": pa.string(),
    "large_string": pa.string(),
    "int64": pa.int64(),
    "int32": pa.int32(),
    "double": pa.float64(),
    "float": pa.float32(),
    "bool": pa.bool_(),
    "timestamp[us]": pa.timestamp("us"),
}


def evolved_type(type_str: str) -> pa.DataType | None:
    """Parse a manifest-serialized evolved-column type; None if unsupported."""
    return _EVOLVED_TYPES.get(type_str)


def detect_evolved_cols(schema: pa.Schema) -> dict[str, str]:
    """Extra scalar value columns in a log-file schema, as {name: type_str}
    (the manifest serialization)."""
    out = {}
    for f in schema:
        if f.name not in BASE_LOG_COLS and str(f.type) in _EVOLVED_TYPES:
            out[f.name] = str(f.type)
    return out
