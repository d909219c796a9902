"""Engine configuration (≙ the reference's ``ScyllaConnectorConfig``).

The reference exposes ~40 typed Kafka Connect config fields with defaults and
validation (``ScyllaConnectorConfig.java:45-566``). We keep the ones with a
meaning in the Ray rebuild, at the same defaults, plus the fields our
streaming additions (watermarks, windows, exactly-once sink) need.
"""

from __future__ import annotations

import dataclasses
import enum


class IncludeMode(str, enum.Enum):
    """``cdc.include.before`` / ``cdc.include.after`` modes
    (reference ``ScyllaConnectorConfig.java`` + ``README.md:1184-1198``)."""

    NONE = "none"
    FULL = "full"
    ONLY_UPDATED = "only-updated"


class PkPlacement(str, enum.Enum):
    """Where primary-key columns are (additionally) placed
    (reference enum ``ScyllaConnectorConfig.java:909-959``)."""

    KAFKA_KEY = "kafka-key"  # the `key` struct column (always present here)
    #: NOTE: our before/after ROW_STRUCT always carries the pk fields
    #: (conv_id, turn_idx), so payload-before/after placement is inherently
    #: satisfied — accepted for config compatibility, no extra work needed
    PAYLOAD_BEFORE = "payload-before"
    PAYLOAD_AFTER = "payload-after"
    PAYLOAD_KEY = "payload-key"  # a dedicated flat payload field
    #: one header per pk/ck column named ``pk.<col>`` / ``ck.<col>``
    #: (reference ``ScyllaChangeRecordEmitter.java:816-901``); Parquet has no
    #: record headers, so they ride as a ``headers`` struct column
    HEADERS = "headers"


@dataclasses.dataclass
class EngineConfig:
    """Validated engine configuration.

    Defaults mirror the reference where a field has a direct analogue:

    * ``window_size_us``      ≙ ``scylla.query.time.window.size`` (30 s)
    * ``confidence_window_us``≙ ``scylla.confidence.window.size`` (30 s)
    * ``straggler_timeout_us``≙ ``cdc.incomplete.task.timeout.ms`` (15 s),
      re-based to event time so runs are deterministic (SURVEY.md §7.4)
    * ``num_shards``          ≙ number of stream-id groups / ``tasks.max``
    * ``include_before/after``≙ ``cdc.include.before/after``
    """

    # --- sharding / parallelism -------------------------------------------
    num_shards: int = 64
    #: rows per map_batches batch in the hot path
    batch_size: int = 65536

    # --- windows / watermark ----------------------------------------------
    window_size_us: int = 30_000_000
    confidence_window_us: int = 30_000_000
    #: event-time lateness allowed before a row is dropped to the late output
    allowed_lateness_us: int = 30_000_000
    straggler_timeout_us: int = 15_000_000
    #: minimal wall-clock pause between micro-batches
    #: (≙ ``scylla.minimal.wait.for.window.size.ms``, the reference's reader
    #: throttle — a batch finishing early waits out the remainder)
    min_batch_interval_s: float = 0.0

    # --- envelope ----------------------------------------------------------
    #: score after-images with text quality/token stats inside the capture
    #: shard task (flagship "capture + score" pipeline)
    score_text: bool = False
    #: maintain tumbling-window pane state per shard and emit panes once the
    #: shard watermark passes window_end + allowed_lateness (north_star
    #: windowed aggregation); late rows route to the late output
    window_agg: bool = False
    #: extra grouping keys for the streaming tumbling panes (e.g.
    #: ("conv_id",) for per-conversation windowed aggregation); keys must be
    #: shard-local columns so pane state stays co-partitioned
    window_agg_keys: tuple = ()
    #: join every event against the persistent per-conversation state store
    #: (prior_turns/prior_chars/prev_role columns on the envelope)
    enrich_conv_state: bool = False
    #: streaming sliding windows: (size_us, slide_us) or None
    sliding_window_us: tuple[int, int] | None = None
    #: streaming session windows: gap in µs or None
    session_gap_us: int | None = None
    #: input log is image-mode (PRE_IMAGE/delta/POST_IMAGE rows with an
    #: op_kind column) — the runner correlates instead of deriving ops;
    #: incomplete changes carry over as residual state with the straggler
    #: timeout (only-updated include modes are not supported here)
    image_mode: bool = False
    #: consume conversation tombstones (``turn_idx IS NULL`` ⇒ partition
    #: delete, reference M2) in the streaming runner: emit the 'pd' marker,
    #: expand per-live-key deletes against the state store, wipe the state;
    #: incompatible with image_mode and conv-state enrichment; composes with
    #: hot salting (the marker is broadcast to every shard)
    partition_deletes: bool = False
    #: cold-start lookback (≙ ``scylla.initial.lookback.ms``,
    #: ``ScyllaConnectorConfig.java:199-213`` / ``ScyllaConnectorTask.java:
    #: 153-213``): on a FRESH checkpoint, skip leading log files/windows whose
    #: footer max-ts predates ``log frontier − lookback`` — history older than
    #: the lookback is never consumed. Resume from an existing checkpoint is
    #: unaffected (offsets win, like the reference).
    initial_lookback_us: int | None = None
    #: schema evolution (ST4) guard rails: unknown scalar columns found in log
    #: footers are adopted as evolved value columns ONLY if they match the
    #: allowlist (None ⇒ any), and adopting more than ``max_evolved_cols``
    #: raises instead of silently growing the envelope — a log polluted with
    #: stray metadata columns must fail loudly, not permanently change
    #: envelope semantics (adoption is sticky via the manifest)
    evolved_col_allowlist: tuple[str, ...] | None = None
    max_evolved_cols: int = 8

    include_before: IncludeMode = IncludeMode.FULL
    include_after: IncludeMode = IncludeMode.FULL
    pk_placements: tuple[PkPlacement, ...] = (PkPlacement.KAFKA_KEY,)
    table_name: str = "transcripts"

    # --- sink / checkpoint --------------------------------------------------
    #: output epoch; bumped when topology (num_shards / cluster size) changes,
    #: ≙ the reference's CDC generation (SURVEY.md §1.1)
    epoch: int = 0
    sink_dir: str = "/tmp/scylla_cdc_ray/out"
    checkpoint_dir: str = "/tmp/scylla_cdc_ray/checkpoint"

    # --- skew ---------------------------------------------------------------
    #: conv_ids with more than this many rows in one micro-batch are salted
    #: across sub-shards and re-merged (north_star skew clause)
    hot_key_threshold: int = 100_000
    salt_factor: int = 8

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.window_size_us <= 0:
            raise ValueError("window_size_us must be > 0")
        if self.confidence_window_us < 0 or self.allowed_lateness_us < 0:
            raise ValueError("windows must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.salt_factor < 1:
            raise ValueError("salt_factor must be >= 1")
        self.include_before = IncludeMode(self.include_before)
        self.include_after = IncludeMode(self.include_after)
        self.pk_placements = tuple(PkPlacement(p) for p in self.pk_placements)
        if self.max_evolved_cols < 0:
            raise ValueError("max_evolved_cols must be >= 0")
        if self.evolved_col_allowlist is not None:
            self.evolved_col_allowlist = tuple(self.evolved_col_allowlist)
        if self.sliding_window_us is not None:
            size, slide = self.sliding_window_us
            if slide <= 0 or size <= 0:
                raise ValueError("sliding size_us and slide_us must be > 0")
            if size % slide:
                raise ValueError("sliding size_us must be a multiple of slide_us")
