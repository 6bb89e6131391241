(** Observability: metrics registry, span tracing and structured events.

    The whole stack (LP solver, controller ladder, southbound pushes,
    interval simulator, fuzz/chaos campaigns) records into one process-wide
    registry through three primitives:

    - {b metrics} — named counters, gauges and log-bucketed histograms.
      Recording is O(1) and domain-safe: every domain writes to its own
      shard (no locks, no contention under [Pool] fan-out) and shards are
      merged on read. When the registry is disabled — the default — the
      recording functions return after a single flag test without
      allocating, so instrumented hot paths cost nothing in normal runs.
    - {b spans} — [with_span "revised.ftran" f] captures nested begin/end
      plus duration into a fixed-size per-domain ring buffer, exportable as
      Chrome [trace_event] JSON ([write_trace]).
    - {b events} — levelled, machine-readable records replacing ad-hoc
      stderr warnings. Events are always retained (bounded) and mirrored to
      stderr at [Warn] and above by default, so disabling the registry never
      silences a warning that used to print.

    Recording never touches any RNG stream and never changes control flow,
    so enabling observability cannot perturb the repository's bit-identity
    contracts (neutral telemetry, j=1 vs j=4 campaign determinism). *)

(** {1 Enablement} *)

val enable : ?tracing:bool -> unit -> unit
(** Turn metric recording on ([tracing] defaults to [true] and also turns
    span capture on). *)

val disable : unit -> unit
(** Turn both metric recording and span capture off (the default state). *)

val enabled : unit -> bool
val tracing_enabled : unit -> bool

val reset : unit -> unit
(** Zero all metric shards, empty all span rings and drop retained events.
    For benches and tests that compare instrumented arms. *)

(** {1 Metrics} *)

type metric
(** A registered metric handle. Handles are cheap to store in module-level
    bindings; registration is idempotent by name. *)

val counter : string -> metric
(** Monotone counter; shards merge by summation. *)

val gauge : string -> metric
(** Last-write-wins value; the most recent [set] across all shards is
    reported (a global sequence number orders writes). *)

val histogram : string -> metric
(** Log-bucketed (base-2) histogram of nonnegative samples; shards merge by
    element-wise bucket addition, which is exact (bucket counts are
    integers) and therefore associative and order-independent. *)

val incr : metric -> unit
(** Add 1 to a counter. Allocation-free whether enabled or disabled. *)

val add : metric -> float -> unit
(** Add to a counter. *)

val set : metric -> float -> unit
(** Set a gauge. *)

val observe : metric -> float -> unit
(** Record a histogram sample. *)

(** {2 Reading} *)

module Hist : sig
  type t = {
    buckets : float array;  (** per-bucket counts (integers stored as floats) *)
    count : float;
    sum : float;
    hmin : float;  (** [infinity] when empty *)
    hmax : float;  (** [neg_infinity] when empty *)
  }

  val n_buckets : int

  val empty : t

  val merge : t -> t -> t
  (** Element-wise merge. Counts are integral so merging is exact:
      associative, commutative, with [empty] as identity. *)

  val bucket_of : float -> int
  (** Bucket index for a sample (clamped into [0, n_buckets)). *)

  val bucket_upper : int -> float
  (** Inclusive upper bound of a bucket; [infinity] for the last. *)
end

type value = Counter_v of float | Gauge_v of float | Hist_v of Hist.t

val snapshot : unit -> (string * value) list
(** Merged view of every registered metric, sorted by name. Shards are
    merged in domain-id order, so the result is deterministic for a given
    set of recordings. *)

(** {1 Spans} *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()]; when tracing is enabled the call is
    recorded (name, start, duration, nesting depth) into the calling
    domain's ring buffer. Exceptions still record the span and re-raise.
    When tracing is disabled this is a flag test plus a tail call. *)

val span_event : string -> start_ms:float -> dur_ms:float -> unit
(** Record an already-timed leaf span at the current nesting depth. For hot
    paths that time themselves anyway (FTRAN/BTRAN accumulate their own
    milliseconds) — no closure, no extra clock reads. *)

type span_view = {
  name : string;
  dom : int;  (** recording domain id (trace [tid]) *)
  start_ms : float;
  dur_ms : float;
  depth : int;  (** nesting depth, 0 = top level *)
}

val spans : unit -> span_view list
(** Retained spans from every domain's ring, ordered by (domain, start). *)

val dropped_spans : unit -> int
(** Spans overwritten by ring wrap-around since the last [reset]. *)

val set_ring_capacity : int -> unit
(** Per-domain ring size for rings created after the call (min 16;
    default 32768). *)

(** {1 Events} *)

type level = Debug | Info | Warn | Error

type field = Str of string | Float of float | Int of int | Bool of bool

val event : ?level:level -> string -> (string * field) list -> unit
(** Record a structured event. Always retained (bounded buffer) regardless
    of [enable]/[disable]; mirrored to stderr as
    ["[level] name key=value ..."] when [level] reaches the stderr
    threshold. *)

type event_view = {
  ev_level : level;
  ev_name : string;
  ev_fields : (string * field) list;
  ev_ms : float;
}

val events : unit -> event_view list
(** Retained events, oldest first. *)

val set_stderr_level : level option -> unit
(** Minimum level mirrored to stderr ([None] silences mirroring; default
    [Some Warn]). *)

(** {1 Export} *)

val metrics_json : unit -> string
(** Snapshot plus retained events as a JSON document. *)

val metrics_prometheus : unit -> string
(** Snapshot in Prometheus text exposition format (names are sanitised and
    prefixed with [ffc_]; histograms emit cumulative [_bucket{le=...}],
    [_sum] and [_count] series). *)

val trace_json : unit -> string
(** Retained spans as Chrome [trace_event] JSON ("X" complete events,
    microsecond timestamps; [tid] is the recording domain). Loadable in
    [chrome://tracing] / Perfetto. *)

val write_metrics : string -> unit
(** Write [metrics_json] to the path — unless it ends in [.prom] or [.txt],
    in which case the Prometheus text goes there instead. For a JSON path
    the Prometheus text is also written alongside to [path ^ ".prom"]. *)

val write_trace : string -> unit
(** Write [trace_json] to the path. *)
