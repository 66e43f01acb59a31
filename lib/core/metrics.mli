(** Structured observability for the checking pipeline.

    The paper evaluates its checker the way every DRC paper since has:
    by wall-clock cost per pipeline stage (Fig 10) and by how much work
    the hierarchy avoids (Fig 9's definition-vs-instance ratio, the
    interaction-matrix coverage of Fig 12).  This module makes those
    measurements first-class instead of ad-hoc [Sys.time] deltas: one
    accumulator object carries

    - {b stage timers} — monotonic wall-clock seconds per pipeline
      stage, in execution order (the Fig 10 bar chart as data);
    - {b counters} — monotonically non-decreasing named totals
      (elements scanned, instance pairs visited, memo hits, bounding
      box rejections, errors by class …);
    - {b histograms} — log₂-bucketed nanosecond distributions, used for
      the per-instance-pair interaction check cost.

    Timers use a monotonic clock ([CLOCK_MONOTONIC] via the bechamel
    stubs), so parallel speedups measure real time, not summed CPU
    time.

    {2 Invariants}

    - Counters never decrease; [incr] with a negative [by] raises
      [Invalid_argument].
    - A value is thread-compatible but not thread-safe: each domain
      accumulates into its own [t] and the results are combined with
      {!merge_into} after joining (this is what the parallel
      interaction scheduler does).
    - {!to_json} is canonical: counter and histogram names are sorted,
      stages appear in execution order, so equal metric states render
      to equal strings. *)

type t

val create : unit -> t

(** Nanoseconds on the monotonic clock.  Differences are meaningful;
    the absolute value is not. *)
val now_ns : unit -> int64

(** {1 Stage timers} *)

(** [time_stage t name f] runs [f], recording its monotonic wall-clock
    duration as pipeline stage [name].  Stages are kept in call order;
    timing the same name twice records two entries.

    It also charges the words allocated while [f] ran (via
    {!count_gc}) to the counters [gc.minor_words.<name>] and
    [gc.major_words.<name>] — the direct measure of the allocation
    pressure each stage puts on the GC. *)
val time_stage : t -> string -> (unit -> 'a) -> 'a

(** [count_gc t name f] runs [f] and charges the words it allocated
    (from {!Gc.quick_stat} deltas, clamped at zero) to the counters
    [gc.minor_words.<name>] and [gc.major_words.<name>], without
    recording a stage timing.

    [Gc.quick_stat] is domain-local under OCaml 5, so one call covers
    one domain.  A parallel stage gets honest totals by having every
    worker wrap its slice in [count_gc] against its own per-domain [t]:
    {!merge_into} sums the counters, so the stage figure ends up
    covering all domains' allocation. *)
val count_gc : t -> string -> (unit -> 'a) -> 'a

(** Record an externally measured stage duration (seconds). *)
val add_stage_seconds : t -> string -> float -> unit

(** Stages in execution order with their wall-clock seconds. *)
val stage_seconds : t -> (string * float) list

(** {1 Counters} *)

(** [incr ?by t name] adds [by] (default 1, must be [>= 0]) to counter
    [name], creating it at zero first if needed. *)
val incr : ?by:int -> t -> string -> unit

(** Current value of a counter; [0] if never incremented. *)
val counter : t -> string -> int

(** All counters, sorted by name. *)
val counters : t -> (string * int) list

(** {1 Gauges}

    Point-in-time readings (queue depth, cache hit ratio, busy
    fraction): unlike counters they move both ways, and a new reading
    replaces the old one.  Under {!merge_into} the {e source}'s reading
    wins for every name it carries — merge in shard order so the
    surviving reading is deterministic. *)

(** [set_gauge t name v] records [v] as the current reading of gauge
    [name], replacing any previous reading. *)
val set_gauge : t -> string -> float -> unit

(** Latest reading of a gauge; [None] if never set. *)
val gauge : t -> string -> float option

(** All gauges, sorted by name. *)
val gauges : t -> (string * float) list

(** {1 Sliding windows}

    Rolling distributions over the last [capacity] observations (a ring
    buffer): per-request service latency, queue-depth samples.  Where
    the log₂ {{!observe_ns} histograms} are cumulative sketches over a
    whole run, a window forgets — its quantiles answer "how is the
    service doing {e now}" — and is exact within the window. *)

(** The capacity a window is created with when the first
    {!observe_window} for its name passes no [capacity] (256). *)
val default_window_capacity : int

(** [observe_window ?capacity t name v] pushes [v] into window [name],
    evicting the oldest value once the window holds [capacity]
    observations.  [capacity] only applies when this call creates the
    window; an existing window keeps its capacity. *)
val observe_window : ?capacity:int -> t -> string -> float -> unit

type window_snapshot = {
  w_count : int;  (** observations ever, including evicted ones *)
  w_capacity : int;
  w_values : float array;  (** surviving observations, oldest first *)
}

val window : t -> string -> window_snapshot option

(** All window names, sorted. *)
val window_names : t -> string list

(** Exact nearest-rank quantile over the surviving values ([0.] for an
    empty window). *)
val window_quantile : window_snapshot -> float -> float

(** {1 Histograms} *)

(** [observe_ns t name ns] adds one observation to histogram [name].
    Buckets are powers of two: observation [v] (clamped to [>= 0])
    lands in the bucket whose upper bound is the smallest power of two
    [> v]. *)
val observe_ns : t -> string -> int64 -> unit

type histogram_snapshot = {
  h_count : int;  (** number of observations *)
  h_sum_ns : int64;  (** sum of all observations *)
  h_buckets : (int64 * int) list;
      (** (inclusive upper bound in ns, count) for non-empty buckets,
          ascending *)
}

val histogram : t -> string -> histogram_snapshot option

(** {1 Cost attribution}

    Named nanosecond totals for "which part of the design is
    expensive" questions — one entry per symbol definition
    ([symbol.<name>]) accumulated by the checker, surfaced as
    [dicheck --top-cost N].  Unlike stage timers these are keyed,
    unordered, and merged additively across domains. *)

(** [add_cost_ns t name ns] adds [ns] (must be [>= 0]) to cost bucket
    [name], creating it at zero first if needed. *)
val add_cost_ns : t -> string -> int64 -> unit

(** Accumulated cost of a bucket; [0L] if never charged. *)
val cost_ns : t -> string -> int64

(** All cost buckets, sorted by name. *)
val costs : t -> (string * int64) list

(** The [n] most expensive buckets, descending by cost (name ascending
    on ties, so the ranking is deterministic). *)
val top_costs : t -> n:int -> (string * int64) list

(** {1 Composition} *)

(** [merge_into ~into src] adds [src]'s counters, histograms, and cost
    buckets into [into] and appends [src]'s stages after [into]'s;
    [src]'s gauge readings overwrite [into]'s, and [src]'s window
    values are replayed oldest-first into [into]'s rings (the
    destination's capacity wins; evicted-observation counts carry
    over).  [src] is not modified.  Used to fold per-domain
    accumulators back into the main one after a parallel stage; call
    in shard order so the result is deterministic. *)
val merge_into : into:t -> t -> unit

(** Tally a finished report into the [report.errors] /
    [report.warnings] / [report.infos] counters plus one
    [errors.<stage>] counter per pipeline stage that produced errors. *)
val count_report : t -> Report.t -> unit

(** {1 Rendering} *)

(** Canonical JSON: [{"stages":[{"name","seconds"}…],
    "counters":{…}, "histograms":{name:{"count","sum_ns",
    "buckets":[{"le_ns","count"}…]}…}, "gauges":{name:v…},
    "windows":{name:{"capacity","count","len","mean","max",
    "p50","p95","p99"}…}, "costs":{name:ns…}}].
    Deterministic for equal states; no external JSON library
    involved. *)
val to_json : t -> string
