(** Span tracing for the checking pipeline.

    Where {!Metrics} answers "how much, in total", this module answers
    "when, and inside what": it records hierarchical wall-clock spans —
    one per pipeline stage, one per symbol-definition check, one per
    domain-parallel interaction shard — into an append buffer, and
    exports them as Chrome trace-event JSON that Perfetto /
    [chrome://tracing] load directly.  This is the paper's Fig 10 cost
    breakdown as a navigable timeline instead of a bar chart.

    The recording API takes a [t option] so instrumented code reads the
    same whether tracing is on or off, and the disabled path costs one
    pattern match — the checker's hot paths stay clean when no [--trace]
    sink was requested.

    {2 Invariants}

    - Spans recorded through {!with_span} nest properly within one
      buffer: any two are either disjoint in time or one contains the
      other (the stack discipline of [with_span] guarantees it).
    - A buffer is single-domain; parallel stages record into one buffer
      per domain ({!create} with that shard's [tid]) and fold them with
      {!merge_into} in shard order after the join, so the event
      sequence is deterministic for a given (design, jobs) pair.
    - {!to_chrome_json} rebases timestamps to the earliest event;
      structure and names are reproducible, timestamps are not. *)

type event = {
  e_name : string;
  e_cat : string;  (** Chrome "cat": ["stage"], ["symbol"], ["shard"], … *)
  e_ph : [ `Complete | `Instant ];
  e_ts_ns : int64;  (** monotonic-clock start *)
  e_dur_ns : int64;  (** 0 for instants *)
  e_tid : int;  (** shard/domain index; 0 for the main domain *)
  e_args : (string * string) list;
}

type t

(** A fresh buffer.  [tid] labels every event recorded through it
    (Chrome renders one lane per tid). *)
val create : ?tid:int -> unit -> t

val length : t -> int

(** Recorded events in recording order. *)
val events : t -> event list

(** [with_span t ~cat name f] runs [f]; if [t] is [Some _], its
    wall-clock extent is recorded as a complete span (also when [f]
    raises).  [None] runs [f] with no overhead. *)
val with_span :
  t option -> ?cat:string -> ?args:(string * string) list -> string ->
  (unit -> 'a) -> 'a

(** Append a span measured externally ([ts_ns] from the monotonic
    clock, cf. {!Metrics.now_ns}). *)
val record :
  t -> ?cat:string -> ?args:(string * string) list -> string ->
  ts_ns:int64 -> dur_ns:int64 -> unit

(** Append [src]'s events to [into] (in [src] order; [src] keeps its
    events).  Call once per shard, in shard order, for determinism. *)
val merge_into : into:t -> t -> unit

(** The Chrome trace-event "JSON Object Format": [{"traceEvents":
    [...], "otherData": {...}}] with ["X"]/["i"] phase events,
    microsecond [ts]/[dur] rebased to the earliest event, [pid] 1 and
    one [tid] per shard.  Loadable in Perfetto ({:https://ui.perfetto.dev})
    and [chrome://tracing].  [tool_version] defaults to
    {!Version.version} and is embedded in [otherData]. *)
val to_chrome_json : ?tool_version:string -> t -> string
