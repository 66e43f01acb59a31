(** Service-level telemetry for the [dicheck serve] daemon.

    {!Metrics} observes one check; {!Trace} observes one run.  This
    module observes the {e service}: one thread-safe hub per daemon,
    fed by the submit path and every worker domain, answering three
    questions the daemon could not answer before:

    - {b what is the service doing now} — rolling counters, gauges, and
      sliding-window latency distributions over the last N requests,
      rendered as the canonical JSON {!snapshot} behind the protocol's
      [{"admin":"stats"}] request and [dicheck top];
    - {b what happened, in order} — a structured event log: one JSON
      line per request lifecycle transition
      ([accepted]/[started]/[finished]/[cancelled]/[overloaded]/
      [rejected]), slow-request entries above [slow_ms], and
      daemon lifecycle ([start]/[shutdown_begin]/[shutdown]), written
      through [event_sink] with stable field names (schema in
      [docs/PROTOCOL.md]);
    - {b where one request's time went} — per-request {!Trace} buffers
      (the enqueue→dequeue wait plus the engine's stage spans),
      collected when [collect_traces] is set and merged in request-id
      order by {!merged_trace} for the daemon's [--trace FILE].

    Telemetry never touches report bytes: daemon replies stay
    byte-identical to one-shot [dicheck] with every feature here
    enabled.  All functions are safe to call from any domain. *)

type t

(** [create ()] makes a quiet hub: no event sink, no trace collection —
    metrics only, which is what {!Serve.create} defaults to.  Sliding
    windows hold the last {!Metrics.default_window_capacity} samples;
    [slow_ms] enables [slow] event-log entries for requests at or above
    that latency; [event_sink] receives each event-log line (no trailing
    newline), serialized, exceptions swallowed; [collect_traces] keeps
    every request's trace buffer for {!merged_trace}. *)
val create :
  ?slow_ms:float -> ?event_sink:(string -> unit) -> ?collect_traces:bool -> unit -> t

(** Allocate the next request id (1, 2, 3…). *)
val next_request : t -> int

val collecting_traces : t -> bool
val slow_ms : t -> float option

(** Seconds since {!create}. *)
val uptime_s : t -> float

(** {1 Event log}

    Every emitter is a no-op without an [event_sink]. *)

(** [event t ?req ?fields kind] writes one event-log line:
    [{"event":kind,"ts_ms":…,"req":…,fields…}]. *)
val event : t -> ?req:int -> ?fields:(string * Json.t) list -> string -> unit

(** Daemon lifecycle entry ([start], [shutdown_begin], [shutdown]). *)
val lifecycle : t -> ?fields:(string * Json.t) list -> string -> unit

(** {1 Request lifecycle}

    Each builds its event-log fields, feeds them to the hub's one
    event-to-metrics reduction (the same one {!replay} runs over a
    log) and, when a sink is installed, writes them as the matching
    event-log line. *)

(** [queued] — the queue length after the request joined — is the one
    sample of the [queue_depth] window, so a live daemon and a
    {!replay} of its log hold the same samples. *)
val request_accepted : t -> req:int -> id:Json.t -> queued:int -> unit

val request_started : t -> req:int -> worker:int -> wait_ns:int64 -> unit

(** [symbols_total]/[symbols_reused] are the served check's engine
    reuse counters (feeding the cache hit ratio in {!snapshot}); the
    [finished] event carries them so {!replay} rebuilds the same
    ratio.  Also emits the [slow] entry when the request's total
    latency is at or above the hub's [slow_ms]. *)
val request_finished :
  t -> req:int -> worker:int -> status:string -> exit_code:int -> errors:int ->
  warnings:int -> symbols_total:int -> symbols_reused:int -> wait_ns:int64 ->
  service_ns:int64 -> unit

val request_cancelled : t -> req:int -> ?worker:int -> unit -> unit
val request_overloaded : t -> req:int -> queued:int -> unit
val request_rejected : t -> error:string -> unit

(** Charge [ns] of busy time to a worker (feeds the per-worker busy
    fractions in {!snapshot}). *)
val worker_busy : t -> worker:int -> ns:int64 -> unit

(** {1 Per-request traces} *)

val add_trace : t -> req:int -> Trace.t -> unit

(** All collected request buffers folded into one fresh buffer in
    request-id order — deterministic event sequence for a given request
    history (lanes still carry the serving worker's tid). *)
val merged_trace : t -> Trace.t

(** {1 Stats snapshot}

    The canonical service snapshot behind [{"admin":"stats"}]; the
    caller passes the authoritative queue figures (they live in the
    pool, not here).  Every member is always present:
    [{"uptime_s","workers","queue":{"depth","max"},
    "requests":{"accepted","inflight","served","cancelled",
    "overloaded","rejected"},"rps":{"lifetime","window"},
    "latency_ms","wait_ms","service_ms","queue_depth" (each
    {"count","len","mean","max","p50","p95","p99"}),
    "cache":{"symbols_total","symbols_reused","hit_ratio"},
    "workers_busy":[fraction…]}]. *)
val snapshot :
  t -> queued:int -> inflight:int -> served:int -> cancelled:int ->
  overloaded:int -> workers:int -> max_queue:int -> Json.t

(** {1 Offline post-mortem}

    [replay content] re-runs an event-log file (the [--event-log FILE]
    lines, one JSON object per line) through the same accounting a live
    hub keeps, enforcing the lifecycle invariants documented in
    [docs/PROTOCOL.md]: every [accepted] request reaches exactly one
    terminal entry ([finished]/[cancelled]) and only after acceptance;
    [overloaded]/[rejected] never enter the accepted population; a
    [shutdown] entry's [served]/[cancelled]/[overloaded] figures match
    the replayed counts and nothing is left queued or in flight after
    it.  On success, returns the {!snapshot} the daemon would have
    answered at the last entry — uptime and throughput computed from
    the log's own timeline — which is what
    [dicheck top --event-log FILE] renders.  [Error msg] names the
    offending line and the violated invariant. *)
val replay : string -> (Json.t, string) result

(** Render a {!snapshot} in Prometheus text exposition format
    ([dicheck_*] metric families with [# HELP]/[# TYPE] headers), for
    [{"admin":"stats","format":"prometheus"}] and
    [dicheck top --once --metrics-format prom].  Pure conversion: the
    figures are exactly the snapshot's, so the two formats never
    disagree. *)
val prometheus : Json.t -> string
