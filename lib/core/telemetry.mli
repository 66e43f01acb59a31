(** Service-level telemetry for the [dicheck serve] daemon.

    {!Metrics} observes one check; {!Trace} observes one run.  This
    module observes the {e service}: one thread-safe hub per daemon,
    fed by the submit path and every worker domain, answering three
    questions the daemon could not answer before:

    - {b what is the service doing now} — the request ledger (one count
      per request outcome) and sliding-window distributions over the
      last 256 requests, rendered as the canonical JSON {!snapshot}
      behind the protocol's [{"admin":"stats"}] request and
      [dicheck top];
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

    The ledger is the daemon's one book of request outcomes: the live
    {!snapshot}, {!Serve.stats}, the [shutdown] entry and
    acknowledgement, the overload refusal and {!replay} all read it.

    Telemetry never touches report bytes: daemon replies stay
    byte-identical to one-shot [dicheck] with every feature here
    enabled.  All functions are safe to call from any domain. *)

type t

(** [create ()] makes a quiet hub: no event sink, no trace collection —
    ledger and windows only, which is what {!Serve.create} defaults to.
    Sliding windows hold the last 256 samples; [slow_ms] enables [slow]
    event-log entries for requests at or above that latency;
    [event_sink] receives each event-log line (no trailing newline),
    serialized, exceptions swallowed; [collect_traces] keeps every
    request's trace buffer for {!merged_trace}. *)
val create :
  ?slow_ms:float -> ?event_sink:(string -> unit) -> ?collect_traces:bool -> unit -> t

(** Allocate the next request id (1, 2, 3…). *)
val next_request : t -> int

val collecting_traces : t -> bool

(** Seconds since {!create}. *)
val uptime_s : t -> float

(** {1 Event log}

    Every emitter is a no-op without an [event_sink]. *)

(** Daemon lifecycle entry ([start], [shutdown_begin], [shutdown]):
    [{"event":kind,"ts_ms":…,fields…}]. *)
val lifecycle : t -> ?fields:(string * Json.t) list -> string -> unit

(** {1 Request lifecycle}

    Each builds its event-log fields, feeds them to the hub's one
    event-to-ledger reduction (the same one {!replay} runs over a log)
    and, when a sink is installed, writes them as the matching
    event-log line.  The reduction counts every outcome: [accepted],
    [served] (one per [finished]), [cancelled], [overloaded] and
    [rejected]. *)

(** [queued] — the queue length after the request joined — is the one
    sample of the [queue_depth] window, so a live daemon and a
    {!replay} of its log hold the same samples.  Call it beside the
    push, under the lock that guards the queue: {!requests} and
    {!snapshot} derive [inflight] from [accepted] and the depth. *)
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

(** {1 Stats snapshot} *)

(** The ledger's request counts.  [inflight] is derived, never counted:
    [accepted - served - cancelled - queued], the accepted requests
    that are neither queued nor answered. *)
type requests = {
  accepted : int;
  inflight : int;
  served : int;
  cancelled : int;
  overloaded : int;
  rejected : int;
}

(** [requests t ~queued] reads the ledger against the queue depth
    [queued].  Read the depth under the lock that guards the queue and
    call this inside the same section, so [accepted] and the depth
    agree and [accepted = served + cancelled + inflight + queued]
    holds. *)
val requests : t -> queued:int -> requests

(** The canonical service snapshot behind [{"admin":"stats"}].  The
    caller passes the queue figures, which live in the pool; read
    [queued] as for {!requests}.  Every member is always present:
    [{"uptime_s","workers","queue":{"depth","max"},
    "requests":{"accepted","inflight","served","cancelled",
    "overloaded","rejected"},"rps":{"lifetime","window"},
    "latency_ms","wait_ms","service_ms","queue_depth" (each
    {"count","len","mean","max","p50","p95","p99"}),
    "cache":{"symbols_total","symbols_reused","hit_ratio"},
    "workers_busy":[fraction…]}].  A window's [count] is every sample
    it absorbed, [len] the ones it holds (at most 256), and its
    quantiles are nearest-rank over the held values. *)
val snapshot : t -> queued:int -> workers:int -> max_queue:int -> Json.t

(** {1 Offline post-mortem} *)

(** The largest worker pool a daemon runs, 126: OCaml 5.1 allows 128
    live domains per process, and the pool leaves one to the main
    domain and one to a socket connection's reader.
    {!Serve.max_workers} is this cap. *)
val max_workers : int

(** [replay content] walks an event-log file (the [--event-log FILE]
    lines, one JSON object per line) once, each entry through the
    lifecycle invariants documented in [docs/PROTOCOL.md] and then
    through the same ledger reduction a live hub runs: every [accepted]
    request reaches exactly one terminal entry ([finished]/[cancelled])
    and only after acceptance; [overloaded]/[rejected] never enter the
    accepted population; a [shutdown] entry's
    [served]/[cancelled]/[overloaded] figures match the ledger and
    nothing is left queued or in flight after it; the [start] entry's
    pool is no larger than {!max_workers}, and every entry's [worker]
    index names a worker of that pool — or, in a rotated log without a
    [start] entry, lies below {!max_workers}; no [symbols_total] or
    [symbols_reused] is negative.  On
    success, returns the {!snapshot} the daemon would have answered at
    the last entry — uptime and throughput computed from the log's own
    timeline — which is what [dicheck top --event-log FILE] renders.
    [Error msg] names the offending line and the violated invariant. *)
val replay : string -> (Json.t, string) result

(** Render a {!snapshot} in Prometheus text exposition format
    ([dicheck_*] metric families with [# HELP]/[# TYPE] headers), for
    [{"admin":"stats","format":"prometheus"}] and
    [dicheck top --once --metrics-format prom].  Pure conversion: the
    figures are exactly the snapshot's, so the two formats never
    disagree. *)
val prometheus : Json.t -> string
