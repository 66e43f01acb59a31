(** The [dicheck serve] daemon: concurrent JSON-lines check requests
    answered by a pool of worker domains over warm {!Engine} sessions.

    The authoritative wire reference — every request and reply field,
    the status values, cancellation/ordering semantics, backpressure,
    and the shutdown handshake, with a worked [socat] transcript — is
    [docs/PROTOCOL.md].  The short version:

    One request object per line, one reply object per line.  A request:

    {v
    { "id": any,              echoed back; also the cancellation key
      "path": "f.cif",        CIF file to check — or inline text:
      "cif": "DS 1; ...",
      "jobs": 4,              parallel-stage domains for this check
      "check_same_net": true, net-blind ablation
      "werror": true,         exit 1 on warnings too
      "lint": true,           run the static lint passes
      "lint_werror": true,    lint + exit 1 when any lint.* fires
      "stats": true,          embed the metrics JSON
      "sarif": true,          embed the SARIF document
      "trace": true,          embed this request's span tree
      "out": "report.txt",    also write the report text server-side
      "sleep_ms": 250,        debugging: stall before checking
      "decks": [...],         check under several rule decks at once
      "admin": "stats",       service snapshot (or "health"); no check
      "shutdown": true }      drain the queue and stop the daemon
    v}

    A successful reply:

    {v
    { "id": ..., "ok": true, "status": "ok", "req": N, "errors": N,
      "warnings": N, "exit": 0|1, "symbols_total": N, "symbols_reused": N,
      "defs_from_disk": N, "memo_loaded": N, "lint_counts": {...}?,
      "report": "...", "metrics": {...}?, "sarif": {...}?, "trace": {...}? }
    v}

    [req] is the daemon-assigned request sequence number — the same id
    that keys the structured event log and the request's trace spans.

    [report] is byte-identical to one-shot [dicheck FILE] stdout
    (report + summary) — for every worker count and every [jobs]
    value; the CI serve smoke diffs exactly that.  Failed requests
    carry [ok:false] with ["status"] one of ["error"] (bad input),
    ["cancelled"] (superseded, see below), ["overloaded"] (queue
    full), or ["shutdown"] (daemon is draining).  The daemon never
    dies on bad input.

    {2 Multi-deck requests}

    ["decks"] is a non-empty array of rule decks: each entry is a path
    string, or an object [{"label": ...?, "path": ...}] /
    [{"label": ...?, "rules": "<rule file text>"}].  The design is
    elaborated {e once} and checked under every deck (see
    {!Engine.create} with [~decks]); the reply's [report] becomes the
    merged cross-deck view ({!Multireport}: deck-membership annotations
    plus the per-deck and compliant-intersection summary), [errors] /
    [warnings] count distinct merged violations, [exit] is the worst
    deck's, [symbols_total]/[symbols_reused] sum over decks, and three
    members are added: ["decks"] (per-deck label, errors, warnings,
    exit, reuse counters, and [lint_counts] when linting), ["compliant"]
    (labels of zero-error decks), and ["all_compliant"].  ["sarif"]
    embeds one run per deck ({!Sarif.of_reports}).  Requests without
    ["decks"] reply byte-identically to the single-deck protocol above.
    Engines are keyed by the deck set's joined environment digests, so
    alternating deck sets keeps every deck's session warm.

    {2 Admin formats}

    [{"admin":"stats"}] answers with the canonical JSON snapshot; with
    ["format":"prometheus"] the reply instead carries a ["prometheus"]
    string member holding the {!Telemetry.prometheus} text exposition
    of the same snapshot (scrape it via [dicheck top --once
    --metrics-format prom]).  Unknown formats are refused.

    {2 Concurrency model}

    Per-connection readers feed one bounded request queue; [workers]
    worker domains drain it.  Each worker owns its engines (one per
    environment digest), all over the {e shared} persistent
    {!Cache} directory, so warmth crosses workers through disk while
    no engine is ever touched by two domains.  Replies to one
    connection are written whole-line atomically but arrive in
    {e completion} order, not submission order — match them by [id].

    {2 Cancellation}

    Re-submitting an [id] on the same connection supersedes the
    previous request with that [id] (the interactive-editing case:
    the editor re-checks the buffer on every keystroke).  A
    superseded request that is still queued is never checked; one
    already in flight runs to completion but its result is dropped.
    Either way the old request is answered with
    [{"status":"cancelled"}] and only the newest submission can
    answer with a report.  Requests without an [id] are never
    cancelled.

    {2 Shutdown and restart}

    A [{"shutdown": true}] request — or [SIGTERM], via
    {!request_stop} — stops intake, drains the queue (every queued
    request is still answered), flushes each worker's engines to the
    persistent cache, and acknowledges with
    [{"ok":true,"status":"shutdown","served":N,"cancelled":N,
    "overloaded":N,"queued":N,"inflight":N}].  Requests arriving
    during the drain are refused with [{"ok":false,"status":"shutdown"}].
    A daemon restarted over the same [--cache] directory recovers the
    warm state from disk: the first reply after a restart already
    reports [defs_from_disk > 0].

    {2 Observability}

    A {!Telemetry} hub (pass your own via [create ~telemetry] to turn
    on the event log, slow-request entries, or trace collection; the
    default hub keeps metrics only) watches every request: the
    [{"admin":"stats"}] and [{"admin":"health"}] requests are answered
    synchronously — never queued, still answered while draining — with
    the canonical snapshots from {!Telemetry.snapshot}; overloaded
    refusals carry the pool counters ([served]/[queued]/[inflight]) so
    a refused client sees why.  None of it touches report bytes. *)

type t

(** [create ?config ?cache_dir ?workers ?max_queue ?telemetry rules].
    [workers] is the worker-domain count ([0], the default, asks the
    runtime via [Domain.recommended_domain_count]); [max_queue]
    (default [64]) bounds the request queue — submissions beyond it are
    refused immediately with an ["overloaded"] reply rather than queued
    without bound; [telemetry] is the service hub (defaults to a quiet
    metrics-only {!Telemetry.create}). *)
val create :
  ?config:Engine.config -> ?cache_dir:string -> ?workers:int ->
  ?max_queue:int -> ?telemetry:Telemetry.t -> Tech.Rules.t -> t

(** The resolved worker-domain count. *)
val worker_count : t -> int

(** The hub passed to (or created by) {!create}. *)
val telemetry : t -> Telemetry.t

(** {2 Synchronous embedding}

    The protocol without the daemon: parse one request line, check,
    return the reply line (no trailing newline).  Runs on the calling
    domain with the server's own engine table; single-threaded use
    only.  Never raises on malformed input. *)
val handle_line : t -> string -> string

(** {2 The pool}

    The daemon decomposed, so tests (and alternative transports) can
    drive it in-process with mocked clients. *)

(** One client connection: a serial (the cancellation scope) and a
    reply writer. *)
type conn

(** Spawn the worker domains.  Idempotent; {!submit} starts the pool
    on first use anyway. *)
val start : t -> unit

(** [connect t ~reply] registers a client.  [reply] receives each
    reply line (no trailing newline); calls are serialized and
    exceptions from [reply] are swallowed, so a dead client cannot
    take a worker down. *)
val connect : t -> reply:(string -> unit) -> conn

(** Hand one request line to the daemon.  Enqueues and returns; the
    reply arrives via the connection's [reply] callback from a worker
    domain.  Malformed JSON, backpressure ("overloaded"), [admin]
    requests, drain-time refusals and the shutdown acknowledgement are
    answered synchronously from within [submit].  Blank lines are
    ignored. *)
val submit : t -> conn -> string -> unit

(** Block until the queue is empty and no request is in flight. *)
val drain : t -> unit

(** Stop intake, drain, join the workers (each flushes its engines to
    the persistent cache on the way out).  Idempotent. *)
val shutdown : t -> unit

(** Signal-handler-safe shutdown request: sets a flag the transport
    loops poll (they then run {!shutdown}).  Install it as the
    [SIGTERM] handler. *)
val request_stop : t -> unit

(** Has a stop been requested or the pool been stopped? *)
val stopped : t -> bool

(** Pool introspection, for tests and monitoring.  [workers] counts
    live worker domains (0 before {!start} and after {!shutdown}). *)
type stats = {
  queued : int;
  inflight : int;
  served : int;  (** replies delivered with a report *)
  cancelled : int;  (** superseded requests answered ["cancelled"] *)
  overloaded : int;  (** submissions refused by backpressure *)
  workers : int;
}

val stats : t -> stats

(** {2 Transports} *)

(** Serve the process's stdin/stdout: one implicit connection.  On
    EOF (or shutdown) drains, flushes, and returns. *)
val serve_stdio : t -> unit

(** Bind a Unix domain socket at [path] (unlinked and rebound) and
    accept any number of concurrent client connections, each its own
    reader domain.  Returns after a shutdown request or
    {!request_stop}, having drained, joined all readers, and removed
    the socket file. *)
val serve_socket : t -> path:string -> unit
