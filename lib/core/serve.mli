(** The [dicheck serve] daemon: concurrent JSON-lines check requests
    answered by a pool of worker domains sharing one {!Engine}.

    The authoritative wire reference — every request and reply field,
    the status values, cancellation/ordering semantics, backpressure,
    and the shutdown handshake, with a worked [socat] transcript — is
    [docs/PROTOCOL.md].  The short version:

    One request object per line, one reply object per line.  A request:

    {v
    { "id": any,              echoed back; also the cancellation key
      "path": "f.cif",        CIF file to check — or inline text:
      "cif": "DS 1; ...",
      "jobs": 4,              interaction-sweep domains for this check
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
      "lint_counts": {...}?,
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
    With a cache directory each deck's entries are addressed by that
    deck's own environment, so alternating deck sets keeps every deck
    warm.

    {2 Admin formats}

    [{"admin":"stats"}] answers with the canonical JSON snapshot; with
    ["format":"prometheus"] the reply instead carries a ["prometheus"]
    string member holding the {!Telemetry.prometheus} text exposition
    of the same snapshot.  [dicheck top --once --metrics-format prom]
    prints the same text, rendered from the JSON snapshot it fetches.
    Unknown formats are refused.

    {2 Concurrency model}

    Per-connection readers feed one bounded request queue; [workers]
    worker domains drain it.  The daemon builds one immutable
    {!Engine.t} at start-up, and each request derives its own engine
    from it ({!Engine.with_config}, {!Engine.with_decks}).  With a
    cache directory all of them share that engine's one {!Cache}
    handle, whose table is guarded by a lock: an entry one worker
    stores is replayed by every other, and each file is read at most
    once per daemon.  Without one, every request computes every
    definition.  A socket connection's reader domain is joined as soon
    as the connection ends.  Replies to one connection are written
    whole-line atomically but arrive in {e completion} order, not
    submission order — match them by [id].

    {2 Cancellation}

    Re-submitting an [id] on the same connection supersedes the
    previous request with that [id] (the interactive-editing case:
    the editor re-checks the buffer on every keystroke).  A
    superseded request that is still queued is never checked; one
    already in flight runs to completion but its result is dropped.
    Either way the old request is answered with
    [{"status":"cancelled"}] and only the newest submission can
    answer with a report.  Requests without an [id] are never
    cancelled.  The connection holds the table: an id's entry lasts
    until that request's reply is written, so a client that sends a
    fresh id with every request leaves no state behind, and two
    connections using one [id] never cancel each other.

    {2 Shutdown and restart}

    A [{"shutdown": true}] request — or [SIGTERM], via
    {!request_stop} — stops intake, drains the queue (every queued
    request is still answered), joins the workers, and acknowledges with
    [{"ok":true,"status":"shutdown","served":N,"cancelled":N,
    "overloaded":N,"queued":N,"inflight":N}].  Requests arriving
    during the drain — or at any time after {!shutdown}, even on a
    daemon that never started — are refused with
    [{"ok":false,"status":"shutdown"}].
    Every check stores its per-definition results as it finishes, so a
    daemon restarted over the same [--cache] directory — even after a
    crash — recovers them from disk: the first reply after a restart
    already reports [symbols_reused > 0].

    {2 Observability}

    A {!Telemetry} hub (pass your own via [create ~telemetry] to turn
    on the event log, slow-request entries, or trace collection; the
    default hub keeps metrics only) watches every request: the
    [{"admin":"stats"}] and [{"admin":"health"}] requests are answered
    synchronously — never queued, still answered while draining — with
    the canonical snapshots from {!Telemetry.snapshot}; overloaded
    refusals carry the ledger's counts ([served]/[queued]/[inflight])
    so a refused client sees why.  {!Telemetry} is the one book of
    request outcomes: the snapshot, {!stats}, the shutdown
    acknowledgement and the refusals all read its ledger.  None of it
    touches report bytes. *)

type t

(** The largest worker pool {!create} accepts: {!Telemetry.max_workers},
    126. *)
val max_workers : int

(** [create ?config ?cache_dir ?workers ?max_queue ?telemetry rules].
    [workers] is the worker-domain count ([0], the default, asks the
    runtime via [Domain.recommended_domain_count], at most
    {!max_workers}); [max_queue]
    (default [64]) bounds the request queue — submissions beyond it are
    refused immediately with an ["overloaded"] reply rather than queued
    without bound; [telemetry] is the service hub (defaults to a quiet
    metrics-only {!Telemetry.create}).

    @raise Invalid_argument when [workers] exceeds {!max_workers}.
    @raise Sys_error when [cache_dir] cannot be opened
    ({!Cache.open_dir}) — at creation, not on the first request. *)
val create :
  ?config:Engine.config -> ?cache_dir:string -> ?workers:int ->
  ?max_queue:int -> ?telemetry:Telemetry.t -> Tech.Rules.t -> t

(** The resolved worker-domain count. *)
val worker_count : t -> int

(** {2 In process}

    The daemon decomposed, so tests (and alternative transports) can
    drive it in-process with mocked clients. *)

(** One client connection: a reply writer and the cancellation scope,
    a table from each pending request's canonical [id] to the newest
    request with that [id].  An entry ends when that request's reply
    is written. *)
type conn

(** [connect t ~reply] registers a client.  [reply] receives each
    reply line (no trailing newline); calls are serialized under a
    lock of the connection's own, and exceptions from [reply] are
    swallowed, so a dead or slow client can neither take a worker down
    nor hold up other connections' submissions. *)
val connect : t -> reply:(string -> unit) -> conn

(** Hand one request line to the daemon; the first check starts the
    worker domains.  A check is enqueued, superseding the connection's
    previous request with its [id], and [submit] returns; its reply
    arrives via the connection's [reply] callback from a worker
    domain.  Malformed JSON, backpressure ("overloaded"), [admin]
    requests, refusals after {!shutdown} and the shutdown
    acknowledgement are answered synchronously from within [submit].
    Blank lines are ignored.  Every check runs on a worker, so the
    ledger, the event log and the windows account for every
    request. *)
val submit : t -> conn -> string -> unit

(** Block until the queue is empty and no request is in flight. *)
val drain : t -> unit

(** Stop intake for good, drain, join the workers.  Idempotent.  Every
    later check is refused with ["status":"shutdown"], also on a
    daemon that never started: no worker is spawned after it.  The
    event log's [shutdown_begin] and [shutdown] entries are written
    once, and only for a daemon that started. *)
val shutdown : t -> unit

(** Signal-handler-safe shutdown request: sets a flag the transport
    loops poll (they then run {!shutdown}).  Install it as the
    [SIGTERM] handler. *)
val request_stop : t -> unit

(** Server introspection, for tests and monitoring: the queue depth
    and the {!Telemetry} ledger's counts, read in one section of the
    server lock, so the [{"admin":"stats"}] snapshot taken at the same
    moment reads the same figures.  [workers] counts live worker
    domains (0 before the first check and after {!shutdown}). *)
type stats = {
  queued : int;
  inflight : int;
      (** accepted requests neither queued nor answered (derived by the
          ledger) *)
  served : int;  (** checks answered with a report *)
  cancelled : int;  (** superseded requests answered ["cancelled"] *)
  overloaded : int;  (** submissions refused by backpressure *)
  workers : int;
}

val stats : t -> stats

(** {2 Transports} *)

(** Serve the process's stdin/stdout: one implicit connection.  On
    EOF (or shutdown) drains and returns. *)
val serve_stdio : t -> unit

(** Bind a Unix domain socket at [path] (unlinked and rebound) and
    accept any number of concurrent client connections, each its own
    reader domain, joined once its connection ends.  Returns after a
    shutdown request or {!request_stop}, having drained, joined all
    readers, and removed the socket file. *)
val serve_socket : t -> path:string -> unit
