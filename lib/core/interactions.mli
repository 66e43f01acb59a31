(** Pipeline stage 6 — "check interactions".

    "At this point all elements are checked, all primitive symbols are
    checked, connections between the elements and symbols are checked,
    and net identifiers are available for each element.  What remains
    to be checked are the interactions between elements and/or
    primitive symbols.  The checks which remain are only spacing
    checks."

    The layer-pair cases come from {!Tech.Interaction} (Fig 12), each
    split into same-net / different-net subcases.  Same-net pairs are
    skipped — this is what removes the paper's Fig 5a false errors —
    *except* when a resistor is involved (Fig 5b: a short across a
    resistor body changes the circuit).  Pairs at distance zero on
    different nets are shorts; poly touching diffusion outside a device
    is specifically an accidental transistor (Fig 8).

    The search is hierarchical: each symbol definition is scanned once;
    element-instance and instance-instance interactions examine only
    the geometry near the overlap window, and repeated
    (symbol, symbol, relative placement) instance pairs reuse memoised
    candidates — the redundancy elimination that makes the hierarchical
    checker fast on regular designs.  A candidate carries what its
    verdict needs that placement cannot change: the exact squared gap
    (placements are orthogonal isometries) and both sites' net groups
    in their callees' own numbering.  A repeated pair is judged by
    lifting those groups into the caller, one hash lookup each, and is
    instantiated in the caller's frame only to report a finding or to
    be printed under the {!Exposure} model — so a finding's location,
    closest pair and provenance are exactly those of a freshly measured
    pair.

    {2 Parallelism}

    The stage is embarrassingly parallel across its worklist: every
    local-pair chunk, element-vs-instance neighbourhood, and instance
    pair is an independent task, described as plain data (the
    definition, its sites, the calls involved and, for an instance
    pair, its placement class).  The worklist runs on
    {!Parallel.run}, the one scheduler of every [jobs] value: it is cut
    into chunks whose boundaries are chosen from the per-symbol cost
    profile of the previous stages (via {!Metrics}, when available) so
    each chunk carries roughly equal work, and the chunks are drained
    from a shared [Atomic] counter by up to {!config.jobs} domains — the
    calling domain alone at [jobs = 1] — so a domain that finishes early
    steals the next unclaimed chunk instead of idling.  Every domain
    judges with its own error list, statistics and copy of the memo,
    merged after the join; violations are reassembled {e by chunk
    index}, not by completion order.

    {2 Invariants}

    - The model and net structure are read-only during the check; all
      mutation is confined to per-domain accumulators.
    - A task's verdicts do not depend on which domain runs it (the memo
      is a pure cache), and results are merged in worklist order, so
      the report is {e byte-identical} — same violations, same order —
      for every [jobs] value, even though chunk-to-domain assignment is
      nondeterministic.
    - Only {!stats} totals that describe caching effort may vary with
      [jobs] (the memo hit/miss split and [bbox_rejects] depend on
      which domain warmed its memo copy first — and, under the queue,
      on run-to-run scheduling); the per-cell pair counts and every
      verdict-bearing total are invariant.
    - Certificate-guarded runs ([run ~certs]) skip every instance pair
      of a placement class the certificates prove silent, and nothing
      else; the verdicts come from a serial prepass with one guard per
      class, so they lower pair counts deterministically — never with
      [jobs] — and never change the violation list. *)

type spacing_model =
  | Geometric
      (** compare drawn distances against the rule (the normal mode) *)
  | Exposure of { model : Process_model.Exposure.t; misalign : int }
      (** the paper's 2-D process model: spacing passes iff the
          combined exposure along the line of closest approach stays
          below the develop threshold, with [misalign] units of
          worst-case mask misalignment on cross-layer pairs.  "Although
          still slower than the expand-check overlap technique, [it] is
          more correct." *)

type config = {
  metric : Geom.Measure.metric;
  check_same_net : bool;
      (** force spacing checks even between same-net elements, i.e.
          behave like a net-blind checker (for the Fig 5 ablation) *)
  spacing_model : spacing_model;
  jobs : int;
      (** the most domains a worklist is shared by, this stage's and
          (through {!Engine}) every other parallel stage's: [1] (the
          default) runs it on the calling domain alone, [n > 1] spawns
          up to [n - 1] extra domains (never more than there are
          chunks), [0] asks the runtime
          ([Domain.recommended_domain_count ()]) *)
}

val default_config : config

(** Counters per matrix cell, for the Fig 12 coverage report. *)
type cell_stats = {
  mutable pairs : int;  (** candidate pairs examined *)
  mutable checked : int;  (** spacing checks actually performed *)
  mutable skipped_same_net : int;
  mutable skipped_no_rule : int;
  mutable skipped_device : int;
}

type stats = {
  cells : (Tech.Layer.t * Tech.Layer.t, cell_stats) Hashtbl.t;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable bbox_rejects : int;
      (** candidate pairs discarded on bounding boxes alone, before any
          exact gap computation *)
  mutable materialised : int;
      (** memoised candidate pairs instantiated in the caller's frame:
          one per finding they produced, or per checked pair under
          {!Exposure}.  It follows verdicts alone, so it is the same at
          every [jobs] value. *)
}

(** Add [src]'s totals into [into] (used to fold per-domain stats). *)
val merge_stats : into:stats -> stats -> unit

(** Export the totals as [interactions.*] counters. *)
val record_metrics : Metrics.t -> stats -> unit

(** A reusable instance-pair candidate cache.  Keyed by (callee,
    callee, relative transform), so it stays valid across checker runs
    as long as the rule set and the involved symbol definitions do not
    change — {!Engine} passes one in per deck. *)
type memo

val create_memo : unit -> memo

(** [prune_memo memo ~keep] drops entries that involve a symbol id for
    which [keep] is false (used to invalidate edited definitions). *)
val prune_memo : memo -> keep:(int -> bool) -> unit

(** {2 Memo persistence}

    The memo is a pure cache of candidate lists — replaying entries can
    change cost but never verdicts — so {!Engine} persists it across
    processes.  An entry's sites, gaps and net groups are expressed in
    the callee symbols' own frames and net numbering and contain no
    symbol ids, so an exported entry keyed by a {e content} fingerprint
    of each callee subtree — one covering everything net generation
    reads — stays valid for any future model containing structurally
    identical definitions.  The
    entry payload is deliberately opaque: it round-trips through
    [Marshal] inside {!Cache} but is not otherwise inspectable. *)

type memo_entry

val memo_size : memo -> int

(** All entries, keyed by (caller-side symbol id, callee-side symbol
    id, relative transform).  Order is unspecified; sort before writing
    to disk. *)
val export_memo : memo -> ((int * int * Geom.Transform.t) * memo_entry) list

(** Add entries (keys already remapped to current symbol ids).  Existing
    keys are overwritten. *)
val import_memo : memo -> ((int * int * Geom.Transform.t) * memo_entry) list -> unit

(** The widest spacing any rule in [rules] can demand — the candidate
    cutoff and grid cell size of a {!plan} built for that deck.
    Directed [space_<a>_<b>] overrides are included. *)
val max_dist : Tech.Rules.t -> int

(** The domain count a [jobs] setting resolves to: [jobs] itself when
    positive, [Domain.recommended_domain_count ()] when [<= 0].  Shared
    by every parallel stage so "auto" means the same thing
    pipeline-wide. *)
val effective_jobs : int -> int

(** {2 Plan / run}

    The sweep splits into a deck-independent {e plan} — the resolution
    environment, the ordered worklist and its placement classes, built
    for a candidate cutoff [dmax] — and the deck-dependent {e run} that
    judges the worklist
    under a concrete (config, rules) pair.  Decks whose {!max_dist}
    agree can share one plan (and one candidate {!memo}): worklist
    geometry and enumeration order depend only on the cutoff, never on
    the individual spacing values, which is what keeps multi-deck
    reports byte-identical to their single-deck counterparts. *)

type plan

(** Build the worklist.  Each instance pair's placement class — its
    (callee, callee, relative placement) key — is interned into the
    plan's class table; the key addresses the candidate {!memo} and the
    certificate guard.  [dmax] defaults to [max_dist] of the model's own
    rule deck. *)
val plan : ?dmax:int -> Netgen.t -> plan

(** Judge a plan's worklist.  [rules] defaults to the model's own deck.
    When [metrics] is given, per-task wall-clock costs are recorded into
    the [interactions.pair_check_ns] histogram and charged to the owning
    definition's [symbol.<name>] cost bucket, and the {!stats} totals
    are exported as counters.  When [trace] is given, one ["shard[i]"]
    span (category ["shard"]) is recorded per domain that drained the
    worklist — [shard[0]] alone at [jobs = 1] — from per-domain buffers
    merged into [trace] in shard order after the join.

    When [certs] is given (a {!Deckcheck.consult} over the deck being
    judged), a serial prepass evaluates {!Deckcheck.class_silent} once
    per placement class and skips every instance pair of a silent
    class, counting them into [analysis.certified_skips] and charging
    the prepass to [analysis.guard].  Without [certs] nothing is
    skipped.  The guard is inert under the {!Exposure} spacing model,
    whose verdicts are not bounded by drawn gaps. *)
val run :
  ?config:config -> ?rules:Tech.Rules.t -> ?memo:memo -> ?metrics:Metrics.t ->
  ?trace:Trace.t -> ?certs:Deckcheck.consult -> plan ->
  Report.violation list * stats

(** [check nets] = [run (plan nets)] — the single-deck entry point. *)
val check :
  ?config:config -> ?memo:memo -> ?metrics:Metrics.t -> ?trace:Trace.t ->
  Netgen.t -> Report.violation list * stats

val pp_stats : Format.formatter -> stats -> unit
