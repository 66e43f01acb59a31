(** The check engine — the session-oriented front door to the Fig 10
    pipeline.

    {v
    let e = Engine.create ~cache_dir:".dicache" rules in
    let e = Engine.with_jobs e 4 in
    match Engine.check e file with
    | Ok multi -> let result, reuse = Engine.primary multi in ...
    | Error msg -> ...
    v}

    {2 The deck-set session model}

    An engine owns an ordered {e set of rule decks} — usually one — the
    configuration, and all warm state.  A {!check} runs the whole deck
    set over one parse, one elaboration, one packed-geometry model, and
    one net structure; only rule {e evaluation} (elements, devices,
    interactions, deck lint) diverges per deck.  That is the paper's
    hierarchical economy extended across process variants: everything
    upstream of the rules is amortised over N decks, which is what the
    multiple-lithography-compliance flow ("which variants does this
    library comply with?") needs.

    Warm state is keyed {e per deck environment}: each deck's
    per-definition results live under its own {!env_key} digest.
    Warming deck A therefore never invalidates deck B — a session
    alternating between deck sets keeps every deck's cache live, in
    memory and (with [cache_dir]) on disk.

    Rechecking a design after editing one symbol definition recomputes
    only that definition's element, device and relational results per
    deck; every other definition's are replayed from cache.  The
    composite stages — net generation and interactions — run afresh on
    every check, and the interaction memo lives inside one
    {!Interactions.run}.  The same engine serves any number of {!check}
    calls, which is what [dicheck serve] runs on.

    {2 The determinism invariant}

    Cache state and parallelism never change verdicts, only cost.  A
    cached per-definition entry is addressed by a structural
    fingerprint of everything the per-definition checks can observe,
    under an environment digest of the deck and the result-affecting
    config.  Consequently:

    - a warm {!check} emits reports {e byte-identical} to a cold one on
      the same input, for every [jobs] value;
    - a single-deck session's report is byte-identical to the
      historical single-rule-set engine;
    - each deck's report in a multi-deck session is byte-identical to
      that deck checked alone, and the {!merged} view is a
      deterministic function of the per-deck reports — so it too is
      byte-stable across jobs, workers, and warmth;
    - a corrupted or stale cache file degrades to a recompute, never to
      a wrong answer;
    - static immunity certificates ({!Deckcheck}) only ever skip work
      that is provably silent — the instance pairs of a placement class
      whose findings the callees' certificates prove empty — so reports
      are byte-identical with pruning on or off ([DIC_NO_CERTS=1]),
      cold or warm, at every [jobs] value, single- or multi-deck.
      Certificates are rebuilt for every callee, never the root, inside
      each check's interaction stage and are not cached;
      [analysis.certified_skips] counts the skipped pairs. *)

(** What {!check} computes.  [interactions] nests the stage-6 knobs
    (metric, same-net handling, spacing model, jobs) — the
    [with_*] builders below update either level without the caller
    assembling nested records. *)
type config = {
  interactions : Interactions.config;
  run_erc : bool;  (** run the non-geometric construction rules *)
  expected_netlist : Netcompare.expected option;
      (** verify the extracted net list against an intended one *)
  relational : Process_model.Exposure.t option;
      (** also run the relational gate-overhang check against this
          exposure model (paper Fig 14) *)
  run_lint : bool;
      (** also run the static {!Lint} passes (deck + design) and
          prepend their diagnostics, as [lint.*] rules, to the report.
          Off by default: the default report bytes stay identical to
          pre-lint versions *)
}

val default_config : config

(** One rule deck in the session's set: a rule set plus the label the
    merged report, SARIF runs, and serve replies call it by. *)
type deck = {
  dk_label : string;
  dk_rules : Tech.Rules.t;
}

(** [deck ?label rules] — [label] defaults to the rule set's [name]. *)
val deck : ?label:string -> Tech.Rules.t -> deck

(** Suffix repeated labels ([x], [x#2], [x#3], …) so membership
    annotations and SARIF run ids never alias two decks. *)
val dedupe_labels : deck list -> deck list

(** One deck's view of a check.  [metrics] is the {e shared}
    accumulator of the whole run — stage timers, work counters
    (including [cache.*]), the [cache.hit_ratio] gauge, per-pair cost
    histogram — the same value in every deck's result. *)
type result = {
  report : Report.t;
  netlist : Netlist.Net.t;
  interaction_stats : Interactions.stats;
  metrics : Metrics.t;
  model : Model.t;
  nets : Netgen.t;
}

(** What the session saved for one deck on this check.
    [symbols_reused] counts definitions whose element/device/relational
    results were replayed (from memory or disk) instead of recomputed
    under that deck's environment; [defs_from_disk] is the subset that
    came off disk. *)
type reuse = {
  symbols_total : int;
  symbols_reused : int;
  defs_from_disk : int;
}

type deck_result = {
  dr_deck : deck;
  dr_result : result;
  dr_reuse : reuse;
  dr_suppressed : Lint.diagnostic list;
      (** lint/deckcheck diagnostics waived for this deck (deck
          [# lint: allow] comments plus the design's [4L] commands) —
          filtered out of [dr_result.report] at assembly time, never
          from the caches; empty when [run_lint] is off *)
}

(** The multi-result: per-deck results in deck order, plus the
    pairwise deck-relation verdicts ({!Deckcheck.relation_lines};
    empty unless lint ran over two or more decks). *)
type multi = {
  results : deck_result list;
  relations : string list;
}

(** The first deck's (result, reuse) — the whole story for a
    single-deck session. *)
val primary : multi -> result * reuse

(** The merged cross-deck report (deck-membership vectors, per-deck
    summaries, the relations, the compliant-intersection verdict),
    built on each call from the per-deck reports: {!check} never builds
    it, and nothing is cached or shared between domains.  Only a deck
    set's rendering reads it; compute it once per rendering. *)
val merged : multi -> Multireport.t

type t

(** [create ?config ?cache_dir ?decks rules] — a cold engine.  [decks]
    defaults to [[deck rules]], the single-deck session; when given it
    overrides [rules] entirely (the first deck is the {e primary}: it
    drives elaboration and the default report).  With [cache_dir] the
    engine persists per-definition results under that directory
    (created if missing; see {!Cache} for the layout), so warmth
    survives the process.

    @raise Invalid_argument on an empty deck list.
    @raise Sys_error when [cache_dir] cannot be opened ({!Cache.open_dir}). *)
val create : ?config:config -> ?cache_dir:string -> ?decks:deck list -> Tech.Rules.t -> t

(** The primary deck's rule set. *)
val rules : t -> Tech.Rules.t

val decks : t -> deck list
val config : t -> config

(** {2 Builders}

    Each returns the (mutated) engine for chaining.  Changing anything
    that can affect verdicts moves the engine to a new environment
    digest and drops the warm session state; {!with_jobs} is the
    exception — parallelism never affects results, so the session (and
    the on-disk cache address) is shared across [jobs] values.
    {!with_decks} never drops warm state: per-deck caches are keyed by
    each deck's own environment, so changing the set merely changes
    which of them the next {!check} consults. *)

val with_config : t -> config -> t

(** Replace the deck set.
    @raise Invalid_argument on an empty list. *)
val with_decks : t -> deck list -> t

val with_jobs : t -> int -> t
val with_metric : t -> Geom.Measure.metric -> t
val with_same_net : t -> bool -> t
val with_spacing_model : t -> Interactions.spacing_model -> t
val with_erc : t -> bool -> t
val with_lint : t -> bool -> t
val with_expected_netlist : t -> Netcompare.expected option -> t
val with_relational : t -> Process_model.Exposure.t option -> t

(** The environment digest of one deck: canonical rule text ×
    result-affecting config (i.e. with [jobs] normalised away).  This
    is the [<env>] component of the on-disk cache address.  Because the
    rule set enters through {!Tech.Rules.to_string}, provenance that
    never reaches a verdict (source line positions, comments) does not
    split the cache. *)
val env_key : Tech.Rules.t -> config -> string

(** Would this engine's warm state for the {e primary} deck be valid
    for [rules]/[config]? *)
val same_env : t -> Tech.Rules.t -> config -> bool

(** Run the pipeline on an already-parsed file.  One elaboration, one
    net structure, one interaction worklist per [max_dist] class — then
    one report per deck ({!merged} folds them on demand).  For a single-deck
    engine, [primary] of the result is identical in report bytes,
    metrics shape, and trace shape to the historical single-deck
    engine, cold or warm.  [metrics] lets the caller supply (and keep)
    the accumulator; one is created per check otherwise.  [trace]
    records ["stage"]/["symbol"]/["shard"] spans — at least one
    [shard[0]] per parallel stage, at every [jobs] value — plus
    ["cache"]-category spans around cache traffic.  [progress] is
    called with each stage name as it starts. *)
val check :
  ?metrics:Metrics.t -> ?trace:Trace.t -> ?progress:(string -> unit) ->
  t -> Cif.Ast.file -> (multi, string) Stdlib.result

(** Parse CIF text and {!check}. *)
val check_string :
  ?metrics:Metrics.t -> ?trace:Trace.t -> ?progress:(string -> unit) ->
  t -> string -> (multi, string) Stdlib.result

(** One-line summary: error/warning counts and net count. *)
val pp_summary : Format.formatter -> result -> unit

(** {2 Rendering a check}

    The two documents a check produces, shared by [dicheck check] and
    [dicheck serve] so their bytes cannot drift apart.  Each is one
    string, written into one [Buffer.t] by the {!Report},
    {!Multireport} and {!Sarif} buffer writers. *)

(** The report text: with [merged] (a deck set's {!merged} view), that
    view's lines, a newline, its summary and a newline; without it, the
    primary deck's {!Report.add_lines}, a newline, the {!pp_summary}
    line and a newline — exactly what [Report.pp] then [pp_summary],
    each followed by [@.], print at column 0. *)
val report_text : ?merged:Multireport.t -> multi -> string

(** The SARIF document.  [set:false] renders the primary deck with
    {!Sarif.of_report}; [set:true] renders one run per deck with
    {!Sarif.of_reports}, carrying the {!multi.relations}.  Either way
    each deck's waived lint diagnostics ([dr_suppressed]) ride along as
    suppressed results.  [uri] names the artifact. *)
val sarif : set:bool -> uri:string -> multi -> string

(** {2 Shared pieces}

    Exposed for tests and the serve daemon. *)

(** The non-geometric construction rules as report violations. *)
val erc_violations : Netlist.Net.t -> Report.violation list

(** Structural fingerprint of one definition: name, device kind,
    element geometry/skeletons/layers/nets, calls with transforms. *)
val fingerprint : Model.symbol -> string
