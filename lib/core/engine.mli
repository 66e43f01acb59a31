(** The check engine — the front door to the Fig 10 pipeline.

    {v
    let e = Engine.create ~cache_dir:".dicache" rules in
    let e = Engine.with_jobs e 4 in
    match Engine.check e file with
    | Ok multi -> let result, reuse = Engine.primary multi in ...
    | Error msg -> ...
    v}

    {2 The deck-set model}

    An engine is an immutable value: an ordered {e set of rule decks} —
    usually one — the configuration, and an optional {!Cache} handle.
    A {!check} runs the whole deck set over one parse.  Decks whose
    minimum widths agree on every layer ({!Tech.Rules.min_width}) share
    one elaboration and everything built from it — the packed-geometry
    model, the net structure, the design lint pass, the certificates
    and the interaction plans; only rule {e evaluation} (elements,
    devices, interactions, deck lint) diverges per deck.  A deck whose
    widths differ elaborates on its own: skeletons, device interfaces
    and lint D005 read those widths, so a deck's verdict never depends
    on its place in the set.  That is the paper's hierarchical economy
    extended across process variants: everything upstream of the rules
    is amortised over the decks that can share it, which is what the
    multiple-lithography-compliance flow ("which variants does this
    library comply with?") needs.

    {2 Warm state}

    The engine holds none.  Without a cache handle every {!check}
    computes every definition, and nothing is fingerprinted or
    digested.  With one ([create ~cache_dir]), each deck's
    per-definition results are addressed under that deck's own
    environment digest, so warming deck A never touches deck B's
    entries; the handle remembers every entry it has read or stored,
    so engines derived from one engine share its warmth within the
    process, and the files carry it across processes.

    Rechecking a design after editing one symbol definition through a
    cache handle recomputes only that definition's element, device and
    relational results per deck; every other definition's are
    replayed.  The composite stages — net generation and interactions
    — run afresh on every check, and the interaction memo lives inside
    one {!Interactions.run}.  One engine serves any number of {!check}
    calls, from any number of domains: [dicheck serve] derives every
    request's engine from one engine built at start-up.

    {2 The determinism invariant}

    Cache state and parallelism never change verdicts, only cost.  A
    cached per-definition entry is addressed by a structural
    fingerprint of everything the per-definition checks can observe,
    source positions included, under an environment digest of the deck
    and the result-affecting config.  Consequently:

    - a {!check} emits reports {e byte-identical} to a check without a
      cache handle, whatever the handle or its directory holds, for
      every [jobs] value;
    - a single-deck engine's report is byte-identical to the
      historical single-rule-set engine;
    - each deck's report in a multi-deck check is byte-identical to
      that deck checked alone, and the {!merged} view is a
      deterministic function of the per-deck reports — so it too is
      byte-stable across jobs, workers, and cache state;
    - a corrupted or stale cache file degrades to a recompute, never to
      a wrong answer;
    - static immunity certificates ({!Deckcheck}) only ever skip work
      that is provably silent — the instance pairs of a placement class
      whose findings the callees' certificates prove empty — so reports
      are byte-identical with pruning on or off ([DIC_NO_CERTS=1]),
      with or without a cache, at every [jobs] value, single- or
      multi-deck.  Certificates are rebuilt for every callee, never the
      root, inside each check's interaction stage and are not cached;
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

(** One rule deck in the engine's set: a rule set plus the label the
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

(** What the cache saved for one deck on this check.
    [symbols_reused] counts definitions whose element/device/relational
    results the cache handle replayed (from its table or its directory)
    instead of recomputing them under that deck's environment; it is 0
    without a handle. *)
type reuse = {
  symbols_total : int;
  symbols_reused : int;
}

type deck_result = {
  dr_deck : deck;
  dr_result : result;
  dr_reuse : reuse;
  dr_lint : Lint.diagnostic list;
      (** the lint and deck-analysis diagnostics [dr_result.report]
          carries, waivers applied, in report order — the report's
          [lint.*] violations are exactly {!Lint.to_violations} of this
          list.  A deck diagnostic ([R0xx]) here has no position: its
          line is one of the rule file, not of the design (see
          {!Lint.check_deck}); its key is the violation's context.  Empty
          when [run_lint] is off *)
  dr_suppressed : Lint.diagnostic list;
      (** lint diagnostics waived for this deck (deck
          [# lint: allow] comments plus the design's [4L] commands) —
          filtered out of [dr_result.report] at assembly time; empty
          when [run_lint] is off *)
}

(** The multi-result: per-deck results in deck order, plus the
    pairwise deck-relation verdicts ({!Lint.relation_lines};
    empty unless lint ran over two or more decks). *)
type multi = {
  results : deck_result list;
  relations : string list;
}

(** The first deck's (result, reuse) — the whole story for a
    single-deck check. *)
val primary : multi -> result * reuse

(** The merged cross-deck report (deck-membership vectors, per-deck
    summaries, the relations, the compliant-intersection verdict),
    built on each call from the per-deck reports: {!check} never builds
    it, and nothing is cached or shared between domains.  Only a deck
    set's rendering reads it; compute it once per rendering. *)
val merged : multi -> Multireport.t

(** The decks, the config and an optional cache handle; immutable. *)
type t

(** [create ?config ?cache_dir ?decks rules] — an engine.  [decks]
    defaults to [[deck rules]], the single-deck engine; when given it
    overrides [rules] entirely (the first deck is the {e primary}: its
    result is the default report, and the [model.*] and [netgen.*]
    counters describe its elaboration).  With [cache_dir] the
    engine opens a {!Cache} handle on that directory (created if
    missing; see {!Cache} for the layout), which stores per-definition
    results as checks compute them and replays them on later checks,
    in this process and the next.

    @raise Invalid_argument on an empty deck list.
    @raise Sys_error when [cache_dir] cannot be opened ({!Cache.open_dir}). *)
val create : ?config:config -> ?cache_dir:string -> ?decks:deck list -> Tech.Rules.t -> t

val config : t -> config

(** {2 Builders}

    Each returns a new engine that differs only in what it names and
    shares the cache handle, if any; the argument is unchanged.  A
    config change that can affect verdicts moves every deck to a new
    environment digest, so the next {!check} misses the entries of the
    old one; {!with_jobs} is the exception — parallelism never affects
    results, so the cache address is shared across [jobs] values.
    {!with_decks} keeps each deck's entries: they are addressed by each
    deck's own environment, so changing the set merely changes which of
    them the next {!check} consults. *)

val with_config : t -> config -> t

(** Replace the deck set.
    @raise Invalid_argument on an empty list. *)
val with_decks : t -> deck list -> t

val with_jobs : t -> int -> t
val with_same_net : t -> bool -> t
val with_spacing_model : t -> Interactions.spacing_model -> t
val with_erc : t -> bool -> t
val with_lint : t -> bool -> t
val with_expected_netlist : t -> Netcompare.expected option -> t

(** Run the pipeline on an already-parsed file.  One elaboration and
    one net structure per group of decks agreeing on their minimum
    widths, one interaction worklist per group and [max_dist] — then
    one report per deck ({!merged} folds them on demand).  For a single-deck
    engine, [primary] of the result is identical in report bytes,
    metrics shape, and trace shape to the historical single-deck
    engine, with or without a cache.  [metrics] lets the caller supply
    (and keep) the accumulator; one is created per check otherwise.  It
    always receives [cache.symbols_total], [cache.symbols_reused],
    [cache.defs_computed] and the [cache.hit_ratio] gauge, so the stats
    shape does not depend on the cache.  The per-definition stages
    (elements, devices, relational devices) run on the calling domain;
    the interaction sweep is the only stage that [jobs] fans out.
    [trace] records ["stage"]/["symbol"]/["shard"] spans — for a
    single-deck engine exactly one [shard[0]], the interaction sweep's,
    at every [jobs] value — plus, with a cache handle,
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

(** {2 Exit policy}

    The one exit policy of a check, shared by [dicheck check] and
    [dicheck serve]: 0 clean, 1 failed. *)

(** [deck_exit ~werror ~lint_werror dr] — 1 when the deck's report
    has an error, a warning under [werror], or any kept lint diagnostic
    ([dr_lint], warnings and notes included) under [lint_werror];
    otherwise 0. *)
val deck_exit : werror:bool -> lint_werror:bool -> deck_result -> int

(** The worst {!deck_exit} over the check's decks. *)
val exit_code : werror:bool -> lint_werror:bool -> multi -> int

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
    element geometry/skeletons/layers/nets, calls with transforms, and
    the CIF source positions of the definition and its elements. *)
val fingerprint : Model.symbol -> string
