(** Static immunity analysis — lints over rule decks and CIF
    hierarchies, before any geometry runs.

    The paper's pitch is {e immunity}: eliminating unchecked errors
    (real but missed) and false errors (flagged but unreal).  Several
    of those failure modes are visible statically, from the rule deck
    and the symbol hierarchy alone:

    - an odd minimum width truncates [skeleton_half] and breaks the
      "legal width + skeletal connection ⇒ legal union" theorem
      (paper §3 / Fig 4);
    - an asymmetric or unreachable entry in the Fig 12 layer-pair
      matrix silently drops interaction checks;
    - an undefined or recursive symbol call corrupts the hierarchical
      net list (dot notation, Fig 9);
    - an element narrower than its layer minimum erodes to a degenerate
      skeleton, making connections through it invisible — the
      unchecked-error precursor.

    Two passes share one diagnostic type: the {b rule-deck pass}
    ({!check_deck} on a parsed deck, {!check_deck_source} on rule-file
    text) emits [R0xx] codes, the {b design pass} ({!check_ast} on the
    syntax tree, {!check_model} on the elaborated model, {!check_design}
    for both) emits [D0xx] codes.  Codes are stable: tests, SARIF
    rules, and [dicheck lint --explain CODE] key on them.  No
    interaction checking happens here — every pass is linear-ish in the
    deck/hierarchy size, which is what the bench [lint-overhead]
    experiment asserts.

    Output is deterministic: {!sort} orders by (loc, code, subject,
    message), and no pass consults anything but its arguments. *)

type severity = Error | Warning | Note

type diagnostic = {
  code : string;  (** stable code, e.g. ["R001"] or ["D005"] *)
  severity : severity;
  message : string;
  loc : Cif.Loc.t option;
      (** position in the rule file ([R0xx], see {!check_deck}) or the CIF
          source ([D0xx]), when known *)
  subject : string;
      (** what the diagnostic is about: a rule key, a symbol name, a
          net label — used for sorting and as the SARIF logical
          location *)
}

(** Every stable code with its one-line explanation, [R0xx] first,
    ascending. *)
val all_codes : (string * string) list

(** The one-line explanation behind [dicheck lint --explain CODE]. *)
val explain : string -> string option

(** {1 Rule-deck pass — R0xx} *)

(** The deck analysis, R001–R007 and R012–R014, in one pass over the
    resolved deck:

    - per value: odd minimum widths (R001), values outside
      {!Tech.Rules.in_range} (R002), off-quantum values (R003), and a
      contact landing pad below a conductor's width (R004);
    - the closure: an unsatisfiable chain (R012, error — the minimal
      bonding pad, [contact_size + 2*pad_metal_surround], below
      [width_metal]) and written entries their lambda default already
      implies (R013);
    - one walk over the matrix cells the directed [space_<a>_<b>]
      overrides name: same-layer (R007) and unreachable (R006)
      overrides, disagreeing spellings (R005), spellings that repeat
      the other spelling or the canonical cell (R013), and a winning
      spelling strictly below a shadowed one (R014, error — the deck
      reads stricter than it checks, the missed-error hazard of the
      paper's Fig 1).

    R013 and the canonical-key clause of R014 need provenance to tell
    {e written} entries from defaults, so they stay silent on
    programmatic rule sets with empty [key_positions].

    Sorted, and located: a diagnostic whose subject is a key the deck
    writes in text is placed at column 1 of that key's line
    ({!Tech.Rules.position}).  A position found this way is a line of
    the rule file, so it is only meaningful beside that file: a deck
    diagnostic in a design's report carries no position (the engine's
    lint stage drops it, keeping the key as the violation's context),
    and [dicheck lint] keeps it in SARIF only when the document's
    artifact is that one deck's file. *)
val check_deck : Tech.Rules.t -> diagnostic list

(** Lenient rule-file lint over {!Tech.Rules.load}: each entry problem
    becomes a diagnostic on its line — malformed lines (R010),
    duplicate keys, the first occurrence winning (R009), unknown keys
    (R008) and bad values (R011) — and {!check_deck} runs on the deck
    the surviving entries describe, whose diagnostics land on their
    defining lines because the deck keeps the survivors' positions.
    Returns that deck, waivers attached, with the sorted
    diagnostics. *)
val check_deck_source : string -> Tech.Rules.t * diagnostic list

(** {2 Cross-deck subsumption — R015} *)

(** How deck [a] relates to deck [b], pointwise over the semantic
    constraint vector (per-layer minimum widths, per-layer and
    per-pair effective spacings, device surrounds and overhangs).
    Bigger is stricter everywhere; a checked same-net bound is
    stricter than an unchecked one. *)
type relation =
  | Equivalent  (** same constraint vector *)
  | Subsumes  (** [a] at least as strict everywhere, stricter somewhere *)
  | Subsumed  (** [b] at least as strict everywhere, stricter somewhere *)
  | Incomparable

type comparison = {
  cmp_relation : relation;
  cmp_stronger : string list;
      (** witness constraints where [a] is stricter, e.g.
          ["width_metal 400 > 300"] *)
  cmp_weaker : string list;  (** where [b] is stricter *)
}

val compare_rules : Tech.Rules.t -> Tech.Rules.t -> comparison

(** Pairwise R015 subsumption notes over a labelled deck list, in
    deck order ((0,1), (0,2), (1,2), …).  These feed the multi-deck
    merged report, the lint CLI, and SARIF — never the per-deck
    reports, which stay byte-identical to single-deck runs. *)
val deck_relations : (string * Tech.Rules.t) list -> diagnostic list

(** One printable line per relation note (the diagnostic message). *)
val relation_lines : (string * Tech.Rules.t) list -> string list

(** {1 Design pass — D0xx} *)

(** Syntax-tree lints (D001, D002, D003, D004, D007, D008): undefined
    calls, call cycles, definitions unreachable from a non-empty top
    level, duplicate symbol numbers, coincident calls, and
    overflow-prone call translations.  Unlike
    {!Cif.Ast.check_acyclic}, which stops at the first problem, this
    collects them all. *)
val check_ast : Cif.Ast.file -> diagnostic list

(** Elaborated-model lints (D005, D006, D009): elements eroding to
    degenerate skeletons, net-label reuse across skeletally-disjoint
    same-layer groups in call-free definitions, and device definitions
    missing their constituent layers (e.g. a transistor with no
    poly-diffusion crossing, Fig 5). *)
val check_model : Model.t -> diagnostic list

(** The whole design pass: {!check_ast}, then — when elaboration
    succeeds — {!check_model}; sorted. *)
val check_design : Tech.Rules.t -> Cif.Ast.file -> diagnostic list

(** {1 Plumbing} *)

(** Order by (loc, code, subject, message); [loc = None] first. *)
val compare_diagnostic : diagnostic -> diagnostic -> int

val sort : diagnostic list -> diagnostic list
val has_errors : diagnostic list -> bool

(** ["CODE severity: message [subject]"]. *)
val pp_diagnostic : Format.formatter -> diagnostic -> unit

(** One printable line, prefixed with [src] (and the location, when
    present): ["src:line:col: CODE severity: message [subject]"]. *)
val render : src:string -> diagnostic -> string

(** As report violations: stage {!Report.Integrity}, rule
    ["lint." ^ code], context = subject ([Note] maps to
    {!Report.Info}).  {!Sarif} recognises the ["lint."] prefix and
    emits each code's {!explain} text as the SARIF rule
    description. *)
val to_violations : diagnostic list -> Report.violation list

(** [partition_waived ~waivers diags] splits into (kept, suppressed)
    by membership of each diagnostic's code in [waivers] (see
    {!Tech.Rules.waivers} and the CIF [4L CODE;] extension).
    Filtering happens at reporting time only — caches always hold the
    unfiltered list. *)
val partition_waived :
  waivers:string list -> diagnostic list -> diagnostic list * diagnostic list

(** Per-code counts of a diagnostic list, sorted by code — the
    [lint_counts] (kept) and [lint_suppressed] (waived) serve reply
    members and [dicheck lint]'s waiver summary. *)
val code_counts : diagnostic list -> (string * int) list

(** Export [lint.diagnostics] / [lint.errors] / [lint.warnings]
    totals plus one [lint.code.<code>] counter per distinct code. *)
val record_metrics : Metrics.t -> diagnostic list -> unit
