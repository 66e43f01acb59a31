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
      (** position in the rule file or CIF source, when known *)
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

(** Record-level deck lints (R001–R007): odd min-widths, non-positive
    values, off-quantum values, surrounds inconsistent with
    [contact_size], and asymmetric / unreachable / shadowed directed
    pair overrides. *)
val check_deck : Tech.Rules.t -> diagnostic list

(** Lenient rule-file lint: tokenizes with {!Tech.Rules.scan}, flags
    malformed lines (R010), unknown keys (R008), duplicate keys —
    first occurrence wins — (R009) and bad values (R011), builds a
    best-effort deck from the surviving entries, then runs
    {!check_deck} on it with diagnostics relocated to their defining
    lines.  Returns [None] for the deck only if not even a default
    deck could be built (never, in practice). *)
val check_deck_source : string -> Tech.Rules.t option * diagnostic list

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
    {!Tech.Rules.scan_waivers} and the CIF [4L CODE;] extension).
    Filtering happens at reporting time only — caches always hold the
    unfiltered list. *)
val partition_waived :
  waivers:string list -> diagnostic list -> diagnostic list * diagnostic list

(** Per-code counts of a (suppressed) diagnostic list, sorted by
    code — the [lint_suppressed] reply member and SARIF suppression
    summary. *)
val suppressed_counts : diagnostic list -> (string * int) list

(** Export [lint.diagnostics] / [lint.errors] / [lint.warnings]
    totals plus one [lint.code.<code>] counter per distinct code. *)
val record_metrics : Metrics.t -> diagnostic list -> unit
