(** Deck semantic analysis — the rule-implication engine and the
    static immunity certificates it justifies.

    {!Lint} judges deck entries one at a time; this module reasons
    about what the entries imply {e together}.  Two halves share the
    arithmetic:

    {2 Deck side}

    A constraint graph over {!Tech.Rules}: nodes are the per-layer /
    per-pair width, space and overlap bounds (including directed
    [space_<a>_<b>] overrides), edges are the arithmetic implications
    between them (a lambda entry implies every default, a directed
    spelling implies the matrix cell, a surround chain implies a
    minimal composite feature).  {!check_deck} walks the closure and
    emits the R012+ codes registered in {!Lint.all_codes}:

    - [R012] (error) — unsatisfiable combination: the closure derives
      a composite lower bound that violates a declared minimum (e.g.
      the minimal bonding pad, [contact_size + 2*pad_metal_surround],
      below [width_metal]).  The implying chain is spelled out in the
      message.
    - [R013] (warning) — redundant entry: a written entry whose value
      is already implied by others (the lambda default, the canonical
      matrix cell, or the other directed spelling), so deleting it
      changes nothing.
    - [R014] (error) — non-monotone override family: the winning
      spelling of a layer-pair family is strictly smaller than a
      written-but-shadowed one; the deck {e reads} stricter than it
      {e checks}, the missed-error hazard of the paper's Fig 1.
    - [R015] (note) — cross-deck subsumption verdict, from
      {!compare_rules} / {!deck_relations}.

    {2 Design side}

    One fact and one guard.  A {!cert} holds the per-layer bounding
    boxes of a definition's whole instantiated subtree, in its own
    frame.  The engine builds one per callee (never the root, which
    no guard reads) at the start of each check's interaction stage.
    {!class_silent} consults two callees' certificates against a
    concrete deck (through {!consult}) and proves that no spacing rule
    can fire between the subtrees one placement class puts side by
    side, so the interaction stage skips every instance pair of that
    class.

    Soundness rests on two monotonicities: a bounding box contains its
    geometry, so any metric's gap between two geometries is at least
    the same metric's gap between their boxes; and both supported
    metrics (orthogonal and Euclidean) dominate the Chebyshev (L∞)
    gap.  Hence [chebyshev_gap boxA boxB >= req] certifies that no
    spacing rule of requirement [req] can fire between the contents —
    under the {!Interactions.Geometric} spacing model only, which is
    why the engine disables certificates under the exposure model.

    Certificates never change report bytes: a certified skip replaces
    a computation whose result is provably empty.  [DIC_NO_CERTS=1]
    turns consultation off wholesale (see {!enabled}) for the identity
    smokes. *)

(** {1 Deck analysis} *)

(** Closure lints over one deck: R012 (unsatisfiable chains), R013
    (redundant entries), R014 (non-monotone override families).
    Located and sorted by {!Lint.locate}, like {!Lint.check_deck}: on
    the defining deck line when the rule set came from text.  R013 and the
    canonical-key clause of R014 need provenance to tell {e written}
    entries from defaults, so they stay silent on programmatic rule
    sets with empty [key_positions]. *)
val check_deck : Tech.Rules.t -> Lint.diagnostic list

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
val deck_relations : (string * Tech.Rules.t) list -> Lint.diagnostic list

(** One printable line per relation note (the diagnostic message). *)
val relation_lines : (string * Tech.Rules.t) list -> string list

(** {1 Static immunity certificates} *)

type cert = {
  ct_subtree_bbox : Geom.Rect.t option array;
      (** per {!Tech.Layer.index}: bounding box of every element of the
          whole instantiated subtree, in the symbol's frame *)
  ct_complete : bool;
      (** all callee certificates were available when this one was
          built; the guard ignores incomplete certificates *)
}

val nlayers : int

(** Build one symbol's certificate.  [lookup] resolves callee
    certificates by symbol id (the engine walks definitions
    callees-first, so they are always present; a miss just marks the
    certificate incomplete). *)
val certify : lookup:(int -> cert option) -> Model.symbol -> cert

(** {1 Consulting certificates against a deck} *)

(** The per-pair spacing requirement matrix of a deck: for every
    (layer, layer) index pair, the largest gap the deck can demand
    ([max] of the matrix cell's different-net and same-net bounds; [0]
    for No-rule and Device-checked cells, which the pair check skips
    regardless of geometry). *)
val requirements : Tech.Rules.t -> int array

type consult = {
  cs_cert : int -> cert option;  (** certificate by symbol id *)
  cs_req : int array;  (** {!requirements} of the deck under check *)
}

val consult : cert_of:(int -> cert option) -> Tech.Rules.t -> consult

(** [class_silent cs ~sa ~sb rel]: no pair between callee [sa]'s
    subtree and callee [sb]'s subtree placed at [rel] in [sa]'s frame
    can fire under the deck.  [(sa, sb, rel)] is a placement class
    key: placements are Chebyshev isometries, so one verdict holds for
    every instance pair of the class.  [false] unless both certificates
    exist and are complete. *)
val class_silent : consult -> sa:int -> sb:int -> Geom.Transform.t -> bool

(** {1 Toggling}

    Certificates are an optimisation with a hard identity bar, so they
    carry a kill switch: [DIC_NO_CERTS] (any value but ["0"] or empty)
    disables consultation process-wide.  {!set_enabled} overrides the
    environment for tests and benches. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
