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

    A {!cert} is a bundle of per-definition facts — minimum drawn
    feature per layer, minimum local bbox clearance per layer pair,
    per-layer bounding boxes of the whole instantiated subtree —
    computed once per symbol and cached by the engine under subtree
    fingerprints.  Consulted against a concrete deck (through
    {!consult}), a certificate can prove that whole groups of rule
    evaluations cannot fire, letting the element-check and interaction
    stages skip them.

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
    Sorted; locations point at the defining deck line when the rule
    set came from text (via {!Tech.Rules.position}).  R013 and the
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
  ct_placement_clean : bool;
      (** not a device and every local element is interconnect — the
          element stage can emit nothing but width findings *)
  ct_min_feature : int array;
      (** per {!Tech.Layer.index}: minimum drawn width of the local
          elements (box/wire); [max_int] when the layer is empty, [0]
          when a polygon makes the exact minimum unknown *)
  ct_pair_clear : int array option;
      (** per unordered layer-index pair [ia * nlayers + ib] (ia <=
          ib): minimum Chebyshev bbox gap over distinct local element
          pairs; [max_int] when no such pair; [None] when the symbol
          has too many local elements to bound cheaply *)
  ct_subtree_bbox : Geom.Rect.t option array;
      (** per layer: bounding box of every element of the whole
          instantiated subtree, in the symbol's frame *)
  ct_complete : bool;
      (** all callee certificates were available when this one was
          built; guards ignore incomplete certificates *)
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
  cs_inst_memo : (int * int * Geom.Transform.t, bool) Hashtbl.t;
      (** instance-pair verdicts keyed on (sid, sid, relative
          placement): placement transforms are Chebyshev isometries,
          so the verdict only depends on [tra^-1 . trb].  Touched only
          from the serial guard prepass. *)
}

val consult : cert_of:(int -> cert option) -> Tech.Rules.t -> consult

(** The element stage is provably silent for this definition under
    [rules]: placement-clean and every layer's minimum drawn feature
    meets the deck's minimum width. *)
val element_immune : Tech.Rules.t -> cert -> bool

(** No local element pair of symbol [sid] can violate any spacing
    rule of the deck: every layer-pair's minimum bbox clearance meets
    the deck's requirement. *)
val local_guard : consult -> sid:int -> bool

(** No pair between a local element (layer [la], bounding box [bbox])
    and any geometry of the subtrees the calls place can fire under the
    deck. *)
val elt_guard :
  consult -> la:Tech.Layer.t -> bbox:Geom.Rect.t -> Model.call list -> bool

(** No pair between the subtrees the two calls place can fire under
    the deck. *)
val inst_guard : consult -> Model.call -> Model.call -> bool

(** {1 Toggling}

    Certificates are an optimisation with a hard identity bar, so they
    carry a kill switch: [DIC_NO_CERTS] (any value but ["0"] or empty)
    disables consultation process-wide.  {!set_enabled} overrides the
    environment for tests and benches. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
