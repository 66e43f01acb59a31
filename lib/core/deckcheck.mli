(** Static immunity certificates — the per-definition facts the
    interaction stage consults to skip silent placement classes.  The
    deck analysis (R001–R015) lives in {!Lint}.

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

(** {1 Static immunity certificates} *)

type cert = {
  ct_subtree_bbox : Geom.Rect.t option array;
      (** per {!Tech.Layer.index}: bounding box of every element of the
          whole instantiated subtree, in the symbol's frame *)
  ct_complete : bool;
      (** all callee certificates were available when this one was
          built; the guard ignores incomplete certificates *)
}

(** Build one symbol's certificate.  [lookup] resolves callee
    certificates by symbol id (the engine walks definitions
    callees-first, so they are always present; a miss just marks the
    certificate incomplete). *)
val certify : lookup:(int -> cert option) -> Model.symbol -> cert

(** {1 Consulting certificates against a deck} *)

type consult = {
  cs_cert : int -> cert option;  (** certificate by symbol id *)
  cs_req : int array;
      (** per {!Tech.Interaction.matrix} cell, the largest gap the deck
          can demand: [max] of the cell's different-net and same-net
          bounds, [0] for No-rule and Device-checked cells, which the
          pair check skips regardless of geometry *)
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
