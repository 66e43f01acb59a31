(** Uniform-grid spatial index.

    The interaction search (paper Fig 10, "check interactions") needs
    "which elements lie within distance d of this window" queries.  A
    uniform grid hash is ideal for IC layouts: geometry is dense,
    bounded, and uniformly sized. *)

type 'a t

(** [create ~cell ()] — [cell] is the bucket edge length; pick roughly
    the largest interaction distance (a few lambda). *)
val create : cell:int -> unit -> 'a t

val add : 'a t -> Rect.t -> 'a -> unit
val length : 'a t -> int

(** [query t window] — all items whose bounding box touches [window]
    (closed-set test), each exactly once, in insertion order. *)
val query : 'a t -> Rect.t -> (Rect.t * 'a) list

(** [pairs_within t d] — all unordered pairs of items whose bounding
    boxes come within Chebyshev distance [d] (inclusive), each pair
    exactly once.  The pair order is historical (newest item first) and
    fixes the finding order of the flat checker and of the net-list
    legal-connection pass; elsewhere prefer {!iter_pairs_within}, which
    has a canonical order and does not materialise the pair list. *)
val pairs_within : 'a t -> int -> ((Rect.t * 'a) * (Rect.t * 'a)) list

(** [iter_query t window f] — [f] applied to the items {!query} would
    return, in ascending insertion order, without building the list. *)
val iter_query : 'a t -> Rect.t -> (Rect.t -> 'a -> unit) -> unit

(** [iter_pairs_within t d f] — [f a b] for every pair
    {!pairs_within} would return, in canonical order: [a] ascending by
    insertion, then [b] ascending among the earlier-inserted items
    within distance [d] of [a].  Allocation-light: candidate pairs are
    never materialised as one list. *)
val iter_pairs_within :
  'a t -> int -> (Rect.t * 'a -> Rect.t * 'a -> unit) -> unit

(** Left fold over all items. *)
val fold : ('acc -> Rect.t -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
