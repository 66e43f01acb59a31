(** Flat uniform-grid spatial index.

    The interaction search (paper Fig 10, "check interactions") needs
    "which elements lie within distance d of this window" queries; so
    do the net-list stage's candidate pairs and the flat baseline.

    {2 Freezing}

    {!add} appends an item to one array under the next insertion id
    (0, 1, 2, ...).  The first query after an add freezes the index:
    the ids filed under each occupied cell go into one [int] array,
    sorted by column, then row, then id (a radix sort), and indexed in
    two levels: the occupied columns, then each column's occupied rows.
    A later {!add} thaws it and the next query freezes again, so adds
    and queries may interleave.

    {2 Cells}

    The internal cell edge is picked from the items: the larger of
    [~cell] and twice the median item extent ([max width height]), so a
    typical item covers one to four cells.  Only occupied cells are
    stored, and a query finds its window's first column, and each
    column's first row, by search among them, so how far apart the
    items lie changes only the number of sorting passes: one box far
    away from a dense cluster leaves the cluster's cells as they were.  An item that would cover
    more than 256 cells, such as one box far larger than the rest,
    stays off the grid on a side list that every query tests directly.
    So memory is O(items + covered cells), with at most 256 cells per
    item; the freeze sorts in one pass per byte of the column and of
    the row spread, one or two each on a compact layout; and a query
    costs O(side list + occupied columns it spans + ids in its cells),
    plus a search per column.  The nominal [~cell] given to {!create}
    still fixes the historical order of {!pairs_within}; no other
    result depends on it.

    {2 Reads}

    After the freeze a query writes nothing shared: an item, or a pair,
    covering several cells of a window is reported only from the first
    of them, so there is no seen-set, and the ids a query collects go
    into a buffer of its own.  Concurrent first queries may each build
    the frozen grid; they build the same one, and it is published
    atomically.  {!add} must not run concurrently with anything. *)

type 'a t

(** [create ~cell ()] — [cell] is the nominal cell edge, e.g. the
    largest interaction distance.  It bounds the internal edge from
    below and fixes the order of {!pairs_within}. *)
val create : cell:int -> unit -> 'a t

val add : 'a t -> Rect.t -> 'a -> unit
val length : 'a t -> int

(** [query t window] — all items whose bounding box touches [window]
    (closed-set test), each exactly once, in ascending insertion
    order. *)
val query : 'a t -> Rect.t -> (Rect.t * 'a) list

(** [pairs_within t d] — all unordered pairs of items whose bounding
    boxes come within Chebyshev distance [d] (inclusive), each pair
    exactly once; none when [d < 0].

    The order is historical and fixes the finding order of the flat
    checker and of the net-list legal-connection pass.  Take the pairs
    [(a, b)] with [b] inserted before [a], [a] newest first, and for
    each [a] its partners [b] by the first nominal cell ([~cell]) of
    [a]'s window inflated by [d] that [b] covers, column then row, and
    newest first within that cell: the list is that sequence reversed.
    Elsewhere prefer {!iter_pairs_within}. *)
val pairs_within : 'a t -> int -> ((Rect.t * 'a) * (Rect.t * 'a)) list

(** [iter_query t window f] — [f] applied to the items {!query} would
    return, in ascending insertion order, without building the list. *)
val iter_query : 'a t -> Rect.t -> (Rect.t -> 'a -> unit) -> unit

(** [iter_pairs_within t d f] — [f a b] for every pair {!pairs_within}
    would return, in canonical order: [a] ascending by insertion, then
    [b] ascending among the earlier-inserted items within distance [d]
    of [a].  No pair list is built. *)
val iter_pairs_within :
  'a t -> int -> (Rect.t * 'a -> Rect.t * 'a -> unit) -> unit

(** Left fold over all items in ascending insertion order. *)
val fold : ('acc -> Rect.t -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
