(** Packed rectangle sets and the interaction-check gap kernel.

    The interaction stage spends nearly all of its time asking one
    question: how close do two small sets of axis-aligned rectangles
    come?  This module gives that question a representation and one
    kernel.

    {b Representation.}  A set is one flat [int array] of
    [(x0, y0, x1, y1)] quadruples sorted by {!Rect.compare} order
    (min-x first), with the bounding box precomputed.  Packing removes
    the per-rectangle boxing of a [Rect.t list] — walking a set is a
    cache-friendly scan, and an orthogonal {!Transform.t} can be
    applied with {!apply_into} into a caller-owned scratch set without
    allocating.

    {b Mutability contract.}  [t] is mutable only so it can serve as a
    reusable scratch buffer for {!apply_into}.  A set that escapes into
    a shared structure (an elaborated element, a memoised candidate
    list) must never be mutated afterwards; the checker allocates fresh
    sets ({!apply}, {!of_list}) for those and keeps scratch sets
    per-domain. *)

type t

(** A fresh empty set (also the way to create a scratch buffer for
    {!apply_into}). *)
val empty : unit -> t

(** Build from a rectangle list.  The input order is irrelevant: the
    set is sorted into canonical {!Rect.compare} order. *)
val of_list : Rect.t list -> t

(** The rectangles in canonical (sorted) order. *)
val to_list : t -> Rect.t list

val length : t -> int
val is_empty : t -> bool

(** [get t i] is the [i]-th rectangle in canonical order.
    @raise Invalid_argument when [i] is out of bounds. *)
val get : t -> int -> Rect.t

(** Bounding box of the set; [None] when empty. *)
val bbox : t -> Rect.t option

(** [apply_into tr ~src ~dst] overwrites [dst] with [tr] applied to
    [src], re-sorting into canonical order, without allocating (beyond
    a one-time growth of [dst]'s backing array).  [src] and [dst] must
    be distinct sets. *)
val apply_into : Transform.t -> src:t -> dst:t -> unit

(** [apply tr src] is a freshly allocated transformed copy. *)
val apply : Transform.t -> t -> t

(** {2 Minimum-gap kernel}

    {!gap2} computes, over all rectangle pairs [(i, j)] of the two sets
    whose squared separation is at most [cutoff2], the minimum squared
    separation — Euclidean ([euclid = true]) or Chebyshev/orthogonal —
    together with the indices of the minimising pair and whether any
    pair of the two sets overlaps with positive area.

    {b Cutoff semantics.}  [cutoff2] is inclusive: a pair at exactly
    the cutoff is reported.  When no pair is within the cutoff the
    result is {!no_gap} (with [g2 = max_int] and [ai = bi = -1]),
    except that [overlap] is always exact — overlapping pairs have a
    squared gap of zero and can never fall outside any cutoff.  Callers
    that need the true minimum (the exposure spacing model prints it)
    pass [cutoff2 = max_int].

    {b Tie-break.}  Among pairs achieving the minimum, the
    [(ai, bi)]-lexicographically smallest over the canonical order is
    returned — exactly the pair an n·m brute force visiting [i] then
    [j] in order would keep, which is how the kernel is tested. *)

type gap = {
  g2 : int;  (** squared separation; [max_int] when nothing qualifies *)
  ai : int;  (** index into the first set, [-1] when nothing qualifies *)
  bi : int;  (** index into the second set *)
  overlap : bool;  (** some pair overlaps with positive area (exact) *)
}

val no_gap : gap

(** Reusable scratch for the sweep: the active-band index arrays plus
    the entire per-call mutable state (best pair, overlap flag, band
    lengths), so a {!gap2} call allocates nothing but its result.
    One per domain: not thread-safe, but freely reusable across
    calls. *)
type ws

val make_ws : unit -> ws

(** [gap2 ~euclid ~cutoff2 ws a b] — an x-sweep over both sets merged
    in ascending min-x, holding the other set's candidates in an active
    band pruned against [min best-so-far cutoff2].  ~O((n+m)·band) with
    early exit via the cutoff, against a brute force's n·m. *)
val gap2 : euclid:bool -> cutoff2:int -> ws -> t -> t -> gap

val pp : Format.formatter -> t -> unit
