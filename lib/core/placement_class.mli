(** Placement classes: the key both hierarchical stages memoise on.

    Two calls of one definition interact the same way wherever the pair
    sits, as long as the callees and the placement of the second in the
    first one's frame are the same: placements are orthogonal
    isometries.  {!Netgen} memoises which child groups of a call pair
    connect on this key, and {!Interactions} interns its instance pairs'
    classes and memoises their candidates on it.  Equality and hashing
    read the two callee ids and the transform's six integers, with no
    generic traversal. *)

(** [(callee, callee, relative placement)]: symbol ids of the two
    callees, and the transform placing the second callee in the first
    one's frame. *)
type t = int * int * Geom.Transform.t

val equal : t -> t -> bool
val hash : t -> int

module Tbl : Hashtbl.S with type key = t
