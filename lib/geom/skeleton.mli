(** Skeletal connectivity (paper Fig 11).

    The skeleton of an element is the element shrunk by one half of the
    minimum width of its layer.  Two elements are legally connected iff
    their skeletons touch, overlap, or one encloses the other.  If two
    elements each of legal width are skeletally connected, their union
    is of legal width — the theorem that lets the checker avoid general
    polygon machinery on connected interconnect.

    Skeletons are (possibly degenerate) rectangle lists: an element of
    exactly minimum width shrinks to a line or point, and closed-set
    intersection makes "touching skeletons" well-defined there. *)

(** [of_rect ~half r] — each axis shrinks by [half] from both sides; an
    axis narrower than [2*half] collapses to its centre line. *)
val of_rect : half:int -> Rect.t -> Rect.t

(** [of_region ~half region] — the skeleton of a general (polygon or
    merged) region: the region eroded by [half] ({!Region.shrink_orth}),
    or, where that erodes it away, by the largest smaller distance that
    leaves something — down to the region itself at [0].  An empty
    region has an empty skeleton. *)
val of_region : half:int -> Region.t -> Rect.t list

(** [connected a b] — some rectangle of [a] intersects (closed-set)
    some rectangle of [b]. *)
val connected : Rect.t list -> Rect.t list -> bool

(** [connected_rect a b] — single-rectangle convenience. *)
val connected_rect : Rect.t -> Rect.t -> bool
