(** Orthogonal affine transforms (the CIF instancing group).

    CIF symbol calls compose translations, mirrors, and rotations.  This
    library restricts rotation to the four orthogonal directions, which
    is what the NMOS design style and the checker need: all geometry
    stays axis-aligned under these transforms. *)

type t

val identity : t

(** [translate dx dy] *)
val translate : int -> int -> t

(** [rotate d] where [d] is the CIF direction vector reduced to an
    orthogonal quadrant: [`East] is identity, [`North] rotates 90
    degrees counter-clockwise, etc. *)
val rotate : [ `East | `North | `West | `South ] -> t

(** Mirror in x: negates the x coordinate (CIF [M X]). *)
val mirror_x : t

(** Mirror in y: negates the y coordinate (CIF [M Y]). *)
val mirror_y : t

(** [compose f g] applies [g] first, then [f]. *)
val compose : t -> t -> t

(** [seq ts] composes a CIF transformation list: the first element of
    [ts] is applied first (CIF order). *)
val seq : t list -> t

val apply_pt : t -> Pt.t -> Pt.t
val apply_rect : t -> Rect.t -> Rect.t

(** Scalar forms of {!apply_pt}, for callers that keep coordinates in
    flat arrays and cannot afford a [Pt.t] allocation per point (the
    {!Rects} packed kernel).  [apply_x t x y] is the x coordinate of
    the transformed point, [apply_y t x y] the y coordinate. *)
val apply_x : t -> int -> int -> int

val apply_y : t -> int -> int -> int

(** [det t] is [+1] for orientation-preserving transforms and [-1] for
    reflections. *)
val det : t -> int

(** Field-wise equality: two transforms are equal iff they map every
    point alike. *)
val equal : t -> t -> bool

(** A total order, consistent with {!equal}. *)
val compare : t -> t -> int

(** A non-negative hash consistent with {!equal}, for tables keyed on
    placements; it reads the six integers and nothing else. *)
val hash : t -> int

(** [inverse t] — transforms are invertible in the group. *)
val inverse : t -> t

val pp : Format.formatter -> t -> unit
