(** Width and spacing measurement on rectilinear regions.

    Implements the two geometrical metrics the paper contrasts (Fig 3):
    orthogonal (L-infinity, what an "orthogonal expand" checker
    measures) and Euclidean (L2).  These are the ground-truth
    measurements; the classical *algorithms* built on expand/shrink with
    their corner pathologies (paper Figs 2 and 4) live in [flatdrc] and
    are evaluated against these measurements. *)

type metric = Orthogonal | Euclidean

type kind =
  | Width  (** interior narrower than the rule *)
  | Notch  (** same-region exterior gap narrower than the rule *)
  | Spacing  (** two distinct regions closer than the rule *)

type violation = {
  kind : kind;
  metric : metric;
  required : int;
  gap2 : int;  (** squared measured distance, for both metrics *)
  where : Rect.t;  (** bounding box of the offending gap or neck *)
}

(** Measured distance in plain units. *)
val actual : violation -> float

(** [min_width ~metric ~width r] returns every place the interior of
    [r] is narrower than [width].  The orthogonal metric checks facing
    edge pairs; the Euclidean metric additionally checks diagonal necks
    between concave corners. *)
val min_width : metric:metric -> width:int -> Region.t -> violation list

(** [notch ~metric ~space r] returns every same-region exterior gap
    (notch) narrower than [space]. *)
val notch : metric:metric -> space:int -> Region.t -> violation list

(** [spacing ~metric ~space a b] returns every pair of strips of [a]
    and [b] separated by less than [space].  Touching or overlapping
    geometry reports a gap of zero. *)
val spacing : metric:metric -> space:int -> Region.t -> Region.t -> violation list

(** Exact minimum separation between two regions under a metric, as a
    squared distance; [None] if either region is empty.  Computed by
    the {!Rects.gap2} sweep kernel. *)
val separation2 : metric:metric -> Region.t -> Region.t -> int option

val pp_violation : Format.formatter -> violation -> unit
