(** The elaborated design model.

    "The key difference between the approach described here and that of
    most other design rule checkers is that the chip is not treated
    purely as a collection of geometry; the chip is never fully
    instantiated; the information about what symbol the piece of
    geometry came from is never lost."

    Elaboration binds CIF layer names to {!Tech.Layer}, device tags to
    {!Tech.Device}, sweeps wires and scan-converts polygons once, and
    pre-computes each element's skeleton.  The hierarchy itself is kept
    verbatim: a symbol's elements and calls, checked once per
    definition.  The CIF top level becomes a synthetic root symbol. *)

type shape =
  | S_box of Geom.Rect.t
  | S_wire of Geom.Wire.t
  | S_poly of Geom.Poly.t

type element = {
  eid : int;  (** dense index within the symbol *)
  layer : Tech.Layer.t;
  shape : shape;
  net_label : string option;
  rects : Geom.Rect.t list;  (** swept geometry *)
  packed : Geom.Rects.t;
      (** [rects] as a packed set, built once here so the interaction
          kernel never walks boxed lists; treated as immutable *)
  skeleton : Geom.Rect.t list;  (** eroded by half the layer min width *)
  bbox : Geom.Rect.t;
  loc : Cif.Loc.t option;  (** CIF source position, when parsed from text *)
}

type call = {
  cidx : int;  (** dense index within the symbol *)
  callee : int;  (** symbol id *)
  transform : Geom.Transform.t;
}

type symbol = {
  sid : int;  (** CIF symbol id; the synthetic root uses {!root_id} *)
  sname : string;  (** display name *)
  device : Tech.Device.kind option;
  elements : element list;
  calls : call list;
  sbbox : Geom.Rect.t option;  (** of the full instantiated content *)
  sloc : Cif.Loc.t option;  (** CIF source position of the definition *)
}

type t = {
  rules : Tech.Rules.t;
  symbols : symbol list;  (** topologically sorted, callees first; root last *)
  root : symbol;
  by_sid : (int, symbol) Hashtbl.t;  (** [symbols] by id, for {!find}; read-only *)
}

val root_id : int

(** The symbol with this id, in constant time.
    @raise Invalid_argument for an id the model does not define. *)
val find : t -> int -> symbol
val is_device : symbol -> bool

(** Region of all the symbol's *local* elements on one layer. *)
val layer_region : symbol -> Tech.Layer.t -> Geom.Region.t

(** Elements of the symbol on one layer. *)
val on_layer : symbol -> Tech.Layer.t -> element list

(** Number of symbols excluding the root. *)
val symbol_count : t -> int

(** Total elements if the design were fully instantiated (what a flat
    checker would have to process), versus [definition_elements], the
    number the hierarchical checker touches. *)
val instantiated_elements : t -> int

val definition_elements : t -> int

(** Maximum call depth (root at depth 0). *)
val depth : t -> int

(** [elaborate rules file] builds the model.  Recoverable issues
    (unknown layers, bad polygons, device symbols containing calls)
    are reported; offending elements are dropped from the model. *)
val elaborate :
  Tech.Rules.t -> Cif.Ast.file -> (t * Report.violation list, string) result
