(** The paper's Fig 12 interaction-rule matrix.

    After elements, devices, and connections are checked, "what remains
    to be checked are the interactions between elements and/or
    primitive symbols.  The checks which remain are only spacing
    checks."  The possible cases form an upper-triangular matrix over
    the routing layers (D P M C), each split into same-net and
    different-net subcases.  Most cells need no check: either no rule
    relates the two layers (metal/diffusion) or the only rules concern
    primitive symbols already checked (contact/poly). *)

type entry =
  | No_rule  (** the two layers never interact geometrically *)
  | Device_checked
      (** any legal interaction occurs only inside a primitive symbol,
          which stage 3 has already checked *)
  | Space of {
      same_net : int option;
          (** spacing required even between electrically equivalent
              elements — [None] for ordinary interconnect (Fig 5a), a
              distance when a resistor or similar is involved
              (Fig 5b) *)
      diff_net : int;  (** spacing required between different nets *)
    }

(** [entry rules a b] — symmetric lookup into the matrix.  Directed
    [space_<a>_<b>] overrides from the rule deck
    ({!Rules.cell_space_override}) replace the spacing of reachable
    cross-layer [Space] cells; overrides aimed at [No_rule],
    [Device_checked], or same-layer cells are silently inert — which is
    exactly what the {!Dic.Lint} rule-deck pass flags (codes R005–R007). *)
val entry : Rules.t -> Layer.t -> Layer.t -> entry

(** The whole matrix over every layer, flat and built once per deck:
    [(matrix rules).((Layer.index la * n) + Layer.index lb)] is
    [entry rules la lb], with [n = List.length Layer.all].  The pair
    judge and the certificate guard both index it, which allocates
    nothing. *)
val matrix : Rules.t -> entry array

(** All upper-triangular (layer, layer, entry) cells over the routing
    layers, for reporting (bench [fig12_matrix_coverage]). *)
val cells : Rules.t -> (Layer.t * Layer.t * entry) list

val pp_entry : Format.formatter -> entry -> unit
