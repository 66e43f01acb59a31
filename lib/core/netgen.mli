(** Pipeline stages 4 and 5 — "check legal connections" and "generate
    hierarchical net list".

    Connectivity is *skeletal* (paper Fig 11): same-layer elements are
    legally connected iff their skeletons touch; cross-layer connection
    happens only through contact devices (their ports tie layers).
    Each symbol definition's internal connectivity is computed exactly
    once; instances compose their callee's exported net groups, so the
    cost is per-definition plus per-instance composition — never full
    instantiation.

    Net names use the paper's dot notation: a net labelled [out] inside
    instance [1:inv] of the root appears as [1:inv.out]; CIF global
    labels (trailing [!]) merge by name at every level. *)

type group = {
  gid : int;
  skels : (Tech.Layer.t * Geom.Rect.t list) list;
      (** connection surface, in the owning symbol's coordinates *)
  labels : string list;  (** explicit labels, local ones dot-qualified *)
  terminals : Netlist.Net.terminal list;
  element_count : int;
  crossing : bool;  (** does the net cross a symbol boundary? *)
}

type sym_nets = {
  groups : group array;
  elt_group : int option array;  (** eid -> gid (None: no net, e.g. implant) *)
  sub_group : (int * int, int) Hashtbl.t;  (** (call idx, child gid) -> gid *)
}

type t = {
  model : Model.t;
  by_symbol : (int, sym_nets) Hashtbl.t;
}

(** Build the hierarchical net list; also reports illegal connections:
    same-layer geometry that touches without being skeletally connected
    (the paper's legal-connection criterion; catches Fig 15 butting). *)
val build : Model.t -> t * Report.violation list

val nets_of : t -> int -> sym_nets

(** The whole-design net list (the root symbol's groups). *)
val netlist : t -> Netlist.Net.t

(** Nets fully contained in one symbol definition vs nets that cross
    symbol boundaries — the paper's locality principle, as a statistic:
    [(local, crossing)] counted over the root. *)
val locality : t -> int * int
