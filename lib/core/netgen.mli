(** Pipeline stages 4 and 5 — "check legal connections" and "generate
    hierarchical net list".

    Connectivity is *skeletal* (paper Fig 11): same-layer elements are
    legally connected iff their skeletons touch; cross-layer connection
    happens only through contact devices (their ports tie layers).
    Each symbol definition's internal connectivity is computed exactly
    once; instances compose their callee's exported net groups, so the
    cost is per-definition plus per-instance composition — never full
    instantiation.

    Composition never copies a callee's geometry per instance.  Each
    callee's connection surface is indexed once in its own frame; a
    parent indexes one candidate box per call (the callee's surface hull,
    placed), maps a touching element into the callee's frame, and
    decides which child groups of two touching calls connect from the
    callees and their relative placement alone — memoised across the
    whole build, because orthogonal placements are isometries and
    replicated arrays reuse a handful of relative placements.

    Net names use the paper's dot notation: a net labelled [out] inside
    instance [1:inv] of the root appears as [1:inv.out]; CIF global
    labels (trailing [!]) merge by name at every level. *)

type group = {
  gid : int;
  skels : (Tech.Layer.t * Geom.Rect.t list) list;
      (** connection surface, in the owning symbol's coordinates; empty
          for the root symbol's groups, since nothing calls the root *)
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
    (the paper's legal-connection criterion; catches Fig 15 butting).
    With [metrics], records the counters [netgen.call_pairs] (candidate
    pairs of touching calls), [netgen.memo_hits] and
    [netgen.memo_misses] (their connectivity memo). *)
val build : ?metrics:Metrics.t -> Model.t -> t * Report.violation list

val nets_of : t -> int -> sym_nets

(** The whole-design net list (the root symbol's groups). *)
val netlist : t -> Netlist.Net.t

(** Nets fully contained in one symbol definition vs nets that cross
    symbol boundaries — the paper's locality principle, as a statistic:
    [(local, crossing)] counted over the root. *)
val locality : t -> int * int
