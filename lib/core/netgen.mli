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
    labels (trailing [!]) merge by name at every level.  Neither labels
    nor device terminals are renamed per level: a group's one net tree
    ({!Netlist.Net.terminals}) refers to its child groups' trees, and a
    dotted label ([1:inv.out]) or terminal path ([1:inv.0:enh]) exists
    only once {!Netlist.Net.labels} or {!Netlist.Net.flatten} builds
    it.  Composition builds no label string and sorts no label list. *)

type group = {
  gid : int;
  skels : (Tech.Layer.t * Geom.Rect.t list) list;
      (** connection surface, in the owning symbol's coordinates; empty
          for the root symbol's groups, since nothing calls the root *)
  terminals : Netlist.Net.terminals;
      (** the group's net tree, which carries its terminals and labels.
          A device symbol's group: its port, with the port's labels.  A
          composite symbol's group: its elements' labels, as drawn; its
          global set, the global names the merge by name put in it (the
          names whose first node, in node order, lies in the group); and
          one part per (call, child group) merged into it that has
          terminals or a non-global label
          ({!Netlist.Net.needs_part}), labelled with the call's instance
          label ([cidx:name]) and sharing the child group's own tree.  A
          child group with global labels only gets no part: its names
          reach the group by name.  The parts run in the reverse of the
          order calls and their child groups are visited (calls in
          order, then each callee's groups by gid), so
          {!Netlist.Net.flatten} gives the dotted list that prepending
          each child's prefixed terminals would give. *)
  element_count : int;
  crossing : bool;  (** does the net cross a symbol boundary? *)
}

type sym_nets = {
  groups : group array;
  elt_group : int option array;  (** eid -> gid (None: no net, e.g. implant) *)
  sub_group : int array array;
      (** call index -> the callee's gid -> gid: [sub_group.(k).(g)] is
          the group that call [k]'s child group [g] belongs to here.
          Every child group of every call has one, so lifting a net
          through a call is one array read.  [[||]] for a device symbol,
          which calls nothing. *)
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

(** The whole-design net list (the root symbol's groups), in gid order.
    Each net shares its group's net tree, whose cached mask gives its
    classes; nets are named [n<gid>]. *)
val netlist : t -> Netlist.Net.t

(** Nets fully contained in one symbol definition vs nets that cross
    symbol boundaries — the paper's locality principle, as a statistic:
    [(local, crossing)] counted over the root. *)
val locality : t -> int * int
