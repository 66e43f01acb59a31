(** The hierarchical net list (paper Fig 10, "generate hierarchical net
    list").

    Each element in the design gets a unique net identifier using dot
    notation to reference elements of an instance from a higher level:
    [a.b] is element (or net) [b] inside instance [a].  Explicitly
    labelled nets keep their labels; global nets (CIF convention:
    trailing [!]) merge across the hierarchy by name.

    A net's device terminals stay hierarchical too: a {!terminals} tree
    shares each instance's terminals with every other instance of the
    same definition, and a dotted {!terminal} list is built only by
    {!flatten}, for the readers that print paths. *)

type terminal = {
  device_path : string;  (** instance path of the device, dot notation *)
  device : Tech.Device.kind;
  port : string;  (** e.g. "gate", "sd1", "via" *)
}

(** Transistors, resistors and pads.  Contacts are wiring, not devices:
    the two-device rule and the net-list comparison count only
    functional devices. *)
val is_functional : Tech.Device.kind -> bool

(** {1 Terminal trees} *)

(** An immutable tree of device terminals.  A node is either one
    device's own port (at path [""]) or a union of parts, each part a
    child's tree under one instance label ([cidx:name]).  Nodes are
    shared, not copied: every instance of a definition points at the
    definition's own trees. *)
type terminals

(** [port kind name] is one device terminal at path [""]: a device
    symbol's port. *)
val port : Tech.Device.kind -> string -> terminals

(** [union parts] joins [(instance label, tree)] parts.  {!flatten}
    lists the parts in the order given, each part's terminals in its
    own order, and prefixes each path with the part's label and a
    [.] (a port's empty path becomes the label alone).  [union []] is
    one value, shared by every net without terminals. *)
val union : (string * terminals) list -> terminals

(** Cached counts, read without walking the tree: all terminals, the
    terminals of functional devices ({!is_functional}), and those of
    depletion transistors. *)
val count : terminals -> int

val functional : terminals -> int
val depletion : terminals -> int

(** The dotted terminal list, in the order {!union} fixes.  Linear in
    the number of terminals it returns.  On the check path only the
    expected-net-list comparison and the depletion-on-ground rule (on a
    ground net with depletion terminals) call it. *)
val flatten : terminals -> terminal list

(** {1 Nets} *)

type net = {
  names : string list;
      (** explicit labels merged into this net (empty for anonymous
          nets), sorted *)
  auto_name : string;  (** generated dot-notation identifier *)
  classes : Tech.Netclass.t list;  (** distinct classes of [names] *)
  terminals : terminals;
  element_count : int;  (** interconnect elements on the net *)
}

type t = { nets : net list }

(** The distinct classes of [names] other than [Signal], in the order
    [Power], [Ground], [Bus]: the [classes] of a net with those
    labels. *)
val classes_of : string list -> Tech.Netclass.t list

(** Preferred display name: first explicit label, else the generated
    identifier. *)
val display_name : net -> string

(** Does the net carry (a label of) the given class? *)
val has_class : net -> Tech.Netclass.t -> bool

val find_by_name : t -> string -> net option
val pp_net : Format.formatter -> net -> unit
val pp : Format.formatter -> t -> unit
