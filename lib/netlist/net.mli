(** The hierarchical net list (paper Fig 10, "generate hierarchical net
    list").

    Each element in the design gets a unique net identifier using dot
    notation to reference elements of an instance from a higher level:
    [a.b] is element (or net) [b] inside instance [a].  Explicitly
    labelled nets keep their labels; global nets (CIF convention:
    trailing [!]) merge across the hierarchy by name.

    A net stays hierarchical: one {!terminals} tree carries its device
    terminals and its labels, and shares each instance's tree with every
    other instance of the same definition.  Dotted terminal paths are
    built only by {!flatten}, and dotted labels only by {!labels} (and
    {!names}, {!display_name}), for the readers that print or report
    them. *)

type terminal = {
  device_path : string;  (** instance path of the device, dot notation *)
  device : Tech.Device.kind;
  port : string;  (** e.g. "gate", "sd1", "via" *)
}

(** Transistors, resistors and pads.  Contacts are wiring, not devices:
    the two-device rule and the net-list comparison count only
    functional devices. *)
val is_functional : Tech.Device.kind -> bool

(** A global net name (CIF convention: a trailing [!]); global labels
    merge across the hierarchy by name. *)
val is_global : string -> bool

(** {1 Net trees} *)

(** An immutable net tree.  A node is either one device's own port (at
    path [""]) or a union of parts, each part a child's tree under one
    instance label ([cidx:name]).  Nodes are shared, not copied: every
    instance of a definition points at the definition's own trees.

    Each node caches, read without walking the tree:
    - its terminal, functional and depletion counts;
    - its own labels, as drawn;
    - its global set, the distinct global names merged into it;
    - its supply classes, as a bit mask of its global set and its own
      labels.  A part's qualified labels begin with an instance label,
      which classifies as [Signal], so they add no class. *)
type terminals

(** [port ?labels kind name] is one device terminal at path [""]: a
    device symbol's port, with the port's own [labels] (default none).
    Its global set is the global ones among [labels]. *)
val port : ?labels:string list -> Tech.Device.kind -> string -> terminals

(** [union ?labels ?globals parts] joins [(instance label, tree)] parts
    under a node with its own [labels] and global set [globals] (both
    default to none).  [globals] must hold every global name of the
    parts' trees, and of any child merged in without a part: {!labels}
    lists it as given and reads no part's global set.  {!flatten} lists
    the parts in the order given, each part's terminals in its own
    order, and prefixes each path with the part's label and a [.] (a
    port's empty path becomes the label alone).  [union []] is one
    value, shared by every net without terminals or labels. *)
val union : ?labels:string list -> ?globals:string list -> (string * terminals) list -> terminals

(** Cached counts: all terminals, the terminals of functional devices
    ({!is_functional}), and those of depletion transistors. *)
val count : terminals -> int

val functional : terminals -> int
val depletion : terminals -> int

(** The cached global set, in no particular order. *)
val globals : terminals -> string list

(** Does a parent need this tree as a part: has it a terminal or a
    non-global label?  A tree with neither shows nothing under an
    instance label; its global names reach the parent by name. *)
val needs_part : terminals -> bool

(** The dotted terminal list, in the order {!union} fixes.  Linear in
    the number of terminals it returns.  On the check path only the
    expected-net-list comparison and the depletion-on-ground rule (on a
    ground net with depletion terminals) call it. *)
val flatten : terminals -> terminal list

(** The dotted labels, sorted under [String.compare] and unique: the
    node's own labels and global set as they are, and each part's
    non-global labels, recursively, under its instance label and a [.].
    Built on each call. *)
val labels : terminals -> string list

(** {1 Nets} *)

type net = {
  gid : int;  (** the net's group id in the root definition *)
  terminals : terminals;  (** the group's net tree: terminals and labels *)
  element_count : int;  (** interconnect elements on the net *)
}

type t = { nets : net list }

(** The generated identifier, [n<gid>]: built on each call. *)
val auto_name : net -> string

(** [labels n.terminals]: the explicit labels merged into the net
    (empty for an anonymous net), built on each call. *)
val names : net -> string list

(** Preferred display name: the first of {!names}, else the generated
    identifier.  Builds {!names}. *)
val display_name : net -> string

(** [display_name_of n names] is [display_name n], read from [n]'s
    already built [names]. *)
val display_name_of : net -> string list -> string

(** The distinct classes of {!names} other than [Signal], in the order
    [Power], [Ground], [Bus], read from the cached mask. *)
val classes : net -> Tech.Netclass.t list

(** Does the net carry (a label of) the given class?  One mask test. *)
val has_class : net -> Tech.Netclass.t -> bool

(** The first net with [name] among its {!names} or as its generated
    identifier.  Builds the {!names} of every net it passes. *)
val find_by_name : t -> string -> net option

val pp_net : Format.formatter -> net -> unit
val pp : Format.formatter -> t -> unit
