(** Geometric design-rule set.

    The default is a Mead & Conway style lambda rule set for the
    silicon-gate NMOS process (the paper and its examples come from the
    same Caltech design community).  All dimensions are in integer
    layout units; [lambda] sets the scale (default 100 units per
    lambda, i.e. half-micron resolution at lambda = 2.5 um).

    Following the paper's taxonomy, the rules split into: legal-device
    parameters (gate overhang, surrounds), interconnect rules (widths),
    and interaction rules (spacings) — see {!Interaction} for the
    Fig 12 matrix built from these numbers. *)

type t = {
  name : string;
  lambda : int;
  width_diffusion : int;  (** 2 lambda *)
  width_poly : int;  (** 2 lambda *)
  width_metal : int;  (** 3 lambda *)
  contact_size : int;  (** contact cut edge, 2 lambda *)
  space_diffusion : int;  (** 3 lambda *)
  space_poly : int;  (** 2 lambda *)
  space_metal : int;  (** 3 lambda *)
  space_contact : int;  (** 2 lambda *)
  space_poly_diffusion : int;  (** unrelated poly to diffusion, 1 lambda *)
  gate_poly_overhang : int;  (** poly past gate, 2 lambda (Fig 14's rule) *)
  gate_diff_extension : int;  (** diffusion past gate, 2 lambda *)
  contact_surround : int;  (** conductor around a contact cut, 1 lambda *)
  implant_gate_surround : int;  (** implant past depletion gate, 1.5 lambda *)
  buried_overlap : int;  (** buried window past the poly-diff tie, 2 lambda *)
  pad_metal_surround : int;  (** metal past glass opening, 2 lambda *)
  pair_spaces : ((Layer.t * Layer.t) * int) list;
      (** directed cross-layer spacing overrides from [space_<a>_<b>]
          rule-file keys, sorted by layer-index pair.  The checker
          consults them through {!cell_space_override} for reachable
          {!Interaction} matrix cells only; {!Dic.Lint} flags the rest
          (asymmetric, unreachable, or shadowed entries). *)
  key_positions : (string * int) list;
      (** 1-based source line of every entry {!load} kept, when the
          rule set came from text (file order); [[]] for programmatic
          rule sets.  Provenance only: never part of
          checking semantics, never emitted by {!to_string}, so two
          decks differing only in comments or line layout are the same
          environment. *)
  waivers : string list;
      (** Lint codes waived by [# lint: allow CODE[, CODE...]] deck
          comments, sorted and deduplicated; [[]] for programmatic rule
          sets.  Like [key_positions], provenance only: waivers filter
          reporting downstream but never enter checking semantics or
          {!to_string}. *)
}

(** [nmos ~lambda ()] — the default rule set; [lambda] defaults to
    100. *)
val nmos : ?lambda:int -> unit -> t

(** Minimum legal width of interconnect on a layer. *)
val min_width : t -> Layer.t -> int

(** The rule-file key {!min_width} reads for a layer ([width_poly] for
    [NP] and [NI], [contact_size] for the cut layers). *)
val width_key : Layer.t -> string

(** Half the minimum width, used to erode elements to skeletons. *)
val skeleton_half : t -> Layer.t -> int

(** Minimum spacing between *different-net* geometry on one layer. *)
val same_layer_space : t -> Layer.t -> int

(** The rule-file key {!same_layer_space} reads for a layer. *)
val space_key : Layer.t -> string

(** Minimum spacing between geometry on two different layers, if any
    rule exists at all ([None] for e.g. metal over diffusion). *)
val cross_layer_space : t -> Layer.t -> Layer.t -> int option

val pp : Format.formatter -> t -> unit

(** {1 Introspection}

    The rule-deck lint ({!Dic.Lint}) walks the rule set generically
    instead of naming fields one by one. *)

(** Every integer rule with its rule-file key, [lambda] first. *)
val fields : t -> (string * int) list

(** The largest rule value the checker accepts, 2^30.  Spacing checks
    compare squared distances in native ints, so a larger value would
    overflow and silently drop violations. *)
val max_value : int

(** [in_range v] — [1 <= v <= max_value]. *)
val in_range : int -> bool

(** Every resolved value (the {!fields} and the pair overrides) outside
    {!in_range}, with its rule-file key. *)
val out_of_range : t -> (string * int) list

(** Lowercase layer name used in pair keys ("diffusion", "poly", ...) *)
val layer_name : Layer.t -> string

val layer_of_name : string -> Layer.t option

(** The directed [space_<a>_<b>] key of a layer pair. *)
val pair_key_name : Layer.t * Layer.t -> string

(** The directed override exactly as written in the deck, if any. *)
val pair_space : t -> Layer.t -> Layer.t -> int option

(** [position t key] — the 1-based line where [key] was defined, when
    the rule set was loaded from text (see [key_positions]). *)
val position : t -> string -> int option

(** Effective override for the unordered layer pair: the
    ascending-index spelling wins over the descending one.  {!Dic.Lint}
    code [R005] flags decks where the two directions disagree. *)
val cell_space_override : t -> Layer.t -> Layer.t -> int option

(** {1 Rule files}

    A textual rule description so processes are data, not code: one
    [key value] pair per line, [#] comments.  [lambda] (read first)
    sets the defaults for every other key via {!nmos}; explicit keys
    override.  Keys are the record field names, plus [name] and
    directed [space_<a>_<b>] pair overrides.

    {v
    # a coarser process
    lambda 200
    width_metal 800     # wider metal than the default 3 lambda
    v} *)

val to_string : t -> string

(** What is wrong with one line of a rule file. *)
type problem_kind =
  | Malformed of string
      (** not of the form [key value] once the comment is stripped; the
          stripped text *)
  | Duplicate of { key : string; first : int }
      (** a later occurrence of [key]; the one on line [first] wins *)
  | Unknown_key of string
  | Bad_value of { key : string; value : string }
      (** not an integer literal in {!in_range} ([name] takes any
          value) *)

(** A problem and its 1-based line. *)
type problem = { line : int; kind : problem_kind }

(** Parse a rule file once, leniently: the deck its surviving entries
    describe, and every entry problem.  An entry survives when it is
    the first occurrence of a known key with a valid value; [lambda]
    sets the defaults, the other survivors override them, and
    [key_positions] holds the survivors' lines.  A lambda whose derived
    defaults leave {!in_range} is kept ({!out_of_range} finds them),
    and the deck carries the source's [# lint: allow] waivers.  Never
    fails.

    The problems come in the order {!of_string} reports them:
    malformed lines, then duplicate keys, then [lambda]'s value, then
    the other entries, each group in file order. *)
val load : string -> t * problem list

(** Strict parse over {!load}.  The first problem is the error, with
    its line number ("line N: ..."); a deck without problems is still
    refused when [lambda] scales a default past {!max_value}, on
    [lambda]'s own line. *)
val of_string : string -> (t, string) result
