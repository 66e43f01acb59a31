(** Violation reporting for the checker.

    The paper's Fig 1 frames DRC quality as three regions: real errors
    flagged, real errors missed, and false errors.  Reports here carry
    enough context (stage, rule family, location, instance path) for
    {!Classify} to compute those regions against a ground-truth
    journal. *)

type severity = Error | Warning | Info

(** The six pipeline stages of the paper's Fig 10 flow chart, plus the
    structured-design integrity checks and electrical rules. *)
type stage =
  | Parse_stage
  | Elements  (** "check elements" — interconnect width *)
  | Devices  (** "check primitive symbols" *)
  | Connections  (** "check legal connections" — skeletal connectivity *)
  | Netlist_gen  (** "generate hierarchical net list" *)
  | Interactions  (** "check interactions" — spacing matrix *)
  | Integrity  (** structured-design usage rules *)
  | Electrical  (** non-geometric construction rules *)

type violation = {
  stage : stage;
  rule : string;  (** dotted rule id, e.g. "width.NP", "device.gate-overhang" *)
  severity : severity;
  where : Geom.Rect.t option;  (** in the coordinates of [context] *)
  context : string;  (** the symbol definition the check ran in *)
  path : string option;
      (** full dotted instance path from the defining symbol down to
          the geometry, e.g. ["TOP.inv[3].contact[0]"]; [None] when the
          violation is not tied to a deeper instance (then [context] is
          the whole path) *)
  loc : Cif.Loc.t option;
      (** CIF source position of the offending statement, when the
          design came from parsed text — the "symbol origin … is never
          lost" promise extended back to the file *)
  message : string;
}

type t = { violations : violation list }

val empty : t
val count : ?severity:severity -> t -> int
val errors : t -> violation list
val by_stage : t -> stage -> violation list

(** Violations whose rule id starts with the given prefix. *)
val by_rule_prefix : t -> string -> violation list

val stage_name : stage -> string

(** [path] when present, else [context]: the most precise logical
    location known for the violation. *)
val instance_path : violation -> string

(** {2 Rendering}

    One violation renders as one line,
    [[stage/severity] rule: message at [x0,y0 - x1,y1] in path (cif line:col)],
    each of the last three parts present only when the violation has a
    box, a non-empty {!instance_path} and a source position.  The
    writers append straight into a [Buffer.t], with no [Format] or
    [Printf] on the way; the printers print the same bytes. *)

(** Append one violation's line, with no newline. *)
val add_violation : Buffer.t -> violation -> unit

(** Append the report's lines in print order (oldest violation first),
    joined by ['\n'], with no newline after the last; nothing for the
    empty report. *)
val add_lines : Buffer.t -> t -> unit

(** Print {!add_violation}'s line. *)
val pp_violation : Format.formatter -> violation -> unit

(** Print {!add_lines}'s text as one string.  Every caller prints it at
    column 0, where it is the report's lines joined by ['\n'].  The
    newlines are part of the string, not [Format] break hints: inside
    an indented box the second and later lines start at column 0, not
    at the box's indentation, and the formatter's column count is not
    reset by them. *)
val pp : Format.formatter -> t -> unit

(** Helper constructors. *)

val error :
  stage:stage -> rule:string -> ?where:Geom.Rect.t -> context:string ->
  ?path:string -> ?loc:Cif.Loc.t -> string -> violation

val warning :
  stage:stage -> rule:string -> ?where:Geom.Rect.t -> context:string ->
  ?path:string -> ?loc:Cif.Loc.t -> string -> violation

val info :
  stage:stage -> rule:string -> ?where:Geom.Rect.t -> context:string ->
  ?path:string -> ?loc:Cif.Loc.t -> string -> violation
