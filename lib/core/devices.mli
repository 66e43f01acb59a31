(** Pipeline stage 3 — "check primitive symbols".

    "Any element which is part of a primitive symbol is treated in the
    box labelled 'check primitive symbols'.  These checks are the most
    complicated checks required.  These may include enclosure rules,
    overlap rules, even overlap of overlap rules (buried contact)."

    Each device kind gets its template check; the [Checked] kind waives
    everything — "a technique for flagging specific devices as checked
    to eliminate large numbers of false errors".  This stage also
    catches the paper's device-dependent cases: contact over an active
    gate is an error while a butting contact is legal (Fig 7), and a
    transistor whose poly does not actually cross the diffusion has no
    gate (the unchecked error of Fig 8's discussion). *)

val check_symbol : Tech.Rules.t -> Model.symbol -> Report.violation list

(** Check every device definition once. *)
val check : Model.t -> Report.violation list

(** The relational form of the gate-overhang rule (paper Fig 14): the
    drawn poly overhang is discounted by the end-cap retreat predicted
    by the exposure model for the transistor's actual poly width, and
    the *effective* overhang must still meet [required] (default 3/4 of
    the drawn-rule overhang).  Narrow-poly transistors that satisfy the
    fixed rule can fail here. *)
val check_relational :
  ?required:int -> Process_model.Exposure.t -> Tech.Rules.t -> Model.symbol ->
  Report.violation list

(** Run the relational check on every transistor definition. *)
val check_relational_all :
  ?required:int -> Process_model.Exposure.t -> Model.t -> Report.violation list

(** {1 Terminals}

    The electrical interface of a device, used by net-list generation.
    Each port is a separate electrical node (a contact's one port ties
    its layers; a transistor's source and drain stay separate — "the
    gate or implant of a transistor cannot be assigned to a net"). *)

type port = {
  pname : string;  (** "gate", "sd0", "via", "r0", ... *)
  players : (Tech.Layer.t * Geom.Rect.t list) list;
      (** connection skeletons per layer, in symbol coordinates *)
  plabels : string list;  (** explicit net labels carried by the port *)
}

type iface = { ports : port list }

(** Interface of a device symbol.  Non-device symbols have no
    interface. *)
val interface : Tech.Rules.t -> Model.symbol -> iface option
