(** Non-geometric construction rules (the paper's list, verbatim):

    1. A net must have at least two "devices" on it.
    2. Power and ground must not be shorted.
    3. A "bus" may not connect to power or ground.
    4. A depletion device may not connect to ground.

    "Net list generation and non-geometric design verification have a
    lot in common with DRC and should appropriately be handled by a
    single program" — these checks run as the last stage of the
    checker's pipeline, over the net list stage 5 produced. *)

type violation =
  | Floating_net of { net : string; terminals : int }
      (** rule 1: fewer than two device terminals *)
  | Supply_short of { net : string; names : string list }
      (** rule 2: one net carries both power and ground labels *)
  | Bus_on_supply of { net : string; names : string list }
      (** rule 3 *)
  | Depletion_on_ground of { net : string; device_path : string; port : string }
      (** rule 4 *)

(** The one-line message the report carries for a violation, built by
    concatenation. *)
val message : violation -> string

(** [check netlist] runs all four rules.  Supply nets themselves are
    exempt from rule 1 (power rails legitimately feed any number of
    devices, including just one in a test structure). *)
val check : Net.t -> violation list
