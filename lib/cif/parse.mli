(** Extended-CIF parser.

    A hand-written recursive-descent parser for the CIF 2.0 command
    set: [B]ox, [W]ire, [P]olygon, [L]ayer, [DS]/[DF] symbol
    definitions, [C]alls with [T]/[M]/[R] transforms, nested [( )]
    comments, numeric user extensions, and the end marker [E].

    Restrictions (checked, with positioned errors):
    - rotations must be orthogonal ([R 1 0], [R 0 1], [R -1 0],
      [R 0 -1]);
    - box directions likewise;
    - [DD] (delete definition) is not supported;
    - symbol calls may not be recursive (checked by the caller via
      {!Ast.check_acyclic}). *)

type error = { offset : int; line : int; message : string }

(** The largest integer literal magnitude the parser accepts, 2^30 (the
    bound rule values have too).  A longer literal is a positioned
    error, never a value read modulo 2^63.  Coordinates produced by
    [DS] scaling or nested translation are not bounded here. *)
val max_literal : int

val pp_error : Format.formatter -> error -> unit
val string_of_error : error -> string

(** [file s] parses a complete CIF file. *)
val file : string -> (Ast.file, error) result
