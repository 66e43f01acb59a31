(** A minimal JSON value type, parser, and printer.

    The repository's structured outputs ({!Metrics.to_json},
    {!Sarif.of_report}, {!Trace.to_chrome_json}) are buffer writers and
    need no value type, only {!add_quoted}; this module exists for the
    places that must
    {e read} JSON — the [dicheck serve] request protocol ({!Serve}) —
    and for composing reply objects without string-splicing bugs.

    The parser accepts RFC 8259 JSON (objects, arrays, strings with
    escapes including [\uXXXX], numbers, booleans, null) and rejects
    trailing garbage.  The printer is canonical for a given value: no
    whitespace, object members in the order given, integers printed
    without a decimal point, other numbers with the fewest significant
    digits (15 to 17) that read back as the same float. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Parse one JSON document.  [Error msg] carries a byte offset. *)
val parse : string -> (t, string) result

val to_string : t -> string

(** [quote s] is the JSON string literal for [s], including the
    surrounding double quotes.  Backspace and form feed take their
    short forms [\b] and [\f]; other control bytes are [\u00XX]. *)
val quote : string -> string

(** [add_quoted buf s] appends the JSON string literal for [s] to
    [buf], escaping in place: the one escaper behind {!Sarif},
    {!Metrics.to_json} and {!Trace.to_chrome_json}.  It differs from
    {!quote} only in spelling backspace and form feed [\u0008] and
    [\u000c], as those documents always have. *)
val add_quoted : Buffer.t -> string -> unit

(** {1 Accessors}

    All return [None] on a type or key mismatch rather than raising. *)

val member : string -> t -> t option
val str : t -> string option
val num : t -> float option

(** [int] narrows {!num} to integral values (within [±1e9]); [None]
    for [2.5] rather than a silent truncation. *)
val int : t -> int option
val bool : t -> bool option
val arr : t -> t list option
