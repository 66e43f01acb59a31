(** Merged cross-deck report.

    Checking one design under N rule decks yields N per-deck
    {!Report.t}s over the same geometry.  This module folds them into
    one view: each distinct violation appears once, tagged with the
    {e deck-membership vector} — which decks flagged it — plus a
    per-deck summary and the compliant-intersection verdict (the
    multiple-lithography-compliance question: which decks does the
    design satisfy?).

    Merging is purely structural and deterministic: violations are
    grouped by equality of the full {!Report.violation} record
    (location, rule, message, provenance), ordered as the first deck
    prints them, with violations unique to later decks appended in
    deck order.  Equal per-deck reports therefore always merge to equal
    bytes, whatever the [jobs]/worker count or cache warmth that
    produced them. *)

(** One merged violation with the decks that flagged it (ascending
    indices into {!t.summaries}). *)
type entry = {
  violation : Report.violation;
  decks : int list;
}

type deck_summary = {
  ds_label : string;
  ds_errors : int;
  ds_warnings : int;
}

type t = {
  entries : entry list;
  summaries : deck_summary list;
  relations : string list;
      (** pairwise deck-relation verdicts ({!Deckcheck} R015 lines);
          empty for single-deck merges *)
}

(** [make [(label, report); ...]] — merge per-deck reports, first deck
    first.  Labels are echoed in membership annotations and summaries;
    they should be distinct.  [relations] (default []) carries the
    cross-deck subsumption verdicts, printed by {!pp_summary} and
    exported to SARIF, but never folded into any per-deck report. *)
val make : ?relations:string list -> (string * Report.t) list -> t

(** Distinct merged violations with severity [Error] / [Warning]. *)
val errors : t -> int

val warnings : t -> int

(** Labels of the decks the design complies with (zero errors), in
    deck order. *)
val compliant : t -> string list

val all_compliant : t -> bool

(** {2 Rendering}

    Buffer writers, as in {!Report}: lines joined by ['\n'], no newline
    after the last.  The printers print the same text as one string,
    under {!Report.pp}'s column-0 contract. *)

(** The merged violation list, one line per entry:
    [<violation> [decks: a,b]]. *)
val add_lines : Buffer.t -> t -> unit

(** Per-deck verdict lines, the deck-relation lines, then the
    compliant-intersection verdict. *)
val add_summary : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
val pp_summary : Format.formatter -> t -> unit
