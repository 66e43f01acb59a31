(** SARIF 2.1.0 export of a checking report.

    SARIF (Static Analysis Results Interchange Format) is the exchange
    format consumed by code-review tooling — GitHub code scanning, VS
    Code SARIF viewers, and CI annotators.  Each {!Report.violation}
    becomes one [result] carrying:

    - [ruleId]: the stable rule name ([overlap.layer], [device.gate], …)
      — the machine-readable counterpart of the paper's "immunity"
      conditions (McGrath & Whitney, DAC 1980, §4);
    - [level]: [error] / [warning] / [note] from {!Report.severity};
    - a physical location: the CIF source file and the 1-based
      line/column where the offending statement was parsed (when the
      design came from CIF text; programmatic layouts have no region);
    - a logical location: the fully qualified instance path
      ("TOP.inv[3].contact[0]") from {!Report.instance_path}, which is
      how the paper names a fault site in a hierarchical design.

    Output is deterministic for a given report: rules are sorted by id,
    results keep report order, and no timestamps are embedded.

    Both functions write the whole document into one [Buffer.t]: every
    field is appended in place, strings escaped as they are appended
    ({!Json.add_quoted}), with no [Printf] or string concatenation per
    field.  The document is returned as one string. *)

(** [of_report ~uri report] renders a complete SARIF 2.1.0 document
    (one [run]).  [uri] is the artifact URI recorded for physical
    locations — pass the CIF input path; defaults to ["design.cif"].
    [tool_version] defaults to {!Version.version}.  [suppressed] are
    waived diagnostics (deck [# lint: allow] comments, design [4L]
    commands): each is emitted as a result carrying
    [suppressions:[{kind:"inSource"}]], after the live results, and its
    rule id joins the run's rule table.  Without waivers the bytes are
    exactly the historical document. *)
val of_report :
  ?uri:string -> ?tool_version:string -> ?suppressed:Report.violation list ->
  Report.t -> string

(** [of_reports [(label, deck_rules, report); ...]] renders a
    multi-deck check as one SARIF log with {e one [run] per deck}.
    Each run carries [automationDetails.id = label] so viewers keep the
    decks apart, and every rule whose parameter comes from a rules-file
    key the deck defines in text gets
    [properties.deckKey]/[properties.deckLine] pointing at the defining
    line in {e that} deck (via {!Tech.Rules.position}).  Run order is
    deck order; within a run, bytes follow the same deterministic
    layout as {!of_report}.

    [suppressed] maps a deck label to that deck's waived diagnostics,
    rendered per-run as in {!of_report} (labels are unique after
    {!Engine.dedupe_labels}).  [relations] are the cross-deck
    subsumption verdict lines ({!Deckcheck.relation_lines}); being
    facts about deck {e pairs} they land in the log-level
    [properties.deckRelations] array rather than in any single run. *)
val of_reports :
  ?uri:string -> ?tool_version:string ->
  ?suppressed:(string * Report.violation list) list ->
  ?relations:string list ->
  (string * Tech.Rules.t * Report.t) list -> string
