(* SARIF 2.1.0 emission, by hand: every field is appended to one
   document buffer, strings escaped in place by {!Json.add_quoted}.

   The output is deterministic: rules are sorted by id, results keep
   report order, and no timestamps or absolute paths are embedded, so
   equal reports render to equal documents (the golden test relies on
   this). *)

let schema = "https://json.schemastore.org/sarif-2.1.0.json"

let level_of_severity = function
  | Report.Error -> "error"
  | Report.Warning -> "warning"
  | Report.Info -> "note"

let add_int buf n = Buffer.add_string buf (string_of_int n)

(* The distinct rule ids of the report (and of any suppressed results
   riding along), sorted, with their index in the emitted [rules] array
   (results reference rules by id + index). *)
let rule_table ~suppressed (report : Report.t) =
  let ids =
    List.fold_left
      (fun acc (v : Report.violation) ->
        if List.mem v.Report.rule acc then acc else v.Report.rule :: acc)
      [] (report.Report.violations @ suppressed)
    |> List.sort String.compare
  in
  List.mapi (fun i id -> (id, i)) ids

(* [(key, line)] of the deck entry a rule id came from, when the deck
   was loaded from text and the id maps to a rules-file key:
   [width.NP] reads [width_poly], [spacing.ND] reads [space_diffusion],
   [spacing.ND-NP] reads a directed [space_<a>_<b>] override or
   [space_poly_diffusion]. *)
let deck_position deck_rules id =
  let strip p =
    let n = String.length p in
    if String.length id > n && String.sub id 0 n = p then
      Some (String.sub id n (String.length id - n))
    else None
  in
  let with_pos key =
    Option.map (fun line -> (key, line)) (Tech.Rules.position deck_rules key)
  in
  let first_pos keys = List.find_map with_pos keys in
  match strip "width." with
  | Some cif ->
    Option.bind (Tech.Layer.of_cif cif) (fun l -> with_pos (Tech.Rules.width_key l))
  | None -> (
    match strip "spacing." with
    | None -> None
    | Some pair -> (
      match String.index_opt pair '-' with
      | None ->
        Option.bind (Tech.Layer.of_cif pair) (fun l -> with_pos (Tech.Rules.space_key l))
      | Some i -> (
        let ca = String.sub pair 0 i in
        let cb = String.sub pair (i + 1) (String.length pair - i - 1) in
        match (Tech.Layer.of_cif ca, Tech.Layer.of_cif cb) with
        | Some a, Some b ->
          first_pos
            [ Tech.Rules.pair_key_name (a, b); Tech.Rules.pair_key_name (b, a);
              "space_poly_diffusion" ]
        | _ -> None)))

let add_rule buf ?deck_rules (id, _index) =
  (* Lint rules carry their stable-code explanation; for everything
     else the rule family (prefix before the first dot) doubles as a
     short description, the full semantics living in the stage docs. *)
  let lint_explanation =
    if String.length id > 5 && String.sub id 0 5 = "lint." then
      Lint.explain (String.sub id 5 (String.length id - 5))
    else None
  in
  let desc =
    match lint_explanation with
    | Some text -> text
    | None ->
      let family = match String.index_opt id '.' with
        | Some i -> String.sub id 0 i
        | None -> id
      in
      family ^ " rule " ^ id
  in
  let add = Buffer.add_string buf in
  add "{\"id\":";
  Json.add_quoted buf id;
  add ",\"shortDescription\":{\"text\":";
  Json.add_quoted buf desc;
  add "}";
  (* Point the rule back at its defining line in this run's deck, so
     a multi-deck SARIF log distinguishes which deck's parameter each
     run is enforcing. *)
  (match Option.bind deck_rules (fun r -> deck_position r id) with
  | Some (key, line) ->
    add ",\"properties\":{\"deckKey\":";
    Json.add_quoted buf key;
    add ",\"deckLine\":";
    add_int buf line;
    add "}"
  | None -> ());
  add "}"

let add_result buf ~suppressed ~uri rules (v : Report.violation) =
  let add = Buffer.add_string buf in
  add "{\"ruleId\":";
  Json.add_quoted buf v.Report.rule;
  add ",\"ruleIndex\":";
  add_int buf (match List.assoc_opt v.Report.rule rules with Some i -> i | None -> -1);
  add ",\"level\":\"";
  add (level_of_severity v.Report.severity);
  add "\",\"message\":{\"text\":";
  Json.add_quoted buf v.Report.message;
  add "},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":";
  Json.add_quoted buf uri;
  add "}";
  (* Without a source position (programmatic AST) the location still
     names the artifact, so viewers group results by file. *)
  (match v.Report.loc with
  | Some l ->
    add ",\"region\":{\"startLine\":";
    add_int buf l.Cif.Loc.line;
    add ",\"startColumn\":";
    add_int buf l.Cif.Loc.col;
    add "}"
  | None -> ());
  add "},\"logicalLocations\":[{\"fullyQualifiedName\":";
  Json.add_quoted buf (Report.instance_path v);
  add ",\"kind\":\"member\"}]}]";
  (match v.Report.where with
  | None -> ()
  | Some r ->
    (* Layout coordinates ride along as properties: SARIF regions are
       text-based, and [where] is geometry in [context]'s frame. *)
    add ",\"properties\":{\"bboxX0\":";
    add_int buf (Geom.Rect.x0 r);
    add ",\"bboxY0\":";
    add_int buf (Geom.Rect.y0 r);
    add ",\"bboxX1\":";
    add_int buf (Geom.Rect.x1 r);
    add ",\"bboxY1\":";
    add_int buf (Geom.Rect.y1 r);
    add "}");
  (* A waived diagnostic is still a [result] — reviewers see what was
     silenced — but carries an [inSource] suppression (the waiver
     lives in the deck comment or the design's [4L] command), which
     SARIF viewers render as "suppressed" instead of open. *)
  if suppressed then add ",\"suppressions\":[{\"kind\":\"inSource\"}]";
  add "}"

(* One [runs[]] entry.  With neither [automation_id] nor [deck_rules]
   the bytes are exactly the historical single-run body — [of_report]
   output must not change shape. *)
let add_run buf ?automation_id ?deck_rules ?(suppressed = []) ~uri ~tool_version
    (report : Report.t) =
  let rules = rule_table ~suppressed report in
  let add = Buffer.add_string buf in
  add "{";
  (match automation_id with
  | Some id ->
    add "\"automationDetails\":{\"id\":";
    Json.add_quoted buf id;
    add "},"
  | None -> ());
  add "\"tool\":{\"driver\":{\"name\":\"dicheck\",\"version\":";
  Json.add_quoted buf tool_version;
  add
    ",\"informationUri\":\"https://doi.org/10.1145/800139.804577\",\"rules\":[";
  List.iteri
    (fun i r ->
      if i > 0 then add ",";
      add_rule buf ?deck_rules r)
    rules;
  add "]}},\"results\":[";
  let live = List.rev report.Report.violations in
  List.iteri
    (fun i v ->
      if i > 0 then add ",";
      add_result buf ~suppressed:false ~uri rules v)
    live;
  (* Suppressed results follow the live ones, in report order; with no
     waivers the bytes are exactly the historical run body. *)
  List.iteri
    (fun i v ->
      if live <> [] || i > 0 then add ",";
      add_result buf ~suppressed:true ~uri rules v)
    suppressed;
  add "]}"

let add_header buf =
  Buffer.add_string buf "{\"$schema\":";
  Json.add_quoted buf schema;
  Buffer.add_string buf ",\"version\":\"2.1.0\",\"runs\":["

let of_report ?(uri = "design.cif") ?(tool_version = Version.version)
    ?(suppressed = []) (report : Report.t) =
  let buf = Buffer.create 4096 in
  add_header buf;
  add_run buf ~suppressed ~uri ~tool_version report;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let of_reports ?(uri = "design.cif") ?(uris = []) ?(tool_version = Version.version)
    ?(suppressed = []) ?(relations = [])
    (decks : (string * Tech.Rules.t * Report.t) list) =
  let buf = Buffer.create 8192 in
  let add = Buffer.add_string buf in
  add_header buf;
  List.iteri
    (fun i (label, deck_rules, report) ->
      if i > 0 then add ",";
      let suppressed =
        match List.assoc_opt label suppressed with Some vs -> vs | None -> []
      in
      let uri = Option.value ~default:uri (List.assoc_opt label uris) in
      add_run buf ~automation_id:label ~deck_rules ~suppressed ~uri ~tool_version
        report)
    decks;
  add "]";
  (* Deck-subsumption verdicts (R015) are cross-run facts, so they live
     in the log's properties bag, not in any single run's results. *)
  if relations <> [] then begin
    add ",\"properties\":{\"deckRelations\":[";
    List.iteri
      (fun i line ->
        if i > 0 then add ",";
        Json.add_quoted buf line)
      relations;
    add "]}"
  end;
  add "}";
  Buffer.contents buf
