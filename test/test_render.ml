(* Tests for the renderers on the verdict path: the report line
   writer, the merged view, the SARIF document writer, the ERC messages
   and the shared JSON escaper must give exactly the bytes of the
   Format/Printf printers they replaced.  Those printers are kept here
   verbatim as the oracle, and both sides run on seeded violation sets
   that reach every optional field, negative coordinates, control
   bytes and UTF-8, lines past the 78-column margin, empty reports,
   waived results and deck sets.  The last cases hold [Engine.report_text]
   and [Engine.sarif], which [dicheck check] and [dicheck serve] both
   render through, to what serve printed before. *)

(* ------------------------------------------------------------------ *)
(* The oracle: the previous printers, verbatim                         *)

module Old_report = struct
  include Dic.Report

  let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

  let pp_violation ppf v =
    Format.fprintf ppf "[%s/%s] %s: %s%s%s%s" (stage_name v.stage)
      (severity_name v.severity) v.rule v.message
      (match v.where with
      | None -> ""
      | Some r -> Format.asprintf " at %a" Geom.Rect.pp r)
      (let p = instance_path v in
       if p = "" then "" else " in " ^ p)
      (match v.loc with
      | None -> ""
      | Some l -> Format.asprintf " (cif %a)" Cif.Loc.pp l)

  let pp ppf t =
    Format.fprintf ppf "@[<v>%a@]"
      (Format.pp_print_list pp_violation)
      (List.rev t.violations)
end

module Old_multireport = struct
  include Dic.Multireport
  module Report = Old_report

  let pp ppf t =
    let labels = Array.of_list (List.map (fun s -> s.ds_label) t.summaries) in
    Format.fprintf ppf "@[<v>%a@]"
      (Format.pp_print_list (fun ppf e ->
           Format.fprintf ppf "%a [decks: %s]" Report.pp_violation e.violation
             (String.concat "," (List.map (fun i -> labels.(i)) e.decks))))
      t.entries

  let pp_summary ppf t =
    Format.fprintf ppf "@[<v>";
    List.iter
      (fun s ->
        Format.fprintf ppf "deck %s: %d error(s), %d warning(s) — %s@," s.ds_label
          s.ds_errors s.ds_warnings
          (if s.ds_errors = 0 then "compliant" else "violating"))
      t.summaries;
    (* Deck-relation verdicts (R015), only ever present for multi-deck
       sessions, so single-deck summary bytes are untouched. *)
    List.iter (fun line -> Format.fprintf ppf "deck relation: %s@," line) t.relations;
    let n = List.length t.summaries in
    (match compliant t with
    | [] -> Format.fprintf ppf "compliant with none of %d deck(s)" n
    | ls when List.length ls = n ->
      Format.fprintf ppf "compliant with all %d deck(s)" n
    | ls ->
      Format.fprintf ppf "compliant with %d of %d deck(s): %s" (List.length ls) n
        (String.concat ", " ls));
    Format.fprintf ppf "@]"
end

module Old_sarif = struct
  module Report = Dic.Report
  module Lint = Dic.Lint
  module Version = Dic.Version

  let schema = "https://json.schemastore.org/sarif-2.1.0.json"

  let level_of_severity = function
    | Report.Error -> "error"
    | Report.Warning -> "warning"
    | Report.Info -> "note"

  let json_escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let str s = "\"" ^ json_escape s ^ "\""

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

  (* The rules-file key a rule id is parameterised by, when there is one:
     [width.NP] reads [width_poly], [spacing.ND] reads [space_diffusion],
     [spacing.ND-NP] reads a directed [space_<a>_<b>] override or
     [space_poly_diffusion].  The mappings mirror
     {!Tech.Rules.min_width} / {!Tech.Rules.same_layer_space}. *)
  let width_key = function
    | Tech.Layer.Diffusion -> "width_diffusion"
    | Tech.Layer.Poly | Tech.Layer.Implant -> "width_poly"
    | Tech.Layer.Metal -> "width_metal"
    | Tech.Layer.Contact | Tech.Layer.Buried | Tech.Layer.Glass -> "contact_size"

  let space_key = function
    | Tech.Layer.Diffusion -> "space_diffusion"
    | Tech.Layer.Poly | Tech.Layer.Implant -> "space_poly"
    | Tech.Layer.Metal | Tech.Layer.Glass -> "space_metal"
    | Tech.Layer.Contact | Tech.Layer.Buried -> "space_contact"

  (* [(key, line)] of the deck entry a rule id came from, when the deck
     was loaded from text and the id maps to a rules-file key. *)
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
      Option.bind (Tech.Layer.of_cif cif) (fun l -> with_pos (width_key l))
    | None -> (
      match strip "spacing." with
      | None -> None
      | Some pair -> (
        match String.index_opt pair '-' with
        | None ->
          Option.bind (Tech.Layer.of_cif pair) (fun l -> with_pos (space_key l))
        | Some i -> (
          let ca = String.sub pair 0 i in
          let cb = String.sub pair (i + 1) (String.length pair - i - 1) in
          match (Tech.Layer.of_cif ca, Tech.Layer.of_cif cb) with
          | Some a, Some b ->
            let directed x y =
              Printf.sprintf "space_%s_%s" (Tech.Rules.layer_name x)
                (Tech.Rules.layer_name y)
            in
            first_pos [ directed a b; directed b a; "space_poly_diffusion" ]
          | _ -> None)))

  let rule_json ?deck_rules (id, _index) =
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
    let deck_props =
      (* Point the rule back at its defining line in this run's deck, so
         a multi-deck SARIF log distinguishes which deck's parameter each
         run is enforcing. *)
      match Option.bind deck_rules (fun r -> deck_position r id) with
      | Some (key, line) ->
        Printf.sprintf ",\"properties\":{\"deckKey\":%s,\"deckLine\":%d}" (str key) line
      | None -> ""
    in
    Printf.sprintf "{\"id\":%s,\"shortDescription\":{\"text\":%s}%s}" (str id)
      (str desc) deck_props

  let region_json (l : Cif.Loc.t) =
    Printf.sprintf "{\"startLine\":%d,\"startColumn\":%d}" l.Cif.Loc.line l.Cif.Loc.col

  let location_json ~uri (v : Report.violation) =
    let physical =
      match v.Report.loc with
      | Some l ->
        Printf.sprintf "\"physicalLocation\":{\"artifactLocation\":{\"uri\":%s},\"region\":%s}"
          (str uri) (region_json l)
      | None ->
        (* No source position (programmatic AST): still name the artifact
           so viewers group results by file. *)
        Printf.sprintf "\"physicalLocation\":{\"artifactLocation\":{\"uri\":%s}}" (str uri)
    in
    let logical =
      Printf.sprintf
        "\"logicalLocations\":[{\"fullyQualifiedName\":%s,\"kind\":\"member\"}]"
        (str (Report.instance_path v))
    in
    Printf.sprintf "{%s,%s}" physical logical

  let result_json ?(suppressed = false) ~uri rules (v : Report.violation) =
    let rule_index = match List.assoc_opt v.Report.rule rules with Some i -> i | None -> -1 in
    let region_props =
      match v.Report.where with
      | None -> ""
      | Some r ->
        (* Layout coordinates ride along as properties: SARIF regions are
           text-based, and [where] is geometry in [context]'s frame. *)
        Printf.sprintf
          ",\"properties\":{\"bboxX0\":%d,\"bboxY0\":%d,\"bboxX1\":%d,\"bboxY1\":%d}"
          (Geom.Rect.x0 r) (Geom.Rect.y0 r) (Geom.Rect.x1 r) (Geom.Rect.y1 r)
    in
    let suppressions =
      (* A waived diagnostic is still a [result] — reviewers see what was
         silenced — but carries an [inSource] suppression (the waiver
         lives in the deck comment or the design's [4L] command), which
         SARIF viewers render as "suppressed" instead of open. *)
      if suppressed then ",\"suppressions\":[{\"kind\":\"inSource\"}]" else ""
    in
    Printf.sprintf
      "{\"ruleId\":%s,\"ruleIndex\":%d,\"level\":%s,\"message\":{\"text\":%s},\"locations\":[%s]%s%s}"
      (str v.Report.rule) rule_index
      (str (level_of_severity v.Report.severity))
      (str v.Report.message)
      (location_json ~uri v) region_props suppressions

  (* One [runs[]] entry.  With neither [automation_id] nor [deck_rules]
     the bytes are exactly the historical single-run body — [of_report]
     output must not change shape. *)
  let add_run buf ?automation_id ?deck_rules ?(suppressed = []) ~uri ~tool_version
      (report : Report.t) =
    let rules = rule_table ~suppressed report in
    let add = Buffer.add_string buf in
    add "{";
    (match automation_id with
    | Some id -> add (Printf.sprintf "\"automationDetails\":{\"id\":%s}," (str id))
    | None -> ());
    add "\"tool\":{\"driver\":{\"name\":\"dicheck\"";
    add (Printf.sprintf ",\"version\":%s" (str tool_version));
    add
      ",\"informationUri\":\"https://doi.org/10.1145/800139.804577\",\"rules\":[";
    List.iteri
      (fun i r ->
        if i > 0 then add ",";
        add (rule_json ?deck_rules r))
      rules;
    add "]}},\"results\":[";
    let live = List.rev report.Report.violations in
    List.iteri
      (fun i v ->
        if i > 0 then add ",";
        add (result_json ~uri rules v))
      live;
    (* Suppressed results follow the live ones, in report order; with no
       waivers the bytes are exactly the historical run body. *)
    List.iteri
      (fun i v ->
        if live <> [] || i > 0 then add ",";
        add (result_json ~suppressed:true ~uri rules v))
      suppressed;
    add "]}"

  let of_report ?(uri = "design.cif") ?(tool_version = Version.version)
      ?(suppressed = []) (report : Report.t) =
    let buf = Buffer.create 4096 in
    let add = Buffer.add_string buf in
    add "{\"$schema\":";
    add (str schema);
    add ",\"version\":\"2.1.0\",\"runs\":[";
    add_run buf ~suppressed ~uri ~tool_version report;
    add "]}";
    Buffer.contents buf

  let of_reports ?(uri = "design.cif") ?(tool_version = Version.version)
      ?(suppressed = []) ?(relations = [])
      (decks : (string * Tech.Rules.t * Report.t) list) =
    let buf = Buffer.create 8192 in
    let add = Buffer.add_string buf in
    add "{\"$schema\":";
    add (str schema);
    add ",\"version\":\"2.1.0\",\"runs\":[";
    List.iteri
      (fun i (label, deck_rules, report) ->
        if i > 0 then add ",";
        let suppressed =
          match List.assoc_opt label suppressed with Some vs -> vs | None -> []
        in
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
          add (str line))
        relations;
      add "]}"
    end;
    add "}";
    Buffer.contents buf
end

module Old_erc = struct
  open Netlist.Erc

  let pp_violation ppf = function
    | Floating_net { net; terminals } ->
      Format.fprintf ppf "net %s has %d device terminal(s); at least two required" net
        terminals
    | Supply_short { net; names } ->
      Format.fprintf ppf "power and ground shorted on net %s (labels: %s)" net
        (String.concat ", " names)
    | Bus_on_supply { net; names } ->
      Format.fprintf ppf "bus connected to a supply on net %s (labels: %s)" net
        (String.concat ", " names)
    | Depletion_on_ground { net; device_path; port } ->
      Format.fprintf ppf "depletion device %s (%s) connected to ground net %s" device_path
        port net
end

module Old_engine = struct
  open Dic.Engine
  module Report = Dic.Report

  let pp_summary ppf r =
    let by sev = Report.count ~severity:sev r.report in
    Format.fprintf ppf "%d error(s), %d warning(s), %d net(s)" (by Report.Error)
      (by Report.Warning)
      (List.length r.netlist.Netlist.Net.nets)
end

module Old_json = struct
  let quote s =
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)

(* Bytes that each take a different path through a printer or the
   escaper: plain text, every escaped character, other control bytes,
   DEL, UTF-8 sequences, and Format's own meta characters. *)
let pieces =
  [| "a"; "Z"; "0"; "42"; " "; "."; ","; "-"; "["; "]"; "\""; "\\"; "\n"; "\r"; "\t";
     "\b"; "\012"; "\000"; "\001"; "\027"; "\031"; "\127"; "\xc3\xa9"; "\xe2\x80\x94";
     "\xce\xbb"; "\xf0\x9f\x94\xa5"; "@"; "%"; "@["; "@,"; "%d"; "word "; "long text " |]

let gen_string st max_pieces =
  String.concat ""
    (List.init (Random.State.int st (max_pieces + 1)) (fun _ ->
         pieces.(Random.State.int st (Array.length pieces))))

let pick st a = a.(Random.State.int st (Array.length a))
let maybe st f = if Random.State.bool st then Some (f ()) else None

(* Rule ids the SARIF deck positions resolve (width/spacing keys,
   directed pairs, lint explanations), ids they do not, and ids made
   of escapable bytes. *)
let rule_ids =
  [| "width.NM"; "width.ND"; "width.NP"; "spacing.ND"; "spacing.NM"; "spacing.ND-NP";
     "spacing.NP-ND"; "spacing.ND-NM"; "spacing.NM-ND"; "spacing.NM-NX"; "lint.D003"; "lint.R001"; "lint.R999";
     "erc.floating-net"; "device.gate-overhang"; "nodot" |]

let stages =
  Dic.Report.
    [| Parse_stage; Elements; Devices; Connections; Netlist_gen; Interactions; Integrity;
       Electrical |]

let severities = Dic.Report.[| Error; Warning; Info |]

let gen_violation st : Dic.Report.violation =
  let coord () = Random.State.int st 2_000_001 - 1_000_000 in
  { Dic.Report.stage = pick st stages;
    rule = (if Random.State.int st 4 = 0 then gen_string st 4 else pick st rule_ids);
    severity = pick st severities;
    where =
      maybe st (fun () ->
          let x0 = coord () and y0 = coord () in
          Geom.Rect.make x0 y0 (x0 + Random.State.int st 5000) (y0 + Random.State.int st 5000));
    context = (if Random.State.int st 4 = 0 then "" else gen_string st 6);
    path =
      (match Random.State.int st 3 with
      | 0 -> None
      | 1 -> Some ""
      | _ -> Some (gen_string st 12));
    loc =
      maybe st (fun () ->
          Cif.Loc.make ~line:(Random.State.int st 100_000) ~col:(Random.State.int st 300));
    message = gen_string st 40 }

let gen_report st ~max pool =
  { Dic.Report.violations = List.init (Random.State.int st (max + 1)) (fun _ -> pick st pool) }

let gen_pool st = Array.init (1 + Random.State.int st 24) (fun _ -> gen_violation st)

(* A deck loaded from text, so its keys carry line positions. *)
let gen_deck st i =
  let keys =
    List.filter
      (fun _ -> Random.State.bool st)
      [ "width_metal 400"; "width_diffusion 200"; "space_diffusion 300"; "space_metal 300";
        "space_poly_diffusion 150"; "space_diffusion_metal 250"; "space_metal_diffusion 350" ]
  in
  let text = String.concat "\n" (("name d" ^ string_of_int i) :: "lambda 100" :: keys) ^ "\n" in
  match Tech.Rules.of_string text with
  | Ok r -> r
  | Error e -> Alcotest.failf "deck %S: %s" text e

let trials = 400

(* The seeded sets must reach what they are here to cover: each needle
   appears in at least one rendered document. *)
let covers name docs needles =
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (name ^ " reaches " ^ String.escaped needle)
        true
        (List.exists (fun d -> Astring_contains.contains d needle) docs))
    needles

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let asprintf_nl pp x = Format.asprintf "%a@." pp x
let buffered add x =
  let buf = Buffer.create 16 in
  add buf x;
  Buffer.contents buf

let test_report_lines () =
  let st = Random.State.make [| 19 |] in
  let docs = ref [] in
  for _ = 1 to trials do
    let r = gen_report st ~max:30 (gen_pool st) in
    let text = asprintf_nl Dic.Report.pp r in
    docs := text :: !docs;
    Alcotest.(check string) "pp" (asprintf_nl Old_report.pp r) text;
    Alcotest.(check string) "add_lines"
      (Format.asprintf "%a" Old_report.pp r)
      (buffered Dic.Report.add_lines r);
    List.iter
      (fun v ->
        Alcotest.(check string) "pp_violation"
          (Format.asprintf "%a" Old_report.pp_violation v)
          (Format.asprintf "%a" Dic.Report.pp_violation v))
      r.Dic.Report.violations
  done;
  covers "reports" !docs
    [ " at [-"; ",-"; " in "; " (cif "; "\"\\"; "\t"; "\b"; "\012"; "\r"; "\xe2\x80\x94"; "@[" ];
  Alcotest.(check bool) "reports reach past the margin" true
    (List.exists
       (fun d -> List.exists (fun l -> String.length l > 78) (String.split_on_char '\n' d))
       !docs);
  Alcotest.(check string) "empty report" (asprintf_nl Old_report.pp Dic.Report.empty)
    (asprintf_nl Dic.Report.pp Dic.Report.empty)

(* Deck reports drawn from one pool, so violations recur across decks
   and the membership vectors have several entries. *)
let gen_merged st =
  let pool = gen_pool st in
  let decks =
    List.init (1 + Random.State.int st 3) (fun i ->
        (gen_string st 3 ^ string_of_int i, gen_report st ~max:12 pool))
  in
  let relations = List.init (Random.State.int st 3) (fun _ -> gen_string st 8) in
  Dic.Multireport.make ~relations decks

let test_merged_view () =
  let st = Random.State.make [| 1919 |] in
  for _ = 1 to trials do
    let m = gen_merged st in
    Alcotest.(check string) "pp" (asprintf_nl Old_multireport.pp m)
      (asprintf_nl Dic.Multireport.pp m);
    Alcotest.(check string) "pp_summary"
      (asprintf_nl Old_multireport.pp_summary m)
      (asprintf_nl Dic.Multireport.pp_summary m);
    Alcotest.(check string) "add_summary"
      (Format.asprintf "%a" Old_multireport.pp_summary m)
      (buffered Dic.Multireport.add_summary m)
  done

let test_sarif_report () =
  let st = Random.State.make [| 7 |] in
  let docs = ref [] in
  for _ = 1 to trials do
    let pool = gen_pool st in
    let r = gen_report st ~max:20 pool in
    let suppressed = (gen_report st ~max:3 pool).Dic.Report.violations in
    let uri = gen_string st 6 and tool_version = gen_string st 3 in
    let doc = Dic.Sarif.of_report ~uri ~tool_version ~suppressed r in
    docs := doc :: !docs;
    Alcotest.(check string) "of_report"
      (Old_sarif.of_report ~uri ~tool_version ~suppressed r)
      doc;
    Alcotest.(check string) "of_report, defaults" (Old_sarif.of_report r)
      (Dic.Sarif.of_report r)
  done;
  covers "SARIF documents" !docs
    [ "\"suppressions\""; "\"region\""; "\"bboxX0\":-"; "\\u0008";
      "\\u000c"; "\\u001f"; "\\\""; "\\\\"; "\\n"; "\\r"; "\\t"; "\x7f"; "\xce\xbb";
      "\"lint.D003\",\"shortDescription\":{\"text\":\"A symbol" ];
  Alcotest.(check string) "empty report" (Old_sarif.of_report Dic.Report.empty)
    (Dic.Sarif.of_report Dic.Report.empty)

let test_sarif_decks () =
  let st = Random.State.make [| 77 |] in
  let docs = ref [] in
  for _ = 1 to trials do
    let pool = gen_pool st in
    let decks =
      List.init (1 + Random.State.int st 3) (fun i ->
          (gen_string st 3 ^ string_of_int i, gen_deck st i, gen_report st ~max:12 pool))
    in
    let suppressed =
      List.filter_map
        (fun (label, _, _) ->
          maybe st (fun () -> (label, (gen_report st ~max:3 pool).Dic.Report.violations)))
        decks
    in
    let relations = List.init (Random.State.int st 3) (fun _ -> gen_string st 8) in
    let uri = gen_string st 6 in
    let doc = Dic.Sarif.of_reports ~uri ~suppressed ~relations decks in
    docs := doc :: !docs;
    Alcotest.(check string) "of_reports"
      (Old_sarif.of_reports ~uri ~suppressed ~relations decks)
      doc
  done;
  covers "deck-set SARIF documents" !docs
    [ "\"automationDetails\""; "\"deckKey\":\"width_metal\""; "\"deckKey\":\"space_diffusion_metal\"";
      "\"deckKey\":\"space_metal_diffusion\""; "\"deckKey\":\"space_poly_diffusion\"";
      "\"deckLine\":"; "\"deckRelations\""; "\"suppressions\"" ]

let test_erc_messages () =
  let st = Random.State.make [| 4 |] in
  let names () = List.init (Random.State.int st 4) (fun _ -> gen_string st 4) in
  for _ = 1 to trials do
    let net = gen_string st 6 in
    List.iter
      (fun v ->
        Alcotest.(check string) "message"
          (Format.asprintf "%a" Old_erc.pp_violation v)
          (Netlist.Erc.message v))
      Netlist.Erc.
        [ Floating_net { net; terminals = Random.State.int st 5 };
          Supply_short { net; names = names () };
          Bus_on_supply { net; names = names () };
          Depletion_on_ground
            { net; device_path = gen_string st 6; port = gen_string st 2 } ]
  done

(* Sarif, Metrics and Trace each carried this escaper. *)
let old_json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let test_json_escaper () =
  let all_bytes = String.init 256 Char.chr in
  let st = Random.State.make [| 11 |] in
  List.iter
    (fun s ->
      Alcotest.(check string) "add_quoted" ("\"" ^ old_json_escape s ^ "\"")
        (buffered Dic.Json.add_quoted s);
      Alcotest.(check string) "quote" (Old_json.quote s) (Dic.Json.quote s))
    ("" :: all_bytes :: List.init trials (fun _ -> gen_string st 20))

(* ------------------------------------------------------------------ *)
(* The shared renderings of a real check                               *)

(* An uncalled definition (lint D003, waived by the design's [4L]) and
   a called one, each holding one metal box. *)
let waiver_design =
  "4L D003;\nDS 1;\nL NM;\nB 400 400 200 200;\nDF;\nDS 2;\nL NM;\nB 400 400 200 200;\nDF;\nC 2;\nE\n"

let check_multi decks =
  let e = Dic.Engine.create ~decks (List.hd decks).Dic.Engine.dk_rules in
  let e = Dic.Engine.with_lint e true in
  match Dic.Engine.check_string e waiver_design with
  | Ok m -> m
  | Error msg -> Alcotest.fail msg

let suppressed_of (dr : Dic.Engine.deck_result) =
  Dic.Lint.to_violations dr.Dic.Engine.dr_suppressed

let test_engine_one_deck () =
  let m = check_multi [ Dic.Engine.deck (Tech.Rules.nmos ()) ] in
  let result, _ = Dic.Engine.primary m in
  let dr = List.hd m.Dic.Engine.results in
  Alcotest.(check bool) "the design has a waived result" true (suppressed_of dr <> []);
  Alcotest.(check string) "report_text"
    (asprintf_nl Old_report.pp result.Dic.Engine.report
    ^ asprintf_nl Old_engine.pp_summary result)
    (Dic.Engine.report_text m);
  Alcotest.(check string) "sarif"
    (Old_sarif.of_report ~uri:"w.cif" ~suppressed:(suppressed_of dr)
       result.Dic.Engine.report)
    (Dic.Engine.sarif ~set:false ~uri:"w.cif" m)

let test_engine_deck_set () =
  let strict =
    match Tech.Rules.of_string "name strict\nlambda 100\nwidth_metal 400\n" with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let m =
    check_multi
      [ Dic.Engine.deck ~label:"base" (Tech.Rules.nmos ());
        Dic.Engine.deck ~label:"strict" strict ]
  in
  let merged = Dic.Engine.merged m in
  Alcotest.(check bool) "the decks have a relation" true (m.Dic.Engine.relations <> []);
  Alcotest.(check string) "report_text"
    (asprintf_nl Old_multireport.pp merged ^ asprintf_nl Old_multireport.pp_summary merged)
    (Dic.Engine.report_text ~merged m);
  Alcotest.(check string) "sarif"
    (Old_sarif.of_reports ~uri:"w.cif"
       ~suppressed:
         (List.map
            (fun (dr : Dic.Engine.deck_result) ->
              (dr.Dic.Engine.dr_deck.Dic.Engine.dk_label, suppressed_of dr))
            m.Dic.Engine.results)
       ~relations:merged.Dic.Multireport.relations
       (List.map
          (fun (dr : Dic.Engine.deck_result) ->
            ( dr.Dic.Engine.dr_deck.Dic.Engine.dk_label,
              dr.Dic.Engine.dr_deck.Dic.Engine.dk_rules,
              dr.Dic.Engine.dr_result.Dic.Engine.report ))
          m.Dic.Engine.results))
    (Dic.Engine.sarif ~set:true ~uri:"w.cif" m)

let () =
  Alcotest.run "render"
    [ ( "oracle",
        [ Alcotest.test_case "report lines" `Quick test_report_lines;
          Alcotest.test_case "merged view" `Quick test_merged_view;
          Alcotest.test_case "sarif, one report" `Quick test_sarif_report;
          Alcotest.test_case "sarif, deck set" `Quick test_sarif_decks;
          Alcotest.test_case "erc messages" `Quick test_erc_messages;
          Alcotest.test_case "json escaper" `Quick test_json_escaper ] );
      ( "engine",
        [ Alcotest.test_case "one deck" `Quick test_engine_one_deck;
          Alcotest.test_case "deck set" `Quick test_engine_deck_set ] ) ]
