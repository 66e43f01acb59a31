(* Trace: span recording and Chrome-trace export; SARIF: structure and
   source provenance; provenance plumbing on Report. *)

let rules = Tech.Rules.nmos ()
let lambda = rules.Tech.Rules.lambda

module Json = Tjson

let run_ok ?config ?trace src =
  match Result.map Dic.Engine.primary @@ Dic.Engine.check_string ?trace (Dic.Engine.create ?config rules) src with
  | Ok (r, _) -> r
  | Error e -> Alcotest.fail e

let with_jobs jobs =
  { Dic.Engine.default_config with
    Dic.Engine.interactions =
      { Dic.Interactions.default_config with Dic.Interactions.jobs } }

(* A pathology with a known violation, as CIF *text*, so the parser
   assigns real line/column positions. *)
let fig8_src () =
  Cif.Print.to_string (Layoutgen.Pathology.fig8_accidental ~lambda).Layoutgen.Pathology.file

(* ------------------------------------------------------------------ *)
(* Trace recording                                                     *)

let test_with_span_records () =
  let t = Dic.Trace.create () in
  let v = Dic.Trace.with_span (Some t) ~cat:"test" "outer" (fun () ->
      Dic.Trace.with_span (Some t) ~cat:"test" "inner" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "body result" 42 v;
  Alcotest.(check int) "two spans" 2 (Dic.Trace.length t);
  (* with_span records at exit: the inner span is listed first. *)
  (match Dic.Trace.events t with
  | [ a; b ] ->
    Alcotest.(check string) "inner first" "inner" a.Dic.Trace.e_name;
    Alcotest.(check string) "outer second" "outer" b.Dic.Trace.e_name
  | _ -> Alcotest.fail "expected exactly two events");
  Alcotest.(check int) "None records nothing" 7
    (Dic.Trace.with_span None "ignored" (fun () -> 7))

let test_with_span_on_raise () =
  let t = Dic.Trace.create () in
  (try
     Dic.Trace.with_span (Some t) "failing" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1 (Dic.Trace.length t)

let test_merge_order () =
  let a = Dic.Trace.create ~tid:0 () and b = Dic.Trace.create ~tid:1 () in
  Dic.Trace.record a "a0" ~ts_ns:5L ~dur_ns:1L;
  Dic.Trace.record b "b0" ~ts_ns:1L ~dur_ns:1L;
  Dic.Trace.record b "b1" ~ts_ns:2L ~dur_ns:1L;
  Dic.Trace.merge_into ~into:a b;
  Alcotest.(check (list string)) "append order, not time order"
    [ "a0"; "b0"; "b1" ]
    (List.map (fun e -> e.Dic.Trace.e_name) (Dic.Trace.events a));
  Alcotest.(check (list int)) "tids preserved" [ 0; 1; 1 ]
    (List.map (fun e -> e.Dic.Trace.e_tid) (Dic.Trace.events a))

(* Any two complete spans on one lane must be disjoint or nested —
   the stack discipline of with_span, checked on a real run. *)
let test_nesting_well_formed () =
  let trace = Dic.Trace.create () in
  let _ = run_ok ~config:(with_jobs 1) ~trace (fig8_src ()) in
  let spans =
    List.filter (fun e -> e.Dic.Trace.e_ph = `Complete) (Dic.Trace.events trace)
  in
  Alcotest.(check bool) "several spans" true (List.length spans > 3);
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j && a.Dic.Trace.e_tid = b.Dic.Trace.e_tid then begin
            let a0 = a.Dic.Trace.e_ts_ns
            and a1 = Int64.add a.Dic.Trace.e_ts_ns a.Dic.Trace.e_dur_ns
            and b0 = b.Dic.Trace.e_ts_ns
            and b1 = Int64.add b.Dic.Trace.e_ts_ns b.Dic.Trace.e_dur_ns in
            let disjoint = a1 <= b0 || b1 <= a0 in
            let nested = (a0 <= b0 && b1 <= a1) || (b0 <= a0 && a1 <= b1) in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s disjoint or nested" a.Dic.Trace.e_name
                 b.Dic.Trace.e_name)
              true (disjoint || nested)
          end)
        spans)
    spans

let stage_names trace =
  List.filter_map
    (fun e ->
      if e.Dic.Trace.e_cat = "stage" then Some e.Dic.Trace.e_name else None)
    (Dic.Trace.events trace)

let shard_names trace =
  List.filter_map
    (fun e ->
      if e.Dic.Trace.e_cat = "shard" then Some e.Dic.Trace.e_name else None)
    (Dic.Trace.events trace)

(* The interaction sweep is the check's only fan-out: at every jobs
   value a single-deck check records exactly one shard[0] span, and it
   belongs to the interaction stage; further shards, when there are
   any, are numbered on from it. *)
let check_one_sweep label trace =
  let shards =
    List.filter (fun e -> e.Dic.Trace.e_cat = "shard") (Dic.Trace.events trace)
  in
  (match List.filter (fun e -> e.Dic.Trace.e_name = "shard[0]") shards with
  | [ s0 ] ->
    Alcotest.(check (option string)) (label ^ ": shard[0] is the interaction sweep's")
      (Some "interactions") (List.assoc_opt "stage" s0.Dic.Trace.e_args)
  | s -> Alcotest.failf "%s: %d shard[0] spans, expected 1" label (List.length s));
  Alcotest.(check (list string)) (label ^ ": shards numbered from 0")
    (List.init (List.length shards) (Printf.sprintf "shard[%d]"))
    (shard_names trace)

let test_shape_jobs_invariant () =
  let src = fig8_src () in
  let t1 = Dic.Trace.create () in
  let _ = run_ok ~config:(with_jobs 1) ~trace:t1 src in
  let t4 = Dic.Trace.create () in
  let _ = run_ok ~config:(with_jobs 4) ~trace:t4 src in
  Alcotest.(check (list string)) "stage spans identical across jobs"
    (stage_names t1) (stage_names t4);
  check_one_sweep "jobs 1" t1;
  check_one_sweep "jobs 4" t4

(* Same invariant on a workload with several distinct definitions, plus
   the symbol spans of the per-definition stages: their multiset is
   jobs-invariant. *)
let symbol_names trace =
  List.filter_map
    (fun e ->
      if e.Dic.Trace.e_cat = "symbol" then Some e.Dic.Trace.e_name else None)
    (Dic.Trace.events trace)
  |> List.sort String.compare

let test_stage_parallel_shape () =
  let src =
    Cif.Print.to_string (Layoutgen.Pla.tier ~lambda ~rows:4 ~cols:6)
  in
  let t1 = Dic.Trace.create () in
  let _ = run_ok ~config:(with_jobs 1) ~trace:t1 src in
  let t4 = Dic.Trace.create () in
  let _ = run_ok ~config:(with_jobs 4) ~trace:t4 src in
  Alcotest.(check (list string)) "stage spans identical across jobs"
    (stage_names t1) (stage_names t4);
  Alcotest.(check (list string)) "symbol span multiset identical across jobs"
    (symbol_names t1) (symbol_names t4);
  check_one_sweep "jobs 1" t1;
  check_one_sweep "jobs 4" t4

(* The interaction stage's own phases: the certificate build, the plan,
   the certificate guard prepass and the merge after the join each get
   a ["phase"] span that lies inside the stage's span. *)
let test_interaction_phases () =
  let trace = Dic.Trace.create () in
  let src = Cif.Print.to_string (Layoutgen.Pla.tier ~lambda ~rows:4 ~cols:6) in
  let _ = run_ok ~config:(with_jobs 1) ~trace src in
  let events = Dic.Trace.events trace in
  let stage =
    match
      List.filter
        (fun e -> e.Dic.Trace.e_cat = "stage" && e.Dic.Trace.e_name = "interactions")
        events
    with
    | [ s ] -> s
    | _ -> Alcotest.fail "expected one interactions stage span"
  in
  let inside e =
    e.Dic.Trace.e_tid = stage.Dic.Trace.e_tid
    && stage.Dic.Trace.e_ts_ns <= e.Dic.Trace.e_ts_ns
    && Int64.add e.Dic.Trace.e_ts_ns e.Dic.Trace.e_dur_ns
       <= Int64.add stage.Dic.Trace.e_ts_ns stage.Dic.Trace.e_dur_ns
  in
  let phases =
    List.filter_map
      (fun e ->
        if e.Dic.Trace.e_cat = "phase" then begin
          Alcotest.(check bool) (e.Dic.Trace.e_name ^ " inside the stage") true (inside e);
          Some e.Dic.Trace.e_name
        end
        else None)
      events
  in
  let certs = Dic.Deckcheck.enabled () in
  Alcotest.(check (list string)) "certify, plan, guard, merge"
    ((if certs then [ "certify" ] else []) @ [ "plan" ]
    @ (if certs then [ "guard" ] else []) @ [ "merge" ])
    phases

let test_chrome_json_parses () =
  let trace = Dic.Trace.create () in
  let _ = run_ok ~config:(with_jobs 2) ~trace (fig8_src ()) in
  let json = Dic.Trace.to_chrome_json trace in
  let v = try Json.parse json with Json.Bad m -> Alcotest.fail ("bad JSON: " ^ m) in
  (match Json.member "traceEvents" v with
  | Some (Json.Arr events) ->
    Alcotest.(check int) "one JSON event per recorded event"
      (Dic.Trace.length trace) (List.length events);
    List.iter
      (fun e ->
        (match (Json.member "name" e, Json.member "ph" e) with
        | Some (Json.Str _), Some (Json.Str ph) ->
          Alcotest.(check bool) "phase is X or i" true (ph = "X" || ph = "i")
        | _ -> Alcotest.fail "event missing name/ph");
        match Json.member "ts" e with
        | Some (Json.Num ts) ->
          Alcotest.(check bool) "timestamps rebased to >= 0" true (ts >= 0.)
        | _ -> Alcotest.fail "event missing ts")
      events
  | _ -> Alcotest.fail "no traceEvents array");
  match Json.member "otherData" v with
  | Some other -> (
    match Json.member "version" other with
    | Some (Json.Str ver) ->
      Alcotest.(check string) "tool version embedded" Dic.Version.version ver
    | _ -> Alcotest.fail "otherData without version")
  | None -> Alcotest.fail "no otherData"

(* ------------------------------------------------------------------ *)
(* Provenance on Report                                                *)

let test_instance_path () =
  let v =
    Dic.Report.error ~stage:Dic.Report.Interactions ~rule:"spacing.ND"
      ~context:"TOP" ~path:"TOP.inv[3].contact[0]"
      ~loc:(Cif.Loc.make ~line:12 ~col:3) "too close"
  in
  Alcotest.(check string) "explicit path wins" "TOP.inv[3].contact[0]"
    (Dic.Report.instance_path v);
  let local =
    Dic.Report.error ~stage:Dic.Report.Elements ~rule:"width.ND" ~context:"cell"
      "narrow"
  in
  Alcotest.(check string) "context is the default path" "cell"
    (Dic.Report.instance_path local);
  let rendered = Format.asprintf "%a" Dic.Report.pp_violation v in
  Alcotest.(check bool) "pp shows the path" true
    (Astring_contains.contains rendered "TOP.inv[3].contact[0]");
  Alcotest.(check bool) "pp shows the source position" true
    (Astring_contains.contains rendered "12:3")

let test_parse_locations_reach_report () =
  (* The fig8 violation must carry the line/column of the offending CIF
     statement, and that line must actually exist in the source. *)
  let src = fig8_src () in
  let r = run_ok src in
  let errs = Dic.Report.errors r.Dic.Engine.report in
  Alcotest.(check bool) "fig8 has errors" true (errs <> []);
  let with_loc =
    List.filter_map (fun (v : Dic.Report.violation) -> v.Dic.Report.loc) errs
  in
  Alcotest.(check bool) "some error carries a CIF position" true (with_loc <> []);
  let lines = String.split_on_char '\n' src in
  List.iter
    (fun (l : Cif.Loc.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "line %d within source" l.Cif.Loc.line)
        true
        (l.Cif.Loc.line >= 1 && l.Cif.Loc.line <= List.length lines))
    with_loc

(* ------------------------------------------------------------------ *)
(* SARIF                                                               *)

let test_sarif_structure () =
  let src = fig8_src () in
  let r = run_ok src in
  let sarif = Dic.Sarif.of_report ~uri:"fig8.cif" r.Dic.Engine.report in
  let v = try Json.parse sarif with Json.Bad m -> Alcotest.fail ("bad JSON: " ^ m) in
  (match Json.member "version" v with
  | Some (Json.Str ver) -> Alcotest.(check string) "sarif version" "2.1.0" ver
  | _ -> Alcotest.fail "no version");
  let run =
    match Json.member "runs" v with
    | Some (Json.Arr [ run ]) -> run
    | _ -> Alcotest.fail "expected exactly one run"
  in
  (* Driver: name, version, sorted rules. *)
  let driver =
    match Json.member "tool" run with
    | Some tool -> (
      match Json.member "driver" tool with
      | Some d -> d
      | None -> Alcotest.fail "no driver")
    | None -> Alcotest.fail "no tool"
  in
  (match (Json.member "name" driver, Json.member "version" driver) with
  | Some (Json.Str n), Some (Json.Str ver) ->
    Alcotest.(check string) "driver name" "dicheck" n;
    Alcotest.(check string) "driver version" Dic.Version.version ver
  | _ -> Alcotest.fail "driver missing name/version");
  let rule_ids =
    match Json.member "rules" driver with
    | Some (Json.Arr rules) ->
      List.map
        (fun r ->
          match Json.member "id" r with
          | Some (Json.Str id) -> id
          | _ -> Alcotest.fail "rule without id")
        rules
    | _ -> Alcotest.fail "no rules array"
  in
  Alcotest.(check (list string)) "rules sorted by id"
    (List.sort String.compare rule_ids) rule_ids;
  (* Results: every violation appears; the fig8 error carries a region
     and a logical location. *)
  let results =
    match Json.member "results" run with
    | Some (Json.Arr rs) -> rs
    | _ -> Alcotest.fail "no results array"
  in
  Alcotest.(check int) "one result per violation"
    (List.length r.Dic.Engine.report.Dic.Report.violations)
    (List.length results);
  let accidental =
    List.find_opt
      (fun res ->
        match Json.member "ruleId" res with
        | Some (Json.Str id) -> id = "integrity.accidental-transistor"
        | _ -> false)
      results
  in
  match accidental with
  | None -> Alcotest.fail "fig8 violation missing from SARIF"
  | Some res -> (
    (match Json.member "level" res with
    | Some (Json.Str lvl) -> Alcotest.(check string) "level" "error" lvl
    | _ -> Alcotest.fail "no level");
    match Json.member "locations" res with
    | Some (Json.Arr [ loc ]) -> (
      (match Json.member "physicalLocation" loc with
      | Some phys -> (
        (match Json.member "artifactLocation" phys with
        | Some art -> (
          match Json.member "uri" art with
          | Some (Json.Str uri) -> Alcotest.(check string) "uri" "fig8.cif" uri
          | _ -> Alcotest.fail "no uri")
        | None -> Alcotest.fail "no artifactLocation");
        match Json.member "region" phys with
        | Some region -> (
          match Json.member "startLine" region with
          | Some (Json.Num line) ->
            Alcotest.(check bool) "startLine positive" true (line >= 1.)
          | _ -> Alcotest.fail "region without startLine")
        | None -> Alcotest.fail "fig8 error lost its CIF region")
      | None -> Alcotest.fail "no physicalLocation");
      match Json.member "logicalLocations" loc with
      | Some (Json.Arr [ logical ]) -> (
        match Json.member "fullyQualifiedName" logical with
        | Some (Json.Str fq) ->
          Alcotest.(check string) "instance path" "TOP" fq
        | _ -> Alcotest.fail "no fullyQualifiedName")
      | _ -> Alcotest.fail "no logicalLocations")
    | _ -> Alcotest.fail "expected one location")

let test_sarif_deterministic () =
  let src = fig8_src () in
  let a = run_ok src and b = run_ok src in
  Alcotest.(check string) "equal reports render identically"
    (Dic.Sarif.of_report ~uri:"x.cif" a.Dic.Engine.report)
    (Dic.Sarif.of_report ~uri:"x.cif" b.Dic.Engine.report)

(* ------------------------------------------------------------------ *)
(* Cost attribution                                                    *)

let test_cost_attribution () =
  let m = Dic.Metrics.create () in
  Dic.Metrics.add_cost_ns m "symbol.a" 10L;
  Dic.Metrics.add_cost_ns m "symbol.b" 30L;
  Dic.Metrics.add_cost_ns m "symbol.a" 5L;
  Alcotest.(check bool) "costs accumulate" true
    (Dic.Metrics.cost_ns m "symbol.a" = 15L);
  Alcotest.(check (list string)) "top order is by descending cost"
    [ "symbol.b"; "symbol.a" ]
    (List.map fst (Dic.Metrics.top_costs m ~n:5));
  Alcotest.(check int) "top-n truncates" 1
    (List.length (Dic.Metrics.top_costs m ~n:1));
  let other = Dic.Metrics.create () in
  Dic.Metrics.add_cost_ns other "symbol.a" 1L;
  Dic.Metrics.merge_into ~into:m other;
  Alcotest.(check bool) "merge adds costs" true
    (Dic.Metrics.cost_ns m "symbol.a" = 16L)

let test_checker_charges_symbols () =
  let r = run_ok (fig8_src ()) in
  let costs = Dic.Metrics.costs r.Dic.Engine.metrics in
  let symbol_costs = List.filter (fun (k, _) -> String.length k > 7 && String.sub k 0 7 = "symbol.") costs in
  Alcotest.(check bool) "per-definition costs recorded" true (symbol_costs <> [])

let () =
  Alcotest.run "trace"
    [ ("spans",
       [ Alcotest.test_case "with_span records" `Quick test_with_span_records;
         Alcotest.test_case "records on raise" `Quick test_with_span_on_raise;
         Alcotest.test_case "merge keeps order" `Quick test_merge_order;
         Alcotest.test_case "nesting well-formed" `Quick test_nesting_well_formed;
         Alcotest.test_case "shape invariant across jobs" `Quick
           test_shape_jobs_invariant;
         Alcotest.test_case "stage-parallel shape invariant" `Quick
           test_stage_parallel_shape;
         Alcotest.test_case "interaction phases" `Quick test_interaction_phases ]);
      ("chrome",
       [ Alcotest.test_case "export parses" `Quick test_chrome_json_parses ]);
      ("provenance",
       [ Alcotest.test_case "instance path" `Quick test_instance_path;
         Alcotest.test_case "parse locations reach report" `Quick
           test_parse_locations_reach_report ]);
      ("sarif",
       [ Alcotest.test_case "structure" `Quick test_sarif_structure;
         Alcotest.test_case "deterministic" `Quick test_sarif_deterministic ]);
      ("costs",
       [ Alcotest.test_case "attribution" `Quick test_cost_attribution;
         Alcotest.test_case "checker charges symbols" `Quick
           test_checker_charges_symbols ]) ]
