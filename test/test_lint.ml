(* Tests for the static lint pass: every stable code fires on a
   minimal fixture, every clean generator stays silent, the lenient
   rule-file lint carries exact line numbers, and the SARIF rendering
   of lint diagnostics is deterministic and parseable. *)

module B = Layoutgen.Builder

let rules = Tech.Rules.nmos ()
let lambda = rules.Tech.Rules.lambda

let codes diags = List.map (fun (d : Dic.Lint.diagnostic) -> d.Dic.Lint.code) diags

let has code diags = List.mem code (codes diags)

let check_fires name code diags =
  Alcotest.(check bool) (name ^ " fires " ^ code) true (has code diags)

let line_of code diags =
  match
    List.find_opt (fun (d : Dic.Lint.diagnostic) -> d.Dic.Lint.code = code) diags
  with
  | Some { Dic.Lint.loc = Some l; _ } -> l.Cif.Loc.line
  | _ -> -1

(* ------------------------------------------------------------------ *)
(* Rule-deck pass: record-level fixtures                               *)

let test_r001_odd_width () =
  check_fires "odd metal width" "R001"
    (Dic.Lint.check_deck { rules with Tech.Rules.width_metal = 301 })

let test_r002_non_positive () =
  let diags = Dic.Lint.check_deck { rules with Tech.Rules.space_metal = 0 } in
  check_fires "zero spacing" "R002" diags;
  (* the <= 0 branch wins: no spurious off-quantum companion *)
  Alcotest.(check bool) "no R003 for the same key" false
    (List.exists
       (fun (d : Dic.Lint.diagnostic) ->
         d.Dic.Lint.code = "R003" && d.Dic.Lint.subject = "space_metal")
       diags)

let test_r003_off_quantum () =
  check_fires "310 with lambda 100" "R003"
    (Dic.Lint.check_deck { rules with Tech.Rules.space_metal = 310 })

let test_r003_silent_when_lambda_not_divisible () =
  (* lambda 110 has no integer lambda/4 quantum: the lint stands down
     rather than flag every value. *)
  let r = Tech.Rules.nmos ~lambda:100 () in
  let diags = Dic.Lint.check_deck { r with Tech.Rules.lambda = 110 } in
  Alcotest.(check bool) "no R003" false (has "R003" diags)

let test_r004_contact_pad () =
  check_fires "surround below metal width" "R004"
    (Dic.Lint.check_deck { rules with Tech.Rules.contact_surround = 20 })

let test_r005_asymmetric_pair () =
  check_fires "diff-poly override disagrees with canonical" "R005"
    (Dic.Lint.check_deck
       { rules with
         Tech.Rules.pair_spaces =
           [ ((Tech.Layer.Diffusion, Tech.Layer.Poly), 150) ] })

let test_r006_unreachable_pair () =
  check_fires "poly-metal is a No-rule cell" "R006"
    (Dic.Lint.check_deck
       { rules with
         Tech.Rules.pair_spaces = [ ((Tech.Layer.Poly, Tech.Layer.Metal), 300) ] })

let test_r007_shadowed_pair () =
  check_fires "space_poly_poly shadows space_poly" "R007"
    (Dic.Lint.check_deck
       { rules with
         Tech.Rules.pair_spaces = [ ((Tech.Layer.Poly, Tech.Layer.Poly), 200) ] })

let test_symmetric_override_is_quiet () =
  (* A symmetric, reachable, on-quantum override is the supported
     extension point and must not lint. *)
  let diags =
    Dic.Lint.check_deck
      { rules with
        Tech.Rules.pair_spaces = [ ((Tech.Layer.Diffusion, Tech.Layer.Poly), 100) ] }
  in
  Alcotest.(check (list string)) "clean" [] (codes diags)

(* ------------------------------------------------------------------ *)
(* Rule-deck pass: file-level fixtures with exact line numbers         *)

let test_r008_unknown_key () =
  let _, diags = Dic.Lint.check_deck_source "name t\nlambda 100\nfrobnicate 3\n" in
  check_fires "unknown key" "R008" diags;
  Alcotest.(check int) "on line 3" 3 (line_of "R008" diags)

let test_r009_duplicate_key () =
  let deck, diags =
    Dic.Lint.check_deck_source "lambda 100\nspace_poly 200\nspace_poly 400\n"
  in
  check_fires "duplicate key" "R009" diags;
  Alcotest.(check int) "on line 3" 3 (line_of "R009" diags);
  (* first definition wins *)
  match deck with
  | Some d -> Alcotest.(check int) "first wins" 200 d.Tech.Rules.space_poly
  | None -> Alcotest.fail "deck should build"

let test_r010_malformed_line () =
  let _, diags = Dic.Lint.check_deck_source "lambda 100\nwidth_metal\n" in
  check_fires "key without value" "R010" diags;
  Alcotest.(check int) "on line 2" 2 (line_of "R010" diags)

let test_r011_bad_value () =
  let _, diags = Dic.Lint.check_deck_source "lambda 100\nwidth_metal abc\n" in
  check_fires "non-integer value" "R011" diags;
  Alcotest.(check int) "on line 2" 2 (line_of "R011" diags)

let test_value_bound () =
  (* Written values above 2^30 are R011; defaults lambda scales past it
     are R002 on the resolved deck. *)
  let _, diags = Dic.Lint.check_deck_source "lambda 100\nspace_metal 3000000000\n" in
  check_fires "written value above 2^30" "R011" diags;
  Alcotest.(check int) "on line 2" 2 (line_of "R011" diags);
  let _, diags = Dic.Lint.check_deck_source "lambda 500000000\n" in
  check_fires "derived value above 2^30" "R002" diags;
  let _, diags = Dic.Lint.check_deck_source "lambda 100\nspace_metal 1073741824\n" in
  Alcotest.(check bool) "2^30 is no R002/R011" false
    (List.exists
       (fun (d : Dic.Lint.diagnostic) -> d.Dic.Lint.code = "R002" || d.Dic.Lint.code = "R011")
       diags)

let test_record_diags_relocated () =
  (* Record-level lints (here R001) are relocated to the defining line
     of the offending key. *)
  let _, diags = Dic.Lint.check_deck_source "lambda 100\nwidth_metal 301\n" in
  check_fires "odd width from source" "R001" diags;
  Alcotest.(check int) "on line 2" 2 (line_of "R001" diags)

let test_broken_demo_deck () =
  (* The shipped fixture trips its documented codes, with errors. *)
  (* cwd is the test dir under `dune runtest`, the root under `dune exec` *)
  let path =
    List.find Sys.file_exists
      [ "../rules/broken-demo.rules"; "rules/broken-demo.rules" ]
  in
  let src = In_channel.with_open_text path In_channel.input_all in
  let _, diags = Dic.Lint.check_deck_source src in
  List.iter
    (fun c -> check_fires "broken-demo" c diags)
    [ "R001"; "R003"; "R004"; "R005"; "R006"; "R009" ];
  Alcotest.(check bool) "has errors" true (Dic.Lint.has_errors diags)

(* ------------------------------------------------------------------ *)
(* Strict loader: line numbers in of_string errors                     *)

let expect_error_line src fragment line =
  match Tech.Rules.of_string src with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg ->
    Alcotest.(check bool) (fragment ^ " in " ^ msg) true
      (Astring_contains.contains msg fragment);
    Alcotest.(check bool)
      (Printf.sprintf "line %d named in %s" line msg)
      true
      (Astring_contains.contains msg (Printf.sprintf "line %d" line))

let test_of_string_line_numbers () =
  expect_error_line "lambda 100\nfrobnicate 3\n" "unknown rule key" 2;
  expect_error_line "lambda 100\nwidth_metal abc\n" "positive integer" 2;
  expect_error_line "lambda 100\n\nwidth_metal\n" "malformed line" 3;
  expect_error_line "lambda 100\nspace_poly 200\nspace_poly 400\n" "duplicate key" 3

(* ------------------------------------------------------------------ *)
(* Design pass: syntax-tree fixtures                                   *)

let file_of ?(top = []) symbols = B.file ~symbols ~top_calls:top ()

let plain_symbol id name =
  B.symbol ~id ~name [ B.box ~layer:"NM" 0 0 (20 * lambda) (4 * lambda) ] []

let test_d001_undefined_call () =
  let f = file_of [ plain_symbol 1 "cell" ] ~top:[ B.call 1; B.call 7 ] in
  check_fires "undefined callee" "D001" (Dic.Lint.check_ast f)

let test_d002_call_cycle () =
  let a = B.symbol ~id:1 ~name:"a" [] [ B.call 2 ] in
  let b = B.symbol ~id:2 ~name:"b" [] [ B.call 1 ] in
  let diags = Dic.Lint.check_ast (file_of [ a; b ] ~top:[ B.call 1 ]) in
  check_fires "two-symbol cycle" "D002" diags;
  (* one report per cycle, not one per member *)
  Alcotest.(check int) "single report" 1
    (List.length (List.filter (fun c -> c = "D002") (codes diags)))

let test_d003_unused_definition () =
  let f = file_of [ plain_symbol 1 "used"; plain_symbol 2 "orphan" ] ~top:[ B.call 1 ] in
  let diags = Dic.Lint.check_ast f in
  check_fires "orphan definition" "D003" diags;
  Alcotest.(check bool) "names the orphan" true
    (List.exists
       (fun (d : Dic.Lint.diagnostic) ->
         d.Dic.Lint.code = "D003" && d.Dic.Lint.subject = "orphan")
       diags)

let test_d003_silent_for_library () =
  (* No top-level calls: the file is a library, nothing is "unused". *)
  let f = file_of [ plain_symbol 1 "a"; plain_symbol 2 "b" ] in
  Alcotest.(check bool) "library quiet" false (has "D003" (Dic.Lint.check_ast f))

let test_d004_duplicate_symbol () =
  let f = file_of [ plain_symbol 1 "first"; plain_symbol 1 "second" ] ~top:[ B.call 1 ] in
  check_fires "two DS 1 blocks" "D004" (Dic.Lint.check_ast f)

let test_d007_coincident_calls () =
  let f =
    file_of [ plain_symbol 1 "cell" ]
      ~top:[ B.call ~at:(0, 0) 1; B.call ~at:(0, 0) 1 ]
  in
  let diags = Dic.Lint.check_ast f in
  check_fires "stacked instances" "D007" diags;
  (* distinct transforms stay quiet *)
  let g =
    file_of [ plain_symbol 1 "cell" ]
      ~top:[ B.call ~at:(0, 0) 1; B.call ~at:(30 * lambda, 0) 1 ]
  in
  Alcotest.(check bool) "translated copy ok" false (has "D007" (Dic.Lint.check_ast g))

let test_d008_transform_overflow () =
  let f = file_of [ plain_symbol 1 "cell" ] ~top:[ B.call ~at:(1 lsl 41, 0) 1 ] in
  check_fires "2^41 translation" "D008" (Dic.Lint.check_ast f)

(* ------------------------------------------------------------------ *)
(* Design pass: elaborated-model fixtures                              *)

let test_d005_skeleton_collapse () =
  let skinny =
    B.symbol ~id:1 ~name:"skinny"
      [ B.wire ~layer:"NM" ~width:lambda [ (0, 0); (40 * lambda, 0) ] ]
      []
  in
  check_fires "lambda-wide metal wire" "D005"
    (Dic.Lint.check_design rules (file_of [ skinny ] ~top:[ B.call 1 ]))

let test_d006_net_reuse_disjoint () =
  let sym =
    B.symbol ~id:1 ~name:"split"
      [ B.box ~layer:"NM" ~net:"n1" 0 0 (10 * lambda) (3 * lambda);
        B.box ~layer:"NM" ~net:"n1" (40 * lambda) 0 (50 * lambda) (3 * lambda) ]
      []
  in
  let diags = Dic.Lint.check_design rules (file_of [ sym ] ~top:[ B.call 1 ]) in
  check_fires "label bridges a gap" "D006" diags;
  (* a global net (trailing !) legitimately merges by name *)
  let glob =
    B.symbol ~id:1 ~name:"split"
      [ B.box ~layer:"NM" ~net:"VDD!" 0 0 (10 * lambda) (3 * lambda);
        B.box ~layer:"NM" ~net:"VDD!" (40 * lambda) 0 (50 * lambda) (3 * lambda) ]
      []
  in
  Alcotest.(check bool) "global net quiet" false
    (has "D006" (Dic.Lint.check_design rules (file_of [ glob ] ~top:[ B.call 1 ])))

let test_d009_device_missing_layers () =
  (* An "enhancement transistor" drawn with poly only: no diffusion. *)
  let bogus =
    B.symbol ~id:1 ~name:"gateless" ~device:"ENH"
      [ B.box ~layer:"NP" 0 0 (2 * lambda) (2 * lambda) ]
      []
  in
  check_fires "transistor without diffusion" "D009"
    (Dic.Lint.check_design rules (file_of [ bogus ] ~top:[ B.call 1 ]))

let test_d009_no_crossing () =
  (* Both layers present but the boxes never overlap: no channel. *)
  let split =
    B.symbol ~id:1 ~name:"split" ~device:"ENH"
      [ B.box ~layer:"NP" 0 0 (2 * lambda) (2 * lambda);
        B.box ~layer:"ND" (10 * lambda) 0 (12 * lambda) (2 * lambda) ]
      []
  in
  let diags = Dic.Lint.check_design rules (file_of [ split ] ~top:[ B.call 1 ]) in
  Alcotest.(check bool) "no-crossing D009" true
    (List.exists
       (fun (d : Dic.Lint.diagnostic) ->
         d.Dic.Lint.code = "D009"
         && Astring_contains.contains d.Dic.Lint.message "crossing")
       diags)

(* ------------------------------------------------------------------ *)
(* Silence on the clean generators                                     *)

let clean_designs () =
  [ ("chain", rules, Layoutgen.Cells.chain ~lambda 4);
    ("grid", rules, Layoutgen.Cells.grid ~lambda ~nx:2 ~ny:2);
    ("grid-blocks", rules, Layoutgen.Cells.grid_blocks ~lambda ~nx:4 ~ny:4);
    ("shift", rules, Layoutgen.Shift.register ~lambda 2);
    ( "pla",
      rules,
      Layoutgen.Pla.plane ~lambda (Layoutgen.Pla.random_program ~rows:3 ~cols:3 ~seed:7) );
    ( "coarse-chain",
      Tech.Rules.nmos ~lambda:200 (),
      Layoutgen.Cells.chain ~lambda:200 4 );
    ( "device-library",
      rules,
      B.file ~symbols:(Layoutgen.Cells.device_symbols ~lambda) ~top_calls:[] () ) ]

let test_clean_designs_lint_clean () =
  List.iter
    (fun (name, r, file) ->
      Alcotest.(check (list string)) name []
        (codes (Dic.Lint.check_design r file)))
    (clean_designs ())

let test_builtin_decks_lint_clean () =
  Alcotest.(check (list string)) "nmos" [] (codes (Dic.Lint.check_deck rules));
  Alcotest.(check (list string)) "nmos coarse" []
    (codes (Dic.Lint.check_deck (Tech.Rules.nmos ~lambda:200 ())))

(* ------------------------------------------------------------------ *)
(* Ordering, rendering, SARIF                                          *)

let test_sort_deterministic () =
  let diags =
    Dic.Lint.check_deck
      { rules with
        Tech.Rules.width_metal = 301;
        Tech.Rules.contact_surround = 20;
        Tech.Rules.pair_spaces = [ ((Tech.Layer.Poly, Tech.Layer.Metal), 300) ] }
  in
  Alcotest.(check (list string)) "stable order" (codes diags)
    (codes (Dic.Lint.sort (List.rev diags)))

let test_explain_total () =
  (* every advertised code explains itself, and the fixture codes all
     exist in the table *)
  List.iter
    (fun (code, _) ->
      Alcotest.(check bool) code true (Dic.Lint.explain code <> None))
    Dic.Lint.all_codes;
  Alcotest.(check int) "twenty-four codes" 24 (List.length Dic.Lint.all_codes);
  Alcotest.(check bool) "unknown is None" true (Dic.Lint.explain "R999" = None)

let lint_report () =
  let _, deck_diags =
    Dic.Lint.check_deck_source "lambda 100\nwidth_metal 301\nspace_poly 200\nspace_poly 400\n"
  in
  let f = file_of [ plain_symbol 1 "cell" ] ~top:[ B.call 1; B.call 7 ] in
  let all = Dic.Lint.sort (deck_diags @ Dic.Lint.check_ast f) in
  (* Sarif emits [List.rev violations] (reports accumulate reversed) *)
  { Dic.Report.violations = List.rev (Dic.Lint.to_violations all) }

let test_sarif_deterministic_and_parses () =
  let doc1 = Dic.Sarif.of_report ~uri:"fixture.cif" (lint_report ()) in
  let doc2 = Dic.Sarif.of_report ~uri:"fixture.cif" (lint_report ()) in
  Alcotest.(check string) "two renders agree" doc1 doc2;
  let json = Tjson.parse doc1 in
  let jstr = function Some (Tjson.Str s) -> s | _ -> "" in
  let runs =
    match Tjson.member "runs" json with
    | Some (Tjson.Arr [ r ]) -> r
    | _ -> Alcotest.fail "runs"
  in
  let rules_json =
    match
      Option.bind (Tjson.member "tool" runs) (fun t ->
          Option.bind (Tjson.member "driver" t) (Tjson.member "rules"))
    with
    | Some (Tjson.Arr rs) -> rs
    | _ -> Alcotest.fail "rules array"
  in
  (* every SARIF rule is a lint.* id carrying the --explain text *)
  List.iter
    (fun r ->
      let id = jstr (Tjson.member "id" r) in
      Alcotest.(check bool) ("lint prefix on " ^ id) true
        (String.length id > 5 && String.sub id 0 5 = "lint.");
      let code = String.sub id 5 (String.length id - 5) in
      let desc =
        jstr (Option.bind (Tjson.member "shortDescription" r) (Tjson.member "text"))
      in
      Alcotest.(check (option string)) ("explain " ^ code) (Dic.Lint.explain code)
        (Some desc))
    rules_json;
  let results =
    match Tjson.member "results" runs with
    | Some (Tjson.Arr rs) -> rs
    | _ -> Alcotest.fail "results"
  in
  Alcotest.(check bool) "has results" true (results <> [])

let test_render_and_metrics () =
  let d =
    { Dic.Lint.code = "R001"; severity = Dic.Lint.Error; message = "msg";
      loc = Some (Cif.Loc.make ~line:4 ~col:1); subject = "width_metal" }
  in
  Alcotest.(check string) "render with loc" "deck.rules:4:1: R001 error: msg [width_metal]"
    (Dic.Lint.render ~src:"deck.rules" d);
  let m = Dic.Metrics.create () in
  Dic.Lint.record_metrics m [ d; { d with Dic.Lint.severity = Dic.Lint.Warning } ];
  let get k = Dic.Metrics.counter m k in
  Alcotest.(check int) "total" 2 (get "lint.diagnostics");
  Alcotest.(check int) "errors" 1 (get "lint.errors");
  Alcotest.(check int) "warnings" 1 (get "lint.warnings");
  Alcotest.(check int) "per-code" 2 (get "lint.code.R001")

let test_engine_lint_flag () =
  (* run_lint=false (default) keeps the report byte-identical; with the
     flag on, a dirty deck surfaces lint.* violations in the report. *)
  let file = Layoutgen.Cells.chain ~lambda 2 in
  let dirty = { rules with Tech.Rules.width_metal = 301 } in
  let run lint =
    let e = Dic.Engine.with_lint (Dic.Engine.create dirty) lint in
    match Result.map Dic.Engine.primary @@ Dic.Engine.check e file with
    | Ok (result, _) -> Dic.Report.by_rule_prefix result.Dic.Engine.report "lint."
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check int) "off by default" 0 (List.length (run false));
  Alcotest.(check bool) "on by request" true (run true <> [])

let test_engine_deck_diags_unlocated () =
  (* A deck diagnostic's position is a line of its rule file, not of
     the design: in a design's report it has none, and its key is the
     context.  Design diagnostics keep their CIF positions. *)
  let deck =
    match
      Tech.Rules.of_string "name t\nlambda 100\nwidth_metal 301\npad_metal_surround 40\n"
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "deck did not parse: %s" e
  in
  let skinny = "DS 1;\nL NM;\nB 100 400 200 200;\nDF;\nC 1;\nE\n" in
  let engine = Dic.Engine.with_lint (Dic.Engine.create deck) true in
  let multi =
    match Dic.Engine.check_string engine skinny with
    | Ok multi -> multi
    | Error msg -> Alcotest.fail msg
  in
  let report = (fst (Dic.Engine.primary multi)).Dic.Engine.report in
  let lint = Dic.Report.by_rule_prefix report "lint." in
  let find rule =
    List.find_opt (fun (v : Dic.Report.violation) -> v.Dic.Report.rule = rule) lint
  in
  List.iter
    (fun rule -> Alcotest.(check bool) (rule ^ " reported") true (find rule <> None))
    [ "lint.R001"; "lint.R012"; "lint.D005" ];
  Alcotest.(check (option string)) "R012's context is its key" (Some "pad_metal_surround")
    (Option.map
       (fun (v : Dic.Report.violation) -> v.Dic.Report.context)
       (find "lint.R012"));
  List.iter
    (fun (v : Dic.Report.violation) ->
      let from_deck = String.starts_with ~prefix:"lint.R" v.Dic.Report.rule in
      Alcotest.(check bool)
        (Printf.sprintf "%s [%s] has a position" v.Dic.Report.rule v.Dic.Report.context)
        (not from_deck) (v.Dic.Report.loc <> None))
    lint;
  Alcotest.(check int) "dr_lint is the report's lint" (List.length lint)
    (List.length (List.hd multi.Dic.Engine.results).Dic.Engine.dr_lint)

let () =
  Alcotest.run "lint"
    [ ( "deck",
        [ Alcotest.test_case "R001 odd width" `Quick test_r001_odd_width;
          Alcotest.test_case "R002 non-positive" `Quick test_r002_non_positive;
          Alcotest.test_case "R003 off-quantum" `Quick test_r003_off_quantum;
          Alcotest.test_case "R003 no quantum" `Quick
            test_r003_silent_when_lambda_not_divisible;
          Alcotest.test_case "R004 contact pad" `Quick test_r004_contact_pad;
          Alcotest.test_case "R005 asymmetric" `Quick test_r005_asymmetric_pair;
          Alcotest.test_case "R006 unreachable" `Quick test_r006_unreachable_pair;
          Alcotest.test_case "R007 shadowed" `Quick test_r007_shadowed_pair;
          Alcotest.test_case "symmetric override quiet" `Quick
            test_symmetric_override_is_quiet ] );
      ( "deck-source",
        [ Alcotest.test_case "R008 unknown key" `Quick test_r008_unknown_key;
          Alcotest.test_case "R009 duplicate key" `Quick test_r009_duplicate_key;
          Alcotest.test_case "R010 malformed" `Quick test_r010_malformed_line;
          Alcotest.test_case "R011 bad value" `Quick test_r011_bad_value;
          Alcotest.test_case "value bound" `Quick test_value_bound;
          Alcotest.test_case "relocated record diags" `Quick test_record_diags_relocated;
          Alcotest.test_case "broken-demo fixture" `Quick test_broken_demo_deck;
          Alcotest.test_case "of_string line numbers" `Quick test_of_string_line_numbers ] );
      ( "design",
        [ Alcotest.test_case "D001 undefined call" `Quick test_d001_undefined_call;
          Alcotest.test_case "D002 call cycle" `Quick test_d002_call_cycle;
          Alcotest.test_case "D003 unused definition" `Quick test_d003_unused_definition;
          Alcotest.test_case "D003 library quiet" `Quick test_d003_silent_for_library;
          Alcotest.test_case "D004 duplicate symbol" `Quick test_d004_duplicate_symbol;
          Alcotest.test_case "D005 skeleton collapse" `Quick test_d005_skeleton_collapse;
          Alcotest.test_case "D006 net reuse" `Quick test_d006_net_reuse_disjoint;
          Alcotest.test_case "D007 coincident calls" `Quick test_d007_coincident_calls;
          Alcotest.test_case "D008 overflow" `Quick test_d008_transform_overflow;
          Alcotest.test_case "D009 missing layers" `Quick test_d009_device_missing_layers;
          Alcotest.test_case "D009 no crossing" `Quick test_d009_no_crossing ] );
      ( "clean",
        [ Alcotest.test_case "clean designs" `Quick test_clean_designs_lint_clean;
          Alcotest.test_case "builtin decks" `Quick test_builtin_decks_lint_clean ] );
      ( "plumbing",
        [ Alcotest.test_case "deterministic sort" `Quick test_sort_deterministic;
          Alcotest.test_case "explain total" `Quick test_explain_total;
          Alcotest.test_case "sarif deterministic" `Quick
            test_sarif_deterministic_and_parses;
          Alcotest.test_case "render and metrics" `Quick test_render_and_metrics;
          Alcotest.test_case "engine lint flag" `Quick test_engine_lint_flag;
          Alcotest.test_case "deck diagnostics carry no design position" `Quick
            test_engine_deck_diags_unlocated ] ) ]
