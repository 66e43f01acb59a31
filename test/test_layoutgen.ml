(* Tests for the workload generators: the cell library is legal by
   construction, injectors really inject, pathology kits carry valid
   truths. *)

let rules = Tech.Rules.nmos ()
let lambda = rules.Tech.Rules.lambda

let run file =
  match Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.create rules) file with
  | Ok (r, _) -> r
  | Error e -> Alcotest.failf "checker: %s" e

let error_count file = Dic.Report.count ~severity:Dic.Report.Error (run file).Dic.Engine.report

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)

let test_device_symbols_distinct_ids () =
  let ids =
    List.map (fun (s : Cif.Ast.symbol) -> s.Cif.Ast.id) (Layoutgen.Cells.device_symbols ~lambda)
  in
  Alcotest.(check int) "distinct" (List.length ids) (List.length (List.sort_uniq Int.compare ids))

let test_chain_sizes () =
  List.iter
    (fun n ->
      let f = Layoutgen.Cells.chain ~lambda n in
      Alcotest.(check int) (Printf.sprintf "chain %d calls" n) n
        (List.length f.Cif.Ast.top_calls))
    [ 1; 3; 10 ]

let test_chain_clean_scales () =
  Alcotest.(check int) "chain 10 clean" 0 (error_count (Layoutgen.Cells.chain ~lambda 10))

let test_grid_vs_blocks_same_geometry () =
  (* The flat and hierarchical compositions of the same array must
     flatten to the same rectangles. *)
  let a = Layoutgen.Cells.grid ~lambda ~nx:4 ~ny:4 in
  let b = Layoutgen.Cells.grid_blocks ~lambda ~nx:4 ~ny:4 in
  let rects f =
    Flatdrc.Flatten.file f
    |> List.concat_map (fun (e : Flatdrc.Flatten.elt) -> e.Flatdrc.Flatten.rects)
    |> List.sort Geom.Rect.compare
  in
  Alcotest.(check bool) "identical flattened geometry" true (rects a = rects b)

let test_lambda_independence () =
  (* The library is legal at other lambda values too. *)
  List.iter
    (fun lam ->
      let f = Layoutgen.Cells.chain ~lambda:lam 2 in
      let r =
        match Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.create (Tech.Rules.nmos ~lambda:lam ())) f with
        | Ok (r, _) -> r
        | Error e -> Alcotest.failf "checker: %s" e
      in
      Alcotest.(check int)
        (Printf.sprintf "lambda %d clean" lam)
        0
        (Dic.Report.count ~severity:Dic.Report.Error r.Dic.Engine.report))
    [ 50; 100; 200 ]

(* ------------------------------------------------------------------ *)
(* Shift register                                                      *)

let test_shift_register_clean () =
  Alcotest.(check int) "3-bit clean" 0 (error_count (Layoutgen.Shift.register ~lambda 3))

let test_shift_register_clocks () =
  let result = run (Layoutgen.Shift.register ~lambda 3) in
  List.iter
    (fun clock ->
      match Netlist.Net.find_by_name result.Dic.Engine.netlist clock with
      | Some net ->
        Alcotest.(check int) (clock ^ " gates") 3 (Netlist.Net.count net.Netlist.Net.terminals)
      | None -> Alcotest.failf "%s missing" clock)
    [ "PHI1!"; "PHI2!" ]

let test_shift_register_stage_count () =
  (* Each bit contributes two pass transistors and two inverters: each
     stage output net carries pass sd + T1 gate (inverter input) or
     inverter internals; just check net count scales linearly. *)
  let nets n =
    List.length (run (Layoutgen.Shift.register ~lambda n)).Dic.Engine.netlist.Netlist.Net.nets
  in
  Alcotest.(check int) "linear growth" (nets 2 + (nets 3 - nets 2)) (nets 3)

(* ------------------------------------------------------------------ *)
(* PLA                                                                 *)

let full_program rows cols = Array.init rows (fun _ -> Array.make cols true)

let test_pla_clean () =
  let f = Layoutgen.Pla.plane ~lambda (full_program 3 3) in
  Alcotest.(check int) "fully programmed plane clean" 0 (error_count f);
  let f = Layoutgen.Pla.plane ~lambda (Layoutgen.Pla.random_program ~rows:4 ~cols:4 ~seed:7) in
  Alcotest.(check int) "random plane clean" 0 (error_count f)

let test_pla_connectivity () =
  let f = Layoutgen.Pla.plane ~lambda (full_program 2 3) in
  let result = run f in
  (* Each input column gates one transistor per row. *)
  (match Netlist.Net.find_by_name result.Dic.Engine.netlist "in0" with
  | Some net -> Alcotest.(check int) "in0 gates" 2 (Netlist.Net.count net.Netlist.Net.terminals)
  | None -> Alcotest.fail "in0 missing");
  (* Each product row collects one drain and one contact via per column. *)
  (match Netlist.Net.find_by_name result.Dic.Engine.netlist "P1" with
  | Some net -> Alcotest.(check int) "P1 drains" 6 (Netlist.Net.count net.Netlist.Net.terminals)
  | None -> Alcotest.fail "P1 missing");
  (* Ground collects every source. *)
  match Netlist.Net.find_by_name result.Dic.Engine.netlist "GND!" with
  | Some net -> Alcotest.(check int) "GND sources" 6 (Netlist.Net.count net.Netlist.Net.terminals)
  | None -> Alcotest.fail "GND missing"

let test_pla_random_program_deterministic () =
  let a = Layoutgen.Pla.random_program ~rows:5 ~cols:5 ~seed:3 in
  let b = Layoutgen.Pla.random_program ~rows:5 ~cols:5 ~seed:3 in
  Alcotest.(check bool) "same seed, same program" true (a = b);
  let c = Layoutgen.Pla.random_program ~rows:5 ~cols:5 ~seed:4 in
  Alcotest.(check bool) "different seed differs" true (a <> c)

(* ------------------------------------------------------------------ *)
(* Injections                                                          *)

let test_each_injection_detected () =
  let base = Layoutgen.Cells.chain ~lambda 2 in
  let margin = (2 * Layoutgen.Cells.pitch_x * lambda) + (6 * lambda) in
  List.iter
    (fun (inj : Layoutgen.Inject.t) ->
      let salted, truths = Layoutgen.Inject.apply base [ inj ] in
      let result = run salted in
      let outcome =
        Dic.Classify.classify ~tolerance:(2 * lambda) truths
          (Dic.Classify.of_report result.Dic.Engine.report)
      in
      Alcotest.(check int)
        (inj.Layoutgen.Inject.label ^ " detected")
        1
        (List.length outcome.Dic.Classify.flagged);
      Alcotest.(check int)
        (inj.Layoutgen.Inject.label ^ " no false")
        0
        (List.length outcome.Dic.Classify.false_findings))
    [ Layoutgen.Inject.narrow_poly_wire ~lambda ~at:(margin, 0);
      Layoutgen.Inject.metal_spacing_pair ~lambda ~at:(margin, 0);
      Layoutgen.Inject.diff_spacing_pair ~lambda ~at:(margin, 0);
      Layoutgen.Inject.accidental_crossing ~lambda ~at:(margin, 4 * lambda);
      Layoutgen.Inject.supply_short ~lambda ~cell_origin:(0, 0);
      Layoutgen.Inject.butting_halves ~lambda ~at:(margin, 0) ]

let test_standard_batch_count () =
  Alcotest.(check int) "four defects" 4
    (List.length (Layoutgen.Inject.standard_batch ~lambda ~at:(0, 0) ~step:1000))

let test_apply_appends () =
  let base = Layoutgen.Cells.chain ~lambda 1 in
  let salted, truths =
    Layoutgen.Inject.apply base [ Layoutgen.Inject.narrow_poly_wire ~lambda ~at:(0, -3000) ]
  in
  Alcotest.(check int) "one truth" 1 (List.length truths);
  Alcotest.(check int) "one extra element"
    (List.length base.Cif.Ast.top_elements + 1)
    (List.length salted.Cif.Ast.top_elements)

(* ------------------------------------------------------------------ *)
(* Pathology kits                                                      *)

let test_kits_well_formed () =
  List.iter
    (fun (kit : Layoutgen.Pathology.kit) ->
      (* Parse/elaborate without hard failure. *)
      let _ = run kit.Layoutgen.Pathology.file in
      Alcotest.(check bool)
        (kit.Layoutgen.Pathology.kit_name ^ " named")
        true
        (String.length kit.Layoutgen.Pathology.kit_name > 0))
    (Layoutgen.Pathology.all ~lambda)

let test_kit_names_unique () =
  let names =
    List.map
      (fun (k : Layoutgen.Pathology.kit) -> k.Layoutgen.Pathology.kit_name)
      (Layoutgen.Pathology.all ~lambda)
  in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq String.compare names))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "layoutgen"
    [ ( "cells",
        [ Alcotest.test_case "distinct ids" `Quick test_device_symbols_distinct_ids;
          Alcotest.test_case "chain sizes" `Quick test_chain_sizes;
          Alcotest.test_case "chain 10 clean" `Quick test_chain_clean_scales;
          Alcotest.test_case "grid = blocks geometry" `Quick
            test_grid_vs_blocks_same_geometry;
          Alcotest.test_case "lambda independence" `Quick test_lambda_independence ] );
      ( "shift",
        [ Alcotest.test_case "register clean" `Quick test_shift_register_clean;
          Alcotest.test_case "clock nets" `Quick test_shift_register_clocks;
          Alcotest.test_case "stage count" `Quick test_shift_register_stage_count ] );
      ( "pla",
        [ Alcotest.test_case "planes clean" `Quick test_pla_clean;
          Alcotest.test_case "connectivity" `Quick test_pla_connectivity;
          Alcotest.test_case "deterministic program" `Quick
            test_pla_random_program_deterministic ] );
      ( "inject",
        [ Alcotest.test_case "each injection detected" `Quick test_each_injection_detected;
          Alcotest.test_case "standard batch" `Quick test_standard_batch_count;
          Alcotest.test_case "apply appends" `Quick test_apply_appends ] );
      ( "pathology",
        [ Alcotest.test_case "kits well-formed" `Quick test_kits_well_formed;
          Alcotest.test_case "names unique" `Quick test_kit_names_unique ] ) ]
