(* Integration tests for the Design Integrity and Immunity Checker:
   model elaboration, the six pipeline stages, classification, and
   end-to-end behaviour on the cell library and pathology kits. *)

let rules = Tech.Rules.nmos ()
let lambda = rules.Tech.Rules.lambda
let l v = v * lambda

let parse src =
  match Cif.Parse.file src with
  | Ok f -> f
  | Error e -> Alcotest.failf "parse: %s" (Cif.Parse.string_of_error e)

let elaborate_ok file =
  match Dic.Model.elaborate rules file with
  | Ok (m, issues) -> (m, issues)
  | Error e -> Alcotest.failf "elaborate: %s" e

let run_ok ?config file =
  match Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.create ?config rules) file with
  | Ok (r, _) -> r
  | Error e -> Alcotest.failf "checker: %s" e

let errors_of result = Dic.Report.errors result.Dic.Engine.report

let error_rules result =
  List.map (fun (v : Dic.Report.violation) -> v.Dic.Report.rule) (errors_of result)
  |> List.sort_uniq String.compare

let has_rule prefix result =
  Dic.Report.by_rule_prefix result.Dic.Engine.report prefix
  |> List.exists (fun (v : Dic.Report.violation) -> v.Dic.Report.severity = Dic.Report.Error)

(* ------------------------------------------------------------------ *)
(* Model                                                               *)

let test_model_chain () =
  let m, issues = elaborate_ok (Layoutgen.Cells.chain ~lambda 3) in
  Alcotest.(check (list string)) "no issues" []
    (List.map (fun (v : Dic.Report.violation) -> v.Dic.Report.rule) issues);
  Alcotest.(check int) "symbols" 5 (Dic.Model.symbol_count m);
  Alcotest.(check int) "depth: top/cell/device" 2 (Dic.Model.depth m);
  Alcotest.(check bool) "definition < instantiated" true
    (Dic.Model.definition_elements m < Dic.Model.instantiated_elements m)

let test_model_device_binding () =
  let m, _ = elaborate_ok (Layoutgen.Cells.chain ~lambda 1) in
  let enh = Dic.Model.find m Layoutgen.Cells.id_enh in
  Alcotest.(check bool) "device kind" true (enh.Dic.Model.device = Some Tech.Device.Enhancement);
  Alcotest.(check bool) "is_device" true (Dic.Model.is_device enh);
  let inv = Dic.Model.find m Layoutgen.Cells.id_inv in
  Alcotest.(check bool) "composite not device" false (Dic.Model.is_device inv)

let test_model_unknown_layer () =
  let _, issues = elaborate_ok (parse "L QQ; B 200 200 100 100; E") in
  Alcotest.(check bool) "unknown layer reported" true
    (List.exists (fun (v : Dic.Report.violation) -> v.Dic.Report.rule = "layer.unknown") issues)

let test_model_unknown_device () =
  let _, issues = elaborate_ok (parse "DS 1; 4D WIDGET; DF; C 1; E" ) in
  Alcotest.(check bool) "unknown device reported" true
    (List.exists
       (fun (v : Dic.Report.violation) -> v.Dic.Report.rule = "device.unknown-type")
       issues)

let test_model_device_with_calls () =
  let _, issues =
    elaborate_ok
      (parse "DS 1; L NM; B 300 300 150 150; DF; DS 2; 4D CON; C 1; DF; C 2; E")
  in
  Alcotest.(check bool) "device with calls reported" true
    (List.exists
       (fun (v : Dic.Report.violation) -> v.Dic.Report.rule = "device.contains-calls")
       issues)

let test_model_nonrect_polygon_dropped () =
  let _, issues = elaborate_ok (parse "L NM; P 0 0 400 0 200 400; E") in
  Alcotest.(check bool) "reported" true
    (List.exists
       (fun (v : Dic.Report.violation) -> v.Dic.Report.rule = "polygon.nonrectangular"
         || v.Dic.Report.rule = "polygon.nonrectilinear")
       issues)

let test_model_bbox () =
  let m, _ = elaborate_ok (Layoutgen.Cells.chain ~lambda 2) in
  let inv = Dic.Model.find m Layoutgen.Cells.id_inv in
  match inv.Dic.Model.sbbox with
  | Some bb ->
    Alcotest.(check bool) "cell spans rails vertically" true
      (Geom.Rect.y0 bb <= 0 && Geom.Rect.y1 bb >= l 28)
  | None -> Alcotest.fail "expected a bbox"

let test_model_layer_region () =
  let m, _ = elaborate_ok (Layoutgen.Cells.chain ~lambda 1) in
  let enh = Dic.Model.find m Layoutgen.Cells.id_enh in
  let gate =
    Geom.Region.inter
      (Dic.Model.layer_region enh Tech.Layer.Poly)
      (Dic.Model.layer_region enh Tech.Layer.Diffusion)
  in
  Alcotest.(check int) "gate area is 2x2 lambda" (l 2 * l 2) (Geom.Region.area gate)

(* ------------------------------------------------------------------ *)
(* Element checks                                                      *)

let element_errors src =
  let m, _ = elaborate_ok (parse src) in
  Dic.Element_checks.check m

let test_elements_narrow_box () =
  let errs = element_errors "L NP; B 100 600 50 300; E" in
  Alcotest.(check int) "flagged" 1 (List.length errs)

let test_elements_narrow_wire () =
  let errs = element_errors "L NM; W 200 0 0 1000 0; E" in
  Alcotest.(check bool) "metal wire 2L < 3L" true (List.length errs >= 1)

let test_elements_legal_pass () =
  Alcotest.(check int) "clean" 0
    (List.length (element_errors "L NM; W 300 0 0 1000 0; L NP; B 200 600 100 300; E"))

let test_elements_polygon_width () =
  (* An L-polygon with a 1-lambda arm. *)
  let errs =
    element_errors "L NP; P 0 0 600 0 600 100 200 100 200 600 0 600; E"
  in
  Alcotest.(check bool) "narrow arm flagged" true (List.length errs >= 1)

let test_elements_contact_outside_device () =
  let errs = element_errors "L NC; B 200 200 100 100; E" in
  Alcotest.(check bool) "placement error" true
    (List.exists
       (fun (v : Dic.Report.violation) -> v.Dic.Report.rule = "placement.NC")
       errs)

let test_elements_device_symbols_skipped () =
  (* A 1-lambda bar inside a Checked device raises nothing here. *)
  let errs = element_errors "DS 1; 4D CHK; L NP; B 100 600 50 300; DF; C 1; E" in
  Alcotest.(check int) "skipped" 0 (List.length errs)

(* ------------------------------------------------------------------ *)
(* Device checks                                                       *)

let device_errors src =
  let m, _ = elaborate_ok (parse src) in
  List.filter
    (fun (v : Dic.Report.violation) -> v.Dic.Report.severity = Dic.Report.Error)
    (Dic.Devices.check m)

let rule_present rule errs =
  List.exists (fun (v : Dic.Report.violation) -> v.Dic.Report.rule = rule) errs

let test_device_enh_good () =
  let f = Layoutgen.Builder.file ~symbols:[ Layoutgen.Cells.enh ~lambda ]
      ~top_calls:[ Layoutgen.Builder.call ~at:(0, 0) Layoutgen.Cells.id_enh ] () in
  let m, _ = elaborate_ok f in
  Alcotest.(check int) "clean" 0
    (List.length
       (List.filter
          (fun (v : Dic.Report.violation) -> v.Dic.Report.severity = Dic.Report.Error)
          (Dic.Devices.check m)))

let test_device_enh_missing_gate () =
  (* Poly beside the diffusion, not crossing it. *)
  let errs =
    device_errors "DS 1; 4D ENH; L ND; B 200 800 100 100; L NP; B 600 200 800 100; DF; C 1; E"
  in
  Alcotest.(check bool) "missing gate" true (rule_present "device.missing-gate" errs)

let test_device_enh_short_overhang () =
  (* Poly crosses but only sticks out 1 lambda. *)
  let errs =
    device_errors
      "DS 1; 4D ENH; L ND; B 200 800 100 400; L NP; B 400 200 100 400; DF; C 1; E"
  in
  Alcotest.(check bool) "overhang" true (rule_present "device.gate-overhang" errs)

let test_device_enh_short_diff_extension () =
  let errs =
    device_errors
      "DS 1; 4D ENH; L ND; B 200 400 100 400; L NP; B 600 200 100 400; DF; C 1; E"
  in
  Alcotest.(check bool) "diff extension" true (rule_present "device.diff-extension" errs)

let test_device_contact_over_gate () =
  let kit = Layoutgen.Pathology.fig7_contact_gate ~lambda in
  let m, _ = elaborate_ok kit.Layoutgen.Pathology.file in
  Alcotest.(check bool) "contact over gate" true
    (rule_present "device.contact-over-gate" (Dic.Devices.check m))

let test_device_enh_implanted () =
  let errs =
    device_errors
      "DS 1; 4D ENH; L ND; B 200 800 100 100; L NP; B 600 200 100 100; L NI; B 600 600 100 100; DF; C 1; E"
  in
  Alcotest.(check bool) "unexpected implant" true
    (rule_present "device.unexpected-implant" errs)

let test_device_dep_good () =
  let f = Layoutgen.Builder.file ~symbols:[ Layoutgen.Cells.dep ~lambda ]
      ~top_calls:[ Layoutgen.Builder.call ~at:(0, 0) Layoutgen.Cells.id_dep ] () in
  let m, _ = elaborate_ok f in
  Alcotest.(check int) "clean" 0
    (List.length
       (List.filter
          (fun (v : Dic.Report.violation) -> v.Dic.Report.severity = Dic.Report.Error)
          (Dic.Devices.check m)))

let test_device_dep_missing_implant () =
  let errs =
    device_errors "DS 1; 4D DEP; L ND; B 200 800 100 100; L NP; B 600 200 100 100; DF; C 1; E"
  in
  Alcotest.(check bool) "implant surround" true
    (rule_present "device.implant-surround" errs)

let test_device_contact_good_and_bad () =
  let good = Layoutgen.Builder.file ~symbols:[ Layoutgen.Cells.contact_diff ~lambda ]
      ~top_calls:[ Layoutgen.Builder.call ~at:(0, 0) Layoutgen.Cells.id_con ] () in
  let m, _ = elaborate_ok good in
  Alcotest.(check int) "good contact clean" 0
    (List.length
       (List.filter
          (fun (v : Dic.Report.violation) -> v.Dic.Report.severity = Dic.Report.Error)
          (Dic.Devices.check m)));
  (* Metal surround too small. *)
  let errs =
    device_errors
      "DS 1; 4D CON; L NC; B 200 200 100 100; L ND; B 400 400 100 100; L NM; B 200 200 100 100; DF; C 1; E"
  in
  Alcotest.(check bool) "metal surround" true (rule_present "device.metal-surround" errs);
  (* Both poly and diffusion present. *)
  let errs =
    device_errors
      "DS 1; 4D CON; L NC; B 200 200 100 100; L ND; B 400 400 100 100; L NP; B 400 400 100 100; L NM; B 400 400 100 100; DF; C 1; E"
  in
  Alcotest.(check bool) "ambiguous landing" true
    (rule_present "device.ambiguous-landing" errs);
  (* Nothing underneath. *)
  let errs =
    device_errors
      "DS 1; 4D CON; L NC; B 200 200 100 100; L NM; B 400 400 100 100; DF; C 1; E"
  in
  Alcotest.(check bool) "no landing" true (rule_present "device.no-landing" errs)

let test_device_butting () =
  let good = Layoutgen.Builder.file ~symbols:[ Layoutgen.Cells.butting ~lambda ]
      ~top_calls:[ Layoutgen.Builder.call ~at:(0, 0) Layoutgen.Cells.id_butt ] () in
  let m, _ = elaborate_ok good in
  Alcotest.(check int) "good butting clean" 0
    (List.length
       (List.filter
          (fun (v : Dic.Report.violation) -> v.Dic.Report.severity = Dic.Report.Error)
          (Dic.Devices.check m)));
  (* Contact failing to cover the overlap. *)
  let errs =
    device_errors
      "DS 1; 4D BUT; L ND; B 200 300 100 150; L NP; B 200 300 100 350; L NC; B 200 100 100 450; L NM; B 400 500 100 250; DF; C 1; E"
  in
  Alcotest.(check bool) "butt uncovered" true
    (rule_present "device.contact-covers-butt" errs)

let test_device_buried () =
  let good = Layoutgen.Builder.file ~symbols:[ Layoutgen.Cells.buried ~lambda ]
      ~top_calls:[ Layoutgen.Builder.call ~at:(0, 0) Layoutgen.Cells.id_bur ] () in
  let m, _ = elaborate_ok good in
  Alcotest.(check int) "good buried clean" 0
    (List.length
       (List.filter
          (fun (v : Dic.Report.violation) -> v.Dic.Report.severity = Dic.Report.Error)
          (Dic.Devices.check m)));
  let errs =
    device_errors
      "DS 1; 4D BUR; L ND; B 200 400 100 200; L NP; B 200 400 100 400; L NB; B 200 200 100 300; DF; C 1; E"
  in
  Alcotest.(check bool) "window too small" true (rule_present "device.buried-window" errs)

let test_device_pad () =
  let good = Layoutgen.Builder.file ~symbols:[ Layoutgen.Cells.pad ~lambda ]
      ~top_calls:[ Layoutgen.Builder.call ~at:(0, 0) Layoutgen.Cells.id_pad ] () in
  let m, _ = elaborate_ok good in
  Alcotest.(check int) "good pad clean" 0
    (List.length
       (List.filter
          (fun (v : Dic.Report.violation) -> v.Dic.Report.severity = Dic.Report.Error)
          (Dic.Devices.check m)));
  let errs =
    device_errors
      "DS 1; 4D PAD; L NM; B 800 800 400 400; L NG; B 800 800 400 400; DF; C 1; E"
  in
  Alcotest.(check bool) "pad metal surround" true (rule_present "device.pad-metal" errs)

let test_device_checked_waived () =
  (* Arbitrary junk inside a Checked symbol: no errors, one info. *)
  let m, _ =
    elaborate_ok
      (parse "DS 1; 4D CHK; L NP; B 100 100 50 50; L ND; B 100 100 50 50; DF; C 1; E")
  in
  let vs = Dic.Devices.check m in
  Alcotest.(check int) "no errors" 0
    (List.length
       (List.filter
          (fun (v : Dic.Report.violation) -> v.Dic.Report.severity = Dic.Report.Error)
          vs));
  Alcotest.(check bool) "waiver noted" true
    (List.exists
       (fun (v : Dic.Report.violation) -> v.Dic.Report.rule = "device.checked-waived")
       vs)

let test_device_interfaces () =
  let m, _ = elaborate_ok (Layoutgen.Cells.chain ~lambda 1) in
  let iface id =
    match Dic.Devices.interface rules (Dic.Model.find m id) with
    | Some i -> i
    | None -> Alcotest.fail "expected an interface"
  in
  Alcotest.(check int) "transistor: gate + 2 sd" 3
    (List.length (iface Layoutgen.Cells.id_enh).Dic.Devices.ports);
  Alcotest.(check int) "contact: one via" 1
    (List.length (iface Layoutgen.Cells.id_con).Dic.Devices.ports);
  let inv = Dic.Model.find m Layoutgen.Cells.id_inv in
  Alcotest.(check bool) "composite has no interface" true
    (Dic.Devices.interface rules inv = None)

let test_resistor_interface () =
  let f = Layoutgen.Builder.file ~symbols:[ Layoutgen.Cells.resistor ~lambda () ]
      ~top_calls:[ Layoutgen.Builder.call ~at:(0, 0) Layoutgen.Cells.id_res ] () in
  let m, _ = elaborate_ok f in
  match Dic.Devices.interface rules (Dic.Model.find m Layoutgen.Cells.id_res) with
  | Some i -> Alcotest.(check int) "two terminals" 2 (List.length i.Dic.Devices.ports)
  | None -> Alcotest.fail "expected an interface"

(* ------------------------------------------------------------------ *)
(* Net-list generation                                                 *)

let test_netgen_chain_nets () =
  let result = run_ok (Layoutgen.Cells.chain ~lambda 4) in
  let nets = result.Dic.Engine.netlist.Netlist.Net.nets in
  (* GND, VDD, one input, four stage outputs. *)
  Alcotest.(check int) "net count" 7 (List.length nets);
  let find n = Netlist.Net.find_by_name result.Dic.Engine.netlist n in
  (match find "GND!" with
  | Some net ->
    Alcotest.(check int) "GND terminals: 2 per cell" 8 (List.length net.Netlist.Net.terminals)
  | None -> Alcotest.fail "no GND net");
  match find "0:inv.out" with
  | Some net ->
    (* T1 drain + buried via + T2 gate + T2 source + next cell's T1 gate. *)
    Alcotest.(check int) "output terminals" 5 (List.length net.Netlist.Net.terminals)
  | None -> Alcotest.fail "no output net"

let test_netgen_dot_notation () =
  let result = run_ok (Layoutgen.Cells.chain ~lambda 2) in
  let names =
    List.concat_map
      (fun (n : Netlist.Net.net) -> n.Netlist.Net.names)
      result.Dic.Engine.netlist.Netlist.Net.nets
  in
  Alcotest.(check bool) "dot-qualified names" true (List.mem "1:inv.out" names)

let test_netgen_illegal_connection () =
  (* Fig 15 butting: touching geometry without skeletal connection. *)
  let f = parse "L NP; B 100 600 50 300; B 100 600 150 300; E" in
  let m, _ = elaborate_ok f in
  let _, issues = Dic.Netgen.build m in
  Alcotest.(check bool) "flagged" true
    (List.exists
       (fun (v : Dic.Report.violation) -> v.Dic.Report.rule = "connection.illegal")
       issues)

let test_netgen_resolve () =
  let m, _ = elaborate_ok (Layoutgen.Cells.chain ~lambda 1) in
  let nets, _ = Dic.Netgen.build m in
  let elt_group = (Dic.Netgen.nets_of nets Layoutgen.Cells.id_inv).Dic.Netgen.elt_group in
  (* Elements 0 and 1 of the inverter are the GND and VDD rails. *)
  let rail0 = elt_group.(0) and rail1 = elt_group.(1) in
  Alcotest.(check bool) "rails resolve" true (rail0 <> None && rail1 <> None);
  Alcotest.(check bool) "rails on different nets" true (rail0 <> rail1)

let test_netgen_locality () =
  let result = run_ok (Layoutgen.Cells.grid ~lambda ~nx:2 ~ny:2) in
  let local, crossing = Dic.Netgen.locality result.Dic.Engine.nets in
  Alcotest.(check bool) "some crossing nets" true (crossing > 0);
  Alcotest.(check int) "total is net count" (List.length result.Dic.Engine.netlist.Netlist.Net.nets)
    (local + crossing)

(* ------------------------------------------------------------------ *)
(* Interactions                                                        *)

let interaction_errors src =
  let m, _ = elaborate_ok (parse src) in
  let nets, _ = Dic.Netgen.build m in
  let vs, stats = Dic.Interactions.check nets in
  (vs, stats)

(* At the largest accepted rule value, 2^30, the squared requirement
   still fits a native int: two metal boxes 200 apart are a spacing
   error under both metrics. *)
let test_interactions_spacing_at_value_bound () =
  let big = { rules with Tech.Rules.space_metal = Tech.Rules.max_value } in
  let file = parse "L NM; B 400 400 200 200; B 400 400 800 200; E" in
  List.iter
    (fun metric ->
      let config =
        { Dic.Engine.default_config with
          Dic.Engine.interactions =
            { Dic.Interactions.default_config with Dic.Interactions.metric } }
      in
      match
        Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.create ~config big) file
      with
      | Ok (r, _) ->
        Alcotest.(check (list string)) "spacing error reported" [ "spacing.NM" ]
          (error_rules r)
      | Error e -> Alcotest.failf "checker: %s" e)
    [ Geom.Measure.Orthogonal; Geom.Measure.Euclidean ]

let test_interactions_diff_net_spacing () =
  let vs, _ = interaction_errors "L NM; B 400 400 200 200; 4N a; B 400 400 800 200; 4N b; E" in
  Alcotest.(check bool) "flagged" true
    (List.exists
       (fun (v : Dic.Report.violation) -> v.Dic.Report.rule = "spacing.NM")
       vs)

let test_interactions_same_net_skip () =
  (* Same labels but NOT connected: labels are local, so they stay two
     nets -- use a genuinely connected comb instead. *)
  let kit = Layoutgen.Pathology.fig5_equivalent ~lambda in
  let m, _ = elaborate_ok kit.Layoutgen.Pathology.file in
  let nets, _ = Dic.Netgen.build m in
  let vs, stats = Dic.Interactions.check nets in
  Alcotest.(check int) "no violations" 0 (List.length vs);
  let c = Hashtbl.fold (fun _ (c : Dic.Interactions.cell_stats) acc -> acc + c.Dic.Interactions.skipped_same_net) stats.Dic.Interactions.cells 0 in
  Alcotest.(check bool) "same-net skips recorded" true (c > 0)

let test_interactions_short () =
  let vs, _ = interaction_errors "L NM; B 400 400 200 200; 4N a; B 400 400 500 200; 4N b; E" in
  Alcotest.(check bool) "short" true
    (List.exists (fun (v : Dic.Report.violation) -> v.Dic.Report.rule = "short.NM") vs)

let test_interactions_accidental_transistor () =
  let vs, _ =
    interaction_errors "L NP; B 200 800 500 400; L ND; B 800 200 500 400; E"
  in
  Alcotest.(check bool) "accidental" true
    (List.exists
       (fun (v : Dic.Report.violation) ->
         v.Dic.Report.rule = "integrity.accidental-transistor")
       vs)

let test_interactions_poly_diff_touch_not_accidental () =
  (* Touching but not overlapping: a spacing violation, not a device. *)
  let vs, _ = interaction_errors "L NP; B 200 800 100 400; L ND; B 200 800 300 400; E" in
  Alcotest.(check bool) "not accidental" false
    (List.exists
       (fun (v : Dic.Report.violation) ->
         v.Dic.Report.rule = "integrity.accidental-transistor")
       vs);
  Alcotest.(check bool) "but spacing-flagged" true
    (List.exists
       (fun (v : Dic.Report.violation) -> v.Dic.Report.rule = "spacing.ND-NP")
       vs)

let test_interactions_memoisation () =
  let result = run_ok (Layoutgen.Cells.grid ~lambda ~nx:6 ~ny:6) in
  let s = result.Dic.Engine.interaction_stats in
  Alcotest.(check bool) "memo hits dominate" true
    (s.Dic.Interactions.memo_hits > s.Dic.Interactions.memo_misses)

let test_interactions_net_blind_ablation () =
  let config =
    { Dic.Engine.default_config with
      Dic.Engine.interactions =
        { Dic.Interactions.default_config with Dic.Interactions.check_same_net = true } }
  in
  let kit = Layoutgen.Pathology.fig5_equivalent ~lambda in
  let result = run_ok ~config kit.Layoutgen.Pathology.file in
  Alcotest.(check bool) "net-blind flags the comb" true (errors_of result <> [])

(* ------------------------------------------------------------------ *)
(* End to end                                                          *)

let test_e2e_chain_clean () =
  let result = run_ok (Layoutgen.Cells.chain ~lambda 4) in
  Alcotest.(check (list string)) "no errors" [] (error_rules result)

let test_e2e_grid_clean () =
  let result = run_ok (Layoutgen.Cells.grid ~lambda ~nx:4 ~ny:3) in
  Alcotest.(check (list string)) "no errors" [] (error_rules result)

let test_e2e_grid_blocks_clean () =
  let result = run_ok (Layoutgen.Cells.grid_blocks ~lambda ~nx:4 ~ny:4) in
  Alcotest.(check (list string)) "no errors" [] (error_rules result)

let test_e2e_injections_all_found_no_false () =
  let clean = Layoutgen.Cells.grid ~lambda ~nx:4 ~ny:2 in
  let margin = (4 * Layoutgen.Cells.pitch_x * lambda) + (6 * lambda) in
  let salted, truths =
    Layoutgen.Inject.apply clean
      (Layoutgen.Inject.standard_batch ~lambda ~at:(margin, 0) ~step:(10 * lambda)
      @ [ Layoutgen.Inject.supply_short ~lambda ~cell_origin:(0, 0);
          Layoutgen.Inject.butting_halves ~lambda ~at:(margin, 45 * lambda) ])
  in
  let result = run_ok salted in
  let outcome =
    Dic.Classify.classify ~tolerance:(2 * lambda) truths
      (Dic.Classify.of_report result.Dic.Engine.report)
  in
  Alcotest.(check int) "all real defects flagged" (List.length truths)
    (List.length outcome.Dic.Classify.flagged);
  Alcotest.(check int) "no false errors" 0 (List.length outcome.Dic.Classify.false_findings)

let test_e2e_pathology_kits () =
  List.iter
    (fun (kit : Layoutgen.Pathology.kit) ->
      let result = run_ok kit.Layoutgen.Pathology.file in
      let outcome =
        Dic.Classify.classify ~tolerance:(2 * lambda) kit.Layoutgen.Pathology.truths
          (Dic.Classify.of_report result.Dic.Engine.report)
      in
      Alcotest.(check int)
        (kit.Layoutgen.Pathology.kit_name ^ ": all truths flagged")
        (List.length kit.Layoutgen.Pathology.truths)
        (List.length outcome.Dic.Classify.flagged);
      if kit.Layoutgen.Pathology.kit_name <> "fig2b" then
        Alcotest.(check int)
          (kit.Layoutgen.Pathology.kit_name ^ ": no false errors")
          0
          (List.length outcome.Dic.Classify.false_findings))
    (Layoutgen.Pathology.all ~lambda)

let test_e2e_supply_short_erc () =
  let salted, _ =
    Layoutgen.Inject.apply (Layoutgen.Cells.chain ~lambda 2)
      [ Layoutgen.Inject.supply_short ~lambda ~cell_origin:(0, 0) ]
  in
  let result = run_ok salted in
  Alcotest.(check bool) "supply short" true (has_rule "erc.supply-short" result)

let test_e2e_stage_times_present () =
  let result = run_ok (Layoutgen.Cells.chain ~lambda 2) in
  Alcotest.(check bool) "stages timed" true
    (List.length (Dic.Metrics.stage_seconds result.Dic.Engine.metrics) >= 6)

let prop_chain_nets =
  QCheck2.Test.make ~name:"e2e: chain of n has n+3 nets and no errors" ~count:8
    QCheck2.Gen.(int_range 1 8)
    (fun n ->
      let result = run_ok (Layoutgen.Cells.chain ~lambda n) in
      List.length result.Dic.Engine.netlist.Netlist.Net.nets = n + 3
      && errors_of result = [])

let prop_grid_clean =
  QCheck2.Test.make ~name:"e2e: any small grid is clean" ~count:6
    QCheck2.Gen.(pair (int_range 1 5) (int_range 1 3))
    (fun (nx, ny) ->
      let result = run_ok (Layoutgen.Cells.grid ~lambda ~nx ~ny) in
      errors_of result = [])

(* ------------------------------------------------------------------ *)
(* Process-model modes                                                 *)

let exposure_model = Process_model.Exposure.make ~sigma:60. ()

let test_relational_narrow_poly_flagged () =
  (* A transistor with 1-lambda poly: legal by the fixed rule except
     element width (waived inside devices), but its end-cap retreat
     eats the overhang. *)
  let narrow =
    (* Diffusion runs vertically; the poly crossing it is 1 lambda wide
       (y 0..100) with the regulation 2-lambda overhang each side. *)
    Layoutgen.Builder.symbol ~id:40 ~name:"enhnarrow" ~device:"ENH"
      [ Layoutgen.Builder.box ~layer:"ND" 0 (-300) 200 400;
        Layoutgen.Builder.box ~layer:"NP" (-200) 0 400 100 ]
      []
  in
  let f =
    Layoutgen.Builder.file ~symbols:[ narrow ]
      ~top_calls:[ Layoutgen.Builder.call ~at:(0, 0) 40 ] ()
  in
  let m, _ = elaborate_ok f in
  let sym = Dic.Model.find m 40 in
  let vs = Dic.Devices.check_relational exposure_model rules sym in
  Alcotest.(check bool) "narrow-poly transistor flagged" true
    (List.exists
       (fun (v : Dic.Report.violation) -> v.Dic.Report.rule = "device.relational-overhang")
       vs)

let test_relational_standard_cell_passes () =
  let m, _ = elaborate_ok (Layoutgen.Cells.chain ~lambda 1) in
  Alcotest.(check int) "2-lambda poly cells pass" 0
    (List.length (Dic.Devices.check_relational_all exposure_model m))

let test_relational_via_checker () =
  let config =
    { Dic.Engine.default_config with Dic.Engine.relational = Some exposure_model }
  in
  let result = run_ok ~config (Layoutgen.Cells.chain ~lambda 2) in
  Alcotest.(check bool) "relational stage timed" true
    (List.mem_assoc "devices-relational"
       (Dic.Metrics.stage_seconds result.Dic.Engine.metrics));
  Alcotest.(check int) "still clean" 0
    (Dic.Report.count ~severity:Dic.Report.Error result.Dic.Engine.report)

let exposure_config =
  { Dic.Engine.default_config with
    Dic.Engine.interactions =
      { Dic.Interactions.default_config with
        Dic.Interactions.spacing_model =
          Dic.Interactions.Exposure { model = exposure_model; misalign = 0 } } }

let metal_pair gap =
  (* First box spans x 0..400; the second starts at 400 + gap. *)
  parse
    (Printf.sprintf "L NM; B 400 400 200 200; 4N a; B 400 400 %d 200; 4N b; E"
       (600 + gap))

let test_exposure_spacing_tolerates_rule_violation () =
  (* 250 < 300 violates the drawn rule but cannot bridge at sigma 60:
     the exposure mode, "more correct", stays silent. *)
  let geometric = run_ok (metal_pair 250) in
  Alcotest.(check bool) "geometric flags" true (has_rule "spacing" geometric);
  let exposure = run_ok ~config:exposure_config (metal_pair 250) in
  Alcotest.(check bool) "exposure mode passes" false (has_rule "spacing" exposure)

let test_exposure_spacing_catches_bridge () =
  let exposure = run_ok ~config:exposure_config (metal_pair 50) in
  Alcotest.(check bool) "tight gap bridges" true (has_rule "spacing" exposure)

(* ------------------------------------------------------------------ *)
(* Net-list comparison                                                 *)

let test_netcmp_parse () =
  let src = "# comment\nnet a\nx.t1 gate\nnet b exact\ny.t2 sd0\n" in
  match Dic.Netcompare.parse src with
  | Ok e ->
    (match e.Dic.Netcompare.nets with
    | [ a; b ] ->
      Alcotest.(check string) "net a" "a" a.Dic.Netcompare.nname;
      Alcotest.(check bool) "a open" false a.Dic.Netcompare.closed;
      Alcotest.(check bool) "b closed" true b.Dic.Netcompare.closed;
      Alcotest.(check int) "a terminals" 1 (List.length a.Dic.Netcompare.terminals)
    | _ -> Alcotest.fail "expected two nets")
  | Error msg -> Alcotest.fail msg

let test_netcmp_parse_error () =
  match Dic.Netcompare.parse "x.t1 gate\n" with
  | Error msg -> Alcotest.(check bool) "before any net" true
      (Astring_contains.contains msg "before any net")
  | Ok _ -> Alcotest.fail "expected an error"

let netcmp_run expected_src file =
  let expected =
    match Dic.Netcompare.parse expected_src with Ok e -> e | Error m -> Alcotest.fail m
  in
  let config =
    { Dic.Engine.default_config with Dic.Engine.expected_netlist = Some expected }
  in
  Dic.Report.by_rule_prefix (run_ok ~config file).Dic.Engine.report "netcmp"

let test_netcmp_consistent () =
  (* The chain's GND carries both pull-down sources. *)
  let vs =
    netcmp_run "net GND!\n0:inv.0:enh sd1\n1:inv.0:enh sd1\n"
      (Layoutgen.Cells.chain ~lambda 2)
  in
  (* Port numbering of the transistor's sd components is arbitrary; one
     of sd0/sd1 is the source.  Accept either by retrying. *)
  let vs =
    if vs = [] then []
    else
      netcmp_run "net GND!\n0:inv.0:enh sd0\n1:inv.0:enh sd0\n"
        (Layoutgen.Cells.chain ~lambda 2)
  in
  Alcotest.(check int) "consistent" 0 (List.length vs)

let test_netcmp_missing_net () =
  let vs = netcmp_run "net NO_SUCH_NET\n" (Layoutgen.Cells.chain ~lambda 1) in
  Alcotest.(check bool) "missing net" true
    (List.exists
       (fun (v : Dic.Report.violation) -> v.Dic.Report.rule = "netcmp.missing-net")
       vs)

let test_netcmp_missing_terminal () =
  let vs = netcmp_run "net GND!\n9:inv.0:enh sd0\n" (Layoutgen.Cells.chain ~lambda 1) in
  Alcotest.(check bool) "missing terminal" true
    (List.exists
       (fun (v : Dic.Report.violation) -> v.Dic.Report.rule = "netcmp.missing-terminal")
       vs)

let test_netcmp_misplaced_terminal () =
  (* Claim the depletion load's drain is on GND (it is on VDD). *)
  let src1 = "net GND!\n0:inv.1:dep sd0\n" and src2 = "net GND!\n0:inv.1:dep sd1\n" in
  let misplaced vs =
    List.exists
      (fun (v : Dic.Report.violation) -> v.Dic.Report.rule = "netcmp.misplaced-terminal")
      vs
  in
  Alcotest.(check bool) "misplaced" true
    (misplaced (netcmp_run src1 (Layoutgen.Cells.chain ~lambda 1))
    || misplaced (netcmp_run src2 (Layoutgen.Cells.chain ~lambda 1)))

let test_netcmp_exact_extra () =
  (* A closed VDD spec listing nothing flags the depletion drains. *)
  let vs = netcmp_run "net VDD! exact\n" (Layoutgen.Cells.chain ~lambda 1) in
  Alcotest.(check bool) "extra terminal" true
    (List.exists
       (fun (v : Dic.Report.violation) -> v.Dic.Report.rule = "netcmp.extra-terminal")
       vs)

(* ------------------------------------------------------------------ *)
(* Transformed instances                                               *)

let test_rotated_device_connectivity () =
  (* An enh transistor rotated a quarter turn: its diffusion now runs
     horizontally.  A diffusion wire overlapping the rotated source
     stub must join its net. *)
  let f =
    Layoutgen.Builder.file
      ~symbols:[ Layoutgen.Cells.enh ~lambda ]
      ~top_elements:
        [ (* rotated North: local (x,y) -> (-y,x); the diff stub that was
             at local y in [-3,0] now spans x in [0,3] at y in [0,2];
             approach it from the right with 2 lambda of overlap. *)
          Layoutgen.Builder.wire ~layer:"ND" ~net:"s" ~width:(l 2)
            [ (l 2, l 1); (l 8, l 1) ] ]
      ~top_calls:[ Layoutgen.Builder.call ~rot:`North ~at:(0, 0) Layoutgen.Cells.id_enh ]
      ()
  in
  let result = run_ok f in
  match Netlist.Net.find_by_name result.Dic.Engine.netlist "s" with
  | Some net ->
    Alcotest.(check int) "wire reaches the rotated stub" 1
      (List.length net.Netlist.Net.terminals)
  | None -> Alcotest.fail "net s missing"

let test_mirrored_instances_interact () =
  (* Two mirrored copies of a cell placed too close: the interaction
     stage must see the transformed geometry.  The enh's poly extends
     to local x = 4; mirrored it extends to -4.  Place the mirrored
     copy so the two poly ends come within 1 lambda. *)
  let f =
    Layoutgen.Builder.file
      ~symbols:[ Layoutgen.Cells.enh ~lambda ]
      ~top_calls:
        [ Layoutgen.Builder.call ~at:(0, 0) Layoutgen.Cells.id_enh;
          Layoutgen.Builder.call ~mirror:`X ~at:(l 9, 0) Layoutgen.Cells.id_enh ]
      ()
  in
  let result = run_ok f in
  Alcotest.(check bool) "poly-poly spacing caught across mirror" true
    (has_rule "spacing.NP" result)

let test_far_mirrored_instances_clean () =
  let f =
    Layoutgen.Builder.file
      ~symbols:[ Layoutgen.Cells.enh ~lambda ]
      ~top_calls:
        [ Layoutgen.Builder.call ~at:(0, 0) Layoutgen.Cells.id_enh;
          Layoutgen.Builder.call ~mirror:`X ~at:(l 20, 0) Layoutgen.Cells.id_enh ]
      ()
  in
  Alcotest.(check (list string)) "clean when apart" [] (error_rules (run_ok f))

(* ------------------------------------------------------------------ *)
(* Degenerate designs                                                  *)

let test_empty_design () =
  let result = run_ok (parse "E") in
  Alcotest.(check int) "no errors" 0
    (Dic.Report.count ~severity:Dic.Report.Error result.Dic.Engine.report);
  Alcotest.(check int) "no nets" 0 (List.length result.Dic.Engine.netlist.Netlist.Net.nets)

let test_uncalled_symbols_still_checked () =
  (* A defective definition with no instances is still a defect: the
     checker works per definition. *)
  let result = run_ok (parse "DS 1; L NP; B 100 600 50 300; DF; E") in
  Alcotest.(check bool) "width error in uncalled symbol" true (has_rule "width" result)

let test_deep_hierarchy () =
  (* A 10-deep chain of wrappers around one box. *)
  let rec defs n acc =
    if n = 0 then acc
    else
      defs (n - 1)
        (Layoutgen.Builder.symbol ~id:n ~name:(Printf.sprintf "w%d" n) []
           [ Layoutgen.Builder.call ~at:(l 1, 0) (n + 1) ]
        :: acc)
  in
  let leaf =
    Layoutgen.Builder.symbol ~id:11 ~name:"leaf"
      [ Layoutgen.Builder.box ~layer:"NM" 0 0 (l 3) (l 3) ]
      []
  in
  let f =
    Layoutgen.Builder.file
      ~symbols:(defs 10 [ leaf ])
      ~top_calls:[ Layoutgen.Builder.call ~at:(0, 0) 1 ]
      ()
  in
  let result = run_ok f in
  Alcotest.(check int) "clean" 0
    (Dic.Report.count ~severity:Dic.Report.Error result.Dic.Engine.report);
  Alcotest.(check int) "depth 11" 11 (Dic.Model.depth result.Dic.Engine.model)

(* ------------------------------------------------------------------ *)
(* Structure report                                                    *)

let test_structure_grid_blocks () =
  let result = run_ok (Layoutgen.Cells.grid_blocks ~lambda ~nx:4 ~ny:4) in
  let s = Dic.Structure.compute result.Dic.Engine.nets in
  Alcotest.(check int) "depth" 4 s.Dic.Structure.depth;
  Alcotest.(check int) "definition elements" 18 s.Dic.Structure.definition_elements;
  Alcotest.(check int) "instantiated" 336 s.Dic.Structure.instantiated_elements;
  let inv =
    List.find (fun x -> x.Dic.Structure.ss_name = "inv") s.Dic.Structure.symbols
  in
  Alcotest.(check int) "16 inverters" 16 inv.Dic.Structure.ss_instances;
  Alcotest.(check int) "32 contacts" 32
    (List.assoc Tech.Device.Contact_cut s.Dic.Structure.device_census);
  Alcotest.(check int) "net accounting" s.Dic.Structure.nets_total
    (s.Dic.Structure.nets_local + s.Dic.Structure.nets_crossing)

let test_structure_shared_symbols_counted_once () =
  (* A symbol instantiated through two different parents accumulates
     all paths. *)
  let f =
    parse
      "DS 1; L NM; B 300 300 150 150; DF; DS 2; C 1; C 1 T 1000 0; DF; C 2; C 2 T 0 1000; C 1 T 5000 5000; E"
  in
  let result = run_ok f in
  let s = Dic.Structure.compute result.Dic.Engine.nets in
  let leaf = List.find (fun x -> x.Dic.Structure.ss_name = "s1") s.Dic.Structure.symbols in
  (* 2 per instance of symbol 2 (x2) + 1 direct = 5. *)
  Alcotest.(check int) "multiplicity" 5 leaf.Dic.Structure.ss_instances

(* ------------------------------------------------------------------ *)
(* Incremental rechecking (a warm engine session)                      *)

let violation_set (r : Dic.Engine.result) =
  List.map
    (fun (v : Dic.Report.violation) -> (v.Dic.Report.rule, v.Dic.Report.context, v.Dic.Report.message))
    r.Dic.Engine.report.Dic.Report.violations
  |> List.sort Stdlib.compare

let engine_run e file =
  match Result.map Dic.Engine.primary @@ Dic.Engine.check e file with
  | Error e -> Alcotest.failf "engine: %s" e
  | Ok (result, reuse) -> (result, reuse)

let test_incremental_matches_fresh () =
  let e = Dic.Engine.create rules in
  let file = Layoutgen.Cells.grid ~lambda ~nx:3 ~ny:2 in
  let result, reuse = engine_run e file in
  Alcotest.(check int) "first run computes everything" 0
    reuse.Dic.Engine.symbols_reused;
  let fresh = run_ok file in
  Alcotest.(check bool) "same violations as a fresh run" true
    (violation_set result = violation_set fresh)

let test_incremental_reuses_everything_unchanged () =
  let e = Dic.Engine.create rules in
  let file = Layoutgen.Cells.grid ~lambda ~nx:3 ~ny:2 in
  let _ = engine_run e file in
  let _, reuse = engine_run e file in
  Alcotest.(check int) "all definitions reused" reuse.Dic.Engine.symbols_total
    reuse.Dic.Engine.symbols_reused

let test_incremental_recheck_only_the_edit () =
  let e = Dic.Engine.create rules in
  let file = Layoutgen.Cells.chain ~lambda 3 in
  let _ = engine_run e file in
  (* Edit the top level: drop a narrow wire in the margin. *)
  let salted, _ =
    Layoutgen.Inject.apply file
      [ Layoutgen.Inject.narrow_poly_wire ~lambda ~at:(0, -20 * lambda) ]
  in
  let result, reuse = engine_run e salted in
  (* Only the root definition changed. *)
  Alcotest.(check int) "all but the root reused"
    (reuse.Dic.Engine.symbols_total - 1)
    reuse.Dic.Engine.symbols_reused;
  Alcotest.(check bool) "the new defect is found" true (has_rule "width" result);
  let fresh = run_ok salted in
  Alcotest.(check bool) "same as fresh" true (violation_set result = violation_set fresh)

let test_incremental_fingerprint_sensitivity () =
  let m, _ = elaborate_ok (Layoutgen.Cells.chain ~lambda 2) in
  let inv = Dic.Model.find m Layoutgen.Cells.id_inv in
  let enh = Dic.Model.find m Layoutgen.Cells.id_enh in
  Alcotest.(check bool) "distinct symbols differ" true
    (Dic.Engine.fingerprint inv <> Dic.Engine.fingerprint enh);
  Alcotest.(check bool) "stable" true
    (Dic.Engine.fingerprint inv = Dic.Engine.fingerprint inv)

let test_incremental_rules_change_invalidates () =
  let e = Dic.Engine.create rules in
  let file = Layoutgen.Cells.chain ~lambda 2 in
  let _ = engine_run e file in
  (* Tighter metal width: a new deck means a new per-deck environment,
     so nothing warm applies, and the rails (3 lambda) now violate. *)
  let strict = { rules with Tech.Rules.width_metal = 4 * lambda } in
  let e = Dic.Engine.with_decks e [ Dic.Engine.deck strict ] in
  let result, reuse = engine_run e file in
  Alcotest.(check int) "cache invalidated" 0 reuse.Dic.Engine.symbols_reused;
  Alcotest.(check bool) "new rule enforced" true (has_rule "width" result)

(* ------------------------------------------------------------------ *)
(* Markers                                                             *)

let test_markers_roundtrip () =
  let kit = Layoutgen.Pathology.fig8_accidental ~lambda in
  let result = run_ok kit.Layoutgen.Pathology.file in
  let text = Dic.Markers.to_cif result.Dic.Engine.report in
  match Cif.Parse.file text with
  | Error e -> Alcotest.fail (Cif.Parse.string_of_error e)
  | Ok f ->
    let markers = Dic.Markers.of_file f in
    Alcotest.(check int) "one marker" 1 (List.length markers);
    let rule, box = List.hd markers in
    Alcotest.(check string) "rule carried" "integrity.accidental-transistor" rule;
    (* The marker covers the crossing at (15..17, 0..2) lambda. *)
    Alcotest.(check bool) "covers the defect" true
      (Geom.Rect.contains_rect box (Geom.Rect.make (l 15) (l 0) (l 17) (l 2)))

let test_markers_skip_unlocated () =
  (* ERC violations carry no rectangle and produce no marker. *)
  let salted, _ =
    Layoutgen.Inject.apply (Layoutgen.Cells.chain ~lambda 1)
      [ Layoutgen.Inject.supply_short ~lambda ~cell_origin:(0, 0) ]
  in
  let result = run_ok salted in
  Alcotest.(check int) "no located errors, no markers" 0
    (List.length (Dic.Markers.of_file (Dic.Markers.to_file result.Dic.Engine.report)))

(* ------------------------------------------------------------------ *)
(* Classify                                                            *)

let test_classify_family () =
  Alcotest.(check string) "dotted" "width" (Dic.Classify.family_of_rule "width.NP");
  Alcotest.(check string) "plain" "polydiff" (Dic.Classify.family_of_rule "polydiff")

let test_classify_matching () =
  let truth =
    { Dic.Classify.t_families = [ "width" ];
      t_where = Some (Geom.Rect.make 0 0 100 100);
      t_note = "t" }
  in
  let near =
    { Dic.Classify.f_family = "width"; f_where = Some (Geom.Rect.make 150 0 250 100);
      f_note = "near" }
  in
  let far =
    { Dic.Classify.f_family = "width"; f_where = Some (Geom.Rect.make 5000 0 5100 100);
      f_note = "far" }
  in
  let o = Dic.Classify.classify ~tolerance:100 [ truth ] [ near; far ] in
  Alcotest.(check int) "one flagged" 1 (List.length o.Dic.Classify.flagged);
  Alcotest.(check int) "one false" 1 (List.length o.Dic.Classify.false_findings)

let test_classify_global_truth () =
  let truth = { Dic.Classify.t_families = [ "erc" ]; t_where = None; t_note = "t" } in
  let f = { Dic.Classify.f_family = "erc"; f_where = None; f_note = "f" } in
  let o = Dic.Classify.classify ~tolerance:0 [ truth ] [ f ] in
  Alcotest.(check int) "matched anywhere" 1 (List.length o.Dic.Classify.flagged)

let test_classify_ratio () =
  let fs =
    List.init 5 (fun i ->
        { Dic.Classify.f_family = "width"; f_where = None; f_note = string_of_int i })
  in
  let truth = { Dic.Classify.t_families = [ "spacing" ]; t_where = None; t_note = "t" } in
  let o = Dic.Classify.classify ~tolerance:0 [ truth ] fs in
  Alcotest.(check bool) "ratio infinite" true (Dic.Classify.false_ratio o = infinity)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dic"
    [ ( "model",
        [ Alcotest.test_case "chain" `Quick test_model_chain;
          Alcotest.test_case "device binding" `Quick test_model_device_binding;
          Alcotest.test_case "unknown layer" `Quick test_model_unknown_layer;
          Alcotest.test_case "unknown device" `Quick test_model_unknown_device;
          Alcotest.test_case "device with calls" `Quick test_model_device_with_calls;
          Alcotest.test_case "non-rectilinear polygon" `Quick
            test_model_nonrect_polygon_dropped;
          Alcotest.test_case "bbox" `Quick test_model_bbox;
          Alcotest.test_case "layer region" `Quick test_model_layer_region ] );
      ( "elements",
        [ Alcotest.test_case "narrow box" `Quick test_elements_narrow_box;
          Alcotest.test_case "narrow wire" `Quick test_elements_narrow_wire;
          Alcotest.test_case "legal pass" `Quick test_elements_legal_pass;
          Alcotest.test_case "polygon width" `Quick test_elements_polygon_width;
          Alcotest.test_case "contact outside device" `Quick
            test_elements_contact_outside_device;
          Alcotest.test_case "device symbols skipped" `Quick
            test_elements_device_symbols_skipped ] );
      ( "devices",
        [ Alcotest.test_case "enh good" `Quick test_device_enh_good;
          Alcotest.test_case "enh missing gate" `Quick test_device_enh_missing_gate;
          Alcotest.test_case "enh short overhang" `Quick test_device_enh_short_overhang;
          Alcotest.test_case "enh short diff extension" `Quick
            test_device_enh_short_diff_extension;
          Alcotest.test_case "contact over gate" `Quick test_device_contact_over_gate;
          Alcotest.test_case "enh implanted" `Quick test_device_enh_implanted;
          Alcotest.test_case "dep good" `Quick test_device_dep_good;
          Alcotest.test_case "dep missing implant" `Quick test_device_dep_missing_implant;
          Alcotest.test_case "contact variants" `Quick test_device_contact_good_and_bad;
          Alcotest.test_case "butting" `Quick test_device_butting;
          Alcotest.test_case "buried" `Quick test_device_buried;
          Alcotest.test_case "pad" `Quick test_device_pad;
          Alcotest.test_case "checked waived" `Quick test_device_checked_waived;
          Alcotest.test_case "interfaces" `Quick test_device_interfaces;
          Alcotest.test_case "resistor interface" `Quick test_resistor_interface ] );
      ( "netgen",
        [ Alcotest.test_case "chain nets" `Quick test_netgen_chain_nets;
          Alcotest.test_case "dot notation" `Quick test_netgen_dot_notation;
          Alcotest.test_case "illegal connection" `Quick test_netgen_illegal_connection;
          Alcotest.test_case "resolve" `Quick test_netgen_resolve;
          Alcotest.test_case "locality" `Quick test_netgen_locality ] );
      ( "interactions",
        [ Alcotest.test_case "diff-net spacing" `Quick test_interactions_diff_net_spacing;
          Alcotest.test_case "spacing at the value bound" `Quick
            test_interactions_spacing_at_value_bound;
          Alcotest.test_case "same-net skip" `Quick test_interactions_same_net_skip;
          Alcotest.test_case "short" `Quick test_interactions_short;
          Alcotest.test_case "accidental transistor" `Quick
            test_interactions_accidental_transistor;
          Alcotest.test_case "touch is not a device" `Quick
            test_interactions_poly_diff_touch_not_accidental;
          Alcotest.test_case "memoisation" `Quick test_interactions_memoisation;
          Alcotest.test_case "net-blind ablation" `Quick
            test_interactions_net_blind_ablation ] );
      ( "end-to-end",
        [ Alcotest.test_case "chain clean" `Quick test_e2e_chain_clean;
          Alcotest.test_case "grid clean" `Quick test_e2e_grid_clean;
          Alcotest.test_case "grid-blocks clean" `Quick test_e2e_grid_blocks_clean;
          Alcotest.test_case "injections: all found, no false" `Quick
            test_e2e_injections_all_found_no_false;
          Alcotest.test_case "pathology kits" `Quick test_e2e_pathology_kits;
          Alcotest.test_case "supply short via ERC" `Quick test_e2e_supply_short_erc;
          Alcotest.test_case "stage times" `Quick test_e2e_stage_times_present ] );
      qsuite "end-to-end.props" [ prop_chain_nets; prop_grid_clean ];
      ( "process-modes",
        [ Alcotest.test_case "relational narrow poly" `Quick
            test_relational_narrow_poly_flagged;
          Alcotest.test_case "relational standard cells pass" `Quick
            test_relational_standard_cell_passes;
          Alcotest.test_case "relational via checker" `Quick test_relational_via_checker;
          Alcotest.test_case "exposure spacing tolerant" `Quick
            test_exposure_spacing_tolerates_rule_violation;
          Alcotest.test_case "exposure spacing catches bridge" `Quick
            test_exposure_spacing_catches_bridge ] );
      ( "netcompare",
        [ Alcotest.test_case "parse" `Quick test_netcmp_parse;
          Alcotest.test_case "parse error" `Quick test_netcmp_parse_error;
          Alcotest.test_case "consistent" `Quick test_netcmp_consistent;
          Alcotest.test_case "missing net" `Quick test_netcmp_missing_net;
          Alcotest.test_case "missing terminal" `Quick test_netcmp_missing_terminal;
          Alcotest.test_case "misplaced terminal" `Quick test_netcmp_misplaced_terminal;
          Alcotest.test_case "exact extra" `Quick test_netcmp_exact_extra ] );
      ( "transforms",
        [ Alcotest.test_case "rotated device connectivity" `Quick
            test_rotated_device_connectivity;
          Alcotest.test_case "mirrored instances interact" `Quick
            test_mirrored_instances_interact;
          Alcotest.test_case "far mirrored clean" `Quick test_far_mirrored_instances_clean ] );
      ( "degenerate",
        [ Alcotest.test_case "empty design" `Quick test_empty_design;
          Alcotest.test_case "uncalled symbols checked" `Quick
            test_uncalled_symbols_still_checked;
          Alcotest.test_case "deep hierarchy" `Quick test_deep_hierarchy ] );
      ( "structure",
        [ Alcotest.test_case "grid-blocks stats" `Quick test_structure_grid_blocks;
          Alcotest.test_case "shared symbol multiplicity" `Quick
            test_structure_shared_symbols_counted_once ] );
      ( "incremental",
        [ Alcotest.test_case "matches fresh run" `Quick test_incremental_matches_fresh;
          Alcotest.test_case "full reuse when unchanged" `Quick
            test_incremental_reuses_everything_unchanged;
          Alcotest.test_case "recheck only the edit" `Quick
            test_incremental_recheck_only_the_edit;
          Alcotest.test_case "fingerprint sensitivity" `Quick
            test_incremental_fingerprint_sensitivity;
          Alcotest.test_case "rules change invalidates" `Quick
            test_incremental_rules_change_invalidates ] );
      ( "markers",
        [ Alcotest.test_case "roundtrip" `Quick test_markers_roundtrip;
          Alcotest.test_case "unlocated skipped" `Quick test_markers_skip_unlocated ] );
      ( "classify",
        [ Alcotest.test_case "family" `Quick test_classify_family;
          Alcotest.test_case "matching" `Quick test_classify_matching;
          Alcotest.test_case "global truth" `Quick test_classify_global_truth;
          Alcotest.test_case "ratio" `Quick test_classify_ratio ] ) ]
