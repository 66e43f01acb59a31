(* Tests for the technology description: layers, rules, the Fig 12
   interaction matrix, device kinds, and net classification. *)

let rules = Tech.Rules.nmos ()

(* ------------------------------------------------------------------ *)
(* Layers                                                              *)

let test_layer_names_roundtrip () =
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Tech.Layer.to_cif l) true
        (Tech.Layer.of_cif (Tech.Layer.to_cif l) = Some l))
    Tech.Layer.all

let test_layer_case_insensitive () =
  Alcotest.(check bool) "lowercase" true (Tech.Layer.of_cif "nd" = Some Tech.Layer.Diffusion);
  Alcotest.(check bool) "unknown" true (Tech.Layer.of_cif "XX" = None)

let test_layer_interconnect () =
  Alcotest.(check bool) "metal routes" true (Tech.Layer.is_interconnect Tech.Layer.Metal);
  Alcotest.(check bool) "implant does not" false
    (Tech.Layer.is_interconnect Tech.Layer.Implant);
  Alcotest.(check bool) "contact does not" false
    (Tech.Layer.is_interconnect Tech.Layer.Contact)

let test_layer_indices_distinct () =
  let idx = List.map Tech.Layer.index Tech.Layer.all in
  Alcotest.(check int) "distinct" (List.length Tech.Layer.all)
    (List.length (List.sort_uniq Int.compare idx))

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)

let test_lambda_scaling () =
  let r1 = Tech.Rules.nmos ~lambda:100 () and r2 = Tech.Rules.nmos ~lambda:50 () in
  Alcotest.(check int) "width scales" 2
    (r1.Tech.Rules.width_poly / r2.Tech.Rules.width_poly);
  Alcotest.(check int) "spacing scales" 2
    (r1.Tech.Rules.space_metal / r2.Tech.Rules.space_metal)

let test_mead_conway_numbers () =
  Alcotest.(check int) "diff width 2L" 200 (Tech.Rules.min_width rules Tech.Layer.Diffusion);
  Alcotest.(check int) "poly width 2L" 200 (Tech.Rules.min_width rules Tech.Layer.Poly);
  Alcotest.(check int) "metal width 3L" 300 (Tech.Rules.min_width rules Tech.Layer.Metal);
  Alcotest.(check int) "diff space 3L" 300
    (Tech.Rules.same_layer_space rules Tech.Layer.Diffusion);
  Alcotest.(check int) "poly space 2L" 200
    (Tech.Rules.same_layer_space rules Tech.Layer.Poly);
  Alcotest.(check int) "implant surround 1.5L" 150 rules.Tech.Rules.implant_gate_surround

let test_skeleton_half () =
  List.iter
    (fun l ->
      Alcotest.(check int)
        (Tech.Layer.to_cif l)
        (Tech.Rules.min_width rules l / 2)
        (Tech.Rules.skeleton_half rules l))
    Tech.Layer.all

let test_cross_layer_space () =
  Alcotest.(check (option int)) "poly-diff" (Some 100)
    (Tech.Rules.cross_layer_space rules Tech.Layer.Poly Tech.Layer.Diffusion);
  Alcotest.(check (option int)) "symmetric" (Some 100)
    (Tech.Rules.cross_layer_space rules Tech.Layer.Diffusion Tech.Layer.Poly);
  Alcotest.(check (option int)) "metal-diff none" None
    (Tech.Rules.cross_layer_space rules Tech.Layer.Metal Tech.Layer.Diffusion)

let test_rules_to_of_string_roundtrip () =
  let r = Tech.Rules.nmos ~lambda:150 () in
  match Tech.Rules.of_string (Tech.Rules.to_string r) with
  | Ok r' ->
    (* Parsing records source positions — provenance, not a rule — so
       the roundtrip is equality up to [key_positions]. *)
    Alcotest.(check bool) "roundtrip" true
      ({ r' with Tech.Rules.key_positions = [] } = r);
    Alcotest.(check bool) "positions recorded" true
      (Tech.Rules.position r' "lambda" <> None)
  | Error msg -> Alcotest.fail msg

let test_rules_of_string_overrides () =
  match Tech.Rules.of_string "lambda 200\nwidth_metal 800 # wider\nname coarse\n" with
  | Ok r ->
    Alcotest.(check int) "lambda defaults" 400 r.Tech.Rules.width_poly;
    Alcotest.(check int) "override" 800 r.Tech.Rules.width_metal;
    Alcotest.(check string) "name" "coarse" r.Tech.Rules.name
  | Error msg -> Alcotest.fail msg

let test_rules_of_string_errors () =
  (match Tech.Rules.of_string "no_such_key 5\n" with
  | Error msg -> Alcotest.(check bool) "unknown key" true
      (Astring_contains.contains msg "unknown")
  | Ok _ -> Alcotest.fail "expected an error");
  (match Tech.Rules.of_string "width_metal zero\n" with
  | Error msg -> Alcotest.(check bool) "bad int" true
      (Astring_contains.contains msg "integer")
  | Ok _ -> Alcotest.fail "expected an error");
  match Tech.Rules.of_string "width metal 3\n" with
  | Error msg -> Alcotest.(check bool) "malformed" true
      (Astring_contains.contains msg "malformed")
  | Ok _ -> Alcotest.fail "expected an error"

(* Spacing checks square rule values in native ints: 2^30 is the
   largest value whose square (and a sum of two) cannot overflow. *)
let test_rules_value_bound () =
  let deck v = Printf.sprintf "name big\nlambda 100\nspace_metal %s\n" v in
  (match Tech.Rules.of_string (deck "1073741824") with
  | Ok r -> Alcotest.(check int) "2^30 accepted" (1 lsl 30) r.Tech.Rules.space_metal
  | Error msg -> Alcotest.failf "2^30 refused: %s" msg);
  List.iter
    (fun v ->
      match Tech.Rules.of_string (deck v) with
      | Error msg ->
        Alcotest.(check bool) (v ^ " refused on its line") true
          (Astring_contains.contains msg "line 3")
      | Ok _ -> Alcotest.failf "%s accepted" v)
    [ "1073741825"; "3000000000" ];
  (* A lambda whose scaled defaults leave the range is refused too. *)
  (match Tech.Rules.of_string "lambda 500000000\n" with
  | Error msg ->
    Alcotest.(check bool) "derived value named" true
      (Astring_contains.contains msg "width_metal")
  | Ok _ -> Alcotest.fail "lambda 5e8 accepted");
  Alcotest.(check (list (pair string int))) "builtin deck in range" []
    (Tech.Rules.out_of_range (Tech.Rules.nmos ()));
  Alcotest.(check bool) "lambda 0 out of range" true
    (Tech.Rules.out_of_range (Tech.Rules.nmos ~lambda:0 ()) <> [])

(* The lenient loader keeps the first occurrence of every known key
   with a valid value, and lists every other line's problem in the
   order the strict loader reports them. *)
let test_rules_load_problems () =
  let src =
    "frob 1\nwidth_metal abc\nlambda x\nspace_poly 300 # first\nspace_poly 2\n\
     bad line here\nspace_diffusion_poly 150\n# lint: allow R003\n"
  in
  let deck, problems = Tech.Rules.load src in
  let show { Tech.Rules.line; kind } =
    match kind with
    | Tech.Rules.Malformed text -> Printf.sprintf "%d malformed %s" line text
    | Tech.Rules.Duplicate { key; first } ->
      Printf.sprintf "%d duplicate %s of %d" line key first
    | Tech.Rules.Unknown_key key -> Printf.sprintf "%d unknown %s" line key
    | Tech.Rules.Bad_value { key; value } -> Printf.sprintf "%d bad %s=%s" line key value
  in
  Alcotest.(check (list string)) "problems in precedence order"
    [ "6 malformed bad line here"; "5 duplicate space_poly of 4"; "3 bad lambda=x";
      "1 unknown frob"; "2 bad width_metal=abc" ]
    (List.map show problems);
  Alcotest.(check (list (pair string int))) "survivors' positions"
    [ ("space_poly", 4); ("space_diffusion_poly", 7) ]
    deck.Tech.Rules.key_positions;
  Alcotest.(check int) "first space_poly wins" 300 deck.Tech.Rules.space_poly;
  Alcotest.(check int) "defaults at lambda 100" 300 deck.Tech.Rules.width_metal;
  Alcotest.(check (option int)) "override kept" (Some 150)
    (Tech.Rules.pair_space deck Tech.Layer.Diffusion Tech.Layer.Poly);
  Alcotest.(check (list string)) "waivers" [ "R003" ] deck.Tech.Rules.waivers;
  match Tech.Rules.of_string src with
  | Error msg ->
    Alcotest.(check string) "of_string refuses the first problem"
      "line 6: malformed line: \"bad line here\"" msg
  | Ok _ -> Alcotest.fail "of_string accepted a deck with problems"

(* ------------------------------------------------------------------ *)
(* The interaction matrix                                              *)

let test_matrix_symmetric () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Tech.Layer.to_cif a ^ "-" ^ Tech.Layer.to_cif b)
            true
            (Tech.Interaction.entry rules a b = Tech.Interaction.entry rules b a))
        Tech.Layer.routing)
    Tech.Layer.routing

let test_matrix_paper_cells () =
  let open Tech in
  (* Metal relates to neither poly nor diffusion. *)
  Alcotest.(check bool) "M-D no rule" true
    (Interaction.entry rules Layer.Metal Layer.Diffusion = Interaction.No_rule);
  Alcotest.(check bool) "M-P no rule" true
    (Interaction.entry rules Layer.Metal Layer.Poly = Interaction.No_rule);
  (* Contact interactions belong to the device checks. *)
  List.iter
    (fun l ->
      Alcotest.(check bool)
        ("C-" ^ Layer.to_cif l)
        true
        (Interaction.entry rules Layer.Contact l = Interaction.Device_checked))
    [ Layer.Diffusion; Layer.Poly; Layer.Metal ];
  (* Same-layer interconnect: same-net checks are skipped. *)
  List.iter
    (fun l ->
      match Interaction.entry rules l l with
      | Interaction.Space { same_net = None; diff_net } ->
        Alcotest.(check bool) "positive spacing" true (diff_net > 0)
      | _ -> Alcotest.fail "expected a same-net-skipping spacing entry")
    [ Layer.Diffusion; Layer.Poly; Layer.Metal ];
  (* Poly-diffusion is checked even on one net (accidental devices). *)
  match Interaction.entry rules Layer.Poly Layer.Diffusion with
  | Interaction.Space { same_net = Some s; diff_net } ->
    Alcotest.(check int) "1 lambda" 100 s;
    Alcotest.(check int) "same both ways" s diff_net
  | _ -> Alcotest.fail "expected poly-diff spacing entry"

(* The flat matrix is [entry] over every layer pair, overrides
   included. *)
let test_matrix_flat () =
  let n = List.length Tech.Layer.all in
  List.iter
    (fun r ->
      let m = Tech.Interaction.matrix r in
      Alcotest.(check int) "n * n cells" (n * n) (Array.length m);
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              Alcotest.(check bool)
                (Tech.Layer.to_cif a ^ "-" ^ Tech.Layer.to_cif b)
                true
                (m.((Tech.Layer.index a * n) + Tech.Layer.index b)
                = Tech.Interaction.entry r a b))
            Tech.Layer.all)
        Tech.Layer.all)
    [ rules;
      { rules with
        Tech.Rules.pair_spaces =
          [ ((Tech.Layer.Diffusion, Tech.Layer.Poly), 150);
            ((Tech.Layer.Metal, Tech.Layer.Poly), 300) ] } ]

let test_matrix_cells_upper_triangular () =
  let cells = Tech.Interaction.cells rules in
  Alcotest.(check int) "4 choose 2 + 4" 10 (List.length cells);
  List.iter
    (fun (a, b, _) ->
      Alcotest.(check bool) "ordered" true (Tech.Layer.index a <= Tech.Layer.index b))
    cells

(* ------------------------------------------------------------------ *)
(* Devices                                                             *)

let test_device_tags_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check bool) (Tech.Device.to_tag k) true
        (Tech.Device.of_tag (Tech.Device.to_tag k) = Some k))
    Tech.Device.all

let test_device_tag_case () =
  Alcotest.(check bool) "lowercase" true
    (Tech.Device.of_tag "enh" = Some Tech.Device.Enhancement);
  Alcotest.(check bool) "unknown" true (Tech.Device.of_tag "FOO" = None)

let test_device_transistors () =
  Alcotest.(check bool) "enh" true (Tech.Device.is_transistor Tech.Device.Enhancement);
  Alcotest.(check bool) "dep" true (Tech.Device.is_transistor Tech.Device.Depletion);
  Alcotest.(check bool) "contact" false (Tech.Device.is_transistor Tech.Device.Contact_cut)

let test_device_ties () =
  Alcotest.(check bool) "transistor ties nothing" true
    (Tech.Device.ties Tech.Device.Enhancement = []);
  Alcotest.(check bool) "buried ties poly-diff" true
    (List.mem (Tech.Layer.Poly, Tech.Layer.Diffusion) (Tech.Device.ties Tech.Device.Buried_contact));
  Alcotest.(check int) "butting ties three ways" 3
    (List.length (Tech.Device.ties Tech.Device.Butting_contact))

(* ------------------------------------------------------------------ *)
(* Net classes                                                         *)

let test_netclass () =
  let check name cls =
    Alcotest.(check string) name (Tech.Netclass.to_string cls)
      (Tech.Netclass.to_string (Tech.Netclass.classify name))
  in
  check "VDD" Tech.Netclass.Power;
  check "VDD!" Tech.Netclass.Power;
  check "vcc" Tech.Netclass.Power;
  check "GND!" Tech.Netclass.Ground;
  check "VSS" Tech.Netclass.Ground;
  check "BUS3!" Tech.Netclass.Bus;
  check "bus_data" Tech.Netclass.Bus;
  check "out" Tech.Netclass.Signal;
  check "" Tech.Netclass.Signal

let test_netclass_supply () =
  Alcotest.(check bool) "power" true (Tech.Netclass.is_supply Tech.Netclass.Power);
  Alcotest.(check bool) "ground" true (Tech.Netclass.is_supply Tech.Netclass.Ground);
  Alcotest.(check bool) "bus" false (Tech.Netclass.is_supply Tech.Netclass.Bus)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "tech"
    [ ( "layers",
        [ Alcotest.test_case "name roundtrip" `Quick test_layer_names_roundtrip;
          Alcotest.test_case "case insensitive" `Quick test_layer_case_insensitive;
          Alcotest.test_case "interconnect" `Quick test_layer_interconnect;
          Alcotest.test_case "indices distinct" `Quick test_layer_indices_distinct ] );
      ( "rules",
        [ Alcotest.test_case "lambda scaling" `Quick test_lambda_scaling;
          Alcotest.test_case "mead-conway numbers" `Quick test_mead_conway_numbers;
          Alcotest.test_case "skeleton half" `Quick test_skeleton_half;
          Alcotest.test_case "cross-layer space" `Quick test_cross_layer_space;
          Alcotest.test_case "rule file roundtrip" `Quick test_rules_to_of_string_roundtrip;
          Alcotest.test_case "rule file overrides" `Quick test_rules_of_string_overrides;
          Alcotest.test_case "rule file errors" `Quick test_rules_of_string_errors;
          Alcotest.test_case "rule value bound" `Quick test_rules_value_bound;
          Alcotest.test_case "rule file problems" `Quick test_rules_load_problems ] );
      ( "interaction",
        [ Alcotest.test_case "symmetric" `Quick test_matrix_symmetric;
          Alcotest.test_case "paper cells" `Quick test_matrix_paper_cells;
          Alcotest.test_case "upper triangular" `Quick test_matrix_cells_upper_triangular;
          Alcotest.test_case "flat" `Quick test_matrix_flat ] );
      ( "devices",
        [ Alcotest.test_case "tag roundtrip" `Quick test_device_tags_roundtrip;
          Alcotest.test_case "tag case" `Quick test_device_tag_case;
          Alcotest.test_case "transistors" `Quick test_device_transistors;
          Alcotest.test_case "ties" `Quick test_device_ties ] );
      ( "netclass",
        [ Alcotest.test_case "classify" `Quick test_netclass;
          Alcotest.test_case "supply" `Quick test_netclass_supply ] ) ]
