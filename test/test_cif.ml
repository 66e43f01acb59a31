(* Tests for the extended-CIF parser and printer. *)

let parse_ok src =
  match Cif.Parse.file src with
  | Ok f -> f
  | Error e -> Alcotest.failf "parse failed: %s" (Cif.Parse.string_of_error e)

let parse_err src =
  match Cif.Parse.file src with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

(* ------------------------------------------------------------------ *)
(* Elements                                                            *)

let test_box_basic () =
  let f = parse_ok "L NM; B 20 10 15 25; E" in
  match f.Cif.Ast.top_elements with
  | [ Cif.Ast.Box { layer; rect; net; _ } ] ->
    Alcotest.(check string) "layer" "NM" layer;
    Alcotest.(check bool) "net" true (net = None);
    Alcotest.(check int) "x0" 5 (Geom.Rect.x0 rect);
    Alcotest.(check int) "y0" 20 (Geom.Rect.y0 rect);
    Alcotest.(check int) "x1" 25 (Geom.Rect.x1 rect);
    Alcotest.(check int) "y1" 30 (Geom.Rect.y1 rect)
  | _ -> Alcotest.fail "expected one box"

let test_box_rotated_direction () =
  (* Direction (0,1): length runs along y. *)
  let f = parse_ok "L NM; B 20 10 0 0 0 1; E" in
  match f.Cif.Ast.top_elements with
  | [ Cif.Ast.Box { rect; _ } ] ->
    Alcotest.(check int) "width is 10" 10 (Geom.Rect.width rect);
    Alcotest.(check int) "height is 20" 20 (Geom.Rect.height rect)
  | _ -> Alcotest.fail "expected one box"

let test_box_diagonal_rejected () =
  let e = parse_err "L NM; B 20 10 0 0 1 1; E" in
  Alcotest.(check bool) "mentions direction" true
    (String.length e.Cif.Parse.message > 0)

let test_wire () =
  let f = parse_ok "L NP; W 200 0 0 1000 0 1000 500; E" in
  match f.Cif.Ast.top_elements with
  | [ Cif.Ast.Wire { width; path; _ } ] ->
    Alcotest.(check int) "width" 200 width;
    Alcotest.(check int) "points" 3 (List.length path)
  | _ -> Alcotest.fail "expected one wire"

let test_polygon () =
  let f = parse_ok "L ND; P 0 0 100 0 100 100; E" in
  match f.Cif.Ast.top_elements with
  | [ Cif.Ast.Polygon { pts; _ } ] -> Alcotest.(check int) "points" 3 (List.length pts)
  | _ -> Alcotest.fail "expected one polygon"

let test_negative_coordinates () =
  let f = parse_ok "L NM; W 200 -100 -200 300 -200; E" in
  match f.Cif.Ast.top_elements with
  | [ Cif.Ast.Wire { path = [ p; _ ]; _ } ] ->
    Alcotest.(check bool) "negative point" true (Geom.Pt.equal p (Geom.Pt.make (-100) (-200)))
  | _ -> Alcotest.fail "expected a two-point wire"

let test_element_before_layer_fails () =
  let e = parse_err "B 10 10 0 0; E" in
  Alcotest.(check bool) "layer error" true
    (Astring_contains.contains e.Cif.Parse.message "layer")

(* ------------------------------------------------------------------ *)
(* Symbols and calls                                                   *)

let test_symbol_definition () =
  let f = parse_ok "DS 7; 9 mycell; 4D ENH; L ND; B 10 10 5 5; DF; C 7 T 100 200; E" in
  (match f.Cif.Ast.symbols with
  | [ s ] ->
    Alcotest.(check int) "id" 7 s.Cif.Ast.id;
    Alcotest.(check (option string)) "name" (Some "mycell") s.Cif.Ast.name;
    Alcotest.(check (option string)) "device" (Some "ENH") s.Cif.Ast.device;
    Alcotest.(check int) "elements" 1 (List.length s.Cif.Ast.elements)
  | _ -> Alcotest.fail "expected one symbol");
  match f.Cif.Ast.top_calls with
  | [ c ] ->
    Alcotest.(check int) "callee" 7 c.Cif.Ast.callee;
    let p = Geom.Transform.apply_pt c.Cif.Ast.transform Geom.Pt.zero in
    Alcotest.(check bool) "translation" true (Geom.Pt.equal p (Geom.Pt.make 100 200))
  | _ -> Alcotest.fail "expected one call"

let test_ds_scale () =
  let f = parse_ok "DS 1 2 1; L NM; B 10 10 5 5; DF; C 1; E" in
  match (List.hd f.Cif.Ast.symbols).Cif.Ast.elements with
  | [ Cif.Ast.Box { rect; _ } ] ->
    Alcotest.(check int) "scaled width" 20 (Geom.Rect.width rect);
    Alcotest.(check int) "scaled x1" 20 (Geom.Rect.x1 rect)
  | _ -> Alcotest.fail "expected one box"

let test_ds_scale_division () =
  let f = parse_ok "DS 1 1 2; L NM; B 20 20 10 10; DF; C 1; E" in
  match (List.hd f.Cif.Ast.symbols).Cif.Ast.elements with
  | [ Cif.Ast.Box { rect; _ } ] -> Alcotest.(check int) "halved" 10 (Geom.Rect.width rect)
  | _ -> Alcotest.fail "expected one box"

let test_call_transforms () =
  let f = parse_ok "DS 1; L NM; B 10 10 5 5; DF; C 1 R 0 1 T 50 0; E" in
  match f.Cif.Ast.top_calls with
  | [ c ] ->
    (* rotate ccw then translate: (5,0) -> (0,5) -> (50,5) *)
    let p = Geom.Transform.apply_pt c.Cif.Ast.transform (Geom.Pt.make 5 0) in
    Alcotest.(check bool) "rotate then translate" true (Geom.Pt.equal p (Geom.Pt.make 50 5))
  | _ -> Alcotest.fail "expected one call"

let test_call_mirror () =
  let f = parse_ok "DS 1; L NM; B 10 10 5 5; DF; C 1 M X; E" in
  match f.Cif.Ast.top_calls with
  | [ c ] ->
    let p = Geom.Transform.apply_pt c.Cif.Ast.transform (Geom.Pt.make 5 3) in
    Alcotest.(check bool) "mirrored x" true (Geom.Pt.equal p (Geom.Pt.make (-5) 3))
  | _ -> Alcotest.fail "expected one call"

let test_nested_ds_rejected () =
  let e = parse_err "DS 1; DS 2; DF; DF; E" in
  Alcotest.(check bool) "nested" true (Astring_contains.contains e.Cif.Parse.message "nested")

let test_duplicate_symbol_rejected () =
  let e = parse_err "DS 1; DF; DS 1; DF; E" in
  Alcotest.(check bool) "dup" true (Astring_contains.contains e.Cif.Parse.message "twice")

let test_rotation_non_orthogonal_rejected () =
  let e = parse_err "DS 1; DF; C 1 R 1 1; E" in
  Alcotest.(check bool) "rot" true
    (Astring_contains.contains e.Cif.Parse.message "rotation")

(* ------------------------------------------------------------------ *)
(* Extensions                                                          *)

let test_net_annotation () =
  let f = parse_ok "L NM; B 10 10 5 5; 4N VDD!; E" in
  match f.Cif.Ast.top_elements with
  | [ e ] -> Alcotest.(check (option string)) "net" (Some "VDD!") (Cif.Ast.element_net e)
  | _ -> Alcotest.fail "expected one element"

let test_net_applies_to_latest () =
  let f = parse_ok "L NM; B 10 10 5 5; B 10 10 50 50; 4N out; E" in
  match f.Cif.Ast.top_elements with
  | [ a; b ] ->
    Alcotest.(check (option string)) "first unlabelled" None (Cif.Ast.element_net a);
    Alcotest.(check (option string)) "second labelled" (Some "out") (Cif.Ast.element_net b)
  | _ -> Alcotest.fail "expected two elements"

let test_unknown_user_command_skipped () =
  let f = parse_ok "5 whatever junk 1 2 3; L NM; B 10 10 5 5; E" in
  Alcotest.(check int) "element parsed" 1 (List.length f.Cif.Ast.top_elements)

let test_comments () =
  let f = parse_ok "(a comment (nested) here) L NM; (mid) B 10 10 5 5; E (trailing)" in
  Alcotest.(check int) "element parsed" 1 (List.length f.Cif.Ast.top_elements)

let test_net_without_element_fails () =
  let e = parse_err "4N foo; E" in
  Alcotest.(check bool) "no element" true
    (Astring_contains.contains e.Cif.Parse.message "element")

let test_missing_end () =
  let e = parse_err "L NM; B 10 10 5 5;" in
  Alcotest.(check bool) "missing E" true (Astring_contains.contains e.Cif.Parse.message "E")

(* ------------------------------------------------------------------ *)
(* Acyclicity and roots                                                *)

let test_acyclic_ok () =
  let f = parse_ok "DS 1; L NM; B 10 10 5 5; DF; DS 2; C 1; DF; C 2; E" in
  Alcotest.(check bool) "acyclic" true (Cif.Ast.check_acyclic f = Ok ())

let test_cycle_detected () =
  let f = parse_ok "DS 1; C 2; DF; DS 2; C 1; DF; C 1; E" in
  match Cif.Ast.check_acyclic f with
  | Error msg -> Alcotest.(check bool) "cycle" true (Astring_contains.contains msg "cycle")
  | Ok () -> Alcotest.fail "expected a cycle"

let test_undefined_callee () =
  let f = parse_ok "C 42; E" in
  match Cif.Ast.check_acyclic f with
  | Error msg ->
    Alcotest.(check bool) "undefined" true (Astring_contains.contains msg "undefined")
  | Ok () -> Alcotest.fail "expected undefined symbol"

let test_roots () =
  let f = parse_ok "DS 1; DF; DS 2; C 1; DF; E" in
  match Cif.Ast.roots f with
  | [ s ] -> Alcotest.(check int) "root id" 2 s.Cif.Ast.id
  | _ -> Alcotest.fail "expected one root"

(* ------------------------------------------------------------------ *)
(* Printer round trip                                                  *)

let norm_file (f : Cif.Ast.file) =
  (* Compare through geometry: layer, bbox, nets, call transforms. *)
  let elt e =
    (Cif.Ast.element_layer e, Cif.Ast.element_bbox e, Cif.Ast.element_net e)
  in
  ( List.map
      (fun (s : Cif.Ast.symbol) ->
        (s.Cif.Ast.id, s.Cif.Ast.name, s.Cif.Ast.device,
         List.map elt s.Cif.Ast.elements,
         List.map (fun (c : Cif.Ast.call) -> (c.Cif.Ast.callee, c.Cif.Ast.transform)) s.Cif.Ast.calls))
      f.Cif.Ast.symbols,
    List.map elt f.Cif.Ast.top_elements,
    List.map (fun (c : Cif.Ast.call) -> (c.Cif.Ast.callee, c.Cif.Ast.transform)) f.Cif.Ast.top_calls )

let roundtrip f =
  let printed = Cif.Print.to_string f in
  let f' = parse_ok printed in
  Alcotest.(check bool) "roundtrip" true (norm_file f = norm_file f')

let test_print_roundtrip_simple () =
  roundtrip
    (parse_ok
       "DS 3; 9 cell; 4D CON; L NC; B 200 200 100 100; L NM; B 400 400 100 100; 4N x; DF; C 3 T 500 700; C 3 R 0 1 T 0 0; C 3 M X T -100 50; E")

let test_print_roundtrip_inverter () =
  roundtrip (Layoutgen.Cells.chain ~lambda:100 2)

let test_print_odd_box_as_polygon () =
  (* A box with odd dimensions cannot be centre-specified; the printer
     falls back to a polygon with the same bbox. *)
  let f =
    { Cif.Ast.symbols = [];
      top_elements =
        [ Cif.Ast.Box { layer = "NM"; rect = Geom.Rect.make 0 0 5 7; net = None; loc = None } ];
      top_calls = [];
      waivers = [] }
  in
  let f' = parse_ok (Cif.Print.to_string f) in
  match f'.Cif.Ast.top_elements with
  | [ e ] ->
    Alcotest.(check bool) "same bbox" true
      (Geom.Rect.equal (Cif.Ast.element_bbox e) (Geom.Rect.make 0 0 5 7))
  | _ -> Alcotest.fail "expected one element"

let test_error_line_numbers () =
  let e = parse_err "L NM;\nB 10 10 0 0;\nB bogus; E" in
  Alcotest.(check int) "line 3" 3 e.Cif.Parse.line

(* A literal past 2^30 used to wrap modulo 2^63: this one read as 400. *)
let test_literal_bound () =
  let e = parse_err "L NM;\nB 9223372036854776208 400 0 0;\nE" in
  Alcotest.(check int) "wrapped literal refused on its line" 2 e.Cif.Parse.line;
  let bound = Cif.Parse.max_literal in
  Alcotest.(check int) "bound is 2^30" (1 lsl 30) bound;
  (match (parse_ok (Printf.sprintf "L NM; B 2 2 %d -%d; E" bound bound)).Cif.Ast.top_elements with
  | [ Cif.Ast.Box { rect; _ } ] ->
    Alcotest.(check int) "+2^30 accepted" (bound + 1) (Geom.Rect.x1 rect);
    Alcotest.(check int) "-2^30 accepted" (-bound - 1) (Geom.Rect.y0 rect)
  | _ -> Alcotest.fail "expected one box");
  let e = parse_err (Printf.sprintf "L NM;\nB 2 2 0 0;\n\nB 2 2 %d 0; E" (bound + 1)) in
  Alcotest.(check int) "2^30 + 1 refused on its line" 4 e.Cif.Parse.line;
  let e = parse_err (Printf.sprintf "L NM; B 2 2 0 -%d; E" (bound + 1)) in
  Alcotest.(check int) "-(2^30 + 1) refused" 1 e.Cif.Parse.line

(* ------------------------------------------------------------------ *)
(* Fuzzing                                                             *)

(* The parser must never raise on arbitrary input: it returns Ok or a
   positioned Error. *)
let prop_parse_total =
  QCheck2.Test.make ~name:"parser: total on arbitrary bytes" ~count:1000
    QCheck2.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 80))
    (fun s ->
      match Cif.Parse.file s with Ok _ | Error _ -> true)

let prop_parse_total_cif_like =
  (* Streams built from CIF-ish tokens exercise deeper paths. *)
  let token =
    QCheck2.Gen.oneofl
      [ "B"; "W"; "P"; "L"; "DS"; "DF"; "C"; "E"; ";"; "NM"; "ND"; "4N"; "9";
        "T"; "M"; "X"; "R"; "0"; "1"; "42"; "-7"; "(c)"; " " ]
  in
  QCheck2.Test.make ~name:"parser: total on CIF-like token soup" ~count:1000
    QCheck2.Gen.(map (String.concat " ") (list_size (int_range 0 30) token))
    (fun s ->
      match Cif.Parse.file s with Ok _ | Error _ -> true)

let element_gen =
  let open QCheck2.Gen in
  let layer = oneofl [ "NM"; "ND"; "NP"; "NC" ] in
  let net = oneofl [ None; Some "a"; Some "VDD!" ] in
  let coord = map (fun v -> 2 * v) (int_range (-50) 50) in
  oneof
    [ map2
        (fun (layer, net) (x, y, w, h) ->
          Cif.Ast.Box
            { layer;
              rect = Geom.Rect.make x y (x + (2 * w) + 2) (y + (2 * h) + 2);
              net;
              loc = None })
        (pair layer net)
        (quad coord coord (int_range 0 20) (int_range 0 20));
      map2
        (fun (layer, net) (x, y, len) ->
          Cif.Ast.Wire
            { layer;
              width = 200;
              path = [ Geom.Pt.make x y; Geom.Pt.make (x + (2 * len) + 2) y ];
              net;
              loc = None })
        (pair layer net)
        (triple coord coord (int_range 0 30)) ]

let norm_file_prop (f : Cif.Ast.file) =
  List.map
    (fun e -> (Cif.Ast.element_layer e, Cif.Ast.element_bbox e, Cif.Ast.element_net e))
    f.Cif.Ast.top_elements

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~name:"printer: parse (print f) = f on generated files" ~count:200
    QCheck2.Gen.(list_size (int_range 0 8) element_gen)
    (fun elements ->
      let f = { Cif.Ast.symbols = []; top_elements = elements; top_calls = []; waivers = [] } in
      match Cif.Parse.file (Cif.Print.to_string f) with
      | Ok f' -> norm_file_prop f = norm_file_prop f'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cif"
    [ ( "elements",
        [ Alcotest.test_case "box basic" `Quick test_box_basic;
          Alcotest.test_case "box rotated direction" `Quick test_box_rotated_direction;
          Alcotest.test_case "box diagonal rejected" `Quick test_box_diagonal_rejected;
          Alcotest.test_case "wire" `Quick test_wire;
          Alcotest.test_case "polygon" `Quick test_polygon;
          Alcotest.test_case "negative coordinates" `Quick test_negative_coordinates;
          Alcotest.test_case "element before layer" `Quick test_element_before_layer_fails ] );
      ( "symbols",
        [ Alcotest.test_case "definition" `Quick test_symbol_definition;
          Alcotest.test_case "DS scale up" `Quick test_ds_scale;
          Alcotest.test_case "DS scale down" `Quick test_ds_scale_division;
          Alcotest.test_case "call transforms" `Quick test_call_transforms;
          Alcotest.test_case "call mirror" `Quick test_call_mirror;
          Alcotest.test_case "nested DS rejected" `Quick test_nested_ds_rejected;
          Alcotest.test_case "duplicate symbol" `Quick test_duplicate_symbol_rejected;
          Alcotest.test_case "non-orthogonal rotation" `Quick
            test_rotation_non_orthogonal_rejected ] );
      ( "extensions",
        [ Alcotest.test_case "net annotation" `Quick test_net_annotation;
          Alcotest.test_case "net applies to latest" `Quick test_net_applies_to_latest;
          Alcotest.test_case "unknown user command" `Quick test_unknown_user_command_skipped;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "net without element" `Quick test_net_without_element_fails;
          Alcotest.test_case "missing end" `Quick test_missing_end ] );
      ( "structure",
        [ Alcotest.test_case "acyclic ok" `Quick test_acyclic_ok;
          Alcotest.test_case "cycle detected" `Quick test_cycle_detected;
          Alcotest.test_case "undefined callee" `Quick test_undefined_callee;
          Alcotest.test_case "roots" `Quick test_roots ] );
      ( "printer",
        [ Alcotest.test_case "roundtrip simple" `Quick test_print_roundtrip_simple;
          Alcotest.test_case "roundtrip inverter chain" `Quick test_print_roundtrip_inverter;
          Alcotest.test_case "odd box via polygon" `Quick test_print_odd_box_as_polygon;
          Alcotest.test_case "error line numbers" `Quick test_error_line_numbers;
          Alcotest.test_case "literal bound" `Quick test_literal_bound ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_parse_total; prop_parse_total_cif_like; prop_print_parse_roundtrip ] ) ]
