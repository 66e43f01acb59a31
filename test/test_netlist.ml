(* Tests for union-find, the net-list builder, and the four
   non-geometric construction rules. *)

(* ------------------------------------------------------------------ *)
(* Union-find                                                          *)

let test_uf_basic () =
  let uf = Netlist.Uf.create () in
  let a = Netlist.Uf.make uf and b = Netlist.Uf.make uf and c = Netlist.Uf.make uf in
  Alcotest.(check bool) "initially apart" false (Netlist.Uf.same uf a b);
  Netlist.Uf.union uf a b;
  Alcotest.(check bool) "joined" true (Netlist.Uf.same uf a b);
  Alcotest.(check bool) "c apart" false (Netlist.Uf.same uf a c);
  Netlist.Uf.union uf b c;
  Alcotest.(check bool) "transitive" true (Netlist.Uf.same uf a c)

let test_uf_classes () =
  let uf = Netlist.Uf.create () in
  let nodes = List.init 6 (fun _ -> Netlist.Uf.make uf) in
  (match nodes with
  | [ a; b; c; d; _e; _f ] ->
    Netlist.Uf.union uf a b;
    Netlist.Uf.union uf c d
  | _ -> assert false);
  let classes = Netlist.Uf.classes uf in
  Alcotest.(check int) "4 classes" 4 (List.length classes);
  Alcotest.(check int) "6 members total" 6
    (List.fold_left (fun acc c -> acc + List.length c) 0 classes)

let test_uf_growth () =
  let uf = Netlist.Uf.create () in
  let nodes = List.init 1000 (fun _ -> Netlist.Uf.make uf) in
  List.iteri (fun i n -> if i > 0 then Netlist.Uf.union uf (List.hd nodes) n) nodes;
  Alcotest.(check int) "one class" 1 (List.length (Netlist.Uf.classes uf));
  Alcotest.(check int) "size" 1000 (Netlist.Uf.size uf)

let prop_uf_equivalence =
  QCheck2.Test.make ~name:"uf: same is an equivalence closure of unions" ~count:200
    QCheck2.Gen.(
      pair (int_range 2 20) (list_size (int_range 0 40) (pair (int_range 0 19) (int_range 0 19))))
    (fun (n, unions) ->
      let unions = List.filter (fun (a, b) -> a < n && b < n) unions in
      let uf = Netlist.Uf.create () in
      for _ = 1 to n do
        ignore (Netlist.Uf.make uf)
      done;
      List.iter (fun (a, b) -> Netlist.Uf.union uf a b) unions;
      (* Reference: repeated relaxation over an explicit matrix. *)
      let reach = Array.make_matrix n n false in
      for i = 0 to n - 1 do
        reach.(i).(i) <- true
      done;
      List.iter
        (fun (a, b) ->
          reach.(a).(b) <- true;
          reach.(b).(a) <- true)
        unions;
      let changed = ref true in
      while !changed do
        changed := false;
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            for k = 0 to n - 1 do
              if reach.(i).(k) && reach.(k).(j) && not reach.(i).(j) then begin
                reach.(i).(j) <- true;
                changed := true
              end
            done
          done
        done
      done;
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Netlist.Uf.same uf i j <> reach.(i).(j) then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Nets and terminal trees                                             *)

(* One device terminal, as a part under the instance label [path]. *)
let terminal path kind port = (path, Netlist.Net.port kind port)

let net_with ?(names = []) ?(terminals = []) ?(elements = 1) auto =
  { Netlist.Net.gid = Scanf.sscanf auto "n%d" Fun.id;
    terminals = Netlist.Net.union ~labels:names terminals;
    element_count = elements }

let test_net_classes () =
  let net = net_with ~names:[ "GND!"; "VDD!" ] "n0" in
  Alcotest.(check bool) "power" true (Netlist.Net.has_class net Tech.Netclass.Power);
  Alcotest.(check bool) "ground" true (Netlist.Net.has_class net Tech.Netclass.Ground);
  Alcotest.(check string) "display uses a label" "GND!" (Netlist.Net.display_name net)

let paths ts =
  List.map
    (fun (t : Netlist.Net.terminal) -> t.Netlist.Net.device_path ^ " " ^ t.Netlist.Net.port)
    (Netlist.Net.flatten ts)

(* Two levels sharing one cell tree: parts flatten in the order given,
   each under its label, and the counts are cached at every node. *)
let test_flatten_order () =
  let open Netlist.Net in
  let cell =
    union
      [ ("1:dep", port Tech.Device.Depletion "sd0"); ("0:enh", port Tech.Device.Enhancement "gate") ]
  in
  let via = union [ ("2:con", port Tech.Device.Contact_cut "via") ] in
  let top = union [ ("1:inv", cell); ("0:inv", cell); ("3:wire", via) ] in
  Alcotest.(check (list string)) "dotted paths, in part order"
    [ "1:inv.1:dep sd0"; "1:inv.0:enh gate"; "0:inv.1:dep sd0"; "0:inv.0:enh gate";
      "3:wire.2:con via" ]
    (paths top);
  Alcotest.(check (list string)) "a port alone has the empty path" [ " gate" ]
    (paths (port Tech.Device.Enhancement "gate"));
  Alcotest.(check (list int)) "count, functional, depletion" [ 5; 4; 2 ]
    [ count top; functional top; depletion top ];
  Alcotest.(check bool) "union [] is one shared value" true (union [] == union []);
  Alcotest.(check int) "union [] flattens to nothing" 0 (List.length (flatten (union [])))

(* ------------------------------------------------------------------ *)
(* Labels of random net trees, against qualified string lists          *)

(* The reference composes string lists: every child label qualified
   under its instance label at every level, global ones kept by name,
   sorted at the top.  The tree must give the same names, read its
   classes from its cached mask, and take its display name as the least
   name. *)
let is_global l = String.length l > 0 && l.[String.length l - 1] = '!'
let qualify inst l = if is_global l then l else inst ^ "." ^ l

let classes_of names =
  List.map Tech.Netclass.classify names
  |> List.sort_uniq Stdlib.compare
  |> List.filter (fun c -> not (Tech.Netclass.equal c Tech.Netclass.Signal))

let label_pool = [| "a"; "out"; "VDD"; "gnd"; "bus7"; "VDD!"; "GND!"; "bus1!"; "PHI1!" |]

(* A random tree of at most [depth] levels and its reference labels.
   A node's global set is every global name below it, plus a few that
   stand for children merged in by name only, without a part. *)
let rec random_tree rng depth =
  let int n = Random.State.int rng n in
  let own () = List.init (int 3) (fun _ -> label_pool.(int (Array.length label_pool))) in
  if depth = 0 || int 4 = 0 then
    let labels = List.sort_uniq String.compare (own ()) in
    (Netlist.Net.port ~labels Tech.Device.Enhancement "gate", labels)
  else
    let children = List.init (int 3) (fun _ -> random_tree rng (depth - 1)) in
    (* A child can sit under two instance labels, sharing one tree. *)
    let parts =
      List.concat
        (List.mapi
           (fun k child ->
             let inst i = Printf.sprintf "%d:%s" i [| "inv"; "sbit"; "cell" |].(int 3) in
             if int 4 = 0 then [ (inst k, child); (inst (k + 10), child) ] else [ (inst k, child) ])
           children)
    in
    let labels = own () in
    let by_name = List.filter is_global (own ()) in
    let globals =
      List.sort_uniq String.compare
        (List.filter is_global labels
        @ by_name
        @ List.concat_map (fun (_, (t, _)) -> Netlist.Net.globals t) parts)
    in
    let tree =
      Netlist.Net.union ~labels ~globals (List.map (fun (inst, (t, _)) -> (inst, t)) parts)
    in
    let reference =
      List.sort_uniq String.compare
        (labels @ by_name
        @ List.concat_map (fun (inst, (_, ls)) -> List.map (qualify inst) ls) parts)
    in
    (tree, reference)

let test_label_trees () =
  let rng = Random.State.make [| 0x1abe1 |] in
  for case = 1 to 400 do
    let tree, reference = random_tree rng 3 in
    let net = { Netlist.Net.gid = 7; terminals = tree; element_count = 1 } in
    let names = Netlist.Net.names net in
    let what fmt = Printf.sprintf ("tree %d: " ^^ fmt) case in
    Alcotest.(check (list string)) (what "names") reference names;
    Alcotest.(check bool) (what "names sorted and unique") true
      (names = List.sort_uniq String.compare names);
    Alcotest.(check bool) (what "classes from the mask") true
      (Netlist.Net.classes net = classes_of names);
    let least =
      match reference with
      | [] -> "n7"
      | l :: ls -> List.fold_left (fun m l -> if String.compare l m < 0 then l else m) l ls
    in
    Alcotest.(check string) (what "display name is the least name") least
      (Netlist.Net.display_name net)
  done;
  (* A qualified label begins with an instance label, so it is never a
     supply or a bus: the mask can ignore the parts' labels. *)
  Array.iter
    (fun l ->
      if not (is_global l) then
        Alcotest.(check bool) ("3:cell." ^ l ^ " is a signal") true
          (Tech.Netclass.equal (Tech.Netclass.classify ("3:cell." ^ l)) Tech.Netclass.Signal))
    label_pool

(* ------------------------------------------------------------------ *)
(* ERC                                                                 *)

let has_violation pred vs = List.exists pred vs

let test_erc_floating () =
  let t =
    { Netlist.Net.nets =
        [ net_with ~terminals:[ terminal "t1" Tech.Device.Enhancement "gate" ] "n0" ] }
  in
  Alcotest.(check bool) "flagged" true
    (has_violation
       (function Netlist.Erc.Floating_net { terminals = 1; _ } -> true | _ -> false)
       (Netlist.Erc.check t))

let test_erc_floating_ok_with_two () =
  let t =
    { Netlist.Net.nets =
        [ net_with
            ~terminals:
              [ terminal "t1" Tech.Device.Enhancement "gate";
                terminal "t2" Tech.Device.Depletion "sd0" ]
            "n0" ] }
  in
  Alcotest.(check bool) "clean" false
    (has_violation (function Netlist.Erc.Floating_net _ -> true | _ -> false)
       (Netlist.Erc.check t))

let test_erc_contacts_not_devices () =
  (* Contacts are wiring: a net with two contacts and one transistor
     terminal still floats. *)
  let t =
    { Netlist.Net.nets =
        [ net_with
            ~terminals:
              [ terminal "c1" Tech.Device.Contact_cut "via";
                terminal "c2" Tech.Device.Buried_contact "via";
                terminal "t1" Tech.Device.Enhancement "gate" ]
            "n0" ] }
  in
  Alcotest.(check bool) "still floating" true
    (has_violation (function Netlist.Erc.Floating_net _ -> true | _ -> false)
       (Netlist.Erc.check t))

let test_erc_supplies_exempt_from_floating () =
  let t = { Netlist.Net.nets = [ net_with ~names:[ "VDD!" ] "n0" ] } in
  Alcotest.(check bool) "supply exempt" false
    (has_violation (function Netlist.Erc.Floating_net _ -> true | _ -> false)
       (Netlist.Erc.check t))

let test_erc_supply_short () =
  let t = { Netlist.Net.nets = [ net_with ~names:[ "GND!"; "VDD!" ] "n0" ] } in
  Alcotest.(check bool) "flagged" true
    (has_violation (function Netlist.Erc.Supply_short _ -> true | _ -> false)
       (Netlist.Erc.check t))

let test_erc_bus_on_supply () =
  let t = { Netlist.Net.nets = [ net_with ~names:[ "BUS0!"; "GND!" ] "n0" ] } in
  Alcotest.(check bool) "flagged" true
    (has_violation (function Netlist.Erc.Bus_on_supply _ -> true | _ -> false)
       (Netlist.Erc.check t));
  let ok = { Netlist.Net.nets = [ net_with ~names:[ "BUS0!"; "data" ] "n0" ] } in
  Alcotest.(check bool) "bus on signal fine" false
    (has_violation (function Netlist.Erc.Bus_on_supply _ -> true | _ -> false)
       (Netlist.Erc.check ok))

let test_erc_depletion_on_ground () =
  let t =
    { Netlist.Net.nets =
        [ net_with ~names:[ "GND!" ]
            ~terminals:[ terminal "x.dep" Tech.Device.Depletion "sd0" ]
            "n0" ] }
  in
  Alcotest.(check bool) "flagged" true
    (has_violation
       (function
         | Netlist.Erc.Depletion_on_ground { device_path = "x.dep"; _ } -> true
         | _ -> false)
       (Netlist.Erc.check t));
  (* An enhancement pull-down on ground is of course fine. *)
  let ok =
    { Netlist.Net.nets =
        [ net_with ~names:[ "GND!" ]
            ~terminals:[ terminal "x.enh" Tech.Device.Enhancement "sd0" ]
            "n0" ] }
  in
  Alcotest.(check bool) "enhancement fine" false
    (has_violation (function Netlist.Erc.Depletion_on_ground _ -> true | _ -> false)
       (Netlist.Erc.check ok))

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "netlist"
    [ ( "uf",
        [ Alcotest.test_case "basic" `Quick test_uf_basic;
          Alcotest.test_case "classes" `Quick test_uf_classes;
          Alcotest.test_case "growth" `Quick test_uf_growth ] );
      qsuite "uf.props" [ prop_uf_equivalence ];
      ( "net",
        [ Alcotest.test_case "classes" `Quick test_net_classes;
          Alcotest.test_case "flatten order" `Quick test_flatten_order;
          Alcotest.test_case "labels of random trees" `Quick test_label_trees ] );
      ( "erc",
        [ Alcotest.test_case "floating" `Quick test_erc_floating;
          Alcotest.test_case "two devices ok" `Quick test_erc_floating_ok_with_two;
          Alcotest.test_case "contacts are wiring" `Quick test_erc_contacts_not_devices;
          Alcotest.test_case "supplies exempt" `Quick test_erc_supplies_exempt_from_floating;
          Alcotest.test_case "supply short" `Quick test_erc_supply_short;
          Alcotest.test_case "bus on supply" `Quick test_erc_bus_on_supply;
          Alcotest.test_case "depletion on ground" `Quick test_erc_depletion_on_ground ] ) ]
