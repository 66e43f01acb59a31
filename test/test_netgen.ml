(* Net-list generation pinned against an oracle: the original
   instance-by-instance [compose], which copies every child group's
   connection surface through each call's transform and indexes every
   (call, child group) node on its own.  [Netgen.build] must reproduce
   its output exactly — net list, locality, every symbol's element and
   sub-group maps, the groups themselves and the connection issues — on
   the generator workloads and on seeded random hierarchies with
   rotated, mirrored and coincident calls.  A metamorphic property then
   checks that one global placement change of the top level leaves the
   net list unchanged. *)

module B = Layoutgen.Builder
module T = Geom.Transform

let rules = Tech.Rules.nmos ()
let lambda = rules.Tech.Rules.lambda
let l v = v * lambda

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> ( try int_of_string s with _ -> 0x5eed)
  | None -> 0x5eed

let elaborate_ok file =
  match Dic.Model.elaborate rules file with
  | Ok (m, _) -> m
  | Error e -> Alcotest.failf "elaborate: %s" e

(* ------------------------------------------------------------------ *)
(* The oracle: [Netgen.build] as it was before the call-pair pass,
   kept verbatim (only qualified from outside the library).            *)

module Oracle = struct
  open Dic
  open Netgen

  let instance_label model (c : Model.call) =
    let callee = Model.find model c.Model.callee in
    Printf.sprintf "%d:%s" c.Model.cidx callee.Model.sname

  let is_global name = String.length name > 0 && name.[String.length name - 1] = '!'
  let qualify inst label = if is_global label then label else inst ^ "." ^ label

  let hull_of = function
    | [] -> None
    | r :: rs -> Some (List.fold_left Geom.Rect.hull r rs)

  let merge_skels skels =
    let tbl = Hashtbl.create 4 in
    List.iter
      (fun (layer, rects) ->
        let cur = try Hashtbl.find tbl layer with Not_found -> [] in
        Hashtbl.replace tbl layer (rects @ cur))
      skels;
    Hashtbl.fold (fun layer rects acc -> (layer, rects) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Tech.Layer.compare a b)

  let device_sym_nets rules (s : Model.symbol) =
    let iface =
      match Devices.interface rules s with Some i -> i | None -> assert false
    in
    let kind = match s.Model.device with Some k -> k | None -> assert false in
    let groups =
      Array.of_list
        (List.mapi
           (fun gid (p : Devices.port) ->
             { gid;
               skels = merge_skels p.Devices.players;
               labels = p.Devices.plabels;
               terminals =
                 [ { Netlist.Net.device_path = ""; device = kind; port = p.Devices.pname } ];
               element_count = 0;
               crossing = false })
           iface.Devices.ports)
    in
    let elt_group =
      Array.of_list
        (List.map
           (fun (e : Model.element) ->
             let rec first i =
               if i >= Array.length groups then None
               else
                 let g = groups.(i) in
                 match List.assoc_opt e.Model.layer g.skels with
                 | Some rects when Geom.Skeleton.connected e.Model.skeleton rects -> Some i
                 | _ -> first (i + 1)
             in
             first 0)
           s.Model.elements)
    in
    { groups; elt_group; sub_group = Hashtbl.create 1 }

  type node_src =
    | N_elt of Model.element
    | N_sub of int * int * group  (** call idx, child gid, the child group *)

  let compose model (s : Model.symbol) child_nets =
    let context = s.Model.sname in
    let issues = ref [] in
    let call_by_cidx = Hashtbl.create (List.length s.Model.calls) in
    List.iter
      (fun (c : Model.call) -> Hashtbl.replace call_by_cidx c.Model.cidx c)
      s.Model.calls;
    let nodes = ref [] in
    (* Element nodes. *)
    List.iter
      (fun (e : Model.element) ->
        if Tech.Layer.is_interconnect e.Model.layer then nodes := N_elt e :: !nodes)
      s.Model.elements;
    (* Child group nodes, with transformed skeletons. *)
    List.iter
      (fun (c : Model.call) ->
        let cn : sym_nets = child_nets c.Model.callee in
        Array.iter
          (fun (g : group) ->
            let skels =
              List.map
                (fun (layer, rects) ->
                  (layer, List.map (Geom.Transform.apply_rect c.Model.transform) rects))
                g.skels
            in
            nodes := N_sub (c.Model.cidx, g.gid, { g with skels }) :: !nodes)
          cn.groups)
      s.Model.calls;
    let nodes = Array.of_list (List.rev !nodes) in
    let n = Array.length nodes in
    let uf = Netlist.Uf.create () in
    for _ = 1 to n do
      ignore (Netlist.Uf.make uf)
    done;
    (* Spatial index over per-layer connection surfaces. *)
    let idx = Geom.Grid_index.create ~cell:400 () in
    Array.iteri
      (fun i node ->
        let entries =
          match node with
          | N_elt e -> [ (e.Model.layer, e.Model.skeleton) ]
          | N_sub (_, _, g) -> g.skels
        in
        List.iter
          (fun (layer, rects) ->
            match hull_of rects with
            | Some h -> Geom.Grid_index.add idx h (i, layer, rects)
            | None -> ())
          entries)
      nodes;
    List.iter
      (fun (((_, (i, la, ra)), (_, (j, lb, rb))) :
             (Geom.Rect.t * (int * Tech.Layer.t * Geom.Rect.t list))
             * (Geom.Rect.t * (int * Tech.Layer.t * Geom.Rect.t list))) ->
        if i <> j && Tech.Layer.equal la lb && Geom.Skeleton.connected ra rb then
          Netlist.Uf.union uf i j)
      (Geom.Grid_index.pairs_within idx 0);
    (* Merge global labels by name. *)
    let node_labels i =
      match nodes.(i) with
      | N_elt e -> Option.to_list e.Model.net_label
      | N_sub (_, _, g) -> g.labels
    in
    let first_global = Hashtbl.create 8 in
    Array.iteri
      (fun i _ ->
        List.iter
          (fun l ->
            if is_global l then
              match Hashtbl.find_opt first_global l with
              | Some j -> Netlist.Uf.union uf i j
              | None -> Hashtbl.add first_global l i)
          (node_labels i))
      nodes;
    (* Legal connections. *)
    let geo_idx = Geom.Grid_index.create ~cell:400 () in
    Array.iteri
      (fun i node ->
        match node with
        | N_elt e -> (
          match hull_of e.Model.rects with
          | Some h -> Geom.Grid_index.add geo_idx h (i, e)
          | None -> ())
        | N_sub _ -> ())
      nodes;
    List.iter
      (fun ((_, (i, (ea : Model.element))), (_, (j, (eb : Model.element)))) ->
        if
          i <> j
          && Tech.Layer.equal ea.Model.layer eb.Model.layer
          && (not (Netlist.Uf.same uf i j))
          && List.exists
               (fun ra -> List.exists (fun rb -> Geom.Rect.touches ~a:ra ~b:rb) eb.Model.rects)
               ea.Model.rects
        then
          let loc =
            match ea.Model.loc with Some _ as l -> l | None -> eb.Model.loc
          in
          issues :=
            Report.error ~stage:Report.Connections ~rule:"connection.illegal"
              ~where:(Geom.Rect.hull ea.Model.bbox eb.Model.bbox) ~context ?loc
              (Printf.sprintf
                 "%s elements touch but are not skeletally connected (butting?)"
                 (Tech.Layer.to_cif ea.Model.layer))
            :: !issues)
      (Geom.Grid_index.pairs_within geo_idx 0);
    (* Build groups from union-find classes. *)
    let root_of = Array.init n (fun i -> Netlist.Uf.find uf i) in
    let class_ids = Hashtbl.create 16 in
    let next_gid = ref 0 in
    Array.iter
      (fun r ->
        if not (Hashtbl.mem class_ids r) then begin
          Hashtbl.add class_ids r !next_gid;
          incr next_gid
        end)
      root_of;
    let n_groups = !next_gid in
    let skels = Array.make n_groups []
    and labels = Array.make n_groups []
    and terminals = Array.make n_groups []
    and counts = Array.make n_groups 0
    and crossing = Array.make n_groups false in
    let elt_group = Array.make (List.length s.Model.elements) None in
    let sub_group = Hashtbl.create 32 in
    Array.iteri
      (fun i node ->
        let gid = Hashtbl.find class_ids root_of.(i) in
        match node with
        | N_elt e ->
          skels.(gid) <- (e.Model.layer, e.Model.skeleton) :: skels.(gid);
          (match e.Model.net_label with
          | Some l -> labels.(gid) <- l :: labels.(gid)
          | None -> ());
          counts.(gid) <- counts.(gid) + 1;
          elt_group.(e.Model.eid) <- Some gid
        | N_sub (cidx, child_gid, g) ->
          let inst = instance_label model (Hashtbl.find call_by_cidx cidx) in
          skels.(gid) <- g.skels @ skels.(gid);
          labels.(gid) <- List.map (qualify inst) g.labels @ labels.(gid);
          terminals.(gid) <-
            List.map
              (fun (t : Netlist.Net.terminal) ->
                { t with
                  Netlist.Net.device_path =
                    (if t.Netlist.Net.device_path = "" then inst
                     else inst ^ "." ^ t.Netlist.Net.device_path) })
              g.terminals
            @ terminals.(gid);
          counts.(gid) <- counts.(gid) + g.element_count;
          crossing.(gid) <- true;
          Hashtbl.replace sub_group (cidx, child_gid) gid)
      nodes;
    let groups =
      Array.init n_groups (fun gid ->
          { gid;
            skels = merge_skels skels.(gid);
            labels = List.sort_uniq String.compare labels.(gid);
            terminals = terminals.(gid);
            element_count = counts.(gid);
            crossing = crossing.(gid) })
    in
    ({ groups; elt_group; sub_group }, !issues)

  let build (model : Model.t) : Netgen.t * Report.violation list =
    let by_symbol = Hashtbl.create 16 in
    let issues = ref [] in
    List.iter
      (fun (s : Model.symbol) ->
        let sn =
          if Model.is_device s then device_sym_nets model.Model.rules s
          else begin
            let sn, errs = compose model s (fun sid -> Hashtbl.find by_symbol sid) in
            issues := errs @ !issues;
            sn
          end
        in
        Hashtbl.replace by_symbol s.Model.sid sn)
      model.Model.symbols;
    ({ model; by_symbol }, List.rev !issues)
end

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

let sorted_skels skels =
  List.map (fun (layer, rects) -> (layer, List.sort Geom.Rect.compare rects)) skels

let sub_groups (sn : Dic.Netgen.sym_nets) =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) sn.Dic.Netgen.sub_group []
  |> List.sort compare

(* Everything but the root's connection surface, which nothing reads:
   no symbol calls the root. *)
let same_group ~root (a : Dic.Netgen.group) (b : Dic.Netgen.group) =
  a.Dic.Netgen.gid = b.Dic.Netgen.gid
  && a.Dic.Netgen.labels = b.Dic.Netgen.labels
  && a.Dic.Netgen.terminals = b.Dic.Netgen.terminals
  && a.Dic.Netgen.element_count = b.Dic.Netgen.element_count
  && a.Dic.Netgen.crossing = b.Dic.Netgen.crossing
  && (root || sorted_skels a.Dic.Netgen.skels = sorted_skels b.Dic.Netgen.skels)

let check_against_oracle name model =
  let want, want_issues = Oracle.build model in
  let got, got_issues = Dic.Netgen.build model in
  let check what ok = if not ok then Alcotest.failf "%s: %s differs from the oracle" name what in
  check "netlist" (Dic.Netgen.netlist got = Dic.Netgen.netlist want);
  check "locality" (Dic.Netgen.locality got = Dic.Netgen.locality want);
  check "connection issues" (got_issues = want_issues);
  List.iter
    (fun (s : Dic.Model.symbol) ->
      let sid = s.Dic.Model.sid in
      let a = Dic.Netgen.nets_of got sid and b = Dic.Netgen.nets_of want sid in
      let what = Printf.sprintf "symbol %s" s.Dic.Model.sname in
      check (what ^ " elt_group") (a.Dic.Netgen.elt_group = b.Dic.Netgen.elt_group);
      check (what ^ " sub_group") (sub_groups a = sub_groups b);
      let root = sid = Dic.Model.root_id in
      check (what ^ " groups")
        (Array.length a.Dic.Netgen.groups = Array.length b.Dic.Netgen.groups
        && Array.for_all2 (same_group ~root) a.Dic.Netgen.groups b.Dic.Netgen.groups))
    model.Dic.Model.symbols

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

(* Seeded random hierarchy over the device library: three levels of
   composite symbols, each drawing random interconnect boxes (some
   labelled, locally or globally) over a small span so that surfaces
   touch often, and calling lower levels under random rotations,
   mirrors and offsets — occasionally twice in exactly the same place. *)
let random_file rng =
  let int n = Random.State.int rng n in
  let layers = [| "NM"; "NP"; "ND" |] in
  let nets = [| None; None; None; Some "a"; Some "b"; Some "VDD!"; Some "GND!" |] in
  let span = 24 in
  let rand_box () =
    let x = int span and y = int span in
    let w = 1 + int 5 and h = 1 + int 8 in
    let w, h = if int 2 = 0 then (w, h) else (h, w) in
    B.box ~layer:layers.(int 3) ?net:nets.(int (Array.length nets)) (l x) (l y)
      (l (x + w)) (l (y + h))
  in
  let rand_call callees =
    let rot = [| `East; `North; `West; `South |].(int 4) in
    let mirror = [| None; Some `X; Some `Y |].(int 3) in
    B.call ~at:(l (int span), l (int span)) ~rot ?mirror
      (List.nth callees (int (List.length callees)))
  in
  let calls callees =
    List.concat
      (List.init (1 + int 4) (fun _ ->
           let c = rand_call callees in
           if int 5 = 0 then [ c; c ] else [ c ]))
  in
  let devices = Layoutgen.Cells.device_symbols ~lambda in
  let device_ids = List.map (fun (s : Cif.Ast.symbol) -> s.Cif.Ast.id) devices in
  let level base count callees =
    List.init count (fun i ->
        let id = base + i in
        B.symbol ~id ~name:(Printf.sprintf "s%d" id)
          (List.init (int 6) (fun _ -> rand_box ()))
          (calls callees))
  in
  let ids = List.map (fun (s : Cif.Ast.symbol) -> s.Cif.Ast.id) in
  let l1 = level 20 3 device_ids in
  let l2 = level 30 3 (ids l1 @ device_ids) in
  let l3 = level 40 2 (ids l2 @ ids l1) in
  B.file
    ~symbols:(devices @ l1 @ l2 @ l3)
    ~top_elements:(List.init (int 6) (fun _ -> rand_box ()))
    ~top_calls:(calls (ids l3 @ ids l2))
    ()

let orientations =
  List.concat_map
    (fun m -> List.map (fun r -> T.compose (T.rotate r) m) [ `East; `North; `West; `South ])
    [ T.identity; T.mirror_x ]

(* The same relative placement of two cells, repeated under all eight
   orientations and at several offsets at the top level. *)
let orientation_file () =
  let inv = Layoutgen.Cells.inverter ~lambda in
  let rel = T.compose (T.translate (l 14) (l 3)) (T.rotate `North) in
  let call tr = { Cif.Ast.callee = Layoutgen.Cells.id_inv; transform = tr; call_loc = None } in
  let top_calls =
    List.concat
      (List.mapi
         (fun k o ->
           let at = T.compose (T.translate (l (60 * k)) (l (7 * k))) o in
           [ call at; call (T.compose at rel) ])
         orientations)
  in
  B.file ~symbols:(Layoutgen.Cells.device_symbols ~lambda @ [ inv ]) ~top_calls ()

(* Coincident identical calls and labels both local and global, across
   two levels. *)
let coincident_file () =
  let inv = Layoutgen.Cells.inverter ~lambda in
  let pair =
    B.symbol ~id:50 ~name:"pair"
      [ B.box ~layer:"NM" ~net:"x" 0 0 (l 4) (l 40); B.box ~layer:"NM" ~net:"VDD!" (l 30) 0 (l 34) (l 4) ]
      [ B.call Layoutgen.Cells.id_inv; B.call Layoutgen.Cells.id_inv;
        B.call ~at:(l 14, 0) Layoutgen.Cells.id_inv ]
  in
  B.file
    ~symbols:(Layoutgen.Cells.device_symbols ~lambda @ [ inv; pair ])
    ~top_elements:[ B.box ~layer:"NM" ~net:"x" (l 100) (l 100) (l 104) (l 104) ]
    ~top_calls:[ B.call 50; B.call 50; B.call ~at:(l 28, 0) ~mirror:`X 50 ]
    ()

(* A resistor one unit tall: its halves are too thin to erode, so the
   two port surfaces keep their shared edge and touch within one call. *)
let touching_ports_file () =
  let thin = B.symbol ~id:60 ~name:"thinres" ~device:"RES" [ B.box ~layer:"ND" 0 0 (l 10) 1 ] [] in
  let wrap = B.symbol ~id:61 ~name:"wrap" [] [ B.call 60; B.call ~at:(l 20, 0) ~rot:`North 60 ] in
  B.file ~symbols:[ thin; wrap ] ~top_calls:[ B.call 61; B.call ~at:(0, l 30) 60 ] ()

let salted_pla () =
  let base = Layoutgen.Pla.tier ~lambda ~rows:12 ~cols:24 in
  let margin = (24 * Layoutgen.Pla.pitch * lambda) + (6 * lambda) in
  fst
    (Layoutgen.Inject.apply base
       (Layoutgen.Inject.standard_batch ~lambda ~at:(margin, 0) ~step:(10 * lambda)
       @ [ Layoutgen.Inject.supply_short ~lambda ~cell_origin:(0, 0) ]))

let workloads =
  [ ("shift-register-64", fun () -> Layoutgen.Shift.register ~lambda 64);
    ("pla-24x48", fun () -> Layoutgen.Pla.tier ~lambda ~rows:24 ~cols:48);
    ("salted pla-12x24", salted_pla);
    ("grid-blocks 6x4", fun () -> Layoutgen.Cells.grid_blocks ~lambda ~nx:6 ~ny:4);
    ("same relative placement, 8 orientations", orientation_file);
    ("coincident calls, global and local labels", coincident_file);
    ("device ports touching each other", touching_ports_file) ]
  @ List.map
      (fun (k : Layoutgen.Pathology.kit) ->
        ("pathology " ^ k.Layoutgen.Pathology.kit_name, fun () -> k.Layoutgen.Pathology.file))
      (Layoutgen.Pathology.all ~lambda)

let test_workload name make () = check_against_oracle name (elaborate_ok (make ()))

let test_random () =
  let rng = Random.State.make [| seed |] in
  for case = 1 to 150 do
    check_against_oracle (Printf.sprintf "random hierarchy %d" case)
      (elaborate_ok (random_file rng))
  done

(* ------------------------------------------------------------------ *)
(* Metamorphic: one global placement of the whole top level            *)

let transform_element g (e : Cif.Ast.element) =
  match e with
  | Cif.Ast.Box b -> Cif.Ast.Box { b with rect = T.apply_rect g b.rect }
  | Cif.Ast.Wire w -> Cif.Ast.Wire { w with path = List.map (T.apply_pt g) w.path }
  | Cif.Ast.Polygon p -> Cif.Ast.Polygon { p with pts = List.map (T.apply_pt g) p.pts }

let place_top g (f : Cif.Ast.file) =
  { f with
    Cif.Ast.top_elements = List.map (transform_element g) f.Cif.Ast.top_elements;
    top_calls =
      List.map
        (fun (c : Cif.Ast.call) -> { c with Cif.Ast.transform = T.compose g c.Cif.Ast.transform })
        f.Cif.Ast.top_calls }

let netlist_of file = Dic.Netgen.netlist (fst (Dic.Netgen.build (elaborate_ok file)))

let test_metamorphic () =
  let rng = Random.State.make [| seed + 1 |] in
  let inputs =
    List.init 40 (fun _ -> random_file rng)
    @ [ Layoutgen.Shift.register ~lambda 16; orientation_file (); coincident_file () ]
  in
  List.iteri
    (fun i file ->
      let want = netlist_of file in
      List.iter
        (fun o ->
          let g =
            T.compose (T.translate (l (Random.State.int rng 50 - 25)) (l (Random.State.int rng 50))) o
          in
          if netlist_of (place_top g file) <> want then
            Alcotest.failf "input %d: net list changed under global placement %s" i
              (Format.asprintf "%a" T.pp g))
        orientations)
    inputs

(* The call-pair counters: every candidate pair is either a memo hit or
   a miss, and eight orientations of one relative placement cost one
   miss per distinct (callee, callee, relative placement) key. *)
let test_counters () =
  let m = Dic.Metrics.create () in
  ignore (Dic.Netgen.build ~metrics:m (elaborate_ok (orientation_file ())));
  let c = Dic.Metrics.counter m in
  Alcotest.(check int) "pairs = hits + misses" (c "netgen.call_pairs")
    (c "netgen.memo_hits" + c "netgen.memo_misses");
  Alcotest.(check bool) "the relative placement is reused" true (c "netgen.memo_hits" >= 7);
  let pla = Dic.Metrics.create () in
  ignore
    (Dic.Netgen.build ~metrics:pla (elaborate_ok (Layoutgen.Pla.tier ~lambda ~rows:24 ~cols:48)));
  Alcotest.(check bool) "a PLA needs a handful of misses" true
    (Dic.Metrics.counter pla "netgen.memo_misses" <= 64
    && Dic.Metrics.counter pla "netgen.memo_hits" > 1000)

let () =
  Alcotest.run "netgen"
    [ ( "oracle",
        List.map (fun (name, make) -> Alcotest.test_case name `Quick (test_workload name make)) workloads
        @ [ Alcotest.test_case "seeded random hierarchies" `Quick test_random ] );
      ("metamorphic", [ Alcotest.test_case "global placement of the top level" `Quick test_metamorphic ]);
      ("counters", [ Alcotest.test_case "call pairs, memo hits and misses" `Quick test_counters ]) ]
