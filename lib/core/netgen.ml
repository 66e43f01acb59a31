type group = {
  gid : int;
  skels : (Tech.Layer.t * Geom.Rect.t list) list;
  labels : string list;
  terminals : Netlist.Net.terminal list;
  element_count : int;
  crossing : bool;
}

type sym_nets = {
  groups : group array;
  elt_group : int option array;
  sub_group : (int * int, int) Hashtbl.t;
}

type t = {
  model : Model.t;
  by_symbol : (int, sym_nets) Hashtbl.t;
}

let nets_of t sid =
  match Hashtbl.find_opt t.by_symbol sid with
  | Some sn -> sn
  | None -> invalid_arg (Printf.sprintf "Netgen.nets_of: symbol %d" sid)

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

(* ------------------------------------------------------------------ *)
(* Device symbols: groups come straight from the electrical interface. *)

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
  (* Assign each element to the port whose connection surface it
     belongs to (same layer, skeletons touching). *)
  let elt_group =
    Array.of_list
      (List.map
         (fun (e : Model.element) ->
           let rec first i =
             if i >= Array.length groups then None
             else
               let g = groups.(i) in
               match List.assoc_opt e.Model.layer (g.skels |> List.map (fun (l, r) -> (l, r))) with
               | Some rects when Geom.Skeleton.connected e.Model.skeleton rects -> Some i
               | _ -> first (i + 1)
           in
           first 0)
         s.Model.elements)
  in
  { groups; elt_group; sub_group = Hashtbl.create 1 }

(* ------------------------------------------------------------------ *)
(* Composite symbols                                                   *)

type node_src =
  | N_elt of Model.element
  | N_sub of int * int * group  (** call idx, child gid, the child group *)

let compose model rules (s : Model.symbol) child_nets =
  let context = s.Model.sname in
  let issues = ref [] in
  (* Instance labels are needed once per (call, child group) node below;
     an association scan over [s.calls] there would be quadratic in the
     instance count — at a million rectangles TOP has half a million
     calls, and that scan, not the geometry, was the whole stage cost. *)
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
  (* Stage 4: legal connections.  Same-layer local elements whose drawn
     geometry touches must be on one net (skeletally connected, possibly
     transitively); touching without connection is the butting error. *)
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
  ignore rules;
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

let build (model : Model.t) =
  let by_symbol = Hashtbl.create 16 in
  let issues = ref [] in
  List.iter
    (fun (s : Model.symbol) ->
      let sn =
        if Model.is_device s then device_sym_nets model.Model.rules s
        else begin
          let sn, errs =
            compose model model.Model.rules s (fun sid -> Hashtbl.find by_symbol sid)
          in
          issues := errs @ !issues;
          sn
        end
      in
      Hashtbl.replace by_symbol s.Model.sid sn)
    model.Model.symbols;
  ({ model; by_symbol }, List.rev !issues)

let classes_of names =
  List.map Tech.Netclass.classify names
  |> List.sort_uniq Stdlib.compare
  |> List.filter (fun c -> not (Tech.Netclass.equal c Tech.Netclass.Signal))

let netlist t =
  let root = nets_of t Model.root_id in
  let nets =
    Array.to_list root.groups
    |> List.map (fun (g : group) ->
           { Netlist.Net.names = g.labels;
             auto_name = Printf.sprintf "n%d" g.gid;
             classes = classes_of g.labels;
             terminals = g.terminals;
             element_count = g.element_count })
  in
  { Netlist.Net.nets }

let locality t =
  let root = nets_of t Model.root_id in
  Array.fold_left
    (fun (local, crossing) (g : group) ->
      if g.crossing then (local, crossing + 1) else (local + 1, crossing))
    (0, 0) root.groups
