type group = {
  gid : int;
  skels : (Tech.Layer.t * Geom.Rect.t list) list;
  terminals : Netlist.Net.terminals;
  element_count : int;
  crossing : bool;
}

type sym_nets = {
  groups : group array;
  elt_group : int option array;
  sub_group : int array array;
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
  string_of_int c.Model.cidx ^ ":" ^ callee.Model.sname

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
             terminals = Netlist.Net.port ~labels:p.Devices.plabels kind p.Devices.pname;
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
               match List.assoc_opt e.Model.layer g.skels with
               | Some rects when Geom.Skeleton.connected e.Model.skeleton rects -> Some i
               | _ -> first (i + 1)
           in
           first 0)
         s.Model.elements)
  in
  { groups; elt_group; sub_group = [||] }

(* ------------------------------------------------------------------ *)
(* Callee surfaces and call-pair connectivity                          *)

(* A callee's connection surface, indexed once in its own frame: one
   item per surface rect, tagged with its group and layer.  Calls never
   copy it; they query it through their transform. *)
type surface = {
  shull : Geom.Rect.t;  (** of every group's surface *)
  sidx : (int * Tech.Layer.t) Geom.Grid_index.t;
  self_pairs : (int * int) list;
      (** distinct groups whose surfaces touch each other *)
}

(* [self_pairs] matter for device ports only: a composite symbol's
   groups are union-find classes of touching surfaces, so two of them
   never touch. *)
let surface_of ~device (sn : sym_nets) =
  let sidx = Geom.Grid_index.create ~cell:400 () in
  let hull = ref None in
  Array.iter
    (fun (g : group) ->
      List.iter
        (fun (layer, rects) ->
          List.iter
            (fun r ->
              Geom.Grid_index.add sidx r (g.gid, layer);
              hull := Some (match !hull with None -> r | Some h -> Geom.Rect.hull h r))
            rects)
        g.skels)
    sn.groups;
  Option.map
    (fun shull ->
      let self_pairs = ref [] in
      if device then
        Geom.Grid_index.iter_pairs_within sidx 0 (fun (_, (ga, la)) (_, (gb, lb)) ->
            if ga <> gb && Tech.Layer.equal la lb then self_pairs := (ga, gb) :: !self_pairs);
      { shull; sidx; self_pairs = !self_pairs })
    !hull

(* Group pairs [(ga, gb)] whose surfaces touch when [b] is placed in
   [a]'s frame by [rel].  A touching point lies in both hulls, so only
   [b]'s rects reaching the hulls' overlap are looked up in [a]'s index:
   the cost is bounded by the overlap, not by the two surfaces. *)
let touching a b rel =
  match Geom.Rect.inter a.shull (Geom.Transform.apply_rect rel b.shull) with
  | None -> []
  | Some window ->
    let found = Hashtbl.create 8 in
    Geom.Grid_index.iter_query b.sidx
      (Geom.Transform.apply_rect (Geom.Transform.inverse rel) window)
      (fun rb (gb, lb) ->
        Geom.Grid_index.iter_query a.sidx (Geom.Transform.apply_rect rel rb)
          (fun _ (ga, la) -> if Tech.Layer.equal la lb then Hashtbl.replace found (ga, gb) ()));
    Hashtbl.fold (fun p () acc -> p :: acc) found []

(* State shared by every symbol of one [build]. *)
type pass = {
  surfaces : (int, surface option) Hashtbl.t;  (** by symbol id, root excluded *)
  memo : (int * int) list Placement_class.Tbl.t;
  mutable call_pairs : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
}

(* ------------------------------------------------------------------ *)
(* Composite symbols                                                   *)

type candidate =
  | Elt of int  (** element node *)
  | Call of int  (** position in the symbol's calls *)

(* Nodes are the interconnect elements, then each call's child groups in
   gid order, so call [k]'s group [g] is node [base.(k) + g].  Candidate
   pairs are found per call, not per (call, child group): one index
   item per call, judged against the callee's untransformed surface. *)
let compose pass model (s : Model.symbol) child_nets =
  let context = s.Model.sname in
  let issues = ref [] in
  let elts =
    Array.of_list
      (List.filter (fun (e : Model.element) -> Tech.Layer.is_interconnect e.Model.layer)
         s.Model.elements)
  in
  let calls = Array.of_list s.Model.calls in
  let child = Array.map (fun (c : Model.call) -> child_nets c.Model.callee) calls in
  let surfs =
    Array.map (fun (c : Model.call) -> Hashtbl.find pass.surfaces c.Model.callee) calls
  in
  let n = ref (Array.length elts) in
  let base =
    Array.map
      (fun (cn : sym_nets) ->
        let b = !n in
        n := b + Array.length cn.groups;
        b)
      child
  in
  let n = !n in
  let uf = Netlist.Uf.create () in
  for _ = 1 to n do
    ignore (Netlist.Uf.make uf)
  done;
  let union = Netlist.Uf.union uf in
  (* Candidates: element skeleton hulls and placed callee hulls. *)
  let items =
    Array.append
      (Array.mapi (fun i (e : Model.element) -> (hull_of e.Model.skeleton, Elt i)) elts)
      (Array.mapi
         (fun k (c : Model.call) ->
           ( Option.map (fun sf -> Geom.Transform.apply_rect c.Model.transform sf.shull) surfs.(k),
             Call k ))
         calls)
  in
  (* Placed callee hulls are far larger than element skeletons; the
     index sizes its cells from twice the items' median extent, with 400
     as the floor, so a call covers a few cells rather than hundreds. *)
  let idx = Geom.Grid_index.create ~cell:400 () in
  Array.iter (fun (h, item) -> Option.iter (fun h -> Geom.Grid_index.add idx h item) h) items;
  let elt_call i k =
    let e = elts.(i) and sf = Option.get surfs.(k) in
    let inv = Geom.Transform.inverse calls.(k).Model.transform in
    List.iter
      (fun r ->
        Geom.Grid_index.iter_query sf.sidx (Geom.Transform.apply_rect inv r) (fun _ (g, layer) ->
            if Tech.Layer.equal layer e.Model.layer then union i (base.(k) + g)))
      e.Model.skeleton
  in
  (* Placements are orthogonal isometries, so which groups of two calls
     touch depends only on the callees and the relative placement
     [ta^-1 . tb]: replicated arrays reuse a handful of them. *)
  let call_call ka kb =
    pass.call_pairs <- pass.call_pairs + 1;
    let ca = calls.(ka) and cb = calls.(kb) in
    let rel =
      Geom.Transform.compose (Geom.Transform.inverse ca.Model.transform) cb.Model.transform
    in
    let key = (ca.Model.callee, cb.Model.callee, rel) in
    let pairs =
      match Placement_class.Tbl.find_opt pass.memo key with
      | Some ps ->
        pass.memo_hits <- pass.memo_hits + 1;
        ps
      | None ->
        pass.memo_misses <- pass.memo_misses + 1;
        let ps = touching (Option.get surfs.(ka)) (Option.get surfs.(kb)) rel in
        Placement_class.Tbl.add pass.memo key ps;
        ps
    in
    List.iter (fun (ga, gb) -> union (base.(ka) + ga) (base.(kb) + gb)) pairs
  in
  Geom.Grid_index.iter_pairs_within idx 0 (fun (_, a) (_, b) ->
      match (a, b) with
      | Elt i, Elt j ->
        let ea = elts.(i) and eb = elts.(j) in
        if
          Tech.Layer.equal ea.Model.layer eb.Model.layer
          && Geom.Skeleton.connected ea.Model.skeleton eb.Model.skeleton
        then union i j
      | Elt i, Call k | Call k, Elt i -> elt_call i k
      | Call ka, Call kb -> call_call ka kb);
  Array.iteri
    (fun k sf ->
      Option.iter
        (fun sf -> List.iter (fun (ga, gb) -> union (base.(k) + ga) (base.(k) + gb)) sf.self_pairs)
        sf)
    surfs;
  (* Merge global labels by name, visiting nodes in index order: an
     element's own label, a child group's global set. *)
  let first_global = Hashtbl.create 8 in
  let merge_global i l =
    match Hashtbl.find_opt first_global l with
    | Some j -> union i j
    | None -> Hashtbl.add first_global l i
  in
  Array.iteri
    (fun i (e : Model.element) ->
      match e.Model.net_label with
      | Some l when Netlist.Net.is_global l -> merge_global i l
      | _ -> ())
    elts;
  Array.iteri
    (fun k (cn : sym_nets) ->
      Array.iter
        (fun (g : group) ->
          List.iter (merge_global (base.(k) + g.gid)) (Netlist.Net.globals g.terminals))
        cn.groups)
    child;
  (* Stage 4: legal connections.  Same-layer local elements whose drawn
     geometry touches must be on one net (skeletally connected, possibly
     transitively); touching without connection is the butting error.
     The pair order of [pairs_within] fixes the order of the findings. *)
  let geo_idx = Geom.Grid_index.create ~cell:400 () in
  Array.iteri
    (fun i (e : Model.element) ->
      Option.iter (fun h -> Geom.Grid_index.add geo_idx h (i, e)) (hull_of e.Model.rects))
    elts;
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
  (* Build groups from union-find classes, numbered by first node, so
     the order pairs were unioned in cannot change a gid. *)
  let gid_of_root = Array.make n (-1) in
  let next_gid = ref 0 in
  let gid_of i =
    let r = Netlist.Uf.find uf i in
    if gid_of_root.(r) < 0 then begin
      gid_of_root.(r) <- !next_gid;
      incr next_gid
    end;
    gid_of_root.(r)
  in
  let node_gid = Array.init n gid_of in
  let n_groups = !next_gid in
  (* Nothing calls the root, so its groups need no surface. *)
  let with_surface = s.Model.sid <> Model.root_id in
  let skels = Array.make n_groups []
  and labels = Array.make n_groups []
  and globals = Array.make n_groups []
  and parts = Array.make n_groups []
  and counts = Array.make n_groups 0
  and crossing = Array.make n_groups false in
  let elt_group = Array.make (List.length s.Model.elements) None in
  Array.iteri
    (fun i (e : Model.element) ->
      let gid = node_gid.(i) in
      if with_surface then skels.(gid) <- (e.Model.layer, e.Model.skeleton) :: skels.(gid);
      (match e.Model.net_label with
      | Some l -> labels.(gid) <- l :: labels.(gid)
      | None -> ());
      counts.(gid) <- counts.(gid) + 1;
      elt_group.(e.Model.eid) <- Some gid)
    elts;
  (* A group's global set: the names whose first node lies in it. *)
  Hashtbl.iter (fun l i -> globals.(node_gid.(i)) <- l :: globals.(node_gid.(i))) first_global;
  Array.iteri
    (fun k (c : Model.call) ->
      let inst = lazy (instance_label model c) in
      Array.iter
        (fun (g : group) ->
          let gid = node_gid.(base.(k) + g.gid) in
          if with_surface then
            skels.(gid) <-
              List.map
                (fun (layer, rects) ->
                  (layer, List.map (Geom.Transform.apply_rect c.Model.transform) rects))
                g.skels
              @ skels.(gid);
          if Netlist.Net.needs_part g.terminals then
            parts.(gid) <- (Lazy.force inst, g.terminals) :: parts.(gid);
          counts.(gid) <- counts.(gid) + g.element_count;
          crossing.(gid) <- true)
        child.(k).groups)
    calls;
  (* Call [k]'s child group [g] is node [base.(k) + g]. *)
  let sub_group =
    Array.mapi (fun k (cn : sym_nets) -> Array.sub node_gid base.(k) (Array.length cn.groups)) child
  in
  let groups =
    Array.init n_groups (fun gid ->
        { gid;
          skels = (match skels.(gid) with [] -> [] | sk -> merge_skels sk);
          terminals =
            Netlist.Net.union ~labels:labels.(gid) ~globals:globals.(gid) parts.(gid);
          element_count = counts.(gid);
          crossing = crossing.(gid) })
  in
  ({ groups; elt_group; sub_group }, !issues)

let build ?metrics (model : Model.t) =
  let by_symbol = Hashtbl.create 16 in
  let pass =
    { surfaces = Hashtbl.create 16;
      memo = Placement_class.Tbl.create 16;
      call_pairs = 0;
      memo_hits = 0;
      memo_misses = 0 }
  in
  let issues = ref [] in
  List.iter
    (fun (s : Model.symbol) ->
      let sn =
        if Model.is_device s then device_sym_nets model.Model.rules s
        else begin
          let sn, errs = compose pass model s (fun sid -> Hashtbl.find by_symbol sid) in
          issues := errs @ !issues;
          sn
        end
      in
      Hashtbl.replace by_symbol s.Model.sid sn;
      if s.Model.sid <> Model.root_id then
        Hashtbl.replace pass.surfaces s.Model.sid
          (surface_of ~device:(Model.is_device s) sn))
    model.Model.symbols;
  Option.iter
    (fun m ->
      Metrics.incr ~by:pass.call_pairs m "netgen.call_pairs";
      Metrics.incr ~by:pass.memo_hits m "netgen.memo_hits";
      Metrics.incr ~by:pass.memo_misses m "netgen.memo_misses")
    metrics;
  ({ model; by_symbol }, List.rev !issues)

let netlist t =
  let root = nets_of t Model.root_id in
  let nets =
    Array.fold_right
      (fun (g : group) nets ->
        { Netlist.Net.gid = g.gid;
          terminals = g.terminals;
          element_count = g.element_count }
        :: nets)
      root.groups []
  in
  { Netlist.Net.nets }

let locality t =
  let root = nets_of t Model.root_id in
  Array.fold_left
    (fun (local, crossing) (g : group) ->
      if g.crossing then (local, crossing + 1) else (local + 1, crossing))
    (0, 0) root.groups
