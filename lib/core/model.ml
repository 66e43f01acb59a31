type shape =
  | S_box of Geom.Rect.t
  | S_wire of Geom.Wire.t
  | S_poly of Geom.Poly.t

type element = {
  eid : int;
  layer : Tech.Layer.t;
  shape : shape;
  net_label : string option;
  rects : Geom.Rect.t list;
  packed : Geom.Rects.t;
  skeleton : Geom.Rect.t list;
  bbox : Geom.Rect.t;
  loc : Cif.Loc.t option;
}

type call = {
  cidx : int;
  callee : int;
  transform : Geom.Transform.t;
}

type symbol = {
  sid : int;
  sname : string;
  device : Tech.Device.kind option;
  elements : element list;
  calls : call list;
  sbbox : Geom.Rect.t option;
  sloc : Cif.Loc.t option;
}

type t = {
  rules : Tech.Rules.t;
  symbols : symbol list;
  root : symbol;
  by_sid : (int, symbol) Hashtbl.t;
}

let root_id = -1

let find t sid =
  match Hashtbl.find_opt t.by_sid sid with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Model.find: unknown symbol %d" sid)

let is_device s = s.device <> None

let layer_region s layer =
  Geom.Region.of_rects
    (List.concat_map
       (fun e -> if Tech.Layer.equal e.layer layer then e.rects else [])
       s.elements)

let on_layer s layer = List.filter (fun e -> Tech.Layer.equal e.layer layer) s.elements
let symbol_count t = List.length t.symbols - 1

let definition_elements t =
  List.fold_left (fun acc s -> acc + List.length s.elements) 0 t.symbols

let memo_over_symbols t f =
  let tbl = Hashtbl.create 16 in
  let rec go sid =
    match Hashtbl.find_opt tbl sid with
    | Some v -> v
    | None ->
      let s = find t sid in
      let v = f s go in
      Hashtbl.replace tbl sid v;
      v
  in
  go

let instantiated_elements t =
  let count =
    memo_over_symbols t (fun s recur ->
        List.length s.elements
        + List.fold_left (fun acc c -> acc + recur c.callee) 0 s.calls)
  in
  count root_id

let depth t =
  let d =
    memo_over_symbols t (fun s recur ->
        List.fold_left (fun acc c -> max acc (1 + recur c.callee)) 0 s.calls)
  in
  d root_id

(* ------------------------------------------------------------------ *)
(* Elaboration                                                         *)

let hull_of_rects = function
  | [] -> None
  | r :: rs -> Some (List.fold_left Geom.Rect.hull r rs)

let poly_skeleton ~half region =
  let rec try_shrink h =
    if h <= 0 then Geom.Region.rects region
    else
      let s = Geom.Region.shrink_orth region h in
      if Geom.Region.is_empty s then try_shrink (h - 1) else Geom.Region.rects s
  in
  try_shrink half

let elaborate_element rules ~context eid (e : Cif.Ast.element) :
    (element, Report.violation) result =
  let layer_name = Cif.Ast.element_layer e in
  let loc = Cif.Ast.element_loc e in
  match Tech.Layer.of_cif layer_name with
  | None ->
    Error
      (Report.error ~stage:Report.Parse_stage ~rule:"layer.unknown" ~context ?loc
         (Printf.sprintf "unknown layer %s" layer_name))
  | Some layer -> (
    let half = Tech.Rules.skeleton_half rules layer in
    match e with
    | Cif.Ast.Box { rect; net; _ } ->
      Ok
        { eid;
          layer;
          shape = S_box rect;
          net_label = net;
          rects = [ rect ];
          packed = Geom.Rects.of_list [ rect ];
          skeleton = [ Geom.Skeleton.of_rect ~half rect ];
          bbox = rect;
          loc }
    | Cif.Ast.Wire { width; path; net; _ } -> (
      match Geom.Wire.make ~width path with
      | w ->
        let rects = Geom.Wire.to_rects w in
        Ok
          { eid;
            layer;
            shape = S_wire w;
            net_label = net;
            rects;
            packed = Geom.Rects.of_list rects;
            skeleton = Geom.Wire.skeleton ~half w;
            bbox = Geom.Wire.bbox w;
            loc }
      | exception Invalid_argument msg ->
        Error
          (Report.error ~stage:Report.Parse_stage ~rule:"wire.invalid" ~context ?loc msg))
    | Cif.Ast.Polygon { pts; net; _ } -> (
      match Geom.Poly.make pts with
      | poly -> (
        match Geom.Poly.to_region poly with
        | Some region ->
          let rects = Geom.Region.rects region in
          Ok
            { eid;
              layer;
              shape = S_poly poly;
              net_label = net;
              rects;
              packed = Geom.Rects.of_list rects;
              skeleton = poly_skeleton ~half region;
              bbox = Geom.Poly.bbox poly;
              loc }
        | None ->
          Error
            (Report.error ~stage:Report.Parse_stage ~rule:"polygon.nonrectilinear"
               ~where:(Geom.Poly.bbox poly) ~context ?loc
               "non-rectilinear polygon is outside the design style"))
      | exception Invalid_argument msg ->
        Error
          (Report.error ~stage:Report.Parse_stage ~rule:"polygon.invalid" ~context ?loc
             msg)))

let symbol_display_name (s : Cif.Ast.symbol) =
  match s.Cif.Ast.name with Some n -> n | None -> Printf.sprintf "s%d" s.Cif.Ast.id

let elaborate rules (file : Cif.Ast.file) =
  match Cif.Ast.check_acyclic file with
  | Error msg -> Error msg
  | Ok () ->
    let issues = ref [] in
    let note v = issues := v :: !issues in
    let build_symbol ~sid ~sname ~device_tag ?sloc (elements : Cif.Ast.element list)
        (calls : Cif.Ast.call list) =
      let context = sname in
      let device =
        match device_tag with
        | None -> None
        | Some tag -> (
          match Tech.Device.of_tag tag with
          | Some k -> Some k
          | None ->
            note
              (Report.error ~stage:Report.Devices ~rule:"device.unknown-type" ~context
                 ?loc:sloc
                 (Printf.sprintf "unknown device type %s" tag));
            None)
      in
      let elements =
        List.mapi (fun i e -> (i, e)) elements
        |> List.filter_map (fun (i, e) ->
               match elaborate_element rules ~context i e with
               | Ok el -> Some el
               | Error v ->
                 note v;
                 None)
      in
      if device <> None && calls <> [] then
        note
          (Report.error ~stage:Report.Devices ~rule:"device.contains-calls" ~context
             ?loc:sloc "primitive (device) symbols may contain only geometry");
      let calls =
        List.mapi
          (fun i (c : Cif.Ast.call) ->
            { cidx = i; callee = c.Cif.Ast.callee; transform = c.Cif.Ast.transform })
          calls
      in
      { sid; sname; device; elements; calls; sbbox = None; sloc }
    in
    let symbols =
      List.map
        (fun (s : Cif.Ast.symbol) ->
          build_symbol ~sid:s.Cif.Ast.id ~sname:(symbol_display_name s)
            ~device_tag:s.Cif.Ast.device ?sloc:s.Cif.Ast.sym_loc s.Cif.Ast.elements
            s.Cif.Ast.calls)
        file.Cif.Ast.symbols
    in
    let root =
      build_symbol ~sid:root_id ~sname:"TOP" ~device_tag:None file.Cif.Ast.top_elements
        file.Cif.Ast.top_calls
    in
    (* Topological sort, callees first; root last.  Also fill sbbox. *)
    let by_id = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.replace by_id s.sid s) (root :: symbols);
    let order = ref [] in
    let visited = Hashtbl.create 16 in
    let boxes = Hashtbl.create 16 in
    let rec visit sid =
      if not (Hashtbl.mem visited sid) then begin
        Hashtbl.add visited sid ();
        let s = Hashtbl.find by_id sid in
        List.iter (fun c -> visit c.callee) s.calls;
        let local = List.map (fun e -> e.bbox) s.elements in
        let from_calls =
          List.filter_map
            (fun c ->
              Option.map (Geom.Transform.apply_rect c.transform) (Hashtbl.find boxes c.callee))
            s.calls
        in
        let sbbox = hull_of_rects (local @ from_calls) in
        Hashtbl.replace boxes sid sbbox;
        order := { s with sbbox } :: !order
      end
    in
    List.iter (fun s -> visit s.sid) symbols;
    visit root_id;
    let sorted = List.rev !order in
    (* [sorted] has callees before callers; move root to the end. *)
    let non_root = List.filter (fun s -> s.sid <> root_id) sorted in
    let root = List.find (fun s -> s.sid = root_id) sorted in
    let by_sid = Hashtbl.create (List.length sorted) in
    List.iter (fun s -> Hashtbl.replace by_sid s.sid s) sorted;
    Ok
      ( { rules; symbols = non_root @ [ root ]; root; by_sid },
        List.rev !issues )
