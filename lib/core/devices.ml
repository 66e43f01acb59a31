let err ~rule ?where ~context msg = Report.error ~stage:Report.Devices ~rule ?where ~context msg

let regions (s : Model.symbol) =
  let r l = Model.layer_region s l in
  ( r Tech.Layer.Poly,
    r Tech.Layer.Diffusion,
    r Tech.Layer.Metal,
    r Tech.Layer.Contact,
    r Tech.Layer.Implant,
    r Tech.Layer.Buried,
    r Tech.Layer.Glass )

(* Does [inner] expanded by [margin] stay within [outer]? *)
let enclosed ~margin inner outer =
  Geom.Region.is_empty (Geom.Region.diff (Geom.Region.expand_orth inner margin) outer)

let bbox_err r = match Geom.Region.bbox r with Some b -> Some b | None -> None

(* ------------------------------------------------------------------ *)
(* Transistors                                                         *)

type side = Left | Right | Bottom | Top

let side_name = function
  | Left -> "left"
  | Right -> "right"
  | Bottom -> "bottom"
  | Top -> "top"

let side_strip g ext = function
  | Left -> Geom.Rect.make (Geom.Rect.x0 g - ext) (Geom.Rect.y0 g) (Geom.Rect.x0 g) (Geom.Rect.y1 g)
  | Right -> Geom.Rect.make (Geom.Rect.x1 g) (Geom.Rect.y0 g) (Geom.Rect.x1 g + ext) (Geom.Rect.y1 g)
  | Bottom -> Geom.Rect.make (Geom.Rect.x0 g) (Geom.Rect.y0 g - ext) (Geom.Rect.x1 g) (Geom.Rect.y0 g)
  | Top -> Geom.Rect.make (Geom.Rect.x0 g) (Geom.Rect.y1 g) (Geom.Rect.x1 g) (Geom.Rect.y1 g + ext)

let check_transistor rules ~context ~depletion (s : Model.symbol) =
  let p, d, _m, c, i, _b, _g = regions s in
  let gate = Geom.Region.inter p d in
  if Geom.Region.is_empty gate then
    [ err ~rule:"device.missing-gate" ~context
        "transistor has no poly-diffusion crossing (gate overlap missing)" ]
  else
    List.concat_map
      (fun gcomp ->
        let g = match Geom.Region.bbox gcomp with Some b -> b | None -> assert false in
        let covered region ext side =
          Geom.Region.contains_rect region (side_strip g ext side)
        in
        let overhang = rules.Tech.Rules.gate_poly_overhang
        and extension = rules.Tech.Rules.gate_diff_extension in
        (* Horizontal channel: diffusion continues left/right, poly
           crosses top/bottom; vertical is the transpose. *)
        let configs =
          [ ( [ (Left, `Diff); (Right, `Diff); (Top, `Poly); (Bottom, `Poly) ] );
            ( [ (Left, `Poly); (Right, `Poly); (Top, `Diff); (Bottom, `Diff) ] ) ]
        in
        let eval config =
          List.map
            (fun (side, want) ->
              let ok =
                match want with
                | `Diff -> covered d extension side
                | `Poly -> covered p overhang side
              in
              (side, want, ok))
            config
        in
        let scored =
          List.map (fun cfg -> let e = eval cfg in
                     (List.length (List.filter (fun (_, _, ok) -> ok) e), e))
            configs
        in
        let _, best =
          List.fold_left (fun (bs, be) (s', e) -> if s' > bs then (s', e) else (bs, be))
            (-1, []) scored
        in
        let geometry_errors =
          List.filter_map
            (fun (side, want, ok) ->
              if ok then None
              else
                Some
                  (match want with
                  | `Poly ->
                    err ~rule:"device.gate-overhang" ~where:g ~context
                      (Printf.sprintf "poly must extend %d past the %s of the gate"
                         overhang (side_name side))
                  | `Diff ->
                    err ~rule:"device.diff-extension" ~where:g ~context
                      (Printf.sprintf "diffusion must extend %d past the %s of the gate"
                         extension (side_name side))))
            best
        in
        let contact_errors =
          if Geom.Region.is_empty (Geom.Region.inter c gcomp) then []
          else
            [ err ~rule:"device.contact-over-gate" ~where:g ~context
                "contact is not allowed over the active gate" ]
        in
        let implant_errors =
          if depletion then
            if enclosed ~margin:rules.Tech.Rules.implant_gate_surround gcomp i then []
            else
              [ err ~rule:"device.implant-surround" ~where:g ~context
                  (Printf.sprintf "implant must surround the gate by %d"
                     rules.Tech.Rules.implant_gate_surround) ]
          else if Geom.Region.is_empty (Geom.Region.inter i gcomp) then []
          else
            [ err ~rule:"device.unexpected-implant" ~where:g ~context
                "enhancement transistor gate is implanted" ]
        in
        geometry_errors @ contact_errors @ implant_errors)
      (Geom.Region.components gate)

(* ------------------------------------------------------------------ *)
(* Contact structures                                                  *)

let check_contact_cut rules ~context (s : Model.symbol) =
  let p, d, m, c, _i, _b, _g = regions s in
  if Geom.Region.is_empty c then
    [ err ~rule:"device.missing-contact" ~context "contact device has no contact cut" ]
  else begin
    let surround = rules.Tech.Rules.contact_surround in
    let metal_err =
      if enclosed ~margin:surround c m then []
      else
        [ err ~rule:"device.metal-surround" ?where:(bbox_err c) ~context
            (Printf.sprintf "metal must surround the contact by %d" surround) ]
    in
    let landing_err =
      match (Geom.Region.is_empty p, Geom.Region.is_empty d) with
      | true, true ->
        [ err ~rule:"device.no-landing" ?where:(bbox_err c) ~context
            "contact lands on neither poly nor diffusion" ]
      | false, false ->
        [ err ~rule:"device.ambiguous-landing" ?where:(bbox_err c) ~context
            "contact touches both poly and diffusion; use a butting contact" ]
      | false, true ->
        if enclosed ~margin:surround c p then []
        else
          [ err ~rule:"device.landing-surround" ?where:(bbox_err c) ~context
              (Printf.sprintf "poly must surround the contact by %d" surround) ]
      | true, false ->
        if enclosed ~margin:surround c d then []
        else
          [ err ~rule:"device.landing-surround" ?where:(bbox_err c) ~context
              (Printf.sprintf "diffusion must surround the contact by %d" surround) ]
    in
    metal_err @ landing_err
  end

let check_butting_contact rules ~context (s : Model.symbol) =
  let p, d, m, c, _i, _b, _g = regions s in
  let butt = Geom.Region.inter p d in
  let surround = rules.Tech.Rules.contact_surround in
  let butt_err =
    if Geom.Region.is_empty butt then
      [ err ~rule:"device.missing-butt" ~context
          "butting contact has no poly-diffusion overlap" ]
    else []
  in
  let cover_err =
    if Geom.Region.is_empty (Geom.Region.diff butt c) then []
    else
      [ err ~rule:"device.contact-covers-butt" ?where:(bbox_err butt) ~context
          "the contact must cover the poly-diffusion overlap" ]
  in
  let on_conductor_err =
    if Geom.Region.is_empty (Geom.Region.diff c (Geom.Region.union p d)) then []
    else
      [ err ~rule:"device.contact-on-conductor" ?where:(bbox_err c) ~context
          "the contact must lie on poly or diffusion everywhere" ]
  in
  let metal_err =
    if Geom.Region.is_empty c || enclosed ~margin:surround c m then []
    else
      [ err ~rule:"device.metal-surround" ?where:(bbox_err c) ~context
          (Printf.sprintf "metal must surround the contact by %d" surround) ]
  in
  butt_err @ cover_err @ on_conductor_err @ metal_err

let check_buried_contact rules ~context (s : Model.symbol) =
  let p, d, _m, c, _i, b, _g = regions s in
  let tie = Geom.Region.inter p d in
  let tie_err =
    if Geom.Region.is_empty tie then
      [ err ~rule:"device.missing-butt" ~context
          "buried contact has no poly-diffusion overlap" ]
    else []
  in
  let window_err =
    if Geom.Region.is_empty tie
       || enclosed ~margin:rules.Tech.Rules.buried_overlap tie b
    then []
    else
      [ err ~rule:"device.buried-window" ?where:(bbox_err tie) ~context
          (Printf.sprintf "buried window must surround the tie by %d"
             rules.Tech.Rules.buried_overlap) ]
  in
  let no_cut_err =
    if Geom.Region.is_empty c then []
    else
      [ err ~rule:"device.unexpected-contact" ?where:(bbox_err c) ~context
          "buried contacts use no contact cut" ]
  in
  tie_err @ window_err @ no_cut_err

(* ------------------------------------------------------------------ *)
(* Resistor and pad                                                    *)

let check_resistor _rules ~context (s : Model.symbol) =
  let _p, d, _m, _c, _i, _b, _g = regions s in
  if Geom.Region.is_empty d then
    [ err ~rule:"device.missing-body" ~context "resistor has no diffusion body" ]
  else []

let check_pad rules ~context (s : Model.symbol) =
  let _p, _d, m, _c, _i, _b, g = regions s in
  if Geom.Region.is_empty g then
    [ err ~rule:"device.missing-glass" ~context "pad has no glass opening" ]
  else if enclosed ~margin:rules.Tech.Rules.pad_metal_surround g m then []
  else
    [ err ~rule:"device.pad-metal" ?where:(bbox_err g) ~context
        (Printf.sprintf "metal must surround the glass opening by %d"
           rules.Tech.Rules.pad_metal_surround) ]

(* ------------------------------------------------------------------ *)

(* Device violations are judged on the definition's merged layer
   regions, so the natural source position is the definition itself —
   its DS statement — not any single element. *)
let with_symbol_loc (s : Model.symbol) vs =
  match s.Model.sloc with
  | None -> vs
  | Some _ as sloc ->
    List.map
      (fun (v : Report.violation) ->
        match v.Report.loc with None -> { v with Report.loc = sloc } | Some _ -> v)
      vs

let check_symbol rules (s : Model.symbol) =
  let context = s.Model.sname in
  with_symbol_loc s
    (match s.Model.device with
    | None -> []
    | Some Tech.Device.Enhancement -> check_transistor rules ~context ~depletion:false s
    | Some Tech.Device.Depletion -> check_transistor rules ~context ~depletion:true s
    | Some Tech.Device.Contact_cut -> check_contact_cut rules ~context s
    | Some Tech.Device.Butting_contact -> check_butting_contact rules ~context s
    | Some Tech.Device.Buried_contact -> check_buried_contact rules ~context s
    | Some Tech.Device.Resistor -> check_resistor rules ~context s
    | Some Tech.Device.Pad -> check_pad rules ~context s
    | Some Tech.Device.Checked ->
      [ Report.info ~stage:Report.Devices ~rule:"device.checked-waived" ~context
          "user-certified device: internal checks waived" ])

let check (m : Model.t) =
  List.concat_map (check_symbol m.Model.rules) m.Model.symbols

(* ------------------------------------------------------------------ *)
(* The relational gate-overhang check (paper Fig 14)                   *)

(* Largest d (up to [cap]) such that the strip of depth d beyond the
   gate side is covered by the poly region. *)
let measured_overhang p g side ~cap =
  let rec grow d =
    if d >= cap then cap
    else if Geom.Region.contains_rect p (side_strip g (d + 1) side) then grow (d + 1)
    else d
  in
  grow 0

let check_relational ?required model rules (s : Model.symbol) =
  match s.Model.device with
  | Some (Tech.Device.Enhancement | Tech.Device.Depletion) ->
    let required =
      match required with
      | Some r -> r
      | None -> 3 * rules.Tech.Rules.gate_poly_overhang / 4
    in
    let context = s.Model.sname in
    let p = Model.layer_region s Tech.Layer.Poly
    and d = Model.layer_region s Tech.Layer.Diffusion in
    let gate = Geom.Region.inter p d in
    List.concat_map
      (fun gcomp ->
        let g = match Geom.Region.bbox gcomp with Some b -> b | None -> assert false in
        (* The poly runs along whichever axis it extends beyond the
           gate; its width is the gate's extent across that axis. *)
        let cap = 4 * rules.Tech.Rules.gate_poly_overhang in
        let vertical =
          measured_overhang p g Top ~cap > 0 || measured_overhang p g Bottom ~cap > 0
        in
        let sides, width =
          if vertical then ([ Top; Bottom ], Geom.Rect.width g)
          else ([ Left; Right ], Geom.Rect.height g)
        in
        List.filter_map
          (fun side ->
            let drawn = measured_overhang p g side ~cap in
            let v =
              Process_model.Relational.check_gate_overhang model ~width ~drawn ~required
            in
            if v.Process_model.Relational.ok then None
            else
              Some
                (err ~rule:"device.relational-overhang" ~where:g ~context
                   (Format.asprintf
                      "effective %s overhang %.0f < %d (drawn %d, retreat %.0f on %d-wide poly)"
                      (side_name side) v.Process_model.Relational.effective required drawn
                      v.Process_model.Relational.retreat width)))
          sides)
      (Geom.Region.components gate)
  | _ -> []

let check_relational_all ?required model (m : Model.t) =
  List.concat_map (check_relational ?required model m.Model.rules) m.Model.symbols

(* ------------------------------------------------------------------ *)
(* Terminals                                                           *)

type port = {
  pname : string;
  players : (Tech.Layer.t * Geom.Rect.t list) list;
  plabels : string list;
}

type iface = { ports : port list }

let region_skeleton rules layer region =
  let half = Tech.Rules.skeleton_half rules layer in
  let rec try_shrink h =
    if h <= 0 then Geom.Region.rects region
    else
      let s = Geom.Region.shrink_orth region h in
      if Geom.Region.is_empty s then try_shrink (h - 1) else Geom.Region.rects s
  in
  if Geom.Region.is_empty region then [] else try_shrink half

let labels_touching (s : Model.symbol) layer region =
  List.concat_map
    (fun (e : Model.element) ->
      match e.Model.net_label with
      | Some l
        when Tech.Layer.equal e.Model.layer layer
             && List.exists (Geom.Region.intersects region) e.Model.rects ->
        [ l ]
      | _ -> [])
    s.Model.elements
  |> List.sort_uniq String.compare

let element_skeletons (s : Model.symbol) layer =
  List.concat_map (fun (e : Model.element) -> e.Model.skeleton) (Model.on_layer s layer)

let element_labels (s : Model.symbol) layer =
  List.filter_map
    (fun (e : Model.element) -> e.Model.net_label)
    (Model.on_layer s layer)
  |> List.sort_uniq String.compare

let single_via_port (s : Model.symbol) =
  let layers = [ Tech.Layer.Metal; Tech.Layer.Poly; Tech.Layer.Diffusion ] in
  let players =
    List.filter_map
      (fun l ->
        match element_skeletons s l with [] -> None | sk -> Some (l, sk))
      layers
  in
  let plabels = List.concat_map (element_labels s) layers |> List.sort_uniq String.compare in
  { ports = [ { pname = "via"; players; plabels } ] }

let transistor_iface rules (s : Model.symbol) =
  let p = Model.layer_region s Tech.Layer.Poly
  and d = Model.layer_region s Tech.Layer.Diffusion in
  let gate = Geom.Region.inter p d in
  let gate_port =
    { pname = "gate";
      players = [ (Tech.Layer.Poly, element_skeletons s Tech.Layer.Poly) ];
      plabels = element_labels s Tech.Layer.Poly }
  in
  let sd = Geom.Region.diff d gate in
  let sd_ports =
    List.mapi
      (fun i comp ->
        { pname = Printf.sprintf "sd%d" i;
          players = [ (Tech.Layer.Diffusion, region_skeleton rules Tech.Layer.Diffusion comp) ];
          plabels = labels_touching s Tech.Layer.Diffusion comp })
      (Geom.Region.components sd)
  in
  { ports = gate_port :: sd_ports }

let resistor_iface rules (s : Model.symbol) =
  let d = Model.layer_region s Tech.Layer.Diffusion in
  match Geom.Region.bbox d with
  | None -> { ports = [] }
  | Some bb ->
    let halves =
      if Geom.Rect.width bb >= Geom.Rect.height bb then
        let mid = (Geom.Rect.x0 bb + Geom.Rect.x1 bb) / 2 in
        [ Geom.Rect.make (Geom.Rect.x0 bb) (Geom.Rect.y0 bb) mid (Geom.Rect.y1 bb);
          Geom.Rect.make mid (Geom.Rect.y0 bb) (Geom.Rect.x1 bb) (Geom.Rect.y1 bb) ]
      else
        let mid = (Geom.Rect.y0 bb + Geom.Rect.y1 bb) / 2 in
        [ Geom.Rect.make (Geom.Rect.x0 bb) (Geom.Rect.y0 bb) (Geom.Rect.x1 bb) mid;
          Geom.Rect.make (Geom.Rect.x0 bb) mid (Geom.Rect.x1 bb) (Geom.Rect.y1 bb) ]
    in
    let ports =
      List.mapi
        (fun i half ->
          let part = Geom.Region.inter d (Geom.Region.of_rect half) in
          { pname = Printf.sprintf "r%d" i;
            players = [ (Tech.Layer.Diffusion, region_skeleton rules Tech.Layer.Diffusion part) ];
            plabels = labels_touching s Tech.Layer.Diffusion part })
        halves
    in
    { ports }

let per_layer_ports (s : Model.symbol) =
  let ports =
    List.filter_map
      (fun l ->
        match element_skeletons s l with
        | [] -> None
        | sk ->
          Some { pname = Tech.Layer.to_cif l; players = [ (l, sk) ];
                 plabels = element_labels s l })
      Tech.Layer.routing
  in
  { ports }

let interface rules (s : Model.symbol) =
  match s.Model.device with
  | None -> None
  | Some (Tech.Device.Enhancement | Tech.Device.Depletion) ->
    Some (transistor_iface rules s)
  | Some (Tech.Device.Contact_cut | Tech.Device.Butting_contact
         | Tech.Device.Buried_contact) ->
    Some (single_via_port s)
  | Some Tech.Device.Resistor -> Some (resistor_iface rules s)
  | Some Tech.Device.Pad ->
    Some
      { ports =
          [ { pname = "pad";
              players = [ (Tech.Layer.Metal, element_skeletons s Tech.Layer.Metal) ];
              plabels = element_labels s Tech.Layer.Metal } ] }
  | Some Tech.Device.Checked -> Some (per_layer_ports s)
