(* Static immunity certificates: the per-definition facts the
   interaction stage consults to skip silent placement classes.  See
   deckcheck.mli for the soundness argument. *)

let nlayers = List.length Tech.Layer.all

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)

type cert = {
  ct_subtree_bbox : Geom.Rect.t option array;
  ct_complete : bool;
}

let certify ~lookup (s : Model.symbol) =
  let subtree = Array.make nlayers None in
  let grow i bb =
    subtree.(i) <-
      Some (match subtree.(i) with None -> bb | Some r -> Geom.Rect.hull r bb)
  in
  List.iter
    (fun (e : Model.element) -> grow (Tech.Layer.index e.Model.layer) e.Model.bbox)
    s.Model.elements;
  let complete = ref true in
  List.iter
    (fun (c : Model.call) ->
      match lookup c.Model.callee with
      | None -> complete := false
      | Some cc ->
        if not cc.ct_complete then complete := false;
        Array.iteri
          (fun i bb ->
            match bb with
            | None -> ()
            | Some bb -> grow i (Geom.Transform.apply_rect c.Model.transform bb))
          cc.ct_subtree_bbox)
    s.Model.calls;
  { ct_subtree_bbox = subtree; ct_complete = !complete }

(* ------------------------------------------------------------------ *)
(* Deck consultation                                                   *)

(* The largest gap each matrix cell can demand; 0 where the pair check
   skips the cell regardless of geometry. *)
let requirements rules =
  Array.map
    (function
      | Tech.Interaction.Space { same_net; diff_net } ->
        max diff_net (Option.value ~default:0 same_net)
      | Tech.Interaction.No_rule | Tech.Interaction.Device_checked -> 0)
    (Tech.Interaction.matrix rules)

type consult = {
  cs_cert : int -> cert option;
  cs_req : int array;
}

let consult ~cert_of rules = { cs_cert = cert_of; cs_req = requirements rules }

exception Hit

(* Every placement transform is one of the eight orthogonal matrices
   plus a translation, an isometry of the Chebyshev metric on
   axis-aligned rects, so the verdict depends only on the relative
   placement [rel], which is exactly the placement class key. *)
let class_silent cs ~sa ~sb rel =
  match (cs.cs_cert sa, cs.cs_cert sb) with
  | Some ca, Some cb when ca.ct_complete && cb.ct_complete -> (
    let tb =
      Array.map
        (function
          | None -> None
          | Some bb -> Some (Geom.Transform.apply_rect rel bb))
        cb.ct_subtree_bbox
    in
    try
      Array.iteri
        (fun ia ba ->
          match ba with
          | None -> ()
          | Some ba ->
            let row = ia * nlayers in
            Array.iteri
              (fun ib bb ->
                match bb with
                | None -> ()
                | Some bb ->
                  let r = cs.cs_req.(row + ib) in
                  if r > 0 && Geom.Rect.chebyshev_gap ba bb < r then
                    raise_notrace Hit)
              tb)
        ca.ct_subtree_bbox;
      true
    with Hit -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Kill switch                                                         *)

let enabled_ref =
  ref
    (match Sys.getenv_opt "DIC_NO_CERTS" with
    | Some s when s <> "" && s <> "0" -> false
    | _ -> true)

let enabled () = !enabled_ref
let set_enabled b = enabled_ref := b
