(* Deck semantic analysis: the rule-implication closure (R012+) and
   the static immunity certificates the interaction stage consults to
   skip silent placement classes.  See deckcheck.mli for the soundness
   argument. *)

let nlayers = List.length Tech.Layer.all
let layer_of_index = Array.of_list Tech.Layer.all

(* ------------------------------------------------------------------ *)
(* Deck closure — R012 / R013 / R014                                   *)

let diag code severity subject message =
  { Lint.code; severity; message; loc = None; subject }

(* The unordered cross-layer cells the deck writes directed overrides
   for, ascending-index normalised. *)
let override_cells (r : Tech.Rules.t) =
  List.sort_uniq compare
    (List.map
       (fun ((a, b), _) ->
         if Tech.Layer.index a <= Tech.Layer.index b then (a, b) else (b, a))
       r.Tech.Rules.pair_spaces)

let check_deck (r : Tech.Rules.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* R012: composite lower bounds derived by the closure against the
     declared minimums.  The bonding-pad chain: a pad is a glass
     opening (minimum width [contact_size], like every cut layer)
     surrounded by [pad_metal_surround] of metal, so the smallest
     legal pad is [contact_size + 2*pad_metal_surround] of metal —
     which must itself satisfy [width_metal]. *)
  let glass = Tech.Rules.min_width r Tech.Layer.Glass in
  let pad = glass + (2 * r.Tech.Rules.pad_metal_surround) in
  if pad < r.Tech.Rules.width_metal then
    add
      (diag "R012" Lint.Error "pad_metal_surround"
         (Printf.sprintf
            "unsatisfiable: glass opening >= contact_size %d, so the minimal bonding \
             pad is %d + 2*pad_metal_surround %d = %d of metal, below width_metal %d \
             — no legal pad exists"
            glass glass r.Tech.Rules.pad_metal_surround pad r.Tech.Rules.width_metal));
  (* R013 needs provenance to tell written entries from implied
     defaults, so its clauses only run for decks from text. *)
  let written key = Tech.Rules.position r key <> None in
  let has_provenance = r.Tech.Rules.key_positions <> [] in
  if has_provenance then begin
    (* R013a: an explicit canonical entry equal to its lambda default
       is implied by the [lambda] node alone. *)
    let defaults = Tech.Rules.nmos ~lambda:r.Tech.Rules.lambda () in
    let default_fields = Tech.Rules.fields defaults in
    List.iter
      (fun (key, v) ->
        if key <> "lambda" && written key then
          match List.assoc_opt key default_fields with
          | Some dv when dv = v ->
            add
              (diag "R013" Lint.Warning key
                 (Printf.sprintf
                    "redundant: %s %d is already implied by lambda %d (the default \
                     is %d); deleting the entry changes nothing"
                    key v r.Tech.Rules.lambda dv))
          | _ -> ())
      (Tech.Rules.fields r)
  end;
  (* R013b / R014 over each directed override family.  Same-layer and
     unreachable cells are R007 / R006 territory, skip them here.
     Overrides never change a cell's kind, so consulting the effective
     matrix classifies the base cell too. *)
  List.iter
    (fun (lo, hi) ->
      if not (Tech.Layer.equal lo hi) then
        match Tech.Interaction.entry r lo hi with
        | Tech.Interaction.No_rule | Tech.Interaction.Device_checked -> ()
        | Tech.Interaction.Space _ ->
          let asc = Tech.Rules.pair_space r lo hi
          and desc = Tech.Rules.pair_space r hi lo
          and base = Tech.Rules.cross_layer_space r lo hi in
          let up = Tech.Rules.pair_key_name (lo, hi)
          and down = Tech.Rules.pair_key_name (hi, lo) in
          let effective =
            match Tech.Rules.cell_space_override r lo hi with
            | Some v -> Some v
            | None -> base
          in
          (* R013b: the descending spelling merely repeats the
             ascending one. *)
          if has_provenance then begin
          (match (asc, desc) with
          | Some a, Some d when a = d ->
            add
              (diag "R013" Lint.Warning down
                 (Printf.sprintf
                    "redundant: %s %d duplicates %s %d; deleting it changes nothing"
                    down d up a))
          | _ -> ());
          (* R013b: a lone override that restates the canonical cell. *)
          (match (asc, desc, base) with
          | (Some v, None, Some bv | None, Some v, Some bv) when v = bv ->
            let key = if Option.is_some asc then up else down in
            add
              (diag "R013" Lint.Warning key
                 (Printf.sprintf
                    "redundant: %s %d equals the canonical %s-%s spacing %d it \
                     overrides; deleting it changes nothing"
                    key v (Tech.Layer.to_cif lo) (Tech.Layer.to_cif hi) bv))
          | _ -> ())
          end;
          (* R014: any written member of the family strictly above the
             winning value is a silent weakening — the deck reads
             stricter than it checks. *)
          (match effective with
          | None -> ()
          | Some eff ->
            let winner_key =
              match (Tech.Rules.cell_space_override r lo hi, asc) with
              | Some _, Some _ -> up
              | Some _, None -> down
              | None, _ -> "space_poly_diffusion"
            in
            let family =
              List.filter_map Fun.id
                [ Option.map (fun v -> (up, v)) asc;
                  Option.map (fun v -> (down, v)) desc;
                  (match base with
                  | Some bv
                    when Tech.Layer.equal lo Tech.Layer.Diffusion
                         && Tech.Layer.equal hi Tech.Layer.Poly
                         && ((not has_provenance) || written "space_poly_diffusion") ->
                    Some ("space_poly_diffusion", bv)
                  | _ -> None) ]
            in
            List.iter
              (fun (k, v) ->
                if v > eff && k <> winner_key then
                  add
                    (diag "R014" Lint.Error k
                       (Printf.sprintf
                          "non-monotone override family: %s %d is shadowed by the \
                           effective %s %d — the deck reads stricter than it checks, \
                           so real %s-%s errors between %d and %d go unflagged"
                          k v winner_key eff (Tech.Layer.to_cif lo)
                          (Tech.Layer.to_cif hi) eff v)))
              family))
    (override_cells r);
  Lint.locate r !diags

(* ------------------------------------------------------------------ *)
(* Cross-deck subsumption — R015                                       *)

type relation = Equivalent | Subsumes | Subsumed | Incomparable

type comparison = {
  cmp_relation : relation;
  cmp_stronger : string list;
  cmp_weaker : string list;
}

(* The semantic constraint vector: every effective bound the checker
   can consult, independent of how the deck spelled it.  Bigger is
   stricter everywhere; an unchecked same-net bound is encoded below
   any checked one. *)
let constraint_vector (r : Tech.Rules.t) =
  let widths =
    List.map
      (fun l -> (Printf.sprintf "width_%s" (Tech.Rules.layer_name l), Tech.Rules.min_width r l))
      Tech.Layer.routing
  in
  let spaces =
    List.map
      (fun l ->
        (Printf.sprintf "space_%s" (Tech.Rules.layer_name l), Tech.Rules.same_layer_space r l))
      Tech.Layer.routing
  in
  let cells =
    List.concat_map
      (fun (la, lb, entry) ->
        if Tech.Layer.equal la lb then []
        else
          match entry with
          | Tech.Interaction.No_rule | Tech.Interaction.Device_checked -> []
          | Tech.Interaction.Space { same_net; diff_net } ->
            [ (Tech.Rules.pair_key_name (la, lb), diff_net);
              (Tech.Rules.pair_key_name (la, lb) ^ "(same-net)",
               match same_net with None -> -1 | Some v -> v) ])
      (Tech.Interaction.cells r)
  in
  let devices =
    [ ("contact_size", r.Tech.Rules.contact_size);
      ("gate_poly_overhang", r.Tech.Rules.gate_poly_overhang);
      ("gate_diff_extension", r.Tech.Rules.gate_diff_extension);
      ("contact_surround", r.Tech.Rules.contact_surround);
      ("implant_gate_surround", r.Tech.Rules.implant_gate_surround);
      ("buried_overlap", r.Tech.Rules.buried_overlap);
      ("pad_metal_surround", r.Tech.Rules.pad_metal_surround) ]
  in
  widths @ spaces @ cells @ devices

let compare_rules a b =
  let va = constraint_vector a and vb = constraint_vector b in
  let stronger = ref [] and weaker = ref [] in
  List.iter2
    (fun (ka, x) (_, y) ->
      if x > y then stronger := Printf.sprintf "%s %d > %d" ka x y :: !stronger
      else if x < y then weaker := Printf.sprintf "%s %d < %d" ka x y :: !weaker)
    va vb;
  let stronger = List.rev !stronger and weaker = List.rev !weaker in
  let cmp_relation =
    match (stronger, weaker) with
    | [], [] -> Equivalent
    | _, [] -> Subsumes
    | [], _ -> Subsumed
    | _ -> Incomparable
  in
  { cmp_relation; cmp_stronger = stronger; cmp_weaker = weaker }

let relation_message (la, _) (lb, _) cmp =
  let sample = function [] -> "" | w :: _ -> Printf.sprintf " (e.g. %s)" w in
  match cmp.cmp_relation with
  | Equivalent ->
    Printf.sprintf "deck %s is equivalent to deck %s: identical effective constraints"
      la lb
  | Subsumes ->
    Printf.sprintf
      "deck %s subsumes deck %s: at least as strict everywhere, stricter at %d \
       constraint(s)%s — a design clean under %s is provably clean under %s"
      la lb (List.length cmp.cmp_stronger) (sample cmp.cmp_stronger) la lb
  | Subsumed ->
    Printf.sprintf
      "deck %s subsumes deck %s: at least as strict everywhere, stricter at %d \
       constraint(s)%s — a design clean under %s is provably clean under %s"
      lb la (List.length cmp.cmp_weaker) (sample cmp.cmp_weaker) lb la
  | Incomparable ->
    Printf.sprintf
      "decks %s and %s are incomparable: %s stricter at %d constraint(s)%s, %s \
       stricter at %d%s"
      la lb la (List.length cmp.cmp_stronger) (sample cmp.cmp_stronger) lb
      (List.length cmp.cmp_weaker) (sample cmp.cmp_weaker)

let deck_relations decks =
  let rec pairs = function
    | [] -> []
    | d :: rest -> List.map (fun e -> (d, e)) rest @ pairs rest
  in
  List.map
    (fun (((la, ra) as a), ((lb, rb) as b)) ->
      let cmp = compare_rules ra rb in
      diag "R015" Lint.Note
        (Printf.sprintf "%s/%s" la lb)
        (relation_message a b cmp))
    (pairs decks)

let relation_lines decks =
  List.map (fun (d : Lint.diagnostic) -> d.Lint.message) (deck_relations decks)

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

let requirements (rules : Tech.Rules.t) =
  let req = Array.make (nlayers * nlayers) 0 in
  for ia = 0 to nlayers - 1 do
    for ib = 0 to nlayers - 1 do
      let r =
        match Tech.Interaction.entry rules layer_of_index.(ia) layer_of_index.(ib) with
        | Tech.Interaction.Space { same_net; diff_net } ->
          max diff_net (match same_net with None -> 0 | Some s -> s)
        | Tech.Interaction.No_rule | Tech.Interaction.Device_checked -> 0
      in
      req.((ia * nlayers) + ib) <- r
    done
  done;
  req

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
