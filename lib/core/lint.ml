type severity = Error | Warning | Note

type diagnostic = {
  code : string;
  severity : severity;
  message : string;
  loc : Cif.Loc.t option;
  subject : string;
}

let all_codes =
  [ ("R001", "A layer's minimum width is odd: skeleton erosion uses width/2, so the \
              legal-width + skeletal-connection theorem (paper Fig 4) loses a unit and \
              real errors can slip through unchecked.");
    ("R002", "A rule value is zero, negative, or above 2^30; every width, spacing, and \
              surround must be a positive distance whose square the spacing checks can \
              compare without integer overflow.");
    ("R003", "A rule value is not a multiple of lambda/4; off-quantum rules invite \
              geometry the integer skeleton and gap kernels cannot represent exactly.");
    ("R004", "contact_size + 2*contact_surround is below a conductor's minimum width, \
              so every legal contact landing pad violates that layer's width rule.");
    ("R005", "Directed spacing overrides for one layer pair disagree; the Fig 12 matrix \
              is symmetric, so one of the numbers is silently ignored.");
    ("R006", "A spacing override targets a No-rule or Device-checked matrix cell; the \
              value can never be consulted by the interaction stage.");
    ("R007", "A directed same-layer key (space_X_X) is shadowed by the canonical \
              space_X rule and ignored.");
    ("R008", "A rule-file line names a key the rule set does not define.");
    ("R009", "A rule-file key appears twice; the first occurrence wins and the second \
              is dead.");
    ("R010", "A rule-file line is not of the form \"key value\" after comment \
              stripping.");
    ("R011", "A rule value is not an integer literal between 1 and 2^30.");
    ("R012", "The rule deck is unsatisfiable: the smallest legal bonding pad, a glass \
              opening of contact_size surrounded by pad_metal_surround of metal on \
              each side, is narrower than width_metal, so no pad meets both rules.");
    ("R013", "A deck entry is redundant: its value is already implied by other \
              entries (a lambda default, an equal directed spelling, or the \
              effective matrix cell), so deleting it changes nothing.");
    ("R014", "A directed override family is non-monotone: the winning spelling is \
              strictly smaller than a written-but-shadowed one, silently weakening \
              the check and risking missed errors.");
    ("R015", "Cross-deck subsumption verdict: one deck's constraints dominate \
              another's pointwise, so a design clean under the stronger deck is \
              provably clean under the weaker one.");
    ("D001", "A call names a symbol number with no DS definition; elaboration fails and \
              the hierarchical net list (Fig 9) cannot be built.");
    ("D002", "Symbol calls form a cycle; a hierarchical design must be a DAG.");
    ("D003", "A symbol definition is never instantiated from the top level; it is dead \
              weight and is not checked in any context.");
    ("D004", "Two definitions share one symbol number; every call to it is ambiguous.");
    ("D005", "An element is narrower than its layer minimum width, so erosion by \
              skeleton_half leaves a degenerate skeleton: connections through it are \
              invisible and its errors go unchecked (paper §3 / Fig 4).");
    ("D006", "One net label names skeletally-disjoint element groups inside a call-free \
              definition; the label asserts a connection the geometry does not make.");
    ("D007", "Two calls place the same symbol at the identical transform; the duplicate \
              is either dead weight or a stacking error.");
    ("D008", "A call translation exceeds 2^40 layout units in magnitude; composed \
              coordinates risk integer overflow.");
    ("D009", "A device definition lacks a constituent mask layer its kind requires \
              (e.g. a transistor with no poly-diffusion crossing, Fig 5).") ]

let explain code = List.assoc_opt code all_codes

let mk ?loc code severity subject message = { code; severity; message; loc; subject }

let severity_name = function Error -> "error" | Warning -> "warning" | Note -> "note"

let compare_diagnostic a b =
  let locp = function
    | None -> (0, 0, 0)
    | Some l -> (1, l.Cif.Loc.line, l.Cif.Loc.col)
  in
  compare
    (locp a.loc, a.code, a.subject, a.message)
    (locp b.loc, b.code, b.subject, b.message)

let sort diags = List.sort compare_diagnostic diags
let has_errors diags = List.exists (fun d -> d.severity = Error) diags

let pp_diagnostic ppf d =
  Format.fprintf ppf "%s %s: %s [%s]" d.code (severity_name d.severity) d.message d.subject

let render ~src d =
  match d.loc with
  | Some l ->
    Format.asprintf "%s:%d:%d: %a" src l.Cif.Loc.line l.Cif.Loc.col pp_diagnostic d
  | None -> Format.asprintf "%s: %a" src pp_diagnostic d

let to_violations diags =
  List.map
    (fun d ->
      let make =
        match d.severity with
        | Error -> Report.error
        | Warning -> Report.warning
        | Note -> Report.info
      in
      make ~stage:Report.Integrity ~rule:("lint." ^ d.code) ~context:d.subject
        ?loc:d.loc d.message)
    diags

let record_metrics m diags =
  Metrics.incr ~by:(List.length diags) m "lint.diagnostics";
  Metrics.incr ~by:(List.length (List.filter (fun d -> d.severity = Error) diags)) m
    "lint.errors";
  Metrics.incr ~by:(List.length (List.filter (fun d -> d.severity = Warning) diags)) m
    "lint.warnings";
  List.iter (fun d -> Metrics.incr m ("lint.code." ^ d.code)) diags

(* Waiver filtering happens at reporting time, never before caching:
   caches hold the unfiltered diagnostics, so the same deck with and
   without waiver comments replays the same cache entries. *)
let partition_waived ~waivers diags =
  List.partition (fun d -> not (List.mem d.code waivers)) diags

let code_counts diags =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun d ->
      Hashtbl.replace tbl d.code (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d.code)))
    diags;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* ------------------------------------------------------------------ *)
(* Rule-deck pass                                                      *)

let check_deck (r : Tech.Rules.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* R001: odd minimum widths break the skeleton theorem. *)
  List.iter
    (fun layer ->
      let w = Tech.Rules.min_width r layer in
      if w mod 2 <> 0 then
        add
          (mk "R001" Error (Tech.Rules.width_key layer)
             (Printf.sprintf
                "minimum width %d on %s is odd: skeleton erosion truncates to %d and \
                 the legal-width + skeletal-connection theorem (Fig 4) loses a unit"
                w (Tech.Layer.to_cif layer) (w / 2))))
    Tech.Layer.routing;
  (* R002 / R003: value sanity over every rule, including pair overrides. *)
  let quantum =
    if r.Tech.Rules.lambda > 0 && r.Tech.Rules.lambda mod 4 = 0 then
      r.Tech.Rules.lambda / 4
    else 0
  in
  let check_value key v =
    if not (Tech.Rules.in_range v) then
      add
        (mk "R002" Error key
           (Printf.sprintf
              "%s is %d: every rule value must be a positive distance no larger than %d"
              key v Tech.Rules.max_value))
    else if key <> "lambda" && quantum > 0 && v mod quantum <> 0 then
      add
        (mk "R003" Warning key
           (Printf.sprintf "%s = %d is not a multiple of lambda/4 = %d" key v quantum))
  in
  List.iter (fun (key, v) -> check_value key v) (Tech.Rules.fields r);
  List.iter
    (fun (pair, v) -> check_value (Tech.Rules.pair_key_name pair) v)
    r.Tech.Rules.pair_spaces;
  (* R004: a minimal legal contact landing pad must satisfy the width rule. *)
  List.iter
    (fun layer ->
      let pad = r.Tech.Rules.contact_size + (2 * r.Tech.Rules.contact_surround) in
      let mw = Tech.Rules.min_width r layer in
      if pad < mw then
        add
          (mk "R004" Error "contact_surround"
             (Printf.sprintf
                "contact_size + 2*contact_surround = %d is below the %s minimum width \
                 %d: every legal contact landing pad violates the width rule"
                pad (Tech.Layer.to_cif layer) mw)))
    [ Tech.Layer.Diffusion; Tech.Layer.Poly; Tech.Layer.Metal ];
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
      (mk "R012" Error "pad_metal_surround"
         (Printf.sprintf
            "unsatisfiable: glass opening >= contact_size %d, so the minimal bonding \
             pad is %d + 2*pad_metal_surround %d = %d of metal, below width_metal %d \
             — no legal pad exists"
            glass glass r.Tech.Rules.pad_metal_surround pad r.Tech.Rules.width_metal));
  (* R013 needs provenance to tell written entries from implied
     defaults, so its clauses only run for decks from text. *)
  let written key = Tech.Rules.position r key <> None in
  let has_provenance = r.Tech.Rules.key_positions <> [] in
  (* R013a: an explicit canonical entry equal to its lambda default is
     implied by the [lambda] node alone. *)
  if has_provenance then begin
    let defaults = Tech.Rules.fields (Tech.Rules.nmos ~lambda:r.Tech.Rules.lambda ()) in
    List.iter
      (fun (key, v) ->
        if key <> "lambda" && written key then
          match List.assoc_opt key defaults with
          | Some dv when dv = v ->
            add
              (mk "R013" Warning key
                 (Printf.sprintf
                    "redundant: %s %d is already implied by lambda %d (the default \
                     is %d); deleting the entry changes nothing"
                    key v r.Tech.Rules.lambda dv))
          | _ -> ())
      (Tech.Rules.fields r)
  end;
  (* R005–R007, R013b, R014: one walk over the unordered cells the
     directed overrides name, against the Fig 12 matrix.  Overrides
     never change a cell's kind, so the effective matrix classifies the
     base cell too. *)
  let cells =
    List.sort_uniq compare
      (List.map
         (fun ((a, b), _) ->
           if Tech.Layer.index a <= Tech.Layer.index b then (a, b) else (b, a))
         r.Tech.Rules.pair_spaces)
  in
  List.iter
    (fun (lo, hi) ->
      let up = Tech.Rules.pair_key_name (lo, hi)
      and down = Tech.Rules.pair_key_name (hi, lo) in
      if Tech.Layer.equal lo hi then
        add
          (mk "R007" Warning up
             (Printf.sprintf "%s duplicates the canonical space_%s rule and is ignored"
                up (Tech.Rules.layer_name lo)))
      else
        match Tech.Interaction.entry r lo hi with
        | Tech.Interaction.No_rule ->
          add
            (mk "R006" Error up
               (Printf.sprintf
                  "no rule relates %s and %s (No-rule matrix cell): the spacing \
                   override is never consulted"
                  (Tech.Layer.to_cif lo) (Tech.Layer.to_cif hi)))
        | Tech.Interaction.Device_checked ->
          add
            (mk "R006" Error up
               (Printf.sprintf
                  "%s-%s interactions are checked inside device symbols \
                   (Device-checked matrix cell): the spacing override is never \
                   consulted"
                  (Tech.Layer.to_cif lo) (Tech.Layer.to_cif hi)))
        | Tech.Interaction.Space _ ->
          let asc = Tech.Rules.pair_space r lo hi
          and desc = Tech.Rules.pair_space r hi lo
          and base = Tech.Rules.cross_layer_space r lo hi
          and winner = Tech.Rules.cell_space_override r lo hi in
          let effective = match winner with Some v -> Some v | None -> base in
          (* R005: the family's values disagree. *)
          let values =
            List.sort_uniq Int.compare
              (List.filter_map Fun.id [ asc; desc; base ])
          in
          if List.length values > 1 then
            add
              (mk "R005" Error up
                 (Printf.sprintf
                    "%s-%s spacing is asymmetric (%s): the matrix is symmetric, so \
                     only %d is checked"
                    (Tech.Layer.to_cif lo) (Tech.Layer.to_cif hi)
                    (String.concat " vs "
                       (List.filter_map
                          (fun (name, v) ->
                            Option.map (fun v -> Printf.sprintf "%s %d" name v) v)
                          [ (up, asc); (down, desc); ("canonical", base) ]))
                    (Option.value ~default:0 effective)));
          if has_provenance then begin
            (* R013b: the descending spelling merely repeats the
               ascending one. *)
            (match (asc, desc) with
            | Some a, Some d when a = d ->
              add
                (mk "R013" Warning down
                   (Printf.sprintf
                      "redundant: %s %d duplicates %s %d; deleting it changes nothing"
                      down d up a))
            | _ -> ());
            (* R013b: a lone override that restates the canonical cell. *)
            match (asc, desc, base) with
            | (Some v, None, Some bv | None, Some v, Some bv) when v = bv ->
              let key = if Option.is_some asc then up else down in
              add
                (mk "R013" Warning key
                   (Printf.sprintf
                      "redundant: %s %d equals the canonical %s-%s spacing %d it \
                       overrides; deleting it changes nothing"
                      key v (Tech.Layer.to_cif lo) (Tech.Layer.to_cif hi) bv))
            | _ -> ()
          end;
          (* R014: any written member of the family strictly above the
             winning value is a silent weakening — the deck reads
             stricter than it checks. *)
          Option.iter
            (fun eff ->
              let winner_key =
                match (winner, asc) with
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
                      (mk "R014" Error k
                         (Printf.sprintf
                            "non-monotone override family: %s %d is shadowed by the \
                             effective %s %d — the deck reads stricter than it checks, \
                             so real %s-%s errors between %d and %d go unflagged"
                            k v winner_key eff (Tech.Layer.to_cif lo)
                            (Tech.Layer.to_cif hi) eff v)))
                family)
            effective)
    cells;
  (* Every deck diagnostic's subject is the rule-file key it is about,
     so the deck's own key positions place it. *)
  sort
    (List.map
       (fun d ->
         match Tech.Rules.position r d.subject with
         | Some line -> { d with loc = Some (Cif.Loc.make ~line ~col:1) }
         | None -> d)
       !diags)

let check_deck_source src =
  let deck, problems = Tech.Rules.load src in
  let diagnostic { Tech.Rules.line; kind } =
    let mk = mk ~loc:(Cif.Loc.make ~line ~col:1) in
    match kind with
    | Tech.Rules.Malformed text ->
      mk "R010" Error text
        (Printf.sprintf "malformed line: %S (expected \"key value\")" text)
    | Tech.Rules.Duplicate { key; first } ->
      mk "R009" Error key
        (Printf.sprintf
           "duplicate key %S: the first definition on line %d wins, this one is dead" key
           first)
    | Tech.Rules.Unknown_key key ->
      mk "R008" Error key (Printf.sprintf "unknown rule key %S" key)
    | Tech.Rules.Bad_value { key; value } ->
      mk "R011" Error key
        (Printf.sprintf "%s: expected a positive integer no larger than %d, got %S" key
           Tech.Rules.max_value value)
  in
  (* The deck keeps the surviving entries' positions, so [check_deck]
     places its diagnostics on their defining lines. *)
  (deck, sort (List.map diagnostic problems @ check_deck deck))

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
      mk "R015" Note (Printf.sprintf "%s/%s" la lb)
        (relation_message a b (compare_rules ra rb)))
    (pairs decks)

let relation_lines decks = List.map (fun d -> d.message) (deck_relations decks)

(* ------------------------------------------------------------------ *)
(* Design pass: syntax tree                                            *)

let sym_label (s : Cif.Ast.symbol) =
  match s.Cif.Ast.name with
  | Some n -> n
  | None -> Printf.sprintf "symbol %d" s.Cif.Ast.id

(* Composed coordinates are products/sums of translations; past 2^40
   units a few levels of instancing can overflow 63-bit ints. *)
let overflow_bound = 1 lsl 40

(* D007's key: a call's callee and transform.  Each scope files its
   calls here, so finding an earlier identical call is one lookup, not a
   scan of every earlier call. *)
module Call_tbl = Hashtbl.Make (struct
  type t = int * Geom.Transform.t

  let equal (a, ta) (b, tb) = a = b && Geom.Transform.equal ta tb
  let hash (callee, t) = ((Geom.Transform.hash t * 31) + callee) land max_int
end)

let check_ast (file : Cif.Ast.file) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* D004 + the id table (first definition wins, like Ast.find_symbol). *)
  let by_id = Hashtbl.create 16 in
  List.iter
    (fun (s : Cif.Ast.symbol) ->
      match Hashtbl.find_opt by_id s.Cif.Ast.id with
      | Some _ ->
        add
          (mk ?loc:s.Cif.Ast.sym_loc "D004" Error (sym_label s)
             (Printf.sprintf "symbol %d defined more than once: calls to it are \
                              ambiguous"
                s.Cif.Ast.id))
      | None -> Hashtbl.replace by_id s.Cif.Ast.id s)
    file.Cif.Ast.symbols;
  (* D001 / D007 / D008, per call scope. *)
  let scan_calls owner calls =
    let earlier = Call_tbl.create 16 in
    let rec go = function
      | [] -> ()
      | (c : Cif.Ast.call) :: rest ->
        if not (Hashtbl.mem by_id c.Cif.Ast.callee) then
          add
            (mk ?loc:c.Cif.Ast.call_loc "D001" Error owner
               (Printf.sprintf "%s calls undefined symbol %d" owner c.Cif.Ast.callee));
        let o = Geom.Transform.apply_pt c.Cif.Ast.transform Geom.Pt.zero in
        if abs o.Geom.Pt.x > overflow_bound || abs o.Geom.Pt.y > overflow_bound then
          add
            (mk ?loc:c.Cif.Ast.call_loc "D008" Error owner
               (Printf.sprintf
                  "call to symbol %d translates to (%d, %d): beyond 2^40 units, \
                   composed coordinates risk overflow"
                  c.Cif.Ast.callee o.Geom.Pt.x o.Geom.Pt.y));
        let key = (c.Cif.Ast.callee, c.Cif.Ast.transform) in
        if Call_tbl.mem earlier key then
          add
            (mk ?loc:c.Cif.Ast.call_loc "D007" Warning owner
               (Printf.sprintf "%s instantiates symbol %d twice at the same transform"
                  owner c.Cif.Ast.callee))
        else Call_tbl.add earlier key ();
        go rest
    in
    go calls
  in
  List.iter (fun (s : Cif.Ast.symbol) -> scan_calls (sym_label s) s.Cif.Ast.calls)
    file.Cif.Ast.symbols;
  scan_calls "TOP" file.Cif.Ast.top_calls;
  (* D002: collect every cycle (check_acyclic stops at the first). *)
  let state = Hashtbl.create 16 in
  let reported = Hashtbl.create 4 in
  let rec visit stack id =
    match Hashtbl.find_opt state id with
    | Some `Done -> ()
    | Some `Visiting ->
      if not (Hashtbl.mem reported id) then begin
        Hashtbl.replace reported id ();
        (* [stack] is most-recent-first; the cycle is the prefix up to
           and including [id], reversed into call order. *)
        let rec upto acc = function
          | [] -> acc
          | x :: rest -> if x = id then x :: acc else upto (x :: acc) rest
        in
        let members = upto [] stack in
        let name i =
          match Hashtbl.find_opt by_id i with
          | Some s -> sym_label s
          | None -> Printf.sprintf "symbol %d" i
        in
        let loc = Option.bind (Hashtbl.find_opt by_id id) (fun s -> s.Cif.Ast.sym_loc) in
        add
          (mk ?loc "D002" Error (name id)
             (Printf.sprintf "call cycle: %s -> %s"
                (String.concat " -> " (List.map name members))
                (name id)))
      end
    | None -> (
      match Hashtbl.find_opt by_id id with
      | None -> ()
      | Some s ->
        Hashtbl.replace state id `Visiting;
        List.iter
          (fun (c : Cif.Ast.call) -> visit (id :: stack) c.Cif.Ast.callee)
          s.Cif.Ast.calls;
        Hashtbl.replace state id `Done)
  in
  List.iter (fun (c : Cif.Ast.call) -> visit [] c.Cif.Ast.callee) file.Cif.Ast.top_calls;
  List.iter (fun (s : Cif.Ast.symbol) -> visit [] s.Cif.Ast.id) file.Cif.Ast.symbols;
  (* D003: definitions unreachable from a non-empty top level.  A file
     with no top-level calls is a library; everything would be
     "unused", so the lint stays silent there. *)
  if file.Cif.Ast.top_calls <> [] then begin
    let reachable = Hashtbl.create 16 in
    let rec reach id =
      if not (Hashtbl.mem reachable id) then begin
        Hashtbl.replace reachable id ();
        match Hashtbl.find_opt by_id id with
        | None -> ()
        | Some s ->
          List.iter (fun (c : Cif.Ast.call) -> reach c.Cif.Ast.callee) s.Cif.Ast.calls
      end
    in
    List.iter (fun (c : Cif.Ast.call) -> reach c.Cif.Ast.callee) file.Cif.Ast.top_calls;
    List.iter
      (fun (s : Cif.Ast.symbol) ->
        if not (Hashtbl.mem reachable s.Cif.Ast.id) then
          add
            (mk ?loc:s.Cif.Ast.sym_loc "D003" Warning (sym_label s)
               (Printf.sprintf "%s is never instantiated from the top level"
                  (sym_label s))))
      file.Cif.Ast.symbols
  end;
  sort !diags

(* ------------------------------------------------------------------ *)
(* Design pass: elaborated model                                       *)

let required_layers = function
  | Tech.Device.Enhancement -> [ Tech.Layer.Poly; Tech.Layer.Diffusion ]
  | Tech.Device.Depletion -> [ Tech.Layer.Poly; Tech.Layer.Diffusion; Tech.Layer.Implant ]
  | Tech.Device.Contact_cut -> [ Tech.Layer.Contact; Tech.Layer.Metal ]
  | Tech.Device.Butting_contact ->
    [ Tech.Layer.Contact; Tech.Layer.Metal; Tech.Layer.Poly; Tech.Layer.Diffusion ]
  | Tech.Device.Buried_contact ->
    [ Tech.Layer.Buried; Tech.Layer.Poly; Tech.Layer.Diffusion ]
  | Tech.Device.Resistor -> [ Tech.Layer.Diffusion ]
  | Tech.Device.Pad -> [ Tech.Layer.Glass; Tech.Layer.Metal ]
  | Tech.Device.Checked -> []

(* The model pass is a per-definition fact: each D-code below looks at
   one symbol's own elements (plus the deck rules the model was
   elaborated under), never at its callers or callees' geometry. *)
let check_model_symbol (model : Model.t) (s : Model.symbol) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let rules = model.Model.rules in
  (let has l =
        List.exists (fun (e : Model.element) -> Tech.Layer.equal e.Model.layer l)
          s.Model.elements
      in
      if Model.is_device s then begin
        (* D009: device definitions missing their constituent layers. *)
        match s.Model.device with
        | None -> ()
        | Some kind ->
          let missing = List.filter (fun l -> not (has l)) (required_layers kind) in
          if missing <> [] then
            add
              (mk ?loc:s.Model.sloc "D009" Error s.Model.sname
                 (Printf.sprintf "%s device %s lacks constituent layer(s) %s"
                    (Tech.Device.to_tag kind) s.Model.sname
                    (String.concat ", " (List.map Tech.Layer.to_cif missing))));
          if
            Tech.Device.equal kind Tech.Device.Contact_cut
            && (not (has Tech.Layer.Poly))
            && not (has Tech.Layer.Diffusion)
          then
            add
              (mk ?loc:s.Model.sloc "D009" Error s.Model.sname
                 (Printf.sprintf "contact device %s has no landing conductor (NP or ND)"
                    s.Model.sname));
          if Tech.Device.is_transistor kind && has Tech.Layer.Poly && has Tech.Layer.Diffusion
          then begin
            let bbs l =
              List.filter_map
                (fun (e : Model.element) ->
                  if Tech.Layer.equal e.Model.layer l then Some e.Model.bbox else None)
                s.Model.elements
            in
            let crossing =
              List.exists
                (fun p ->
                  List.exists (fun d -> Geom.Rect.overlaps ~a:p ~b:d)
                    (bbs Tech.Layer.Diffusion))
                (bbs Tech.Layer.Poly)
            in
            if not crossing then
              add
                (mk ?loc:s.Model.sloc "D009" Error s.Model.sname
                   (Printf.sprintf
                      "transistor %s has no poly-diffusion crossing (Fig 5)"
                      s.Model.sname))
          end
      end
      else begin
        (* D005: drawn geometry below the layer minimum erodes to a
           degenerate skeleton. *)
        List.iter
          (fun (e : Model.element) ->
            if List.exists (Tech.Layer.equal e.Model.layer) Tech.Layer.routing then begin
              let mw = Tech.Rules.min_width rules e.Model.layer in
              let drawn =
                match e.Model.shape with
                | Model.S_box r -> min (Geom.Rect.width r) (Geom.Rect.height r)
                | Model.S_wire w -> w.Geom.Wire.width
                | Model.S_poly _ ->
                  min (Geom.Rect.width e.Model.bbox) (Geom.Rect.height e.Model.bbox)
              in
              if drawn < mw then
                add
                  (mk ?loc:e.Model.loc "D005" Warning s.Model.sname
                     (Printf.sprintf
                        "element %d on %s in %s is %d wide (minimum %d): it erodes to \
                         a degenerate skeleton, hiding its connections from the \
                         checker"
                        e.Model.eid
                        (Tech.Layer.to_cif e.Model.layer)
                        s.Model.sname drawn mw))
            end)
          s.Model.elements;
        (* D006: net-label reuse across skeletally-disjoint same-layer
           groups.  Only in call-free definitions: with instances
           around, the label may legitimately connect through callee
           geometry. *)
        if s.Model.calls = [] then begin
          let tbl = Hashtbl.create 8 in
          List.iter
            (fun (e : Model.element) ->
              match e.Model.net_label with
              | Some l when String.length l > 0 && l.[String.length l - 1] <> '!' ->
                let key = (l, Tech.Layer.index e.Model.layer) in
                Hashtbl.replace tbl key
                  (e :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
              | _ -> ())
            s.Model.elements;
          let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
          List.iter
            (fun ((label, li) as key) ->
              let elems = List.rev (Hashtbl.find tbl key) in
              if List.length elems > 1 then begin
                let touches (a : Model.element) (b : Model.element) =
                  List.exists
                    (fun ra ->
                      List.exists (fun rb -> Geom.Rect.touches ~a:ra ~b:rb) b.Model.skeleton)
                    a.Model.skeleton
                in
                let rec components pending acc =
                  match pending with
                  | [] -> acc
                  | e :: rest ->
                    let rec grow comp rest =
                      let more, rest' =
                        List.partition (fun x -> List.exists (fun c -> touches c x) comp) rest
                      in
                      if more = [] then rest' else grow (more @ comp) rest'
                    in
                    components (grow [ e ] rest) (acc + 1)
                in
                let n = components elems 0 in
                if n > 1 then
                  let layer = List.nth Tech.Layer.all li in
                  add
                    (mk ?loc:(List.hd elems).Model.loc "D006" Warning label
                       (Printf.sprintf
                          "net %S labels %d skeletally-disjoint element groups on %s \
                           in %s"
                          label n (Tech.Layer.to_cif layer) s.Model.sname))
              end)
            keys
        end
      end);
  sort !diags

let check_model (model : Model.t) =
  sort (List.concat_map (check_model_symbol model) model.Model.symbols)

let check_design rules file =
  let ast_diags = check_ast file in
  let model_diags =
    match Model.elaborate rules file with
    | Ok (model, _) -> check_model model
    | Error _ -> []
  in
  sort (ast_diags @ model_diags)
