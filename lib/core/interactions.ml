type spacing_model =
  | Geometric
  | Exposure of { model : Process_model.Exposure.t; misalign : int }

type config = {
  metric : Geom.Measure.metric;
  check_same_net : bool;
  spacing_model : spacing_model;
  jobs : int;
}

let default_config =
  { metric = Geom.Measure.Orthogonal; check_same_net = false;
    spacing_model = Geometric; jobs = 1 }

type cell_stats = {
  mutable pairs : int;
  mutable checked : int;
  mutable skipped_same_net : int;
  mutable skipped_no_rule : int;
  mutable skipped_device : int;
}

type stats = {
  cells : (Tech.Layer.t * Tech.Layer.t, cell_stats) Hashtbl.t;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable bbox_rejects : int;
  mutable materialised : int;
}

let new_stats () =
  { cells = Hashtbl.create 16; memo_hits = 0; memo_misses = 0; bbox_rejects = 0;
    materialised = 0 }

(* Layer indices are dense (0 .. nlayers-1, in [Tech.Layer.all] order),
   so the per-pair hot path counts into a flat [cell_stats array] and
   looks rules up in a precomputed entry matrix — no tuple keys, no
   hashing, no option boxing per pair.  The Hashtbl-shaped [stats]
   above stays the public, mergeable view; the flat counters are folded
   into it once per run (see [fold_cells]). *)
let nlayers = List.length Tech.Layer.all
let layer_of_index = Array.of_list Tech.Layer.all

let new_cells () =
  Array.init (nlayers * nlayers) (fun _ ->
      { pairs = 0; checked = 0; skipped_same_net = 0; skipped_no_rule = 0;
        skipped_device = 0 })

let cell stats la lb =
  let key = if Tech.Layer.index la <= Tech.Layer.index lb then (la, lb) else (lb, la) in
  match Hashtbl.find_opt stats.cells key with
  | Some c -> c
  | None ->
    let c =
      { pairs = 0; checked = 0; skipped_same_net = 0; skipped_no_rule = 0;
        skipped_device = 0 }
    in
    Hashtbl.add stats.cells key c;
    c

let pp_stats ppf stats =
  Format.fprintf ppf "@[<v>";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) stats.cells []
  |> List.sort (fun ((a1, a2), _) ((b1, b2), _) ->
         match Tech.Layer.compare a1 b1 with
         | 0 -> Tech.Layer.compare a2 b2
         | c -> c)
  |> List.iter (fun ((la, lb), c) ->
         Format.fprintf ppf "%s-%s: pairs=%d checked=%d same-net-skip=%d no-rule=%d device=%d@,"
           (Tech.Layer.to_cif la) (Tech.Layer.to_cif lb) c.pairs c.checked
           c.skipped_same_net c.skipped_no_rule c.skipped_device);
  Format.fprintf ppf "memo: %d hits / %d misses; bbox rejects: %d@]" stats.memo_hits
    stats.memo_misses stats.bbox_rejects

let merge_stats ~into src =
  Hashtbl.iter
    (fun (la, lb) (c : cell_stats) ->
      let d = cell into la lb in
      d.pairs <- d.pairs + c.pairs;
      d.checked <- d.checked + c.checked;
      d.skipped_same_net <- d.skipped_same_net + c.skipped_same_net;
      d.skipped_no_rule <- d.skipped_no_rule + c.skipped_no_rule;
      d.skipped_device <- d.skipped_device + c.skipped_device)
    src.cells;
  into.memo_hits <- into.memo_hits + src.memo_hits;
  into.memo_misses <- into.memo_misses + src.memo_misses;
  into.bbox_rejects <- into.bbox_rejects + src.bbox_rejects;
  into.materialised <- into.materialised + src.materialised

let record_metrics metrics stats =
  let total field =
    Hashtbl.fold (fun _ c acc -> acc + field c) stats.cells 0
  in
  Metrics.incr ~by:(total (fun c -> c.pairs)) metrics "interactions.pairs";
  Metrics.incr ~by:(total (fun c -> c.checked)) metrics "interactions.checked";
  Metrics.incr ~by:(total (fun c -> c.skipped_same_net)) metrics
    "interactions.skipped_same_net";
  Metrics.incr ~by:(total (fun c -> c.skipped_no_rule)) metrics
    "interactions.skipped_no_rule";
  Metrics.incr ~by:(total (fun c -> c.skipped_device)) metrics
    "interactions.skipped_device";
  Metrics.incr ~by:stats.memo_hits metrics "interactions.memo_hits";
  Metrics.incr ~by:stats.memo_misses metrics "interactions.memo_misses";
  Metrics.incr ~by:stats.bbox_rejects metrics "interactions.bbox_rejects";
  Metrics.incr ~by:stats.materialised metrics "interactions.materialised"

(* ------------------------------------------------------------------ *)

(* A geometry site participating in an interaction: an element reached
   through [path] (call indices from the symbol being checked), with
   its geometry already mapped into that symbol's coordinates. *)
(* Fields are mutable solely so the instance-pair evaluator can
   instantiate a memoised candidate that produced a finding into two
   per-domain scratch sites instead of allocating fresh records (see
   [transform_site_into]); sites built by [frontier] or stored in the
   candidate memo are never mutated. *)
type site = {
  mutable s_path : int list;
  mutable s_eid : int;
  mutable s_layer : Tech.Layer.t;
  mutable s_rects : Geom.Rects.t;
      (** packed; never mutated once the site is built *)
  mutable s_bbox : Geom.Rect.t;
  mutable s_device : Tech.Device.kind option;  (** of the owning symbol *)
  mutable s_loc : Cif.Loc.t option;  (** CIF source position of the element *)
}

(* The widest spacing any rule in the deck can demand — the candidate
   cutoff and grid cell size.  Directed [space_<a>_<b>] overrides are
   folded in too: an override larger than every base space would
   otherwise put violating pairs beyond the collection window (a missed
   violation, the paper's Fig 1 bottom region). *)
let max_dist rules =
  List.fold_left
    (fun acc (_, v) -> max acc v)
    (List.fold_left max 0
       [ rules.Tech.Rules.space_diffusion; rules.Tech.Rules.space_poly;
         rules.Tech.Rules.space_metal; rules.Tech.Rules.space_contact;
         rules.Tech.Rules.space_poly_diffusion ])
    rules.Tech.Rules.pair_spaces

(* Minimum gap between two packed rect sets under the metric, via the
   {!Geom.Rects} sweep kernel.  [cutoff2] bounds the search: pairs
   farther apart than the caller cares about are pruned early, and the
   kernel reports the canonical (lexicographically first) closest pair
   for error localisation. *)
let gap2_of cfg ~cutoff2 ws a b =
  Geom.Rects.gap2
    ~euclid:(cfg.metric = Geom.Measure.Euclidean)
    ~cutoff2 ws a b

(* ------------------------------------------------------------------ *)
(* Frontier collection                                                 *)

let rec frontier model window tr path (sym : Model.symbol) acc =
  let identity = Geom.Transform.equal tr Geom.Transform.identity in
  let acc =
    List.fold_left
      (fun acc (e : Model.element) ->
        let bbox = Geom.Transform.apply_rect tr e.Model.bbox in
        if Geom.Rect.touches ~a:bbox ~b:window then
          { s_path = List.rev path;
            s_eid = e.Model.eid;
            s_layer = e.Model.layer;
            s_rects =
              (* Untransformed sites share the element's packed set;
                 both are immutable by contract. *)
              (if identity then e.Model.packed else Geom.Rects.apply tr e.Model.packed);
            s_bbox = bbox;
            s_device = sym.Model.device;
            s_loc = e.Model.loc }
          :: acc
        else acc)
      acc sym.Model.elements
  in
  List.fold_left
    (fun acc (c : Model.call) ->
      let callee = Model.find model c.Model.callee in
      match callee.Model.sbbox with
      | None -> acc
      | Some bb ->
        let tr' = Geom.Transform.compose tr c.Model.transform in
        let bbox = Geom.Transform.apply_rect tr' bb in
        if Geom.Rect.touches ~a:bbox ~b:window then
          frontier model window tr' (c.Model.cidx :: path) callee acc
        else acc)
    acc sym.Model.calls

(* ------------------------------------------------------------------ *)
(* Fast net resolution                                                 *)

type env = {
  model : Model.t;
  nets : Netgen.t;
  calls_arr : (int, Model.call array) Hashtbl.t;
}

let make_env nets =
  let model = nets.Netgen.model in
  let calls_arr = Hashtbl.create 16 in
  List.iter
    (fun (s : Model.symbol) ->
      Hashtbl.replace calls_arr s.Model.sid (Array.of_list s.Model.calls))
    model.Model.symbols;
  { model; nets; calls_arr }

(* The symbol at the end of [path] from [sid]. *)
let rec owner env sid = function
  | [] -> sid
  | c :: rest -> owner env (Hashtbl.find env.calls_arr sid).(c).Model.callee rest

(* Lift a net group of the symbol at the end of [path] up to [sid]'s
   net numbering. *)
let rec resolve_group env sid path gid =
  match path with
  | [] -> Some gid
  | c :: rest -> (
    let sn = Netgen.nets_of env.nets sid in
    let calls = Hashtbl.find env.calls_arr sid in
    match resolve_group env calls.(c).Model.callee rest gid with
    | None -> None
    | Some child_gid -> Hashtbl.find_opt sn.Netgen.sub_group (c, child_gid))

(* Net of element [eid] of the symbol at the end of [path], in [sid]'s
   net numbering: its own group there, lifted. *)
let resolve env sid path eid =
  match (Netgen.nets_of env.nets (owner env sid path)).Netgen.elt_group.(eid) with
  | None -> None
  | Some gid -> resolve_group env sid path gid

(* All port nets of the (device) instance a site lives in, in [sid]'s
   net numbering. *)
let instance_port_nets env sid path =
  let sn = Netgen.nets_of env.nets (owner env sid path) in
  Array.to_list sn.Netgen.groups
  |> List.filter_map (fun (g : Netgen.group) -> resolve_group env sid path g.Netgen.gid)

(* ------------------------------------------------------------------ *)
(* The pair check                                                      *)

type outcome =
  | Skip
  | Short of Geom.Rect.t
  | Accidental of Geom.Rect.t  (** poly-diffusion crossing outside a device *)
  | Violation of Geom.Rect.t * int * int  (** where, required, gap2 *)

(* [head_equal] pairs live inside one instance and are that
   definition's business; never re-check them in the parent. *)
let head_equal a b =
  match (a.s_path, b.s_path) with
  | ha :: _, hb :: _ -> ha = hb
  | _ -> false

let poly_diff_pair la lb =
  Tech.Layer.(
    (equal la Poly && equal lb Diffusion) || (equal la Diffusion && equal lb Poly))

(* Error-localisation bbox of the judged pair: the hull of the kernel's
   canonical closest rectangles (or of the site bboxes when the kernel
   pruned everything past the cutoff).  Called only on the rare branch
   that actually emits a finding — the overwhelmingly common Skip path
   allocates no rectangles.  [judge_pair], the pair check itself, lives
   below with the per-domain context it reads from. *)
let[@inline] where_of (g : Geom.Rects.gap) a b =
  if g.Geom.Rects.ai >= 0 then
    Geom.Rect.hull
      (Geom.Rects.get a.s_rects g.Geom.Rects.ai)
      (Geom.Rects.get b.s_rects g.Geom.Rects.bi)
  else Geom.Rect.hull a.s_bbox b.s_bbox

let report_outcome ~context ?path ?loc la lb outcome =
  let pair_name =
    if Tech.Layer.equal la lb then Tech.Layer.to_cif la
    else if Tech.Layer.index la <= Tech.Layer.index lb then
      Tech.Layer.to_cif la ^ "-" ^ Tech.Layer.to_cif lb
    else Tech.Layer.to_cif lb ^ "-" ^ Tech.Layer.to_cif la
  in
  match outcome with
  | Skip -> []
  | Short where ->
    [ Report.error ~stage:Report.Interactions ~rule:("short." ^ pair_name) ~where
        ~context ?path ?loc
        (Printf.sprintf "%s geometry on different nets touches (short)" pair_name) ]
  | Accidental where ->
    [ Report.error ~stage:Report.Integrity ~rule:"integrity.accidental-transistor" ~where
        ~context ?path ?loc "poly crosses diffusion outside a transistor symbol" ]
  | Violation (where, req, gap2) ->
    [ Report.error ~stage:Report.Interactions ~rule:("spacing." ^ pair_name) ~where
        ~context ?path ?loc
        (Printf.sprintf "%s spacing %.2f < %d" pair_name
           (sqrt (float_of_int gap2)) req) ]

(* Dotted instance path of a site, rooted at the definition being
   checked: "inv[3].contact[0]" under context "TOP" reads
   "TOP.inv[3].contact[0]".  [None] when the element is local to the
   definition — the context alone already names it. *)
let site_instance_path env sid ~context (site : site) =
  let rec go sid' acc = function
    | [] -> List.rev acc
    | c :: rest ->
      let calls = Hashtbl.find env.calls_arr sid' in
      let call = calls.(c) in
      let callee = Model.find env.model call.Model.callee in
      go call.Model.callee
        (Printf.sprintf "%s[%d]" callee.Model.sname c :: acc)
        rest
  in
  match go sid [] site.s_path with
  | [] -> None
  | segs -> Some (String.concat "." (context :: segs))

(* A pair violation gets one provenance: site [a]'s path and source
   position, falling back to [b]'s when [a] has none (both sites are in
   the message's bbox anyway). *)
let pair_provenance env sid ~context a b =
  let path =
    match site_instance_path env sid ~context a with
    | Some _ as p -> p
    | None -> site_instance_path env sid ~context b
  in
  let loc = match a.s_loc with Some _ as l -> l | None -> b.s_loc in
  (path, loc)

(* ------------------------------------------------------------------ *)
(* Instance-pair memoisation                                           *)

(* Everything a candidate's verdict needs that does not depend on where
   the pair is placed.  Placements are orthogonal isometries, so the gap
   is the same in every caller; net groups are kept in each callee's own
   numbering and lifted into a caller by one [sub_group] lookup. *)
type cand = {
  k_site_a : site;  (** in A's frame, path within A *)
  k_site_b : site;  (** placed in A's frame by the relative transform, path within B *)
  k_gap2 : int;  (** exact squared gap: kept only when within [dmax] *)
  k_net_a : int option;  (** site A's net in A's numbering *)
  k_net_b : int option;  (** site B's net in B's numbering *)
  k_ports_a : int list;
      (** port nets of the device instance owning site A, in A's
          numbering; [[]] unless site A is device geometry *)
  k_ports_b : int list;
}

(* A placement class: (callee, callee, placement of the second callee
   in the first one's frame).  It keys the candidate memo, and the
   certificate guard decides once per class. *)
type memo_key = int * int * Geom.Transform.t

let candidates cfg env dmax (memo : (memo_key, cand list) Hashtbl.t) stats ws
    ((sa, sb, rel) as key) =
  match Hashtbl.find_opt memo key with
  | Some cs ->
    stats.memo_hits <- stats.memo_hits + 1;
    cs
  | None ->
    stats.memo_misses <- stats.memo_misses + 1;
    let ports sid (s : site) =
      if s.s_device = None then [] else instance_port_nets env sid s.s_path
    in
    let syma = Model.find env.model sa and symb = Model.find env.model sb in
    let cs =
      match (syma.Model.sbbox, symb.Model.sbbox) with
      | Some ba, Some bb -> (
        let bb_rel = Geom.Transform.apply_rect rel bb in
        let wa = Geom.Rect.inflate ba dmax and wb = Geom.Rect.inflate bb_rel dmax in
        match (wa, wb) with
        | Some wa, Some wb -> (
          match Geom.Rect.inter wa wb with
          | None -> []
          | Some window ->
            let sites_a = frontier env.model window Geom.Transform.identity [] syma [] in
            let sites_b = frontier env.model window rel [] symb [] in
            List.concat_map
              (fun a ->
                List.filter_map
                  (fun b ->
                    if Geom.Rect.chebyshev_gap a.s_bbox b.s_bbox > dmax then begin
                      stats.bbox_rejects <- stats.bbox_rejects + 1;
                      None
                    end
                    else
                      let g = gap2_of cfg ~cutoff2:(dmax * dmax) ws a.s_rects b.s_rects in
                      if g.Geom.Rects.ai >= 0 then
                        Some
                          { k_site_a = a;
                            k_site_b = b;
                            k_gap2 = g.Geom.Rects.g2;
                            k_net_a = resolve env sa a.s_path a.s_eid;
                            k_net_b = resolve env sb b.s_path b.s_eid;
                            k_ports_a = ports sa a;
                            k_ports_b = ports sb b }
                      else None)
                  sites_b)
              sites_a)
        | _ -> [])
      | _ -> []
    in
    Hashtbl.add memo key cs;
    cs

(* Instantiate a memoised candidate site into the caller's frame, for
   the rare pair that must be measured there: one that produced a
   finding (its location, closest pair and provenance are frame
   dependent) or one judged under the exposure model.  [dst] is a
   per-domain scratch rect set and [into] a per-domain scratch site
   record; both live only for the duration of one judged pair. *)
let transform_site_into ~dst ~into tr s path =
  Geom.Rects.apply_into tr ~src:s.s_rects ~dst;
  into.s_path <- path;
  into.s_eid <- s.s_eid;
  into.s_layer <- s.s_layer;
  into.s_rects <- dst;
  into.s_bbox <- Geom.Transform.apply_rect tr s.s_bbox;
  into.s_device <- s.s_device;
  into.s_loc <- s.s_loc;
  into

(* ------------------------------------------------------------------ *)
(* The worklist                                                        *)

(* Everything below runs in two phases.  Phase 1 (serial, cheap) walks
   the definitions once and builds an ordered worklist of independent
   *tasks*, plain data: a chunk of local element pairs, one element
   against the calls near it, or one call pair.  Phase 2 evaluates the
   tasks on the {!Parallel} queue — drained by the calling domain alone
   at [jobs = 1], by [Domain.spawn] workers claiming contiguous chunks
   otherwise.

   A task only reads shared state (the model, the net structure — both
   frozen after elaboration); everything it mutates lives in the
   per-domain [dctx] below, merged deterministically after the join.
   Because a task's result does not depend on its [dctx] (the memo is a
   pure cache, the stats are write-only) and results are merged by
   chunk index, the concatenated report is identical whatever the
   domain count — only the per-domain observability (the memo hit/miss
   split, bbox reject counts per shard, trace lanes) depends on which
   domain happened to claim which chunk. *)

type dctx = {
  d_stats : stats;
  d_memo : (memo_key, cand list) Hashtbl.t;
  d_ports : (int * int list, int list) Hashtbl.t;
      (** (sid, site path) -> port nets of the owning device instance,
          for sites already in the checked symbol's frame *)
  d_ws : Geom.Rects.ws;  (** sweep-kernel scratch, one per domain *)
  d_ta : Geom.Rects.t;  (** scratch for instantiating memoised site A… *)
  d_tb : Geom.Rects.t;  (** …and site B, only for a finding or under [Exposure] *)
  d_sa : site;  (** scratch site records over [d_ta]/[d_tb], live within one judged pair *)
  d_sb : site;
  d_cells : cell_stats array;
      (** flat per-layer-pair counters ([ia * nlayers + ib], ia <= ib);
          folded into [d_stats.cells] after the run *)
  d_entry : Tech.Interaction.entry array;
      (** the run's rule deck, resolved per layer pair once — indexing
          it allocates nothing, unlike re-deriving the entry per pair *)
}

let make_dctx rules memo =
  let ta = Geom.Rects.empty () and tb = Geom.Rects.empty () in
  let scratch_site rects =
    { s_path = []; s_eid = -1; s_layer = Tech.Layer.Diffusion; s_rects = rects;
      s_bbox = Geom.Rect.make 0 0 0 0; s_device = None; s_loc = None }
  in
  { d_stats = new_stats (); d_memo = memo; d_ports = Hashtbl.create 64;
    d_ws = Geom.Rects.make_ws (); d_ta = ta; d_tb = tb;
    d_sa = scratch_site ta; d_sb = scratch_site tb; d_cells = new_cells ();
    d_entry =
      Array.init (nlayers * nlayers) (fun i ->
          Tech.Interaction.entry rules
            layer_of_index.(i / nlayers)
            layer_of_index.(i mod nlayers)) }

let[@inline] dcell dctx la lb =
  let ia = Tech.Layer.index la and ib = Tech.Layer.index lb in
  dctx.d_cells.(if ia <= ib then (ia * nlayers) + ib else (ib * nlayers) + ia)

(* A cell is touched iff its [pairs] counter moved ([judge_pair] bumps
   it before anything else), so folding only those keeps the Hashtbl
   key set — and hence [pp_stats] output — identical to the old
   count-in-place representation. *)
let fold_cells dctx =
  for ia = 0 to nlayers - 1 do
    for ib = ia to nlayers - 1 do
      let c = dctx.d_cells.((ia * nlayers) + ib) in
      if c.pairs > 0 then begin
        let d = cell dctx.d_stats layer_of_index.(ia) layer_of_index.(ib) in
        d.pairs <- d.pairs + c.pairs;
        d.checked <- d.checked + c.checked;
        d.skipped_same_net <- d.skipped_same_net + c.skipped_same_net;
        d.skipped_no_rule <- d.skipped_no_rule + c.skipped_no_rule;
        d.skipped_device <- d.skipped_device + c.skipped_device
      end
    done
  done

(* Where [judge_pair] takes a pair's nets and gap from.  [In_frame]
   sites are in the checked symbol's frame: nets resolve through their
   paths and the kernel measures their geometry.  [Memoised] sites are a
   memo candidate's, in the callees' frames: nets are the candidate's
   callee-local groups lifted through calls [ca] and [cb], and the gap
   is the candidate's stored one, so the pair is instantiated into the
   caller only when it must be measured there (see
   [transform_site_into]). *)
type facts =
  | In_frame
  | Memoised of {
      sub : (int * int, int) Hashtbl.t;  (** the checked symbol's [sub_group] *)
      ca : Model.call;
      cb : Model.call;
      cand : cand;
    }

let lift sub (c : Model.call) = function
  | None -> None
  | Some gid -> Hashtbl.find_opt sub (c.Model.cidx, gid)

let rec mem_lifted sub (c : Model.call) n = function
  | [] -> false
  | gid :: rest -> (
    match Hashtbl.find_opt sub (c.Model.cidx, gid) with
    | Some m when m = n -> true
    | _ -> mem_lifted sub c n rest)

(* Net of the pair's site [`A] or [`B] in [sid]'s numbering. *)
let net_of env sid facts side (site : site) =
  match (facts, side) with
  | In_frame, _ -> resolve env sid site.s_path site.s_eid
  | Memoised { sub; ca; cand; _ }, `A -> lift sub ca cand.k_net_a
  | Memoised { sub; cb; cand; _ }, `B -> lift sub cb cand.k_net_b

let same_net env sid facts a b =
  match (net_of env sid facts `A a, net_of env sid facts `B b) with
  | Some x, Some y -> x = y
  | _ -> false

let port_nets env dctx sid (site : site) =
  match Hashtbl.find_opt dctx.d_ports (sid, site.s_path) with
  | Some ns -> ns
  | None ->
    let ns = instance_port_nets env sid site.s_path in
    Hashtbl.add dctx.d_ports (sid, site.s_path) ns;
    ns

(* Is [n] a port net of the device instance owning the site? *)
let on_ports env dctx sid facts side (site : site) n =
  match (facts, side) with
  | In_frame, _ -> List.mem n (port_nets env dctx sid site)
  | Memoised { sub; ca; cand; _ }, `A -> mem_lifted sub ca n cand.k_ports_a
  | Memoised { sub; cb; cand; _ }, `B -> mem_lifted sub cb n cand.k_ports_b

(* Device geometry of an instance: a memoised site always lies inside a
   call of the checked symbol. *)
let is_device_site facts (site : site) =
  site.s_device <> None && match facts with In_frame -> site.s_path <> [] | Memoised _ -> true

let related env dctx sid facts a b =
  (is_device_site facts a
  && match net_of env sid facts `B b with
     | Some n -> on_ports env dctx sid facts `A a n
     | None -> false)
  || (is_device_site facts b
     && match net_of env sid facts `A a with
        | Some n -> on_ports env dctx sid facts `B b n
        | None -> false)

(* Instantiate a memoised pair into the per-domain scratch sites
   [d_sa]/[d_sb]; returns [d_sa]. *)
let instantiate dctx (ca : Model.call) (cb : Model.call) cand =
  dctx.d_stats.materialised <- dctx.d_stats.materialised + 1;
  let tr = ca.Model.transform in
  ignore
    (transform_site_into ~dst:dctx.d_tb ~into:dctx.d_sb tr cand.k_site_b
       (cb.Model.cidx :: cand.k_site_b.s_path));
  transform_site_into ~dst:dctx.d_ta ~into:dctx.d_sa tr cand.k_site_a
    (ca.Model.cidx :: cand.k_site_a.s_path)

(* The pair check proper, for sites in the checked frame and memoised
   candidates alike ([facts]).  Net resolution ([same_net]/[related]) is
   the most expensive part of judging an in-frame pair, and pairs with
   no spacing rule at all (a large share of the matrix) never reach it —
   the calls sit directly on the branches that need them, so the common
   path allocates neither closures nor rectangles.  A memoised pair is
   settled from its stored gap unless it is a finding or the exposure
   model must print it; only then is it instantiated, and the rest of
   the check runs on the instantiated sites exactly as for an in-frame
   pair — so every finding's location, closest pair and provenance come
   from the same computation either way.  Memoised sites are two
   different calls' by construction. *)
let judge_pair cfg env sid dctx facts a b =
  if (match facts with In_frame -> head_equal a b | Memoised _ -> false) then Skip
  else begin
    let c = dcell dctx a.s_layer b.s_layer in
    c.pairs <- c.pairs + 1;
    match
      dctx.d_entry.((Tech.Layer.index a.s_layer * nlayers)
                    + Tech.Layer.index b.s_layer)
    with
    | Tech.Interaction.No_rule ->
      c.skipped_no_rule <- c.skipped_no_rule + 1;
      Skip
    | Tech.Interaction.Device_checked ->
      c.skipped_device <- c.skipped_device + 1;
      Skip
    | Tech.Interaction.Space { same_net = sreq; diff_net = dreq } -> (
      (* "If the element is part of a transistor, the subcases depend on
         whether or not the elements are related."  A transistor's own
         diffusion spans both source and drain nets and its gate poly is
         device geometry, so any check against an element on one of the
         transistor's port nets is waived.  For non-transistor devices
         (contacts), whose elements have well-defined nets, the waiver
         applies only to the poly/diffusion cross-layer rule (the wires
         feeding a butting or buried contact overlap its other layer). *)
      let transistor_pair =
        (match a.s_device with Some k -> Tech.Device.is_transistor k | None -> false)
        || (match b.s_device with Some k -> Tech.Device.is_transistor k | None -> false)
      in
      if (transistor_pair || poly_diff_pair a.s_layer b.s_layer)
         && related env dctx sid facts a b
      then begin
        c.skipped_same_net <- c.skipped_same_net + 1;
        Skip
      end
      else begin
        let same_net = same_net env sid facts a b in
        let resistor =
          a.s_device = Some Tech.Device.Resistor || b.s_device = Some Tech.Device.Resistor
        in
        let use_same_net_rule = same_net && (not resistor) && not cfg.check_same_net in
        let required = if use_same_net_rule then sreq else Some dreq in
        match required with
        | None ->
          c.skipped_same_net <- c.skipped_same_net + 1;
          Skip
        | Some req -> (
          c.checked <- c.checked + 1;
          match (facts, cfg.spacing_model) with
          | Memoised { cand; _ }, Geometric
            when if cand.k_gap2 = 0 then same_net else cand.k_gap2 >= req * req ->
            (* The stored gap is exact up to [dmax] and the same in every
               frame, so the measured branches below would all Skip. *)
            Skip
          | _ ->
            let a =
              match facts with In_frame -> a | Memoised m -> instantiate dctx m.ca m.cb m.cand
            in
            let b = match facts with In_frame -> b | Memoised _ -> dctx.d_sb in
            (* The geometric model only acts on gaps below the rule, so
               the kernel may prune beyond req; the exposure model prints
               and judges the exact minimum, so it gets no cutoff. *)
            let cutoff2 =
              match cfg.spacing_model with
              | Geometric -> req * req
              | Exposure _ -> max_int
            in
            let g = gap2_of cfg ~cutoff2 dctx.d_ws a.s_rects b.s_rects in
            let gap2 = g.Geom.Rects.g2 in
            if gap2 = 0 then
              if same_net then Skip
              else if Tech.Layer.equal a.s_layer b.s_layer then Short (where_of g a b)
              else if poly_diff_pair a.s_layer b.s_layer && g.Geom.Rects.overlap then
                Accidental (where_of g a b)
              else Violation (where_of g a b, req, 0)
            else begin
              match cfg.spacing_model with
              | Geometric ->
                if gap2 < req * req then Violation (where_of g a b, req, gap2) else Skip
              | Exposure { model; misalign } ->
                (* The line-of-closest-approach test: same-layer pairs see
                   bias only; cross-layer pairs add misalignment. *)
                let mis =
                  if Tech.Layer.equal a.s_layer b.s_layer then 0 else misalign
                in
                let verdict =
                  Process_model.Closest.check model ~misalign:mis
                    (Geom.Region.of_rects (Geom.Rects.to_list a.s_rects))
                    (Geom.Region.of_rects (Geom.Rects.to_list b.s_rects))
                in
                if verdict.Process_model.Closest.bridges then
                  Violation (where_of g a b, req, gap2)
                else Skip
            end)
      end)
  end

(* Provenance — dotted instance paths and source positions — is string
   building; render it only for the rare pair that produced a finding. *)
let emit env sid ~context a b = function
  | Skip -> []
  | outcome ->
    let path, loc = pair_provenance env sid ~context a b in
    report_outcome ~context ?path ?loc a.s_layer b.s_layer outcome

(* One worklist task, in the frame of definition [sym].  Tasks are
   deck-independent data: the judging environment — config and rule
   deck — comes in at evaluation time, so one worklist (and one
   candidate memo) serves several decks. *)
type task =
  | Local of { sym : Model.symbol; pairs : (site * site) list }
      (** a chunk of local element pairs *)
  | Elt of { sym : Model.symbol; site : site; window : Geom.Rect.t; near : Model.call list }
      (** a local element against the calls whose placed boxes meet
          [window], its bbox inflated by the cutoff *)
  | Inst of { sym : Model.symbol; ca : Model.call; cb : Model.call; cls : int }
      (** one interacting call pair, judged from memoised candidates;
          [cls] indexes its placement class in the plan *)

let sym_of (Local { sym; _ } | Elt { sym; _ } | Inst { sym; _ }) = sym

(* A plan is the deck-independent half of the sweep: the resolution
   environment, the ordered worklist and its placement classes, all
   built for a candidate cutoff of [pl_dmax].  [run]
   evaluates it under a concrete (config, rules) pair; several decks
   whose [max_dist] agree can share one plan (and one candidate memo)
   because the worklist geometry — grid cell sizes, collection windows,
   pair enumeration order — depends only on the cutoff, never on the
   individual spacing values. *)
type plan = {
  pl_env : env;
  pl_dmax : int;
  pl_tasks : task array;
  pl_classes : memo_key array;  (** class id -> its key, in first-seen order *)
}

let eval_task cfg p dctx task =
  let env = p.pl_env in
  let sym = sym_of task in
  let sid = sym.Model.sid and context = sym.Model.sname in
  match task with
  | Local { pairs; _ } ->
    List.concat_map
      (fun (a, b) -> emit env sid ~context a b (judge_pair cfg env sid dctx In_frame a b))
      pairs
  | Elt { site; window; near; _ } ->
    List.concat_map
      (fun (c : Model.call) ->
        let sites =
          frontier env.model window c.Model.transform [ c.Model.cidx ]
            (Model.find env.model c.Model.callee) []
        in
        List.concat_map
          (fun sub -> emit env sid ~context site sub (judge_pair cfg env sid dctx In_frame site sub))
          sites)
      near
  | Inst { ca; cb; cls; _ } ->
    let sub = (Netgen.nets_of env.nets sid).Netgen.sub_group in
    let cands =
      candidates cfg env p.pl_dmax dctx.d_memo dctx.d_stats dctx.d_ws p.pl_classes.(cls)
    in
    (* A pair that produced a finding is left instantiated in the
       scratch sites by [judge_pair]. *)
    List.concat_map
      (fun cand ->
        emit env sid ~context dctx.d_sa dctx.d_sb
          (judge_pair cfg env sid dctx (Memoised { sub; ca; cb; cand }) cand.k_site_a
             cand.k_site_b))
      cands

(* Local element pairs are individually tiny; batch them so a task is
   worth scheduling. *)
let local_chunk = 32

let tasks_of_symbol env ~dmax ~intern (sym : Model.symbol) =
  if Model.is_device sym then []
  else begin
    let local_sites =
      List.map
        (fun (e : Model.element) ->
          { s_path = [];
            s_eid = e.Model.eid;
            s_layer = e.Model.layer;
            s_rects = e.Model.packed;
            s_bbox = e.Model.bbox;
            s_device = sym.Model.device;
            s_loc = e.Model.loc })
        sym.Model.elements
    in
    (* Local element pairs, chunked.  Chunks are assembled incrementally
       inside the iteration: the full pair list is never materialised. *)
    let elt_idx = Geom.Grid_index.create ~cell:(max 1 dmax) () in
    List.iter (fun site -> Geom.Grid_index.add elt_idx site.s_bbox site) local_sites;
    let local_tasks =
      let chunks = ref [] and cur = ref [] and cur_n = ref 0 in
      Geom.Grid_index.iter_pairs_within elt_idx dmax (fun (_, a) (_, b) ->
          cur := (a, b) :: !cur;
          incr cur_n;
          if !cur_n = local_chunk then begin
            chunks := List.rev !cur :: !chunks;
            cur := [];
            cur_n := 0
          end);
      if !cur <> [] then chunks := List.rev !cur :: !chunks;
      List.rev_map (fun pairs -> Local { sym; pairs }) !chunks
    in
    (* One grid of placed calls serves both the element-vs-instance
       queries and the instance-pair enumeration. *)
    let call_idx = Geom.Grid_index.create ~cell:(max 1 (4 * dmax)) () in
    List.iter
      (fun (c : Model.call) ->
        Option.iter
          (fun bb -> Geom.Grid_index.add call_idx (Geom.Transform.apply_rect c.Model.transform bb) c)
          (Model.find env.model c.Model.callee).Model.sbbox)
      sym.Model.calls;
    (* Element vs instance: one task per local element near instances. *)
    let elt_inst_tasks =
      List.filter_map
        (fun site ->
          match Geom.Rect.inflate site.s_bbox dmax with
          | None -> None
          | Some window -> (
            let near = ref [] in
            Geom.Grid_index.iter_query call_idx window (fun _ c -> near := c :: !near);
            match List.rev !near with
            | [] -> None
            | near -> Some (Elt { sym; site; window; near })))
        local_sites
    in
    (* Instance vs instance: one task per interacting placement pair,
       tagged with its placement class. *)
    let inst_tasks =
      let acc = ref [] in
      Geom.Grid_index.iter_pairs_within call_idx dmax (fun (_, (ca : Model.call)) (_, cb) ->
          let rel =
            Geom.Transform.compose (Geom.Transform.inverse ca.Model.transform)
              cb.Model.transform
          in
          let cls = intern (ca.Model.callee, cb.Model.callee, rel) in
          acc := Inst { sym; ca; cb; cls } :: !acc);
      List.rev !acc
    in
    local_tasks @ elt_inst_tasks @ inst_tasks
  end

type memo = (memo_key, cand list) Hashtbl.t

let create_memo () : memo = Hashtbl.create 64

let prune_memo (memo : memo) ~keep =
  let doomed =
    Hashtbl.fold
      (fun ((sa, sb, _) as key) _ acc ->
        if keep sa && keep sb then acc else key :: acc)
      memo []
  in
  List.iter (Hashtbl.remove memo) doomed

type memo_entry = cand list

let memo_size (memo : memo) = Hashtbl.length memo

let export_memo (memo : memo) =
  Hashtbl.fold (fun key cs acc -> (key, cs) :: acc) memo []

let import_memo (memo : memo) entries =
  List.iter (fun (key, cs) -> Hashtbl.replace memo key cs) entries

(* ------------------------------------------------------------------ *)
(* The scheduler                                                       *)

(* An instance pair whose placement class the certificate prepass
   proved silent; [silent] is indexed by class id. *)
let skipped silent task =
  match (silent, task) with
  | Some arr, Inst { cls; _ } -> arr.(cls)
  | _ -> false

(* Each task's clock feeds both the pair-check histogram and its
   definition's [symbol.<name>] cost bucket (the [--top-cost] view).
   A skipped task contributes [] exactly as evaluating it would have. *)
let run_span ?metrics ?silent cfg p lo hi dctx =
  let out = ref [] in
  for i = lo to hi - 1 do
    let task = p.pl_tasks.(i) in
    if not (skipped silent task) then begin
      let vs =
        match metrics with
        | None -> eval_task cfg p dctx task
        | Some m ->
          let t0 = Metrics.now_ns () in
          let vs = eval_task cfg p dctx task in
          let dt = Int64.sub (Metrics.now_ns ()) t0 in
          Metrics.observe_ns m "interactions.pair_check_ns" dt;
          Metrics.add_cost_ns m ("symbol." ^ (sym_of task).Model.sname) dt;
          vs
      in
      out := vs :: !out
    end
  done;
  List.concat (List.rev !out)

let effective_jobs jobs =
  if jobs <= 0 then Domain.recommended_domain_count () else jobs

let plan ?dmax (nets : Netgen.t) =
  let env = make_env nets in
  let dmax =
    match dmax with Some d -> d | None -> max_dist env.model.Model.rules
  in
  let ids = Hashtbl.create 64 and keys = ref [] in
  let intern key =
    match Hashtbl.find_opt ids key with
    | Some id -> id
    | None ->
      let id = Hashtbl.length ids in
      Hashtbl.add ids key id;
      keys := key :: !keys;
      id
  in
  let tasks =
    Array.of_list
      (List.concat_map (tasks_of_symbol env ~dmax ~intern) env.model.Model.symbols)
  in
  { pl_env = env; pl_dmax = dmax; pl_tasks = tasks;
    pl_classes = Array.of_list (List.rev !keys) }

let run ?(config = default_config) ?rules ?memo ?metrics ?trace ?certs (p : plan) =
  let rules = match rules with Some r -> r | None -> p.pl_env.model.Model.rules in
  let stats = new_stats () in
  let master_memo = match memo with Some m -> m | None -> create_memo () in
  let tasks = p.pl_tasks in
  (* Certificate prepass: one guard per placement class, serially and
     before any domain spawns.  The verdicts are fixed input to the
     scheduler, so the skip set — and the report — is identical at
     every [jobs] value.  Bbox clearance bounds only the geometric
     spacing model (the exposure model judges printed images, not
     drawn gaps), so the guard is inert under [Exposure]. *)
  let silent =
    match (certs, config.spacing_model) with
    | None, _ | _, Exposure _ -> None
    | Some cs, Geometric ->
      let t0 = Metrics.now_ns () in
      let arr =
        Array.map (fun (sa, sb, rel) -> Deckcheck.class_silent cs ~sa ~sb rel) p.pl_classes
      in
      Option.iter
        (fun m ->
          Metrics.add_cost_ns m "analysis.guard" (Int64.sub (Metrics.now_ns ()) t0);
          let skips =
            Array.fold_left
              (fun n task -> if skipped (Some arr) task then n + 1 else n)
              0 tasks
          in
          Metrics.incr ~by:skips m "analysis.certified_skips")
        metrics;
      Some arr
  in
  (* Balanced scheduling via the shared {!Parallel} queue (which this
     code originated).  The weight estimate reuses the [symbol.<name>]
     cost buckets the earlier per-definition sweeps recorded into
     [metrics]: a definition that was expensive to sweep has bigger
     geometry and costs more to judge, so its tasks land in smaller
     chunks.  Chunk results come back in worklist order, so the report
     is byte-identical at every [jobs] value and across repeated runs;
     which domain evaluated which chunk — and hence each domain's memo
     hit/miss split — is the only thing that varies.  Every domain,
     the calling one included, judges against its own copy of the memo,
     and new entries merge back after the join. *)
  let weight_of_name =
    match metrics with
    | None -> fun _ -> 1
    | Some m ->
      let by_name = Hashtbl.create 16 in
      fun sname ->
        (match Hashtbl.find_opt by_name sname with
        | Some w -> w
        | None ->
          let c = Metrics.cost_ns m ("symbol." ^ sname) in
          let w = 1 + Int64.to_int (Int64.div c 1_000_000L) in
          Hashtbl.add by_name sname w;
          w)
  in
  let chunks =
    Parallel.run ?metrics ?trace ~jobs:(effective_jobs config.jobs) ~stage:"interactions"
      ~weight:(fun i ->
        if skipped silent tasks.(i) then 1 else weight_of_name (sym_of tasks.(i)).Model.sname)
      ~n:(Array.length tasks)
      ~worker:(fun _tid -> make_dctx rules (Hashtbl.copy master_memo))
      ~chunk:(fun dctx dm _dt ~lo ~hi -> run_span ?metrics:dm ?silent config p lo hi dctx)
      ~merge:(fun dctx ->
        fold_cells dctx;
        merge_stats ~into:stats dctx.d_stats;
        Hashtbl.iter
          (fun k v -> if not (Hashtbl.mem master_memo k) then Hashtbl.add master_memo k v)
          dctx.d_memo)
      ()
  in
  Option.iter (fun m -> record_metrics m stats) metrics;
  (List.concat chunks, stats)

let check ?config ?memo ?metrics ?trace (nets : Netgen.t) =
  run ?config ?memo ?metrics ?trace (plan nets)
