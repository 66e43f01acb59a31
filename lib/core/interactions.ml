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

(* Layer indices are dense (0 .. nlayers-1, in [Tech.Layer.all] order),
   so the coverage matrix is a flat array of the upper triangle: the
   per-pair hot path counts into it and looks rules up in a precomputed
   entry matrix of the same shape — no tuple keys, no hashing, no option
   boxing per pair. *)
let nlayers = List.length Tech.Layer.all
let layer_of_index = Array.of_list Tech.Layer.all

type stats = {
  cells : cell_stats array;  (** [ia * nlayers + ib], [ia <= ib] *)
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable bbox_rejects : int;
  mutable materialised : int;
}

let new_stats () =
  { cells =
      Array.init (nlayers * nlayers) (fun _ ->
          { pairs = 0; checked = 0; skipped_same_net = 0; skipped_no_rule = 0;
            skipped_device = 0 });
    memo_hits = 0; memo_misses = 0; bbox_rejects = 0; materialised = 0 }

(* A cell is touched iff its [pairs] counter moved: [judge_pair] bumps
   it before anything else. *)
let touched_cells stats =
  let acc = ref [] in
  for ia = nlayers - 1 downto 0 do
    for ib = nlayers - 1 downto ia do
      let c = stats.cells.((ia * nlayers) + ib) in
      if c.pairs > 0 then acc := (layer_of_index.(ia), layer_of_index.(ib), c) :: !acc
    done
  done;
  !acc

let pp_stats ppf stats =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (la, lb, c) ->
      Format.fprintf ppf "%s-%s: pairs=%d checked=%d same-net-skip=%d no-rule=%d device=%d@,"
        (Tech.Layer.to_cif la) (Tech.Layer.to_cif lb) c.pairs c.checked c.skipped_same_net
        c.skipped_no_rule c.skipped_device)
    (touched_cells stats);
  Format.fprintf ppf "memo: %d hits / %d misses; bbox rejects: %d@]" stats.memo_hits
    stats.memo_misses stats.bbox_rejects

let merge_stats ~into src =
  Array.iteri
    (fun i (c : cell_stats) ->
      let d = into.cells.(i) in
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
  let total field = Array.fold_left (fun acc c -> acc + field c) 0 stats.cells in
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
(* Definitions as the judge reads them                                 *)

(* A definition with its nets, and each call's callee frame beside it:
   walking a site's path — to the definition that owns the site, or
   lifting a net group up through the calls — is array reads alone, with
   no symbol-id lookup.  A plan builds one frame per definition, callees
   first. *)
type frame = {
  f_sym : Model.symbol;
  f_nets : Netgen.sym_nets;
  f_callees : frame array;  (** by call index *)
}

let frames_of (nets : Netgen.t) =
  let by_sid = Hashtbl.create 16 in
  List.map
    (fun (s : Model.symbol) ->
      let f =
        { f_sym = s;
          f_nets = Netgen.nets_of nets s.Model.sid;
          f_callees =
            Array.of_list
              (List.map (fun (c : Model.call) -> Hashtbl.find by_sid c.Model.callee) s.Model.calls) }
      in
      Hashtbl.replace by_sid s.Model.sid f;
      f)
    nets.Netgen.model.Model.symbols
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Frontier collection                                                 *)

let rec frontier window tr path (f : frame) acc =
  let sym = f.f_sym in
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
      let callee = f.f_callees.(c.Model.cidx) in
      match callee.f_sym.Model.sbbox with
      | None -> acc
      | Some bb ->
        let tr' = Geom.Transform.compose tr c.Model.transform in
        let bbox = Geom.Transform.apply_rect tr' bb in
        if Geom.Rect.touches ~a:bbox ~b:window then
          frontier window tr' (c.Model.cidx :: path) callee acc
        else acc)
    acc sym.Model.calls

(* ------------------------------------------------------------------ *)
(* Fast net resolution                                                 *)

(* A net is a gid in one definition's numbering; [no_net] stands for an
   element on no net (an implant, say), so resolving allocates nothing. *)
let no_net = -1

(* The frame at the end of [path]. *)
let rec owner f = function
  | [] -> f
  | c :: rest -> owner f.f_callees.(c) rest

(* Lift a net group of the definition at the end of [path] up to [f]'s
   net numbering: one [sub_group] read per call on the path. *)
let rec resolve_group f path gid =
  match path with
  | [] -> gid
  | c :: rest ->
    let g = resolve_group f.f_callees.(c) rest gid in
    if g = no_net then no_net else f.f_nets.Netgen.sub_group.(c).(g)

(* Net of element [eid] of the definition at the end of [path], in
   [f]'s net numbering: its own group there, lifted. *)
let resolve f path eid =
  match (owner f path).f_nets.Netgen.elt_group.(eid) with
  | None -> no_net
  | Some gid -> resolve_group f path gid

(* All port nets of the (device) instance a site lives in, in [f]'s
   net numbering. *)
let instance_port_nets f path =
  Array.map
    (fun (g : Netgen.group) -> resolve_group f path g.Netgen.gid)
    (owner f path).f_nets.Netgen.groups

(* ------------------------------------------------------------------ *)
(* The pair check                                                      *)

type outcome =
  | Skip
  | Short of Geom.Rect.t
  | Accidental of Geom.Rect.t  (** poly-diffusion crossing outside a device *)
  | Violation of Geom.Rect.t * int * int  (** where, required, gap2 *)

let poly_diff_pair la lb =
  Tech.Layer.(
    (equal la Poly && equal lb Diffusion) || (equal la Diffusion && equal lb Poly))

let is_transistor (s : site) =
  match s.s_device with Some k -> Tech.Device.is_transistor k | None -> false

let is_resistor (s : site) =
  match s.s_device with Some Tech.Device.Resistor -> true | _ -> false

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
let site_instance_path f ~context (site : site) =
  let rec go f acc = function
    | [] -> List.rev acc
    | c :: rest ->
      let callee = f.f_callees.(c) in
      go callee (Printf.sprintf "%s[%d]" callee.f_sym.Model.sname c :: acc) rest
  in
  match go f [] site.s_path with
  | [] -> None
  | segs -> Some (String.concat "." (context :: segs))

(* A pair violation gets one provenance: site [a]'s path and source
   position, falling back to [b]'s when [a] has none (both sites are in
   the message's bbox anyway). *)
let pair_provenance f ~context a b =
  let path =
    match site_instance_path f ~context a with
    | Some _ as p -> p
    | None -> site_instance_path f ~context b
  in
  let loc = match a.s_loc with Some _ as l -> l | None -> b.s_loc in
  (path, loc)

(* ------------------------------------------------------------------ *)
(* Instance-pair memoisation                                           *)

(* Everything a candidate's verdict needs that does not depend on where
   the pair is placed.  Placements are orthogonal isometries, so the gap
   is the same in every caller; net groups are kept in each callee's own
   numbering and lifted into a caller by one [sub_group] read. *)
type cand = {
  k_site_a : site;  (** in A's frame, path within A *)
  k_site_b : site;  (** placed in A's frame by the relative transform, path within B *)
  k_gap2 : int;  (** exact squared gap: kept only when within [dmax] *)
  k_net_a : int;  (** site A's net in A's numbering, or [no_net] *)
  k_net_b : int;  (** site B's net in B's numbering, or [no_net] *)
  k_ports_a : int array;
      (** port nets of the device instance owning site A, in A's
          numbering; empty unless site A is device geometry *)
  k_ports_b : int array;
}

(* The candidates of one placement class: every pair of a site of
   callee A (frame [fa]) and a site of callee B (frame [fb], placed in
   A's frame by [rel]) that lie within [dmax] of each other. *)
let class_candidates cfg dmax stats ws fa fb rel =
  let ports f (s : site) =
    match s.s_device with None -> [||] | Some _ -> instance_port_nets f s.s_path
  in
  match (fa.f_sym.Model.sbbox, fb.f_sym.Model.sbbox) with
  | Some ba, Some bb -> (
    let bb_rel = Geom.Transform.apply_rect rel bb in
    let wa = Geom.Rect.inflate ba dmax and wb = Geom.Rect.inflate bb_rel dmax in
    match (wa, wb) with
    | Some wa, Some wb -> (
      match Geom.Rect.inter wa wb with
      | None -> [||]
      | Some window ->
        let sites_a = frontier window Geom.Transform.identity [] fa [] in
        let sites_b = frontier window rel [] fb [] in
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
                        k_net_a = resolve fa a.s_path a.s_eid;
                        k_net_b = resolve fb b.s_path b.s_eid;
                        k_ports_a = ports fa a;
                        k_ports_b = ports fb b }
                  else None)
              sites_b)
          sites_a
        |> Array.of_list)
    | _ -> [||])
  | _ -> [||]

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

(* The memoised pair being judged: its candidate, the two calls it lies
   in, and the checked definition's [sub_group] rows for those calls.
   One per domain, reset per instance-pair task and per candidate, so
   judging a memoised pair allocates nothing. *)
type memoised = {
  mutable m_tr : Geom.Transform.t;  (** placement of call A in the checked frame *)
  mutable m_cidx_a : int;
  mutable m_cidx_b : int;
  mutable m_sub_a : int array;  (** [sub_group.(m_cidx_a)] *)
  mutable m_sub_b : int array;
  mutable m_cand : cand;
}

(* Where [judge_pair] takes a pair's nets and gap from.  [In_frame]
   sites are in the checked symbol's frame: nets resolve through their
   paths and the kernel measures their geometry.  [Memoised] sites are a
   memo candidate's, in the callees' frames: nets are the candidate's
   callee-local groups lifted through the two calls, and the gap is the
   candidate's stored one, so the pair is instantiated into the caller
   only when it must be measured there (see [transform_site_into]). *)
type facts =
  | In_frame
  | Memoised of memoised

type dctx = {
  d_stats : stats;
  d_cands : cand array option array;
      (** class id -> its candidates, seeded from the run's memo or
          computed here on the class's first task *)
  d_m : memoised;
  d_memoised : facts;  (** [Memoised d_m], built once *)
  d_ws : Geom.Rects.ws;  (** sweep-kernel scratch, one per domain *)
  d_ta : Geom.Rects.t;  (** scratch for instantiating memoised site A… *)
  d_tb : Geom.Rects.t;  (** …and site B, only for a finding or under [Exposure] *)
  d_sa : site;  (** scratch site records over [d_ta]/[d_tb], live within one judged pair *)
  d_sb : site;
  d_entry : Tech.Interaction.entry array;
      (** the run's {!Tech.Interaction.matrix}, built once and shared
          read-only by every domain *)
  mutable d_out : Report.violation list;  (** the current chunk's findings, newest first *)
}

let make_dctx entries cands =
  let ta = Geom.Rects.empty () and tb = Geom.Rects.empty () in
  let scratch_site rects =
    { s_path = []; s_eid = -1; s_layer = Tech.Layer.Diffusion; s_rects = rects;
      s_bbox = Geom.Rect.make 0 0 0 0; s_device = None; s_loc = None }
  in
  let sa = scratch_site ta and sb = scratch_site tb in
  let m =
    { m_tr = Geom.Transform.identity; m_cidx_a = -1; m_cidx_b = -1; m_sub_a = [||];
      m_sub_b = [||];
      m_cand =
        { k_site_a = sa; k_site_b = sb; k_gap2 = 0; k_net_a = no_net; k_net_b = no_net;
          k_ports_a = [||]; k_ports_b = [||] } }
  in
  { d_stats = new_stats (); d_cands = cands; d_m = m; d_memoised = Memoised m;
    d_ws = Geom.Rects.make_ws (); d_ta = ta; d_tb = tb; d_sa = sa; d_sb = sb;
    d_entry = entries; d_out = [] }

let[@inline] lift sub gid = if gid = no_net then no_net else sub.(gid)

(* Does [ports.(i ..)] hold a group that lifts to [n]? *)
let rec mem_lifted sub n ports i =
  i < Array.length ports && (sub.(ports.(i)) = n || mem_lifted sub n ports (i + 1))

(* Net of the pair's site [`A] or [`B] in [f]'s numbering. *)
let net_of f facts side (site : site) =
  match (facts, side) with
  | In_frame, _ -> resolve f site.s_path site.s_eid
  | Memoised m, `A -> lift m.m_sub_a m.m_cand.k_net_a
  | Memoised m, `B -> lift m.m_sub_b m.m_cand.k_net_b

let same_net f facts a b =
  let n = net_of f facts `A a in
  n <> no_net && n = net_of f facts `B b

(* Is [n] a port net of the device instance owning the site? *)
let on_ports f facts side (site : site) n =
  n <> no_net
  &&
  match (facts, side) with
  | In_frame, _ -> Array.mem n (instance_port_nets f site.s_path)
  | Memoised m, `A -> mem_lifted m.m_sub_a n m.m_cand.k_ports_a 0
  | Memoised m, `B -> mem_lifted m.m_sub_b n m.m_cand.k_ports_b 0

(* Device geometry of an instance: a memoised site always lies inside a
   call of the checked symbol. *)
let is_device_site facts (site : site) =
  match (site.s_device, facts, site.s_path) with
  | None, _, _ | Some _, In_frame, [] -> false
  | _ -> true

let related f facts a b =
  (is_device_site facts a && on_ports f facts `A a (net_of f facts `B b))
  || (is_device_site facts b && on_ports f facts `B b (net_of f facts `A a))

(* Instantiate the memoised pair [m] into the per-domain scratch sites
   [d_sa]/[d_sb]; returns [d_sa]. *)
let instantiate dctx m =
  dctx.d_stats.materialised <- dctx.d_stats.materialised + 1;
  let cand = m.m_cand in
  ignore
    (transform_site_into ~dst:dctx.d_tb ~into:dctx.d_sb m.m_tr cand.k_site_b
       (m.m_cidx_b :: cand.k_site_b.s_path));
  transform_site_into ~dst:dctx.d_ta ~into:dctx.d_sa m.m_tr cand.k_site_a
    (m.m_cidx_a :: cand.k_site_a.s_path)

(* The measured half of [judge_pair], once the pair is known to need
   [req]: settled from a memoised pair's stored gap where that suffices,
   measured (after instantiating a memoised pair) otherwise. *)
let measure cfg dctx facts (c : cell_stats) ~same_net a b req =
  c.checked <- c.checked + 1;
  match (facts, cfg.spacing_model) with
  | Memoised m, Geometric
    when if m.m_cand.k_gap2 = 0 then same_net else m.m_cand.k_gap2 >= req * req ->
    (* The stored gap is exact up to [dmax] and the same in every
       frame, so the measured branches below would all Skip. *)
    Skip
  | _ ->
    let a = match facts with In_frame -> a | Memoised m -> instantiate dctx m in
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
    end

(* The pair check proper, for sites in the checked frame [f] and
   memoised candidates alike ([facts]).  Net resolution
   ([same_net]/[related]) is the most expensive part of judging an
   in-frame pair, and pairs with no spacing rule at all (a large share
   of the matrix) never reach it.  Nets are ints and the memoised facts
   live in the domain's scratch, so the Skip path allocates nothing.  A
   memoised pair is settled from its stored gap unless it is a finding
   or the exposure model must print it; only then is it instantiated,
   and the rest of the check runs on the instantiated sites exactly as
   for an in-frame pair — so every finding's location, closest pair and
   provenance come from the same computation either way.  Memoised sites
   are two different calls' by construction. *)
let judge_pair cfg f dctx facts a b =
  let ia = Tech.Layer.index a.s_layer and ib = Tech.Layer.index b.s_layer in
  let c = dctx.d_stats.cells.(if ia <= ib then (ia * nlayers) + ib else (ib * nlayers) + ia) in
  c.pairs <- c.pairs + 1;
  match dctx.d_entry.((ia * nlayers) + ib) with
  | Tech.Interaction.No_rule ->
    c.skipped_no_rule <- c.skipped_no_rule + 1;
    Skip
  | Tech.Interaction.Device_checked ->
    c.skipped_device <- c.skipped_device + 1;
    Skip
  | Tech.Interaction.Space { same_net = sreq; diff_net = dreq } ->
    (* "If the element is part of a transistor, the subcases depend on
       whether or not the elements are related."  A transistor's own
       diffusion spans both source and drain nets and its gate poly is
       device geometry, so any check against an element on one of the
       transistor's port nets is waived.  For non-transistor devices
       (contacts), whose elements have well-defined nets, the waiver
       applies only to the poly/diffusion cross-layer rule (the wires
       feeding a butting or buried contact overlap its other layer). *)
    if (is_transistor a || is_transistor b || poly_diff_pair a.s_layer b.s_layer)
       && related f facts a b
    then begin
      c.skipped_same_net <- c.skipped_same_net + 1;
      Skip
    end
    else begin
      let same_net = same_net f facts a b in
      if same_net && (not (is_resistor a || is_resistor b)) && not cfg.check_same_net then
        match sreq with
        | None ->
          c.skipped_same_net <- c.skipped_same_net + 1;
          Skip
        | Some req -> measure cfg dctx facts c ~same_net a b req
      else measure cfg dctx facts c ~same_net a b dreq
    end

(* Provenance — dotted instance paths and source positions — is string
   building; render it only for the rare pair that produced a finding,
   and cons it onto the domain's findings. *)
let emit f ~context dctx a b = function
  | Skip -> ()
  | outcome ->
    let path, loc = pair_provenance f ~context a b in
    dctx.d_out <-
      List.rev_append (report_outcome ~context ?path ?loc a.s_layer b.s_layer outcome) dctx.d_out

(* One worklist task, in the frame [fr] of the definition it checks.
   Tasks are deck-independent data: the judging environment — config
   and rule deck — comes in at evaluation time, so one worklist (and
   one candidate memo) serves several decks. *)
type task =
  | Local of { fr : frame; pairs : (site * site) list }
      (** a chunk of local element pairs *)
  | Elt of { fr : frame; site : site; window : Geom.Rect.t; near : Model.call list }
      (** a local element against the calls whose placed boxes meet
          [window], its bbox inflated by the cutoff *)
  | Inst of { fr : frame; ca : Model.call; cb : Model.call; cls : int }
      (** one interacting call pair, judged from memoised candidates;
          [cls] indexes its placement class in the plan *)

let frame_of (Local { fr; _ } | Elt { fr; _ } | Inst { fr; _ }) = fr

(* A plan is the deck-independent half of the sweep: the definitions'
   frames, the ordered worklist and its placement classes, all built
   for a candidate cutoff of [pl_dmax].  [run] evaluates it under a
   concrete (config, rules) pair; several decks whose [max_dist] agree
   can share one plan (and one candidate memo) because the worklist
   geometry — grid cell sizes, collection windows, pair enumeration
   order — depends only on the cutoff, never on the individual spacing
   values. *)
type plan = {
  pl_model : Model.t;
  pl_frames : frame array;  (** in the model's symbol order *)
  pl_dmax : int;
  pl_tasks : task array;
  pl_classes : Placement_class.t array;  (** class id -> its key, in first-seen order *)
}

(* The candidates of an instance pair's class: this domain's, or the
   memo's it was seeded with, or computed now.  Every call counts one
   hit or, the first time this domain computes the class, one miss. *)
let class_cands cfg p dctx fr (ca : Model.call) (cb : Model.call) cls =
  match dctx.d_cands.(cls) with
  | Some cs ->
    dctx.d_stats.memo_hits <- dctx.d_stats.memo_hits + 1;
    cs
  | None ->
    dctx.d_stats.memo_misses <- dctx.d_stats.memo_misses + 1;
    let _, _, rel = p.pl_classes.(cls) in
    let cs =
      class_candidates cfg p.pl_dmax dctx.d_stats dctx.d_ws fr.f_callees.(ca.Model.cidx)
        fr.f_callees.(cb.Model.cidx) rel
    in
    dctx.d_cands.(cls) <- Some cs;
    cs

let eval_task cfg p dctx task =
  match task with
  | Local { fr; pairs } ->
    let context = fr.f_sym.Model.sname in
    List.iter
      (fun (a, b) -> emit fr ~context dctx a b (judge_pair cfg fr dctx In_frame a b))
      pairs
  | Elt { fr; site; window; near } ->
    let context = fr.f_sym.Model.sname in
    List.iter
      (fun (c : Model.call) ->
        List.iter
          (fun sub -> emit fr ~context dctx site sub (judge_pair cfg fr dctx In_frame site sub))
          (frontier window c.Model.transform [ c.Model.cidx ] fr.f_callees.(c.Model.cidx) []))
      near
  | Inst { fr; ca; cb; cls } ->
    let context = fr.f_sym.Model.sname in
    let cands = class_cands cfg p dctx fr ca cb cls in
    let m = dctx.d_m in
    m.m_tr <- ca.Model.transform;
    m.m_cidx_a <- ca.Model.cidx;
    m.m_cidx_b <- cb.Model.cidx;
    m.m_sub_a <- fr.f_nets.Netgen.sub_group.(ca.Model.cidx);
    m.m_sub_b <- fr.f_nets.Netgen.sub_group.(cb.Model.cidx);
    for i = 0 to Array.length cands - 1 do
      let cand = cands.(i) in
      m.m_cand <- cand;
      (* A pair that produced a finding is left instantiated in the
         scratch sites by [judge_pair]. *)
      emit fr ~context dctx dctx.d_sa dctx.d_sb
        (judge_pair cfg fr dctx dctx.d_memoised cand.k_site_a cand.k_site_b)
    done

(* Local element pairs are individually tiny; batch them so a task is
   worth scheduling. *)
let local_chunk = 32

let tasks_of_frame ~dmax ~intern (fr : frame) =
  let sym = fr.f_sym in
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
       inside the iteration: the full pair list is never materialised.
       Both grids below take [dmax] only as a floor: each sizes its
       cells from its own items' extents, so an element or a placed
       callee far larger than [dmax] covers a few cells, not hundreds. *)
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
      List.rev_map (fun pairs -> Local { fr; pairs }) !chunks
    in
    (* One grid of placed calls serves both the element-vs-instance
       queries and the instance-pair enumeration; both read it in
       ascending call order, which fixes the order of the tasks. *)
    let call_idx = Geom.Grid_index.create ~cell:(max 1 (4 * dmax)) () in
    List.iter
      (fun (c : Model.call) ->
        Option.iter
          (fun bb -> Geom.Grid_index.add call_idx (Geom.Transform.apply_rect c.Model.transform bb) c)
          fr.f_callees.(c.Model.cidx).f_sym.Model.sbbox)
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
            | near -> Some (Elt { fr; site; window; near })))
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
          acc := Inst { fr; ca; cb; cls } :: !acc);
      List.rev !acc
    in
    local_tasks @ elt_inst_tasks @ inst_tasks
  end

type memo = cand array Placement_class.Tbl.t

let create_memo () : memo = Placement_class.Tbl.create 64

(* ------------------------------------------------------------------ *)
(* The scheduler                                                       *)

(* An instance pair whose placement class the certificate prepass
   proved silent; [silent] is indexed by class id. *)
let skipped silent task =
  match (silent, task) with
  | Some arr, Inst { cls; _ } -> arr.(cls)
  | _ -> false

(* Each judged task is one observation of the pair-check histogram.
   Its definition's [symbol.<name>] cost bucket (the [--top-cost] view)
   is charged once per run of consecutive tasks of that definition —
   the worklist is grouped by definition — rather than per task.  A
   skipped task contributes nothing, exactly as evaluating it would
   have.  Recording a task reads the clock twice and bumps the resolved
   histogram, all in immediate ints, so it allocates nothing.  Returns
   the chunk's findings in worklist order. *)
let run_span m ?silent cfg p lo hi dctx =
  let pair_check = Metrics.hist m "interactions.pair_check_ns" in
  let cur = ref None and spent = ref 0 in
  let charge () =
    Option.iter
      (fun fr -> Metrics.add_cost_ns m ("symbol." ^ fr.f_sym.Model.sname) (Int64.of_int !spent))
      !cur
  in
  for i = lo to hi - 1 do
    let task = p.pl_tasks.(i) in
    if not (skipped silent task) then begin
      let fr = frame_of task in
      (match !cur with
      | Some f when f == fr -> ()
      | _ ->
        charge ();
        cur := Some fr;
        spent := 0);
      let t0 = Metrics.clock_ns () in
      eval_task cfg p dctx task;
      let dt = Metrics.clock_ns () - t0 in
      Metrics.observe pair_check dt;
      spent := !spent + dt
    end
  done;
  charge ();
  let vs = List.rev dctx.d_out in
  dctx.d_out <- [];
  vs

let plan ?dmax (nets : Netgen.t) =
  let model = nets.Netgen.model in
  let frames = frames_of nets in
  let dmax = match dmax with Some d -> d | None -> max_dist model.Model.rules in
  let ids = Placement_class.Tbl.create 64 and keys = ref [] in
  let intern key =
    match Placement_class.Tbl.find_opt ids key with
    | Some id -> id
    | None ->
      let id = Placement_class.Tbl.length ids in
      Placement_class.Tbl.add ids key id;
      keys := key :: !keys;
      id
  in
  let tasks =
    Array.of_list (List.concat_map (tasks_of_frame ~dmax ~intern) (Array.to_list frames))
  in
  { pl_model = model; pl_frames = frames; pl_dmax = dmax; pl_tasks = tasks;
    pl_classes = Array.of_list (List.rev !keys) }

let run ?(config = default_config) ?rules ?memo ?metrics ?trace ?certs (p : plan) =
  let rules = match rules with Some r -> r | None -> p.pl_model.Model.rules in
  (* Every run is metered, into the caller's metrics or its own, so
     there is one task loop to measure. *)
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  let stats = new_stats () in
  let memo = match memo with Some m -> m | None -> create_memo () in
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
      Trace.with_span trace ~cat:"phase" "guard" (fun () ->
          let t0 = Metrics.now_ns () in
          let arr =
            Array.map (fun (sa, sb, rel) -> Deckcheck.class_silent cs ~sa ~sb rel) p.pl_classes
          in
          Metrics.add_cost_ns m "analysis.guard" (Int64.sub (Metrics.now_ns ()) t0);
          let skips =
            Array.fold_left (fun n task -> if skipped (Some arr) task then n + 1 else n) 0 tasks
          in
          Metrics.incr ~by:skips m "analysis.certified_skips";
          Some arr)
  in
  (* Scheduling on the {!Parallel} queue, in chunks of equal task
     count.  Chunk results come back in worklist order, so the report is
     byte-identical at every [jobs] value and across repeated runs;
     which domain evaluated which chunk — and hence each domain's memo
     hit/miss split — is the only thing that varies.  Every domain, the
     calling one included, reads the one entry matrix and judges from
     its own class-indexed candidate array, seeded from the memo; the
     classes it computed merge back after the join. *)
  let entries = Tech.Interaction.matrix rules in
  let seeded = Array.map (Placement_class.Tbl.find_opt memo) p.pl_classes in
  let jobs = if config.jobs <= 0 then Domain.recommended_domain_count () else config.jobs in
  let domains = ref [] in
  let chunks =
    Parallel.run ~metrics:m ?trace ~jobs ~stage:"interactions" ~n:(Array.length tasks)
      ~worker:(fun _tid -> make_dctx entries (Array.copy seeded))
      (* Given [metrics], the scheduler hands every domain its buffer. *)
      ~chunk:(fun dctx dm _dt ~lo ~hi -> run_span (Option.get dm) ?silent config p lo hi dctx)
      ~merge:(fun dctx -> domains := dctx :: !domains)
      ()
  in
  (* Fold every domain's counters and newly computed classes back, in
     the order the domains were merged. *)
  Trace.with_span trace ~cat:"phase" "merge" (fun () ->
      List.iter
        (fun dctx ->
          merge_stats ~into:stats dctx.d_stats;
          Array.iteri
            (fun cls cs ->
              let key = p.pl_classes.(cls) in
              match cs with
              | Some cs when not (Placement_class.Tbl.mem memo key) ->
                Placement_class.Tbl.add memo key cs
              | _ -> ())
            dctx.d_cands)
        (List.rev !domains));
  record_metrics m stats;
  (List.concat chunks, stats)

let check ?config ?memo ?metrics ?trace (nets : Netgen.t) =
  run ?config ?memo ?metrics ?trace (plan nets)
