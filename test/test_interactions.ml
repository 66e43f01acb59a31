(* Instance-pair judging pinned against an oracle: the interaction
   stage as it was when every memoised candidate was instantiated into
   the caller's frame and re-measured on every memo hit.  [Interactions]
   must reproduce its violation list exactly (same findings, same order,
   same bytes) and every per-layer-pair counter, at one and two domains,
   on the generator workloads, the pathology kits, a PLA whose defects
   sit inside the replicated cells (so findings come from memoised
   instance pairs), seeded random hierarchies in which one relative
   placement recurs under several global orientations, under the
   Euclidean metric, the exposure spacing model and same-net checking,
   and for two decks with different spacing values sharing one plan and
   one memo. *)

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
(* The oracle: the serial interaction sweep as it was before memoised
   candidates carried their gap and net groups, kept verbatim (only
   qualified from outside the library; the scheduler, certificates and
   metrics export are left out).                                       *)

module Oracle = struct
  open Dic

  type spacing_model = Dic.Interactions.spacing_model =
    | Geometric
    | Exposure of { model : Process_model.Exposure.t; misalign : int }

  type config = Dic.Interactions.config = {
    metric : Geom.Measure.metric;
    check_same_net : bool;
    spacing_model : spacing_model;
    jobs : int;
  }

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
  }

  let new_stats () =
    { cells = Hashtbl.create 16; memo_hits = 0; memo_misses = 0; bbox_rejects = 0 }

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

  (* ------------------------------------------------------------------ *)

  (* A geometry site participating in an interaction: an element reached
     through [path] (call indices from the symbol being checked), with
     its geometry already mapped into that symbol's coordinates. *)
  (* Fields are mutable solely so the instance-pair evaluator can reuse
     two per-domain scratch sites instead of allocating a record, a bbox
     and a path copy for every judged candidate (see
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

  let rec resolve env sid path eid =
    let sn = Netgen.nets_of env.nets sid in
    match path with
    | [] -> sn.Netgen.elt_group.(eid)
    | c :: rest -> (
      let calls = Hashtbl.find env.calls_arr sid in
      match resolve env calls.(c).Model.callee rest eid with
      | None -> None
      | Some child_gid -> Some sn.Netgen.sub_group.(c).(child_gid))

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
      | Some child_gid -> Some sn.Netgen.sub_group.(c).(child_gid))

  (* All port nets of the (device) instance a site lives in, in [sid]'s
     net numbering. *)
  let instance_port_nets env sid path =
    let rec owner sid' = function
      | [] -> sid'
      | c :: rest ->
        let calls = Hashtbl.find env.calls_arr sid' in
        owner calls.(c).Model.callee rest
    in
    let dev_sid = owner sid path in
    let sn = Netgen.nets_of env.nets dev_sid in
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

  type cand = {
    k_a : int list * int;  (** path within A, eid *)
    k_b : int list * int;
    k_la : Tech.Layer.t;
    k_lb : Tech.Layer.t;
    k_site_a : site;  (** in A's frame *)
    k_site_b : site;
  }

  type memo_key = int * int * Geom.Transform.t

  let candidates cfg env dmax (memo : (memo_key, cand list) Hashtbl.t) stats ws sa sb rel =
    let key = (sa, sb, rel) in
    match Hashtbl.find_opt memo key with
    | Some cs ->
      stats.memo_hits <- stats.memo_hits + 1;
      cs
    | None ->
      stats.memo_misses <- stats.memo_misses + 1;
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
                            { k_a = (a.s_path, a.s_eid);
                              k_b = (b.s_path, b.s_eid);
                              k_la = a.s_layer;
                              k_lb = b.s_layer;
                              k_site_a = a;
                              k_site_b = b }
                        else None)
                    sites_b)
                sites_a)
          | _ -> [])
        | _ -> []
      in
      Hashtbl.add memo key cs;
      cs

  (* Instantiate a memoised candidate site into the caller's frame.
     [dst] is a per-domain scratch rect set and [into] a per-domain
     scratch site record: the transformed geometry and the site itself
     live only for the duration of one judged pair, so a candidate
     evaluation allocates nothing but its path spine and bbox. *)
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
     *tasks*: a chunk of local element pairs, one element against the
     instances near it, or one instance pair.  Phase 2 evaluates the
     tasks — either in order on the calling domain ([jobs <= 1], exactly
     the old serial behaviour) or over [Domain.spawn] workers claiming
     contiguous chunks from a shared queue.

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
        (** (sid, site path) -> port nets of the owning device instance *)
    d_ws : Geom.Rects.ws;  (** sweep-kernel scratch, one per domain *)
    d_ta : Geom.Rects.t;  (** scratch for instantiating memoised site A… *)
    d_tb : Geom.Rects.t;  (** …and site B; live only within one judged pair *)
    d_sa : site;  (** scratch site records over [d_ta]/[d_tb], same lifetime *)
    d_sb : site;
    d_cells : cell_stats array;
        (** flat per-layer-pair counters ([ia * nlayers + ib], ia <= ib);
            folded into [d_stats.cells] after the run *)
    d_entry : Tech.Interaction.entry array;
        (** the run's rule deck, resolved per layer pair once — indexing
            it allocates nothing, unlike re-deriving the entry per pair *)
  }

  let make_dctx rules stats memo =
    let ta = Geom.Rects.empty () and tb = Geom.Rects.empty () in
    let scratch_site rects =
      { s_path = []; s_eid = -1; s_layer = Tech.Layer.Diffusion; s_rects = rects;
        s_bbox = Geom.Rect.make 0 0 0 0; s_device = None; s_loc = None }
    in
    { d_stats = stats; d_memo = memo; d_ports = Hashtbl.create 64;
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

  let net_of env sid (site : site) = resolve env sid site.s_path site.s_eid

  let same_net env sid a b =
    match (net_of env sid a, net_of env sid b) with
    | Some x, Some y -> x = y
    | _ -> false

  let port_nets env dctx sid (site : site) =
    match Hashtbl.find_opt dctx.d_ports (sid, site.s_path) with
    | Some ns -> ns
    | None ->
      let ns = instance_port_nets env sid site.s_path in
      Hashtbl.add dctx.d_ports (sid, site.s_path) ns;
      ns

  let is_device_site (site : site) = site.s_path <> [] && site.s_device <> None

  let related env dctx sid a b =
    (is_device_site a
    && match net_of env sid b with
       | Some n -> List.mem n (port_nets env dctx sid a)
       | None -> false)
    || (is_device_site b
       && match net_of env sid a with
          | Some n -> List.mem n (port_nets env dctx sid b)
          | None -> false)

  (* A task is closed over the worklist geometry but takes the judging
     environment — config and rule deck — at evaluation time, so one
     worklist (and one candidate memo) can be evaluated under several
     decks: the plan depends only on [dmax]. *)
  type task = config -> Tech.Rules.t -> dctx -> Report.violation list

  (* The deck-independent guard attached to each task: just enough
     geometry for a {!Deckcheck} certificate to prove, under the concrete
     deck being run, that every pair the task would judge is clean — in
     which case [run]'s prepass skips the task wholesale.  Guards only
     ever turn provably-Skip evaluations into skips, so the report is
     unchanged. *)
  type guard =
    | G_local of int  (** all local element pairs of symbol [sid] *)
    | G_elt of {
        g_layer : Tech.Layer.t;
        g_bbox : Geom.Rect.t;  (** the local element, in the symbol's frame *)
        g_near : (Geom.Transform.t * int) list;  (** placed callees nearby *)
      }
    | G_inst of {
        g_ta : Geom.Transform.t;
        g_sa : int;
        g_tb : Geom.Transform.t;
        g_sb : int;
      }

  (* The pair check proper.  Net resolution ([same_net]/[related]) is the
     most expensive part of judging a pair, and pairs with no spacing rule
     at all (a large share of the matrix) never reach it — the calls sit
     directly on the branches that need them, so the common path allocates
     neither closures nor rectangles. *)
  let judge_pair cfg env sid dctx a b =
    if head_equal a b then Skip
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
           && related env dctx sid a b
        then begin
          c.skipped_same_net <- c.skipped_same_net + 1;
          Skip
        end
        else begin
          let same_net = same_net env sid a b in
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

  (* Local element pairs are individually tiny; batch them so a task is
     worth scheduling. *)
  let local_chunk = 32

  let tasks_of_symbol env ~dmax (s : Model.symbol) : (guard * task) list =
    if Model.is_device s then []
    else begin
      let context = s.Model.sname in
      let sid = s.Model.sid in
      let local_sites =
        List.map
          (fun (e : Model.element) ->
            { s_path = [];
              s_eid = e.Model.eid;
              s_layer = e.Model.layer;
              s_rects = e.Model.packed;
              s_bbox = e.Model.bbox;
              s_device = s.Model.device;
              s_loc = e.Model.loc })
          s.Model.elements
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
        List.rev_map
          (fun chunk ->
            ( G_local sid,
              fun cfg _rules dctx ->
                List.concat_map
                  (fun (a, b) ->
                    emit env sid ~context a b (judge_pair cfg env sid dctx a b))
                  chunk ))
          !chunks
      in
      (* Calls with their placed bounding boxes. *)
      let placed_calls =
        List.filter_map
          (fun (c : Model.call) ->
            let callee = Model.find env.model c.Model.callee in
            Option.map
              (fun bb -> (c, callee, Geom.Transform.apply_rect c.Model.transform bb))
              callee.Model.sbbox)
          s.Model.calls
      in
      (* Element vs instance: one task per local element near instances. *)
      let call_idx = Geom.Grid_index.create ~cell:(max 1 (4 * dmax)) () in
      List.iter (fun (c, callee, bb) -> Geom.Grid_index.add call_idx bb (c, callee)) placed_calls;
      let elt_inst_tasks =
        List.filter_map
          (fun site ->
            match Geom.Rect.inflate site.s_bbox dmax with
            | None -> None
            | Some window -> (
              let near = ref [] in
              Geom.Grid_index.iter_query call_idx window (fun _ cc ->
                  near := cc :: !near);
              match List.rev !near with
              | [] -> None
              | near ->
                Some
                  ( G_elt
                      { g_layer = site.s_layer;
                        g_bbox = site.s_bbox;
                        g_near =
                          List.map
                            (fun ((c : Model.call), _) ->
                              (c.Model.transform, c.Model.callee))
                            near },
                    fun cfg _rules dctx ->
                      List.concat_map
                        (fun ((c : Model.call), callee) ->
                          let sites =
                            frontier env.model window c.Model.transform [ c.Model.cidx ]
                              callee []
                          in
                          List.concat_map
                            (fun sub ->
                              emit env sid ~context site sub
                                (judge_pair cfg env sid dctx site sub))
                            sites)
                        near )))
          local_sites
      in
      (* Instance vs instance: one task per interacting placement pair,
         with memoised candidate lists. *)
      let inst_idx = Geom.Grid_index.create ~cell:(max 1 (4 * dmax)) () in
      List.iter (fun (c, callee, bb) -> Geom.Grid_index.add inst_idx bb (c, callee)) placed_calls;
      let inst_tasks =
        let acc = ref [] in
        Geom.Grid_index.iter_pairs_within inst_idx dmax
          (fun (_, ((ca : Model.call), _)) (_, ((cb : Model.call), _)) ->
            let task cfg _rules dctx =
              let rel =
                Geom.Transform.compose
                  (Geom.Transform.inverse ca.Model.transform)
                  cb.Model.transform
              in
              let cands =
                candidates cfg env dmax dctx.d_memo dctx.d_stats dctx.d_ws
                  ca.Model.callee cb.Model.callee rel
              in
              List.concat_map
                (fun cand ->
                  let site_a =
                    transform_site_into ~dst:dctx.d_ta ~into:dctx.d_sa
                      ca.Model.transform cand.k_site_a
                      (ca.Model.cidx :: fst cand.k_a)
                  and site_b =
                    transform_site_into ~dst:dctx.d_tb ~into:dctx.d_sb
                      ca.Model.transform cand.k_site_b
                      (cb.Model.cidx :: fst cand.k_b)
                  in
                  emit env sid ~context site_a site_b
                    (judge_pair cfg env sid dctx site_a site_b))
                cands
            in
            let g =
              G_inst
                { g_ta = ca.Model.transform;
                  g_sa = ca.Model.callee;
                  g_tb = cb.Model.transform;
                  g_sb = cb.Model.callee }
            in
            acc := (g, task) :: !acc);
        List.rev !acc
      in
      local_tasks @ elt_inst_tasks @ inst_tasks
    end

  let run ~config ~rules ~dmax nets =
    let env = make_env nets in
    let stats = new_stats () in
    let dctx = make_dctx rules stats (Hashtbl.create 64) in
    let vs =
      List.concat_map
        (fun s -> List.concat_map (fun (_, task) -> task config rules dctx) (tasks_of_symbol env ~dmax s))
        env.model.Model.symbols
    in
    fold_cells dctx;
    (vs, stats)
end

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

type counters = {
  cells : ((int * int) * (int * int * int * int * int)) list;
  hits : int;
  misses : int;
  rejects : int;
}

let oracle_counters (s : Oracle.stats) =
  { cells =
      Hashtbl.fold
        (fun (la, lb) (c : Oracle.cell_stats) acc ->
          ( (Tech.Layer.index la, Tech.Layer.index lb),
            (c.Oracle.pairs, c.Oracle.checked, c.Oracle.skipped_same_net,
             c.Oracle.skipped_no_rule, c.Oracle.skipped_device) )
          :: acc)
        s.Oracle.cells []
      |> List.sort compare;
    hits = s.Oracle.memo_hits;
    misses = s.Oracle.memo_misses;
    rejects = s.Oracle.bbox_rejects }

let counters (s : Dic.Interactions.stats) =
  let open Dic.Interactions in
  { cells =
      List.map
        (fun (la, lb, c) ->
          ( (Tech.Layer.index la, Tech.Layer.index lb),
            (c.pairs, c.checked, c.skipped_same_net, c.skipped_no_rule, c.skipped_device) ))
        (touched_cells s);
    hits = s.memo_hits;
    misses = s.memo_misses;
    rejects = s.bbox_rejects }

let render vs = Format.asprintf "%a" Dic.Report.pp { Dic.Report.violations = vs }

(* The [--stats] coverage text the oracle's counters call for: one line
   per cell in (index, index) order, then the memo line. *)
let oracle_coverage (s : Oracle.stats) =
  let cell_lines =
    Hashtbl.fold
      (fun (la, lb) (c : Oracle.cell_stats) acc ->
        ( (Tech.Layer.index la, Tech.Layer.index lb),
          Printf.sprintf "%s-%s: pairs=%d checked=%d same-net-skip=%d no-rule=%d device=%d"
            (Tech.Layer.to_cif la) (Tech.Layer.to_cif lb) c.Oracle.pairs c.Oracle.checked
            c.Oracle.skipped_same_net c.Oracle.skipped_no_rule c.Oracle.skipped_device )
        :: acc)
      s.Oracle.cells []
    |> List.sort compare |> List.map snd
  in
  ( cell_lines,
    Printf.sprintf "memo: %d hits / %d misses; bbox rejects: %d" s.Oracle.memo_hits
      s.Oracle.memo_misses s.Oracle.bbox_rejects )

(* [pp_stats] against the oracle's coverage: the cell lines at every
   jobs value, the memo line only where one domain warms one memo. *)
let same_coverage what (want_cells, want_memo) st ~jobs =
  let text = Format.asprintf "%a" Dic.Interactions.pp_stats st in
  let got_memo, got_cells =
    match List.rev (String.split_on_char '\n' text) with
    | memo :: cells -> (memo, List.rev cells)
    | [] -> ("", [])
  in
  if got_cells <> want_cells then
    Alcotest.failf "%s: --stats cell lines differ from the oracle:\n--- oracle\n%s\n--- got\n%s"
      what (String.concat "\n" want_cells) (String.concat "\n" got_cells);
  if jobs = 1 && got_memo <> want_memo then
    Alcotest.failf "%s: --stats memo line %S, oracle %S" what got_memo want_memo

let same_as_oracle what (want_vs, want) (got_vs, got) ~jobs =
  if render got_vs <> render want_vs then
    Alcotest.failf "%s: report bytes differ from the oracle:\n--- oracle\n%s\n--- got\n%s" what
      (render want_vs) (render got_vs);
  if got_vs <> want_vs then Alcotest.failf "%s: violation list differs from the oracle" what;
  if got.cells <> want.cells then Alcotest.failf "%s: cell counters differ from the oracle" what;
  (* Memo and bbox-reject totals describe caching effort; they match the
     oracle's serial sweep only when one domain warms one memo. *)
  if jobs = 1 && (got.hits, got.misses, got.rejects) <> (want.hits, want.misses, want.rejects)
  then Alcotest.failf "%s: memo or bbox-reject totals differ from the oracle" what

let configs ~exposure =
  let d = Dic.Interactions.default_config in
  [ ("orthogonal", d);
    ("euclidean", { d with Dic.Interactions.metric = Geom.Measure.Euclidean });
    ("same-net checked", { d with Dic.Interactions.check_same_net = true }) ]
  @
  if exposure then
    [ ( "exposure",
        { d with
          Dic.Interactions.spacing_model =
            Dic.Interactions.Exposure
              { model = Process_model.Exposure.make ~sigma:60. (); misalign = l 1 } } ) ]
  else []

(* Every configuration at one and two domains, each against the oracle
   under the same configuration. *)
let check_model ?(exposure = false) name model =
  let nets, _ = Dic.Netgen.build model in
  let dmax = Oracle.max_dist rules in
  let plan = Dic.Interactions.plan nets in
  List.iter
    (fun (cname, config) ->
      let want_vs, want_stats = Oracle.run ~config ~rules ~dmax nets in
      let want = (want_vs, oracle_counters want_stats) in
      let materialised =
        List.map
          (fun jobs ->
            let config = { config with Dic.Interactions.jobs } in
            let vs, st = Dic.Interactions.run ~config ~rules plan in
            let what = Printf.sprintf "%s, %s, jobs=%d" name cname jobs in
            same_as_oracle what want (vs, counters st) ~jobs;
            same_coverage what (oracle_coverage want_stats) st ~jobs;
            st.Dic.Interactions.materialised)
          [ 1; 2 ]
      in
      (* Instantiation follows verdicts alone, never which domain warmed
         which memo copy. *)
      if List.length (List.sort_uniq compare materialised) <> 1 then
        Alcotest.failf "%s, %s: materialised count varies with jobs" name cname)
    (configs ~exposure)

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

(* Defects inside the replicated PLA cells: each extra box clashes with
   the neighbouring instance, so every finding comes from an instance
   pair and nearly all of them from memo hits.  The crosspoint gains a
   metal tab 2 lambda below the next row's product line (spacing) and
   one touching it (short); the blank cell gains a diffusion stub across
   its right neighbour's input poly (accidental transistor). *)
let salt_cells (f : Cif.Ast.file) =
  let nm = Tech.Layer.to_cif Tech.Layer.Metal and nd = Tech.Layer.to_cif Tech.Layer.Diffusion in
  let extra id =
    if id = Layoutgen.Pla.id_active then
      [ B.box ~layer:nm (l 5) (l 18) (l 8) (l 21); B.box ~layer:nm (l 0) (l 20) (l 2) (l 23) ]
    else if id = Layoutgen.Pla.id_blank then [ B.box ~layer:nd (l 15) (l 5) (l 17) (l 7) ]
    else []
  in
  { f with
    Cif.Ast.symbols =
      List.map
        (fun (s : Cif.Ast.symbol) ->
          { s with Cif.Ast.elements = s.Cif.Ast.elements @ extra s.Cif.Ast.id })
        f.Cif.Ast.symbols }

let salted_pla () = salt_cells (Layoutgen.Pla.tier ~lambda ~rows:12 ~cols:24)

let orientations =
  List.concat_map
    (fun m -> List.map (fun r -> T.compose (T.rotate r) m) [ `East; `North; `West; `South ])
    [ T.identity; T.mirror_x ]

(* Seeded random hierarchy over the device library: two levels of
   composite symbols drawing random routing-layer boxes, some labelled,
   over a small span, calling lower levels under random rotations,
   mirrors and offsets, occasionally twice in exactly the same place.
   The top level places one pair of them at a fixed relative placement
   under several global orientations, so one memo key is met in
   several frames, beside a few random calls. *)
let random_file rng =
  let int n = Random.State.int rng n in
  let layers = [| "NM"; "NP"; "ND" |] in
  let nets = [| None; None; None; Some "a"; Some "b"; Some "VDD!"; Some "GND!" |] in
  let span = 24 in
  let rand_box () =
    let x = int span and y = int span in
    let w = 1 + int 5 and h = 1 + int 8 in
    let w, h = if int 2 = 0 then (w, h) else (h, w) in
    B.box ~layer:layers.(int 3) ?net:nets.(int (Array.length nets)) (l x) (l y) (l (x + w))
      (l (y + h))
  in
  let pick xs = List.nth xs (int (List.length xs)) in
  let rand_placement () =
    let rot = T.rotate [| `East; `North; `West; `South |].(int 4) in
    let m = [| T.identity; T.mirror_x |].(int 2) in
    T.compose (T.translate (l (int span)) (l (int span))) (T.compose rot m)
  in
  let call callee transform = { Cif.Ast.callee; transform; call_loc = None } in
  let calls callees =
    List.concat
      (List.init (1 + int 4) (fun _ ->
           let c = call (pick callees) (rand_placement ()) in
           if int 5 = 0 then [ c; c ] else [ c ]))
  in
  let devices = Layoutgen.Cells.device_symbols ~lambda in
  let ids = List.map (fun (s : Cif.Ast.symbol) -> s.Cif.Ast.id) in
  let level base count callees =
    List.init count (fun i ->
        let id = base + i in
        B.symbol ~id ~name:(Printf.sprintf "s%d" id)
          (List.init (int 6) (fun _ -> rand_box ()))
          (calls callees))
  in
  let l1 = level 20 3 (ids devices) in
  let l2 = level 30 3 (ids l1 @ ids devices) in
  let a = pick (ids l2) and b = pick (ids l2 @ ids l1) and rel = rand_placement () in
  let pairs =
    List.filteri (fun i _ -> i < 2 + int 6) orientations
    |> List.concat_map (fun o ->
           let at = T.compose (T.translate (l (int 400)) (l (int 400))) o in
           [ call a at; call b (T.compose at rel) ])
  in
  B.file
    ~symbols:(devices @ l1 @ l2)
    ~top_elements:(List.init (int 6) (fun _ -> rand_box ()))
    ~top_calls:(pairs @ calls (ids l2))
    ()

let workloads =
  [ ("shift-register-32", false, fun () -> Layoutgen.Shift.register ~lambda 32);
    ("pla-12x24", false, fun () -> Layoutgen.Pla.tier ~lambda ~rows:12 ~cols:24);
    ("pla-3x4", true, fun () -> Layoutgen.Pla.tier ~lambda ~rows:3 ~cols:4);
    ("salted pla-12x24, defects in the cells", false, salted_pla);
    ("salted pla-3x4, defects in the cells", true, fun () ->
        salt_cells (Layoutgen.Pla.tier ~lambda ~rows:3 ~cols:4));
    ("grid-blocks 4x3", false, fun () -> Layoutgen.Cells.grid_blocks ~lambda ~nx:4 ~ny:3) ]
  @ List.map
      (fun (k : Layoutgen.Pathology.kit) ->
        ("pathology " ^ k.Layoutgen.Pathology.kit_name, true, fun () -> k.Layoutgen.Pathology.file))
      (Layoutgen.Pathology.all ~lambda)

let test_workload name exposure make () = check_model ~exposure name (elaborate_ok (make ()))

let test_random () =
  let rng = Random.State.make [| seed |] in
  for case = 1 to 60 do
    check_model ~exposure:(case mod 6 = 0)
      (Printf.sprintf "random hierarchy %d" case)
      (elaborate_ok (random_file rng))
  done

(* The salted cells really do put findings on memoised instance pairs:
   the report carries instance-pair findings, and the memo hit far more
   often than it missed. *)
let test_salted_findings_on_memo_hits () =
  let nets, _ = Dic.Netgen.build (elaborate_ok (salted_pla ())) in
  let vs, st = Dic.Interactions.check nets in
  let between_instances (v : Dic.Report.violation) =
    v.Dic.Report.context = "TOP"
    && match v.Dic.Report.path with Some p -> String.contains p '[' | None -> false
  in
  Alcotest.(check bool) "instance-pair findings" true
    (List.length (List.filter between_instances vs) > 100);
  Alcotest.(check bool) "mostly memo hits" true
    (st.Dic.Interactions.memo_hits > 100 * st.Dic.Interactions.memo_misses);
  Alcotest.(check bool) "the findings were instantiated" true
    (st.Dic.Interactions.materialised > 0);
  let clean, _ = Dic.Netgen.build (elaborate_ok (Layoutgen.Pla.tier ~lambda ~rows:12 ~cols:24)) in
  Alcotest.(check int) "a finding-free array instantiates nothing" 0
    (snd (Dic.Interactions.check clean)).Dic.Interactions.materialised

(* Two decks with different spacing values but one candidate cutoff:
   one plan and one memo serve both, warm for the second, and each
   deck's result equals the oracle's under that deck. *)
let test_two_decks () =
  let deck_b =
    { rules with
      Tech.Rules.space_poly = l 1;
      space_metal = l 2;
      space_poly_diffusion = l 2 }
  in
  Alcotest.(check int) "one cutoff" (Dic.Interactions.max_dist rules)
    (Dic.Interactions.max_dist deck_b);
  let dmax = Dic.Interactions.max_dist rules in
  let rng = Random.State.make [| seed + 1 |] in
  let inputs =
    [ ("salted pla", salted_pla ()); ("shift-register-16", Layoutgen.Shift.register ~lambda 16) ]
    @ List.init 20 (fun i -> (Printf.sprintf "random hierarchy %d" i, random_file rng))
  in
  List.iter
    (fun (name, file) ->
      let nets, _ = Dic.Netgen.build (elaborate_ok file) in
      let plan = Dic.Interactions.plan ~dmax nets in
      List.iter
        (fun jobs ->
          let memo = Dic.Interactions.create_memo () in
          List.iter
            (fun (dname, deck) ->
              let config = { Dic.Interactions.default_config with Dic.Interactions.jobs } in
              let want_vs, want = Oracle.run ~config ~rules:deck ~dmax nets in
              let vs, st = Dic.Interactions.run ~config ~rules:deck ~memo plan in
              let what = Printf.sprintf "%s, deck %s, jobs=%d" name dname jobs in
              if render vs <> render want_vs || vs <> want_vs then
                Alcotest.failf "%s: report differs from the oracle" what;
              if (counters st).cells <> (oracle_counters want).cells then
                Alcotest.failf "%s: cell counters differ from the oracle" what)
            [ ("A", rules); ("B", deck_b); ("A again", rules) ])
        [ 1; 2 ])
    inputs

let () =
  Alcotest.run "interactions"
    [ ( "oracle",
        List.map
          (fun (name, exposure, make) ->
            Alcotest.test_case name `Quick (test_workload name exposure make))
          workloads
        @ [ Alcotest.test_case "seeded random hierarchies" `Quick test_random;
            Alcotest.test_case "two decks, one plan, one memo" `Quick test_two_decks ] );
      ( "inputs",
        [ Alcotest.test_case "salted cells put findings on memo hits" `Quick
            test_salted_findings_on_memo_hits ] ) ]
