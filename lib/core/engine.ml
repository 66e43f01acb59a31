type config = {
  interactions : Interactions.config;
  run_erc : bool;
  expected_netlist : Netcompare.expected option;
  relational : Process_model.Exposure.t option;
  run_lint : bool;
}

let default_config =
  { interactions = Interactions.default_config; run_erc = true; expected_netlist = None;
    relational = None; run_lint = false }

type deck = {
  dk_label : string;
  dk_rules : Tech.Rules.t;
}

let deck ?label rules =
  { dk_label = (match label with Some l -> l | None -> rules.Tech.Rules.name);
    dk_rules = rules }

(* Labels key the merged report's membership annotations and the SARIF
   run ids, so collisions (two decks from files of the same basename)
   get a positional suffix rather than aliasing each other. *)
let dedupe_labels decks =
  let seen = Hashtbl.create 8 in
  List.map
    (fun d ->
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen d.dk_label) in
      Hashtbl.replace seen d.dk_label n;
      if n = 1 then d else { d with dk_label = Printf.sprintf "%s#%d" d.dk_label n })
    decks

type result = {
  report : Report.t;
  netlist : Netlist.Net.t;
  interaction_stats : Interactions.stats;
  metrics : Metrics.t;
  model : Model.t;
  nets : Netgen.t;
}

type reuse = {
  symbols_total : int;
  symbols_reused : int;
  defs_from_disk : int;
}

type deck_result = {
  dr_deck : deck;
  dr_result : result;
  dr_reuse : reuse;
  dr_suppressed : Lint.diagnostic list;
}

type multi = {
  results : deck_result list;
  merged : Multireport.t;
}

let primary m =
  let dr = List.hd m.results in
  (dr.dr_result, dr.dr_reuse)

let erc_violations netlist =
  List.map
    (fun v ->
      let rule =
        match v with
        | Netlist.Erc.Floating_net _ -> "erc.floating-net"
        | Netlist.Erc.Supply_short _ -> "erc.supply-short"
        | Netlist.Erc.Bus_on_supply _ -> "erc.bus-on-supply"
        | Netlist.Erc.Depletion_on_ground _ -> "erc.depletion-on-ground"
      in
      let severity =
        (* A floating net is suspicious, not provably fatal. *)
        match v with Netlist.Erc.Floating_net _ -> `W | _ -> `E
      in
      let msg = Format.asprintf "%a" Netlist.Erc.pp_violation v in
      match severity with
      | `E -> Report.error ~stage:Report.Electrical ~rule ~context:"netlist" msg
      | `W -> Report.warning ~stage:Report.Electrical ~rule ~context:"netlist" msg)
    (Netlist.Erc.check netlist)

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)

(* Structural fingerprint of one definition.  Everything the
   per-definition checks can observe is folded in: name (violations
   carry it as context), device kind, element geometry/layers/nets,
   and calls with their transforms.  Element skeletons go in too: the
   device checks read them, and they follow the widths of the deck
   that elaborated the model, which need not be the deck whose
   environment stores the entry. *)
let fingerprint (s : Model.symbol) =
  let rects =
    List.map (fun r -> (Geom.Rect.x0 r, Geom.Rect.y0 r, Geom.Rect.x1 r, Geom.Rect.y1 r))
  in
  let elements =
    List.map
      (fun (e : Model.element) ->
        ( Tech.Layer.index e.Model.layer,
          rects e.Model.rects,
          rects e.Model.skeleton,
          e.Model.net_label ))
      s.Model.elements
  in
  let calls =
    List.map
      (fun (c : Model.call) ->
        let o = Geom.Transform.apply_pt c.Model.transform Geom.Pt.zero in
        let ex = Geom.Transform.apply_pt c.Model.transform (Geom.Pt.make 1 0) in
        (c.Model.callee, o.Geom.Pt.x, o.Geom.Pt.y, ex.Geom.Pt.x, ex.Geom.Pt.y,
         Geom.Transform.det c.Model.transform))
      s.Model.calls
  in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (s.Model.sname, Option.map Tech.Device.to_tag s.Model.device, elements, calls)
          []))

(* Parallelism never affects results, so the environment digest — the
   cache address — normalises [jobs] away.  The rule set enters through
   its canonical textual form, not its in-memory record: source
   positions (and any other provenance that never reaches a verdict)
   must not split the cache, and two decks that print the same are the
   same deck. *)
let env_key rules (config : config) =
  let c = { config with interactions = { config.interactions with Interactions.jobs = 1 } } in
  Digest.to_hex (Digest.string (Marshal.to_string (Tech.Rules.to_string rules, c) []))

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)

type t = {
  mutable e_decks : deck list;
  mutable e_config : config;
  e_cache : Cache.t option;
  (* the primary deck's environment digest *)
  mutable e_env : string;
  (* env -> fingerprint -> per-definition results.  One table per deck
     environment, so warming deck A never touches deck B's entries. *)
  e_defs : (string, (string, Cache.def_entry) Hashtbl.t) Hashtbl.t;
  (* env -> fingerprint -> that definition's model-pass lints.  D-codes
     are per-definition facts, so warm sessions replay them like check
     results instead of re-running the skeleton-erosion pass. *)
  e_lints : (string, (string, Lint.diagnostic list) Hashtbl.t) Hashtbl.t;
}

let create ?(config = default_config) ?cache_dir ?decks rules =
  let decks =
    match decks with
    | Some [] -> invalid_arg "Engine.create: empty deck list"
    | Some ds -> ds
    | None -> [ deck rules ]
  in
  { e_decks = decks;
    e_config = config;
    e_cache = Option.map Cache.open_dir cache_dir;
    e_env = env_key (List.hd decks).dk_rules config;
    e_defs = Hashtbl.create 4;
    e_lints = Hashtbl.create 4 }

let rules t = (List.hd t.e_decks).dk_rules
let decks t = t.e_decks
let config t = t.e_config
let same_env t rules config = String.equal (env_key rules config) t.e_env

let with_decks t decks =
  (match decks with [] -> invalid_arg "Engine.with_decks: empty deck list" | _ -> ());
  t.e_decks <- decks;
  t.e_env <- env_key (List.hd decks).dk_rules t.e_config;
  t

let with_config t config =
  let env = env_key (rules t) config in
  if not (String.equal env t.e_env) then begin
    (* New environment: none of the warm state can be trusted (the
       per-env tables could survive, but a config change invalidates
       every deck's address at once, so a clean slate is simpler). *)
    Hashtbl.reset t.e_defs;
    Hashtbl.reset t.e_lints;
    t.e_env <- env
  end;
  t.e_config <- config;
  t

let with_jobs t jobs =
  with_config t
    { t.e_config with interactions = { t.e_config.interactions with Interactions.jobs = jobs } }

let with_metric t metric =
  with_config t
    { t.e_config with interactions = { t.e_config.interactions with Interactions.metric } }

let with_same_net t check_same_net =
  with_config t
    { t.e_config with
      interactions = { t.e_config.interactions with Interactions.check_same_net } }

let with_spacing_model t spacing_model =
  with_config t
    { t.e_config with
      interactions = { t.e_config.interactions with Interactions.spacing_model } }

let with_erc t run_erc = with_config t { t.e_config with run_erc }
let with_lint t run_lint = with_config t { t.e_config with run_lint }
let with_expected_netlist t expected_netlist = with_config t { t.e_config with expected_netlist }
let with_relational t relational = with_config t { t.e_config with relational }

let subtbl tbl env =
  match Hashtbl.find_opt tbl env with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 64 in
    Hashtbl.add tbl env h;
    h

let defs_for t env = subtbl t.e_defs env
let lints_for t env = subtbl t.e_lints env

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)

(* One per symbol occurrence in the model, per deck environment: either
   the cached entry to replay, or the freshly computed pieces
   accumulated stage by stage so they can be stored as one entry
   afterwards. *)
type slot = {
  sl_sym : Model.symbol;
  sl_fp : string;
  sl_hit : Cache.def_entry option;
  mutable sl_el : Report.violation list;
  mutable sl_dv : Report.violation list;
  mutable sl_rel : Report.violation list;
}

let check ?metrics ?trace ?progress t file =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  let decks = t.e_decks in
  let prim = List.hd decks in
  let tick name = match progress with None -> () | Some f -> f name in
  (* Each stage is announced to [progress], timed into the metrics, and
     recorded as a ["stage"]-category trace span — one wrapper so the
     three views always agree on stage names.  With several decks the
     per-deck work loops {e inside} each stage, so the stage sequence —
     and, for the primary deck, the report bytes — are identical to a
     single-deck run. *)
  let timed name f =
    tick name;
    Trace.with_span trace ~cat:"stage" name (fun () -> Metrics.time_stage m name f)
  in
  match timed "elaborate" (fun () -> Model.elaborate prim.dk_rules file) with
  | Error e -> Error e
  | Ok (model, parse_issues) ->
    Metrics.incr ~by:(Model.symbol_count model) m "model.symbols";
    Metrics.incr ~by:(Model.definition_elements model) m "model.definition_elements";
    Metrics.incr ~by:(Model.instantiated_elements model) m "model.instantiated_elements";
    (* Definition fingerprints are deck-independent and computed once;
       they address the session caches for both the lint pass below and
       the per-definition check sweeps. *)
    let fps =
      List.map (fun (s : Model.symbol) -> (s, fingerprint s)) model.Model.symbols
    in
    (* Static lints run before any geometry: one deck pass per deck,
       one design pass (syntax tree + model) shared by all.  Off by
       default so the default report bytes are untouched.

       The model pass is per-definition, so warm sessions replay it
       from the fingerprint-keyed table instead of re-eroding every
       skeleton.  The syntax-tree pass stays live: duplicate ids,
       cycles and unreachability are facts about the raw tree that
       elaboration erases — no per-definition fingerprint can address
       them — and the walk is cheap. *)
    let lint_by_deck =
      if not t.e_config.run_lint then List.map (fun _ -> ([], [])) decks
      else
        timed "lint" (fun () ->
            let lints = lints_for t t.e_env in
            let replayed = ref 0 in
            let model_diags =
              Lint.sort
                (List.concat_map
                   (fun ((s : Model.symbol), fp) ->
                     match Hashtbl.find_opt lints fp with
                     | Some ds ->
                       incr replayed;
                       ds
                     | None ->
                       let ds = Lint.check_model_symbol model s in
                       Hashtbl.replace lints fp ds;
                       ds)
                   fps)
            in
            Metrics.incr ~by:!replayed m "lint.defs_replayed";
            Metrics.incr ~by:(List.length fps - !replayed) m "lint.defs_computed";
            let design = Lint.check_ast file @ model_diags in
            (* Waivers filter at reporting time only: the cached
               per-definition lists above stay unfiltered, and a
               waiver change never splits the cache (waivers are
               excluded from the deck's canonical text, like
               [key_positions]). *)
            List.mapi
              (fun i d ->
                let diags =
                  Lint.sort
                    (Lint.check_deck d.dk_rules
                    @ Deckcheck.check_deck d.dk_rules
                    @ design)
                in
                let waivers = d.dk_rules.Tech.Rules.waivers @ file.Cif.Ast.waivers in
                let kept, suppressed = Lint.partition_waived ~waivers diags in
                if i = 0 then begin
                  Lint.record_metrics m kept;
                  Metrics.incr ~by:(List.length suppressed) m "lint.suppressed"
                end;
                (Lint.to_violations kept, suppressed))
              decks)
    in
    (* Resolve every definition against each deck's session (then disk)
       cache before the sweeps start, so each stage below just replays
       or computes. *)
    let env_by_deck = List.map (fun d -> env_key d.dk_rules t.e_config) decks in
    let lookups =
      Trace.with_span trace ~cat:"cache" "defs-lookup" (fun () ->
          List.map
            (fun env_d ->
              let defs = defs_for t env_d in
              let defs_from_disk = ref 0 and reused = ref 0 in
              let slots =
                List.map
                  (fun ((s : Model.symbol), fp) ->
                    let hit =
                      match Hashtbl.find_opt defs fp with
                      | Some e -> Some e
                      | None -> (
                        match t.e_cache with
                        | None -> None
                        | Some cache -> (
                          match Cache.find_def cache ~env:env_d ~fp with
                          | Some e ->
                            incr defs_from_disk;
                            Hashtbl.replace defs fp e;
                            Some e
                          | None -> None))
                    in
                    if Option.is_some hit then incr reused;
                    { sl_sym = s; sl_fp = fp; sl_hit = hit; sl_el = []; sl_dv = [];
                      sl_rel = [] })
                  fps
              in
              (slots, !reused, !defs_from_disk))
            env_by_deck)
    in
    (* The per-definition stages are embarrassingly parallel — each
       fresh slot is one independent (deck rules × definition) task —
       so they run on the same cost-balanced scheduler as the
       interaction sweep.  The worklist flattens every deck's fresh
       slots in deck-major definition order; workers store each result
       into its slot and emit a ["symbol"] span and [symbol.<name>] cost
       charge per slot, into per-domain buffers that merge in tid order.
       [assemble] then builds each deck's violations in definition
       order, replayed slots contributing their cached list in place,
       so the report bytes are the same at every [jobs] value. *)
    let stage_jobs =
      Interactions.effective_jobs t.e_config.interactions.Interactions.jobs
    in
    let fresh_work =
      Array.of_list
        (List.concat
           (List.map2
              (fun d (slots, _, _) ->
                List.filter_map
                  (fun sl -> if Option.is_none sl.sl_hit then Some (d, sl) else None)
                  slots)
              decks lookups))
    in
    let sweep stage compute =
      ignore
        (Parallel.run ~metrics:m ?trace ~jobs:stage_jobs ~stage
           ~weight:(fun i ->
             let _, sl = fresh_work.(i) in
             1 + List.length sl.sl_sym.Model.elements)
           ~n:(Array.length fresh_work)
           ~worker:(fun _tid -> ())
           ~chunk:(fun () dm dt ~lo ~hi ->
             for i = lo to hi - 1 do
               let d, sl = fresh_work.(i) in
               Trace.with_span dt ~cat:"symbol" ~args:[ ("stage", stage) ]
                 sl.sl_sym.Model.sname (fun () ->
                   let t0 = Metrics.now_ns () in
                   compute d sl;
                   Option.iter
                     (fun dm ->
                       Metrics.add_cost_ns dm ("symbol." ^ sl.sl_sym.Model.sname)
                         (Int64.sub (Metrics.now_ns ()) t0))
                     dm)
             done)
           ~merge:(fun () -> ())
           ())
    in
    let assemble fresh_of replay =
      List.map
        (fun (slots, _, _) ->
          List.concat_map
            (fun sl -> match sl.sl_hit with Some e -> replay e | None -> fresh_of sl)
            slots)
        lookups
    in
    let elements_by_deck =
      timed "elements" (fun () ->
          sweep "elements" (fun d sl ->
              sl.sl_el <- Element_checks.check_symbol d.dk_rules sl.sl_sym);
          assemble (fun sl -> sl.sl_el) (fun e -> e.Cache.de_elements))
    in
    let devices_by_deck =
      timed "devices" (fun () ->
          sweep "devices" (fun d sl -> sl.sl_dv <- Devices.check_symbol d.dk_rules sl.sl_sym);
          assemble (fun sl -> sl.sl_dv) (fun e -> e.Cache.de_devices))
    in
    let relational_by_deck =
      match t.e_config.relational with
      | None -> List.map (fun _ -> []) decks
      | Some exposure ->
        timed "devices-relational" (fun () ->
            sweep "devices-relational" (fun d sl ->
                sl.sl_rel <- Devices.check_relational exposure d.dk_rules sl.sl_sym);
            assemble (fun sl -> sl.sl_rel) (fun e -> e.Cache.de_relational))
    in
    (* Freshly computed definitions become cache entries (session +
       disk), under their deck's environment.  When [relational] is off
       the stored list is empty, which is sound: the environment digest
       separates the two configs. *)
    Trace.with_span trace ~cat:"cache" "defs-save" (fun () ->
        List.iter2
          (fun env_d (slots, _, _) ->
            let defs = defs_for t env_d in
            let stored = Hashtbl.create 16 in
            List.iter
              (fun sl ->
                if Option.is_none sl.sl_hit && not (Hashtbl.mem stored sl.sl_fp) then begin
                  Hashtbl.replace stored sl.sl_fp ();
                  let entry =
                    { Cache.de_elements = sl.sl_el;
                      de_devices = sl.sl_dv;
                      de_relational = sl.sl_rel }
                  in
                  Hashtbl.replace defs sl.sl_fp entry;
                  match t.e_cache with
                  | None -> ()
                  | Some cache -> Cache.store_def cache ~env:env_d ~fp:sl.sl_fp entry
                end)
              slots)
          env_by_deck lookups);
    let total_one = List.length fps in
    let total = total_one * List.length decks in
    let reused = List.fold_left (fun acc (_, r, _) -> acc + r) 0 lookups in
    let defs_from_disk = List.fold_left (fun acc (_, _, d) -> acc + d) 0 lookups in
    Metrics.incr ~by:total m "cache.symbols_total";
    Metrics.incr ~by:reused m "cache.symbols_reused";
    Metrics.incr ~by:defs_from_disk m "cache.defs_from_disk";
    Metrics.incr ~by:(total - reused) m "cache.defs_computed";
    if total > 0 then
      Metrics.set_gauge m "cache.hit_ratio" (float_of_int reused /. float_of_int total);
    (* Composite stages always run fresh and are deck-independent: they
       are the hierarchical, cheap part, and they stitch the cached
       pieces together. *)
    let nets, connection_issues =
      timed "connections+netlist" (fun () -> Netgen.build ~metrics:m model)
    in
    let netlist = timed "netlist-export" (fun () -> Netgen.netlist nets) in
    (* The interaction sweep diverges per deck, but its worklist — the
       expensive plan — depends only on the candidate cutoff, so decks
       agreeing on [max_dist] share one plan.  Each run memoises its
       instance pairs' candidates afresh.

       Static immunity certificates are deck-free geometry, built once
       per check for every callee (the root is nobody's callee) and
       charged to [analysis.certify].  They are off under DIC_NO_CERTS
       (the identity smokes) and under the exposure spacing model,
       whose verdicts drawn-gap bounds cannot certify.  The certificate
       build and each plan get a ["phase"] span inside the stage's. *)
    let interactions_by_deck =
      timed "interactions" (fun () ->
          let cert_of =
            match t.e_config.interactions.Interactions.spacing_model with
            | Interactions.Geometric when Deckcheck.enabled () ->
              Trace.with_span trace ~cat:"phase" "certify" (fun () ->
                  let t0 = Metrics.now_ns () in
                  let by_sid = Hashtbl.create 64 in
                  List.iter
                    (fun (s : Model.symbol) ->
                      if s.Model.sid <> Model.root_id then
                        Hashtbl.replace by_sid s.Model.sid
                          (Deckcheck.certify ~lookup:(Hashtbl.find_opt by_sid) s))
                    model.Model.symbols;
                  Metrics.incr ~by:(Hashtbl.length by_sid) m "analysis.certs_computed";
                  Metrics.add_cost_ns m "analysis.certify" (Int64.sub (Metrics.now_ns ()) t0);
                  Some (Hashtbl.find_opt by_sid))
            | _ -> None
          in
          let plans = Hashtbl.create 4 in
          let plan_for dk_rules =
            let dmax = Interactions.max_dist dk_rules in
            match Hashtbl.find_opt plans dmax with
            | Some p -> p
            | None ->
              let p =
                Trace.with_span trace ~cat:"phase" "plan" (fun () -> Interactions.plan ~dmax nets)
              in
              Hashtbl.add plans dmax p;
              p
          in
          List.map
            (fun d ->
              let certs =
                Option.map (fun cert_of -> Deckcheck.consult ~cert_of d.dk_rules) cert_of
              in
              Interactions.run ~config:t.e_config.interactions ~rules:d.dk_rules ~metrics:m
                ?trace ?certs (plan_for d.dk_rules))
            decks)
    in
    let electrical_issues =
      if t.e_config.run_erc then timed "electrical" (fun () -> erc_violations netlist)
      else []
    in
    let consistency_issues =
      match t.e_config.expected_netlist with
      | None -> []
      | Some expected -> timed "netlist-compare" (fun () -> Netcompare.check expected netlist)
    in
    let local, crossing = Netgen.locality nets in
    let locality_info =
      Report.info ~stage:Report.Netlist_gen ~rule:"netlist.locality" ~context:"TOP"
        (Printf.sprintf "%d net(s) local to one definition, %d crossing boundaries" local
           crossing)
    in
    let rec zip5 a b c d e =
      match (a, b, c, d, e) with
      | x :: a, y :: b, z :: c, u :: d, v :: e -> (x, y, z, u, v) :: zip5 a b c d e
      | _ -> []
    in
    let deck_results =
      List.map2
        (fun ((d, (lint_issues, lint_suppressed), element_issues, device_issues,
               relational_issues),
              (interaction_issues, interaction_stats))
             (_, deck_reused, deck_from_disk) ->
          let report =
            { Report.violations =
                lint_issues @ parse_issues @ element_issues @ device_issues
                @ relational_issues @ connection_issues @ interaction_issues
                @ electrical_issues @ consistency_issues @ [ locality_info ] }
          in
          { dr_deck = d;
            dr_result = { report; netlist; interaction_stats; metrics = m; model; nets };
            dr_reuse =
              { symbols_total = total_one;
                symbols_reused = deck_reused;
                defs_from_disk = deck_from_disk };
            dr_suppressed = lint_suppressed })
        (List.combine
           (zip5 decks lint_by_deck elements_by_deck devices_by_deck relational_by_deck)
           interactions_by_deck)
        lookups
    in
    (* Pairwise subsumption verdicts (R015) live only in the merged
       view: injecting them into per-deck reports would break the
       "each deck's report is byte-identical to that deck checked
       alone" invariant. *)
    let relations =
      match decks with
      | _ :: _ :: _ when t.e_config.run_lint ->
        Deckcheck.relation_lines (List.map (fun d -> (d.dk_label, d.dk_rules)) decks)
      | _ -> []
    in
    let merged =
      Multireport.make ~relations
        (List.map (fun dr -> (dr.dr_deck.dk_label, dr.dr_result.report)) deck_results)
    in
    Metrics.count_report m (List.hd deck_results).dr_result.report;
    Ok { results = deck_results; merged }

let check_string ?metrics ?trace ?progress t src =
  match Cif.Parse.file src with
  | Error e -> Error (Cif.Parse.string_of_error e)
  | Ok file -> check ?metrics ?trace ?progress t file

let pp_summary ppf r =
  let by sev = Report.count ~severity:sev r.report in
  Format.fprintf ppf "%d error(s), %d warning(s), %d net(s)" (by Report.Error)
    (by Report.Warning)
    (List.length r.netlist.Netlist.Net.nets)
