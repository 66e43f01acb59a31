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
}

type deck_result = {
  dr_deck : deck;
  dr_result : result;
  dr_reuse : reuse;
  dr_lint : Lint.diagnostic list;
  dr_suppressed : Lint.diagnostic list;
}

type multi = {
  results : deck_result list;
  relations : string list;
}

let primary m =
  let dr = List.hd m.results in
  (dr.dr_result, dr.dr_reuse)

let merged m =
  Multireport.make ~relations:m.relations
    (List.map (fun dr -> (dr.dr_deck.dk_label, dr.dr_result.report)) m.results)

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
      let msg = Netlist.Erc.message v in
      match severity with
      | `E -> Report.error ~stage:Report.Electrical ~rule ~context:"netlist" msg
      | `W -> Report.warning ~stage:Report.Electrical ~rule ~context:"netlist" msg)
    (Netlist.Erc.check netlist)

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)

(* Structural fingerprint of one definition.  Everything the
   per-definition checks can observe is folded in: name (violations
   carry it as context), device kind, element geometry/layers/nets,
   calls with their transforms, and the CIF source positions of the
   definition and its elements, which element and device findings
   carry.  Element skeletons go in too: the device checks read them,
   and they follow the widths of the deck that elaborated the model,
   which need not be the deck whose environment stores the entry. *)
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
          e.Model.net_label,
          e.Model.loc ))
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
          ( s.Model.sname,
            Option.map Tech.Device.to_tag s.Model.device,
            s.Model.sloc,
            elements,
            calls )
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
(* Engines                                                             *)

type t = {
  e_decks : deck list;
  e_config : config;
  e_cache : Cache.t option;
}

let create ?(config = default_config) ?cache_dir ?decks rules =
  let decks =
    match decks with
    | Some [] -> invalid_arg "Engine.create: empty deck list"
    | Some ds -> ds
    | None -> [ deck rules ]
  in
  { e_decks = decks; e_config = config; e_cache = Option.map Cache.open_dir cache_dir }

let config t = t.e_config

let with_decks t decks =
  (match decks with [] -> invalid_arg "Engine.with_decks: empty deck list" | _ -> ());
  { t with e_decks = decks }

let with_config t config = { t with e_config = config }

let with_jobs t jobs =
  with_config t
    { t.e_config with interactions = { t.e_config.interactions with Interactions.jobs = jobs } }

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

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)

(* One per definition, per deck: either the cached entry to replay, or
   the freshly computed pieces accumulated stage by stage so they can
   be stored as one entry afterwards. *)
type slot = {
  sl_sym : Model.symbol;
  sl_addr : (string * string) option;  (* (env, fingerprint), with a cache handle *)
  sl_hit : Cache.def_entry option;
  mutable sl_el : Report.violation list;
  mutable sl_dv : Report.violation list;
  mutable sl_rel : Report.violation list;
}

(* Decks whose minimum widths agree on every layer elaborate alike:
   element skeletons, device interfaces and lint D005 read nothing else
   of a deck.  Each deck's group index, and each group's first deck, in
   order of first appearance. *)
let elaboration_groups decks =
  let seen = Hashtbl.create 4 and firsts = ref [] in
  let gids =
    List.map
      (fun d ->
        let key = List.map (Tech.Rules.min_width d.dk_rules) Tech.Layer.all in
        match Hashtbl.find_opt seen key with
        | Some g -> g
        | None ->
          let g = Hashtbl.length seen in
          Hashtbl.add seen key g;
          firsts := d :: !firsts;
          g)
      decks
  in
  (gids, Array.of_list (List.rev !firsts))

let check ?metrics ?trace ?progress t file =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  let decks = t.e_decks in
  let gids, leads = elaboration_groups decks in
  let tick name = match progress with None -> () | Some f -> f name in
  (* Each stage is announced to [progress], timed into the metrics, and
     recorded as a ["stage"]-category trace span — one wrapper so the
     three views always agree on stage names.  With several decks the
     per-deck (and per-group) work loops {e inside} each stage, so the
     stage sequence — and, for the primary deck, the report bytes — are
     identical to a single-deck run. *)
  let timed name f =
    tick name;
    Trace.with_span trace ~cat:"stage" name (fun () -> Metrics.time_stage m name f)
  in
  let rec elaborate_all = function
    | [] -> Ok []
    | d :: rest ->
      Result.bind (Model.elaborate d.dk_rules file) (fun e ->
          Result.map (List.cons e) (elaborate_all rest))
  in
  match timed "elaborate" (fun () -> elaborate_all (Array.to_list leads)) with
  | Error e -> Error e
  | Ok elaborated ->
    (* One elaboration per group, and everything built from it below is
       per group too: a deck is judged on its own widths' skeletons
       whatever its place in the set.  [model.*] and [netgen.*]
       describe the first deck's. *)
    let models = Array.of_list (List.map fst elaborated) in
    let parse_issues = Array.of_list (List.map snd elaborated) in
    let model0 = models.(0) in
    Metrics.incr ~by:(Model.symbol_count model0) m "model.symbols";
    Metrics.incr ~by:(Model.definition_elements model0) m "model.definition_elements";
    Metrics.incr ~by:(Model.instantiated_elements model0) m "model.instantiated_elements";
    (* Static lints run before any geometry: one deck pass per deck,
       one design pass (syntax tree + model) per group.  Off by default
       so the default report bytes are untouched. *)
    let lint_by_deck =
      if not t.e_config.run_lint then List.map (fun _ -> ([], [])) decks
      else
        timed "lint" (fun () ->
            let ast = Lint.check_ast file in
            let design = Array.map (fun model -> ast @ Lint.check_model model) models in
            (* Waivers filter at reporting time only, and a waiver
               change never splits the cache (waivers are excluded
               from the deck's canonical text, like [key_positions]). *)
            List.mapi
              (fun i (d, g) ->
                (* A deck diagnostic's position is a line of the rule
                   file, not of the design this report is about: it is
                   dropped, and its key stays as the context. *)
                let deck_diags =
                  List.map
                    (fun (g : Lint.diagnostic) -> { g with Lint.loc = None })
                    (Lint.check_deck d.dk_rules)
                in
                let diags = Lint.sort (deck_diags @ design.(g)) in
                let waivers = d.dk_rules.Tech.Rules.waivers @ file.Cif.Ast.waivers in
                let kept, suppressed = Lint.partition_waived ~waivers diags in
                if i = 0 then begin
                  Lint.record_metrics m kept;
                  Metrics.incr ~by:(List.length suppressed) m "lint.suppressed"
                end;
                (kept, suppressed))
              (List.combine decks gids))
    in
    (* One slot per definition of its group's model, per deck.  Without
       a cache handle every slot is fresh and nothing is addressed.  With
       one, each definition is fingerprinted and each deck's environment
       digested once per check, and every definition is resolved against
       the handle before the sweeps start, so each stage below just
       replays or computes. *)
    let slot ?addr ?hit s =
      { sl_sym = s; sl_addr = addr; sl_hit = hit; sl_el = []; sl_dv = []; sl_rel = [] }
    in
    let slots_by_deck =
      match t.e_cache with
      | None -> List.map (fun g -> List.map (fun s -> slot s) models.(g).Model.symbols) gids
      | Some cache ->
        Trace.with_span trace ~cat:"cache" "defs-lookup" (fun () ->
            let fps = Array.map (fun model -> List.map fingerprint model.Model.symbols) models in
            List.map2
              (fun d g ->
                let env = env_key d.dk_rules t.e_config in
                List.map2
                  (fun s fp -> slot ~addr:(env, fp) ?hit:(Cache.find_def cache ~env ~fp) s)
                  models.(g).Model.symbols fps.(g))
              decks gids)
    in
    (* The per-definition stages run on the calling domain: each is cheap
       beside the spawn of a domain, so the interaction sweep is the
       check's only fan-out.  Fresh slots run in worklist order —
       deck-major, then definition order — each inside its ["symbol"]
       span and charged to its [symbol.<name>] cost bucket (the
       [--top-cost] view).  [assemble] then builds each deck's
       violations in definition order, replayed slots contributing their
       cached list in place. *)
    let sweep stage compute =
      List.iter2
        (fun d slots ->
          List.iter
            (fun sl ->
              if Option.is_none sl.sl_hit then begin
                let name = sl.sl_sym.Model.sname in
                Trace.with_span trace ~cat:"symbol" ~args:[ ("stage", stage) ] name (fun () ->
                    let t0 = Metrics.now_ns () in
                    compute d sl;
                    Metrics.add_cost_ns m ("symbol." ^ name) (Int64.sub (Metrics.now_ns ()) t0))
              end)
            slots)
        decks slots_by_deck
    in
    let assemble fresh_of replay =
      List.map
        (List.concat_map (fun sl ->
             match sl.sl_hit with Some e -> replay e | None -> fresh_of sl))
        slots_by_deck
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
    (* Freshly computed definitions become cache entries under their
       deck's environment.  When [relational] is off the stored list is
       empty, which is sound: the environment digest separates the two
       configs. *)
    Option.iter
      (fun cache ->
        Trace.with_span trace ~cat:"cache" "defs-save" (fun () ->
            List.iter
              (List.iter (fun sl ->
                   match (sl.sl_addr, sl.sl_hit) with
                   | Some (env, fp), None ->
                     Cache.store_def cache ~env ~fp
                       { Cache.de_elements = sl.sl_el;
                         de_devices = sl.sl_dv;
                         de_relational = sl.sl_rel }
                   | _ -> ()))
              slots_by_deck))
      t.e_cache;
    let reused_of slots =
      List.fold_left (fun n sl -> if Option.is_some sl.sl_hit then n + 1 else n) 0 slots
    in
    let total = List.fold_left (fun acc slots -> acc + List.length slots) 0 slots_by_deck in
    let reused = List.fold_left (fun acc slots -> acc + reused_of slots) 0 slots_by_deck in
    Metrics.incr ~by:total m "cache.symbols_total";
    Metrics.incr ~by:reused m "cache.symbols_reused";
    Metrics.incr ~by:(total - reused) m "cache.defs_computed";
    if total > 0 then
      Metrics.set_gauge m "cache.hit_ratio" (float_of_int reused /. float_of_int total);
    (* Composite stages always run fresh and are deck-independent within
       a group: they are the hierarchical, cheap part, and they stitch
       the cached pieces together. *)
    let built =
      timed "connections+netlist" (fun () ->
          Array.mapi
            (fun g model -> Netgen.build ?metrics:(if g = 0 then Some m else None) model)
            models)
    in
    let netlists =
      timed "netlist-export" (fun () -> Array.map (fun (nets, _) -> Netgen.netlist nets) built)
    in
    (* The interaction sweep diverges per deck, but its worklist — the
       expensive plan — depends only on the group's nets and the
       candidate cutoff, so decks agreeing on both share one plan.  Each
       run memoises its instance pairs' candidates afresh.

       Static immunity certificates are deck-free geometry, built once
       per group for every callee (the root is nobody's callee) and
       charged to [analysis.certify].  They are off under DIC_NO_CERTS
       (the identity smokes) and under the exposure spacing model,
       whose verdicts drawn-gap bounds cannot certify.  The certificate
       build and each plan get a ["phase"] span inside the stage's. *)
    let interactions_by_deck =
      timed "interactions" (fun () ->
          let certify model =
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
                Hashtbl.find_opt by_sid)
          in
          let cert_of =
            match t.e_config.interactions.Interactions.spacing_model with
            | Interactions.Geometric when Deckcheck.enabled () -> Some (Array.map certify models)
            | _ -> None
          in
          let plans = Hashtbl.create 4 in
          let plan_for g dk_rules =
            let dmax = Interactions.max_dist dk_rules in
            match Hashtbl.find_opt plans (g, dmax) with
            | Some p -> p
            | None ->
              let p =
                Trace.with_span trace ~cat:"phase" "plan" (fun () ->
                    Interactions.plan ~dmax (fst built.(g)))
              in
              Hashtbl.add plans (g, dmax) p;
              p
          in
          List.map2
            (fun d g ->
              let certs =
                Option.map (fun c -> Deckcheck.consult ~cert_of:c.(g) d.dk_rules) cert_of
              in
              Interactions.run ~config:t.e_config.interactions ~rules:d.dk_rules ~metrics:m
                ?trace ?certs (plan_for g d.dk_rules))
            decks gids)
    in
    let electrical_issues =
      if t.e_config.run_erc then
        timed "electrical" (fun () -> Array.map erc_violations netlists)
      else Array.map (fun _ -> []) netlists
    in
    let consistency_issues =
      match t.e_config.expected_netlist with
      | None -> Array.map (fun _ -> []) netlists
      | Some expected ->
        timed "netlist-compare" (fun () -> Array.map (Netcompare.check expected) netlists)
    in
    let locality_info (nets, _) =
      let local, crossing = Netgen.locality nets in
      Report.info ~stage:Report.Netlist_gen ~rule:"netlist.locality" ~context:"TOP"
        (Printf.sprintf "%d net(s) local to one definition, %d crossing boundaries" local
           crossing)
    in
    let lint_by_deck = Array.of_list lint_by_deck
    and elements_by_deck = Array.of_list elements_by_deck
    and devices_by_deck = Array.of_list devices_by_deck
    and relational_by_deck = Array.of_list relational_by_deck
    and interactions_by_deck = Array.of_list interactions_by_deck in
    let deck_results =
      List.mapi
        (fun i ((d, g), slots) ->
          let lint_kept, lint_suppressed = lint_by_deck.(i) in
          let interaction_issues, interaction_stats = interactions_by_deck.(i) in
          let nets, connection_issues = built.(g) in
          let report =
            { Report.violations =
                Lint.to_violations lint_kept @ parse_issues.(g) @ elements_by_deck.(i)
                @ devices_by_deck.(i) @ relational_by_deck.(i) @ connection_issues
                @ interaction_issues @ electrical_issues.(g) @ consistency_issues.(g)
                @ [ locality_info built.(g) ] }
          in
          { dr_deck = d;
            dr_result =
              { report; netlist = netlists.(g); interaction_stats; metrics = m;
                model = models.(g); nets };
            dr_reuse = { symbols_total = List.length slots; symbols_reused = reused_of slots };
            dr_lint = lint_kept;
            dr_suppressed = lint_suppressed })
        (List.combine (List.combine decks gids) slots_by_deck)
    in
    (* Pairwise subsumption verdicts (R015) live only beside the
       per-deck results: injecting them into per-deck reports would
       break the "each deck's report is byte-identical to that deck
       checked alone" invariant. *)
    let relations =
      if t.e_config.run_lint then
        Lint.relation_lines (List.map (fun d -> (d.dk_label, d.dk_rules)) decks)
      else []
    in
    Metrics.count_report m (List.hd deck_results).dr_result.report;
    Ok { results = deck_results; relations }

let check_string ?metrics ?trace ?progress t src =
  match Cif.Parse.file src with
  | Error e -> Error (Cif.Parse.string_of_error e)
  | Ok file -> check ?metrics ?trace ?progress t file

let summary r =
  let by sev = Report.count ~severity:sev r.report in
  Printf.sprintf "%d error(s), %d warning(s), %d net(s)" (by Report.Error)
    (by Report.Warning)
    (List.length r.netlist.Netlist.Net.nets)

let pp_summary ppf r = Format.pp_print_string ppf (summary r)

let deck_exit ~werror ~lint_werror dr =
  let count sev = Report.count ~severity:sev dr.dr_result.report in
  if count Report.Error > 0
     || (werror && count Report.Warning > 0)
     || (lint_werror && dr.dr_lint <> [])
  then 1
  else 0

let exit_code ~werror ~lint_werror m =
  List.fold_left (fun acc dr -> max acc (deck_exit ~werror ~lint_werror dr)) 0 m.results

(* ------------------------------------------------------------------ *)
(* Rendering a check                                                   *)

let report_text ?merged m =
  let buf = Buffer.create 4096 in
  (match merged with
  | None ->
    let r, _ = primary m in
    Report.add_lines buf r.report;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (summary r)
  | Some mr ->
    Multireport.add_lines buf mr;
    Buffer.add_char buf '\n';
    Multireport.add_summary buf mr);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let sarif ~set ~uri m =
  let suppressed dr = Lint.to_violations dr.dr_suppressed in
  if set then
    Sarif.of_reports ~uri
      ~suppressed:(List.map (fun dr -> (dr.dr_deck.dk_label, suppressed dr)) m.results)
      ~relations:m.relations
      (List.map
         (fun dr -> (dr.dr_deck.dk_label, dr.dr_deck.dk_rules, dr.dr_result.report))
         m.results)
  else
    let dr = List.hd m.results in
    Sarif.of_report ~uri ~suppressed:(suppressed dr) dr.dr_result.report
