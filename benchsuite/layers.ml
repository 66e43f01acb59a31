(* The traced run: one check assembled from the layers' public entry
   points, in [Engine.check]'s order at jobs 2, each call wrapped from
   outside in a [Dic.Trace] span (category "layer") under one "check"
   span, with the words it allocates.  The assembled report must render
   byte-identical to the reference, or the per-layer numbers describe a
   different program.

   Allocation comes from [Gc.counters], exact for the calling domain.
   [Dic.Metrics.time_stage] is not used for it: under OCaml 5.1 its
   [Gc.quick_stat] only moves at minor collections, which hides any
   layer allocating less than one minor heap.  The worker domain of
   [Interactions.run] reports through the [Metrics] counters it is
   given, at that coarser grain. *)

let jobs = 2
let rules = Inputs.rules

let layers =
  [ "cif.parse"; "model.elaborate"; "element_checks.check"; "devices.check";
    "deckcheck.certify"; "netgen.build"; "netgen.netlist"; "interactions.plan";
    "interactions.run"; "engine.erc"; "report.render"; "sarif.render" ]

let ok = function Ok v -> v | Error e -> failwith e

let time f =
  let t0 = Proc.now () in
  let v = f () in
  (v, Proc.now () -. t0)

(* Certificates for every definition, callees first, as the engine
   builds them; [None] under DIC_NO_CERTS, as in the engine. *)
let certify (model : Dic.Model.t) =
  if not (Dic.Deckcheck.enabled ()) then None
  else begin
    let by_sid = Hashtbl.create 64 in
    List.iter
      (fun (s : Dic.Model.symbol) ->
        Hashtbl.replace by_sid s.Dic.Model.sid
          (Dic.Deckcheck.certify ~lookup:(Hashtbl.find_opt by_sid) s))
      model.Dic.Model.symbols;
    Some (Hashtbl.find_opt by_sid)
  end

let consult cert_of = Option.map (fun cert_of -> Dic.Deckcheck.consult ~cert_of rules) cert_of
let config j = { Dic.Interactions.default_config with Dic.Interactions.jobs = j }

type pass = {
  values : (string * float) list;  (** per-layer metrics of this pass *)
  counts : (string * int) list;  (** counts that move only with verdicts *)
  layer_self_s : float;  (** sum of the layer spans' self times *)
  chrome : string;
  failures : string list;
}

(* [src] is checked as [dicheck uri --sarif ...] would check it, then
   [warm_src] is rechecked on a warm in-process engine; the [expected_*]
   texts are the references the three outputs must equal. *)
let run ~src ~uri ~expected_report ~expected_sarif ~warm_src ~warm_expected_report =
  let trace = Dic.Trace.create () and m = Dic.Metrics.create () in
  let words = Hashtbl.create 16 in
  let layer name f =
    Dic.Trace.with_span (Some trace) ~cat:"layer" name (fun () ->
        let minor0, _, major0 = Gc.counters () in
        let v = f () in
        let minor1, _, major1 = Gc.counters () in
        Hashtbl.replace words name (minor1 -. minor0, major1 -. major0);
        v)
  in
  let model, netlist, plan, cert_of, stats, report_text, sarif_text, (report : Dic.Report.t) =
    Dic.Trace.with_span (Some trace) ~cat:"check" "check" (fun () ->
        let file =
          ok (Result.map_error Cif.Parse.string_of_error
                (layer "cif.parse" (fun () -> Cif.Parse.file src)))
        in
        let model, parse_issues =
          ok (layer "model.elaborate" (fun () -> Dic.Model.elaborate rules file))
        in
        let elements = layer "element_checks.check" (fun () -> Dic.Element_checks.check model) in
        let devices = layer "devices.check" (fun () -> Dic.Devices.check model) in
        let cert_of, certs =
          layer "deckcheck.certify" (fun () ->
              let c = certify model in
              (c, consult c))
        in
        let nets, connections = layer "netgen.build" (fun () -> Dic.Netgen.build model) in
        let netlist = layer "netgen.netlist" (fun () -> Dic.Netgen.netlist nets) in
        let plan =
          layer "interactions.plan" (fun () ->
              Dic.Interactions.plan ~dmax:(Dic.Interactions.max_dist rules) nets)
        in
        let interactions, stats =
          layer "interactions.run" (fun () ->
              Dic.Interactions.run ~config:(config jobs) ~rules
                ~memo:(Dic.Interactions.create_memo ()) ~metrics:m ?certs plan)
        in
        let electrical = layer "engine.erc" (fun () -> Dic.Engine.erc_violations netlist) in
        let local, crossing = Dic.Netgen.locality nets in
        let locality =
          Dic.Report.info ~stage:Dic.Report.Netlist_gen ~rule:"netlist.locality"
            ~context:"TOP"
            (Printf.sprintf "%d net(s) local to one definition, %d crossing boundaries"
               local crossing)
        in
        let report =
          { Dic.Report.violations =
              parse_issues @ elements @ devices @ connections @ interactions @ electrical
              @ [ locality ] }
        in
        let result =
          { Dic.Engine.report; netlist; interaction_stats = stats; metrics = m; model; nets }
        in
        let report_text =
          layer "report.render" (fun () ->
              Format.asprintf "%a@." Dic.Report.pp report
              ^ Format.asprintf "%a@." Dic.Engine.pp_summary result)
        in
        let sarif_text =
          layer "sarif.render" (fun () -> Dic.Sarif.of_report ~uri report ^ "\n")
        in
        (model, netlist, plan, cert_of, stats, report_text, sarif_text, report))
  in
  let spans =
    List.map
      (fun (e : Dic.Trace.event) ->
        { Benchstats.sp_name = e.Dic.Trace.e_name;
          sp_start = Int64.to_float e.Dic.Trace.e_ts_ns *. 1e-9;
          sp_dur = Int64.to_float e.Dic.Trace.e_dur_ns *. 1e-9 })
      (Dic.Trace.events trace)
  in
  let self = Benchstats.self_times spans in
  let self_of name = List.assoc name self in
  (* The same plan judged again at jobs 2 and at jobs 1, each on a fresh
     memo and fresh certificates, once the traced pass has grown the
     heap: what the second domain buys on this input. *)
  let rerun j =
    snd
      (time (fun () ->
           Dic.Interactions.run ~config:(config j) ~rules
             ~memo:(Dic.Interactions.create_memo ()) ~metrics:(Dic.Metrics.create ())
             ?certs:(consult cert_of) plan))
  in
  let parallel_run = rerun jobs in
  let serial_run = rerun 1 in
  (* The edit loop's engine work, outside any process or socket: check
     [src] cold, then [warm_src] against the warm session. *)
  let engine = Dic.Engine.with_jobs (Dic.Engine.create rules) jobs in
  ignore (ok (Dic.Engine.check_string engine src));
  let warm, warm_s = time (fun () -> ok (Dic.Engine.check_string engine warm_src)) in
  let warm_result, _ = Dic.Engine.primary warm in
  let warm_text =
    Format.asprintf "%a@." Dic.Report.pp warm_result.Dic.Engine.report
    ^ Format.asprintf "%a@." Dic.Engine.pp_summary warm_result
  in
  let failures =
    List.filter_map
      (function Ok () -> None | Error e -> Some e)
      [ Benchstats.identical ~what:"traced report" ~expected:expected_report report_text;
        Benchstats.identical ~what:"traced SARIF" ~expected:expected_sarif sarif_text;
        Benchstats.identical ~what:"warm engine report" ~expected:warm_expected_report
          warm_text ]
  in
  let counter = Dic.Metrics.counter m in
  let minor_mw name = fst (Hashtbl.find words name) /. 1e6 in
  let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
  let values =
    List.map (fun l -> (l ^ "_s", self_of l)) layers
    @ [ ("cif.parse_minor_mw", minor_mw "cif.parse");
        ("model.elaborate_minor_mw", minor_mw "model.elaborate");
        ("netgen.build_minor_mw", minor_mw "netgen.build");
        ("netgen.build_major_mw", snd (Hashtbl.find words "netgen.build") /. 1e6);
        ("interactions.plan_minor_mw", minor_mw "interactions.plan");
        ("interactions.run_minor_mw",
         minor_mw "interactions.run"
         +. (float_of_int (counter "gc.minor_words.interactions") /. 1e6));
        ("report.render_minor_mw", minor_mw "report.render");
        ("interactions.pairs", float_of_int (counter "interactions.pairs"));
        ("interactions.checked", float_of_int (counter "interactions.checked"));
        ("interactions.memo_hit_ratio",
         ratio stats.Dic.Interactions.memo_hits stats.Dic.Interactions.memo_misses);
        ("deckcheck.certified_skips", float_of_int (counter "analysis.certified_skips"));
        ("parallel.run_speedup", serial_run /. parallel_run);
        ("engine.check_warm_s", warm_s) ]
  in
  let counts =
    [ ("model.instantiated_elements", Dic.Model.instantiated_elements model);
      ("model.definition_elements", Dic.Model.definition_elements model);
      ("netgen.nets", List.length netlist.Netlist.Net.nets);
      ("report.violations", List.length report.Dic.Report.violations);
      ("report.bytes", String.length report_text);
      ("sarif.bytes", String.length sarif_text) ]
  in
  { values;
    counts;
    layer_self_s = List.fold_left (fun acc l -> acc +. self_of l) 0. layers;
    chrome = Dic.Trace.to_chrome_json trace;
    failures }
