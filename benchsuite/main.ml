(* The repository benchmark (see README.md).

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe suite [--seed N] [--workload NAME] [--seconds S] [--smoke]
     main.exe compare A.json B.json

   One invocation runs one workload against the shipped [dicheck]
   binary, holds every operation's output to a reference computed by
   the library, and prints as its last stdout line
   {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with [--trace 0], the per-layer ones with [--trace 1].  A
   fuller record (quartiles, sample counts, samples) goes to
   OUT/runs/.  [suite] runs every workload both ways and writes
   OUT/suite.json; [compare] judges two suite records against the
   bounds in BENCHMARK.json.  The [prepare] and [layers] subcommands
   are its own helper processes. *)

module J = Dic.Json
module S = Benchstats

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

(* Name, unit, which direction is better.  BENCHMARK.json must list
   the same; [suite] checks it.  Bounds live only there. *)
let end_to_end =
  [ ("verdict_s", "s", S.Lower); ("peak_rss_mb", "MB", S.Lower); ("setup_s", "s", S.Lower) ]

let per_layer =
  List.map (fun l -> (l ^ "_s", "s", S.Lower)) Layers.layers
  @ [ ("cif.parse_minor_mw", "Mw", S.Lower);
      ("model.elaborate_minor_mw", "Mw", S.Lower);
      ("netgen.build_minor_mw", "Mw", S.Lower);
      ("netgen.build_major_mw", "Mw", S.Lower);
      ("interactions.plan_minor_mw", "Mw", S.Lower);
      ("interactions.run_minor_mw", "Mw", S.Lower);
      ("report.render_minor_mw", "Mw", S.Lower);
      ("interactions.pairs", "count", S.Lower);
      ("interactions.checked", "count", S.Lower);
      ("interactions.memo_hit_ratio", "ratio", S.Higher);
      ("deckcheck.certified_skips", "count", S.Higher);
      ("parallel.run_speedup", "ratio", S.Higher);
      ("engine.check_warm_s", "s", S.Lower);
      ("trace.unaccounted_s", "s", S.Lower);
      ("serve.wait_p50_ms", "ms", S.Lower);
      ("serve.service_p50_ms", "ms", S.Lower);
      ("serve.overhead_ms", "ms", S.Lower);
      ("engine.cache_hit_ratio", "ratio", S.Higher) ]

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type kind =
  | One_shot  (** a fresh [dicheck --jobs 2 --sarif] process per verdict *)
  | Edit_loop  (** 2 closed-loop clients of one warm [dicheck serve] *)

type input = {
  sources : string array;
      (** one-shot: the design; edit loop: the buffers clients draw from *)
  truths : Dic.Classify.truth list;  (** the injected-defect journal *)
}

type workload = {
  name : string;
  kind : kind;
  generate : smoke:bool -> Random.State.t -> input;
  daemon_requests : int;  (** per client, in the traced run's daemon phase *)
}

let design f = { sources = [| Cif.Print.to_string f |]; truths = [] }

(* Sizes hold 20 or more verdicts in a 20 s run on a 2-thread host;
   [--smoke] shrinks every input to a fraction of a second.  Why each
   workload is here is in BENCHMARK.json and README.md. *)
let workloads =
  [ { name = "pla-96x192";
      kind = One_shot;
      daemon_requests = 2;
      generate =
        (fun ~smoke rng ->
          let rows, cols = if smoke then (24, 48) else (96, 192) in
          design (Inputs.pla rng ~rows ~cols)) };
    { name = "shift-4096";
      kind = One_shot;
      daemon_requests = 2;
      generate =
        (fun ~smoke _ ->
          design (Layoutgen.Shift.register ~lambda:Inputs.lambda (if smoke then 256 else 4096)))
    };
    { name = "salted-pla-48x96";
      kind = One_shot;
      daemon_requests = 2;
      generate =
        (fun ~smoke rng ->
          let rows, cols, batches = if smoke then (12, 24, 50) else (48, 96, 2000) in
          let file, truths = Inputs.salted_pla rng ~rows ~cols ~batches in
          { sources = [| Cif.Print.to_string file |]; truths }) };
    { name = "serve-edit-shift-256";
      kind = Edit_loop;
      daemon_requests = 25;
      generate =
        (fun ~smoke rng ->
          { sources = Inputs.edit_variants rng ~bits:(if smoke then 64 else 256) ~count:8;
            truths = [] }) } ]

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type cfg = {
  seed : int;
  seconds : float;
  smoke : bool;
  dicheck : string;
  out_dir : string;
  benchmark : string;  (** path of BENCHMARK.json *)
}

let min_oneshot cfg = if cfg.smoke then 2 else 5
let min_passes cfg = if cfg.smoke then 1 else 3

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("[benchsuite] " ^ s)) fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Every run starts from an empty working directory of its own. *)
let fresh_dir cfg w =
  let dir = Filename.concat cfg.out_dir w.name in
  rm_rf dir;
  mkdir_p dir;
  dir

(* ------------------------------------------------------------------ *)
(* Run records                                                         *)

type metric = {
  m_name : string;
  m_value : float;
  m_samples : float list;
}

let metric name samples = { m_name = name; m_value = S.median samples; m_samples = samples }

(* Operations attempted and the failures among them. *)
type tally = {
  mutable attempted : int;
  mutable failures : string list;
}

let new_tally () = { attempted = 0; failures = [] }

let count tally r =
  tally.attempted <- tally.attempted + 1;
  match r with
  | Ok () -> ()
  | Error e ->
    log "FAILED: %s" e;
    tally.failures <- e :: tally.failures

type record = {
  r_workload : string;
  r_trace : bool;
  r_tally : tally;
  r_metrics : metric list;
  r_counts : (string * int) list;
}

let num f = J.Num f
let correct r = r.r_tally.failures = [] && r.r_tally.attempted > 0

let table_of trace = if trace then per_layer else end_to_end

let unit_of name =
  let _, u, _ =
    List.find (fun (n, _, _) -> n = name) (end_to_end @ per_layer)
  in
  u

(* A metric that could not be measured ends the run without a result
   line rather than with an invented number. *)
let find_metric r name =
  match List.find_opt (fun m -> m.m_name = name) r.r_metrics with
  | Some m when Float.is_finite m.m_value -> m
  | _ -> failwith ("metric not measured: " ^ name)

(* The line the contract reads: exactly the declared metrics. *)
let result_line r =
  J.Obj
    [ ("correct", J.Bool (correct r));
      ("attempted", num (float_of_int r.r_tally.attempted));
      ("failed", num (float_of_int (List.length r.r_tally.failures)));
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, u, _) ->
               (name, J.Obj [ ("value", num (find_metric r name).m_value); ("unit", J.Str u) ]))
             (table_of r.r_trace)) ) ]

let metric_json m =
  let q1, _, q3 = S.quartiles m.m_samples in
  let n = List.length m.m_samples in
  let tail =
    match S.tail_percentile n with
    | Some p when p > 50 ->
      [ (Printf.sprintf "p%d" p, num (S.quantile m.m_samples (float_of_int p /. 100.))) ]
    | _ -> []
  in
  J.Obj
    ([ ("value", num m.m_value); ("unit", J.Str (unit_of m.m_name));
       ("n", num (float_of_int n)); ("q1", num q1); ("q3", num q3) ]
    @ tail
    @ [ ("samples", J.Arr (List.map num m.m_samples)) ])

let record_json cfg r =
  J.Obj
    [ ("workload", J.Str r.r_workload);
      ("seed", num (float_of_int cfg.seed));
      ("seconds", num cfg.seconds);
      ("smoke", J.Bool cfg.smoke);
      ("trace", J.Bool r.r_trace);
      ("correct", J.Bool (correct r));
      ("attempted", num (float_of_int r.r_tally.attempted));
      ("failed", num (float_of_int (List.length r.r_tally.failures)));
      ( "failures",
        J.Arr
          (List.filteri (fun i _ -> i < 20) (List.rev_map (fun e -> J.Str e) r.r_tally.failures))
      );
      ("metrics", J.Obj (List.map (fun m -> (m.m_name, metric_json m)) r.r_metrics));
      ("counts", J.Obj (List.map (fun (k, v) -> (k, num (float_of_int v))) r.r_counts)) ]

let record_path cfg ~workload ~trace =
  Filename.concat (Filename.concat cfg.out_dir "runs")
    (Printf.sprintf "%s-seed%d-trace%d.json" workload cfg.seed (if trace then 1 else 0))

(* ------------------------------------------------------------------ *)
(* Subprocesses                                                        *)

let capture prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let out = In_channel.input_all ic in
  (out, Unix.close_process_in ic)

let last_line s =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

(* Run this program's [sub] subcommand and parse its last stdout line. *)
let subcommand sub args =
  match capture Sys.executable_name (sub :: args) with
  | out, Unix.WEXITED 0 -> (
    match J.parse (last_line out) with Ok j -> Ok j | Error e -> Error (sub ^ ": " ^ e))
  | _ -> Error (sub ^ " process failed")

let rec field j = function
  | [] -> Some j
  | k :: rest -> Option.bind (J.member k j) (fun j -> field j rest)

let num_field j path = Option.value ~default:nan (Option.bind (field j path) J.num)

(* ------------------------------------------------------------------ *)
(* Inputs and references                                               *)

let source_file dir i ext = Filename.concat dir (Printf.sprintf "src-%d.%s" i ext)

(* The [prepare] subcommand: write the workload's sources into [dir] as
   src-<i>.cif, each with its reference report and SARIF beside it, and
   print the reference exit codes and the journal check. *)
let prepare_main ~smoke ~seed w ~dir =
  let input = w.generate ~smoke (Random.State.make [| seed |]) in
  let checked =
    Array.mapi
      (fun i src ->
        let path = source_file dir i "cif" in
        write_file path src;
        let e, violations = Inputs.reference ~uri:path src in
        write_file (source_file dir i "txt") e.Inputs.report;
        write_file (source_file dir i "sarif") e.Inputs.sarif;
        (e.Inputs.exit_code, violations))
      input.sources
  in
  let journal =
    match input.truths with
    | [] -> J.Null
    | truths -> (
      match Inputs.classify truths (snd checked.(0)) with
      | Ok flagged -> num (float_of_int flagged)
      | Error e -> J.Str e)
  in
  print_endline
    (J.to_string
       (J.Obj
          [ ( "exits",
              J.Arr (Array.to_list (Array.map (fun (c, _) -> num (float_of_int c)) checked)) );
            ("journal", journal) ]))

type prepared = {
  dir : string;
  paths : string array;  (** the sources, as dicheck and requests name them *)
  expected : Inputs.expected array;
}

let prepare cfg w tally =
  let dir = fresh_dir cfg w in
  match
    subcommand "prepare"
      ([ "--workload"; w.name; "--seed"; string_of_int cfg.seed; "--dir"; dir ]
      @ if cfg.smoke then [ "--smoke" ] else [])
  with
  | Error e -> failwith e
  | Ok j ->
    (match J.member "journal" j with
    | Some (J.Num n) ->
      log "%s: %.0f journaled defect(s) flagged" w.name n;
      count tally (Ok ())
    | Some (J.Str e) -> count tally (Error e)
    | _ -> ());
    let exits =
      List.filter_map J.int (Option.value ~default:[] (Option.bind (J.member "exits" j) J.arr))
    in
    { dir;
      paths = Array.of_list (List.mapi (fun i _ -> source_file dir i "cif") exits);
      expected =
        Array.of_list
          (List.mapi
             (fun i exit_code ->
               { Inputs.report = read_file (source_file dir i "txt");
                 sarif = read_file (source_file dir i "sarif");
                 exit_code })
             exits) }

(* ------------------------------------------------------------------ *)
(* Checking outputs                                                    *)

let ( let* ) = Result.bind

let check_oneshot ~dir (e : Inputs.expected) (r : Proc.oneshot) =
  if r.Proc.exit_code <> e.Inputs.exit_code then
    Error (Printf.sprintf "dicheck exited %d, expected %d" r.Proc.exit_code e.Inputs.exit_code)
  else if Float.is_nan r.Proc.setup_s then Error "dicheck printed no elaborate progress line"
  else
    let* () =
      S.identical ~what:"report" ~expected:e.Inputs.report
        (read_file (Filename.concat dir "out.txt"))
    in
    S.identical ~what:"SARIF" ~expected:e.Inputs.sarif
      (read_file (Filename.concat dir "out.sarif"))

let check_reply (e : Inputs.expected) line =
  match J.parse line with
  | Error msg -> Error ("unparseable reply: " ^ msg)
  | Ok j -> (
    let field k f = Option.bind (J.member k j) f in
    match field "status" J.str with
    | Some "ok" ->
      if field "exit" J.int <> Some e.Inputs.exit_code then Error "reply exit status differs"
      else (
        match field "report" J.str with
        | Some report -> S.identical ~what:"reply report" ~expected:e.Inputs.report report
        | None -> Error "reply without a report")
    | s -> Error ("reply status " ^ Option.value ~default:"missing" s))

(* The kernel's peak RSS of a spawned child includes its parent's peak
   at the moment of the spawn, so a reading is the child's own only if
   it is above this process's. *)
let check_peak_kb peak_kb =
  let own = Proc.own_peak_kb () in
  if peak_kb > own then Ok ()
  else
    Error
      (Printf.sprintf "a peak RSS of %d KiB is not above the benchmark's own %d KiB" peak_kb own)

(* ------------------------------------------------------------------ *)
(* One-shot workloads                                                  *)

let run_oneshot cfg p tally =
  let r =
    Proc.oneshot ~dicheck:cfg.dicheck
      ~args:
        [ p.paths.(0); "--jobs"; "2"; "--progress"; "--sarif"; Filename.concat p.dir "out.sarif" ]
      ~stdout_path:(Filename.concat p.dir "out.txt")
  in
  count tally (check_oneshot ~dir:p.dir p.expected.(0) r);
  r

let oneshot_e2e cfg w =
  let tally = new_tally () in
  let p = prepare cfg w tally in
  (* Warm-up, not timed: pages in the binary and the input file. *)
  ignore (run_oneshot cfg p tally);
  let t_end = Proc.now () +. cfg.seconds in
  let rec loop acc =
    if List.length acc >= min_oneshot cfg && Proc.now () >= t_end then List.rev acc
    else loop (run_oneshot cfg p tally :: acc)
  in
  let runs = loop [] in
  log "%s: %d timed verdicts" w.name (List.length runs);
  let peaks = List.map (fun r -> r.Proc.peak_rss_kb) runs in
  count tally (check_peak_kb (List.fold_left min max_int peaks));
  { r_workload = w.name;
    r_trace = false;
    r_tally = tally;
    r_metrics =
      [ metric "verdict_s" (List.map (fun r -> r.Proc.verdict_s) runs);
        metric "peak_rss_mb" (List.map (fun kb -> float_of_int kb /. 1024.) peaks);
        metric "setup_s" (List.map (fun r -> r.Proc.setup_s) runs) ];
    r_counts = [] }

(* ------------------------------------------------------------------ *)
(* The edit loop                                                       *)

let check_request ~id ~cif = Printf.sprintf {|{"id":%s,"cif":%s}|} (J.quote id) cif
let path_request ~id ~path = Printf.sprintf {|{"id":%s,"path":%s}|} (J.quote id) (J.quote path)

(* A closed-loop client on its own connection and domain: the next
   request goes out only when the previous reply is in.  [next n]
   gives the n-th request line and the judge of its reply.  Stops once
   [min] requests are done and [deadline] has passed, or at [max]. *)
let spawn_client d ~next ~min ~max ~deadline =
  Domain.spawn (fun () ->
      let c = Proc.connect d in
      Fun.protect ~finally:(fun () -> Proc.close c) (fun () ->
          let rec go n lats verdicts =
            if n >= max || (n >= min && Proc.now () >= deadline) then
              (List.rev lats, List.rev verdicts)
            else begin
              let line, judge = next n in
              let t0 = Proc.now () in
              let reply = Proc.round_trip c line in
              let lat = Proc.now () -. t0 in
              go (n + 1) (lat :: lats) (judge reply :: verdicts)
            end
          in
          go 0 [] []))

(* Join [clients], count their verdicts, return the pooled latencies. *)
let run_clients tally clients =
  List.concat_map
    (fun dom ->
      let lats, verdicts = Domain.join dom in
      List.iter (count tally) verdicts;
      lats)
    clients

let health_ok line =
  match J.parse line with
  | Ok j when Option.bind (J.member "health" j) J.str = Some "ok" -> Ok ()
  | _ -> Error ("bad health reply: " ^ line)

(* The requests of one edit-loop client: variants drawn from its own
   seeded sequence. *)
let edit_requests cfg ~client ~quoted ~expected =
  let rng = Random.State.make [| cfg.seed; client |] in
  fun n ->
    let v = Random.State.int rng (Array.length quoted) in
    ( check_request ~id:(Printf.sprintf "c%d-%d" client n) ~cif:quoted.(v),
      check_reply expected.(v) )

let quoted_sources p = Array.map (fun path -> J.quote (read_file path)) p.paths

let edit_loop_e2e cfg w =
  let tally = new_tally () in
  let p = prepare cfg w tally in
  let quoted = quoted_sources p and expected = p.expected in
  (* Set-up as an editor pays it: spawn, health, one cold check — nine
     times, on fresh caches, as one launch varies by tens of percent;
     the last daemon stays up for the loop. *)
  let launches = 9 in
  let launch k =
    let t0 = Proc.now () in
    let d, c =
      Proc.start_daemon ~dicheck:cfg.dicheck
        ~sock:(Filename.concat p.dir (Printf.sprintf "d%d.sock" k))
        ~cache:(Filename.concat p.dir (Printf.sprintf "cache%d" k))
        ~log:(Filename.concat p.dir (Printf.sprintf "daemon%d.log" k))
    in
    count tally (health_ok (Proc.round_trip c {|{"id":"h","admin":"health"}|}));
    count tally
      (check_reply expected.(0) (Proc.round_trip c (check_request ~id:"prime" ~cif:quoted.(0))));
    let setup = Proc.now () -. t0 in
    Proc.close c;
    if k < launches - 1 then ignore (Proc.stop_daemon d);
    (d, setup)
  in
  let setups = List.init launches launch in
  let d, _ = List.nth setups (launches - 1) in
  (* Warm both workers on every variant before timing. *)
  let nvariants = Array.length quoted in
  ignore
    (run_clients tally
       (List.init 2 (fun client ->
            spawn_client d
              ~next:(fun n ->
                let v = (n + client) mod nvariants in
                (check_request ~id:(Printf.sprintf "w%d-%d" client n) ~cif:quoted.(v),
                 check_reply expected.(v)))
              ~min:nvariants ~max:nvariants ~deadline:0.)));
  let deadline = Proc.now () +. cfg.seconds in
  let lats =
    run_clients tally
      (List.init 2 (fun client ->
           spawn_client d
             ~next:(edit_requests cfg ~client ~quoted ~expected)
             ~min:(if cfg.smoke then 10 else 5)
             ~max:(if cfg.smoke then 10 else max_int)
             ~deadline))
  in
  let code, peak_kb = Proc.stop_daemon d in
  count tally (if code = 0 then Ok () else Error (Printf.sprintf "daemon exited %d" code));
  count tally (check_peak_kb peak_kb);
  log "%s: %d timed requests" w.name (List.length lats);
  { r_workload = w.name;
    r_trace = false;
    r_tally = tally;
    r_metrics =
      [ metric "verdict_s" lats;
        metric "peak_rss_mb" [ float_of_int peak_kb /. 1024. ];
        metric "setup_s" (List.map snd setups) ];
    r_counts = [] }

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)

let obj_floats j =
  match j with
  | Some (J.Obj kvs) -> List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (J.num v)) kvs
  | _ -> []

(* One traced pass in a fresh process, so every pass starts from the
   same heap: the [layers] subcommand below. *)
let run_pass ~dir ~warm ~chrome =
  match subcommand "layers" [ "--dir"; dir; "--warm"; string_of_int warm; "--chrome"; chrome ] with
  | Error e -> Error e
  | Ok j ->
    let failures =
      List.filter_map J.str (Option.value ~default:[] (Option.bind (J.member "failures" j) J.arr))
    in
    Ok
      ( obj_floats (J.member "values" j),
        List.map (fun (k, v) -> (k, int_of_float v)) (obj_floats (J.member "counts" j)),
        failures )

let traced cfg w =
  let tally = new_tally () in
  let p = prepare cfg w tally in
  (* The warm recheck is of the same input, or of another edit variant;
     daemon requests send the input by path, or the edit variants. *)
  let warm, next =
    match w.kind with
    | One_shot ->
      ( 0,
        fun ~client n ->
          ( path_request ~id:(Printf.sprintf "c%d-%d" client n) ~path:p.paths.(0),
            check_reply p.expected.(0) ) )
    | Edit_loop ->
      let quoted = quoted_sources p in
      (1, fun ~client -> edit_requests cfg ~client ~quoted ~expected:p.expected)
  in
  (* The untraced one-shot verdict the layer self times must explain. *)
  let verdicts =
    match w.kind with
    | Edit_loop -> []
    | One_shot ->
      List.init (if cfg.smoke then 1 else 3) (fun _ -> (run_oneshot cfg p tally).Proc.verdict_s)
  in
  let chrome = Filename.concat cfg.out_dir ("trace-" ^ w.name ^ ".json") in
  let t_end = Proc.now () +. cfg.seconds in
  let rec passes attempts acc =
    if attempts >= min_passes cfg && Proc.now () >= t_end then acc
    else
      match run_pass ~dir:p.dir ~warm ~chrome with
      | Ok ((_, _, failures) as pass) ->
        count tally (match failures with [] -> Ok () | e :: _ -> Error e);
        passes (attempts + 1) (pass :: acc)
      | Error e ->
        count tally (Error e);
        passes (attempts + 1) acc
  in
  let passes = passes 0 [] in
  log "%s: %d traced passes" w.name (List.length passes);
  let pass_samples name = List.filter_map (fun (vs, _, _) -> List.assoc_opt name vs) passes in
  (* The daemon's view of the same work: queue wait, service time, and
     what the socket and JSON add, from its own stats. *)
  let d, c =
    Proc.start_daemon ~dicheck:cfg.dicheck ~sock:(Filename.concat p.dir "d.sock")
      ~cache:(Filename.concat p.dir "cache") ~log:(Filename.concat p.dir "daemon.log")
  in
  let prime, judge = next ~client:2 0 in
  count tally (judge (Proc.round_trip c prime));
  let lats =
    run_clients tally
      (List.init 2 (fun client ->
           spawn_client d ~next:(next ~client) ~min:w.daemon_requests ~max:w.daemon_requests
             ~deadline:0.))
  in
  let stats =
    match J.parse (Proc.round_trip c {|{"id":"s","admin":"stats"}|}) with
    | Ok j -> Option.value ~default:J.Null (J.member "stats" j)
    | Error _ -> J.Null
  in
  count tally (if stats = J.Null then Error "no stats reply" else Ok ());
  Proc.close c;
  let code, _ = Proc.stop_daemon d in
  count tally (if code = 0 then Ok () else Error (Printf.sprintf "daemon exited %d" code));
  let client_p50 = S.median lats in
  let service_p50 = num_field stats [ "service_ms"; "p50" ] in
  let unaccounted =
    match w.kind with
    | One_shot -> S.median verdicts -. S.median (pass_samples "layer_self_s")
    | Edit_loop -> client_p50 -. S.median (pass_samples "engine.check_warm_s")
  in
  let layer_metrics =
    List.filter_map
      (fun (name, _, _) ->
        match pass_samples name with [] -> None | xs -> Some (metric name xs))
      per_layer
  in
  { r_workload = w.name;
    r_trace = true;
    r_tally = tally;
    r_metrics =
      layer_metrics
      @ [ metric "trace.unaccounted_s" [ unaccounted ];
          metric "serve.wait_p50_ms" [ num_field stats [ "wait_ms"; "p50" ] ];
          metric "serve.service_p50_ms" [ service_p50 ];
          metric "serve.overhead_ms" [ (client_p50 *. 1e3) -. service_p50 ];
          metric "engine.cache_hit_ratio" [ num_field stats [ "cache"; "hit_ratio" ] ] ];
    r_counts = (match passes with (_, counts, _) :: _ -> counts | [] -> []) }

(* The [layers] subcommand: one traced pass over source 0 of a prepared
   directory, with source [warm] as the warm recheck, reported as one
   JSON line. *)
let layers_main ~dir ~warm ~chrome =
  let p =
    Layers.run ~src:(read_file (source_file dir 0 "cif")) ~uri:(source_file dir 0 "cif")
      ~expected_report:(read_file (source_file dir 0 "txt"))
      ~expected_sarif:(read_file (source_file dir 0 "sarif"))
      ~warm_src:(read_file (source_file dir warm "cif"))
      ~warm_expected_report:(read_file (source_file dir warm "txt"))
  in
  write_file chrome p.Layers.chrome;
  print_endline
    (J.to_string
       (J.Obj
          [ ( "values",
              J.Obj
                (List.map (fun (k, v) -> (k, num v))
                   (("layer_self_s", p.Layers.layer_self_s) :: p.Layers.values)) );
            ("counts", J.Obj (List.map (fun (k, v) -> (k, num (float_of_int v))) p.Layers.counts));
            ("failures", J.Arr (List.map (fun e -> J.Str e) p.Layers.failures)) ]))

(* ------------------------------------------------------------------ *)
(* One run                                                             *)

let run_one cfg w ~trace =
  let r =
    match (trace, w.kind) with
    | true, _ -> traced cfg w
    | false, One_shot -> oneshot_e2e cfg w
    | false, Edit_loop -> edit_loop_e2e cfg w
  in
  let path = record_path cfg ~workload:w.name ~trace in
  mkdir_p (Filename.dirname path);
  write_file path (J.to_string (record_json cfg r) ^ "\n");
  print_endline (J.to_string (result_line r))

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)

type declared = {
  d_workloads : string list;
  d_run_seconds : float;
  d_end_to_end : (string * string * string * float) list;  (** name, unit, better, bound *)
  d_per_layer : (string * string * string) list;
}

let load_benchmark path =
  let j =
    match J.parse (read_file path) with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let list k = Option.value ~default:[] (Option.bind (J.member k j) J.arr) in
  let s k o = Option.value ~default:"" (Option.bind (J.member k o) J.str) in
  let f k o = Option.value ~default:nan (Option.bind (J.member k o) J.num) in
  { d_workloads = List.map (s "name") (list "workloads");
    d_run_seconds = f "run_seconds" j;
    d_end_to_end =
      List.map (fun o -> (s "name" o, s "unit" o, s "better" o, f "bound" o)) (list "end_to_end");
    d_per_layer = List.map (fun o -> (s "name" o, s "unit" o, s "better" o)) (list "per_layer") }

let string_of_better = function S.Lower -> "lower" | S.Higher -> "higher"

(* The metrics and workloads this program measures must be the ones
   BENCHMARK.json declares, name for name. *)
let declaration_errors d =
  let names_units table = List.map (fun (n, u, b) -> (n, u, string_of_better b)) table in
  List.filter_map Fun.id
    [ (if d.d_workloads <> List.map (fun w -> w.name) workloads then
         Some "BENCHMARK.json workloads differ from the suite's"
       else None);
      (if List.map (fun (n, u, b, _) -> (n, u, b)) d.d_end_to_end <> names_units end_to_end then
         Some "BENCHMARK.json end_to_end metrics differ from the suite's"
       else None);
      (if d.d_per_layer <> names_units per_layer then
         Some "BENCHMARK.json per_layer metrics differ from the suite's"
       else None) ]

(* The result line's schema: exactly the contract's keys, and exactly
   the declared metrics with their units. *)
let line_errors ~trace line =
  match J.parse line with
  | Error e -> [ "result line is not JSON: " ^ e ]
  | Ok (J.Obj kvs as j) ->
    let keys = List.map fst kvs in
    let metrics = match J.member "metrics" j with Some (J.Obj ms) -> ms | _ -> [] in
    List.filter_map Fun.id
      [ (if keys <> [ "correct"; "attempted"; "failed"; "metrics" ] then
           Some "result line keys differ from the contract"
         else None);
        (match Option.bind (J.member "attempted" j) J.int with
        | Some n when n >= 1 -> None
        | _ -> Some "attempted is not a positive whole number");
        (let shape (n, m) =
           ( n,
             Option.bind (J.member "unit" m) J.str,
             Option.is_some (Option.bind (J.member "value" m) J.num) )
         in
         if List.map shape metrics <> List.map (fun (n, u, _) -> (n, Some u, true)) (table_of trace)
         then Some "result line metrics differ from the declared ones"
         else None) ]
  | Ok _ -> [ "result line is not an object" ]

(* ------------------------------------------------------------------ *)
(* suite                                                               *)

let host_json () =
  let cpu =
    try
      In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
          let rec find () =
            match In_channel.input_line ic with
            | None -> "unknown"
            | Some l when String.length l > 10 && String.sub l 0 10 = "model name" -> (
              match String.index_opt l ':' with
              | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
              | None -> "unknown")
            | Some _ -> find ()
          in
          find ())
    with Sys_error _ -> "unknown"
  in
  J.Obj
    [ ("hardware_threads", num (float_of_int (Domain.recommended_domain_count ())));
      ("cpu", J.Str cpu);
      ("ocaml_version", J.Str Sys.ocaml_version);
      ("os", J.Str Sys.os_type) ]

(* The commit measured, suffixed "-dirty" when the tree has changes. *)
let git_rev () =
  match capture "git" [ "describe"; "--always"; "--dirty"; "--abbrev=40" ] with
  | out, Unix.WEXITED 0 -> String.trim out
  | _ -> "unknown"
  | exception Unix.Unix_error _ -> "unknown"

let print_record_table records =
  Printf.printf "%-22s %-30s %-6s %5s %12s %12s %12s\n" "workload" "metric" "unit" "n" "median"
    "q1" "q3";
  List.iter
    (fun (w, trace, j) ->
      let ms = match J.member "metrics" j with Some (J.Obj ms) -> ms | _ -> [] in
      List.iter
        (fun (name, _, _) ->
          match List.assoc_opt name ms with
          | None -> ()
          | Some m ->
            let g k = Option.value ~default:nan (Option.bind (J.member k m) J.num) in
            Printf.printf "%-22s %-30s %-6s %5.0f %12.6g %12.6g %12.6g\n" w name (unit_of name)
              (g "n") (g "value") (g "q1") (g "q3"))
        (table_of trace))
    records

let suite cfg selected =
  let decl = load_benchmark cfg.benchmark in
  let errors = ref (declaration_errors decl) in
  let records =
    List.concat_map
      (fun w ->
        List.filter_map
          (fun trace ->
            log "%s, %s run" w.name (if trace then "traced" else "end-to-end");
            let record_file = record_path cfg ~workload:w.name ~trace in
            if Sys.file_exists record_file then Sys.remove record_file;
            let out, status =
              capture Sys.executable_name
                ([ "--workload"; w.name; "--seed"; string_of_int cfg.seed; "--seconds";
                   Printf.sprintf "%g" cfg.seconds; "--trace"; (if trace then "1" else "0");
                   "--dicheck"; cfg.dicheck; "--out-dir"; cfg.out_dir ]
                @ if cfg.smoke then [ "--smoke" ] else [])
            in
            let line = last_line out in
            (match status with
            | Unix.WEXITED 0 -> ()
            | _ -> errors := (w.name ^ ": run failed") :: !errors);
            errors := List.map (fun e -> w.name ^ ": " ^ e) (line_errors ~trace line) @ !errors;
            (match J.parse line with
            | Ok j when Option.bind (J.member "correct" j) J.bool = Some true -> ()
            | _ -> errors := (w.name ^ ": incorrect outputs") :: !errors);
            match J.parse (read_file record_file) with
            | Ok j -> Some (w.name, trace, j)
            | Error e | (exception Sys_error e) ->
              errors := (w.name ^ ": no run record: " ^ e) :: !errors;
              None)
          [ false; true ])
      selected
  in
  print_record_table records;
  let doc =
    J.Obj
      [ ("schema", J.Str "benchsuite.suite/1");
        ("seed", num (float_of_int cfg.seed));
        ("seconds", num cfg.seconds);
        ("smoke", J.Bool cfg.smoke);
        ("git", J.Str (git_rev ()));
        ("host", host_json ());
        ("runs", J.Arr (List.map (fun (_, _, j) -> j) records)) ]
  in
  let path = Filename.concat cfg.out_dir "suite.json" in
  write_file path (J.to_string doc ^ "\n");
  Printf.printf "wrote %s\n" path;
  match !errors with
  | [] -> 0
  | es ->
    List.iter (fun e -> log "ERROR %s" e) (List.rev es);
    1

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

let compare_main cfg a b =
  let decl = load_benchmark cfg.benchmark in
  let load path =
    match J.parse (read_file path) with
    | Ok j -> Option.value ~default:[] (Option.bind (J.member "runs" j) J.arr)
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let runs_a = load a and runs_b = load b in
  let end_to_end_run runs name =
    List.find_opt
      (fun r ->
        Option.bind (J.member "workload" r) J.str = Some name
        && Option.bind (J.member "trace" r) J.bool = Some false)
      runs
  in
  let side r metric =
    Option.map
      (fun xs -> S.side_of_samples (List.filter_map J.num xs))
      (Option.bind (field r [ "metrics"; metric; "samples" ]) J.arr)
  in
  Printf.printf "%-22s %-12s %-5s %28s %28s %8s %6s  %s\n" "workload" "metric" "unit"
    "A median [q1, q3]" "B median [q1, q3]" "change" "bound" "verdict";
  let worse = ref 0 in
  List.iter
    (fun w ->
      match (end_to_end_run runs_a w, end_to_end_run runs_b w) with
      | Some ra, Some rb ->
        List.iter
          (fun (name, u, better, bound) ->
            match (side ra name, side rb name, S.better_of_string better) with
            | Some sa, Some sb, Some better ->
              let v = S.verdict ~better ~bound sa sb in
              if v = S.Worse then incr worse;
              let show s = Printf.sprintf "%.4g [%.4g, %.4g]" s.S.median s.S.q1 s.S.q3 in
              Printf.printf "%-22s %-12s %-5s %28s %28s %+7.1f%% %5.0f%%  %s\n" w name u (show sa)
                (show sb)
                (100. *. (sb.S.median -. sa.S.median) /. sa.S.median)
                (100. *. bound) (S.string_of_verdict v)
            | _ -> Printf.printf "%-22s %-12s missing from one record\n" w name)
          decl.d_end_to_end
      | _ -> Printf.printf "%-22s not in both records\n" w)
    decl.d_workloads;
  if !worse > 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage =
  "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
  \       main.exe suite [--seed N] [--workload NAME] [--seconds S] [--smoke]\n\
  \       main.exe compare A.json B.json\n\
   options: --dicheck PATH (default _build/default/bin/dicheck.exe)\n\
  \         --out-dir DIR (default benchsuite/out), --benchmark FILE (default BENCHMARK.json)"

let fail_usage msg =
  prerr_endline ("benchsuite: " ^ msg);
  prerr_endline usage;
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Proc.kill_all;
  let rec parse opts words = function
    | [] -> (opts, List.rev words)
    | "--smoke" :: rest -> parse (("smoke", "1") :: opts) words rest
    | opt :: v :: rest when String.length opt > 2 && String.sub opt 0 2 = "--" ->
      parse ((String.sub opt 2 (String.length opt - 2), v) :: opts) words rest
    | opt :: [] when String.length opt > 2 && String.sub opt 0 2 = "--" ->
      fail_usage ("missing value for " ^ opt)
    | w :: rest -> parse opts (w :: words) rest
  in
  let opts, words = parse [] [] (List.tl (Array.to_list Sys.argv)) in
  let opt k = List.assoc_opt k opts in
  let known =
    [ "smoke"; "workload"; "seed"; "seconds"; "trace"; "dicheck"; "out-dir"; "benchmark"; "dir";
      "warm"; "chrome" ]
  in
  List.iter
    (fun (k, _) -> if not (List.mem k known) then fail_usage ("unknown option --" ^ k))
    opts;
  let int_opt k default =
    match opt k with
    | None -> default
    | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> fail_usage ("--" ^ k ^ " takes a whole number"))
  in
  let benchmark = Option.value ~default:"BENCHMARK.json" (opt "benchmark") in
  let seconds default =
    match opt "seconds" with
    | None -> default ()
    | Some v -> (
      match float_of_string_opt v with
      | Some s when s >= 0. -> s
      | _ -> fail_usage "--seconds takes a non-negative number")
  in
  let smoke = opt "smoke" <> None in
  let cfg seconds =
    { seed = int_opt "seed" 7;
      seconds;
      smoke;
      dicheck = Option.value ~default:"_build/default/bin/dicheck.exe" (opt "dicheck");
      out_dir = Option.value ~default:"benchsuite/out" (opt "out-dir");
      benchmark }
  in
  let workload () =
    match opt "workload" with
    | None -> None
    | Some name -> (
      match List.find_opt (fun w -> w.name = name) workloads with
      | Some w -> Some w
      | None ->
        fail_usage
          (Printf.sprintf "unknown workload %s (known: %s)" name
             (String.concat ", " (List.map (fun w -> w.name) workloads))))
  in
  let code =
    match words with
    | [] -> (
      let trace =
        match opt "trace" with
        | Some "0" -> false
        | Some "1" -> true
        | _ -> fail_usage "--trace must be 0 or 1"
      in
      match workload () with
      | None -> fail_usage "--workload is required"
      | Some w ->
        let cfg = cfg (seconds (fun () -> fail_usage "--seconds is required")) in
        if not (Sys.file_exists cfg.dicheck) then fail_usage (cfg.dicheck ^ " not found");
        run_one cfg w ~trace;
        0)
    | [ "suite" ] ->
      let secs =
        seconds (fun () -> if smoke then 0. else (load_benchmark benchmark).d_run_seconds)
      in
      suite (cfg secs) (match workload () with Some w -> [ w ] | None -> workloads)
    | [ "compare"; a; b ] -> compare_main (cfg 0.) a b
    | [ "prepare" ] -> (
      match (workload (), opt "dir") with
      | Some w, Some dir ->
        prepare_main ~smoke ~seed:(int_opt "seed" 7) w ~dir;
        0
      | _ -> fail_usage "prepare needs --workload and --dir")
    | [ "layers" ] -> (
      match (opt "dir", opt "chrome") with
      | Some dir, Some chrome ->
        layers_main ~dir ~warm:(int_opt "warm" 0) ~chrome;
        0
      | _ -> fail_usage "layers needs --dir and --chrome")
    | _ -> fail_usage "unknown command"
  in
  exit code
