(* Service-level telemetry for the serve daemon.

   One hub per daemon, shared by the submit path and every worker
   domain, so everything here is mutex-guarded.  Three concerns share
   the hub because they share the same per-request facts:

   - rolling service metrics (a Metrics.t of counters, gauges, and
     sliding windows) answering {"admin":"stats"};
   - the structured event log: one JSON line per request lifecycle
     transition, written through a caller-supplied sink;
   - per-request Trace buffers, collected for the daemon-level
     --trace file and merged in request order.

   The bar from day one of the metrics work still holds: telemetry
   changes cost and side-channel output only, never report bytes. *)

type t = {
  lock : Mutex.t;
  started_ns : int64;
  slow_ms : float option;
  event_sink : (string -> unit) option;
  collect_traces : bool;
  seq : int Atomic.t;
  metrics : Metrics.t;
  mutable busy_ns : int64 array;  (* indexed by worker id *)
  mutable traces_rev : (int * Trace.t) list;
}

let create ?slow_ms ?event_sink ?(collect_traces = false) () =
  { lock = Mutex.create ();
    started_ns = Metrics.now_ns ();
    slow_ms;
    event_sink;
    collect_traces;
    seq = Atomic.make 0;
    metrics = Metrics.create ();
    busy_ns = [||];
    traces_rev = [] }

let next_request t = 1 + Atomic.fetch_and_add t.seq 1

let collecting_traces t = t.collect_traces

let slow_ms t = t.slow_ms

let uptime_s t = Int64.to_float (Int64.sub (Metrics.now_ns ()) t.started_ns) *. 1e-9

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------------------------------------------------ *)
(* Event log                                                           *)

let num n = Json.Num (float_of_int n)
let fnum f = Json.Num f

(* Wall-clock, not monotonic: event-log timestamps are for humans and
   cross-process correlation, never compared for determinism. *)
let wall_ms () = Unix.gettimeofday () *. 1000.

let event t ?req ?(fields = []) kind =
  match t.event_sink with
  | None -> ()
  | Some sink ->
    let rq = match req with Some r -> [ ("req", num r) ] | None -> [] in
    let line =
      Json.to_string
        (Json.Obj
           ((("event", Json.Str kind) :: ("ts_ms", fnum (wall_ms ())) :: rq)
           @ fields))
    in
    (* One line per event, serialized under the hub lock; a throwing
       sink must not take a worker down. *)
    locked t (fun () -> try sink line with _ -> ())

let lifecycle t ?fields kind = event t ?fields kind

(* ------------------------------------------------------------------ *)
(* Request lifecycle                                                   *)

let ms_of_ns ns = Int64.to_float ns /. 1e6

let observe t name v = Metrics.observe_window t.metrics name v

let charge_busy t ~worker ~ns =
  if worker >= 0 then begin
    if worker >= Array.length t.busy_ns then begin
      let grown = Array.make (worker + 1) 0L in
      Array.blit t.busy_ns 0 grown 0 (Array.length t.busy_ns);
      t.busy_ns <- grown
    end;
    t.busy_ns.(worker) <- Int64.add t.busy_ns.(worker) (max 0L ns)
  end

(* The one event -> metrics reduction, read from a request event's kind
   and logged fields.  The live hooks below and [replay] both call it,
   so the two snapshots cannot drift.  Two inputs are not in the fields
   because they differ by construction: a finish time ([finish_s],
   seconds since daemon start — the live uptime, or the log's [ts_ms]
   offset) and busy time ([busy_ns] for the event's worker — the live
   pool charges measured time through [worker_busy] instead, replay
   charges [service_ms]).  Caller holds the lock. *)
let apply t ?finish_s ?busy_ns kind fields =
  let field name conv = Option.bind (List.assoc_opt name fields) conv in
  match kind with
  | "accepted" ->
    Metrics.incr t.metrics "serve.accepted";
    Option.iter (fun q -> observe t "serve.queue_depth" (float_of_int q))
      (field "queued" Json.int)
  | "started" -> Option.iter (observe t "serve.wait_ms") (field "wait_ms" Json.num)
  | "finished" ->
    Option.iter (observe t "serve.service_ms") (field "service_ms" Json.num);
    Option.iter (observe t "serve.latency_ms") (field "latency_ms" Json.num);
    (match (field "symbols_total" Json.int, field "symbols_reused" Json.int) with
    | Some total, Some reused ->
      Metrics.incr ~by:total t.metrics "serve.cache.symbols_total";
      Metrics.incr ~by:reused t.metrics "serve.cache.symbols_reused"
    | _ -> ());
    (* Finish times feed the windowed requests-per-second figure. *)
    Option.iter (observe t "serve.finish_s") finish_s;
    (match (field "worker" Json.int, busy_ns) with
    | Some worker, Some ns -> charge_busy t ~worker ~ns
    | _ -> ())
  | "rejected" -> Metrics.incr t.metrics "serve.rejected"
  | _ -> ()

(* A live request hook: reduce the event's fields, then log them. *)
let request_event t ?req ?finish_s kind fields =
  locked t (fun () -> apply t ?finish_s kind fields);
  event t ?req ~fields kind

let request_accepted t ~req ~id ~queued =
  request_event t ~req "accepted" [ ("id", id); ("queued", num queued) ]

let request_started t ~req ~worker ~wait_ns =
  request_event t ~req "started"
    [ ("worker", num worker); ("wait_ms", fnum (ms_of_ns wait_ns)) ]

let request_finished t ~req ~worker ~status ~exit_code ~errors ~warnings
    ~symbols_total ~symbols_reused ~wait_ns ~service_ns =
  let service_ms = ms_of_ns service_ns in
  let latency_ms = ms_of_ns wait_ns +. service_ms in
  request_event t ~req ~finish_s:(uptime_s t) "finished"
    [ ("worker", num worker); ("status", Json.Str status); ("exit", num exit_code);
      ("errors", num errors); ("warnings", num warnings);
      ("symbols_total", num symbols_total); ("symbols_reused", num symbols_reused);
      ("service_ms", fnum service_ms); ("latency_ms", fnum latency_ms) ];
  match t.slow_ms with
  | Some threshold when latency_ms >= threshold ->
    event t ~req
      ~fields:[ ("latency_ms", fnum latency_ms); ("slow_ms", fnum threshold) ]
      "slow"
  | _ -> ()

let request_cancelled t ~req ?worker () =
  request_event t ~req "cancelled"
    (match worker with Some w -> [ ("worker", num w) ] | None -> [])

let request_overloaded t ~req ~queued =
  request_event t ~req "overloaded" [ ("queued", num queued) ]

let request_rejected t ~error = request_event t "rejected" [ ("error", Json.Str error) ]

let worker_busy t ~worker ~ns = locked t (fun () -> charge_busy t ~worker ~ns)

(* ------------------------------------------------------------------ *)
(* Per-request traces                                                  *)

let add_trace t ~req trace =
  locked t (fun () -> t.traces_rev <- (req, trace) :: t.traces_rev)

let merged_trace t =
  let entries = locked t (fun () -> List.rev t.traces_rev) in
  (* Workers finish in racy order; request ids give the merge a
     deterministic event sequence (lanes still carry the worker tid). *)
  let entries = List.stable_sort (fun (a, _) (b, _) -> compare a b) entries in
  let into = Trace.create () in
  List.iter (fun (_, tr) -> Trace.merge_into ~into tr) entries;
  into

(* ------------------------------------------------------------------ *)
(* Stats snapshot                                                      *)

(* Canonical member order; every member is always present so clients
   (and `dicheck top`) never need existence checks. *)
let window_json t name =
  match Metrics.window t.metrics name with
  | None ->
    Json.Obj
      [ ("count", num 0); ("len", num 0); ("mean", fnum 0.); ("max", fnum 0.);
        ("p50", fnum 0.); ("p95", fnum 0.); ("p99", fnum 0.) ]
  | Some s ->
    let n = Array.length s.Metrics.w_values in
    let mean =
      if n = 0 then 0.
      else Array.fold_left ( +. ) 0. s.Metrics.w_values /. float_of_int n
    in
    Json.Obj
      [ ("count", num s.Metrics.w_count); ("len", num n); ("mean", fnum mean);
        ("max", fnum (Array.fold_left Float.max 0. s.Metrics.w_values));
        ("p50", fnum (Metrics.window_quantile s 0.5));
        ("p95", fnum (Metrics.window_quantile s 0.95));
        ("p99", fnum (Metrics.window_quantile s 0.99)) ]

let snapshot t ~queued ~inflight ~served ~cancelled ~overloaded ~workers ~max_queue =
  locked t (fun () ->
      let up = uptime_s t in
      let counter name = Metrics.counter t.metrics name in
      let rps_lifetime = if up > 0. then float_of_int served /. up else 0. in
      let rps_window =
        match Metrics.window t.metrics "serve.finish_s" with
        | Some s when Array.length s.Metrics.w_values >= 2 ->
          let vs = s.Metrics.w_values in
          let n = Array.length vs in
          let span = vs.(n - 1) -. vs.(0) in
          if span > 0. then float_of_int (n - 1) /. span else 0.
        | _ -> 0.
      in
      let total = counter "serve.cache.symbols_total" in
      let reused = counter "serve.cache.symbols_reused" in
      let hit_ratio =
        if total > 0 then float_of_int reused /. float_of_int total else 0.
      in
      let busy =
        List.init (max workers (Array.length t.busy_ns)) (fun w ->
            let ns = if w < Array.length t.busy_ns then t.busy_ns.(w) else 0L in
            let f = if up > 0. then Int64.to_float ns *. 1e-9 /. up else 0. in
            fnum (Float.min 1. f))
      in
      Json.Obj
        [ ("uptime_s", fnum up);
          ("workers", num workers);
          ("queue", Json.Obj [ ("depth", num queued); ("max", num max_queue) ]);
          ("requests",
           Json.Obj
             [ ("accepted", num (counter "serve.accepted"));
               ("inflight", num inflight); ("served", num served);
               ("cancelled", num cancelled); ("overloaded", num overloaded);
               ("rejected", num (counter "serve.rejected")) ]);
          ("rps",
           Json.Obj [ ("lifetime", fnum rps_lifetime); ("window", fnum rps_window) ]);
          ("latency_ms", window_json t "serve.latency_ms");
          ("wait_ms", window_json t "serve.wait_ms");
          ("service_ms", window_json t "serve.service_ms");
          ("queue_depth", window_json t "serve.queue_depth");
          ("cache",
           Json.Obj
             [ ("symbols_total", num total); ("symbols_reused", num reused);
               ("hit_ratio", fnum hit_ratio) ]);
          ("workers_busy", Json.Arr busy) ])

(* ------------------------------------------------------------------ *)
(* Event-log replay                                                    *)

(* Offline post-mortem: re-run an event-log file through the same
   accounting the live hub does, enforce the lifecycle invariants
   PROTOCOL.md promises (every accepted request reaches exactly one
   terminal entry, accepted before terminal, overloaded/rejected never
   in the accepted population, drained means nothing left in flight),
   and synthesize the stats snapshot the daemon would have answered at
   the last entry.  Used by [dicheck top --event-log FILE] — no socket,
   no daemon, just the log. *)

(* The daemon's cap on its pool (see the .mli): [Serve.create] refuses
   more workers, and replay bounds a log's worker indices by it. *)
let max_workers = 126

type replay_state = Queued | Running | Done

let replay content =
  let lines =
    String.split_on_char '\n' content
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  let exception Bad of string in
  let fail ln fmt = Printf.ksprintf (fun m -> raise (Bad (Printf.sprintf "line %d: %s" ln m))) fmt in
  try
    let events =
      List.map
        (fun (ln, l) ->
          match Json.parse l with
          | Ok j -> (ln, j)
          | Error msg -> fail ln "%s" msg)
        lines
    in
    if events = [] then raise (Bad "empty event log");
    let kind_of ln j =
      match Option.bind (Json.member "event" j) Json.str with
      | Some k -> k
      | None -> fail ln "entry has no \"event\" member"
    in
    let ts_of ln j =
      match Option.bind (Json.member "ts_ms" j) Json.num with
      | Some v -> v
      | None -> fail ln "entry has no \"ts_ms\" member"
    in
    let req_of ln j =
      match Option.bind (Json.member "req" j) Json.int with
      | Some r -> r
      | None -> fail ln "request-scoped entry has no \"req\" member"
    in
    let fnum_of j name = Option.bind (Json.member name j) Json.num in
    let inum_of j name = Option.bind (Json.member name j) Json.int in
    (* Pass 1: lifecycle reconciliation. *)
    let state : (int, replay_state) Hashtbl.t = Hashtbl.create 64 in
    let accepted = ref 0 and finished = ref 0 and cancelled = ref 0 in
    let overloaded = ref 0 and rejected = ref 0 in
    let workers = ref 0 and max_queue = ref 0 in
    (* Worker indices index the busy-time table: each must name a worker
       of the pool the start entry announced — or, in a rotated log
       that lost it, of the largest pool a daemon runs. *)
    let pool = ref max_workers in
    let check_worker ln j =
      match inum_of j "worker" with
      | Some w when w < 0 || w >= !pool ->
        fail ln "worker %d is outside the pool of %d worker(s)" w !pool
      | _ -> ()
    in
    let drained = ref false in
    let first_ts = ref nan and last_ts = ref nan in
    List.iter
      (fun (ln, j) ->
        let ts = ts_of ln j in
        if Float.is_nan !first_ts then first_ts := ts;
        last_ts := ts;
        if !drained then fail ln "entry after the shutdown entry";
        check_worker ln j;
        match kind_of ln j with
        | "start" ->
          Option.iter
            (fun w ->
              if w > max_workers then
                fail ln "start entry says workers=%d, above the daemon's cap of %d" w
                  max_workers;
              workers := w;
              pool := w)
            (inum_of j "workers");
          Option.iter (fun q -> max_queue := q) (inum_of j "max_queue")
        | "accepted" ->
          let req = req_of ln j in
          if Hashtbl.mem state req then fail ln "request %d accepted twice" req;
          Hashtbl.replace state req Queued;
          incr accepted
        | "started" -> (
          let req = req_of ln j in
          match Hashtbl.find_opt state req with
          | Some Queued -> Hashtbl.replace state req Running
          | Some Running -> fail ln "request %d started twice" req
          | Some Done -> fail ln "request %d started after its terminal entry" req
          | None -> fail ln "request %d started but never accepted" req)
        | ("finished" | "cancelled") as kind -> (
          let req = req_of ln j in
          match Hashtbl.find_opt state req with
          | Some (Queued | Running) ->
            Hashtbl.replace state req Done;
            if kind = "finished" then incr finished else incr cancelled
          | Some Done -> fail ln "request %d has two terminal entries" req
          | None -> fail ln "request %d %s but never accepted" req kind)
        | "overloaded" ->
          let req = req_of ln j in
          if Hashtbl.mem state req then
            fail ln "request %d overloaded after being accepted" req;
          incr overloaded
        | "rejected" -> incr rejected
        | "slow" | "shutdown_begin" -> ()
        | "shutdown" ->
          drained := true;
          let check name counted =
            match inum_of j name with
            | Some logged when logged <> counted ->
              fail ln "shutdown says %s=%d but the log replays %d" name logged
                counted
            | _ -> ()
          in
          check "served" !finished;
          check "cancelled" !cancelled;
          check "overloaded" !overloaded
        | k -> fail ln "unknown event kind %S" k)
      events;
    let queued = ref 0 and inflight = ref 0 in
    Hashtbl.iter
      (fun req st ->
        match st with
        | Queued ->
          if !drained then
            raise (Bad (Printf.sprintf
              "drained daemon left request %d in the queue: accepted = finished + cancelled is violated" req));
          incr queued
        | Running ->
          if !drained then
            raise (Bad (Printf.sprintf
              "drained daemon left request %d in flight: accepted = finished + cancelled is violated" req));
          incr inflight
        | Done -> ())
      state;
    (* Pass 2: the live hub's reduction over the logged fields, with
       the hub's epoch backdated by the log's time span so uptime and
       the rps figures come out of the recorded timeline, not the
       replay's. *)
    let span_ns = Int64.of_float (Float.max 0. (!last_ts -. !first_ts) *. 1e6) in
    let base = create () in
    let t = { base with started_ns = Int64.sub base.started_ns span_ns } in
    List.iter
      (fun (ln, j) ->
        let fields = match j with Json.Obj fs -> fs | _ -> [] in
        let finish_s = (ts_of ln j -. !first_ts) /. 1000. in
        let busy_ns =
          Option.map (fun ms -> Int64.of_float (ms *. 1e6)) (fnum_of j "service_ms")
        in
        apply t ~finish_s ?busy_ns (kind_of ln j) fields)
      events;
    let workers =
      (* A truncated log may lack the start entry; the serving workers
         seen in the log bound the pool from below. *)
      List.fold_left
        (fun acc (_, j) ->
          match inum_of j "worker" with Some w -> max acc (w + 1) | None -> acc)
        !workers events
    in
    Ok
      (snapshot t ~queued:!queued ~inflight:!inflight ~served:!finished
         ~cancelled:!cancelled ~overloaded:!overloaded ~workers
         ~max_queue:!max_queue)
  with Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)

(* A pure rendering of the snapshot above: same figures, flat
   [dicheck_*] families, so a scraper and a JSON client can never
   disagree.  Numbers print via %.12g — integral values come out
   without a decimal point, which keeps the output stable and easy to
   diff in tests. *)
let prometheus snap =
  let buf = Buffer.create 2048 in
  let pnum v = Printf.sprintf "%.12g" v in
  let get path =
    List.fold_left (fun acc name -> Option.bind acc (Json.member name)) (Some snap) path
  in
  let getf path = match Option.bind (get path) Json.num with Some v -> v | None -> 0. in
  let header name kind help =
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n# TYPE %s %s\n" name help name kind)
  in
  let line ?(labels = []) name v =
    let l =
      match labels with
      | [] -> ""
      | ls ->
        "{"
        ^ String.concat "," (List.map (fun (k, s) -> Printf.sprintf "%s=%S" k s) ls)
        ^ "}"
    in
    Buffer.add_string buf (Printf.sprintf "%s%s %s\n" name l (pnum v))
  in
  let simple name kind help path =
    header name kind help;
    line name (getf path)
  in
  simple "dicheck_uptime_seconds" "gauge" "Daemon uptime." [ "uptime_s" ];
  simple "dicheck_workers" "gauge" "Worker domains." [ "workers" ];
  simple "dicheck_queue_depth" "gauge" "Requests queued." [ "queue"; "depth" ];
  simple "dicheck_queue_max" "gauge" "Queue capacity." [ "queue"; "max" ];
  header "dicheck_requests_total" "counter" "Requests by final state.";
  List.iter
    (fun state ->
      line ~labels:[ ("state", state) ] "dicheck_requests_total"
        (getf [ "requests"; state ]))
    [ "accepted"; "served"; "cancelled"; "overloaded"; "rejected" ];
  simple "dicheck_requests_inflight" "gauge" "Requests being checked."
    [ "requests"; "inflight" ];
  header "dicheck_requests_per_second" "gauge" "Throughput (lifetime and recent window).";
  line ~labels:[ ("window", "lifetime") ] "dicheck_requests_per_second"
    (getf [ "rps"; "lifetime" ]);
  line ~labels:[ ("window", "recent") ] "dicheck_requests_per_second"
    (getf [ "rps"; "window" ]);
  (* The [queue_depth] window gets a family of its own: the text
     format allows one TYPE line per family, and [dicheck_queue_depth]
     is the current queue length above. *)
  List.iter
    (fun (member, family, unit_help) ->
      let name = "dicheck_" ^ family in
      header name "summary" unit_help;
      List.iter
        (fun (q, key) -> line ~labels:[ ("quantile", q) ] name (getf [ member; key ]))
        [ ("0.5", "p50"); ("0.95", "p95"); ("0.99", "p99") ];
      line (name ^ "_count") (getf [ member; "count" ]);
      header (name ^ "_mean") "gauge" (unit_help ^ " (window mean)");
      line (name ^ "_mean") (getf [ member; "mean" ]);
      header (name ^ "_max") "gauge" (unit_help ^ " (window max)");
      line (name ^ "_max") (getf [ member; "max" ]))
    [ ("latency_ms", "latency_ms", "Enqueue-to-reply latency, ms.");
      ("wait_ms", "wait_ms", "Queue wait, ms.");
      ("service_ms", "service_ms", "Check service time, ms.");
      ("queue_depth", "queue_depth_seen", "Queue depth seen by each accepted request.") ];
  simple "dicheck_cache_symbols_total" "counter" "Definitions resolved."
    [ "cache"; "symbols_total" ];
  simple "dicheck_cache_symbols_reused" "counter" "Definitions replayed from cache."
    [ "cache"; "symbols_reused" ];
  simple "dicheck_cache_hit_ratio" "gauge" "Definition cache hit ratio."
    [ "cache"; "hit_ratio" ];
  header "dicheck_worker_busy_ratio" "gauge" "Fraction of uptime each worker spent busy.";
  (match Option.bind (get [ "workers_busy" ]) Json.arr with
  | Some vs ->
    List.iteri
      (fun w v ->
        line ~labels:[ ("worker", string_of_int w) ] "dicheck_worker_busy_ratio"
          (Option.value ~default:0. (Json.num v)))
      vs
  | None -> ());
  Buffer.contents buf
