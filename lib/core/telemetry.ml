(* Service-level telemetry for the serve daemon.

   One hub per daemon, shared by the submit path and every worker
   domain, so everything here is mutex-guarded.  Three concerns share
   the hub because they share the same per-request facts:

   - the request ledger and the sliding windows: one count per request
     outcome, and the last [window_capacity] samples of each
     per-request figure, answering {"admin":"stats"};
   - the structured event log: one JSON line per request lifecycle
     transition, written through a caller-supplied sink;
   - per-request Trace buffers, collected for the daemon-level
     --trace file and merged in request order.

   The ledger is the daemon's one book of request outcomes: the live
   snapshot, Serve.stats, the shutdown entry and ack, the overload
   refusal and the offline replay all read it.  The pool keeps only
   what it synchronises on.

   The bar from day one of the metrics work still holds: telemetry
   changes cost and side-channel output only, never report bytes. *)

(* A sliding window: the last [window_capacity] observations in a ring,
   plus the all-time observation count.  Quantiles over the ring are
   exact for the window. *)
let window_capacity = 256

type window = {
  w_data : float array;
  mutable w_len : int;  (* values held, <= window_capacity *)
  mutable w_next : int;  (* next insertion slot *)
  mutable w_count : int;  (* observations ever, incl. evicted *)
}

let window () =
  { w_data = Array.make window_capacity 0.; w_len = 0; w_next = 0; w_count = 0 }

let observe w v =
  w.w_data.(w.w_next) <- v;
  w.w_next <- (w.w_next + 1) mod window_capacity;
  if w.w_len < window_capacity then w.w_len <- w.w_len + 1;
  w.w_count <- w.w_count + 1

(* The held values, oldest first. *)
let held w =
  Array.init w.w_len (fun i ->
      w.w_data.((w.w_next - w.w_len + window_capacity + i) mod window_capacity))

type t = {
  lock : Mutex.t;
  started_ns : int64;
  slow_ms : float option;
  event_sink : (string -> unit) option;
  collect_traces : bool;
  seq : int Atomic.t;
  (* The request ledger, kept by [apply]. *)
  mutable n_accepted : int;
  mutable n_served : int;  (* one per [finished] event *)
  mutable n_cancelled : int;
  mutable n_overloaded : int;
  mutable n_rejected : int;
  mutable symbols_total : int;  (* served checks' definition reuse *)
  mutable symbols_reused : int;
  wait_ms : window;
  service_ms : window;
  latency_ms : window;
  queue_depth : window;  (* the queue length each accepted request saw *)
  finish_s : window;  (* finish times, for the windowed rps *)
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
    n_accepted = 0;
    n_served = 0;
    n_cancelled = 0;
    n_overloaded = 0;
    n_rejected = 0;
    symbols_total = 0;
    symbols_reused = 0;
    wait_ms = window ();
    service_ms = window ();
    latency_ms = window ();
    queue_depth = window ();
    finish_s = window ();
    busy_ns = [||];
    traces_rev = [] }

let next_request t = 1 + Atomic.fetch_and_add t.seq 1

let collecting_traces t = t.collect_traces

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

let charge_busy t ~worker ~ns =
  if worker >= 0 then begin
    if worker >= Array.length t.busy_ns then begin
      let grown = Array.make (worker + 1) 0L in
      Array.blit t.busy_ns 0 grown 0 (Array.length t.busy_ns);
      t.busy_ns <- grown
    end;
    t.busy_ns.(worker) <- Int64.add t.busy_ns.(worker) (max 0L ns)
  end

(* The one event -> ledger reduction, read from a request event's kind
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
    t.n_accepted <- t.n_accepted + 1;
    Option.iter (fun q -> observe t.queue_depth (float_of_int q)) (field "queued" Json.int)
  | "started" -> Option.iter (observe t.wait_ms) (field "wait_ms" Json.num)
  | "finished" ->
    t.n_served <- t.n_served + 1;
    Option.iter (observe t.service_ms) (field "service_ms" Json.num);
    Option.iter (observe t.latency_ms) (field "latency_ms" Json.num);
    (match (field "symbols_total" Json.int, field "symbols_reused" Json.int) with
    | Some total, Some reused ->
      t.symbols_total <- t.symbols_total + total;
      t.symbols_reused <- t.symbols_reused + reused
    | _ -> ());
    (* Finish times feed the windowed requests-per-second figure. *)
    Option.iter (observe t.finish_s) finish_s;
    (match (field "worker" Json.int, busy_ns) with
    | Some worker, Some ns -> charge_busy t ~worker ~ns
    | _ -> ())
  | "cancelled" -> t.n_cancelled <- t.n_cancelled + 1
  | "overloaded" -> t.n_overloaded <- t.n_overloaded + 1
  | "rejected" -> t.n_rejected <- t.n_rejected + 1
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

type requests = {
  accepted : int;
  inflight : int;
  served : int;
  cancelled : int;
  overloaded : int;
  rejected : int;
}

(* The ledger's counts, and the one place [inflight] is derived: an
   accepted request that is neither queued nor answered.  Caller holds
   the lock. *)
let requests_of t ~queued =
  { accepted = t.n_accepted;
    inflight = t.n_accepted - t.n_served - t.n_cancelled - queued;
    served = t.n_served;
    cancelled = t.n_cancelled;
    overloaded = t.n_overloaded;
    rejected = t.n_rejected }

let requests t ~queued = locked t (fun () -> requests_of t ~queued)

(* Canonical member order; every member is always present so clients
   (and `dicheck top`) never need existence checks.  Quantiles are
   nearest-rank over the held values, so exact for the window. *)
let window_json w =
  let vs = held w in
  let n = Array.length vs in
  let sorted = Array.copy vs in
  Array.sort compare sorted;
  let quantile q =
    if n = 0 then 0.
    else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
  in
  let mean = if n = 0 then 0. else Array.fold_left ( +. ) 0. vs /. float_of_int n in
  Json.Obj
    [ ("count", num w.w_count); ("len", num n); ("mean", fnum mean);
      ("max", fnum (Array.fold_left Float.max 0. vs));
      ("p50", fnum (quantile 0.5)); ("p95", fnum (quantile 0.95));
      ("p99", fnum (quantile 0.99)) ]

let snapshot t ~queued ~workers ~max_queue =
  locked t (fun () ->
      let up = uptime_s t in
      let r = requests_of t ~queued in
      let rps_lifetime = if up > 0. then float_of_int r.served /. up else 0. in
      let rps_window =
        let vs = held t.finish_s in
        let n = Array.length vs in
        let span = if n >= 2 then vs.(n - 1) -. vs.(0) else 0. in
        if span > 0. then float_of_int (n - 1) /. span else 0.
      in
      let hit_ratio =
        if t.symbols_total > 0 then
          float_of_int t.symbols_reused /. float_of_int t.symbols_total
        else 0.
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
             [ ("accepted", num r.accepted); ("inflight", num r.inflight);
               ("served", num r.served); ("cancelled", num r.cancelled);
               ("overloaded", num r.overloaded); ("rejected", num r.rejected) ]);
          ("rps",
           Json.Obj [ ("lifetime", fnum rps_lifetime); ("window", fnum rps_window) ]);
          ("latency_ms", window_json t.latency_ms);
          ("wait_ms", window_json t.wait_ms);
          ("service_ms", window_json t.service_ms);
          ("queue_depth", window_json t.queue_depth);
          ("cache",
           Json.Obj
             [ ("symbols_total", num t.symbols_total);
               ("symbols_reused", num t.symbols_reused); ("hit_ratio", fnum hit_ratio) ]);
          ("workers_busy", Json.Arr busy) ])

(* ------------------------------------------------------------------ *)
(* Event-log replay                                                    *)

(* Offline post-mortem: walk an event-log file once, each entry first
   through the lifecycle invariants PROTOCOL.md promises (every
   accepted request reaches exactly one terminal entry, accepted before
   terminal, overloaded/rejected never in the accepted population,
   drained means nothing left queued or in flight, the shutdown entry's
   counts are the ledger's) and then through the live hub's [apply],
   and synthesize the stats snapshot the daemon would have answered at
   the last entry.  Used by [dicheck top --event-log FILE] — no socket,
   no daemon, just the log. *)

(* The daemon's cap on its pool (see the .mli): [Serve.create] refuses
   more workers, and replay bounds a log's worker indices by it. *)
let max_workers = 126

type replay_state = Queued | Running | Done

let replay content =
  let exception Bad of string in
  let fail ln fmt = Printf.ksprintf (fun m -> raise (Bad (Printf.sprintf "line %d: %s" ln m))) fmt in
  let t = create () in
  let state : (int, replay_state) Hashtbl.t = Hashtbl.create 64 in
  (* The pool the start entry announced — or, in a rotated log that
     lost it, the largest pool a daemon runs — bounds every entry's
     worker index, since the index sizes the busy-time table.  The
     snapshot's [workers] is the start entry's pool, or more if the log
     saw more. *)
  let pool = ref max_workers and announced = ref 0 and seen = ref 0 in
  let max_queue = ref 0 in
  let drained = ref false in
  let first_ts = ref nan and last_ts = ref nan in
  let entry ln line =
    let j = match Json.parse line with Ok j -> j | Error msg -> fail ln "%s" msg in
    let member name conv = Option.bind (Json.member name j) conv in
    let ts =
      match member "ts_ms" Json.num with
      | Some v -> v
      | None -> fail ln "entry has no \"ts_ms\" member"
    in
    if Float.is_nan !first_ts then first_ts := ts;
    last_ts := ts;
    if !drained then fail ln "entry after the shutdown entry";
    (match member "worker" Json.int with
    | Some w when w < 0 || w >= !pool ->
      fail ln "worker %d is outside the pool of %d worker(s)" w !pool
    | Some w -> seen := max !seen (w + 1)
    | None -> ());
    (* The ledger's reuse counts only grow. *)
    List.iter
      (fun name ->
        match member name Json.int with
        | Some n when n < 0 -> fail ln "%s is %d, below zero" name n
        | _ -> ())
      [ "symbols_total"; "symbols_reused" ];
    let kind =
      match member "event" Json.str with
      | Some k -> k
      | None -> fail ln "entry has no \"event\" member"
    in
    let req () =
      match member "req" Json.int with
      | Some r -> r
      | None -> fail ln "request-scoped entry has no \"req\" member"
    in
    (match kind with
    | "start" ->
      Option.iter
        (fun w ->
          if w > max_workers then
            fail ln "start entry says workers=%d, above the daemon's cap of %d" w
              max_workers;
          announced := w;
          pool := w)
        (member "workers" Json.int);
      Option.iter (fun q -> max_queue := q) (member "max_queue" Json.int)
    | "accepted" ->
      let req = req () in
      if Hashtbl.mem state req then fail ln "request %d accepted twice" req;
      Hashtbl.replace state req Queued
    | "started" -> (
      let req = req () in
      match Hashtbl.find_opt state req with
      | Some Queued -> Hashtbl.replace state req Running
      | Some Running -> fail ln "request %d started twice" req
      | Some Done -> fail ln "request %d started after its terminal entry" req
      | None -> fail ln "request %d started but never accepted" req)
    | "finished" | "cancelled" -> (
      let req = req () in
      match Hashtbl.find_opt state req with
      | Some (Queued | Running) -> Hashtbl.replace state req Done
      | Some Done -> fail ln "request %d has two terminal entries" req
      | None -> fail ln "request %d %s but never accepted" req kind)
    | "overloaded" ->
      let req = req () in
      if Hashtbl.mem state req then
        fail ln "request %d overloaded after being accepted" req
    | "rejected" | "slow" | "shutdown_begin" -> ()
    | "shutdown" ->
      drained := true;
      let check name counted =
        match member name Json.int with
        | Some logged when logged <> counted ->
          fail ln "shutdown says %s=%d but the log replays %d" name logged counted
        | _ -> ()
      in
      check "served" t.n_served;
      check "cancelled" t.n_cancelled;
      check "overloaded" t.n_overloaded
    | k -> fail ln "unknown event kind %S" k);
    let fields = match j with Json.Obj fs -> fs | _ -> [] in
    let busy_ns =
      Option.map (fun ms -> Int64.of_float (ms *. 1e6)) (member "service_ms" Json.num)
    in
    apply t ~finish_s:((ts -. !first_ts) /. 1000.) ?busy_ns kind fields
  in
  try
    List.iteri
      (fun i line ->
        let line = String.trim line in
        if line <> "" then entry (i + 1) line)
      (String.split_on_char '\n' content);
    if Float.is_nan !first_ts then raise (Bad "empty event log");
    let queued = ref 0 in
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
              "drained daemon left request %d in flight: accepted = finished + cancelled is violated" req))
        | Done -> ())
      state;
    (* The hub's epoch backdated by the log's time span, so uptime and
       the rps figures come out of the recorded timeline, not the
       replay's. *)
    let span_ns = Int64.of_float (Float.max 0. (!last_ts -. !first_ts) *. 1e6) in
    let t = { t with started_ns = Int64.sub (Metrics.now_ns ()) span_ns } in
    Ok (snapshot t ~queued:!queued ~workers:(max !announced !seen) ~max_queue:!max_queue)
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
