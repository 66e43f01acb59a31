(* The [dicheck serve] daemon.  Wire protocol: docs/PROTOCOL.md.

   Shape: any number of connection readers feed one bounded job queue;
   [s_workers] worker domains drain it.  The daemon holds one immutable
   Engine.t, built at start-up; each request derives its own engine
   from it.  With --cache they all share that engine's one Cache
   handle, so per-definition results one worker stores warm the others
   through the handle's table, and the next daemon through disk.

   [process] builds every check reply, with or without "decks": the
   verdict figures are computed once into the [outcome] the worker also
   reports to telemetry (exit by Engine.exit_code, lint tallies from
   each deck's Engine.dr_lint), and only the members between them and
   "report" depend on the request's shape.

   Request outcomes are counted in one place, the Telemetry ledger;
   the pool keeps only what it synchronises on: the queue, the drain
   barrier and the tickets. *)

type conn = {
  c_serial : int;  (* cancellation scope: (serial, id) keys p_latest *)
  c_reply : string -> unit;  (* serialized; never raises *)
  c_lock : Mutex.t;
  c_done : Condition.t;
  mutable c_outstanding : int;  (* jobs enqueued, reply not yet delivered *)
}

type job = {
  j_conn : conn;
  j_req : Json.t;
  j_id : Json.t;
  j_key : (int * string) option;  (* None when the request has no id *)
  j_ticket : int;
  j_seq : int;  (* telemetry request id, echoed as the reply's "req" *)
  j_enq_ns : int64;  (* monotonic enqueue time, for the queued span *)
}

type pool = {
  p_lock : Mutex.t;
  p_work : Condition.t;  (* queue became non-empty / stop *)
  p_done : Condition.t;  (* a job finished / queue drained *)
  p_queue : job Queue.t;
  p_stop : bool Atomic.t;
  (* (conn serial, canonical id) -> newest ticket for that id.  A job
     whose ticket is older than the table's is superseded. *)
  p_latest : (int * string, int) Hashtbl.t;
  mutable p_ticket : int;
  (* Popped jobs whose reply is not yet written: the barrier [drain]
     waits on.  Never reported; the ledger derives [inflight]. *)
  mutable p_inflight : int;
  mutable p_workers : unit Domain.t list;
}

type t = {
  s_engine : Engine.t;  (* the daemon's rules, config and cache handle *)
  s_workers : int;
  s_max_queue : int;
  s_lock : Mutex.t;  (* guards pool creation *)
  mutable s_pool : pool option;
  s_stop_req : bool Atomic.t;
  s_conn_seq : int Atomic.t;
  s_telemetry : Telemetry.t;
}

let max_workers = Telemetry.max_workers

let create ?(config = Engine.default_config) ?cache_dir ?(workers = 0)
    ?(max_queue = 64) ?telemetry rules =
  if workers > max_workers then
    invalid_arg
      (Printf.sprintf
         "at most %d worker domains: the runtime allows 128 live domains, and \
          the main domain and a connection reader need two"
         max_workers);
  (* An unusable cache directory fails here, at start-up, rather than
     in every request. *)
  { s_engine = Engine.create ~config ?cache_dir rules;
    s_workers =
      (if workers <= 0 then min max_workers (Domain.recommended_domain_count ())
       else workers);
    s_max_queue = max max_queue 1;
    s_lock = Mutex.create ();
    s_pool = None;
    s_stop_req = Atomic.make false;
    s_conn_seq = Atomic.make 0;
    s_telemetry =
      (match telemetry with Some tel -> tel | None -> Telemetry.create ()) }

let worker_count t = t.s_workers

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)

let jnum n = Json.Num (float_of_int n)

(* The reply's "req" member: the daemon-assigned request id that also
   keys the event log and the request's trace spans. *)
let req_field = function Some seq -> [ ("req", jnum seq) ] | None -> []

let refuse ?(status = "error") ?(extra = []) id msg =
  Json.to_string
    (Json.Obj
       ([ ("id", id); ("ok", Json.Bool false); ("status", Json.Str status);
          ("error", Json.Str msg) ]
       @ extra
       @ [ ("exit", Json.Num 2.) ]))

let cancelled_reply ?req id =
  refuse ~status:"cancelled" ~extra:(req_field req) id
    "superseded by a newer request with the same id"

(* Embed an already-rendered JSON document as a subobject of the reply.
   Both emitters are canonical, so the parse cannot fail in practice;
   if it ever does, ship the text as a string rather than lose it. *)
let embed rendered =
  match Json.parse rendered with Ok v -> v | Error _ -> Json.Str rendered

let read_file path =
  try Ok (In_channel.with_open_text path In_channel.input_all)
  with Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Checking one request (runs on a worker domain)                      *)

(* The optional "decks" request member: an array of rule-file paths
   (labelled by basename) or [{"label":..., "path":...|"rules":...}]
   objects with inline rule text.  [Ok None] when absent — the
   single-deck path, whose reply bytes must not change. *)
let parse_decks req =
  match Json.member "decks" req with
  | None -> Ok None
  | Some (Json.Arr []) -> Error "\"decks\" must not be empty"
  | Some (Json.Arr specs) ->
    let deck_of i spec =
      let load ?label path =
        match read_file path with
        | Error msg -> Error msg
        | Ok src -> (
          match Tech.Rules.of_string src with
          | Ok rules ->
            Ok
              (Engine.deck
                 ~label:(Option.value ~default:(Filename.basename path) label)
                 rules)
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
      in
      match spec with
      | Json.Str path -> load path
      | Json.Obj _ -> (
        let label = Option.bind (Json.member "label" spec) Json.str in
        match
          ( Option.bind (Json.member "path" spec) Json.str,
            Option.bind (Json.member "rules" spec) Json.str )
        with
        | Some path, _ -> load ?label path
        | None, Some src -> (
          match Tech.Rules.of_string src with
          | Ok rules ->
            Ok
              (Engine.deck
                 ~label:(Option.value ~default:(Printf.sprintf "deck%d" i) label)
                 rules)
          | Error msg -> Error (Printf.sprintf "deck %d: %s" i msg))
        | None, None -> Error (Printf.sprintf "deck %d needs \"path\" or \"rules\"" i))
      | _ -> Error (Printf.sprintf "deck %d must be a path string or an object" i)
    in
    let rec go i = function
      | [] -> Ok []
      | s :: rest ->
        Result.bind (deck_of i s) (fun d ->
            Result.map (fun ds -> d :: ds) (go (i + 1) rest))
    in
    Result.map (fun ds -> Some (Engine.dedupe_labels ds)) (go 0 specs)
  | Some _ -> Error "\"decks\" must be an array"

(* What the worker needs to know about a finished check beyond the
   reply line itself: the telemetry facts.  A check's reply carries the
   same figures, and each deck of a deck set's. *)
type outcome = {
  o_status : string;  (* "ok" | "error" *)
  o_exit : int;
  o_errors : int;
  o_warnings : int;
  o_symbols_total : int;  (* engine reuse counters; 0 on an error *)
  o_symbols_reused : int;
}

let error_outcome =
  { o_status = "error"; o_exit = 2; o_errors = 0; o_warnings = 0;
    o_symbols_total = 0; o_symbols_reused = 0 }

let outcome_members o =
  [ ("errors", jnum o.o_errors); ("warnings", jnum o.o_warnings); ("exit", jnum o.o_exit);
    ("symbols_total", jnum o.o_symbols_total);
    ("symbols_reused", jnum o.o_symbols_reused) ]

(* A per-code tally as a JSON object. *)
let counts_obj diags =
  Json.Obj (List.map (fun (code, n) -> (code, jnum n)) (Lint.code_counts diags))

let process t ?req ?trace reqj =
  let req_members = req_field req in
  let id = Option.value ~default:Json.Null (Json.member "id" reqj) in
  let flag name = Option.bind (Json.member name reqj) Json.bool = Some true in
  let refuse id msg = (refuse ~extra:req_members id msg, error_outcome) in
  let req = reqj in
  (* Debug aid for exercising cancellation and backpressure
     deterministically; see PROTOCOL.md. *)
  (match Option.bind (Json.member "sleep_ms" req) Json.num with
  | Some ms when ms > 0. -> Unix.sleepf (Float.min ms 10_000. /. 1000.)
  | _ -> ());
  let source =
    match (Option.bind (Json.member "path" req) Json.str,
           Option.bind (Json.member "cif" req) Json.str)
    with
    | Some path, _ -> Result.map (fun src -> (src, path)) (read_file path)
    | None, Some src -> Ok (src, "inline")
    | None, None -> Error "request needs \"path\" or \"cif\""
  in
  let jobs = Option.bind (Json.member "jobs" req) Json.int in
  match (source, jobs) with
  | Error msg, _ -> refuse id msg
  | Ok _, Some j when j < 0 ->
    refuse id
      (Printf.sprintf "\"jobs\" is %d: give 0 (the runtime's recommended count) or more" j)
  | Ok (src, uri), _ -> (
    let base = Engine.config t.s_engine in
    let lint_werror = flag "lint_werror" in
    let run_lint =
      (match Option.bind (Json.member "lint" req) Json.bool with
      | Some b -> b
      | None -> base.Engine.run_lint)
      || lint_werror
    in
    let config =
      { base with
        Engine.interactions =
          { base.Engine.interactions with
            Interactions.jobs =
              Option.value jobs ~default:base.Engine.interactions.Interactions.jobs;
            Interactions.check_same_net =
              (match Option.bind (Json.member "check_same_net" req) Json.bool with
              | Some b -> b
              | None -> base.Engine.interactions.Interactions.check_same_net) };
        Engine.run_lint }
    in
    match parse_decks req with
    | Error msg -> refuse id msg
    | Ok decks_opt -> (
      let engine =
        let e = Engine.with_config t.s_engine config in
        match decks_opt with Some decks -> Engine.with_decks e decks | None -> e
      in
      let werror = flag "werror" in
      (* Lint members of one deck: the per-code tally of the kept
         diagnostics whenever lint ran, and of the waived ones only when
         something was waived, so waiver-free replies keep their
         historical shape. *)
      let lint_members (dr : Engine.deck_result) =
        if not run_lint then []
        else
          ("lint_counts", counts_obj dr.Engine.dr_lint)
          :: (if dr.Engine.dr_suppressed = [] then []
              else [ ("lint_suppressed", counts_obj dr.Engine.dr_suppressed) ])
      in
      match Engine.check_string ?trace engine src with
      | Error msg -> refuse id msg
      | Ok multi ->
        (* One reply for both request shapes.  The report text is
           exactly what one-shot [dicheck FILE] writes to stdout: the
           primary deck's report, or for a deck set the merged view
           (the serve smoke diffs against it). *)
        let results = multi.Engine.results in
        let merged = Option.map (fun _ -> Engine.merged multi) decks_opt in
        let report_text = Engine.report_text ?merged multi in
        Option.iter
          (fun path ->
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc report_text))
          (Option.bind (Json.member "out" req) Json.str);
        let deck_outcome (dr : Engine.deck_result) =
          let count sev = Report.count ~severity:sev dr.Engine.dr_result.Engine.report in
          { o_status = "ok"; o_exit = Engine.deck_exit ~werror ~lint_werror dr;
            o_errors = count Report.Error; o_warnings = count Report.Warning;
            o_symbols_total = dr.Engine.dr_reuse.Engine.symbols_total;
            o_symbols_reused = dr.Engine.dr_reuse.Engine.symbols_reused }
        in
        (* Exit is the worst deck's and reuse sums over the decks;
           errors and warnings are the merged view's for a deck set. *)
        let outcome =
          let sum f =
            List.fold_left
              (fun acc (dr : Engine.deck_result) -> acc + f dr.Engine.dr_reuse)
              0 results
          in
          let errors, warnings =
            match merged with
            | Some mr -> (Multireport.errors mr, Multireport.warnings mr)
            | None ->
              let o = deck_outcome (List.hd results) in
              (o.o_errors, o.o_warnings)
          in
          { o_status = "ok"; o_exit = Engine.exit_code ~werror ~lint_werror multi;
            o_errors = errors; o_warnings = warnings;
            o_symbols_total = sum (fun r -> r.Engine.symbols_total);
            o_symbols_reused = sum (fun r -> r.Engine.symbols_reused) }
        in
        let shape_members =
          match merged with
          | None -> lint_members (List.hd results)
          | Some mr ->
            let deck (dr : Engine.deck_result) =
              Json.Obj
                ((("label", Json.Str dr.Engine.dr_deck.Engine.dk_label)
                  :: outcome_members (deck_outcome dr))
                @ lint_members dr)
            in
            [ ("decks", Json.Arr (List.map deck results));
              ("compliant",
               Json.Arr (List.map (fun l -> Json.Str l) (Multireport.compliant mr)));
              ("all_compliant", Json.Bool (Multireport.all_compliant mr)) ]
        in
        let optional name want render = if flag want then [ (name, render ()) ] else [] in
        let members =
          [ ("id", id); ("ok", Json.Bool true); ("status", Json.Str "ok") ]
          @ req_members @ outcome_members outcome @ shape_members
          @ [ ("report", Json.Str report_text) ]
          @ optional "metrics" "stats" (fun () ->
                embed (Metrics.to_json (fst (Engine.primary multi)).Engine.metrics))
          @ optional "sarif" "sarif" (fun () ->
                embed (Engine.sarif ~set:(Option.is_some merged) ~uri multi))
          (* The request-scoped span tree, for callers that asked with
             "trace": true.  Opt-in per request: the daemon-level
             --trace collection alone never grows replies. *)
          @ (match trace with
            | Some tr when flag "trace" -> [ ("trace", embed (Trace.to_chrome_json tr)) ]
            | _ -> [])
        in
        (Json.to_string (Json.Obj members), outcome)))

let process_safe t ?req ?trace reqj =
  try process t ?req ?trace reqj
  with exn ->
    ( refuse ~extra:(req_field req)
        (Option.value ~default:Json.Null (Json.member "id" reqj))
        ("internal error: " ^ Printexc.to_string exn),
      error_outcome )

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let is_stale p job =
  match job.j_key with
  | None -> false
  | Some key -> (
    match Hashtbl.find_opt p.p_latest key with
    | Some newest -> newest > job.j_ticket
    | None -> false)

let deliver job line =
  job.j_conn.c_reply line;
  Mutex.lock job.j_conn.c_lock;
  job.j_conn.c_outstanding <- job.j_conn.c_outstanding - 1;
  Condition.broadcast job.j_conn.c_done;
  Mutex.unlock job.j_conn.c_lock

let worker_loop t p w () =
  let tel = t.s_telemetry in
  let rec go () =
    Mutex.lock p.p_lock;
    while Queue.is_empty p.p_queue && not (Atomic.get p.p_stop) do
      Condition.wait p.p_work p.p_lock
    done;
    if Queue.is_empty p.p_queue then
      (* Stop requested and nothing left: exit.  Each check stored its
         per-definition results as it finished. *)
      Mutex.unlock p.p_lock
    else begin
      let job = Queue.pop p.p_queue in
      p.p_inflight <- p.p_inflight + 1;
      let stale = is_stale p job in
      Mutex.unlock p.p_lock;
      let deq_ns = Metrics.now_ns () in
      let wait_ns =
        let d = Int64.sub deq_ns job.j_enq_ns in
        if Int64.compare d 0L < 0 then 0L else d
      in
      let line =
        if stale then begin
          Telemetry.request_cancelled tel ~req:job.j_seq ~worker:w ();
          cancelled_reply ~req:job.j_seq job.j_id
        end
        else begin
          Telemetry.request_started tel ~req:job.j_seq ~worker:w ~wait_ns;
          (* Request-scoped span tree: the queued span (enqueue →
             dequeue), then the whole service as a "request" span with
             the engine's stage spans nested inside.  One buffer per
             request, in this worker's lane. *)
          let want_trace =
            Telemetry.collecting_traces tel
            || Option.bind (Json.member "trace" job.j_req) Json.bool = Some true
          in
          let tr = if want_trace then Some (Trace.create ~tid:w ()) else None in
          (match tr with
          | Some tr ->
            Trace.record tr ~cat:"serve"
              ~args:[ ("req", string_of_int job.j_seq) ]
              "queued" ~ts_ns:job.j_enq_ns ~dur_ns:wait_ns
          | None -> ());
          let text, outcome =
            Trace.with_span tr ~cat:"serve"
              ~args:[ ("req", string_of_int job.j_seq) ]
              "request"
              (fun () -> process_safe t ~req:job.j_seq ?trace:tr job.j_req)
          in
          let service_ns = Int64.sub (Metrics.now_ns ()) deq_ns in
          (match tr with
          | Some tr when Telemetry.collecting_traces tel ->
            Telemetry.add_trace tel ~req:job.j_seq tr
          | _ -> ());
          (* A newer submission may have arrived while we were
             checking: drop the stale result on the floor. *)
          Mutex.lock p.p_lock;
          let stale_now = is_stale p job in
          Mutex.unlock p.p_lock;
          if stale_now then begin
            Telemetry.request_cancelled tel ~req:job.j_seq ~worker:w ();
            cancelled_reply ~req:job.j_seq job.j_id
          end
          else begin
            Telemetry.request_finished tel ~req:job.j_seq ~worker:w
              ~status:outcome.o_status ~exit_code:outcome.o_exit
              ~errors:outcome.o_errors ~warnings:outcome.o_warnings
              ~symbols_total:outcome.o_symbols_total
              ~symbols_reused:outcome.o_symbols_reused ~wait_ns ~service_ns;
            text
          end
        end
      in
      deliver job line;
      Telemetry.worker_busy tel ~worker:w
        ~ns:(Int64.sub (Metrics.now_ns ()) deq_ns);
      Mutex.lock p.p_lock;
      p.p_inflight <- p.p_inflight - 1;
      Condition.broadcast p.p_done;
      Mutex.unlock p.p_lock;
      go ()
    end
  in
  go ()

let start t =
  Mutex.lock t.s_lock;
  (match t.s_pool with
  | Some _ -> ()
  | None ->
    let p =
      { p_lock = Mutex.create ();
        p_work = Condition.create ();
        p_done = Condition.create ();
        p_queue = Queue.create ();
        p_stop = Atomic.make false;
        p_latest = Hashtbl.create 16;
        p_ticket = 0;
        p_inflight = 0;
        p_workers = [] }
    in
    t.s_pool <- Some p;
    p.p_workers <-
      List.init t.s_workers (fun w -> Domain.spawn (worker_loop t p w));
    Telemetry.lifecycle t.s_telemetry
      ~fields:[ ("workers", jnum t.s_workers); ("max_queue", jnum t.s_max_queue) ]
      "start");
  Mutex.unlock t.s_lock

let pool t =
  match t.s_pool with
  | Some p -> p
  | None ->
    start t;
    Option.get t.s_pool

let connect t ~reply =
  let lock = Mutex.create () in
  let guarded line =
    Mutex.lock lock;
    (try reply line with _ -> ());
    Mutex.unlock lock
  in
  { c_serial = Atomic.fetch_and_add t.s_conn_seq 1;
    c_reply = guarded;
    c_lock = Mutex.create ();
    c_done = Condition.create ();
    c_outstanding = 0 }

let drain t =
  match t.s_pool with
  | None -> ()
  | Some p ->
    Mutex.lock p.p_lock;
    while not (Queue.is_empty p.p_queue) || p.p_inflight > 0 do
      Condition.wait p.p_done p.p_lock
    done;
    Mutex.unlock p.p_lock

let stopped t =
  Atomic.get t.s_stop_req
  || (match t.s_pool with Some p -> Atomic.get p.p_stop | None -> false)

let request_stop t = Atomic.set t.s_stop_req true

type stats = {
  queued : int;
  inflight : int;
  served : int;
  cancelled : int;
  overloaded : int;
  workers : int;
}

(* [f] with the queue depth and the live worker count, under the pool
   lock: the ledger's [accepted] moves only under this lock, beside the
   push, so a ledger read inside [f] agrees with the depth.  Lock order
   is pool, then telemetry. *)
let with_depth t f =
  match t.s_pool with
  | None -> f ~queued:0 ~workers:0
  | Some p ->
    Mutex.lock p.p_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock p.p_lock)
      (fun () -> f ~queued:(Queue.length p.p_queue) ~workers:(List.length p.p_workers))

let stats t =
  with_depth t (fun ~queued ~workers ->
      let r = Telemetry.requests t.s_telemetry ~queued in
      { queued; inflight = r.Telemetry.inflight; served = r.Telemetry.served;
        cancelled = r.Telemetry.cancelled; overloaded = r.Telemetry.overloaded; workers })

let shutdown t =
  match t.s_pool with
  | None -> Atomic.set t.s_stop_req true
  | Some p ->
    Atomic.set t.s_stop_req true;
    Mutex.lock p.p_lock;
    (* The caller that flips the stop flag owns the lifecycle events:
       concurrent shutdowns log begin/end exactly once. *)
    let first = not (Atomic.exchange p.p_stop true) in
    Condition.broadcast p.p_work;
    (* Claim the workers under the lock so concurrent shutdowns join
       each domain exactly once. *)
    let workers = p.p_workers in
    p.p_workers <- [];
    Mutex.unlock p.p_lock;
    if first then Telemetry.lifecycle t.s_telemetry "shutdown_begin";
    drain t;
    List.iter Domain.join workers;
    if first then begin
      let s = stats t in
      Telemetry.lifecycle t.s_telemetry
        ~fields:
          [ ("served", jnum s.served); ("cancelled", jnum s.cancelled);
            ("overloaded", jnum s.overloaded) ]
        "shutdown"
    end

(* The ack (and every overloaded refusal) carries the ledger's counts,
   so a client can see what the daemon did — and why it refused. *)
let stats_fields s =
  [ ("served", jnum s.served); ("cancelled", jnum s.cancelled);
    ("overloaded", jnum s.overloaded); ("queued", jnum s.queued);
    ("inflight", jnum s.inflight) ]

let shutdown_ack t id =
  let s = stats t in
  Json.to_string
    (Json.Obj
       ([ ("id", id); ("ok", Json.Bool true); ("status", Json.Str "shutdown") ]
       @ stats_fields s))

(* ------------------------------------------------------------------ *)
(* Admin surface                                                       *)

let stats_snapshot t =
  with_depth t (fun ~queued ~workers:_ ->
      Telemetry.snapshot t.s_telemetry ~queued ~workers:t.s_workers
        ~max_queue:t.s_max_queue)

(* Answered synchronously — admin requests must not queue behind
   checks, and must keep answering while the daemon drains. *)
let admin_reply t id req kind =
  match kind with
  | "stats" -> (
    match Option.bind (Json.member "format" req) Json.str with
    | Some "prometheus" ->
      (* Text exposition for scrapers that can't walk the JSON shape;
         the snapshot is the same either way. *)
      Json.to_string
        (Json.Obj
           [ ("id", id); ("ok", Json.Bool true); ("status", Json.Str "stats");
             ("prometheus", Json.Str (Telemetry.prometheus (stats_snapshot t))) ])
    | Some fmt when fmt <> "json" ->
      refuse id (Printf.sprintf "unknown stats format %S" fmt)
    | _ ->
      Json.to_string
        (Json.Obj
           [ ("id", id); ("ok", Json.Bool true); ("status", Json.Str "stats");
             ("stats", stats_snapshot t) ]))
  | "health" ->
    let s = stats t in
    let state = if stopped t then "draining" else "ok" in
    Json.to_string
      (Json.Obj
         [ ("id", id); ("ok", Json.Bool true); ("status", Json.Str "health");
           ("health", Json.Str state);
           ("uptime_s", Json.Num (Telemetry.uptime_s t.s_telemetry));
           ("workers", jnum t.s_workers); ("queued", jnum s.queued);
           ("inflight", jnum s.inflight) ])
  | other -> refuse id (Printf.sprintf "unknown admin request %S" other)

let admin_of req = Option.bind (Json.member "admin" req) Json.str

let enqueue t conn id req =
  let p = pool t in
  let seq = Telemetry.next_request t.s_telemetry in
  (* Telemetry calls below run under p_lock so the event log orders
     accepted before the worker's started, and the ledger's accepted
     moves with the queue.  Lock order is always pool → telemetry,
     never the reverse. *)
  Mutex.lock p.p_lock;
  if Atomic.get p.p_stop then begin
    Telemetry.request_rejected t.s_telemetry ~error:"server is shutting down";
    Mutex.unlock p.p_lock;
    conn.c_reply
      (refuse ~status:"shutdown" ~extra:(req_field (Some seq)) id "server is shutting down")
  end
  else if Queue.length p.p_queue >= t.s_max_queue then begin
    let queued = Queue.length p.p_queue in
    Telemetry.request_overloaded t.s_telemetry ~req:seq ~queued;
    let r = Telemetry.requests t.s_telemetry ~queued in
    let extra =
      req_field (Some seq)
      @ [ ("served", jnum r.Telemetry.served); ("queued", jnum queued);
          ("inflight", jnum r.Telemetry.inflight) ]
    in
    Mutex.unlock p.p_lock;
    conn.c_reply (refuse ~status:"overloaded" ~extra id "request queue is full; retry later")
  end
  else begin
    p.p_ticket <- p.p_ticket + 1;
    let key =
      match id with Json.Null -> None | _ -> Some (conn.c_serial, Json.to_string id)
    in
    (match key with Some k -> Hashtbl.replace p.p_latest k p.p_ticket | None -> ());
    Queue.push
      { j_conn = conn; j_req = req; j_id = id; j_key = key; j_ticket = p.p_ticket;
        j_seq = seq; j_enq_ns = Metrics.now_ns () }
      p.p_queue;
    Mutex.lock conn.c_lock;
    conn.c_outstanding <- conn.c_outstanding + 1;
    Mutex.unlock conn.c_lock;
    Telemetry.request_accepted t.s_telemetry ~req:seq ~id ~queued:(Queue.length p.p_queue);
    Condition.signal p.p_work;
    Mutex.unlock p.p_lock
  end

(* A parse error is rejected, [shutdown] gets the ack and [admin] its
   reply, all on the caller's domain; a check is enqueued. *)
let submit t conn line =
  if String.trim line <> "" then
    match Json.parse line with
    | Error msg ->
      Telemetry.request_rejected t.s_telemetry ~error:("bad request: " ^ msg);
      conn.c_reply (refuse Json.Null ("bad request: " ^ msg))
    | Ok req -> (
      let id = Option.value ~default:Json.Null (Json.member "id" req) in
      if Option.bind (Json.member "shutdown" req) Json.bool = Some true then begin
        shutdown t;
        conn.c_reply (shutdown_ack t id)
      end
      else
        match admin_of req with
        | Some kind -> conn.c_reply (admin_reply t id req kind)
        | None -> enqueue t conn id req)

(* All replies owed to this connection have been written. *)
let conn_drain conn =
  Mutex.lock conn.c_lock;
  while conn.c_outstanding > 0 do
    Condition.wait conn.c_done conn.c_lock
  done;
  Mutex.unlock conn.c_lock

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)

(* Raw-fd line reader.  Buffered channels read ahead, which makes them
   unusable with select; this reader owns its buffer and polls [stop]
   every [tick] seconds while idle so SIGTERM and protocol shutdowns
   interrupt a blocked daemon promptly. *)
type reader = {
  r_fd : Unix.file_descr;
  r_buf : Buffer.t;
  r_lines : string Queue.t;
  mutable r_eof : bool;
}

let reader fd =
  { r_fd = fd; r_buf = Buffer.create 256; r_lines = Queue.create (); r_eof = false }

let reader_feed r chunk =
  String.iter
    (fun c ->
      if c = '\n' then begin
        Queue.push (Buffer.contents r.r_buf) r.r_lines;
        Buffer.clear r.r_buf
      end
      else Buffer.add_char r.r_buf c)
    chunk

let rec next_line ~stop r =
  if not (Queue.is_empty r.r_lines) then Some (Queue.pop r.r_lines)
  else if r.r_eof || stop () then None
  else begin
    let ready =
      try (match Unix.select [ r.r_fd ] [] [] 0.1 with [], _, _ -> false | _ -> true)
      with Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    if ready then begin
      let bytes = Bytes.create 65536 in
      let n =
        try Unix.read r.r_fd bytes 0 (Bytes.length bytes)
        with
        | Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> -1
        | Unix.Unix_error (_, _, _) -> 0 (* connection error reads as EOF *)
      in
      if n = 0 then begin
        r.r_eof <- true;
        if Buffer.length r.r_buf > 0 then begin
          (* Serve a final unterminated line rather than drop it. *)
          Queue.push (Buffer.contents r.r_buf) r.r_lines;
          Buffer.clear r.r_buf
        end
      end
      else if n > 0 then reader_feed r (Bytes.sub_string bytes 0 n)
    end;
    next_line ~stop r
  end

(* Whole lines, serialized per fd, write errors swallowed (the client
   may be gone; its remaining replies just vanish). *)
let fd_writer fd =
  fun line ->
    try
      let s = line ^ "\n" in
      let len = String.length s in
      let off = ref 0 in
      while !off < len do
        off := !off + Unix.write_substring fd s !off (len - !off)
      done
    with Unix.Unix_error _ -> ()

let read_loop t conn r =
  let rec go () =
    match next_line ~stop:(fun () -> stopped t) r with
    | None -> ()
    | Some line ->
      submit t conn line;
      if stopped t then () else go ()
  in
  go ()

let serve_stdio t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  start t;
  let conn = connect t ~reply:(fd_writer Unix.stdout) in
  read_loop t conn (reader Unix.stdin);
  (* EOF or stop: answer everything still queued, and leave. *)
  shutdown t;
  conn_drain conn

let serve_socket t ~path =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  start t;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  let client_loop fd finished () =
    let conn = connect t ~reply:(fd_writer fd) in
    read_loop t conn (reader fd);
    (* Keep the fd open until every reply owed to this connection is
       out; workers write replies from their own domains. *)
    conn_drain conn;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Atomic.set finished true
  in
  (* Live readers, each with the flag it sets as its last action.  The
     accept loop joins the finished ones, so a long-lived daemon holds
     a domain per open connection, not per connection ever accepted. *)
  let readers = ref [] in
  let reap () =
    readers :=
      List.filter
        (fun (finished, d) ->
          if Atomic.get finished then begin
            Domain.join d;
            false
          end
          else true)
        !readers
  in
  let rec accept_loop () =
    if stopped t then ()
    else begin
      reap ();
      let ready =
        try (match Unix.select [ sock ] [] [] 0.1 with [], _, _ -> false | _ -> true)
        with Unix.Unix_error (Unix.EINTR, _, _) -> false
      in
      (if ready then
         match (try Some (Unix.accept sock) with Unix.Unix_error _ -> None) with
         | Some (fd, _) -> (
           (* Each connection is read on a domain of its own, and the
              runtime caps live domains (128 in OCaml 5.1, workers and
              check domains included).  A connection past the cap is
              refused with one line and closed; the others, and the
              daemon, carry on. *)
           let finished = Atomic.make false in
           match Domain.spawn (client_loop fd finished) with
           | d -> readers := (finished, d) :: !readers
           | exception Failure _ ->
             fd_writer fd
               (refuse ~status:"overloaded" Json.Null
                  "too many open connections; close one and retry");
             (try Unix.close fd with Unix.Unix_error _ -> ()))
         | None -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  shutdown t;
  List.iter (fun (_, d) -> Domain.join d) !readers;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ())
