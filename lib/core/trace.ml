(* Span tracing: a low-overhead append buffer of complete spans,
   exported as Chrome trace-event JSON.

   Events are stored in a growable array so recording a span costs two
   clock reads and one store on the hot path.  Per-domain buffers are
   merged in shard order after the join, which keeps the event list —
   and therefore the exported JSON structure — deterministic for a
   given (design, jobs) pair; only the timestamps vary run to run. *)

let now_ns () = Monotonic_clock.now ()

type event = {
  e_name : string;
  e_cat : string;
  e_ph : [ `Complete | `Instant ];
  e_ts_ns : int64;
  e_dur_ns : int64;  (** 0 for instants *)
  e_tid : int;
  e_args : (string * string) list;
}

type t = {
  tid : int;
  mutable events : event array;
  mutable len : int;
}

let dummy =
  { e_name = ""; e_cat = ""; e_ph = `Instant; e_ts_ns = 0L; e_dur_ns = 0L; e_tid = 0;
    e_args = [] }

let create ?(tid = 0) () = { tid; events = Array.make 64 dummy; len = 0 }

let push t e =
  if t.len = Array.length t.events then begin
    let bigger = Array.make (2 * t.len) dummy in
    Array.blit t.events 0 bigger 0 t.len;
    t.events <- bigger
  end;
  t.events.(t.len) <- e;
  t.len <- t.len + 1

let length t = t.len
let events t = Array.to_list (Array.sub t.events 0 t.len)

let record t ?(cat = "") ?(args = []) name ~ts_ns ~dur_ns =
  push t
    { e_name = name; e_cat = cat; e_ph = `Complete; e_ts_ns = ts_ns; e_dur_ns = dur_ns;
      e_tid = t.tid; e_args = args }

let with_span t ?cat ?args name f =
  match t with
  | None -> f ()
  | Some t ->
    let t0 = now_ns () in
    let finally () = record t ?cat ?args name ~ts_ns:t0 ~dur_ns:(Int64.sub (now_ns ()) t0) in
    Fun.protect ~finally f

let merge_into ~into src =
  for i = 0 to src.len - 1 do
    push into src.events.(i)
  done

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)

(* ts/dur are microseconds in the trace-event schema; emit three
   decimals to keep nanosecond resolution.  Timestamps are rebased to
   the earliest event so the numbers stay small. *)
let us_of_ns ns = Printf.sprintf "%.3f" (Int64.to_float ns /. 1e3)

let to_chrome_json ?(tool_version = Version.version) t =
  let base =
    let m = ref Int64.max_int in
    for i = 0 to t.len - 1 do
      if Int64.compare t.events.(i).e_ts_ns !m < 0 then m := t.events.(i).e_ts_ns
    done;
    if !m = Int64.max_int then 0L else !m
  in
  let buf = Buffer.create (256 + (t.len * 96)) in
  let add = Buffer.add_string buf in
  add "{\"traceEvents\":[";
  for i = 0 to t.len - 1 do
    if i > 0 then add ",";
    let e = t.events.(i) in
    add "{\"name\":";
    Json.add_quoted buf e.e_name;
    add ",\"cat\":";
    Json.add_quoted buf (if e.e_cat = "" then "dic" else e.e_cat);
    add
      (Printf.sprintf ",\"ph\":\"%s\",\"ts\":%s"
         (match e.e_ph with `Complete -> "X" | `Instant -> "i")
         (us_of_ns (Int64.sub e.e_ts_ns base)));
    (match e.e_ph with
    | `Complete -> add (Printf.sprintf ",\"dur\":%s" (us_of_ns e.e_dur_ns))
    | `Instant -> add ",\"s\":\"t\"");
    add (Printf.sprintf ",\"pid\":1,\"tid\":%d" e.e_tid);
    if e.e_args <> [] then begin
      add ",\"args\":{";
      List.iteri
        (fun j (k, v) ->
          if j > 0 then add ",";
          Json.add_quoted buf k;
          add ":";
          Json.add_quoted buf v)
        e.e_args;
      add "}"
    end;
    add "}"
  done;
  add "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"dicheck\",\"version\":";
  Json.add_quoted buf tool_version;
  add "}}";
  Buffer.contents buf
