(* Structured observability: stage timers, counters, histograms.

   Self-contained on purpose — the only outside dependency is the
   monotonic clock stub shipped with bechamel, so the checker library
   never drags in a JSON or metrics framework. *)

let now_ns () = Monotonic_clock.now ()

(* Power-of-two buckets: index i counts observations v with
   2^(i-1) <= v < 2^i (index 0: v = 0).  63 buckets cover any int64. *)
let bucket_count = 64

type hist = {
  mutable count : int;
  mutable sum_ns : int64;
  buckets : int array;
}

(* A sliding window: the last [w_cap] observations in a ring, plus the
   all-time observation count.  Quantiles computed over the ring are
   exact for the window, unlike the log₂ histogram sketches. *)
type window = {
  w_cap : int;
  w_data : float array;
  mutable w_len : int;  (* values currently held, <= w_cap *)
  mutable w_next : int;  (* next insertion slot *)
  mutable w_total : int;  (* observations ever, incl. evicted *)
}

type t = {
  mutable stages_rev : (string * float) list;
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  cost_ns : (string, int64 ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  windows : (string, window) Hashtbl.t;
}

let create () =
  { stages_rev = []; counters = Hashtbl.create 16; hists = Hashtbl.create 4;
    cost_ns = Hashtbl.create 16; gauges = Hashtbl.create 4;
    windows = Hashtbl.create 4 }

(* ------------------------------------------------------------------ *)
(* Stage timers                                                        *)

let add_stage_seconds t name seconds = t.stages_rev <- (name, seconds) :: t.stages_rev

let stage_seconds t = List.rev t.stages_rev

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

let incr ?(by = 1) t name =
  if by < 0 then invalid_arg "Metrics.incr: counters are monotonic (by < 0)";
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add t.counters name (ref by)

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* Defined here (not with the other stage-timer code) because they feed
   the GC deltas into counters.  [Gc.quick_stat] is domain-local in
   OCaml 5, so [count_gc] only sees the calling domain's churn — a
   parallel stage has each worker domain wrap its own slice in
   [count_gc] against its own per-domain [t], and [merge_into] then
   sums the [gc.*_words.<stage>] counters so the stage total covers
   every domain's allocation. *)
let count_gc t name f =
  let g0 = Gc.quick_stat () in
  let v = f () in
  let g1 = Gc.quick_stat () in
  incr ~by:(max 0 (int_of_float (g1.Gc.minor_words -. g0.Gc.minor_words)))
    t ("gc.minor_words." ^ name);
  incr ~by:(max 0 (int_of_float (g1.Gc.major_words -. g0.Gc.major_words)))
    t ("gc.major_words." ^ name);
  v

let time_stage t name f =
  let t0 = now_ns () in
  let v = count_gc t name f in
  let dt = Int64.sub (now_ns ()) t0 in
  add_stage_seconds t name (Int64.to_float dt *. 1e-9);
  v

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.add t.gauges name (ref v)

let gauge t name = Option.map ( ! ) (Hashtbl.find_opt t.gauges name)

let gauges t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.gauges []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Sliding windows                                                     *)

let default_window_capacity = 256

let window_of ?(capacity = default_window_capacity) t name =
  match Hashtbl.find_opt t.windows name with
  | Some w -> w
  | None ->
    let cap = max 1 capacity in
    let w = { w_cap = cap; w_data = Array.make cap 0.; w_len = 0; w_next = 0;
              w_total = 0 } in
    Hashtbl.add t.windows name w;
    w

let observe_window ?capacity t name v =
  let w = window_of ?capacity t name in
  w.w_data.(w.w_next) <- v;
  w.w_next <- (w.w_next + 1) mod w.w_cap;
  if w.w_len < w.w_cap then w.w_len <- w.w_len + 1;
  w.w_total <- w.w_total + 1

type window_snapshot = {
  w_count : int;
  w_capacity : int;
  w_values : float array;
}

let window_values w =
  Array.init w.w_len (fun i ->
      if w.w_len < w.w_cap then w.w_data.(i)
      else w.w_data.((w.w_next + i) mod w.w_cap))

let window t name =
  Option.map
    (fun w -> { w_count = w.w_total; w_capacity = w.w_cap; w_values = window_values w })
    (Hashtbl.find_opt t.windows name)

let window_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.windows [] |> List.sort String.compare

(* Nearest-rank quantile over the in-window values, exact. *)
let window_quantile s q =
  let n = Array.length s.w_values in
  if n = 0 then 0.
  else begin
    let sorted = Array.copy s.w_values in
    Array.sort compare sorted;
    let idx = int_of_float (ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))
  end

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

let bucket_of ns =
  if Int64.compare ns 1L < 0 then 0
  else begin
    let i = ref 0 and v = ref ns in
    while Int64.compare !v 0L > 0 do
      i := !i + 1;
      v := Int64.shift_right_logical !v 1
    done;
    min !i (bucket_count - 1)
  end

let hist_of t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h = { count = 0; sum_ns = 0L; buckets = Array.make bucket_count 0 } in
    Hashtbl.add t.hists name h;
    h

let observe_ns t name ns =
  let ns = if Int64.compare ns 0L < 0 then 0L else ns in
  let h = hist_of t name in
  h.count <- h.count + 1;
  h.sum_ns <- Int64.add h.sum_ns ns;
  let b = bucket_of ns in
  h.buckets.(b) <- h.buckets.(b) + 1

type histogram_snapshot = {
  h_count : int;
  h_sum_ns : int64;
  h_buckets : (int64 * int) list;
}

(* Inclusive upper bound of bucket i: 2^i - 1 (bucket 0 holds v = 0). *)
let bucket_le i = Int64.sub (Int64.shift_left 1L i) 1L

let snapshot (h : hist) =
  let buckets = ref [] in
  for i = bucket_count - 1 downto 0 do
    if h.buckets.(i) > 0 then buckets := (bucket_le i, h.buckets.(i)) :: !buckets
  done;
  { h_count = h.count; h_sum_ns = h.sum_ns; h_buckets = !buckets }

let histogram t name = Option.map snapshot (Hashtbl.find_opt t.hists name)

let hist_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.hists [] |> List.sort String.compare

(* ------------------------------------------------------------------ *)
(* Cost attribution                                                    *)

let add_cost_ns t name ns =
  if Int64.compare ns 0L < 0 then invalid_arg "Metrics.add_cost_ns: ns < 0";
  match Hashtbl.find_opt t.cost_ns name with
  | Some r -> r := Int64.add !r ns
  | None -> Hashtbl.add t.cost_ns name (ref ns)

let cost_ns t name =
  match Hashtbl.find_opt t.cost_ns name with Some r -> !r | None -> 0L

let costs t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.cost_ns []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Descending by cost; name breaks ties so the ranking is total. *)
let top_costs t ~n =
  let all =
    costs t
    |> List.sort (fun (na, a) (nb, b) ->
           match Int64.compare b a with 0 -> String.compare na nb | c -> c)
  in
  List.filteri (fun i _ -> i < n) all

(* ------------------------------------------------------------------ *)
(* Composition                                                         *)

let merge_into ~into src =
  into.stages_rev <- src.stages_rev @ into.stages_rev;
  Hashtbl.iter (fun name r -> incr ~by:!r into name) src.counters;
  Hashtbl.iter
    (fun name (h : hist) ->
      let dst = hist_of into name in
      dst.count <- dst.count + h.count;
      dst.sum_ns <- Int64.add dst.sum_ns h.sum_ns;
      Array.iteri (fun i n -> dst.buckets.(i) <- dst.buckets.(i) + n) h.buckets)
    src.hists;
  Hashtbl.iter (fun name r -> add_cost_ns into name !r) src.cost_ns;
  (* Gauges are last-set values: the source's reading wins for the
     names it carries.  Merge in shard order for determinism. *)
  Hashtbl.iter (fun name r -> set_gauge into name !r) src.gauges;
  (* Windows: replay the source's surviving values, oldest first, into
     the destination ring (the destination's capacity wins when both
     exist), then carry over the already-evicted observation count. *)
  Hashtbl.iter
    (fun name w ->
      Array.iter (fun v -> observe_window ~capacity:w.w_cap into name v)
        (window_values w);
      let dst = window_of ~capacity:w.w_cap into name in
      dst.w_total <- dst.w_total + (w.w_total - w.w_len))
    src.windows

let count_report t (report : Report.t) =
  List.iter
    (fun (v : Report.violation) ->
      match v.Report.severity with
      | Report.Error ->
        incr t "report.errors";
        incr t ("errors." ^ Report.stage_name v.Report.stage)
      | Report.Warning -> incr t "report.warnings"
      | Report.Info -> incr t "report.infos")
    report.Report.violations

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

(* Canonical float rendering for gauges/window stats: integral values
   print like integers, everything else to 6 significant digits.  The
   point is determinism for equal states, not full precision. *)
let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let window_stats_fields s =
  let n = Array.length s.w_values in
  let mean =
    if n = 0 then 0. else Array.fold_left ( +. ) 0. s.w_values /. float_of_int n
  in
  let max_ = Array.fold_left Float.max 0. s.w_values in
  Printf.sprintf
    "\"capacity\":%d,\"count\":%d,\"len\":%d,\"mean\":%s,\"max\":%s,\
     \"p50\":%s,\"p95\":%s,\"p99\":%s"
    s.w_capacity s.w_count n (float_str mean) (float_str max_)
    (float_str (window_quantile s 0.5))
    (float_str (window_quantile s 0.95))
    (float_str (window_quantile s 0.99))

let to_json t =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  let key name =
    Json.add_quoted buf name;
    add ":"
  in
  add "{\"stages\":[";
  List.iteri
    (fun i (name, s) ->
      if i > 0 then add ",";
      add "{\"name\":";
      Json.add_quoted buf name;
      add (Printf.sprintf ",\"seconds\":%.9f}" s))
    (stage_seconds t);
  add "],\"counters\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then add ",";
      key name;
      add (string_of_int v))
    (counters t);
  add "},\"histograms\":{";
  List.iteri
    (fun i name ->
      if i > 0 then add ",";
      let s = snapshot (Hashtbl.find t.hists name) in
      key name;
      add (Printf.sprintf "{\"count\":%d,\"sum_ns\":%Ld,\"buckets\":[" s.h_count s.h_sum_ns);
      List.iteri
        (fun j (le, n) ->
          if j > 0 then add ",";
          add (Printf.sprintf "{\"le_ns\":%Ld,\"count\":%d}" le n))
        s.h_buckets;
      add "]}")
    (hist_names t);
  add "},\"gauges\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then add ",";
      key name;
      add (float_str v))
    (gauges t);
  add "},\"windows\":{";
  List.iteri
    (fun i name ->
      if i > 0 then add ",";
      let s = Option.get (window t name) in
      key name;
      add ("{" ^ window_stats_fields s ^ "}"))
    (window_names t);
  add "},\"costs\":{";
  List.iteri
    (fun i (name, ns) ->
      if i > 0 then add ",";
      key name;
      add (Int64.to_string ns))
    (costs t);
  add "}}";
  Buffer.contents buf
