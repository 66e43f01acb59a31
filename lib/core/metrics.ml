(* Structured observability: stage timers, counters, histograms.

   Self-contained on purpose — the only outside dependency is the
   monotonic clock stub shipped with bechamel, so the checker library
   never drags in a JSON or metrics framework. *)

let now_ns () = Monotonic_clock.now ()
let clock_ns () = Int64.to_int (Monotonic_clock.now ())

(* Power-of-two buckets: index i counts observations v with
   2^(i-1) <= v < 2^i (index 0: v = 0).  64 buckets cover any int. *)
let bucket_count = 64

type hist = {
  mutable count : int;
  mutable sum_ns : int;
  buckets : int array;
}

type t = {
  mutable stages_rev : (string * float) list;
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  cost_ns : (string, int64 ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
}

let create () =
  { stages_rev = []; counters = Hashtbl.create 16; hists = Hashtbl.create 4;
    cost_ns = Hashtbl.create 16; gauges = Hashtbl.create 4 }

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
   the GC deltas into counters.  Under OCaml 5.1 [Gc.quick_stat] moves
   only at minor collections and the minor part of [Gc.counters] reads
   about an eighth of the uncollected minor heap, so minor words come
   from [Gc.minor_words], which is exact.  Both readings are
   domain-local: a parallel stage has each worker domain wrap its own
   slice in [count_gc] against its own per-domain [t], and [merge_into]
   then sums the [gc.*_words.<stage>] counters so the stage total covers
   every domain's allocation. *)
let count_gc t name f =
  let minor0 = Gc.minor_words () and _, _, major0 = Gc.counters () in
  let v = f () in
  let minor1 = Gc.minor_words () and _, _, major1 = Gc.counters () in
  incr ~by:(max 0 (int_of_float (minor1 -. minor0))) t ("gc.minor_words." ^ name);
  incr ~by:(max 0 (int_of_float (major1 -. major0))) t ("gc.major_words." ^ name);
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
(* Histograms                                                          *)

let bucket_of ns =
  let i = ref 0 and v = ref ns in
  while !v > 0 do
    i := !i + 1;
    v := !v lsr 1
  done;
  min !i (bucket_count - 1)

let hist t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h = { count = 0; sum_ns = 0; buckets = Array.make bucket_count 0 } in
    Hashtbl.add t.hists name h;
    h

(* Everything here is an immediate int, so recording allocates nothing. *)
let observe h ns =
  let ns = max 0 ns in
  h.count <- h.count + 1;
  h.sum_ns <- h.sum_ns + ns;
  let b = bucket_of ns in
  h.buckets.(b) <- h.buckets.(b) + 1

let observe_ns t name ns =
  observe (hist t name)
    (if Int64.compare ns (Int64.of_int max_int) > 0 then max_int else Int64.to_int ns)

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
  { h_count = h.count; h_sum_ns = Int64.of_int h.sum_ns; h_buckets = !buckets }

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
      let dst = hist into name in
      dst.count <- dst.count + h.count;
      dst.sum_ns <- dst.sum_ns + h.sum_ns;
      Array.iteri (fun i n -> dst.buckets.(i) <- dst.buckets.(i) + n) h.buckets)
    src.hists;
  Hashtbl.iter (fun name r -> add_cost_ns into name !r) src.cost_ns;
  (* Gauges are last-set values: the source's reading wins for the
     names it carries.  Merge in shard order for determinism. *)
  Hashtbl.iter (fun name r -> set_gauge into name !r) src.gauges

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

(* Canonical float rendering for gauges: integral values print like
   integers, everything else to 6 significant digits.  The point is
   determinism for equal states, not full precision. *)
let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

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
  add "},\"costs\":{";
  List.iteri
    (fun i (name, ns) ->
      if i > 0 then add ",";
      key name;
      add (Int64.to_string ns))
    (costs t);
  add "}}";
  Buffer.contents buf
