(* Metrics: JSON well-formedness/round-trip, counter invariants, and
   the parallel-interaction determinism guarantee. *)

let rules = Tech.Rules.nmos ()
let lambda = rules.Tech.Rules.lambda

(* The shared minimal JSON reader lives in Tjson. *)
module Json = Tjson

(* ------------------------------------------------------------------ *)

let run_ok ?config file =
  match Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.create ?config rules) file with
  | Ok (r, _) -> r
  | Error e -> Alcotest.fail e

let workload () = Layoutgen.Cells.grid ~lambda ~nx:4 ~ny:4

let test_json_roundtrip () =
  let result = run_ok (workload ()) in
  let json = Dic.Metrics.to_json result.Dic.Engine.metrics in
  let v = try Json.parse json with Json.Bad m -> Alcotest.fail ("bad JSON: " ^ m) in
  (* Stages: present, in pipeline order, with non-negative seconds. *)
  (match Json.member "stages" v with
  | Some (Json.Arr stages) ->
    Alcotest.(check bool) "at least six stages" true (List.length stages >= 6);
    let names =
      List.map
        (fun st ->
          match (Json.member "name" st, Json.member "seconds" st) with
          | Some (Json.Str name), Some (Json.Num s) ->
            Alcotest.(check bool) ("stage " ^ name ^ " time >= 0") true (s >= 0.);
            name
          | _ -> Alcotest.fail "stage entry missing name/seconds")
        stages
    in
    Alcotest.(check string) "first stage" "elaborate" (List.hd names);
    Alcotest.(check bool) "has interactions stage" true (List.mem "interactions" names)
  | _ -> Alcotest.fail "no stages array");
  (* Counters: an object of non-negative integers, sorted by key. *)
  (match Json.member "counters" v with
  | Some (Json.Obj kvs) ->
    Alcotest.(check bool) "some counters" true (List.length kvs > 0);
    List.iter
      (fun (k, cv) ->
        match cv with
        | Json.Num f ->
          Alcotest.(check bool) (k ^ " non-negative") true (f >= 0.);
          Alcotest.(check bool) (k ^ " integral") true (Float.is_integer f)
        | _ -> Alcotest.fail (k ^ " not a number"))
      kvs;
    let keys = List.map fst kvs in
    Alcotest.(check (list string)) "keys sorted" (List.sort String.compare keys) keys;
    Alcotest.(check bool) "has pair counter" true
      (List.mem "interactions.pairs" keys)
  | _ -> Alcotest.fail "no counters object");
  (* Histograms: pair-check cost recorded, bucket counts sum to count. *)
  match Json.member "histograms" v with
  | Some (Json.Obj kvs) -> (
    match List.assoc_opt "interactions.pair_check_ns" kvs with
    | Some h -> (
      match (Json.member "count" h, Json.member "buckets" h) with
      | Some (Json.Num count), Some (Json.Arr buckets) ->
        let total =
          List.fold_left
            (fun acc b ->
              match Json.member "count" b with
              | Some (Json.Num c) -> acc + int_of_float c
              | _ -> Alcotest.fail "bucket without count")
            0 buckets
        in
        Alcotest.(check int) "bucket counts sum to count" (int_of_float count) total
      | _ -> Alcotest.fail "histogram missing count/buckets")
    | None -> Alcotest.fail "no pair_check_ns histogram")
  | _ -> Alcotest.fail "no histograms object"

let test_canonical () =
  (* Equal metric states render to equal JSON strings. *)
  let mk () =
    let m = Dic.Metrics.create () in
    Dic.Metrics.incr m "b";
    Dic.Metrics.incr ~by:3 m "a";
    Dic.Metrics.observe_ns m "h" 100L;
    Dic.Metrics.observe_ns m "h" 5000L;
    Dic.Metrics.add_stage_seconds m "s1" 0.25;
    m
  in
  Alcotest.(check string) "canonical" (Dic.Metrics.to_json (mk ()))
    (Dic.Metrics.to_json (mk ()))

let test_counter_invariants () =
  let m = Dic.Metrics.create () in
  Alcotest.(check int) "absent counter is zero" 0 (Dic.Metrics.counter m "nope");
  Dic.Metrics.incr m "x";
  Dic.Metrics.incr ~by:41 m "x";
  Alcotest.(check int) "accumulates" 42 (Dic.Metrics.counter m "x");
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Metrics.incr: counters are monotonic (by < 0)") (fun () ->
      Dic.Metrics.incr ~by:(-1) m "x")

let test_merge () =
  let a = Dic.Metrics.create () and b = Dic.Metrics.create () in
  Dic.Metrics.incr ~by:2 a "n";
  Dic.Metrics.incr ~by:5 b "n";
  Dic.Metrics.observe_ns a "h" 10L;
  Dic.Metrics.observe_ns b "h" 20L;
  Dic.Metrics.merge_into ~into:a b;
  Alcotest.(check int) "counters added" 7 (Dic.Metrics.counter a "n");
  match Dic.Metrics.histogram a "h" with
  | Some s ->
    Alcotest.(check int) "observations added" 2 s.Dic.Metrics.h_count;
    Alcotest.(check bool) "sum added" true (s.Dic.Metrics.h_sum_ns = 30L)
  | None -> Alcotest.fail "histogram lost in merge"

(* A stage is charged the words it allocated even when no minor
   collection ran inside it; recording into a resolved histogram
   allocates nothing. *)
let test_allocation_counts () =
  let m = Dic.Metrics.create () in
  Gc.minor ();
  let l = Dic.Metrics.time_stage m "build" (fun () -> List.init 1000 Fun.id) in
  Alcotest.(check int) "list built" 1000 (List.length l);
  let words = Dic.Metrics.counter m "gc.minor_words.build" in
  Alcotest.(check bool) (Printf.sprintf "%d minor words >= 3000" words) true (words >= 3000);
  let h = Dic.Metrics.hist m "h" in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    let t0 = Dic.Metrics.clock_ns () in
    Dic.Metrics.observe h (Dic.Metrics.clock_ns () - t0)
  done;
  Alcotest.(check (float 0.)) "recording allocates nothing" 0. (Gc.minor_words () -. w0);
  match Dic.Metrics.histogram m "h" with
  | Some s -> Alcotest.(check int) "every observation kept" 10_000 s.Dic.Metrics.h_count
  | None -> Alcotest.fail "histogram missing"

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)

let test_gauges () =
  let m = Dic.Metrics.create () in
  Alcotest.(check (option (float 0.))) "absent gauge" None (Dic.Metrics.gauge m "g");
  Dic.Metrics.set_gauge m "g" 2.5;
  Dic.Metrics.set_gauge m "g" 1.5;
  Alcotest.(check (option (float 0.))) "latest reading wins" (Some 1.5)
    (Dic.Metrics.gauge m "g");
  Dic.Metrics.set_gauge m "a" 0.25;
  Alcotest.(check (list (pair string (float 0.)))) "sorted by name"
    [ ("a", 0.25); ("g", 1.5) ] (Dic.Metrics.gauges m)

let test_gauge_merge () =
  let a = Dic.Metrics.create () and b = Dic.Metrics.create () in
  Dic.Metrics.set_gauge a "shared" 1.;
  Dic.Metrics.set_gauge a "only_a" 7.;
  Dic.Metrics.set_gauge b "shared" 2.;
  Dic.Metrics.merge_into ~into:a b;
  Alcotest.(check (option (float 0.))) "source reading wins" (Some 2.)
    (Dic.Metrics.gauge a "shared");
  Alcotest.(check (option (float 0.))) "destination-only survives" (Some 7.)
    (Dic.Metrics.gauge a "only_a")

let test_gauge_json () =
  (* The gauges member is always present (canonical shape) and carries
     the readings; a check records no sliding window, so there is no
     windows member.  The engine's cache.hit_ratio gauge lands in the
     run metrics. *)
  let m = Dic.Metrics.create () in
  let v = Json.parse (Dic.Metrics.to_json m) in
  (match Json.member "gauges" v with
  | Some (Json.Obj []) -> ()
  | _ -> Alcotest.fail "empty state must render an empty gauges object");
  Alcotest.(check bool) "no windows member" true (Json.member "windows" v = None);
  Dic.Metrics.set_gauge m "g" 0.5;
  let v = Json.parse (Dic.Metrics.to_json m) in
  (match Json.member "gauges" v with
  | Some (Json.Obj [ ("g", Json.Num f) ]) ->
    Alcotest.(check (float 0.)) "gauge value" 0.5 f
  | _ -> Alcotest.fail "gauge missing from JSON");
  let result = run_ok (workload ()) in
  match Json.member "gauges" (Json.parse (Dic.Metrics.to_json result.Dic.Engine.metrics)) with
  | Some (Json.Obj kvs) ->
    Alcotest.(check bool) "engine records cache.hit_ratio" true
      (List.mem_assoc "cache.hit_ratio" kvs)
  | _ -> Alcotest.fail "run metrics without gauges"

(* ------------------------------------------------------------------ *)
(* Parallel determinism                                                *)

let canonical_errors (r : Dic.Engine.result) =
  Dic.Report.errors r.Dic.Engine.report
  |> List.map (fun (v : Dic.Report.violation) ->
         (v.Dic.Report.rule, v.Dic.Report.context,
          Option.map
            (fun w -> (Geom.Rect.x0 w, Geom.Rect.y0 w, Geom.Rect.x1 w, Geom.Rect.y1 w))
            v.Dic.Report.where,
          v.Dic.Report.message))
  |> List.sort compare

let with_jobs jobs =
  { Dic.Engine.default_config with
    Dic.Engine.interactions =
      { Dic.Interactions.default_config with Dic.Interactions.jobs } }

let salted_workload () =
  let clean = Layoutgen.Cells.grid ~lambda ~nx:4 ~ny:3 in
  let margin = (4 * Layoutgen.Cells.pitch_x * lambda) + (6 * lambda) in
  let salted, _ =
    Layoutgen.Inject.apply clean
      (Layoutgen.Inject.standard_batch ~lambda ~at:(margin, 0) ~step:(10 * lambda))
  in
  salted

let test_jobs_deterministic () =
  List.iter
    (fun file ->
      let serial = run_ok ~config:(with_jobs 1) file in
      let parallel = run_ok ~config:(with_jobs 4) file in
      Alcotest.(check bool) "some errors to compare" true
        (canonical_errors serial <> []);
      let canon =
        Alcotest.testable
          (fun ppf (rule, ctx, _, _) -> Format.fprintf ppf "%s in %s" rule ctx)
          ( = )
      in
      Alcotest.(check (list canon)) "identical classified error sets"
        (canonical_errors serial) (canonical_errors parallel);
      (* Stronger than the acceptance criterion: the raw report lists
         are identical, not merely equal as sets. *)
      Alcotest.(check bool) "identical report order" true
        (serial.Dic.Engine.report = parallel.Dic.Engine.report))
    [ salted_workload ();
      (Layoutgen.Pathology.fig8_accidental ~lambda).Layoutgen.Pathology.file;
      (Layoutgen.Pathology.fig2_figures_illegal ~lambda).Layoutgen.Pathology.file ]

let test_jobs_auto () =
  (* jobs = 0 resolves to the runtime's recommendation and still runs. *)
  let r = run_ok ~config:(with_jobs 0) (workload ()) in
  Alcotest.(check bool) "completed" true
    (Dic.Report.count r.Dic.Engine.report >= 0)

let test_stats_merge_totals () =
  (* Per-cell pair totals are independent of the domain count (only the
     memo hit/miss split may shift). *)
  let totals (r : Dic.Engine.result) =
    let s = r.Dic.Engine.interaction_stats in
    List.map
      (fun (la, lb, (c : Dic.Interactions.cell_stats)) ->
        ((Tech.Layer.index la, Tech.Layer.index lb),
         (c.Dic.Interactions.pairs, c.Dic.Interactions.checked)))
      (Dic.Interactions.touched_cells s)
  in
  let file = salted_workload () in
  let serial = run_ok ~config:(with_jobs 1) file in
  let parallel = run_ok ~config:(with_jobs 3) file in
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "cell totals invariant" (totals serial) (totals parallel)

let () =
  Alcotest.run "metrics"
    [ ("json",
       [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
         Alcotest.test_case "canonical" `Quick test_canonical ]);
      ("counters",
       [ Alcotest.test_case "invariants" `Quick test_counter_invariants;
         Alcotest.test_case "merge" `Quick test_merge;
         Alcotest.test_case "allocation" `Quick test_allocation_counts ]);
      ("gauges",
       [ Alcotest.test_case "readings" `Quick test_gauges;
         Alcotest.test_case "merge" `Quick test_gauge_merge;
         Alcotest.test_case "json" `Quick test_gauge_json ]);
      ("parallel",
       [ Alcotest.test_case "deterministic" `Quick test_jobs_deterministic;
         Alcotest.test_case "auto jobs" `Quick test_jobs_auto;
         Alcotest.test_case "stats totals" `Quick test_stats_merge_totals ]) ]
