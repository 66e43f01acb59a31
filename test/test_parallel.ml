(* Dic.Parallel: the one scheduler behind every parallel stage, at every
   jobs value. *)

(* Each chunk returns the task indices it evaluated; heavy tasks sleep
   so domains finish their chunks out of worklist order.  Every domain
   counts its tasks in its own state, and [merge] sums them. *)
let run_ids ?trace ~jobs ~weight n =
  let merged = ref 0 and domains = ref 0 in
  let chunks =
    Dic.Parallel.run ?trace ~jobs ~stage:"test" ~weight ~n
      ~worker:(fun _tid -> ref 0)
      ~chunk:(fun count _ _ ~lo ~hi ->
        List.init (hi - lo) (fun k ->
            let i = lo + k in
            if weight i > 100 then Unix.sleepf 0.001;
            incr count;
            i))
      ~merge:(fun count ->
        incr domains;
        merged := !merged + !count)
      ()
  in
  (chunks, !merged, !domains)

let test_worklist_order () =
  let n = 300 in
  let weight i = if i mod 37 = 0 then 1000 else 1 + (i mod 5) in
  List.iter
    (fun jobs ->
      let chunks, merged, domains = run_ids ~jobs ~weight n in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs %d: results in worklist order" jobs)
        (List.init n Fun.id) (List.concat chunks);
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: no empty chunk" jobs)
        true
        (List.for_all (fun c -> c <> []) chunks);
      Alcotest.(check int) (Printf.sprintf "jobs %d: merged task count" jobs) n merged;
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: one merge per domain, at most jobs" jobs)
        true
        (domains >= 1 && domains <= jobs))
    [ 1; 2; 4 ]

let test_empty_worklist () =
  List.iter
    (fun jobs ->
      let chunks, merged, domains = run_ids ~jobs ~weight:(fun _ -> 1) 0 in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "jobs %d: one empty chunk" jobs)
        [ [] ] chunks;
      Alcotest.(check int) "nothing evaluated" 0 merged;
      Alcotest.(check int) "calling domain only" 1 domains)
    [ 1; 4 ]

let shard_names trace =
  List.filter_map
    (fun e -> if e.Dic.Trace.e_cat = "shard" then Some e.Dic.Trace.e_name else None)
    (Dic.Trace.events trace)

let test_domains_capped_at_chunks () =
  let trace = Dic.Trace.create () in
  let chunks, _, domains = run_ids ~trace ~jobs:8 ~weight:(fun _ -> 1) 3 in
  Alcotest.(check (list int)) "all three tasks" [ 0; 1; 2 ] (List.concat chunks);
  let shards = shard_names trace in
  Alcotest.(check bool) "at most 3 shard spans" true (List.length shards <= 3);
  Alcotest.(check int) "one shard span per domain" domains (List.length shards);
  Alcotest.(check (list string)) "shards numbered from 0"
    (List.init (List.length shards) (Printf.sprintf "shard[%d]"))
    shards

let test_serial_is_one_shard () =
  List.iter
    (fun jobs ->
      let trace = Dic.Trace.create () in
      let chunks, _, domains = run_ids ~trace ~jobs ~weight:(fun _ -> 1) 50 in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs %d: worklist order" jobs)
        (List.init 50 Fun.id) (List.concat chunks);
      Alcotest.(check int) "calling domain only" 1 domains;
      Alcotest.(check (list string)) "one shard[0]" [ "shard[0]" ] (shard_names trace))
    [ 1; 0; -3 ]

let () =
  Alcotest.run "parallel"
    [ ( "run",
        [ Alcotest.test_case "worklist order, uneven weights" `Quick test_worklist_order;
          Alcotest.test_case "empty worklist is one empty chunk" `Quick test_empty_worklist;
          Alcotest.test_case "domains capped at chunk count" `Quick
            test_domains_capped_at_chunks;
          Alcotest.test_case "jobs below 2 run on the calling domain" `Quick
            test_serial_is_one_shard ] ) ]
