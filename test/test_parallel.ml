(* Dic.Parallel: the one scheduler behind every parallel stage, at every
   jobs value. *)

(* Each chunk returns the task indices it evaluated; heavy tasks sleep
   so domains finish their chunks out of worklist order.  Every domain
   counts its tasks in its own state, and [merge] sums them. *)
let run_ids ?trace ~jobs ~heavy n =
  let merged = ref 0 and domains = ref 0 in
  let chunks =
    Dic.Parallel.run ?trace ~jobs ~stage:"test" ~n
      ~worker:(fun _tid -> ref 0)
      ~chunk:(fun count _ _ ~lo ~hi ->
        List.init (hi - lo) (fun k ->
            let i = lo + k in
            if heavy i then Unix.sleepf 0.001;
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
  let heavy i = i mod 37 = 0 in
  List.iter
    (fun jobs ->
      let chunks, merged, domains = run_ids ~jobs ~heavy n in
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
      let chunks, merged, domains = run_ids ~jobs ~heavy:(fun _ -> false) 0 in
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
  let chunks, _, domains = run_ids ~trace ~jobs:8 ~heavy:(fun _ -> false) 3 in
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
      let chunks, _, domains = run_ids ~trace ~jobs ~heavy:(fun _ -> false) 50 in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs %d: worklist order" jobs)
        (List.init 50 Fun.id) (List.concat chunks);
      Alcotest.(check int) "calling domain only" 1 domains;
      Alcotest.(check (list string)) "one shard[0]" [ "shard[0]" ] (shard_names trace))
    [ 1; 0; -3 ]

(* OCaml 5.1 allows 128 live domains per process.  A [jobs] above that
   must still evaluate every task, in worklist order, on the domains the
   runtime did grant, and join every one of them: one merge and one
   shard span per domain that ran.  Every task sleeps, so the domains
   overlap. *)
let test_jobs_above_domain_limit () =
  let n = 10_000 in
  let trace = Dic.Trace.create () in
  let chunks, merged, domains = run_ids ~trace ~jobs:129 ~heavy:(fun _ -> true) n in
  Alcotest.(check (list int)) "results in worklist order" (List.init n Fun.id)
    (List.concat chunks);
  Alcotest.(check int) "every task evaluated once" n merged;
  Alcotest.(check bool)
    (Printf.sprintf "several domains, within the runtime's cap (%d)" domains)
    true
    (domains > 1 && domains <= 128);
  Alcotest.(check (list string)) "one shard span per joined domain"
    (List.sort compare (List.init domains (Printf.sprintf "shard[%d]")))
    (List.sort compare (shard_names trace))

(* Every domain slot already taken by idle domains: the run finds none
   to spawn and drains on the calling domain alone. *)
let test_no_domain_to_spawn () =
  let lock = Mutex.create () and released = Condition.create () in
  let release = ref false in
  let idle () =
    Mutex.lock lock;
    while not !release do
      Condition.wait released lock
    done;
    Mutex.unlock lock
  in
  let rec hold acc =
    match Domain.spawn idle with
    | d -> hold (d :: acc)
    | exception Failure _ -> acc
  in
  let held = hold [] in
  let outcome = try Ok (run_ids ~jobs:4 ~heavy:(fun _ -> false) 200) with e -> Error e in
  Mutex.lock lock;
  release := true;
  Condition.broadcast released;
  Mutex.unlock lock;
  List.iter Domain.join held;
  match outcome with
  | Error e -> Alcotest.failf "run raised %s" (Printexc.to_string e)
  | Ok (chunks, merged, domains) ->
    Alcotest.(check (list int)) "results in worklist order" (List.init 200 Fun.id)
      (List.concat chunks);
    Alcotest.(check int) "every task evaluated once" 200 merged;
    Alcotest.(check int) "calling domain only" 1 domains

let () =
  Alcotest.run "parallel"
    [ ( "run",
        [ Alcotest.test_case "worklist order, uneven weights" `Quick test_worklist_order;
          Alcotest.test_case "empty worklist is one empty chunk" `Quick test_empty_worklist;
          Alcotest.test_case "domains capped at chunk count" `Quick
            test_domains_capped_at_chunks;
          Alcotest.test_case "jobs below 2 run on the calling domain" `Quick
            test_serial_is_one_shard;
          Alcotest.test_case "jobs above the domain limit" `Quick
            test_jobs_above_domain_limit;
          Alcotest.test_case "no domain left to spawn" `Quick test_no_domain_to_spawn ] ) ]
