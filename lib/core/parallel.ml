(* The domain scheduler behind the interaction sweep, the check's only
   fan-out, at every [jobs] value.

   An ordered worklist is cut into contiguous chunks of equal task
   count, and worker domains claim chunks from an [Atomic] counter until
   the queue is dry.  With one domain the calling domain drains the same
   queue alone, through the same per-domain state and merge, so there is
   no second code path to keep in step.

   Contiguity is the determinism lever: results are identified by chunk
   index, so the caller can reassemble them in worklist order and the
   output is byte-identical at every [jobs] value — which domain
   evaluated which chunk is the only thing that varies.

   Each worker gets its own [Metrics.t] and [Trace.t] (merged into the
   caller's after the join, in tid order), and spawned workers wrap
   their whole drain in [Metrics.count_gc] against their per-domain
   buffer.  The GC readings are domain-local, so this is what makes
   [gc.*_words.<stage>] honest for a parallel stage: the caller's
   [Metrics.time_stage] covers the calling domain (including its own
   tid-0 share of the work), each worker counts its own churn, and the
   merge sums them.  Tid 0 deliberately does {e not} re-count — it runs
   on the calling domain, inside the caller's own counter. *)

let run ?metrics ?trace ~jobs ~stage ~n ~worker ~chunk ~merge () =
  let jobs = max 1 jobs in
  (* Roughly 8 chunks per domain: small enough that one expensive chunk
     cannot strand the queue, large enough to keep claims cheap. *)
  let size = max 1 (n / (jobs * 8)) in
  let nchunks = max 1 ((n + size - 1) / size) in
  (* A domain beyond the chunk count would find the queue dry. *)
  let jobs = min jobs nchunks in
  let next = Atomic.make 0 in
  (* Each cell is written by exactly one domain (the unique claimant of
     that chunk); [Domain.join] publishes the writes. *)
  let results = Array.make nchunks None in
  let work tid () =
    let st = worker tid in
    let dm = Option.map (fun _ -> Metrics.create ()) metrics in
    let dt = Option.map (fun _ -> Trace.create ~tid ()) trace in
    let args =
      [ ("stage", stage); ("tasks", string_of_int n);
        ("chunks", string_of_int nchunks) ]
    in
    let drain_all () =
      Trace.with_span dt ~cat:"shard" ~args (Printf.sprintf "shard[%d]" tid)
        (fun () ->
          let rec drain () =
            let c = Atomic.fetch_and_add next 1 in
            if c < nchunks then begin
              let lo = c * size in
              results.(c) <- Some (chunk st dm dt ~lo ~hi:(min n (lo + size)));
              drain ()
            end
          in
          drain ())
    in
    (match dm with
    | Some m when tid > 0 -> Metrics.count_gc m stage drain_all
    | _ -> drain_all ());
    (st, dm, dt)
  in
  (* The runtime caps live domains (128 in OCaml 5.1, the caller's and
     every other stage's or connection's included), so a spawn can be
     refused.  Spawning stops at the first refusal and the domains
     already running drain the queue: results are indexed by chunk, so
     fewer domains cost time, never bytes. *)
  let rec spawn tid acc =
    if tid >= jobs then List.rev acc
    else
      match Domain.spawn (work tid) with
      | d -> spawn (tid + 1) (d :: acc)
      | exception Failure _ -> List.rev acc
  in
  let spawned = spawn 1 [] in
  let first = work 0 () in
  let shards = first :: List.map Domain.join spawned in
  List.iter
    (fun (st, dm, dt) ->
      merge st;
      (match (metrics, dm) with
      | Some m, Some d -> Metrics.merge_into ~into:m d
      | _ -> ());
      (match (trace, dt) with
      | Some tr, Some d -> Trace.merge_into ~into:tr d
      | _ -> ()))
    shards;
  Array.to_list (Array.map Option.get results)
