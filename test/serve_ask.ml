(* One request through a server's worker pool, as a client sees it,
   shared by the test executables: connect, submit the line, wait for
   this connection's reply.  Checks run on a worker like every client's,
   so each one lands in the server's ledger and event log. *)

let ask ?(timeout = 60.) server line =
  let reply = Atomic.make None in
  let conn = Dic.Serve.connect server ~reply:(fun r -> Atomic.set reply (Some r)) in
  Dic.Serve.submit server conn line;
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    match Atomic.get reply with
    | Some r -> r
    | None ->
      if Unix.gettimeofday () > deadline then Alcotest.fail "timed out waiting for a reply";
      Unix.sleepf 0.001;
      wait ()
  in
  wait ()

(* [with_server ?cache_dir rules f] runs [f] against a one-worker
   server and shuts it down afterwards. *)
let with_server ?cache_dir rules f =
  let server = Dic.Serve.create ?cache_dir ~workers:1 rules in
  Fun.protect ~finally:(fun () -> Dic.Serve.shutdown server) (fun () -> f server)
