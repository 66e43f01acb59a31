(* The processes the benchmark drives — one-shot [dicheck] runs and
   [dicheck serve] daemons — timed from outside, on the monotonic
   clock. *)

external wait4 : int -> int * int = "benchsuite_wait4"

let now () = Int64.to_float (Dic.Metrics.now_ns ()) *. 1e-9
let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)

let open_out_fd path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644

(* This process's own peak resident set (VmHWM), in KiB. *)
let own_peak_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" Fun.id
        | Some _ -> find ()
      in
      find ())

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* One one-shot check as a user's CI would run it. *)
type oneshot = {
  verdict_s : float;  (** spawn to exit *)
  setup_s : float;
      (** spawn to the [elaborate] progress line: start-up, deck load,
          file read and CIF parse; [nan] if the line never came *)
  peak_rss_kb : int;
  exit_code : int;  (** minus the signal number when killed *)
}

(* [args] must include [--progress]: its first stage line on stderr
   marks the end of set-up.  Stdout goes to [stdout_path]. *)
let oneshot ~dicheck ~args ~stdout_path =
  let out = open_out_fd stdout_path in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process dicheck (Array.of_list (dicheck :: args)) (Lazy.force devnull) out wr
  in
  Unix.close wr;
  Unix.close out;
  let seen = Buffer.create 256 and chunk = Bytes.create 4096 in
  let setup = ref nan in
  let rec drain () =
    match Unix.read rd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      let t = now () in
      Buffer.add_subbytes seen chunk 0 n;
      if Float.is_nan !setup && contains (Buffer.contents seen) "[dicheck] elaborate" then
        setup := t -. t0;
      drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Unix.close rd;
  let exit_code, peak_rss_kb = wait4 pid in
  { verdict_s = now () -. t0; setup_s = !setup; peak_rss_kb; exit_code }

(* ------------------------------------------------------------------ *)
(* Serve daemons                                                       *)

type daemon = {
  pid : int;
  sock : string;
  mutable reaped : (int * int) option;  (** exit code, peak RSS KiB *)
}

(* Every daemon started, so an error path can still stop them all. *)
let started = ref []

type conn = {
  fd : Unix.file_descr;
  ic : In_channel.t;
}

let connect d =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
  | () -> { fd; ic = Unix.in_channel_of_descr fd }
  | exception e ->
    Unix.close fd;
    raise e

let close c = In_channel.close c.ic

let send c line =
  let s = line ^ "\n" in
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring c.fd s !off (len - !off)
  done

let round_trip c line =
  send c line;
  match In_channel.input_line c.ic with
  | Some reply -> reply
  | None -> failwith "the daemon closed the connection"

(* [dicheck serve] on a Unix socket with 2 worker domains over a
   persistent cache, as an editor integration would start it.  Returns
   once a client connection is accepted, with that connection. *)
let start_daemon ~dicheck ~sock ~cache ~log =
  if Sys.file_exists sock then Sys.remove sock;
  let logfd = open_out_fd log in
  let pid =
    Unix.create_process dicheck
      [| dicheck; "serve"; "--socket"; sock; "--workers"; "2"; "--cache"; cache |]
      (Lazy.force devnull) logfd logfd
  in
  Unix.close logfd;
  let d = { pid; sock; reaped = None } in
  started := d :: !started;
  let deadline = now () +. 60. in
  let rec await () =
    match connect d with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
      Unix.sleepf 0.001;
      await ()
  in
  match await () with
  | c -> (d, c)
  | exception e ->
    Unix.kill pid Sys.sigkill;
    d.reaped <- Some (wait4 pid);
    raise e

(* The shutdown handshake, then reap: the daemon drains, flushes its
   cache and exits 0. *)
let stop_daemon d =
  match d.reaped with
  | Some r -> r
  | None ->
    (try
       let c = connect d in
       Fun.protect ~finally:(fun () -> close c) (fun () ->
           ignore (round_trip c {|{"id":"bye","shutdown":true}|}))
     with Unix.Unix_error _ | Failure _ | End_of_file -> Unix.kill d.pid Sys.sigterm);
    let r = wait4 d.pid in
    d.reaped <- Some r;
    r

(* Teardown on an error path: never leave a daemon behind. *)
let kill_all () =
  List.iter
    (fun d ->
      if d.reaped = None then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        d.reaped <- Some (wait4 d.pid)
      end)
    !started
