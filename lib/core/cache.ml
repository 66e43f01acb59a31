type t = { root : string }

type def_entry = {
  de_elements : Report.violation list;
  de_devices : Report.violation list;
  de_relational : Report.violation list;
}

type memo_file = ((string * string * Geom.Transform.t) * Interactions.memo_entry) list

(* Bump when the payload representation changes (a marshalled
   [Geom.Rects.t] included): old files become misses, not crashes.
   The digest only guards against torn or damaged bytes; a file another
   version wrote in good faith passes it, so the magic is the sole
   version check. *)
let magic = "dicache3"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

let open_dir root =
  mkdir_p root;
  { root }

let def_path t ~env ~fp = Filename.concat t.root (Filename.concat "defs" (Filename.concat env fp))
let memo_path t ~env = Filename.concat t.root (Filename.concat "memo" env)

(* [magic ^ MD5(payload) ^ payload], written to a sibling temp name and
   renamed so a reader never sees a torn file.  The temp name carries
   the pid and a process-wide sequence number: concurrent writers (the
   serve daemon's worker domains, or two daemons on one cache) must not
   stage into the same temp file or one rename ships the other's
   half-written bytes. *)
let tmp_seq = Atomic.make 0

let write_file path payload =
  mkdir_p (Filename.dirname path);
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      output_string oc (Digest.string payload);
      output_string oc payload);
  Sys.rename tmp path

(* Returns the payload only when the magic and digest both check out;
   any damage at all reads as a miss. *)
let read_file path =
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          let header = String.length magic + 16 in
          if len < header then None
          else begin
            let m = really_input_string ic (String.length magic) in
            if m <> magic then None
            else begin
              let digest = really_input_string ic 16 in
              let payload = really_input_string ic (len - header) in
              if Digest.string payload = digest then Some payload else None
            end
          end)
    with Sys_error _ | End_of_file -> None

let marshal v = Marshal.to_string v []

(* The digest check above means [Marshal.from_string] only ever sees
   bytes we wrote, but guard anyway: a same-digest file written by a
   different compiler version must degrade to a miss. *)
let unmarshal payload =
  try Some (Marshal.from_string payload 0) with Failure _ -> None

let find_def t ~env ~fp : def_entry option =
  match read_file (def_path t ~env ~fp) with
  | None -> None
  | Some payload -> (unmarshal payload : def_entry option)

let store_def t ~env ~fp (entry : def_entry) =
  write_file (def_path t ~env ~fp) (marshal entry)

let load_memo t ~env : memo_file =
  match read_file (memo_path t ~env) with
  | None -> []
  | Some payload -> (
    match (unmarshal payload : memo_file option) with
    | None -> []
    | Some entries -> entries)

let store_memo t ~env (entries : memo_file) =
  write_file (memo_path t ~env) (marshal entries)
