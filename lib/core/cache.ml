type def_entry = {
  de_elements : Report.violation list;
  de_devices : Report.violation list;
  de_relational : Report.violation list;
}

type t = {
  root : string;
  (* Every entry this handle has read or stored, by file path.  The
     serve daemon's workers share one handle, hence the lock. *)
  lock : Mutex.t;
  entries : (string, def_entry) Hashtbl.t;
}

(* Bump when the payload representation changes (a marshalled
   [Geom.Rects.t] included): old files become misses, not crashes.
   The digest only guards against torn or damaged bytes; a file another
   version wrote in good faith passes it, so the magic is the sole
   version check. *)
let magic = "dicache4"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

let defs_dir root = Filename.concat root "defs"

let open_dir root =
  let defs = defs_dir root in
  mkdir_p defs;
  if not (Sys.is_directory defs) then raise (Sys_error (defs ^ ": Not a directory"));
  { root; lock = Mutex.create (); entries = Hashtbl.create 64 }

let def_path t ~env ~fp = Filename.concat (defs_dir t.root) (Filename.concat env fp)

(* [magic ^ MD5(payload) ^ payload], written to a sibling temp name and
   renamed so a reader never sees a torn file.  The temp name carries
   the pid and a process-wide sequence number: concurrent writers (the
   serve daemon's worker domains, or two daemons on one cache) must not
   stage into the same temp file or one rename ships the other's
   half-written bytes.  A write that fails (the directory vanished or
   became a file, the disk filled) removes its temp file and is
   dropped: the entry is simply not cached. *)
let tmp_seq = Atomic.make 0

let write_file path payload =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  try
    mkdir_p (Filename.dirname path);
    Out_channel.with_open_bin tmp (fun oc ->
        output_string oc magic;
        output_string oc (Digest.string payload);
        output_string oc payload);
    Sys.rename tmp path
  with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ())

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

(* Whether [path] was new to the table. *)
let remember t path entry =
  Mutex.protect t.lock (fun () ->
      let fresh = not (Hashtbl.mem t.entries path) in
      if fresh then Hashtbl.add t.entries path entry;
      fresh)

(* The digest check above means [Marshal.from_string] only ever sees
   bytes we wrote, but guard anyway: a same-digest file written by a
   different compiler version must degrade to a miss. *)
let find_def t ~env ~fp : def_entry option =
  let path = def_path t ~env ~fp in
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.entries path) with
  | Some _ as hit -> hit
  | None -> (
    match read_file path with
    | None -> None
    | Some payload -> (
      match (Marshal.from_string payload 0 : def_entry) with
      | entry ->
        ignore (remember t path entry);
        Some entry
      | exception Failure _ -> None))

(* The table takes the entry even when the write fails, so this handle
   still replays it; an address already in the table is not rewritten. *)
let store_def t ~env ~fp (entry : def_entry) =
  let path = def_path t ~env ~fp in
  if remember t path entry then write_file path (Marshal.to_string entry [])
