(** Content-addressed on-disk store for per-definition check results.

    {2 Addressing}

    Everything is keyed under an {e environment digest} [env] — a hash
    of the rule set and the result-affecting parts of the engine
    configuration, computed by {!Engine.env_key} — so results checked
    under different rules or configs can never be confused.  Within an
    environment a definition entry is addressed by the symbol's
    structural fingerprint ({!Engine.fingerprint}), so the entry is
    valid for {e any} layout containing a structurally identical
    definition.

    {2 Layout}

    {v
    DIR/defs/<env>/<fingerprint>   one file per cached definition
    v}

    Nothing else under [DIR] is read or written.

    {2 Safety and determinism}

    Every file is [magic ^ MD5(payload) ^ payload] and is written to a
    temporary name then renamed, so readers never observe a partial
    file.  A file that is missing, truncated, from another version, or
    whose digest does not match is treated as a miss, and a store that
    fails is dropped — cache trouble can cost a recheck but can never
    crash or change a verdict.  The cache stores only inputs to report
    {e assembly} (violation lists), never verdict logic, which is the
    engine's determinism invariant: cache state changes cost, not
    results.

    {2 Concurrent writers}

    Temp names are unique per writer (pid × sequence number), so any
    number of domains or processes may store into one cache directory:
    each rename publishes a complete, self-verifying file, and when two
    writers race on the same address the last rename wins.  Entries are
    content-addressed, so racing writers are writing identical
    payloads. *)

type t

(** Per-definition results for the three definition-local sweeps.  The
    lists are in the checker's emission order for that definition. *)
type def_entry = {
  de_elements : Report.violation list;
  de_devices : Report.violation list;
  de_relational : Report.violation list;
}

(** [open_dir dir] creates [dir/defs] (and parents) if needed.
    @raise Sys_error when [dir/defs] is not, and cannot be made, a
    directory. *)
val open_dir : string -> t

(** [None] on miss or corruption. *)
val find_def : t -> env:string -> fp:string -> def_entry option

(** Best effort: a failed write leaves no file behind and is ignored. *)
val store_def : t -> env:string -> fp:string -> def_entry -> unit
