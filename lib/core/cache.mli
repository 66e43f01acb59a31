(** Content-addressed store for per-definition check results: a
    directory of files, and a handle that remembers what it has read
    or stored.

    {2 Addressing}

    Everything is keyed under an {e environment digest} [env] — a hash
    of the rule set and the result-affecting parts of the engine
    configuration, computed by the {!Engine} — so results checked
    under different rules or configs can never be confused.  Within an
    environment a definition entry is addressed by the symbol's
    structural fingerprint ({!Engine.fingerprint}), which covers the
    definition's geometry and its CIF source positions, so the entry is
    valid for {e any} layout containing an identical definition at the
    same place in its text.

    {2 Layout}

    {v
    DIR/defs/<env>/<fingerprint>   one file per cached definition
    v}

    Nothing else under [DIR] is read or written.

    {2 The handle's table}

    A handle keeps every entry it has read or stored in a table keyed
    by the entry's address, beside its directory.  {!find_def} consults
    the table before the file, so one handle reads each file at most
    once; {!store_def} fills the table even when the file write fails.
    A lock guards the table, so any number of domains may share one
    handle, as the serve daemon's workers do.

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

(** [open_dir dir] creates [dir/defs] (and parents) if needed, and
    returns a handle with an empty table.
    @raise Sys_error when [dir/defs] is not, and cannot be made, a
    directory. *)
val open_dir : string -> t

(** The entry from the table, else from its file (then remembered);
    [None] on miss or corruption. *)
val find_def : t -> env:string -> fp:string -> def_entry option

(** Remember the entry and write its file, unless the table already
    holds that address.  The write is best effort: a failed write
    leaves no file behind and is ignored. *)
val store_def : t -> env:string -> fp:string -> def_entry -> unit
