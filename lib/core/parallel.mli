(** The domain scheduler of the interaction sweep, the one stage of a
    check that fans out across domains, at every [jobs] value.  The
    per-definition stages run on the calling domain: their work is
    small beside the spawn of a domain.

    An ordered worklist of [n] tasks is cut into contiguous chunks of
    [max 1 (n / (8·jobs))] tasks each (the last one takes what is
    left), and [min jobs chunks] domains (the caller plus the spawned
    workers) claim chunks from an [Atomic] counter until the queue is
    dry.  At [jobs = 1], or when there is a single chunk, the calling
    domain drains the queue alone through the same per-domain state
    and merge.  When the runtime refuses a domain (it caps how many are
    live at once), no more are spawned and the domains already running
    drain the queue, with the same results.  Chunk results come back in
    worklist order, so callers that assemble them positionally produce
    byte-identical output at every [jobs] value — which domain ran
    which chunk is the only nondeterminism, and it is confined to
    scheduling.

    Observability: when [metrics] / [trace] are given, every worker
    accumulates into per-domain buffers that are merged into the
    caller's (in tid order, caller first) after the join.  Each worker
    emits a [shard[tid]] span (category ["shard"], args [stage],
    [tasks], [chunks]), and spawned workers charge their allocation to
    [gc.minor_words.<stage>] / [gc.major_words.<stage>] via
    {!Metrics.count_gc} — the GC readings being domain-local, this plus
    the caller's own {!Metrics.time_stage} is what makes the per-stage
    GC counters sum allocation across {e all} domains rather than
    silently reporting the calling domain's share. *)

(** [run ?metrics ?trace ~jobs ~stage ~n ~worker ~chunk ~merge ()]
    evaluates tasks [0 .. n-1] across at most [jobs] domains (values
    below 1 count as 1) and returns the per-chunk results in worklist
    order.  [n = 0] yields one empty chunk, [[chunk st dm dt ~lo:0
    ~hi:0]], so a stage records its [shard[0]] span even with nothing
    to do.

    - [stage] names the pipeline stage in shard spans and GC counters.
    - [worker tid] builds the per-domain state, on the domain that will
      use it ([tid = 0] is the calling domain).
    - [chunk st dm dt ~lo ~hi] evaluates tasks [lo .. hi-1] with that
      domain's state and per-domain metrics/trace buffers.  Called once
      per chunk, on whichever domain claimed it.
    - [merge st] folds a domain's state back into the caller's; called
      on the calling domain after all workers have joined, in tid
      order. *)
val run :
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  jobs:int ->
  stage:string ->
  n:int ->
  worker:(int -> 'st) ->
  chunk:('st -> Metrics.t option -> Trace.t option -> lo:int -> hi:int -> 'r) ->
  merge:('st -> unit) ->
  unit ->
  'r list
