(** Statistics and verdict helpers of the benchmark suite.

    Pure functions, kept apart from the process-driving code so the
    unit tests can pin them: sample summaries, the tail-percentile rule,
    self time from nested spans, the [compare] verdict, and the
    report-identity check every benchmarked operation goes through. *)

(** {1 Sample summaries} *)

(** [quantile xs q] for [q] in [0, 1], by the "exclusive" method of
    Python's [statistics.quantiles] (positions [q * (n + 1)], clamped to
    the sample, linear interpolation), so the quartiles printed here are
    the ones a reader recomputes with [statistics.quantiles(xs, n=4)].
    [nan] on an empty sample. *)
val quantile : float list -> float -> float

val median : float list -> float

(** [(q1, median, q3)]. *)
val quartiles : float list -> float * float * float

(** The highest of the percentiles 99, 95, 90, 75 and 50 that leaves at
    least ten of [n] samples beyond it, or [None] below 20 samples. *)
val tail_percentile : int -> int option

(** {1 Spans} *)

type span = {
  sp_name : string;
  sp_start : float;  (** seconds, any origin *)
  sp_dur : float;  (** seconds *)
}

(** Self time of every span, in input order: its duration minus the part
    of its interval covered by its direct children.  Spans must nest
    (any two are disjoint or one contains the other), as
    [Dic.Trace.with_span] records them. *)
val self_times : span list -> (string * float) list

(** {1 Comparing two measurements} *)

type better = Lower | Higher

val better_of_string : string -> better option

(** One side of a comparison: the reported median, its quartiles, and
    the individual samples behind them. *)
type side = {
  median : float;
  q1 : float;
  q3 : float;
  samples : float list;
}

val side_of_samples : float list -> side

type verdict = Improved | Unchanged | Worse | Unresolved

val string_of_verdict : verdict -> string

(** How far [b] is worse than [a], as a share of [a]'s median (negative
    when [b] is better). *)
val worsening : better:better -> side -> side -> float

(** The rule of [compare].  When either side's spread — inter-quartile
    distance over the median — exceeds [bound] the medians cannot be
    trusted: the verdict is [Improved] or
    [Worse] only if every sample of one side beats every sample of the
    other, and [Unresolved] otherwise.  Otherwise [Worse] when [b] is
    worse than [a] by more than [bound], [Improved] when better by more
    than [bound], else [Unchanged]. *)
val verdict : better:better -> bound:float -> side -> side -> verdict

(** {1 Output identity} *)

(** [first_difference ~expected actual] is [None] when the two byte
    strings are equal, else the offset of the first byte that differs
    (the shorter length when one is a prefix of the other). *)
val first_difference : expected:string -> string -> int option

(** [identical ~what ~expected actual] is [Ok ()] on equal bytes, else
    an error naming [what], the offset and both lengths. *)
val identical : what:string -> expected:string -> string -> (unit, string) result
