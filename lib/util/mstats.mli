(** Small descriptive-statistics toolbox for the experiment harness.

    Table 7 of the paper reports the mean of ten random-pattern runs; the
    extended benches additionally report spread, so the harness can show
    whether "selected beats random" clears the noise. *)

val mean : float array -> float
(** @raise Invalid_argument on an empty array. *)

val stddev : float array -> float
(** Unbiased sample standard deviation (n−1 denominator); 0 for singleton
    input.  @raise Invalid_argument on an empty array. *)

val min_max : float array -> float * float
(** @raise Invalid_argument on an empty array. *)

val median : float array -> float
(** Does not mutate its argument. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0,100\]], linear interpolation between
    order statistics.  @raise Invalid_argument if out of range or empty. *)

val histogram : bins:int -> float array -> (float * float * int) array
(** [histogram ~bins xs] partitions [min,max] into equal bins and returns
    [(lo, hi, count)] per bin.  @raise Invalid_argument if [bins <= 0] or
    [xs] is empty. *)
