(** Small statistics helpers for the benchmark harness. *)

val mean : float list -> float
val geomean : float list -> float

val percentile : float list -> p:float -> float
(** Nearest-rank percentile ([p] in 0..100) of an unsorted sample;
    [nan] on the empty list. *)

val percentiles : float list -> ps:float list -> float list
(** [percentile] at each of [ps], sorting the sample once. *)

val normalize : baseline:float -> float list -> float list
(** Each value divided by [baseline]. *)

val overhead_pct : baseline:float -> float -> float
(** Percentage overhead relative to a baseline. *)

val reduction_pct : from_:float -> to_:float -> float
(** Percentage reduction (positive = improvement). *)

val si : float -> string
(** Short SI-suffixed number ("1.5k", "2.30M"). *)
