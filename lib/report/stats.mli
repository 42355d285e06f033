(** Small statistics helpers for the benchmark harness. *)

val mean : float list -> float
val geomean : float list -> float

val percentile : float list -> p:float -> float
(** Nearest-rank percentile ([p] in 0..100) of an unsorted sample;
    [nan] on the empty list. *)

val percentiles : float list -> ps:float list -> float list
(** [percentile] at each of [ps], sorting the sample once. *)

(** A growable, unboxed buffer of float samples.  [mean], [percentile]
    and [percentiles] read it newest first, so they are bit-identical
    to the list functions above applied to a list built by consing
    each sample on as it was added. *)
module Samples : sig
  type t

  val create : ?capacity:int -> unit -> t
  val add : t -> float -> unit
  val length : t -> int

  val clear : t -> unit
  (** Drop every sample, keeping the storage. *)

  val mean : t -> float
  val percentile : t -> p:float -> float
  val percentiles : t -> ps:float list -> float list
end

val normalize : baseline:float -> float list -> float list
(** Each value divided by [baseline]. *)

val overhead_pct : baseline:float -> float -> float
(** Percentage overhead relative to a baseline. *)

val reduction_pct : from_:float -> to_:float -> float
(** Percentage reduction (positive = improvement). *)

val si : float -> string
(** Short SI-suffixed number ("1.5k", "2.30M"). *)
