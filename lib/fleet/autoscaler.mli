(** SLO-driven autoscaling over windowed p99 latency.

    Every [window] completed requests forms one decision window; a p99
    breach scales out (subject to cooldown and [max_replicas]), a calm
    streak scales in.  Deterministic: the trajectory is a pure function
    of the observation stream and the decision clock. *)

type config = {
  slo_p99_us : float;
  window : int;
  min_replicas : int;
  max_replicas : int;
  cooldown_ns : float;
  idle_windows : int;
  scale_in_factor : float;
}

val default_config : config

type decision = Hold | Scale_out | Scale_in

val pp_decision : Format.formatter -> decision -> unit
val show_decision : decision -> string
val equal_decision : decision -> decision -> bool

type t

val create : ?now:float -> config -> t
(** [now] starts the initial cooldown (the starting fleet must prove
    itself before the first scale-out).
    @raise Invalid_argument on a malformed config. *)

val observe : t -> latency_us:float -> unit
(** Feed one completed request's end-to-end latency. *)

val decide : t -> now:float -> replicas:int -> decision
(** [Hold] until a full window has accumulated; then consume the
    window and decide.  A non-[Hold] result restarts the cooldown —
    the caller is expected to apply it. *)

val windows : t -> int
val breaches : t -> int
val scale_outs : t -> int
val scale_ins : t -> int
