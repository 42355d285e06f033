(** Simulated-time accounting.

    Every latency the simulator charges flows through a {!t}; named
    event counters record {e why} time was spent, so tests can make
    structural assertions ("a PVM page fault performs 6 context
    switches") and benches can print breakdowns. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time in nanoseconds. *)

val charge : t -> string -> float -> unit
(** [charge t event ns] advances simulated time by [ns], attributed to
    [event] (occurrence count and total ns are both recorded). *)

(** {1 Interned event ids}

    Every event name has one dense process-wide id; a clock keeps flat
    arrays indexed by id, so charging through an id is a bounds check
    plus two array stores — no hashing, no allocation.  The string
    entry points resolve names through the same registry: [occurrences
    t "tlb_hit"] sees charges made through [charge_id t id_tlb_hit]. *)

val intern : string -> int
(** The id of an event name, registering it on first use.  Safe to call
    from several domains at once: each name gets exactly one id. *)

val id_tlb_hit : int
val id_tlb_miss_walk : int
val id_invlpg : int
val id_virtio_copy : int
val id_virtio_post : int
val id_virtio_service : int
val id_virtio_event_idx : int
val id_virtio_doorbell : int

val charge_id : t -> int -> float -> unit
(** [charge_id t (intern name) ns] is [charge t name ns], without the
    name lookup. *)

val charge_copy : t -> int -> base:float -> bytes:int -> unit
(** [charge_copy t id ~base ~bytes] is
    [charge_id t id (base +. float_of_int bytes *. Cost.copy_byte)],
    bit for bit, but allocates nothing: the charge of a payload copy. *)

val count_id : t -> int -> unit

val add_into : into:t -> t -> unit
(** [add_into ~into src] folds [src]'s elapsed time and every event
    counter into [into].  The domain-sharded engine reduces per-lane
    clocks with this in a fixed lane order, so merged totals are
    deterministic. *)

val count : t -> string -> unit
(** Record an event occurrence without advancing time. *)

val advance : t -> float -> unit
(** Advance time without attributing it to a named event (pure
    application compute). *)

val occurrences : t -> string -> int
(** How many times [event] was charged/counted. *)

val spent_on : t -> string -> float
(** Total nanoseconds attributed to [event]. *)

val reset : t -> unit

val timed : t -> (unit -> 'a) -> 'a * float
(** Run a thunk and return its result with the simulated time it
    consumed. *)

val events : t -> (string * int) list
(** All (event, occurrences) pairs, sorted by name. *)

val pp : Format.formatter -> t -> unit
