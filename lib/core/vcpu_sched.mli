(** Host-side vCPU scheduling with timer preemption and CPU quotas.

    Preemption relies on the interrupt-abuse defences of Section 4.4:
    the timer always reaches the host through the container's interrupt
    gate — the guest cannot disable interrupts, re-point the IDT, or
    forge vectors — so a deadlooping guest kernel is preempted on
    schedule and DoS is contained to its own timeslice (property S9).

    Quotas follow cgroup [cpu.max] semantics: at most [budget_ns] of
    guest runtime per [period_ns] window, throttled in between. *)

type vcpu_entry = {
  container : Container.t;
  vcpu : int;
  mutable work : (unit -> unit) Queue.t;
  mutable executed : int;
  mutable slices : int;
  mutable spinning : bool;
  quota : (float * float) option;  (** (period_ns, budget_ns) *)
  mutable q_used : float;
  mutable q_period_start : float;
  mutable throttles : int;
}

type t

val create : ?slice_ns:float -> Host.t -> t
(** Default timeslice 1 ms. *)

val add_vcpu : ?quota:float * float -> t -> Container.t -> vcpu:int -> vcpu_entry
(** [quota] is [(period_ns, budget_ns)]: the vCPU may consume at most
    [budget_ns] of runtime per [period_ns] window, then it is skipped
    (throttled) until the window rolls over.
    @raise Invalid_argument unless both are positive. *)

val remove_vcpu : t -> vcpu_entry -> unit
(** Drop the entry from the round-robin (fleet scale-in); pending work
    on it is abandoned. *)

val submit_work : vcpu_entry -> (unit -> unit) -> unit

val mark_spinning : vcpu_entry -> unit
(** Model a compromised guest that deadloops, burning whole slices. *)

val throttled : t -> vcpu_entry -> bool
(** Whether the entry's budget is exhausted in the current window
    (refreshes the window first). *)

val run : ?after_slice:(unit -> unit) -> t -> slices:int -> unit
(** Round-robin for a total number of timeslices. [after_slice] runs in
    host context between slices — the I/O plane's device-service window
    (flush coalesced queues, pump the switch).  Throttled vCPUs are
    skipped without consuming a slice; when every vCPU is throttled the
    clock idles forward to the earliest refill, so a hard cap shows up
    as latency rather than livelock. *)

val preemptions : t -> int

val throttle_events : t -> int
(** Total throttled skips across all entries. *)
